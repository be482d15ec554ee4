"""Fixed big-integer work that calibrates the speed of a shared host.

run.py launches this script around every pass and scales each pass's
time by how fast this work ran.  It uses only the standard library, so a
change to the `somos` package can never change its cost.  It exercises
the same primitives as the package (products, division with remainder,
gcd and decimal conversion) on operands of about 50,000 bits, the size
of the largest terms the workloads generate, so contention from other
tenants slows it about as much as it slows a pass.  It prints a checksum
that run.py compares with CHECKSUM.
"""

import math
import sys

CHECKSUM = 14633


def work() -> int:
    sys.set_int_max_str_digits(0)
    a, b = 3**31000 + 1, 5**21000 + 3
    acc = 0
    for i in range(40):
        q, r = divmod(a * b + i, b + 2 * i + 1)
        acc ^= math.gcd(a + i, b) + r.bit_length() + q.bit_length()
        if i % 8 == 0:
            acc ^= len(str(q))
        a, b = b + i, a - i
    return acc & 0xFFFF


if __name__ == "__main__":
    print(work())
