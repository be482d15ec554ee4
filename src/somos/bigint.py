"""Exact division and decimal text for integers of any size.

Somos-5's a_n has about 0.103 n^2 bits (a_1000 has about 31,000 digits),
so engine steps, identity checks, certificate residues and printed
witnesses run past three limits of CPython 3.11's builtins:

  * divmod divides by schoolbook, in quadratic time.  _divmod is the
    builtin while the divisor or the quotient has at most _DIV_LIMIT
    bits, and Burnikel and Ziegler's recursive division past that.
  * str() and int() take quadratic time, and refuse an integer past the
    interpreter's int<->str digit limit (4,300 digits by default).
    to_decimal and from_decimal are one divide-and-conquer conversion at
    every size, whose str() and int() see only leaves of at most
    _LEAF_DIGITS digits, so no digit limit the interpreter accepts is
    ever reached.  decimal_repr, a dataclass __repr__, prints field
    values through to_decimal.
  * deciding an equality of products, x*y == sum of u*v, costs every
    product in full.  _mersenne_exponents and _mersenne_residue let a
    caller decide it exactly from residues modulo M_i = 2^{p_i} - 1,
    whose products are far smaller: _mersenne_exponents states why
    enough of them prove equality.

Every result is exact at any size, and no function touches process-wide
state beyond functools caches of values fixed for the process.  This
module imports nothing from the package.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import fields
from functools import cache
from itertools import accumulate
from math import isqrt

# Divisions with a divisor or quotient of at most this many bits are left
# to the builtin divmod; it is also the leaf size of _divmod's recursion.
# Re-timed on CPython 3.11.7 over the divisions that remain: Somos-7
# steps to n = 700, to_decimal's divisions by 5**d for 700 Somos-5 terms,
# and the certificate residues at n in [400, 450) and [950, 1000).  On
# each, this limit came within about 10% of the best from 1,000 to 4,000
# bits, and no other limit was best on all of them.
_DIV_LIMIT = 2000

_INT_FIELD = re.compile(r"[+-]?[0-9]+")

# The smallest exponent p of a modulus 2^p - 1.  Smaller moduli mean
# cheaper residue products but more of them, and more folds of each term.
# Timed on CPython 3.11.7 over the Somos-5 identity pass to n = 700 and
# 1000, best of 11 and of 5: starts of 1,499 and 2,003 came within 8% of
# this one, and 4,001 was slower.
_MERSENNE_START = 3001

# Leaf size, in decimal digits, of the divide-and-conquer conversions.  It
# is below 640, the smallest nonzero int<->str digit limit the interpreter
# accepts, so no str() or int() on a leaf can trip that limit.
_LEAF_DIGITS = 600


def _divmod(a: int, b: int) -> tuple[int, int]:
    """Exactly divmod(a, b), for all ints; b == 0 raises ZeroDivisionError.

    A division whose divisor or quotient has at most _DIV_LIMIT bits goes
    to the builtin, which divides by schoolbook in CPython 3.11.  A larger
    one runs Burnikel and Ziegler's recursive division ("Fast recursive
    division", MPI-I-98-1-022, 1998) over the base-2^n digits of |a|,
    where n is the bit length of b, at the cost of a few multiplications
    of half the divisor's size per level.
    """
    n = b.bit_length()
    if min(n, a.bit_length() - n) <= _DIV_LIMIT:
        return divmod(a, b)
    if b < 0:
        quotient, remainder = _divmod(-a, -b)
        return quotient, -remainder
    if a < 0:
        # ~a = -a - 1 >= 0.  From ~a = q*b + r follows a = ~q*b + (b + ~r),
        # and 0 <= b + ~r < b.
        quotient, remainder = _divmod(~a, b)
        return ~quotient, b + ~remainder
    # The fewest n-bit digits with a < b * 2^(count*n), since b >= 2^(n-1).
    count = -(-(a.bit_length() - n + 1) // n)
    return _div_digits(a, b, n, count)


def _div_digits(a: int, b: int, n: int, count: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^(count*n).

    Splits a at a digit boundary and divides the high part first; its
    remainder, below b, heads the low part.
    """
    if count == 1:
        return _div2n1n(a, b, n)
    shift = (count // 2) * n
    high_q, r = _div_digits(a >> shift, b, n, count - count // 2)
    low_q, r = _div_digits(r << shift | a & ((1 << shift) - 1), b, n, count // 2)
    return high_q << shift | low_q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^n.

    The quotient has at most n bits; it is found as two digits of n/2
    bits, each by one _div3n2n.  An odd n is made even by doubling a and
    b, which leaves the quotient unchanged and doubles the remainder.
    """
    if a.bit_length() - n <= _DIV_LIMIT:
        return divmod(a, b)
    odd = n & 1
    if odd:
        a, b, n = a << 1, b << 1, n + 1
    half = n >> 1
    mask = (1 << half) - 1
    b_high, b_low = b >> half, b & mask
    q_high, r = _div3n2n(a >> n, a >> half & mask, b, b_high, b_low, half)
    q_low, r = _div3n2n(r, a & mask, b, b_high, b_low, half)
    return q_high << half | q_low, r >> odd


def _div3n2n(
    a_high: int, a_low: int, b: int, b_high: int, b_low: int, half: int
) -> tuple[int, int]:
    """divmod(a_high * 2^half + a_low, b) where b = b_high * 2^half + b_low
    has exactly 2*half bits, a_low < 2^half and the quotient is below 2^half.

    Estimates the quotient from the top digits, a_high / b_high, which
    overshoots by at most 2, then corrects it against the full divisor.
    """
    if a_high >> half == b_high:
        # The estimate would reach 2^half; 2^half - 1 is within 2 of the truth.
        q = (1 << half) - 1
        r = a_high - (b_high << half) + b_high
    else:
        q, r = _div2n1n(a_high, b_high, half)
    r = (r << half | a_low) - q * b_low
    while r < 0:
        q -= 1
        r += b
    return q, r


def _mersenne_exponents(bound: int) -> tuple[int, ...]:
    """The fewest primes p_1 < p_2 < ... from _MERSENNE_START up with
    sum(p_i - 1) >= bound.

    Their moduli M_i = 2^{p_i} - 1 are pairwise coprime, as
    gcd(2^a - 1, 2^b - 1) = 2^{gcd(a, b)} - 1 (Knuth, TAOCP vol. 2,
    4.3.2) and distinct primes have gcd 1.  So an integer d with
    |d| < 2^bound that every M_i divides is 0: their product divides d
    and is at least the product of the 2^{p_i - 1}, which is 2^bound or
    more.  The primes are found by trial division on first use and kept
    in a table that doubles as bounds grow.
    """
    size = 64
    while True:
        primes, sums = _exponent_table(size)
        if sums[-1] >= bound:
            return primes[: bisect_left(sums, bound) + 1]
        size *= 2


@cache
def _exponent_table(size: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first size primes from _MERSENNE_START up, and the running sums of p - 1."""
    primes = []
    p = _MERSENNE_START
    while len(primes) < size:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            primes.append(p)
        p += 1
    return tuple(primes), tuple(accumulate(p - 1 for p in primes))


def _mersenne_residue(x: int, p: int) -> int:
    """x mod 2^p - 1, in [0, 2^p - 1), for any int x and p >= 1.

    As 2^p = 1 modulo M = 2^p - 1, so is 2^m for every multiple m of p,
    and x = hi * 2^m + lo is congruent to hi + lo.  Folding at the
    multiple of p nearest below half of x's width roughly halves x each
    time at the cost of a shift, a mask and an add; below 2p bits, folds
    at p itself leave at most M, which is 0.
    """
    if x < 0:
        r = _mersenne_residue(-x, p)
        return (1 << p) - 1 - r if r else 0
    while (n := x.bit_length()) > 2 * p:
        m = n // (2 * p) * p
        x = (x >> m) + (x & ((1 << m) - 1))
    mask = (1 << p) - 1
    while x > mask:
        x = (x >> p) + (x & mask)
    return 0 if x == mask else x


def to_decimal(value: int) -> str:
    """Exact decimal string of an integer of any size, by divide and conquer.

    |value| = hi * 10**d + lo, where d is half the width in digits.  Since
    10**d = 5**d * 2**d, hi and lo come from one _divmod of |value| >> d
    by 5**d, with the powers of five cached for the call.  Leaves of at
    most _LEAF_DIGITS digits go through str() and are padded to their
    width with zfill; a value that fits in one leaf is str() itself.
    Touches no process-wide state, so it is safe to call from any thread.
    """
    # 30103/100000 > log10(2), so |value| < 2**bits <= 10**width.
    width = value.bit_length() * 30103 // 100000 + 1
    if width <= _LEAF_DIGITS:
        return str(value)
    power_of_five = cache(lambda d: 5**d)

    def convert(n, w):  # n < 10**w; exactly w digits
        if w <= _LEAF_DIGITS:
            return str(n).zfill(w)
        d = w >> 1
        hi, rest = _divmod(n >> d, power_of_five(d))
        return convert(hi, w - d) + convert(rest << d | n & ((1 << d) - 1), d)

    digits = convert(abs(value), width).lstrip("0")
    return "-" + digits if value < 0 else digits


def decimal_repr(self) -> str:
    """The dataclass default repr, with every int printed through to_decimal.

    Assigned as __repr__ in a dataclass body, it lists the fields the
    default repr would, and prints ints, also inside tuples, in full
    where repr() would raise ValueError past the digit limit.
    """
    shown = (f"{f.name}={_repr_text(getattr(self, f.name))}" for f in fields(self) if f.repr)
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _repr_text(value) -> str:
    if isinstance(value, int) and not isinstance(value, bool):
        return to_decimal(value)
    if isinstance(value, tuple):
        items = [_repr_text(item) for item in value]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    return repr(value)


def from_decimal(text: str) -> int:
    """Parse a decimal literal of any length: optional sign, ASCII digits.

    Surrounding whitespace is ignored; anything else, underscores
    included, raises ValueError.  After CPython 3.12's Lib/_pylong.py:
    value = hi * 10**d + lo, where d is the length of the low half and
    hi * 10**d is formed as (hi * 5**d) << d, with the powers of five
    cached for the call.  Leaves of at most _LEAF_DIGITS digits go
    through int(); a literal that fits in one leaf is int() itself.
    Like to_decimal, it is thread-safe.
    """
    literal = text.strip()
    if not _INT_FIELD.fullmatch(literal):
        raise ValueError(f"invalid decimal literal: {text!r}")
    digits = literal.lstrip("+-")
    if len(digits) <= _LEAF_DIGITS:
        return int(literal)
    power_of_five = cache(lambda d: 5**d)

    def convert(a, b):
        if b - a <= _LEAF_DIGITS:
            return int(digits[a:b])
        mid = (a + b + 1) >> 1
        return convert(mid, b) + ((convert(a, mid) * power_of_five(b - mid)) << (b - mid))

    value = convert(0, len(digits))
    return -value if literal[0] == "-" else value


def term_text(value) -> str:
    """Decimal rendering of an int or Fraction term; a non-integral
    fraction renders as 'p/q'."""
    if value.denominator != 1:
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    return to_decimal(value.numerator)
