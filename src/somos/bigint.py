"""Exact division and decimal text for integers of any size.

Somos-5's a_n has about 0.103 n^2 bits (a_1000 has about 31,000 digits),
so engine steps, certificate residues and printed witnesses run past two
limits of CPython 3.11's builtins:

  * divmod divides by schoolbook, in quadratic time.  _divmod is the
    builtin while the divisor or the quotient has at most _DIV_LIMIT
    bits, and Burnikel and Ziegler's recursive division past that.
  * str() and int() take quadratic time, and refuse an integer past the
    interpreter's int<->str digit limit (4,300 digits by default).
    to_decimal and from_decimal are the builtins up to _DECIMAL_BITS
    bits and within that limit, and a divide-and-conquer conversion, in
    leaves of _LEAF_DIGITS digits, otherwise.  decimal_repr, a dataclass
    __repr__, prints field values through to_decimal.

Every result is exact at any size, and no function touches process-wide
state.  This module imports nothing from the package.
"""

from __future__ import annotations

import re
from dataclasses import fields
from functools import cache

# Divisions with a divisor or quotient of at most this many bits are left
# to the builtin divmod; it is also the leaf size of _divmod's recursion.
# On CPython 3.11.7, Somos-5 steps over [5, 700) took least time from
# 1,500 to 3,000 bits, and one recursion level beat the builtin from
# about 2,500-bit quotients on.
_DIV_LIMIT = 2000

_INT_FIELD = re.compile(r"[+-]?[0-9]+")

# Leaf size, in decimal digits, of the divide-and-conquer conversions.  It
# is below 640, the smallest nonzero int<->str digit limit the interpreter
# accepts, so no str() or int() on a leaf can trip that limit.
_LEAF_DIGITS = 600

# Values past this many bits convert by divide and conquer whatever the
# digit limit, so a lifted or raised limit never hands them to the
# quadratic builtins.  It is just below the default limit of 4,300 digits
# (14,284 bits), so at that limit almost every value keeps the path it
# had; there, on CPython 3.11.7, divide and conquer already prints in 0.6
# of str()'s time and parses in int()'s.
_DECIMAL_BITS = 14_000


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


def to_decimal(value: int) -> str:
    """Exact decimal string of an integer of any size.

    str() handles a value of at most _DECIMAL_BITS bits that the
    interpreter's int-to-str digit limit allows; any other goes to a
    divide-and-conquer conversion.  Touches no process-wide state, so it
    is safe to call from any thread.
    """
    if value.bit_length() <= _DECIMAL_BITS:
        try:
            return str(value)
        except ValueError:  # past a digit limit set below the default
            pass
    digits = _int_to_digits(abs(value))
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
    if isinstance(value, int):
        return to_decimal(value)
    if isinstance(value, tuple):
        items = [_repr_text(item) for item in value]
        return f"({', '.join(items)}{',' if len(items) == 1 else ''})"
    return repr(value)


def from_decimal(text: str) -> int:
    """Parse a decimal literal of any length: optional sign, ASCII digits.

    Surrounding whitespace is ignored; anything else, underscores
    included, raises ValueError.  Like to_decimal, it leaves to int() a
    literal whose value may have at most _DECIMAL_BITS bits and that the
    digit limit allows, converts any other by divide and conquer, and is
    thread-safe.
    """
    literal = text.strip()
    if not _INT_FIELD.fullmatch(literal):
        raise ValueError(f"invalid decimal literal: {text!r}")
    digits = literal.lstrip("+-")
    # d digits give a value below 10**d < 2**(3.322 * d).
    if len(digits) * 33220 // 10000 <= _DECIMAL_BITS:
        try:
            return int(literal)
        except ValueError:  # past a digit limit set below the default
            pass
    value = _digits_to_int(digits)
    return -value if literal[0] == "-" else value


def _int_to_digits(value: int) -> str:
    """Decimal digits of an integer value >= 0, by divide and conquer.

    value = hi * 10**d + lo, where d is half the width in digits.  Since
    10**d = 5**d * 2**d, hi and lo come from one _divmod of value >> d
    by 5**d, with the powers of five cached for the call.  Leaves of at
    most _LEAF_DIGITS digits go through str() and are padded to their
    width with zfill.
    """
    power_of_five = cache(lambda w: 5**w)

    def convert(n, w):  # n < 10**w; exactly w digits
        if w <= _LEAF_DIGITS:
            return str(n).zfill(w)
        d = w >> 1
        hi, rest = _divmod(n >> d, power_of_five(d))
        return convert(hi, w - d) + convert(rest << d | n & ((1 << d) - 1), d)

    # 30103/100000 > log10(2), so value < 2**bits <= 10**width.
    width = value.bit_length() * 30103 // 100000 + 1
    return convert(value, width).lstrip("0")


def _digits_to_int(digits: str) -> int:
    """Integer value of a string of ASCII digits, by divide and conquer.

    After CPython 3.12's Lib/_pylong.py: value = hi * 10**d + lo, where d
    is the length of the low half and hi * 10**d is formed as
    (hi * 5**d) << d, with the powers of five cached for the call.
    Leaves of at most _LEAF_DIGITS go through int().
    """
    power_of_five = cache(lambda w: 5**w)

    def convert(a, b):
        if b - a <= _LEAF_DIGITS:
            return int(digits[a:b])
        mid = (a + b + 1) >> 1
        return convert(mid, b) + ((convert(a, mid) * power_of_five(b - mid)) << (b - mid))

    return convert(0, len(digits))


def term_text(value) -> str:
    """Decimal rendering of an int or Fraction term; a non-integral
    fraction renders as 'p/q'."""
    if value.denominator != 1:
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    return to_decimal(value.numerator)
