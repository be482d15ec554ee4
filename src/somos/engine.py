"""Exact evaluation of bilinear recurrences of the Somos type.

A spec of order k defines the recurrence

    a_n * a_{n-k} = sum over summand pairs (i, j) of a_{n-i} * a_{n-j}

with i + j = k, so every new term is the bilinear sum divided by a_{n-k}.
All arithmetic is exact: integer mode performs checked integer division
and surfaces any non-exact quotient as a first-class witness, rational
mode continues with exact fractions (always in lowest terms, positive
denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator, Union

from .errors import (
    IndexOutOfRangeError,
    InvalidSpecError,
    NonIntegralTermError,
    ZeroDenominatorError,
    int_text,
)

Term = Union[int, Fraction]

INTEGER = "integer"
RATIONAL = "rational"

# Divisions with a divisor or quotient of at most this many bits are left
# to the builtin divmod; it is also the leaf size of _divmod's recursion.
# On CPython 3.11.7, Somos-5 steps over [5, 700) took least time from
# 1,500 to 3,000 bits, and one recursion level beat the builtin from
# about 2,500-bit quotients on.
_DIV_LIMIT = 2000


@dataclass(frozen=True)
class SequenceSpec:
    """Defining data of one bilinear recurrence.

    order: the lag k of the dividing term.
    summands: pairs (i, j), 1 <= i <= j <= k-1 and i + j = k.
    initials: exactly k starting values a_0 .. a_{k-1}.
    """

    order: int
    summands: tuple[tuple[int, int], ...]
    initials: tuple[int, ...]
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "summands", tuple((int(i), int(j)) for i, j in self.summands)
        )
        object.__setattr__(self, "initials", tuple(int(v) for v in self.initials))

    def validate(self) -> None:
        """Raise InvalidSpecError unless all structural invariants hold."""
        if self.order < 1:
            raise InvalidSpecError(f"order must be positive, got {self.order}")
        if not self.summands:
            raise InvalidSpecError("summands must be nonempty")
        seen = set()
        for i, j in self.summands:
            if not (1 <= i <= j <= self.order - 1):
                raise InvalidSpecError(f"summand ({i}, {j}) out of range for order {self.order}")
            if i + j != self.order:
                raise InvalidSpecError(
                    f"summand ({i}, {j}) is not weight-homogeneous: {i}+{j} != {self.order}"
                )
            if (i, j) in seen:
                raise InvalidSpecError(f"duplicate summand ({i}, {j})")
            seen.add((i, j))
        if len(self.initials) != self.order:
            raise InvalidSpecError(
                f"expected {self.order} initial values, got {len(self.initials)}"
            )

    def all_ones_initials(self) -> bool:
        return all(v == 1 for v in self.initials)


@dataclass(frozen=True, repr=False)
class NonIntegralEvent:
    """Witness that the bilinear sum was not divisible by a_{n-k}.

    remainder is reduced modulo |denominator|, so 0 < remainder < |denominator|.
    """

    index: int
    numerator: int
    denominator: int
    remainder: int

    def __repr__(self) -> str:
        return (
            f"NonIntegralEvent(index={self.index}, numerator={int_text(self.numerator)}, "
            f"denominator={int_text(self.denominator)}, remainder={int_text(self.remainder)})"
        )


class SequenceBuffer:
    """Indexed history of computed terms.

    terms[m] is the sequence value at absolute index start_index + m.
    """

    def __init__(self, terms, start_index: int = 0):
        self._terms = list(terms)
        self._start = int(start_index)

    @property
    def start_index(self) -> int:
        return self._start

    @property
    def next_index(self) -> int:
        return self._start + len(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def term(self, index: int) -> Term:
        """Value at absolute index; IndexOutOfRangeError if not retained."""
        if index < self._start or index >= self.next_index:
            raise IndexOutOfRangeError(
                f"index {index} not in buffer range [{self._start}, {self.next_index})"
            )
        return self._terms[index - self._start]

    def has_range(self, lo: int, hi: int) -> bool:
        """Whether all indices lo..hi (inclusive) are retained."""
        return lo >= self._start and hi < self.next_index

    def append(self, value: Term) -> None:
        self._terms.append(value)

    def items(self) -> Iterator[tuple[int, Term]]:
        for offset, value in enumerate(self._terms):
            yield self._start + offset, value

    def values(self) -> list[Term]:
        return list(self._terms)

    def __repr__(self) -> str:
        return f"SequenceBuffer(start_index={self._start}, len={len(self._terms)})"


def somos5_spec() -> SequenceSpec:
    """The classic Somos-5 instance: k=5, summands (1,4) and (2,3), all-ones start."""
    return SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=(1,) * 5, name="somos-5")


def new_state(spec: SequenceSpec) -> SequenceBuffer:
    """Fresh buffer holding exactly the k initial terms at indices 0..k-1."""
    spec.validate()
    return SequenceBuffer(spec.initials, start_index=0)


def next_term(buffer: SequenceBuffer, spec: SequenceSpec, mode: str = INTEGER):
    """Compute the term at buffer.next_index and append it.

    Integer mode returns the new term when the division is exact; on a
    non-exact division it returns a NonIntegralEvent and leaves the
    buffer unchanged.  Rational mode always appends the exact quotient.
    Raises ZeroDenominatorError when a_{n-k} is zero in either mode.

    Both modes share one integer step while a_{n-1} .. a_{n-k} are all
    integral (int, or Fraction with denominator 1): one divmod of the
    integer numerator decides exactness.  A rational window holding a
    non-integral fraction goes to _fractional_step.
    """
    if mode not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown mode {mode!r}")
    k = spec.order
    n = buffer.next_index
    if len(buffer) < k:
        raise IndexOutOfRangeError(
            f"buffer holds {len(buffer)} terms, need the last {k} to step"
        )
    window = [buffer.term(n - i) for i in range(1, k + 1)]  # a_{n-1} .. a_{n-k}
    fractional = False
    if mode == RATIONAL:
        fractional = any(v.denominator != 1 for v in window)
        if not fractional:
            # .numerator is the integer value of an int or an integral Fraction.
            window = [v.numerator for v in window]
    denominator = window[-1]
    if denominator == 0:
        raise ZeroDenominatorError(n)
    if fractional:
        value = _fractional_step(window, spec.summands)
    else:
        numerator = sum(window[i - 1] * window[j - 1] for i, j in spec.summands)
        quotient, remainder = _divmod(numerator, abs(denominator))
        if not remainder:
            value = quotient if denominator > 0 else -quotient
            if mode == RATIONAL:
                value = Fraction(value)
        elif mode == RATIONAL:
            value = Fraction(numerator, denominator)
        else:
            return NonIntegralEvent(n, numerator, denominator, remainder)
    buffer.append(value)
    return value


def _fractional_step(window, summands) -> Fraction:
    """The quotient (sum of window[i-1] * window[j-1]) / window[-1] in
    lowest terms, for a window of ints and Fractions with window[-1] != 0.

    Each summand stays an unreduced pair (p_i p_j, q_i q_j).  The pairs
    are put over the least common multiple L of their denominators,
    starting from the largest, so every denominator is divided into L
    once; a remainder r from denominator d extends L by d // gcd(d, r).
    Only Fraction(total, L) then runs a gcd as large as the terms, where
    Fraction arithmetic would run one per product and per sum.  The
    division by window[-1] is Fraction's, whose gcds pair each side with
    a k-back term several times smaller.
    """
    pairs = [
        (window[i - 1].numerator * window[j - 1].numerator,
         window[i - 1].denominator * window[j - 1].denominator)
        for i, j in summands
    ]
    pairs.sort(key=lambda pair: pair[1])
    total, common = pairs.pop()
    for numerator, denominator in pairs:
        quotient, remainder = _divmod(common, denominator)
        if remainder:
            # With g = gcd(d, r) = gcd(d, L): lcm(L, d) = L * (d // g), and
            # lcm(L, d) // d = L // g = quotient * (d // g) + r // g.
            g = gcd(denominator, remainder)
            factor = _divmod(denominator, g)[0]
            quotient = quotient * factor + _divmod(remainder, g)[0]
            common *= factor
            total *= factor
        total += numerator * quotient
    return Fraction(total, common) / window[-1]


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


def generate(spec: SequenceSpec, count: int, mode: str = INTEGER) -> SequenceBuffer:
    """Generate terms at indices 0..count-1.

    In integer mode the first non-exact division aborts the run by
    raising NonIntegralTermError, which carries the witness event and
    the partial buffer.
    """
    spec.validate()
    if count < spec.order:
        raise ValueError(f"count must be at least the order {spec.order}, got {count}")
    buffer = new_state(spec)
    while buffer.next_index < count:
        result = next_term(buffer, spec, mode)
        if isinstance(result, NonIntegralEvent):
            raise NonIntegralTermError(result, buffer)
    return buffer


def as_integer(value: Term) -> int:
    """Coerce a term to int; ValueError if it is a non-integral fraction."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise ValueError(f"term {value} is not an integer")
        return int(value)
    return value


def digit_count(value) -> int:
    """Number of decimal digits of |value|; digit_count(0) == 1.

    Avoids str() so it works on terms past any interpreter digit guard.
    """
    value = abs(as_integer(value))
    if value == 0:
        return 1
    # 30103/100000 slightly overestimates log10(2); correct in both directions.
    estimate = value.bit_length() * 30103 // 100000
    power = 10**estimate
    while power > value:
        estimate -= 1
        power //= 10
    while power * 10 <= value:
        estimate += 1
        power *= 10
    return estimate + 1


def first_recurrence_violation(buffer: SequenceBuffer, spec: SequenceSpec):
    """Re-verify a_n * a_{n-k} == bilinear sum over every covered index.

    Returns the first index where the identity fails, or None.  Works on
    integer and rational buffers alike.
    """
    k = spec.order
    lo = max(buffer.start_index + k, k)
    for n in range(lo, buffer.next_index):
        if not _identity(buffer, spec, n):
            return n
    return None


def _identity(buffer: SequenceBuffer, spec: SequenceSpec, n: int) -> bool:
    """Whether a_n a_{n-k} equals the bilinear sum, exactly; a_{n-k} .. a_n
    must be in the buffer."""
    terms = [buffer.term(n - d) for d in range(spec.order + 1)]  # a_n .. a_{n-k}
    return terms[0] * terms[-1] == sum(terms[i] * terms[j] for i, j in spec.summands)

