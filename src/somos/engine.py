"""Exact evaluation of bilinear recurrences of the Somos type.

A spec of order k defines the recurrence

    a_n * a_{n-k} = sum over summand pairs (i, j) of a_{n-i} * a_{n-j}

with i + j = k, so every new term is the bilinear sum divided by a_{n-k}.
All arithmetic is exact.  A step from an integral window performs checked
integer division, except on generate's own buffer for the all-ones
Somos-4 and Somos-5, where it takes the ladder's division-free term
unchecked and first_recurrence_violation is the exact check of those
terms.  That check decides the identities of large terms by residues
modulo pairwise coprime 2^p - 1 whose product exceeds |lhs - rhs|, which
is exact too (see _identity).  Integer mode surfaces any non-exact
quotient as a first-class witness; rational mode continues with exact
fractions (always in lowest terms, positive denominator).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Iterator, Union

from .bigint import _divmod, _mersenne_exponents, _mersenne_residue, decimal_repr, term_text
from .errors import (
    IndexOutOfRangeError,
    InvalidSpecError,
    NonIntegralTermError,
    ZeroDenominatorError,
)
from .ladder import propose

Term = Union[int, Fraction]

INTEGER = "integer"
RATIONAL = "rational"


@dataclass(frozen=True)
class SequenceSpec:
    """Defining data of one bilinear recurrence.

    order: the lag k of the dividing term.
    summands: pairs (i, j), 1 <= i <= j <= k-1 and i + j = k.
    initials: exactly k starting values a_0 .. a_{k-1}.

    Construction coerces every field with operator.index, so a value
    that is not an integer (a float, a Fraction) raises TypeError
    instead of being truncated, and then runs validate(), so every spec
    that exists is valid and no user of one checks it again.
    """

    order: int
    summands: tuple[tuple[int, int], ...]
    initials: tuple[int, ...]
    name: str | None = None

    __repr__ = decimal_repr

    def __post_init__(self):
        object.__setattr__(self, "order", index(self.order))
        object.__setattr__(self, "summands", tuple((index(i), index(j)) for i, j in self.summands))
        object.__setattr__(self, "initials", tuple(map(index, self.initials)))
        self.validate()

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


@dataclass(frozen=True)
class NonIntegralEvent:
    """Witness that the bilinear sum was not divisible by a_{n-k}.

    remainder is reduced modulo |denominator|, so 0 < remainder < |denominator|.
    """

    index: int
    numerator: int
    denominator: int
    remainder: int

    __repr__ = decimal_repr


class SequenceBuffer:
    """Indexed history of computed terms.

    terms[m] is the sequence value at absolute index start_index + m.
    term(n) reads one value; window(n, depth) reads a_n and the depth
    terms behind it, and every check reads the terms behind n that way.

    source is the spec whose generate built the buffer, else None.  Only
    generate sets it; append, the public way to add a term, clears it,
    and below() gives a buffer without it.  So source == spec means that
    the buffer starts at 0 and every term was appended by next_term for
    spec from spec's initials: the one case where next_term asks the
    ladder.
    """

    def __init__(self, terms, start_index: int = 0):
        self._terms = list(terms)
        self._start = int(start_index)
        self.source: SequenceSpec | None = None

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

    def window(self, n: int, depth: int) -> tuple[Term, ...]:
        """The tuple t with t[d] = a_{n-d} for d = 0..depth.

        ValueError if depth is negative, and IndexOutOfRangeError if any
        of n - depth .. n is not retained.
        """
        if depth < 0:
            raise ValueError(f"depth must be non-negative, got {depth}")
        lo = n - depth - self._start
        if lo < 0 or n >= self.next_index:
            raise IndexOutOfRangeError(
                f"window [{n - depth}, {n}] not in buffer range [{self._start}, {self.next_index})"
            )
        return tuple(reversed(self._terms[lo : n - self._start + 1]))

    def append(self, value: Term) -> None:
        """Add value as the next term; the buffer is then no longer generate's own."""
        self.source = None
        self._terms.append(value)

    def items(self) -> Iterator[tuple[int, Term]]:
        for offset, value in enumerate(self._terms):
            yield self._start + offset, value

    def values(self) -> list[Term]:
        return list(self._terms)

    def below(self, count: int | None) -> SequenceBuffer:
        """The terms at indices n < count, starting at min(start_index, count).

        A buffer that starts past count gives an empty buffer at count;
        count None bounds nothing and returns this buffer, and a negative
        count raises ValueError.
        """
        if count is None:
            return self
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        return SequenceBuffer(self._terms[: max(count - self._start, 0)], min(self._start, count))

    def __repr__(self) -> str:
        return f"SequenceBuffer(start_index={self._start}, len={len(self._terms)})"


def somos_k_spec(k: int) -> SequenceSpec:
    """All-ones Somos-k: a_n * a_{n-k} = sum_{i=1..k//2} a_{n-i} * a_{n-(k-i)}."""
    if k < 4:
        raise InvalidSpecError(f"somos_k_spec requires k >= 4, got {k}")
    summands = tuple((i, k - i) for i in range(1, k // 2 + 1))
    return SequenceSpec(order=k, summands=summands, initials=(1,) * k, name=f"somos-{k}")


def somos5_spec() -> SequenceSpec:
    """The classic Somos-5 instance: k=5, summands (1,4) and (2,3), all-ones start."""
    return somos_k_spec(5)


def new_state(spec: SequenceSpec) -> SequenceBuffer:
    """Fresh buffer holding exactly the k initial terms at indices 0..k-1."""
    return SequenceBuffer(spec.initials, start_index=0)


def next_term(buffer: SequenceBuffer, spec: SequenceSpec, mode: str = INTEGER):
    """Compute the term at buffer.next_index and append it.

    Integer mode returns the new term when the division is exact; on a
    non-exact division it returns a NonIntegralEvent and leaves the
    buffer unchanged.  Rational mode always appends the exact quotient.
    Raises ZeroDenominatorError when a_{n-k} is zero in either mode.

    Both modes share one integer step while a_{n-1} .. a_{n-k} are all
    integral (int, or Fraction with denominator 1): as_integer converts
    the window.  On generate's own buffer for spec (buffer.source ==
    spec), the step asks ladder.propose for a_n from the terms at half
    its index and appends a proposal as it is: every term there is the
    sequence's own, so the ladder's identity makes it a_n.  Otherwise,
    and where the ladder has no proposal, the numerator is the right
    side of _sides over the window with 0 standing in for the unknown
    a_n, and one divmod of it decides exactness.  A rational
    window holding a non-integral fraction goes to _fractional_step,
    which keeps its unreduced pairs; in integer mode as_integer raises
    ValueError, naming the term.
    """
    if mode not in (INTEGER, RATIONAL):
        raise ValueError(f"unknown mode {mode!r}")
    k = spec.order
    n = buffer.next_index
    window = buffer.window(n - 1, k - 1)  # a_{n-1} .. a_{n-k}
    fractional = mode == RATIONAL and any(v.denominator != 1 for v in window)
    if not fractional:
        window = [as_integer(v) for v in window]
    denominator = window[-1]
    if denominator == 0:
        raise ZeroDenominatorError(n)
    if fractional:
        value = _fractional_step(window, spec.summands)
    else:
        value = propose(buffer, spec, n) if buffer.source == spec else None
        if value is None:
            numerator = _sides((0, *window), spec)[1]
            quotient, remainder = _divmod(numerator, abs(denominator))
            if not remainder:
                value = quotient if denominator > 0 else -quotient
            elif mode == RATIONAL:
                value = Fraction(numerator, denominator)
            else:
                return NonIntegralEvent(n, numerator, denominator, remainder)
        if mode == RATIONAL:
            value = Fraction(value)
    buffer._terms.append(value)
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


def generate(spec: SequenceSpec, count: int, mode: str = INTEGER) -> SequenceBuffer:
    """Generate terms at indices 0..count-1, for any count >= 0.

    A count below the order gives the first count initials, and a
    negative count raises ValueError.  In integer mode the first
    non-exact division aborts the run by raising NonIntegralTermError,
    which carries the witness event and the partial buffer.  The
    buffer's source is spec, so next_term takes each ladder term
    (all-ones Somos-4 and Somos-5) unchecked; first_recurrence_violation
    and certify_range evaluate each identity over the terms exactly.
    """
    buffer = new_state(spec).below(count)
    buffer.source = spec
    while buffer.next_index < count:
        result = next_term(buffer, spec, mode)
        if isinstance(result, NonIntegralEvent):
            raise NonIntegralTermError(result, buffer)
    return buffer


def as_integer(value: Term) -> int:
    """The int value of a term; ValueError, printing it in full, if it is a
    non-integral fraction."""
    if value.denominator != 1:
        raise ValueError(f"term {term_text(value)} is not an integer")
    return value.numerator


def window_start(start_index: int, depth: int) -> int:
    """First index whose depth predecessors lie in a buffer starting at start_index."""
    return max(depth, start_index + depth)


def first_recurrence_violation(buffer: SequenceBuffer, spec: SequenceSpec):
    """Check a_n * a_{n-k} == bilinear sum over every covered index.

    Returns the first index where the identity fails, or None.  Works on
    integer and rational buffers alike, and evaluates each index by
    _identity, whoever made the terms: generate's unchecked ladder terms
    and a parsed b-file get the same exact check.  The walk hands every
    evaluation one residue store, so each term is reduced once.
    """
    covered = range(window_start(buffer.start_index, spec.order), buffer.next_index)
    store = {}
    return next((n for n in covered if not _identity(buffer, spec, n, store)), None)


def _sides(t, spec: SequenceSpec, s: int = 0) -> tuple:
    """The recurrence identity at n - s over a window t with t[d] = a_{n-d},
    as (lhs, rhs) = (a_{n-s} a_{n-s-k}, sum over summands (i, j) of
    a_{n-s-i} a_{n-s-j}).

    This is the one statement of the identity, and its rhs the one
    statement of the integer bilinear sum: next_term and the certificate
    residue take their numerator from it, with t[0] = 0 standing in for
    the a_n not yet known.  It uses + and * alone, so the window may hold
    integers, fractions or polynomial variables.
    """
    k = spec.order
    return t[s] * t[s + k], sum(t[s + i] * t[s + j] for i, j in spec.summands)


# Identities whose bound (see _identity) is below this many bits compare
# their sides exactly.  Timed on CPython 3.11.7 per identity along the
# Somos-5 walk, best of 9: at a bound of 18,000 bits (n = 300) the exact
# products took 0.16 ms and the residues 0.19 ms, at 25,000 (n = 350)
# both 0.27 ms, and at 33,000 (n = 400) 0.40 against 0.35 ms.  Whole
# passes to n = 450 and 700 were within 3% of each other for limits from
# 15,000 to 30,000 bits.
_RESIDUE_LIMIT = 25_000


def _identity(buffer: SequenceBuffer, spec: SequenceSpec, n: int, store=None) -> bool:
    """Whether a_n a_{n-k} equals the bilinear sum, exactly; a_{n-k} .. a_n
    must be in the buffer.

    This is the one reader of identity facts: first_recurrence_violation
    and the certificate shifts both come through it.  A walk that reads
    many identities hands it one store, a dict it keeps across calls;
    then an integral window whose bound reaches _RESIDUE_LIMIT is
    decided by _residue_identity.  Without a store, below that bound,
    and for a window holding a non-integral Fraction, the sides of
    _sides are compared.  A lone evaluation gets no store, as it would
    fold all k + 1 terms for itself: the five shifts of one certificate
    at n = 440 took 5.1 ms that way against 4.2 ms exact.

    The bound is max(bits(x) + bits(y) over the k + 1 products) +
    bits(#summands) + 1.  Each product x*y is below 2^(bits(x)+bits(y)),
    so |lhs - rhs| <= |lhs| + |rhs| < (#summands + 1) * 2^max, and
    #summands + 1 <= 2^bits(#summands), so |lhs - rhs| < 2^bound.
    """
    t = buffer.window(n, spec.order)
    if store is not None and all(v.denominator == 1 for v in t):
        t = [v.numerator for v in t]
        k = spec.order
        widest = max(
            t[i].bit_length() + t[j].bit_length() for i, j in ((0, k), *spec.summands)
        )
        bound = widest + len(spec.summands).bit_length() + 1
        if bound >= _RESIDUE_LIMIT:
            return _residue_identity(t, spec, n, _mersenne_exponents(bound), store)
    lhs, rhs = _sides(t, spec)
    return lhs == rhs


def _residue_identity(t, spec: SequenceSpec, n: int, exponents, store) -> bool:
    """Whether lhs - rhs of the identity at n over the int window t is 0,
    given exponents whose moduli M_i = 2^{p_i} - 1 have a product above
    |lhs - rhs| (bigint._mersenne_exponents).

    The moduli are pairwise coprime, so lhs - rhs is 0 exactly when every
    M_i divides it, and modulo M_i it is
    r(a_n) r(a_{n-k}) - sum of r(a_{n-i}) r(a_{n-j}) with r the residue.
    store maps each index of the current window, a_{n-k} .. a_n, to its
    term and the term's residues modulo the first moduli; a term is
    folded once per modulus along a walk, and only the moduli a larger
    bound adds are folded later.  An entry whose term is not the
    window's own object is folded afresh, so a store cannot lend one
    term's residues to another.  Indices outside the window are dropped.
    """
    k = spec.order
    window = {}
    residues = []
    for d, value in enumerate(t):
        entry = store.get(n - d)
        if entry is None or entry[0] is not value:
            entry = (value, [])
        known = entry[1]
        known.extend(_mersenne_residue(value, p) for p in exponents[len(known) :])
        window[n - d] = entry
        residues.append(known)
    store.clear()
    store.update(window)
    for p, *r in zip(exponents, *residues):
        difference = r[0] * r[k]
        for i, j in spec.summands:
            difference -= r[i] * r[j]
        if _mersenne_residue(difference, p):
            return False
    return True
