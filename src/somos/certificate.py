"""Per-index divisibility certificates for the Somos-5 recurrence.

A certificate at index n shows, in exact integer arithmetic, that a_{n-5}
divides the bilinear numerator a_{n-1}a_{n-4} + a_{n-2}a_{n-3}.  Its
validity rests on three facts, all established when it is built:

  * the five index-shift identities, i.e. the defining recurrence
    re-instantiated at n-1 .. n-5 (each reaches back to a_{n-10}),
  * the cancellation precondition gcd(a_{n-5}, a_{n-8}a_{n-9}) = 1, which
    lets the multiplier a_{n-8}a_{n-9} be removed again at the end,
  * the residue of the numerator modulo a_{n-5}, which must be zero.

Shift s at n is the recurrence at n - s, so along a range each identity
belongs to five consecutive certificates.  check_index_shifts is the one
shift reader: every certificate gets its shifts and its window from it.
It reads each shift through holds(j), whether the recurrence at j holds
over the buffer: engine._identity, which evaluates it exactly.
certify_range hands every certificate one reader, cached for the range
and holding the range's one residue store, so that identities of large
terms are decided by residues as in verify; a certificate built alone
reads through the uncached one, which compares the sides.  The
recurrence at n also settles the residue: where a_n is an integral term
of the buffer and that identity holds, a_n a_{n-5} equals the numerator
exactly and the residue is 0.  Only where it fails, or a_n is absent
(certify --index N holds a_0 .. a_{N-1}) or fractional, is the
numerator divided.  A certificate reads n - 5 .. n in that order, so a
range evaluates each identity at most once, in walk order, and none past
its first failure.  A certificate keeps facts: each shift's lhs and rhs
are evaluated from the window, by engine._sides, when first read.

Along a range the precondition follows from those same identities, by
the coprimality rule of coprime.derived_offsets, whose docstring proves
it and states the walk-order condition it rests on.  certify_range hands
every certificate one predicate, known(j, d), meaning gcd(a_j, a_{j-d})
= 1: it is true for d <= 2 once six gcds over the window of the first
certificate, offsets 1 and 2 at start - 8 .. start - 6, are all 1.  The
rule at n - 5 asks only about j in n - 8 .. n - 6 and d <= 2.  Where
shift 5 holds, offsets 3 and 4 at n - 5 give the precondition gcd 1 by
the product lemma, with no product and no gcd.  Elsewhere, and in a certificate built alone, the
gcd is computed.  So a clean range computes six gcds in all, and both
routes yield the same certificate, field for field.

The eight-step reduction chain displays how these facts combine: it
multiplies the numerator by a_{n-8}a_{n-9}, rewrites it with the shift
identities, drops explicit multiples of a_{n-5}, and ends at
a_{n-3}a_{n-4}a_{n-5}a_{n-10}, which carries a_{n-5} as a literal factor.
_chain_lines is its one description.  It builds the lines with +, - and
* alone, over the sides engine._sides gives, so tests/test_certificate.py
passes it a window of polynomial variables and expands this very
function: each step's difference, less what it drops, is a fixed
polynomial combination of the shift identities.  No step can fail while
all five shifts hold, and the chain adds nothing to validity.  It is
therefore evaluated exactly when it is read, from the window of ten
terms the certificate keeps, and cached.  Exact-rewrite steps must
reproduce the previous value bit-for-bit; drop-multiple steps must fall
short of it by exactly the discarded products.  Those products, like the
last line, are built as a_{n-5} times a cofactor, so they are multiples
of the modulus by construction and are not reduced again.
congruent_to_prev follows from a verified step and is reduced modulo
a_{n-5} only on a failing one.  The chain shape is specific to order 5;
other orders get integrality scanning instead (see scanner).

Certificates start at n = 10 because the shifts reference a_{n-10}; the
ten earlier terms are integral by inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from math import gcd

from .bigint import _divmod, decimal_repr, to_decimal
from .coprime import VerificationReport, first_failure
from .coprime import coprimality_rule, derived_offsets
from .engine import SequenceBuffer, _identity, _sides, as_integer, somos5_spec
from .engine import window_start
from .errors import IndexOutOfRangeError, ZeroDenominatorError

EXACT_REWRITE = "exact-rewrite"
DROP_MULTIPLE = "drop-multiple"

CERTIFICATE_START = 10

_SOMOS5 = somos5_spec()
_RULE = coprimality_rule(_SOMOS5)


@dataclass(frozen=True)
class IndexShiftIdentity:
    """The recurrence at index n - shift: a_{n-s}a_{n-s-5} = a_{n-s-1}a_{n-s-4} + a_{n-s-2}a_{n-s-3}.

    holds is the fact; window is the certificate's, window[d] = a_{n-d},
    and lhs and rhs are evaluated from it on first read and cached.
    """

    shift: int
    holds: bool
    window: tuple[int, ...] = field(repr=False)

    @cached_property
    def sides(self) -> tuple[int, int]:
        return _sides(self.window, _SOMOS5, self.shift)

    lhs = property(lambda self: self.sides[0])
    rhs = property(lambda self: self.sides[1])


@dataclass(frozen=True)
class ChainStep:
    """One displayed line of the reduction chain.

    Step 0 is the starting expression.  For later steps, an exact-rewrite
    must equal the previous value; a drop-multiple must fall short of it
    by dropped_multiple, itself an exact multiple of the modulus.
    verified records whether the step met its own condition.
    """

    step_no: int
    kind: str
    value: int
    congruent_to_prev: bool
    verified: bool
    dropped_multiple: int | None = None

    __repr__ = decimal_repr


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Machine-checkable transcript that a_{n-5} divides the bilinear numerator.

    valid is not an argument: construction derives it from the facts, as
    _failure_reason(self) is None, so it follows from the precondition,
    the shifts and the residue alone, and replace() derives it afresh.
    window[d] = a_{n-d} for d = 1..10 (window[0] is unused); the chain is
    evaluated from it on first read and cached.
    """

    index: int
    modulus: int
    precondition_gcd: int
    shifts: tuple[IndexShiftIdentity, ...]
    numerator_residue: int
    valid: bool = field(init=False)
    window: tuple[int, ...] = field(repr=False)

    __repr__ = decimal_repr

    def __post_init__(self):
        object.__setattr__(self, "valid", _failure_reason(self) is None)

    @cached_property
    def chain(self) -> tuple[ChainStep, ...]:
        """The eight lines of the reduction chain, each evaluated and compared exactly."""
        return _evaluate_chain(self.window)


def _window(buffer: SequenceBuffer, n: int) -> tuple[int, ...]:
    """t with t[d] = a_{n-d} for d = 1..10; t[0] is unused."""
    if n < CERTIFICATE_START:
        raise IndexOutOfRangeError(
            f"certificates start at n = {CERTIFICATE_START}, got n = {n}"
        )
    return (0,) + tuple(as_integer(v) for v in buffer.window(n - 1, 9))


def check_index_shifts(
    buffer: SequenceBuffer, n: int, holds=None
) -> tuple[IndexShiftIdentity, ...]:
    """The five shifted recurrence identities at n, shifts 5 down to 1.

    Shift s is the fact holds(n - s), read in that order; every shift
    keeps the one window t[d] = a_{n-d}, d = 1..10.  holds defaults to
    the uncached engine._identity over this buffer.
    """
    t = _window(buffer, n)
    if holds is None:
        holds = partial(_identity, buffer, _SOMOS5)
    return tuple(IndexShiftIdentity(shift=s, holds=holds(n - s), window=t) for s in range(5, 0, -1))


def build_certificate(
    buffer: SequenceBuffer, n: int, holds=None, known=None
) -> DivisibilityCertificate:
    """Check the facts the certificate at index n rests on.

    The shifts come from check_index_shifts, with the window they keep;
    the precondition and the residue are computed here, and the chain is
    evaluated when it is first read.  Returns the certificate whether or
    not it is valid, so callers can inspect which fact broke.

    holds(j) says whether the recurrence at j holds over this same
    buffer.  check_index_shifts reads it at n - 5 .. n - 1, for shifts
    5 .. 1; it is then read at n where a_n is an integral term of the
    buffer: if that identity holds, the residue is 0.  certify_range
    passes one reader cached for its range; without it,
    engine._identity is evaluated directly.

    known(j, d), when given, confirms gcd(a_j, a_{j-d}) = 1 for the
    facts coprime.derived_offsets asks about at n - 5; certify_range's
    holds by its walk (see the module docstring).  Without it, the
    precondition gcd is computed.
    """
    if holds is None:
        holds = partial(_identity, buffer, _SOMOS5)
    shifts = check_index_shifts(buffer, n, holds)
    t = shifts[0].window
    m = t[5]
    if m == 0:
        raise ZeroDenominatorError(n - 5, f"chain modulus a_{n - 5} is zero")
    derived = derived_offsets(_RULE, n - 5, known) if known and shifts[0].holds else frozenset()
    precondition_gcd = 1 if {3, 4} <= derived else gcd(m, t[8] * t[9])
    if n < buffer.next_index and buffer.term(n).denominator == 1 and holds(n):
        numerator_residue = 0  # the numerator equals a_n * m exactly
    else:
        numerator_residue = _divmod(_sides(t, _SOMOS5)[1], m)[1]
    return DivisibilityCertificate(
        index=n,
        modulus=m,
        precondition_gcd=precondition_gcd,
        shifts=shifts,
        numerator_residue=numerator_residue,
        window=t,
    )


def _chain_lines(t) -> list:
    """The eight displayed lines of the chain over the window t, as (value, dropped or None).

    Multiply by a_{n-8}a_{n-9}, distribute, substitute shifts 4 and 3,
    drop multiples of m, substitute shifts 1 and 2, drop again, factor,
    and substitute shift 5 to finish at a_{n-3}a_{n-4}a_{n-5}a_{n-10}.
    Dropped multiples are m times a cofactor, and the last line carries m
    through the left-hand side of shift 5, m * t[10].  Only +, - and * are
    used, so the window may hold integers or polynomial variables alike.
    """
    m = t[5]
    lhs, rhs = zip(*(_sides(t, _SOMOS5, s) for s in range(6)))  # rhs[0]: the numerator
    multiplier = t[8] * t[9]
    p18, p29, p78, p49, p34 = t[1] * t[8], t[2] * t[9], t[7] * t[8], t[4] * t[9], t[3] * t[4]
    return [
        (multiplier * rhs[0], None),
        (multiplier * (t[1] * t[4]) + multiplier * (t[2] * t[3]), None),
        (p18 * rhs[4] + p29 * rhs[3], None),
        (p18 * (t[6] * t[7]) + p29 * (t[4] * t[7]), m * (p18 * t[8] + p29 * t[6])),
        (p78 * rhs[1] + p49 * rhs[2], None),
        (p78 * p34 + p49 * (t[3] * t[6]), m * (p78 * t[2] + p49 * t[4])),
        (p34 * rhs[5], None),
        (p34 * lhs[5], None),
    ]


def _evaluate_chain(t: tuple[int, ...]) -> tuple[ChainStep, ...]:
    """Compare each line of the chain over the window t with the line before it."""
    m = t[5]
    chain = []
    previous = None
    for step_no, (value, dropped) in enumerate(_chain_lines(t)):
        if previous is None:
            verified = True
        elif dropped is None:
            verified = value == previous
        else:
            verified = previous - value == dropped
        # A verified step differs from its predecessor by 0 or by a
        # multiple of m, so only a failing step needs the reduction.
        congruent = verified or _divmod(previous - value, m)[1] == 0
        chain.append(
            ChainStep(
                step_no=step_no,
                kind=EXACT_REWRITE if dropped is None else DROP_MULTIPLE,
                value=value,
                congruent_to_prev=congruent,
                verified=verified,
                dropped_multiple=dropped,
            )
        )
        previous = value
    return tuple(chain)


def certify_range(
    buffer: SequenceBuffer, start: int | None = None, stop: int | None = None
) -> VerificationReport:
    """Build certificates for every n in [start, stop) and aggregate the outcome.

    A start past stop is clamped to stop, so an empty range reads [stop, stop).
    """
    if start is None:
        start = window_start(buffer.start_index, CERTIFICATE_START)
    if stop is None:
        stop = buffer.next_index
    store = {}
    holds = cache(lambda j: _identity(buffer, _SOMOS5, j, store))

    @cache
    def seeded():
        t = _window(buffer, start)  # offsets 1 and 2 at start - 6, start - 7, start - 8
        return all(gcd(t[d], t[d + i]) == 1 for d in (6, 7, 8) for i in (1, 2))

    def known(j, d):
        return d <= 2 and seeded()

    def failure_at(n):
        return _failure_reason(build_certificate(buffer, n, holds, known))

    return first_failure("certificate", start, stop, failure_at)


def _failure_reason(certificate: DivisibilityCertificate) -> str | None:
    """The first fact a certificate fails, or None when it is valid.

    This is the one validity rule: the precondition gcd is 1, then every
    shift holds, then the numerator residue is 0.  It reads the facts
    alone, never certificate.valid, which construction derives from it.
    """
    if certificate.precondition_gcd != 1:
        return f"precondition gcd = {to_decimal(certificate.precondition_gcd)}"
    for identity in certificate.shifts:
        if not identity.holds:
            return f"shift identity at offset {identity.shift} fails"
    if certificate.numerator_residue != 0:
        return f"numerator residue {to_decimal(certificate.numerator_residue)} != 0"
    return None
