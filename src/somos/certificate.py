"""Per-index divisibility certificates for the Somos-5 recurrence.

A certificate at index n shows, in exact integer arithmetic, that a_{n-5}
divides the bilinear numerator a_{n-1}a_{n-4} + a_{n-2}a_{n-3}.  Its
validity rests on three facts, all computed when it is built:

  * the five index-shift identities, i.e. the defining recurrence
    re-instantiated at n-1 .. n-5 (each reaches back to a_{n-10}),
  * the cancellation precondition gcd(a_{n-5}, a_{n-8}a_{n-9}) = 1, which
    lets the multiplier a_{n-8}a_{n-9} be removed again at the end,
  * the residue of the numerator modulo a_{n-5}, which must be zero.

The eight-step reduction chain displays how these facts combine: it
multiplies the numerator by a_{n-8}a_{n-9}, rewrites it with the shift
identities, drops explicit multiples of a_{n-5}, and ends at
a_{n-3}a_{n-4}a_{n-5}a_{n-10}, which carries a_{n-5} as a literal factor.
_chain_lines is its one description.  It builds the lines with +, - and
* alone, so tests/test_certificate.py passes it a window of polynomial
variables and expands this very function: each step's difference, less
what it drops, is a fixed polynomial combination of the shift
identities.  No step can fail while all five shifts hold, and the chain
adds nothing to validity.  It is therefore evaluated exactly when it is
read, from the window of ten terms the certificate keeps, and cached.
Every line is computed from one table of pairwise products
a_{n-i}a_{n-j}; lines 2, 4 and 6 reuse the identities' right-hand sides
rather than summing those products again.  Exact-rewrite steps must
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
from functools import cached_property

from .coprime import VerificationReport, gcd
from .engine import SequenceBuffer, _divmod, as_integer
from .errors import IndexOutOfRangeError, ZeroDenominatorError

EXACT_REWRITE = "exact-rewrite"
DROP_MULTIPLE = "drop-multiple"

CERTIFICATE_START = 10

# Index pairs (i, j) of the products a_{n-i} a_{n-j} a certificate's
# facts use: the three of each shift identity s = 1..5, the numerator and
# the multiplier a_{n-8} a_{n-9}.  The chain adds the two outer factors
# of its line 2.
_PAIRS = tuple(
    pair for s in range(1, 6) for pair in ((s, s + 5), (s + 1, s + 4), (s + 2, s + 3))
) + ((1, 4), (2, 3), (8, 9))
_CHAIN_PAIRS = _PAIRS + ((1, 8), (2, 9))


@dataclass(frozen=True)
class IndexShiftIdentity:
    """The recurrence at index n - shift: a_{n-s}a_{n-s-5} = a_{n-s-1}a_{n-s-4} + a_{n-s-2}a_{n-s-3}."""

    shift: int
    lhs: int
    rhs: int
    holds: bool


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


@dataclass(frozen=True)
class DivisibilityCertificate:
    """Machine-checkable transcript that a_{n-5} divides the bilinear numerator.

    valid follows from the shifts, the precondition and the residue alone.
    window[d] = a_{n-d} for d = 1..10 (window[0] is unused); the chain is
    evaluated from it on first read and cached.
    """

    index: int
    modulus: int
    precondition_gcd: int
    shifts: tuple[IndexShiftIdentity, ...]
    numerator_residue: int
    valid: bool
    window: tuple[int, ...] = field(repr=False)

    @cached_property
    def chain(self) -> tuple[ChainStep, ...]:
        """The eight lines of the reduction chain, each evaluated and compared exactly."""
        return _evaluate_chain(self.window)


def _require_window(buffer: SequenceBuffer, n: int) -> None:
    if n < CERTIFICATE_START:
        raise IndexOutOfRangeError(
            f"certificates start at n = {CERTIFICATE_START}, got n = {n}"
        )
    if not buffer.has_range(n - 10, n - 1):
        raise IndexOutOfRangeError(
            f"certificate at n = {n} needs indices {n - 10}..{n - 1}, buffer holds "
            f"[{buffer.start_index}, {buffer.next_index})"
        )


def _window(buffer: SequenceBuffer, n: int) -> tuple[int, ...]:
    """t with t[d] = a_{n-d} for d = 1..10; t[0] is unused."""
    _require_window(buffer, n)
    return (0,) + tuple(as_integer(buffer.term(n - d)) for d in range(1, 11))


def _pairwise_products(
    t: tuple[int, ...], pairs: tuple[tuple[int, int], ...]
) -> dict[tuple[int, int], int]:
    """p[i, j] = t[i] * t[j] for the given pairs."""
    return {(i, j): t[i] * t[j] for i, j in pairs}


def _shift_identities(p: dict[tuple[int, int], int]) -> tuple[IndexShiftIdentity, ...]:
    identities = []
    for s in range(5, 0, -1):
        lhs = p[s, s + 5]
        rhs = p[s + 1, s + 4] + p[s + 2, s + 3]
        identities.append(IndexShiftIdentity(shift=s, lhs=lhs, rhs=rhs, holds=lhs == rhs))
    return tuple(identities)


def check_index_shifts(buffer: SequenceBuffer, n: int) -> tuple[IndexShiftIdentity, ...]:
    """Evaluate the five shifted recurrence identities exactly, shifts 5 down to 1.

    No command calls it; perfbench/trace_cli.py traces it by name.
    """
    return _shift_identities(_pairwise_products(_window(buffer, n), _PAIRS))


def build_certificate(buffer: SequenceBuffer, n: int) -> DivisibilityCertificate:
    """Check the facts the certificate at index n rests on.

    The shifts, the precondition and the residue are computed here; the
    chain is evaluated when it is first read.  Returns the certificate
    whether or not it is valid, so callers can inspect which fact broke.
    """
    t = _window(buffer, n)
    m = t[5]
    if m == 0:
        raise ZeroDenominatorError(n - 5, f"chain modulus a_{n - 5} is zero")

    p = _pairwise_products(t, _PAIRS)
    shifts = _shift_identities(p)
    precondition_gcd = gcd(m, p[8, 9])
    numerator_residue = _divmod(p[1, 4] + p[2, 3], m)[1]
    valid = (
        precondition_gcd == 1
        and all(identity.holds for identity in shifts)
        and numerator_residue == 0
    )
    return DivisibilityCertificate(
        index=n,
        modulus=m,
        precondition_gcd=precondition_gcd,
        shifts=shifts,
        numerator_residue=numerator_residue,
        valid=valid,
        window=t,
    )


def _chain_lines(t) -> list:
    """The eight displayed lines of the chain over the window t, as (value, dropped or None).

    Multiply by a_{n-8}a_{n-9}, distribute, substitute shifts 4 and 3,
    drop multiples of m, substitute shifts 1 and 2, drop again, factor,
    and substitute shift 5 to finish at a_{n-3}a_{n-4}a_{n-5}a_{n-10}.
    Dropped multiples are m times a cofactor, and the last line carries m
    through p[5, 10] = m * t[10].  Only +, - and * are used, so the window
    may hold integers or polynomial variables alike.
    """
    m = t[5]
    p = _pairwise_products(t, _CHAIN_PAIRS)
    rhs = {identity.shift: identity.rhs for identity in _shift_identities(p)}
    return [
        (p[8, 9] * (p[1, 4] + p[2, 3]), None),
        (p[8, 9] * p[1, 4] + p[8, 9] * p[2, 3], None),
        (p[1, 8] * rhs[4] + p[2, 9] * rhs[3], None),
        (p[1, 8] * p[6, 7] + p[2, 9] * p[4, 7], m * (p[1, 8] * t[8] + p[2, 9] * t[6])),
        (p[7, 8] * rhs[1] + p[4, 9] * rhs[2], None),
        (p[7, 8] * p[3, 4] + p[4, 9] * p[3, 6], m * (p[7, 8] * t[2] + p[4, 9] * t[4])),
        (p[3, 4] * rhs[5], None),
        (p[3, 4] * p[5, 10], None),
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
        start = max(CERTIFICATE_START, buffer.start_index + 10)
    if stop is None:
        stop = buffer.next_index
    start = min(start, stop)
    checked = 0
    for n in range(start, stop):
        certificate = build_certificate(buffer, n)
        checked += 1
        if not certificate.valid:
            return VerificationReport(
                check="certificate",
                start=start,
                stop=stop,
                checked=checked,
                passed=False,
                first_failure_index=n,
                first_failure_reason=_failure_reason(certificate),
            )
    return VerificationReport(
        check="certificate", start=start, stop=stop, checked=checked, passed=True
    )


def _failure_reason(certificate: DivisibilityCertificate) -> str:
    from .formats import to_decimal  # formats imports this module

    if certificate.precondition_gcd != 1:
        return f"precondition gcd = {to_decimal(certificate.precondition_gcd)}"
    for identity in certificate.shifts:
        if not identity.holds:
            return f"shift identity at offset {identity.shift} fails"
    return f"numerator residue {to_decimal(certificate.numerator_residue)} != 0"
