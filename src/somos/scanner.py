"""Empirical probes of the generalized Somos-k family.

For k in {4, 5, 6, 7} the all-ones recurrence stays integral; from k = 8
on it breaks down.  The scans run in rational mode so the first
non-integral term is located with its exact value instead of aborting;
its witness is the integer-mode engine's own step over the prefix below it.
The gcd walk reads each window as buffer.window(n, depth) and takes its
gcds with coprime.window_gcds, the helper verify_coprime_window uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bigint import decimal_repr
from .coprime import _require_depth, first_offender, window_gcds
from .engine import INTEGER, RATIONAL, NonIntegralEvent, SequenceBuffer, SequenceSpec
from .engine import new_state, next_term


@dataclass(frozen=True)
class NoncoprimeWitness:
    """First pair (a_n, a_{n-offset}) with a common factor."""

    index: int
    offset: int
    gcd: int

    __repr__ = decimal_repr


@dataclass(frozen=True)
class BreakdownReport:
    """Empirical frontier of integrality/coprimality for one spec.

    terms_checked counts examined indices 0..terms_checked-1; a witness,
    when present, re-verifies from the stored rational prefix.
    """

    spec: SequenceSpec
    terms_checked: int
    depth: int | None
    first_nonintegral: NonIntegralEvent | None
    first_noncoprime: NoncoprimeWitness | None


def _rational_prefix(spec: SequenceSpec, max_terms: int):
    """Step in rational mode until max_terms or the first non-integral term.

    Returns (buffer, event); the buffer includes the offending fractional
    term when event is not None.  The event is the engine's own: an
    integer-mode step over the integral terms below it.  The buffer is
    new_state's, not generate's, so every step divides, Somos-4 and
    Somos-5 included.
    """
    buffer = new_state(spec)
    if max_terms < spec.order:
        raise ValueError(f"max_terms must be at least the order {spec.order}")
    while buffer.next_index < max_terms:
        n = buffer.next_index
        if next_term(buffer, spec, RATIONAL).denominator != 1:
            return buffer, next_term(buffer.below(n), spec, INTEGER)
    return buffer, None


def scan_integrality(spec: SequenceSpec, max_terms: int) -> BreakdownReport:
    """Locate the first index whose exact quotient is not an integer, if any."""
    return _scan(spec, max_terms, None)


def scan_coprimality(spec: SequenceSpec, max_terms: int, depth: int = 4) -> BreakdownReport:
    """Locate the first gcd(a_n, a_{n-offset}) > 1 within the integral prefix.

    The gcd scan covers offsets 1..depth and stops at the first
    non-integral term, which is reported alongside.  A depth below 1
    raises ValueError through coprime._require_depth before any step.
    """
    _require_depth(depth)
    return _scan(spec, max_terms, depth)


def _scan(spec: SequenceSpec, max_terms: int, depth: int | None) -> BreakdownReport:
    """Both scans: the rational prefix, then the gcd walk over its integral
    part up to depth; depth None skips the walk."""
    buffer, event = _rational_prefix(spec, max_terms)
    integral_stop = event.index if event is not None else buffer.next_index
    witness = None if depth is None else _first_common_factor(buffer, integral_stop, depth)
    return BreakdownReport(
        spec=spec,
        terms_checked=buffer.next_index,
        depth=depth,
        first_nonintegral=event,
        first_noncoprime=witness,
    )


def _first_common_factor(buffer: SequenceBuffer, stop: int, depth: int):
    """First gcd(a_n, a_{n-offset}) > 1 over n < stop, offsets 1..min(depth, n), or None.

    Each window is read whole; its first offender is the witness.
    """
    for n in range(1, stop):
        gcds = window_gcds(buffer.window(n, min(depth, n)))
        offset = first_offender(gcds)
        if offset is not None:
            return NoncoprimeWitness(index=n, offset=offset, gcd=gcds[offset - 1])
    return None
