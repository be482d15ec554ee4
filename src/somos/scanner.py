"""Empirical probes of the generalized Somos-k family.

For k in {4, 5, 6, 7} the all-ones recurrence stays integral; from k = 8
on it breaks down.  The scans run in rational mode so the first
non-integral term is located with its exact value instead of aborting,
and the integer-mode engine can be cross-checked against the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .engine import (
    INTEGER,
    RATIONAL,
    NonIntegralEvent,
    SequenceBuffer,
    SequenceSpec,
    as_integer,
    new_state,
    next_term,
)


@dataclass(frozen=True)
class NoncoprimeWitness:
    """First pair (a_n, a_{n-offset}) with a common factor."""

    index: int
    offset: int
    gcd: int


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
    term when event is not None.  The event is the engine's own: one
    integer-mode step over the k integral terms before it.
    """
    buffer = new_state(spec)
    if max_terms < spec.order:
        raise ValueError(f"max_terms must be at least the order {spec.order}")
    while buffer.next_index < max_terms:
        n = buffer.next_index
        if next_term(buffer, spec, RATIONAL).denominator != 1:
            k = spec.order
            window = [as_integer(buffer.term(i)) for i in range(n - k, n)]
            return buffer, next_term(SequenceBuffer(window, start_index=n - k), spec, INTEGER)
    return buffer, None


def scan_integrality(spec: SequenceSpec, max_terms: int) -> BreakdownReport:
    """Locate the first index whose exact quotient is not an integer, if any."""
    buffer, event = _rational_prefix(spec, max_terms)
    return BreakdownReport(
        spec=spec,
        terms_checked=buffer.next_index,
        depth=None,
        first_nonintegral=event,
        first_noncoprime=None,
    )


def scan_coprimality(spec: SequenceSpec, max_terms: int, depth: int = 4) -> BreakdownReport:
    """Locate the first gcd(a_n, a_{n-offset}) > 1 within the integral prefix.

    The gcd scan covers offsets 1..depth and stops at the first
    non-integral term, which is reported alongside.
    """
    if depth < 1:
        raise ValueError(f"depth must be positive, got {depth}")
    buffer, event = _rational_prefix(spec, max_terms)
    integral_stop = event.index if event is not None else buffer.next_index
    witness = None
    for n in range(1, integral_stop):
        value = as_integer(buffer.term(n))
        for offset in range(1, min(depth, n) + 1):
            g = gcd(value, as_integer(buffer.term(n - offset)))
            if g != 1:
                witness = NoncoprimeWitness(index=n, offset=offset, gcd=g)
                break
        if witness is not None:
            break
    return BreakdownReport(
        spec=spec,
        terms_checked=buffer.next_index,
        depth=depth,
        first_nonintegral=event,
        first_noncoprime=witness,
    )
