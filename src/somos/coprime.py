"""Executable coprimality facts and the predecessor-window verifier.

The three gcd facts checked here (and the modular cancellation fact in
the same harness) are proven, so any sampled counterexample signals an
implementation bug rather than new mathematics:

    product:      gcd(a,x) = gcd(a,y) = 1  <=>  gcd(a, x*y) = 1
    pairwise:     all four of gcd(a,x), gcd(a,y), gcd(b,x), gcd(b,y) = 1
                  <=>  gcd(a*b, x*y) = 1
    shift:        gcd(x+y, y) = gcd(x, y)  (implies the coprime biconditional)
    cancellation: for gcd(b,z) = 1,  z | y*b  <=>  z | y
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

from .engine import SequenceBuffer, SequenceSpec, as_integer, first_recurrence_violation
from .errors import IndexOutOfRangeError

LEMMA_NAMES = ("product", "pairwise", "shift", "cancellation")

DEFAULT_SAMPLES = 10_000
DEFAULT_BOUND = 10**6


def check_lemma_product(a: int, x: int, y: int) -> bool:
    """Whether the product-closure biconditional holds for this triple."""
    both_coprime = gcd(a, x) == 1 and gcd(a, y) == 1
    return both_coprime == (gcd(a, x * y) == 1)


def check_lemma_pairwise(a: int, b: int, x: int, y: int) -> bool:
    """Whether the four-way pairwise biconditional holds for this quadruple."""
    all_pairs = (
        gcd(a, x) == 1
        and gcd(a, y) == 1
        and gcd(b, x) == 1
        and gcd(b, y) == 1
    )
    return all_pairs == (gcd(a * b, x * y) == 1)


def check_lemma_shift(x: int, y: int) -> bool:
    """Whether gcd(x+y, y) == gcd(x, y) exactly (the strong shift form)."""
    return gcd(x + y, y) == gcd(x, y)


def check_lemma_cancellation(y: int, b: int, z: int) -> bool:
    """Whether z | y*b <=> z | y; only meaningful when gcd(b, z) == 1."""
    return ((y * b) % z == 0) == (y % z == 0)


@dataclass(frozen=True)
class LemmaCheckResult:
    """Outcome of one randomized suite."""

    lemma: str
    samples: int
    failures: int
    first_counterexample: tuple[int, ...] | None


@dataclass(frozen=True)
class LemmaHarnessReport:
    seed: int
    samples: int
    bound: int
    results: tuple[LemmaCheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.failures == 0 for r in self.results)


def run_lemma_harness(
    seed: int = 0,
    samples: int = DEFAULT_SAMPLES,
    bound: int = DEFAULT_BOUND,
) -> LemmaHarnessReport:
    """Run all four randomized suites with a single seeded generator.

    Raises ValueError for samples < 0 or bound < 1, where no sample
    could be drawn.
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    if bound < 1:
        raise ValueError(f"bound must be at least 1, got {bound}")
    rng = random.Random(seed)
    results = []
    for lemma in LEMMA_NAMES:
        failures = 0
        first = None
        for _ in range(samples):
            if lemma == "product":
                args = (rng.randint(1, bound), rng.randint(1, bound), rng.randint(1, bound))
                ok = check_lemma_product(*args)
            elif lemma == "pairwise":
                args = tuple(rng.randint(1, bound) for _ in range(4))
                ok = check_lemma_pairwise(*args)
            elif lemma == "shift":
                args = (rng.randint(1, bound), rng.randint(1, bound))
                ok = check_lemma_shift(*args)
            else:
                y = rng.randint(1, bound)
                z = rng.randint(1, bound)
                b = rng.randint(1, bound)
                while gcd(b, z) != 1:
                    b = rng.randint(1, bound)
                args = (y, b, z)
                ok = check_lemma_cancellation(y, b, z)
            if not ok:
                failures += 1
                if first is None:
                    first = args
        results.append(
            LemmaCheckResult(
                lemma=lemma, samples=samples, failures=failures, first_counterexample=first
            )
        )
    return LemmaHarnessReport(seed=seed, samples=samples, bound=bound, results=tuple(results))


@dataclass(frozen=True)
class CoprimeWindowReport:
    """gcd of a term with each of its depth immediate predecessors."""

    index: int
    depth: int
    gcds: tuple[int, ...]
    passed: bool


def verify_coprime_window(
    buffer: SequenceBuffer, n: int, depth: int = 4, proven: frozenset[int] = frozenset()
) -> CoprimeWindowReport:
    """Report gcd(a_n, a_{n-i}) for i = 1..depth; passes when all equal 1.

    Offsets in proven are reported as gcd 1 without computing it.  Pass
    only offsets whose coprimality is already established, as
    verify_recurrence_and_windows does from the recurrence identity.
    """
    _require_depth(depth)
    if not buffer.has_range(n - depth, n):
        raise IndexOutOfRangeError(
            f"window {n - depth}..{n} not covered by buffer "
            f"[{buffer.start_index}, {buffer.next_index})"
        )
    value = as_integer(buffer.term(n))
    gcds = tuple(
        1 if i in proven else gcd(value, as_integer(buffer.term(n - i)))
        for i in range(1, depth + 1)
    )
    return CoprimeWindowReport(index=n, depth=depth, gcds=gcds, passed=all(g == 1 for g in gcds))


@dataclass(frozen=True)
class VerificationReport:
    """Aggregate pass/fail over an index range, with the first failure witness."""

    check: str
    start: int
    stop: int
    checked: int
    passed: bool
    first_failure_index: int | None = None
    first_failure_reason: str | None = None


def first_failure(check: str, start: int, stop: int, failure_at) -> VerificationReport:
    """Walk n over [start, stop) until failure_at(n) gives a reason; report the range.

    failure_at returns None where n passes and a reason string where it
    fails.  A start past stop is clamped to stop, so an empty range reads
    [stop, stop).  The first failure ends the walk, with n - start + 1
    checked.  Every range report is built here.
    """
    start = min(start, stop)
    for n in range(start, stop):
        reason = failure_at(n)
        if reason is not None:
            return VerificationReport(check, start, stop, n - start + 1, False, n, reason)
    return VerificationReport(check, start, stop, stop - start, True)


def _require_depth(depth: int) -> None:
    if depth < 1:
        raise ValueError(f"depth must be at least 1, got {depth}")


def window_start(start_index: int, depth: int) -> int:
    """First index whose depth predecessors lie in a buffer starting at start_index."""
    return max(depth, start_index + depth)


def verify_coprime_range(
    buffer: SequenceBuffer,
    depth: int = 4,
    start: int | None = None,
    stop: int | None = None,
) -> VerificationReport:
    """Run coprime windows for every n in [start, stop); default full coverage.

    Every window computes its depth gcds, and the first failing one ends
    the range.  A depth below 1 raises ValueError before any window,
    even over an empty range.
    """
    _require_depth(depth)
    if start is None:
        start = window_start(buffer.start_index, depth)
    if stop is None:
        stop = buffer.next_index

    def window_failure(n):
        return _window_reason(verify_coprime_window(buffer, n, depth))

    return first_failure("coprime-window", start, stop, window_failure)


def verify_recurrence_and_windows(
    buffer: SequenceBuffer,
    spec: SequenceSpec,
    depth: int = 4,
) -> VerificationReport:
    """Check the recurrence identity of a whole buffer, then its coprime windows.

    First first_recurrence_violation checks the identity a_n a_{n-k} =
    sum of a_{n-i} a_{n-j} once, exactly, at every n in [max(start_index
    + k, k), next_index), on integral and rational terms alike.  On a
    buffer from generate(..., record=True), it reads the facts next_term
    recorded on the buffer as it stepped (one fresh product of each
    appended term with its divisor, against the sum it divided) instead
    of evaluating them again; a buffer without a record, as from a
    b-file, is evaluated at every index.  A violation is reported as a "recurrence-identity"
    failure, and no window runs.  Otherwise the windows run over the
    range verify_coprime_range covers by default, deriving some offsets
    from the identity (below) instead of computing their gcds, and the
    result is exactly that of verify_coprime_range(buffer, depth).

    A window at n derives gcd(a_n, a_{n-o}) = 1 for an offset o from
    the identity at n, which the first pass has proven.  Let o < k and
    let (i, j) be the only summand of the spec that does not contain o.
    A prime p dividing a_n and a_{n-o} divides the left side and every
    summand holding a_{n-o}, so it divides a_{n-i} a_{n-j}, hence
    a_{n-i} or a_{n-j}.  It then divides
    both terms of the pair (a_{n-o}, a_{n-i}) or (a_{n-o}, a_{n-j}).
    The window at n - min(o, i) holds the first pair at offset |o - i|,
    and likewise for j.  When both offsets are in 1..depth and both
    windows lie in the range, they have passed, since no window is run
    after the first failure; so no such p exists.  Zero is divisible by
    every prime, so the argument covers zero terms too.  Every derived
    offset therefore passes, and each window failure comes from a
    computed gcd.

    The argument is about integers, and a window derives only where
    a_{n-k} .. a_n have all been made integers.  Its own term a_n is,
    before any gcd.  Each of a_{n-k} .. a_{n-1} lies in
    [max(start_index, 0), n): it is the own term of an earlier window,
    or one of the depth terms before the range, which the first window
    holds and, deriving nothing, converts.  All those windows have
    passed, and a term that is not integral raises where it is
    converted, as it does in verify_coprime_range.  Which offsets
    qualify follows from spec.summands.  For Somos-5 at depth 2 or
    more, every offset up to min(depth, 4) is derived from the fourth
    window of the range on, and offsets from 5 on are always computed.
    Somos-6 and Somos-7 have no qualifying offset, since each offset
    misses at least two of their summands.

    A depth below 1 is refused after the identity pass and before the
    first window, so even a range with no window raises ValueError
    when the identity holds.
    """
    reach = _derivable_offsets(spec, depth)
    lo = max(buffer.start_index + spec.order, spec.order)
    stop = buffer.next_index
    violation = first_recurrence_violation(buffer, spec)
    if violation is not None:
        # The walk over [lo, violation] only counts: each identity was checked once, above.
        return first_failure(
            "recurrence-identity",
            lo,
            stop,
            lambda n: "a_n * a_{n-k} != bilinear sum" if n == violation else None,
        )
    _require_depth(depth)
    start = window_start(buffer.start_index, depth)

    def window_failure(n):
        proven = frozenset(o for o, back in reach.items() if n >= lo and n - back >= start)
        return _window_reason(verify_coprime_window(buffer, n, depth, proven))

    return first_failure("coprime-window", start, stop, window_failure)


def _window_reason(report: CoprimeWindowReport) -> str | None:
    """The failure reason of a window, naming its first offset with a common factor."""
    from .formats import to_decimal  # formats imports this module

    if report.passed:
        return None
    n = report.index
    offender = next(i + 1 for i, g in enumerate(report.gcds) if g != 1)
    return f"gcd(a_{n}, a_{n - offender}) = {to_decimal(report.gcds[offender - 1])}"


def _derivable_offsets(spec: SequenceSpec, depth: int) -> dict[int, int]:
    """Offsets o that verify_recurrence_and_windows may derive, each mapped
    to how many indices back its farther hypothesis window sits."""
    spec.validate()
    reach = {}
    for o in range(1, min(depth, spec.order - 1) + 1):
        avoiding = [pair for pair in spec.summands if o not in pair]
        if len(avoiding) == 1 and all(1 <= abs(o - x) <= depth for x in avoiding[0]):
            reach[o] = max(min(o, x) for x in avoiding[0])
    return reach

