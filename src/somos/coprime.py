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

from .bigint import to_decimal
from .engine import SequenceBuffer, SequenceSpec, as_integer, first_recurrence_violation
from .engine import window_start
from .errors import IndexOutOfRangeError

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


def _draw_coprime_divisor(rng: random.Random, bound: int) -> tuple[int, int, int]:
    """(y, b, z) for the cancellation lemma: y and z, then b redrawn until gcd(b, z) == 1."""
    y, z = rng.randint(1, bound), rng.randint(1, bound)
    b = rng.randint(1, bound)
    while gcd(b, z) != 1:
        b = rng.randint(1, bound)
    return y, b, z


def _draw(count: int):
    """A draw of count independent integers in [1, bound]."""
    return lambda rng, bound: tuple(rng.randint(1, bound) for _ in range(count))


# (name, check, draw(rng, bound) -> the check's arguments), in harness order.
LEMMAS = (
    ("product", check_lemma_product, _draw(3)),
    ("pairwise", check_lemma_pairwise, _draw(4)),
    ("shift", check_lemma_shift, _draw(2)),
    ("cancellation", check_lemma_cancellation, _draw_coprime_divisor),
)


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
    for lemma, check, draw in LEMMAS:
        failures = 0
        first = None
        for _ in range(samples):
            args = draw(rng, bound)
            if not check(*args):
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
    sum of a_{n-i} a_{n-j} once, exactly, at every n in
    [window_start(start_index, k), next_index), on integral and rational
    terms alike.  On a buffer from generate(..., record=True), it reads
    the facts next_term recorded on the buffer as it stepped (one fresh
    product of each appended term with its divisor, against the sum it
    divided) instead of evaluating them again; a buffer without a
    record, as from a b-file, is evaluated at every index.  A violation
    is reported as a "recurrence-identity" failure, and no window runs.
    Otherwise the windows run over the range verify_coprime_range covers
    by default, deriving some offsets by the rule of derived_offsets
    instead of computing their gcds, and the result is exactly that of
    verify_coprime_range(buffer, depth).

    The window at n applies the rule at n, where the first pass proved
    the identity, with the facts (j, d) for j in [start, n) and d in
    1..depth: the window at j has passed, by the walk order that
    derived_offsets states.  So each window failure comes from a
    computed gcd.  The terms a_{n-k} .. a_n are integers by then: a_n is
    converted before any gcd, and each earlier one is the own term of a
    window that passed, or one of the depth terms before the range,
    which the first window, deriving nothing, converts; a term that is
    not integral raises there, as in verify_coprime_range.  For Somos-5 at
    depth 2 or more, offsets 1 .. min(depth, 4) are derived from the
    fourth window of the range on.

    A depth below 1 is refused after the identity pass and before the
    first window, so even a range with no window raises ValueError
    when the identity holds.
    """
    rule = coprimality_rule(spec)
    lo = window_start(buffer.start_index, spec.order)
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
        proven = derived_offsets(rule, n, lambda j, d: n >= lo and j >= start and d <= depth)
        return _window_reason(verify_coprime_window(buffer, n, depth, proven))

    return first_failure("coprime-window", start, stop, window_failure)


def _window_reason(report: CoprimeWindowReport) -> str | None:
    """The failure reason of a window, naming its first offset with a common factor."""
    if report.passed:
        return None
    n = report.index
    offender = next(i + 1 for i, g in enumerate(report.gcds) if g != 1)
    return f"gcd(a_{n}, a_{n - offender}) = {to_decimal(report.gcds[offender - 1])}"


def coprimality_rule(spec: SequenceSpec) -> dict[int, tuple[tuple[int, int], ...]]:
    """The rule derived_offsets applies for spec: each offset o < k that
    exactly one summand (i, j) avoids, mapped to its two facts
    (min(o, x), |o - x|) for x = i, j, as (indices back from m, offset).

    Somos-5 gives {1: ((1, 1), (1, 2)), 2: ((1, 1), (2, 2)), 3: ((1, 2),
    (3, 1)), 4: ((2, 2), (3, 1))}.  Somos-6 and Somos-7 give {}, since
    each offset misses at least two of their summands.
    """
    spec.validate()
    rule = {}
    for o in range(1, spec.order):
        avoiding = [pair for pair in spec.summands if o not in pair]
        if len(avoiding) == 1:
            rule[o] = tuple((min(o, x), abs(o - x)) for x in avoiding[0])
    return rule


def derived_offsets(rule: dict, m: int, known) -> frozenset[int]:
    """The offsets o of rule at which the identity at m gives gcd(a_m, a_{m-o}) = 1,
    from two facts that known(j, d) confirms, each meaning gcd(a_j, a_{j-d}) = 1.

    This is the paper's coprimality induction (Crabb's method), with
    Euclid's lemma as its only tool.  The caller has proven the identity
    a_m a_{m-k} = sum of a_{m-i} a_{m-j} over integers a_{m-k} .. a_m,
    and known confirms only true facts.  Let (i, j) be the only summand
    that does not contain o.  A prime p dividing a_m and a_{m-o} divides
    the left side and every summand holding a_{m-o}, so it divides
    a_{m-i} a_{m-j}, hence a_{m-x} for x = i or j.  Then p divides both
    a_{m-o} and a_{m-x}, the terms of the fact (m - min(o, x), |o - x|),
    which is confirmed, so no such p exists.  Zero is divisible by every
    prime, and gcd = 1 says exactly that no prime divides both, so the
    argument covers zero and negative terms.  It is about integers, so
    the caller makes a_{m-k} .. a_m integers first.

    Both callers confirm facts by walk order alone, and keep no store of
    them: each walks a range, stops at its first failure, and applies
    the rule at m only after every earlier step passed, so every fact an
    earlier step computed, or derived here from an identity it checked,
    is true.  verify_recurrence_and_windows confirms (j, d) for each
    window j before m; certify_range confirms offsets 1 and 2 at the
    three indices before m, which six gcds seed at its first certificate
    and this rule derives at each later j from the identity at j, shift
    5 of a valid certificate.
    """
    return frozenset(o for o, facts in rule.items() if all(known(m - b, d) for b, d in facts))
