"""Acceptance suite: one test per release criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Every tolerance is exact (integer arithmetic); the only
non-exact bounds are the wall-clock ceilings.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

from somos import (
    INTEGER,
    RATIONAL,
    SequenceBuffer,
    certify_range,
    first_recurrence_violation,
    generate,
    parse_bfile,
    run_lemma_harness,
    scan_integrality,
    somos5_spec,
    somos_k_spec,
    verify_coprime_range,
)
from somos.cli import main
from somos.formats import emit_bfile

from helpers import SOMOS_SUMMANDS, first_fractional_index, somos_terms

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "b006721.txt"

EXPECTED_TWELVE = [1, 1, 1, 1, 1, 2, 3, 5, 11, 37, 83, 274]


def _criterion(number: int, description: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


def test_criterion_1_term_reproduction(capsys):
    started = time.perf_counter()
    exit_code = main(["generate", "--k", "5", "--count", "12"])
    elapsed = time.perf_counter() - started
    emitted = [int(line) for line in capsys.readouterr().out.split()]
    with capsys.disabled():
        _criterion(
            1,
            f"generate --k 5 --count 12 emits the exact twelve terms in {elapsed:.3f}s",
            exit_code == 0 and emitted == EXPECTED_TWELVE and elapsed < 1.0,
        )


def test_criterion_2_coprime_windows_to_1000():
    started = time.perf_counter()
    buffer = generate(somos5_spec(), 1001)
    report = verify_coprime_range(buffer, depth=4, start=4, stop=1001)
    elapsed = time.perf_counter() - started
    _criterion(
        2,
        f"gcd(a_n, a_n-i) = 1 for i in 1..4, 4 <= n <= 1000 "
        f"({report.checked} windows, {elapsed:.1f}s)",
        report.passed and report.checked == 997 and elapsed < 60.0,
    )


def test_criterion_3_certificates_to_500():
    started = time.perf_counter()
    buffer = generate(somos5_spec(), 501)
    report = certify_range(buffer, 10, 501)
    elapsed = time.perf_counter() - started
    _criterion(
        3,
        f"divisibility certificates valid for 10 <= n <= 500 "
        f"({report.checked} certificates, {elapsed:.1f}s)",
        report.passed and report.checked == 491 and elapsed < 60.0,
    )


def test_criterion_4_lemma_property_suites():
    report = run_lemma_harness(seed=20260811, samples=10_000)
    total = {result.lemma: result.failures for result in report.results}
    _criterion(
        4,
        f"10^4 seeded samples per gcd fact, counterexamples {total}",
        report.passed and all(result.samples == 10_000 for result in report.results),
    )


def test_criterion_5_mode_agreement_on_500_terms():
    integral = generate(somos5_spec(), 500, INTEGER).values()
    rational = generate(somos5_spec(), 500, RATIONAL).values()
    denominators_one = all(Fraction(v).denominator == 1 for v in rational)
    agree = [Fraction(v) for v in integral] == [Fraction(v) for v in rational]
    _criterion(
        5,
        "integer and rational engines agree bit-exactly on the first 500 terms",
        denominators_one and agree and len(integral) == 500,
    )


def test_criterion_6_breakdown_detection():
    clean = all(
        scan_integrality(somos_k_spec(k), 100).first_nonintegral is None
        for k in (4, 5, 6, 7)
    )
    report = scan_integrality(somos_k_spec(8), 100)
    event = report.first_nonintegral

    ok = clean and event is not None
    if ok:
        # independent recomputation: plain Fraction recursion, no engine
        oracle = somos_terms(8, event.index + 1)
        numerator = sum(
            oracle[event.index - i] * oracle[event.index - j] for i, j in SOMOS_SUMMANDS[8]
        )
        denominator = oracle[event.index - 8]
        ok = (
            first_fractional_index(oracle) == event.index
            and numerator == event.numerator
            and denominator == event.denominator
            and event.remainder == numerator % abs(int(denominator))
            and event.remainder != 0
        )
    _criterion(
        6,
        "orders 4..7 integral for 100 terms; order 8 witness re-verified "
        f"(first non-integral index {event.index if event else '?'})",
        ok,
    )


def test_criterion_7_round_trip_and_crosscheck(capsys):
    buffer = generate(somos5_spec(), 200)
    emitted = emit_bfile(buffer)
    round_tripped = emit_bfile(parse_bfile(emitted))
    exit_code = main(["crosscheck", "--input", str(FIXTURE), "--count", "200"])
    capsys.readouterr()
    with capsys.disabled():
        _criterion(
            7,
            "b-file emit/parse/emit byte-identical on 200 terms; fixture crosscheck exits 0",
            round_tripped == emitted and emitted == FIXTURE.read_text(encoding="utf-8")
            and exit_code == 0,
        )


def test_criterion_8_mutation_sensitivity():
    spec = somos5_spec()
    clean = generate(spec, 100).values()
    rng = random.Random(20260811)
    positions = rng.sample(range(100), 20)
    undetected = []
    for position in positions:
        mutated = list(clean)
        mutated[position] += 1
        buffer = SequenceBuffer(mutated)
        detected = (
            first_recurrence_violation(buffer, spec) is not None
            or not verify_coprime_range(buffer, depth=4).passed
            or not certify_range(buffer, 10, 100).passed
        )
        if not detected:
            undetected.append(position)
    _criterion(
        8,
        f"20 seeded +1 perturbations of the first 100 terms all detected "
        f"(positions {sorted(positions)[:5]}...)",
        not undetected,
    )
