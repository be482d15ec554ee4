from __future__ import annotations

import math
import random
import sys
from contextlib import suppress
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import somos.coprime
import somos.engine
from somos import (
    RATIONAL,
    IndexOutOfRangeError,
    NonIntegralTermError,
    SequenceBuffer,
    SequenceSpec,
    ZeroDenominatorError,
    check_lemma_cancellation,
    check_lemma_pairwise,
    check_lemma_product,
    check_lemma_shift,
    generate,
    parse_bfile,
    run_lemma_harness,
    somos5_spec,
    somos_k_spec,
    verify_coprime_range,
    verify_coprime_window,
    verify_recurrence_and_windows,
)

from somos.cli import main
from somos.coprime import LEMMAS

from helpers import SOMOS_SUMMANDS

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "b006721.txt"

positive = st.integers(min_value=1, max_value=10**6)


class TestGcd:
    def test_adjacent_somos5_terms(self):
        assert gcd(37, 11) == 1

    def test_zero_conventions(self):
        assert gcd(0, 5) == 5
        assert gcd(5, 0) == 5
        assert gcd(0, 0) == 0

    def test_plain_case(self):
        assert gcd(6, 4) == 2

    def test_negative_inputs(self):
        assert gcd(-6, 4) == 2
        assert gcd(-6, -4) == 2

    @given(positive, positive)
    def test_commutative(self, a, b):
        assert gcd(a, b) == gcd(b, a)

    @given(positive, positive, positive)
    def test_lattice_associative(self, a, b, c):
        assert gcd(a, gcd(b, c)) == gcd(gcd(a, b), c)

    @given(positive, positive)
    def test_divides_both_arguments(self, a, b):
        g = gcd(a, b)
        assert a % g == 0 and b % g == 0


class TestLemmaChecks:
    def test_product_instances(self):
        assert check_lemma_product(5, 2, 3)
        assert check_lemma_product(6, 2, 3)  # both sides fail coprimality together

    def test_pairwise_instances(self):
        assert check_lemma_pairwise(2, 3, 5, 7)
        # both sides false: gcd(2, 4) = 2 and gcd(6, 28) = 2
        assert check_lemma_pairwise(2, 3, 4, 7)

    def test_shift_instances(self):
        assert check_lemma_shift(3, 4)
        assert math.gcd(7, 4) == math.gcd(3, 4) == 1
        assert check_lemma_shift(6, 4)
        assert math.gcd(10, 4) == math.gcd(6, 4) == 2

    @given(positive, positive, positive)
    def test_product_biconditional(self, a, x, y):
        assert check_lemma_product(a, x, y)

    @given(positive, positive, positive, positive)
    def test_pairwise_biconditional(self, a, b, x, y):
        assert check_lemma_pairwise(a, b, x, y)

    @given(positive, positive)
    def test_shift_exactness(self, x, y):
        assert check_lemma_shift(x, y)

    @given(positive, positive, positive)
    def test_cancellation(self, y, b, z):
        assume(math.gcd(b, z) == 1)
        assert check_lemma_cancellation(y, b, z)

    def test_cancellation_requires_coprime_multiplier(self):
        # with gcd(b, z) > 1 the equivalence genuinely fails: 2*2 = 0 mod 4, 2 != 0 mod 4
        assert not check_lemma_cancellation(2, 2, 4)


class TestLemmaHarness:
    def test_default_run_is_clean(self):
        report = run_lemma_harness(seed=0, samples=500)
        assert report.passed
        assert [r.lemma for r in report.results] == [
            "product",
            "pairwise",
            "shift",
            "cancellation",
        ]
        assert all(r.failures == 0 for r in report.results)
        assert all(r.first_counterexample is None for r in report.results)

    def test_seeded_runs_reproduce(self):
        assert run_lemma_harness(seed=7, samples=200) == run_lemma_harness(seed=7, samples=200)

    def test_zero_samples_pass_vacuously(self):
        report = run_lemma_harness(seed=0, samples=0)
        assert report.passed
        assert all(r.samples == 0 for r in report.results)

    @pytest.mark.parametrize(
        "samples, bound, message",
        [
            (-1, 10, "samples must be non-negative, got -1"),
            (10, 0, "bound must be at least 1, got 0"),
            (0, -3, "bound must be at least 1, got -3"),
        ],
    )
    def test_no_sample_can_be_drawn(self, samples, bound, message):
        with pytest.raises(ValueError) as excinfo:
            run_lemma_harness(seed=0, samples=samples, bound=bound)
        assert str(excinfo.value) == message

    def test_bound_one_draws_ones(self):
        report = run_lemma_harness(seed=0, samples=5, bound=1)
        assert report.passed and all(r.samples == 5 for r in report.results)

    @pytest.mark.parametrize("seed, bound", [(0, 10**6), (7, 12), (20260811, 10**6), (3, 1)])
    def test_each_check_gets_the_draws_in_harness_order(self, monkeypatch, seed, bound):
        # Every lemma holds for every input, so counts cannot see a changed
        # draw: record what each check is called with instead.
        seen = []

        def recording(name, check):
            return lambda *args: seen.append((name, args)) or check(*args)

        table = tuple((name, recording(name, check), draw) for name, check, draw in LEMMAS)
        monkeypatch.setattr(somos.coprime, "LEMMAS", table)
        report = run_lemma_harness(seed=seed, samples=40, bound=bound)
        assert report.passed and [r.lemma for r in report.results] == [name for name, _, _ in LEMMAS]
        rng = random.Random(seed)

        def draw():
            return rng.randint(1, bound)

        expected = [("product", (draw(), draw(), draw())) for _ in range(40)]
        expected += [("pairwise", (draw(), draw(), draw(), draw())) for _ in range(40)]
        expected += [("shift", (draw(), draw())) for _ in range(40)]
        for _ in range(40):
            y, z, b = draw(), draw(), draw()
            while gcd(b, z) != 1:
                b = draw()
            expected.append(("cancellation", (y, b, z)))
        assert seen == expected

    def test_faulty_gcd_is_caught(self, monkeypatch):
        def faulty(a, b):
            # pretends everything past the sample bound is coprime
            return 1 if b > 10**6 else math.gcd(a, b)

        monkeypatch.setattr(somos.coprime, "gcd", faulty)
        report = run_lemma_harness(seed=0, samples=300)
        assert not report.passed
        broken = [r for r in report.results if r.failures]
        assert broken
        assert all(r.first_counterexample is not None for r in broken)


class TestCoprimeWindow:
    def test_window_at_index_9(self, somos5_buffer):
        report = verify_coprime_window(somos5_buffer(12), 9, 4)
        # gcd(37, 11), gcd(37, 5), gcd(37, 3), gcd(37, 2)
        assert report.gcds == (1, 1, 1, 1)
        assert report.passed
        assert report.index == 9 and report.depth == 4

    def test_window_over_initials(self, somos5_buffer):
        report = verify_coprime_window(somos5_buffer(12), 4, 4)
        assert report.gcds == (1, 1, 1, 1)
        assert report.passed

    def test_window_at_index_500(self, somos5_buffer):
        assert verify_coprime_window(somos5_buffer(501), 500, 4).passed

    def test_depth_validation(self, somos5_buffer):
        buffer = somos5_buffer(12)
        for depth in (0, -1):
            with pytest.raises(ValueError):
                verify_coprime_window(buffer, 9, depth)
        report = verify_coprime_window(buffer, 9, 5)
        assert report.depth == 5 and len(report.gcds) == 5

    def test_repr(self, somos5_buffer):
        assert repr(verify_coprime_window(somos5_buffer(14), 13)) == (
            "CoprimeWindowReport(index=13, depth=4, gcds=(1, 1, 1, 1), passed=True)"
        )
        assert repr(verify_coprime_window(SequenceBuffer([2, 1, 1, 1, 4]), 4)) == (
            "CoprimeWindowReport(index=4, depth=4, gcds=(1, 1, 1, 2), passed=False)"
        )

    def test_missing_terms(self, somos5_buffer):
        buffer = somos5_buffer(12)
        with pytest.raises(IndexOutOfRangeError):
            verify_coprime_window(buffer, 12, 4)
        with pytest.raises(IndexOutOfRangeError):
            verify_coprime_window(buffer, 3, 4)

    def test_fifth_predecessor_not_asserted(self, somos5_buffer):
        # the verified claim stops at depth 4; the fifth gcd is observable but free
        buffer = somos5_buffer(50)
        observed = [gcd(buffer.term(n), buffer.term(n - 5)) for n in range(5, 50)]
        assert all(g >= 1 for g in observed)


class TestVerifyRange:
    def test_clean_range_passes(self, somos5_buffer):
        report = verify_coprime_range(somos5_buffer(200), depth=4)
        assert report.passed
        assert report.check == "coprime-window"
        assert (report.start, report.stop) == (4, 200)
        assert report.checked == 196
        assert report.first_failure_index is None

    def test_perturbed_range_reports_witness(self, somos5_values):
        values = list(somos5_values[:60])
        values[30] *= values[29]  # force a shared factor with a predecessor
        report = verify_coprime_range(SequenceBuffer(values), depth=4)
        assert not report.passed
        assert report.first_failure_index == 30
        assert "gcd(a_30" in report.first_failure_reason

    def test_explicit_bounds(self, somos5_buffer):
        report = verify_coprime_range(somos5_buffer(100), depth=2, start=10, stop=20)
        assert report.passed and report.checked == 10

    @pytest.mark.parametrize("depth", [0, -2])
    def test_depth_is_checked_before_the_walk(self, somos5_buffer, depth):
        # Neither range holds a window, so only an up-front check can refuse the depth.
        buffer = somos5_buffer(30)
        with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
            verify_coprime_range(buffer, depth, start=30, stop=30)
        with pytest.raises(ValueError, match=f"depth must be at least 1, got {depth}"):
            verify_recurrence_and_windows(SequenceBuffer([], start_index=50), somos5_spec(), depth)

    def test_start_past_stop_is_clamped(self, somos5_buffer):
        report = verify_coprime_range(somos5_buffer(6), depth=10)
        assert (report.start, report.stop, report.checked, report.passed) == (6, 6, 0, True)

    def test_witness_past_the_digit_limit(self, digit_limit):
        values = generate(somos5_spec(), 650).values()
        shared = values[639]
        values[640] *= shared
        buffer = SequenceBuffer(values)
        computed = verify_coprime_range(buffer, start=636)
        assert (computed.passed, computed.first_failure_index) == (False, 640)
        sys.set_int_max_str_digits(0)
        assert computed.first_failure_reason == f"gcd(a_640, a_639) = {shared}"


def _one_pass(buffer, spec, depth):
    """The report of verify_recurrence_and_windows, or the type and text of what it raised."""
    try:
        return verify_recurrence_and_windows(buffer, spec, depth)
    except (ValueError, IndexOutOfRangeError) as exc:
        return type(exc), str(exc)


def _assert_routes_agree(two_stage_verify, buffer, spec, depth):
    derived = _one_pass(buffer, spec, depth)
    assert derived == two_stage_verify(buffer, spec, depth)
    return derived


class TestDerivedWindows:
    """Windows derived from the recurrence identity against the identity pass
    followed by windows that compute every gcd."""

    CORRUPTIONS = {
        "times-neighbour": lambda v, m, rng: v[m] * v[m - 1],
        "zero": lambda v, m, rng: 0,
        "negated": lambda v, m, rng: -v[m],
        "random": lambda v, m, rng: rng.randrange(-(10**12), 10**12),
    }

    def test_derived_route_skips_the_gcds(self, somos5_buffer, monkeypatch):
        calls = []
        monkeypatch.setattr(
            somos.coprime, "gcd", lambda a, b: calls.append(1) or math.gcd(a, b)
        )
        report = verify_recurrence_and_windows(somos5_buffer(200), somos5_spec())
        assert report.passed and report.checked == 196
        # window 4 computes 4 gcds, window 5 three, window 6 two, the rest none
        assert len(calls) == 4 + 3 + 2

    def test_orders_without_a_lone_avoiding_summand_compute_every_gcd(self):
        rule = somos.coprime.coprimality_rule
        assert rule(somos_k_spec(5)) == {
            1: ((1, 1), (1, 2)),
            2: ((1, 1), (2, 2)),
            3: ((1, 2), (3, 1)),
            4: ((2, 2), (3, 1)),
        }
        somos4 = {1: ((1, 1), (1, 1)), 2: ((1, 1), (2, 1)), 3: ((2, 1), (2, 1))}
        assert rule(somos_k_spec(4)) == somos4
        for k in (6, 7):
            assert rule(somos_k_spec(k)) == {}

    @settings(deadline=None, max_examples=80)
    @given(
        k=st.integers(min_value=4, max_value=5),
        initials=st.lists(st.integers(min_value=-6, max_value=6), min_size=5, max_size=5),
    )
    def test_rule_derives_only_true_facts(self, k, initials):
        # The rule fed direct gcd facts, at every integral index where the
        # identity holds: each offset it derives has a direct gcd of 1.
        spec = SequenceSpec(order=k, summands=SOMOS_SUMMANDS[k], initials=initials[:k])
        buffer = generate(spec, k, RATIONAL)
        with suppress(ZeroDenominatorError):  # keep the terms before a zero divisor
            while buffer.next_index < 30:
                somos.engine.next_term(buffer, spec, RATIONAL)
        terms = {n: v.numerator for n, v in buffer.items() if v.denominator == 1}

        def known(j, d):
            return j in terms and j - d in terms and gcd(terms[j], terms[j - d]) == 1

        rule = somos.coprime.coprimality_rule(spec)
        for m in range(k, buffer.next_index):
            integral = all(n in terms for n in range(m - k, m + 1))
            if integral and somos.engine._identity(buffer, spec, m):
                for o in somos.coprime.derived_offsets(rule, m, known):
                    assert gcd(terms[m], terms[m - o]) == 1

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    def test_one_corrupted_term(self, two_stage_verify, somos5_values, kind):
        rng = random.Random(kind)
        spec = somos5_spec()
        for m in (5, 9, 23, 47, 70):
            values = list(somos5_values[:80])
            values[m] = self.CORRUPTIONS[kind](values, m, rng)
            buffer = SequenceBuffer(values)
            for depth in range(1, 7):
                _assert_routes_agree(two_stage_verify, buffer, spec, depth)

    def test_buffers_starting_past_zero(self, two_stage_verify, somos5_values):
        spec = somos5_spec()
        for offset in (1, 3, 17):
            clean = SequenceBuffer(somos5_values[offset:90], start_index=offset)
            values = list(somos5_values[offset:90])
            values[40] *= values[39]
            corrupted = SequenceBuffer(values, start_index=offset)
            for depth in range(1, 7):
                clean_report = _assert_routes_agree(two_stage_verify, clean, spec, depth)
                corrupted_report = _assert_routes_agree(two_stage_verify, corrupted, spec, depth)
                if depth <= 4:  # the verified claim; deeper windows may share factors
                    assert clean_report.passed and not corrupted_report.passed

    def test_non_integral_term_raises_the_same_error(self, two_stage_verify, somos5_values):
        for k, source in ((4, generate(somos_k_spec(4), 60).values()), (5, somos5_values[:60])):
            for m in (12, 30):
                values = list(source)
                values[m] = Fraction(1, 2)
                buffer = SequenceBuffer(values)
                for depth in range(1, 7):
                    _assert_routes_agree(two_stage_verify, buffer, somos_k_spec(k), depth)
                with pytest.raises(ValueError, match="term 1/2 is not an integer"):
                    verify_coprime_range(buffer, 4)
        # a_0 = 3 puts powers of 3 in the denominators, and the identity still holds
        spec = SequenceSpec(order=5, summands=SOMOS_SUMMANDS[5], initials=(3, 1, 1, 1, 1))
        buffer = generate(spec, 30, RATIONAL)
        for depth in range(1, 7):
            raised = _assert_routes_agree(two_stage_verify, buffer, spec, depth)
            assert raised[0] is ValueError and raised[1].endswith("/3 is not an integer")

    @settings(deadline=None, max_examples=80)
    @given(
        k=st.integers(min_value=4, max_value=6),
        initials=st.lists(st.integers(min_value=-6, max_value=6), min_size=6, max_size=6),
        depth=st.integers(min_value=1, max_value=6),
        rational=st.booleans(),
    )
    def test_signed_initials(self, two_stage_verify, k, initials, depth, rational):
        spec = SequenceSpec(order=k, summands=SOMOS_SUMMANDS[k], initials=initials[:k])
        try:
            if rational:
                buffer = generate(spec, 30, RATIONAL)
            else:
                buffer = generate(spec, 30)
        except NonIntegralTermError as exc:
            buffer = exc.buffer
        except ZeroDenominatorError:
            assume(False)
        _assert_routes_agree(two_stage_verify, buffer, spec, depth)


class TestOnePassVerify:
    """verify_recurrence_and_windows against the identity pass followed by all-gcd windows."""

    CORRUPTIONS = {
        "plus-one": lambda v, m: v[m] + 1,
        "zero": lambda v, m: 0,
        "negated": lambda v, m: -v[m],
        "times-neighbour": lambda v, m: v[m] * v[m - 1],
    }

    @pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_one_corrupted_term(self, two_stage_verify, k, kind):
        spec = somos_k_spec(k)
        clean = generate(spec, 70).values()
        for m in (k, 9, 23, 47, 69):
            values = list(clean)
            values[m] = self.CORRUPTIONS[kind](values, m)
            buffer = SequenceBuffer(values)
            for depth in range(1, 7):
                report = _one_pass(buffer, spec, depth)
                assert report == two_stage_verify(buffer, spec, depth)
                if values[m] != clean[m]:
                    assert report.check == "recurrence-identity"

    def test_clean_buffers(self, two_stage_verify):
        for k in (4, 5, 6):
            spec = somos_k_spec(k)
            buffer = generate(spec, 70)
            for depth in range(1, 7):
                assert _one_pass(buffer, spec, depth) == two_stage_verify(buffer, spec, depth)

    def test_offset_bfile_slices(self, two_stage_verify):
        lines = FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True)
        spec = somos5_spec()
        for lo, hi in ((1, 40), (50, 120), (150, 200)):
            clean = parse_bfile("".join(lines[lo:hi]))
            assert clean.start_index == lo
            for m in (lo, lo + 3, lo + 11, hi - 1):
                values = clean.values()
                values[m - lo] += 1
                corrupted = SequenceBuffer(values, start_index=lo)
                for depth in range(1, 7):
                    for buffer in (clean, corrupted):
                        report = _one_pass(buffer, spec, depth)
                        assert report == two_stage_verify(buffer, spec, depth)
                    assert report.check == "recurrence-identity"

    def test_identity_indices_before_the_first_window(self, two_stage_verify, somos5_values):
        spec = somos5_spec()
        for count in (5, 6, 8, 10, 12):
            for m in range(5, count):
                values = list(somos5_values[:count])
                values[m] += 1
                buffer = SequenceBuffer(values)
                report = _one_pass(buffer, spec, 10)
                assert report == two_stage_verify(buffer, spec, 10)
                assert (report.first_failure_index, report.start) == (m, 5)
            clean = SequenceBuffer(somos5_values[:count])
            report = _one_pass(clean, spec, 10)
            assert report == two_stage_verify(clean, spec, 10)
            if count <= 10:  # deeper windows may share factors; these have none
                assert (report.passed, report.checked, report.start) == (True, 0, count)

    def test_identity_violation_outranks_an_earlier_window_failure(self, two_stage_verify):
        spec = somos_k_spec(6)
        values = generate(spec, 40).values()
        clean = SequenceBuffer(values)
        window_failure = verify_coprime_range(clean, 4)
        assert window_failure.first_failure_index == 8  # gcd(a_8, a_6) = 3
        values[30] += 1
        buffer = SequenceBuffer(values)
        report = _one_pass(buffer, spec, 4)
        assert report == two_stage_verify(buffer, spec, 4)
        assert (report.check, report.first_failure_index) == ("recurrence-identity", 30)
        assert _one_pass(clean, spec, 4) == window_failure

    def test_identity_violation_outranks_a_window_that_raises(self, two_stage_verify):
        rational = generate(somos_k_spec(8), 30, RATIONAL).values()
        integral = generate(somos5_spec(), 30).values()
        for k, values, depth in ((8, rational, 1), (5, integral, 0), (5, integral, -1)):
            spec = somos_k_spec(k)
            raised = _one_pass(SequenceBuffer(values), spec, depth)
            assert raised == two_stage_verify(SequenceBuffer(values), spec, depth)
            assert raised[0] is ValueError
            values = list(values)
            values[27] += 1
            buffer = SequenceBuffer(values)
            report = _one_pass(buffer, spec, depth)
            assert report == two_stage_verify(buffer, spec, depth)
            assert (report.check, report.first_failure_index) == ("recurrence-identity", 27)

    @pytest.mark.parametrize("depth", [0, 1, 4])
    def test_a_violation_runs_no_window(self, two_stage_verify, somos5_values, monkeypatch, depth):
        spec = somos5_spec()
        values = list(somos5_values[:60])
        values[40] += 1
        buffer = SequenceBuffer(values)
        windows = []
        window = somos.coprime.verify_coprime_window
        monkeypatch.setattr(
            somos.coprime, "verify_coprime_window", lambda *a: windows.append(a[1]) or window(*a)
        )
        report = verify_recurrence_and_windows(buffer, spec, depth)
        assert windows == []
        assert report == two_stage_verify(buffer, spec, depth)
        assert (report.check, report.first_failure_index) == ("recurrence-identity", 40)

    @staticmethod
    def _evaluated_identities(monkeypatch):
        # The indices engine._identity is called at, in order.
        evaluated = []
        identity = somos.engine._identity
        monkeypatch.setattr(
            somos.engine, "_identity", lambda b, s, n: evaluated.append(n) or identity(b, s, n)
        )
        return evaluated

    def test_one_identity_evaluation_per_index(self, somos5_buffer, monkeypatch):
        evaluated = self._evaluated_identities(monkeypatch)
        report = verify_recurrence_and_windows(somos5_buffer(300), somos5_spec())
        assert report.passed and report.checked == 296
        assert evaluated == list(range(5, 300))

    def test_generated_verify_evaluates_each_identity_once(self, monkeypatch, capsys):
        # generate takes the ladder's terms unchecked; verify checks each one.
        evaluated = self._evaluated_identities(monkeypatch)
        assert main(["verify", "--count", "300"]) == 0
        assert capsys.readouterr().out == "coprime-window over n in [4, 300): 296 checked, pass\n"
        assert evaluated == list(range(5, 300))

    def test_a_wrong_quotient_fails_the_recorded_identity(self, monkeypatch, wrong_last_quotient):
        spec = somos5_spec()
        wrong_last_quotient(300 - 5)
        buffer = generate(spec, 300)
        monkeypatch.undo()
        report = verify_recurrence_and_windows(buffer, spec)
        assert (report.check, report.first_failure_index) == ("recurrence-identity", 299)
        assert report == verify_recurrence_and_windows(SequenceBuffer(buffer.values()), spec)

    def test_verify_exits_1_on_a_wrong_quotient(self, wrong_last_quotient, capsys):
        wrong_last_quotient(300 - 5)
        assert main(["verify", "--count", "300"]) == 1
        assert capsys.readouterr().out == (
            "recurrence-identity over n in [5, 300): 295 checked, FAIL; "
            "first failure at n = 299 (a_n * a_{n-k} != bilinear sum)\n"
        )
