from __future__ import annotations

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from somos import (
    IndexOutOfRangeError,
    SequenceBuffer,
    check_lemma_cancellation,
    check_lemma_pairwise,
    check_lemma_product,
    check_lemma_shift,
    gcd,
    run_lemma_harness,
    verify_coprime_range,
    verify_coprime_window,
)

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

    def test_faulty_gcd_is_caught(self):
        def faulty(a, b):
            # pretends everything past the sample bound is coprime
            return 1 if b > 10**6 else math.gcd(a, b)

        report = run_lemma_harness(seed=0, samples=300, gcd_fn=faulty)
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
