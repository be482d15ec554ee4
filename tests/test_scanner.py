from __future__ import annotations

from dataclasses import replace
from math import gcd

import pytest

from somos import (
    InvalidSpecError,
    SequenceBuffer,
    SequenceSpec,
    ZeroDenominatorError,
    certify_range,
    scan_coprimality,
    scan_integrality,
    somos5_spec,
    somos_k_spec,
)

from helpers import SOMOS_SUMMANDS, first_fractional_index, fraction_terms, somos_terms


class TestSomosKSpec:
    def test_k5_matches_classic_instance(self):
        assert somos_k_spec(5) == somos5_spec()
        assert somos_k_spec(5).summands == ((1, 4), (2, 3))

    def test_k4(self):
        assert somos_k_spec(4).summands == ((1, 3), (2, 2))

    def test_k8(self):
        assert somos_k_spec(8).summands == ((1, 7), (2, 6), (3, 5), (4, 4))

    def test_below_four_rejected(self):
        for k in (3, 2, 0, -1):
            with pytest.raises(InvalidSpecError):
                somos_k_spec(k)

    def test_specs_are_valid(self):
        for k in range(4, 12):
            somos_k_spec(k).validate()


class TestScanIntegrality:
    def test_somos5_stays_integral(self):
        report = scan_integrality(somos5_spec(), 300)
        assert report.first_nonintegral is None
        assert report.terms_checked == 300
        assert report.depth is None

    def test_somos4_stays_integral(self):
        assert scan_integrality(somos_k_spec(4), 100).first_nonintegral is None

    def test_somos8_breakdown_matches_oracle(self):
        report = scan_integrality(somos_k_spec(8), 100)
        event = report.first_nonintegral
        assert event is not None

        oracle = somos_terms(8, event.index + 1)
        assert first_fractional_index(oracle) == event.index
        # the witness re-verifies against the oracle's exact prefix
        numerator = sum(
            oracle[event.index - i] * oracle[event.index - j]
            for i, j in SOMOS_SUMMANDS[8]
        )
        denominator = oracle[event.index - 8]
        assert numerator == event.numerator
        assert denominator == event.denominator
        assert event.remainder == event.numerator % abs(event.denominator)
        assert event.remainder != 0
        assert report.terms_checked == event.index + 1

    def test_max_terms_below_order_rejected(self):
        with pytest.raises(ValueError):
            scan_integrality(somos_k_spec(8), 5)

    def test_zero_divisor_propagates_with_index(self):
        spec = SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=(0, 1, 1, 1, 1))
        with pytest.raises(ZeroDenominatorError) as excinfo:
            scan_integrality(spec, 10)
        assert excinfo.value.index == 5


class TestScanCoprimality:
    def test_somos5_depth_4_has_no_witness(self):
        report = scan_coprimality(somos5_spec(), 300, depth=4)
        assert report.first_noncoprime is None
        assert report.first_nonintegral is None
        assert report.depth == 4

    def test_somos5_depth_5_is_reported_not_asserted(self):
        report = scan_coprimality(somos5_spec(), 300, depth=5)
        witness = report.first_noncoprime
        if witness is not None:
            terms = somos_terms(5, witness.index + 1)
            recomputed = gcd(int(terms[witness.index]), int(terms[witness.index - witness.offset]))
            assert recomputed == witness.gcd > 1

    def test_somos4_depth_2_has_no_witness(self):
        assert scan_coprimality(somos_k_spec(4), 100, depth=2).first_noncoprime is None

    def test_gcd_scan_stops_at_first_fractional_term(self):
        report = scan_coprimality(somos_k_spec(8), 60, depth=4)
        assert report.first_nonintegral is not None

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            scan_coprimality(somos5_spec(), 50, depth=0)

    @pytest.mark.parametrize("depth", [0, -3])
    def test_depth_below_one_is_refused_as_verify_refuses_it(self, depth):
        with pytest.raises(ValueError, match=f"^depth must be at least 1, got {depth}$"):
            scan_coprimality(somos5_spec(), 40, depth)

    def test_shared_factor_is_found(self):
        # start values with a common factor so the very first window trips
        spec = SequenceSpec(order=4, summands=((1, 3), (2, 2)), initials=(2, 2, 1, 1))
        report = scan_coprimality(spec, 20, depth=2)
        assert report.first_noncoprime is not None
        assert report.first_noncoprime.index == 1
        assert report.first_noncoprime.offset == 1
        assert report.first_noncoprime.gcd == 2


class TestAgreementWithCertificates:
    def test_scanner_never_contradicts_certificates(self, somos5_buffer):
        report = scan_integrality(somos5_spec(), 120)
        assert report.first_nonintegral is None
        assert certify_range(somos5_buffer(120), 10, 120).passed


@pytest.mark.parametrize("count", [8, 20, 60])
@pytest.mark.parametrize("k", range(4, 9))
def test_integrality_scan_is_the_coprimality_scan_without_its_walk(k, count):
    spec = somos_k_spec(k)
    walked = scan_coprimality(spec, count, 1)
    assert scan_integrality(spec, count) == replace(walked, depth=None, first_noncoprime=None)


def test_scans_are_deterministic():
    first = scan_coprimality(somos_k_spec(6), 60, depth=3)
    second = scan_coprimality(somos_k_spec(6), 60, depth=3)
    assert first == second


def _first_common_factor_oracle(terms, depth):
    """The first (n, offset, gcd) with gcd(a_n, a_{n-offset}) > 1 over the
    integral prefix of terms, offsets 1..min(depth, n), by brute force."""
    integral = terms[: first_fractional_index(terms)]
    for n in range(len(integral)):
        for offset in range(1, min(depth, n) + 1):
            g = gcd(int(integral[n]), int(integral[n - offset]))
            if g != 1:
                return n, offset, g
    return None


@pytest.mark.parametrize("counting", [False, True], ids=["ones", "counting"])
@pytest.mark.parametrize("depth", range(1, 6))
@pytest.mark.parametrize("k", range(4, 9))
def test_coprimality_witness_matches_brute_force(k, depth, counting):
    # Initials 1..k put common factors inside the partial windows n < depth.
    initials = tuple(range(1, k + 1)) if counting else (1,) * k
    spec = SequenceSpec(order=k, summands=SOMOS_SUMMANDS[k], initials=initials)
    witness = scan_coprimality(spec, 40, depth).first_noncoprime
    found = None if witness is None else (witness.index, witness.offset, witness.gcd)
    assert found == _first_common_factor_oracle(
        fraction_terms(k, SOMOS_SUMMANDS[k], 40, initials), depth
    )
