from __future__ import annotations

import random
import sys
from dataclasses import astuple, replace

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from somos import (
    CERTIFICATE_START,
    IndexOutOfRangeError,
    SequenceBuffer,
    ZeroDenominatorError,
    build_certificate,
    certify_range,
    check_index_shifts,
    emit_report_json,
    gcd,
    generate,
    somos5_spec,
)

from somos.certificate import (
    _PAIRS,
    _chain_lines,
    _failure_reason,
    _pairwise_products,
    _shift_identities,
)

from helpers import SOMOS_SUMMANDS, certificate_oracle, first_fractional_index, fraction_terms


def oracle_layout(certificate):
    """The certificate's fields as certificate_oracle returns them.

    valid is read first, so it cannot come from the chain, which the
    read after it evaluates.
    """
    valid = certificate.valid
    chain = tuple(astuple(step) for step in certificate.chain)
    return (
        certificate.index,
        certificate.modulus,
        certificate.precondition_gcd,
        tuple(astuple(identity) for identity in certificate.shifts),
        chain,
        certificate.numerator_residue,
        valid,
    )


class Poly:
    """An integer polynomial over t1..t10: a dict from exponent tuple to coefficient."""

    def __init__(self, terms):
        self.terms = {exponents: c for exponents, c in terms.items() if c}

    @classmethod
    def variable(cls, d):
        return cls({tuple(int(i == d) for i in range(1, 11)): 1})

    @staticmethod
    def lift(value):
        return value if isinstance(value, Poly) else Poly({(0,) * 10: value})

    def __add__(self, other):
        terms = dict(self.terms)
        for exponents, c in Poly.lift(other).terms.items():
            terms[exponents] = terms.get(exponents, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return Poly({exponents: -c for exponents, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly.lift(other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in Poly.lift(other).terms.items():
                exponents = tuple(a + b for a, b in zip(e1, e2))
                terms[exponents] = terms.get(exponents, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.terms == Poly.lift(other).terms

    def has_literal_factor(self, d):
        """True iff the polynomial is nonzero and t_d divides each of its monomials."""
        return bool(self.terms) and all(exponents[d - 1] > 0 for exponents in self.terms)


def shift_gap(t, s):
    """lhs - rhs of shift identity s: a_{n-s}a_{n-s-5} minus the recurrence's right-hand side."""
    return t[s] * t[s + 5] - (t[s + 1] * t[s + 4] + t[s + 2] * t[s + 3])


def variables():
    """The window t with t[d] = the variable t_d for d = 1..10; t[0] is unused."""
    return (0,) + tuple(Poly.variable(d) for d in range(1, 11))


def chain_step_identities(t):
    """For steps 1..7 of the production chain over the window t:
    (line_{i-1} - line_i - dropped_i, sum over s of c_s * shift_gap_s)."""
    cofactors = [
        {},
        {4: t[1] * t[8], 3: t[2] * t[9]},
        {},
        {1: t[7] * t[8], 2: t[4] * t[9]},
        {},
        {},
        {5: -(t[3] * t[4])},
    ]
    lines = [(value, 0 if dropped is None else dropped) for value, dropped in _chain_lines(t)]
    return [
        (
            lines[step - 1][0] - lines[step][0] - lines[step][1],
            sum((c * shift_gap(t, s) for s, c in cofactors[step - 1].items()), 0),
        )
        for step in range(1, 8)
    ]


class TestIndexShifts:
    def test_all_five_hold_at_10(self, somos5_buffer):
        shifts = check_index_shifts(somos5_buffer(12), 10)
        assert [s.shift for s in shifts] == [5, 4, 3, 2, 1]
        assert all(s.holds for s in shifts)
        by_shift = {s.shift: s for s in shifts}
        # a_5 * a_0 = a_4 * a_1 + a_3 * a_2
        assert (by_shift[5].lhs, by_shift[5].rhs) == (2, 2)
        # a_9 * a_4 = a_8 * a_5 + a_7 * a_6 = 22 + 15
        assert (by_shift[1].lhs, by_shift[1].rhs) == (37, 37)

    def test_hold_along_generated_range(self, somos5_buffer):
        buffer = somos5_buffer(80)
        for n in range(10, 80):
            assert all(s.holds for s in check_index_shifts(buffer, n))

    def test_truncated_buffer_rejected(self, somos5_values):
        buffer = SequenceBuffer(list(somos5_values[1:12]), start_index=1)
        with pytest.raises(IndexOutOfRangeError):
            check_index_shifts(buffer, 10)

    def test_perturbed_term_breaks_a_shift(self, somos5_values):
        values = list(somos5_values[:12])
        values[9] = 36
        shifts = check_index_shifts(SequenceBuffer(values), 10)
        assert not all(s.holds for s in shifts)


class TestCancellationPrecondition:
    def test_at_10(self, somos5_buffer):
        # gcd(a_5, a_2 * a_1) = gcd(2, 1)
        assert build_certificate(somos5_buffer(12), 10).precondition_gcd == 1

    def test_at_14(self, somos5_buffer):
        # gcd(a_9, a_6 * a_5) = gcd(37, 6)
        assert build_certificate(somos5_buffer(14), 14).precondition_gcd == 1

    def test_at_500(self, somos5_buffer):
        assert build_certificate(somos5_buffer(501), 500).precondition_gcd == 1

    def test_missing_terms(self, somos5_buffer):
        with pytest.raises(IndexOutOfRangeError):
            build_certificate(somos5_buffer(12), 18)


class TestBuildCertificate:
    def test_transcript_at_10(self, somos5_buffer):
        cert = build_certificate(somos5_buffer(12), 10)
        assert cert.valid
        assert cert.index == 10
        assert cert.modulus == 2
        assert cert.precondition_gcd == 1
        assert cert.numerator_residue == 0
        # a_2*a_1*(a_9*a_6 + a_8*a_7) = 166 down to a_7*a_6*a_5*a_0 = 30
        assert [step.value for step in cert.chain] == [166, 166, 166, 70, 70, 30, 30, 30]
        assert [step.kind for step in cert.chain] == [
            "exact-rewrite",
            "exact-rewrite",
            "exact-rewrite",
            "drop-multiple",
            "exact-rewrite",
            "drop-multiple",
            "exact-rewrite",
            "exact-rewrite",
        ]
        assert all(step.congruent_to_prev for step in cert.chain)
        assert all(step.verified for step in cert.chain)
        assert cert.chain[-1].value % cert.modulus == 0

    def test_dropped_multiples_are_exact(self, somos5_buffer):
        buffer = somos5_buffer(200)
        for n in range(CERTIFICATE_START, 200):
            cert = build_certificate(buffer, n)
            previous = None
            for step in cert.chain:
                if step.kind == "drop-multiple":
                    discarded = previous - step.value
                    assert discarded == step.dropped_multiple
                    assert discarded % cert.modulus == 0
                else:
                    assert step.dropped_multiple is None
                previous = step.value

    def test_sweep_is_valid(self, somos5_buffer):
        buffer = somos5_buffer(200)
        assert all(build_certificate(buffer, n).valid for n in range(10, 200))

    def test_corrupted_term_invalidates(self, somos5_values):
        values = list(somos5_values[:12])
        values[9] = 36
        cert = build_certificate(SequenceBuffer(values), 10)
        assert not cert.valid
        assert not all(s.holds for s in cert.shifts)

    def test_below_start_rejected(self, somos5_buffer):
        with pytest.raises(IndexOutOfRangeError):
            build_certificate(somos5_buffer(12), 9)

    def test_missing_history_rejected(self, somos5_values):
        buffer = SequenceBuffer(list(somos5_values[2:14]), start_index=2)
        with pytest.raises(IndexOutOfRangeError):
            build_certificate(buffer, 11)

    def test_zero_modulus_rejected(self):
        buffer = SequenceBuffer([1, 1, 1, 1, 1, 0, 1, 1, 1, 1, 1])
        with pytest.raises(ZeroDenominatorError):
            build_certificate(buffer, 10)


class TestCertificateOracle:
    """build_certificate equals the term-by-term chain field for field."""

    def test_generated_range(self, somos5_values):
        values = list(somos5_values[:450])
        buffer = SequenceBuffer(values)
        for n in range(CERTIFICATE_START, 450):
            assert oracle_layout(build_certificate(buffer, n)) == certificate_oracle(values, n)

    def test_one_corrupted_term(self, somos5_values):
        rng = random.Random(2105)
        invalid = 0
        for _ in range(60):
            values = list(somos5_values[: rng.randrange(12, 80)])
            values[rng.randrange(len(values))] += rng.randrange(1, 10**6)
            buffer = SequenceBuffer(values)
            for n in range(CERTIFICATE_START, len(values)):
                certificate = build_certificate(buffer, n)
                assert oracle_layout(certificate) == certificate_oracle(values, n)
                invalid += not certificate.valid
        assert invalid > 0

    @pytest.mark.parametrize("kind", ["plus-one", "negated"])
    def test_corrupted_term_past_the_division_crossover(self, somos5_values, kind):
        # a_435 has about 19,000 bits.  The certificates whose windows hold
        # it reduce their residues and failing congruences through
        # engine._divmod, the oracle through the builtin.
        values = list(somos5_values[:450])
        values[435] = values[435] + 1 if kind == "plus-one" else -values[435]
        buffer = SequenceBuffer(values)
        residues = 0
        for n in range(436, 446):
            certificate = build_certificate(buffer, n)
            assert oracle_layout(certificate) == certificate_oracle(values, n)
            residues += certificate.numerator_residue != 0
        assert residues >= 4
        report = certify_range(buffer, 430, 450)
        assert (report.checked, report.first_failure_index, report.first_failure_reason) == (
            7,
            436,
            "shift identity at offset 1 fails",
        )

    def test_random_windows_with_failing_steps(self):
        # Small signed terms, so failing steps land on both sides of the
        # congruence that is only reduced when a step fails.
        rng = random.Random(503)
        congruence_of_failing_steps = set()
        for _ in range(200):
            values = [rng.choice((-1, 1)) * rng.randrange(1, 60) for _ in range(12)]
            buffer = SequenceBuffer(values)
            for n in (10, 11, 12):
                certificate = build_certificate(buffer, n)
                assert oracle_layout(certificate) == certificate_oracle(values, n)
                congruence_of_failing_steps.update(
                    step.congruent_to_prev for step in certificate.chain if not step.verified
                )
        assert congruence_of_failing_steps == {False, True}


class TestChainFollowsFromTheShifts:
    """No chain step can fail while all five shift identities hold.

    The production _chain_lines is expanded over polynomial variables:
    each step's difference, less what it drops, expands to the stated
    combination of the shift gaps, so it is zero whenever they are; the
    dropped multiples and the last line carry a_{n-5} = t5 literally.
    """

    def test_each_step_is_a_combination_of_the_shift_gaps(self):
        for difference, combination in chain_step_identities(variables()):
            assert difference == combination

    def test_shift_identities_are_the_shift_gaps(self):
        t = variables()
        for identity in _shift_identities(_pairwise_products(t, _PAIRS)):
            assert identity.lhs - identity.rhs == shift_gap(t, identity.shift)

    def test_dropped_multiples_and_last_line_carry_t5(self):
        lines = _chain_lines(variables())
        assert [step for step, (_, dropped) in enumerate(lines) if dropped is not None] == [3, 5]
        for polynomial in (lines[3][1], lines[5][1], lines[7][0]):
            assert polynomial.has_literal_factor(5)

    def test_sympy_expands_the_same(self):
        sympy = pytest.importorskip("sympy")
        symbols = sympy.symbols("t1:11")
        t = (0,) + symbols
        for difference, combination in chain_step_identities(t):
            assert sympy.expand(difference - combination) == 0
        for line, expanded in zip(_chain_lines(t), _chain_lines(variables())):
            for expression, polynomial in zip(line, expanded):
                if expression is None:
                    assert polynomial is None
                    continue
                terms = sympy.Poly(expression, *symbols).as_dict()
                assert {e: int(c) for e, c in terms.items()} == polynomial.terms


class TestChainOnDemand:
    def test_range_never_evaluates_the_chain(self, somos5_buffer, monkeypatch):
        def refuse(window):
            raise AssertionError("chain evaluated")

        monkeypatch.setattr("somos.certificate._evaluate_chain", refuse)
        report = certify_range(somos5_buffer(450))
        assert (report.passed, report.checked) == (True, 440)

    def test_json_evaluates_the_chain_once(self, somos5_buffer, monkeypatch):
        import somos.certificate

        windows = []
        evaluate = somos.certificate._evaluate_chain

        def count(window):
            windows.append(window)
            return evaluate(window)

        monkeypatch.setattr(somos.certificate, "_evaluate_chain", count)
        certificate = build_certificate(somos5_buffer(450), 420)
        assert windows == []
        assert emit_report_json(certificate) == emit_report_json(certificate)
        assert len(windows) == 1


class TestVerifyIntegrality:
    """A valid certificate at n coincides with the engine producing a_n by exact division."""

    def test_at_10(self, somos5_buffer, somos5_values):
        assert build_certificate(somos5_buffer(12), 10).valid
        assert somos5_values[10] == 83

    def test_at_12(self, somos5_buffer, somos5_values):
        assert build_certificate(somos5_buffer(12), 12).valid
        assert somos5_values[12] == 1217

    def test_somos8_fails_at_first_fractional_index(self):
        oracle = fraction_terms(8, SOMOS_SUMMANDS[8], 40)
        failing = first_fractional_index(oracle)
        prefix = [int(v) for v in oracle[:failing]]
        assert not build_certificate(SequenceBuffer(prefix), failing).valid

    def test_certificate_and_division_routes_agree_over_sweep(self, somos5_buffer, somos5_values):
        buffer = somos5_buffer(100)
        for n in range(10, 100):
            assert build_certificate(buffer, n).valid
            numerator = somos5_values[n - 1] * somos5_values[n - 4] + (
                somos5_values[n - 2] * somos5_values[n - 3]
            )
            assert numerator % somos5_values[n - 5] == 0
            assert numerator // somos5_values[n - 5] == somos5_values[n]


class TestCertifyRange:
    def test_range_passes(self, somos5_buffer):
        report = certify_range(somos5_buffer(120), 10, 120)
        assert report.passed
        assert report.check == "certificate"
        assert report.checked == 110

    def test_empty_range_below_start(self, somos5_buffer):
        report = certify_range(somos5_buffer(12), 10, 9)
        assert report.passed and report.checked == 0

    def test_corruption_reported_with_reason(self, somos5_values):
        values = list(somos5_values[:40])
        values[25] += 1
        report = certify_range(SequenceBuffer(values), 10, 30)
        assert not report.passed
        assert report.first_failure_index is not None
        assert report.first_failure_reason

    def test_witnesses_past_the_digit_limit(self, digit_limit):
        values = generate(somos5_spec(), 606).values()
        shared = values[597]  # a_{n-8} at n = 605
        values[600] *= shared  # a_{n-5} at n = 605
        report = certify_range(SequenceBuffer(values), 605, 606)
        residue = 10**5000 + 1
        invalid = replace(build_certificate(SequenceBuffer(values[:12]), 10), valid=False)
        reason = _failure_reason(replace(invalid, numerator_residue=residue))
        sys.set_int_max_str_digits(0)
        assert (report.passed, report.first_failure_index) == (False, 605)
        assert report.first_failure_reason == f"precondition gcd = {shared}"
        assert reason == f"numerator residue {residue} != 0"


class TestCancellationFact:
    """z | y*b <=> z | y whenever gcd(b, z) = 1, the step the chain leans on."""

    @given(
        y=st.integers(min_value=1, max_value=10**6),
        b=st.integers(min_value=1, max_value=10**6),
        z=st.integers(min_value=1, max_value=10**6),
    )
    def test_randomized(self, y, b, z):
        assume(gcd(b, z) == 1)
        assert ((y * b) % z == 0) == (y % z == 0)
