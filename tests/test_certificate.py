from __future__ import annotations

import random
import sys
from contextlib import suppress
from dataclasses import astuple, fields, replace
from math import floor, gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import somos.certificate
import somos.engine
from somos import (
    CERTIFICATE_START,
    DivisibilityCertificate,
    RATIONAL,
    IndexOutOfRangeError,
    SequenceBuffer,
    SomosError,
    ZeroDenominatorError,
    build_certificate,
    certify_range,
    check_index_shifts,
    emit_report_json,
    generate,
    next_term,
    somos5_spec,
    somos_k_spec,
)
from somos.bigint import to_decimal
from somos.cli import main
from somos.coprime import first_failure
from somos.certificate import _chain_lines, _failure_reason
from somos.engine import _identity, _sides

from helpers import certificate_oracle, first_fractional_index, somos_terms


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
        tuple((s.shift, s.lhs, s.rhs, s.holds) for s in certificate.shifts),
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

    def test_every_certificate_reads_its_shifts_here(self, somos5_values, monkeypatch):
        shift_calls, certificates = [], []
        read_shifts = somos.certificate.check_index_shifts
        build = somos.certificate.build_certificate

        def count_shifts(buffer, n, holds=None):
            shift_calls.append(n)
            return read_shifts(buffer, n, holds)

        def keep(*args):
            certificates.append(build(*args))
            return certificates[-1]

        monkeypatch.setattr(somos.certificate, "check_index_shifts", count_shifts)
        monkeypatch.setattr(somos.certificate, "build_certificate", keep)
        values = list(somos5_values[:60])
        report = certify_range(SequenceBuffer(values), 10, 60)
        assert (report.passed, report.checked) == (True, 50)
        assert shift_calls == list(range(10, 60))
        certificates.append(build_certificate(SequenceBuffer(values), 42))
        assert shift_calls[50:] == [42]
        for certificate in certificates:
            assert oracle_layout(certificate) == certificate_oracle(values, certificate.index)


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

    def test_valid_follows_from_the_facts(self, somos5_buffer):
        certificate = build_certificate(somos5_buffer(14), 13)
        assert certificate.valid is True
        assert replace(certificate, numerator_residue=1).valid is False
        assert replace(certificate, precondition_gcd=5).valid is False
        broken = replace(certificate.shifts[2], holds=False)
        shifts = certificate.shifts[:2] + (broken,) + certificate.shifts[3:]
        assert replace(certificate, shifts=shifts).valid is False
        assert replace(replace(certificate, numerator_residue=1), numerator_residue=0).valid is True

    def test_valid_is_not_an_argument(self, somos5_buffer):
        certificate = build_certificate(somos5_buffer(14), 13)
        facts = {f.name: getattr(certificate, f.name) for f in fields(certificate) if f.init}
        assert DivisibilityCertificate(**facts) == certificate
        with pytest.raises(TypeError):
            DivisibilityCertificate(**facts, valid=True)
        with pytest.raises(ValueError):
            replace(certificate, valid=False)

    def test_repr(self, somos5_values):
        shifts = ", ".join(f"IndexShiftIdentity(shift={s}, holds={{}})" for s in range(5, 0, -1))
        valid = build_certificate(SequenceBuffer(list(somos5_values[:14])), 13)
        assert repr(valid) == (
            "DivisibilityCertificate(index=13, modulus=11, precondition_gcd=1, shifts=("
            + shifts.format(*[True] * 5)
            + "), numerator_residue=0, valid=True)"
        )
        values = list(somos5_values[:16])
        values[10] *= values[7]  # a_{n-5} shares a_{n-8} at n = 15
        invalid = build_certificate(SequenceBuffer(values), 15)
        assert repr(invalid) == (
            "DivisibilityCertificate(index=15, modulus=415, precondition_gcd=5, shifts=("
            + shifts.format(*[False] * 5)
            + "), numerator_residue=249, valid=False)"
        )

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
        spec = somos5_spec()
        for s in range(1, 6):
            lhs, rhs = _sides(t, spec, s)
            assert lhs - rhs == shift_gap(t, s)
        # At shift 0 the stored window's t[0] = 0: only the numerator is left.
        assert _sides(t, spec) == (0, t[1] * t[4] + t[2] * t[3])

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
        oracle = somos_terms(8, 40)
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
        certificate = build_certificate(SequenceBuffer(values[:12]), 10)
        reason = _failure_reason(replace(certificate, numerator_residue=residue))
        sys.set_int_max_str_digits(0)
        assert (report.passed, report.first_failure_index) == (False, 605)
        assert report.first_failure_reason == f"precondition gcd = {shared}"
        assert reason == f"numerator residue {residue} != 0"

    def test_repr_past_the_digit_limit(self, somos5_buffer, digit_limit):
        certificate = build_certificate(somos5_buffer(425), 425)
        assert to_decimal(certificate.modulus) in repr(certificate)
        for step in certificate.chain:
            assert to_decimal(step.value) in repr(step)


def outcome(run):
    """The report of run() as a tuple, or the type, text and index of what it raised."""
    try:
        return astuple(run())
    except (ValueError, SomosError) as exc:
        return type(exc), str(exc), getattr(exc, "index", None)


def oracle_values(buffer):
    """The buffer's terms by index, as certificate_oracle reads them: integral ones as ints."""
    return {n: v.numerator if getattr(v, "denominator", 1) == 1 else v for n, v in buffer.items()}


def rational_somos5(initials, count=40):
    """Somos-5 from initials in rational mode, up to count terms or the first zero divisor."""
    spec = replace(somos5_spec(), initials=initials)
    buffer = generate(spec, 5, mode=RATIONAL)
    with suppress(ZeroDenominatorError):
        while buffer.next_index < count:
            next_term(buffer, spec, RATIONAL)
    return buffer


class TestRangeSharesIdentities:
    """certify_range, which shares each recurrence identity along the range
    and takes the residue from the identity at n, builds the certificates
    that standalone build_certificate calls build, and reports what their
    walk reports."""

    @staticmethod
    def check(buffer, start, stop, monkeypatch):
        calls, built, readers, asked = [], [], [], []
        build = somos.certificate.build_certificate

        def capture(buffer, n, holds=None, known=None):
            calls.append(n)
            readers.append((holds, known))

            def ask(j, d):
                asked.append((n, j, d, known(j, d)))
                return asked[-1][3]

            built.append(build(buffer, n, holds, ask))
            return built[-1]

        monkeypatch.setattr(somos.certificate, "build_certificate", capture)
        ranged = outcome(lambda: certify_range(buffer, start, stop))
        monkeypatch.undo()

        alone = []

        def failure_at(n):
            alone.append(build_certificate(buffer, n))
            return _failure_reason(alone[-1])

        expected = outcome(lambda: first_failure("certificate", start, stop, failure_at))
        assert ranged == expected
        assert built == alone
        assert calls[: len(built)] == [c.index for c in built]
        # One reader and one predicate for the whole range.  The reader gives
        # the identity at each j from shift 5 of the first certificate to the
        # residue of the last, clipped to the identities whose terms the
        # buffer holds.
        assert all(pair[0] is readers[0][0] and pair[1] is readers[0][1] for pair in readers)
        if readers:
            holds = readers[0][0]
            lo = max(start - 5, buffer.start_index + 5, 5)
            for j in range(lo, min(stop, buffer.next_index)):
                assert holds(j) == _identity(buffer, somos5_spec(), j)
        values = oracle_values(buffer)
        # known is asked only about the three indices before n - 5, and each
        # fact it confirms is true of the buffer.
        for n, j, d, confirmed in asked:
            assert n - 8 <= j <= n - 6
            if confirmed:
                assert gcd(values[j], values[j - d]) == 1
        for certificate in built:
            assert oracle_layout(certificate) == certificate_oracle(values, certificate.index)
        return ranged, built

    def test_clean_range(self, somos5_buffer, monkeypatch):
        generated = generate(somos5_spec(), 450)
        assert generated.values() == somos5_buffer(450).values()
        ranged, built = self.check(generated, 10, 450, monkeypatch)
        assert ranged[3:5] == (440, True) and len(built) == 440

    @pytest.mark.parametrize("kind", ["plus-one", "negated", "zeroed"])
    @pytest.mark.parametrize("where", [12, 25, 33, 59])
    def test_one_corrupted_term(self, somos5_values, monkeypatch, kind, where):
        values = list(somos5_values[:60])
        values[where] = {"plus-one": values[where] + 1, "negated": -values[where], "zeroed": 0}[kind]
        buffer = SequenceBuffer(values)
        for start in (10, where - 3, where + 1, where + 5):
            self.check(buffer, max(start, 10), 60, monkeypatch)

    def test_a_wrong_quotient_fails_the_recorded_shift(self, monkeypatch, wrong_last_quotient):
        wrong_last_quotient(300 - 5)
        generated = generate(somos5_spec(), 300)
        monkeypatch.undo()
        ranged, _ = self.check(generated, 295, 301, monkeypatch)
        assert ranged[3:7] == (6, False, 300, "shift identity at offset 1 fails")

    def test_zero_modulus_raises_at_the_same_index(self, somos5_values, monkeypatch):
        values = list(somos5_values[:60])
        values[40] = 0
        ranged, built = self.check(SequenceBuffer(values), 45, 60, monkeypatch)
        assert ranged[0] is ZeroDenominatorError and ranged[2] == 40 and built == []

    @pytest.mark.parametrize("kind", ["clean", "plus-one", "negated", "zeroed"])
    def test_range_starting_past_10(self, somos5_values, monkeypatch, kind):
        values = list(somos5_values[:450])
        if kind != "clean":
            values[440] = {"plus-one": values[440] + 1, "negated": -values[440], "zeroed": 0}[kind]
        ranged, _ = self.check(SequenceBuffer(values), 430, 450, monkeypatch)
        assert (kind == "clean") == (ranged[4] is True)

    def test_offset_buffer(self, somos5_values, monkeypatch):
        buffer = SequenceBuffer(list(somos5_values[37:120]), start_index=37)
        ranged, _ = self.check(buffer, 47, 120, monkeypatch)
        assert ranged[3:5] == (73, True)

    def test_rational_somos5_buffer(self, monkeypatch):
        buffer = generate(somos5_spec(), 120, mode=RATIONAL)
        ranged, built = self.check(buffer, 10, 120, monkeypatch)
        assert ranged[3:5] == (110, True)
        assert built == [build_certificate(generate(somos5_spec(), 120), n) for n in range(10, 120)]

    def test_rational_somos8_with_a_fractional_term(self, monkeypatch):
        oracle = somos_terms(8, 40)
        failing = first_fractional_index(oracle)
        buffer = generate(somos_k_spec(8), failing + 3, mode=RATIONAL)
        assert buffer.term(failing).denominator != 1
        prefix = SequenceBuffer([int(v) for v in oracle[:failing]])
        ranged, built = self.check(buffer, failing, failing + 1, monkeypatch)
        assert ranged[3] == 1 and built == [build_certificate(prefix, failing)]
        # Past it, the window holds the fraction, and both routes raise there.
        ranged, built = self.check(buffer, failing + 1, failing + 3, monkeypatch)
        assert ranged[0] is ValueError and built == []
        self.check(buffer, 10, failing + 1, monkeypatch)

    @pytest.mark.parametrize("start", [10, 40, 430])
    def test_scaled_buffer_fails_on_the_precondition(self, somos5_values, monkeypatch, start):
        # 3 a_n meets every identity, and 3 divides every precondition gcd.
        buffer = SequenceBuffer([3 * v for v in somos5_values[:450]])
        ranged, built = self.check(buffer, start, 450, monkeypatch)
        assert ranged[4:6] == (False, start)
        assert ranged[6].startswith("precondition gcd = ")
        assert all(shift.holds for shift in built[0].shifts)

    @settings(deadline=None, max_examples=150)
    @given(initials=st.tuples(*[st.integers(-3, 3)] * 5), start=st.integers(10, 30))
    @example(initials=(-3, -3, -3, 1, 2), start=10)
    def test_small_initials(self, initials, start):
        # The rational buffer and its floor, whose identities break where a
        # term is fractional.
        buffer = rational_somos5(initials)
        floored = SequenceBuffer([floor(value) for _, value in buffer.items()])
        with pytest.MonkeyPatch.context() as monkeypatch:
            self.check(buffer, start, buffer.next_index, monkeypatch)
            self.check(floored, start, floored.next_index, monkeypatch)

    @pytest.mark.parametrize("start", [10, 40])
    def test_clean_range_computes_only_the_seed_gcds(self, somos5_values, monkeypatch, start):
        pairs = []

        def count(a, b):
            pairs.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(somos.certificate, "gcd", count)
        report = certify_range(SequenceBuffer(list(somos5_values[:450])), start, 450)
        assert (report.passed, report.checked) == (True, 450 - start)
        # Offsets 1 and 2 at j = start-6, start-7, start-8: a_j against a_{j-1} and a_{j-2}.
        a = somos5_values
        assert pairs == [(a[j], a[j - i]) for j in range(start - 6, start - 9, -1) for i in (1, 2)]

    @staticmethod
    def _evaluated_identities(monkeypatch):
        # The indices the certificate module calls engine._identity at, in
        # order; its own _sides and _divmod refuse to run.
        evaluated = []
        identity = somos.engine._identity

        def refuse(*args):
            raise AssertionError("evaluated outside _identity")

        monkeypatch.setattr(
            somos.certificate,
            "_identity",
            lambda b, s, n, *store: evaluated.append(n) or identity(b, s, n, *store),
        )
        monkeypatch.setattr(somos.certificate, "_sides", refuse)
        monkeypatch.setattr(somos.certificate, "_divmod", refuse)
        return evaluated

    def test_each_identity_is_evaluated_once_without_a_division(self, somos5_buffer, monkeypatch):
        evaluated = self._evaluated_identities(monkeypatch)
        report = certify_range(somos5_buffer(450), 10, 450)
        assert (report.passed, report.checked) == (True, 440)
        # The first certificate's five shifts, then the identity at each n.
        assert evaluated == list(range(5, 450))

    def test_an_early_failure_ends_the_evaluations(self, monkeypatch):
        # Identities are read as the walk reaches them, so a range that
        # fails early evaluates none past it.
        values = generate(somos5_spec(), 1000).values()
        values[20] += 1
        evaluated = self._evaluated_identities(monkeypatch)
        # The identity at 20 fails, so the certificate at 20 divides its residue.
        monkeypatch.setattr(somos.certificate, "_sides", somos.engine._sides)
        monkeypatch.setattr(somos.certificate, "_divmod", somos.engine._divmod)
        report = certify_range(SequenceBuffer(values), 10, 1000)
        assert (report.checked, report.first_failure_index) == (12, 21)
        assert report.first_failure_reason == "shift identity at offset 1 fails"
        assert evaluated == list(range(5, 22))

    def test_generated_certify_evaluates_each_identity_once(self, monkeypatch, capsys):
        # generate takes the ladder's terms unchecked; certify checks each one.
        evaluated = self._evaluated_identities(monkeypatch)
        assert main(["certify", "--count", "300"]) == 0
        assert capsys.readouterr().out == "certificate over n in [10, 300): 290 checked, pass\n"
        assert evaluated == list(range(5, 300))

    def test_at_index_past_the_buffer_the_residue_is_divided(self, somos5_buffer, monkeypatch):
        divisions = []
        divide = somos.certificate._divmod

        def count(a, b):
            divisions.append(b)
            return divide(a, b)

        monkeypatch.setattr(somos.certificate, "_divmod", count)
        buffer = somos5_buffer(60)
        inside, past = build_certificate(buffer, 59), build_certificate(buffer, 60)
        assert (inside.valid, past.valid) == (True, True)
        assert divisions == [past.modulus]


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
