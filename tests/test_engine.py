from __future__ import annotations

import ast
import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import somos.bigint
import somos.engine
from somos import (
    INTEGER,
    RATIONAL,
    IndexOutOfRangeError,
    InvalidSpecError,
    NonIntegralEvent,
    NonIntegralTermError,
    SequenceBuffer,
    SequenceSpec,
    ZeroDenominatorError,
    as_integer,
    build_certificate,
    emit_bfile,
    first_recurrence_violation,
    generate,
    new_state,
    next_term,
    scan_integrality,
    somos5_spec,
    somos_k_spec,
)
from somos.bigint import _DIV_LIMIT, _mersenne_exponents, _mersenne_residue
from somos.cli import main
from somos.engine import _RESIDUE_LIMIT, _divmod, _fractional_step, _identity, _sides, window_start
from somos.formats import to_decimal

from helpers import SOMOS_SUMMANDS, first_fractional_index, fraction_terms, somos_terms

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"

# OEIS A006721 prefix
FIRST_TWELVE = [1, 1, 1, 1, 1, 2, 3, 5, 11, 37, 83, 274]


class TestSpecValidation:
    def test_somos5_initial_buffer(self):
        buffer = new_state(somos5_spec())
        assert buffer.values() == [1, 1, 1, 1, 1]
        assert buffer.start_index == 0
        assert buffer.next_index == 5

    def test_order4_initial_buffer(self):
        spec = SequenceSpec(order=4, summands=((1, 3), (2, 2)), initials=(1, 1, 1, 1))
        assert new_state(spec).values() == [1, 1, 1, 1]

    def test_summand_not_weight_homogeneous(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(order=5, summands=((1, 3),), initials=(1,) * 5)

    def test_duplicate_summand(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(order=5, summands=((1, 4), (1, 4)), initials=(1,) * 5)

    def test_wrong_initials_length(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(order=5, summands=((1, 4),), initials=(1, 1, 1))

    def test_empty_summands(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(order=5, summands=(), initials=(1,) * 5)

    def test_summand_order_flipped(self):
        with pytest.raises(InvalidSpecError):
            SequenceSpec(order=5, summands=((4, 1),), initials=(1,) * 5)

    def test_non_integer_order_rejected(self):
        # 5.0 passes validate(); only the coercion refuses it before a slice does.
        with pytest.raises(TypeError):
            SequenceSpec(order=5.0, summands=((1, 4), (2, 3)), initials=(1,) * 5)

    def test_non_integer_summands_rejected(self):
        # int() would truncate (1.7, 4.2) to the valid (1, 4).
        with pytest.raises(TypeError):
            SequenceSpec(order=5, summands=((1.7, 4.2), (2, 3)), initials=(1,) * 5)

    @pytest.mark.parametrize(
        "initials", [(1.5, 1, 1, 1, 1.9), (Fraction(1, 2), 1, 1, 1, 1)], ids=["floats", "half"]
    )
    def test_non_integer_initials_rejected(self, initials):
        # int() would truncate these to a valid all-ones start and a leading 0.
        with pytest.raises(TypeError):
            SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=initials)

    def test_only_the_spec_validates_itself(self):
        def validate_calls(node):
            return [
                call
                for call in ast.walk(node)
                if isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr == "validate"
            ]

        outside = []
        for path in sorted(Path(somos.engine.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            inside = {
                id(call)
                for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == "SequenceSpec"
                for call in validate_calls(node)
            }
            outside += [f"{path.name}:{c.lineno}" for c in validate_calls(tree) if id(c) not in inside]
        assert outside == []

    def test_specs_accept_lists(self):
        spec = SequenceSpec(order=5, summands=[[1, 4], [2, 3]], initials=[1] * 5)
        spec.validate()
        assert spec == SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=(1,) * 5)


class TestNextTerm:
    def test_first_computed_term(self):
        buffer = new_state(somos5_spec())
        assert next_term(buffer, somos5_spec()) == 2
        assert buffer.next_index == 6

    def test_single_step_at_index_12(self):
        # (274*11 + 83*37) / 5 = 6085 / 5
        buffer = SequenceBuffer(FIRST_TWELVE)
        assert next_term(buffer, somos5_spec()) == 1217

    def test_rational_mode_returns_fraction(self):
        buffer = new_state(somos5_spec())
        value = next_term(buffer, somos5_spec(), RATIONAL)
        assert value == Fraction(2)
        assert isinstance(value, Fraction)

    def test_non_integral_leaves_buffer_unchanged(self):
        spec = somos_k_spec(8)
        oracle = somos_terms(8, 40)
        failing = first_fractional_index(oracle)
        buffer = new_state(spec)
        while buffer.next_index < failing:
            assert isinstance(next_term(buffer, spec), int)
        before = buffer.values()
        event = next_term(buffer, spec)
        assert isinstance(event, NonIntegralEvent)
        assert event.index == failing
        assert 0 < event.remainder < abs(event.denominator)
        assert buffer.values() == before

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=5, max_size=5))
    def test_signed_divisors(self, initials):
        assume(initials[0] != 0)
        spec = SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=initials)
        numerator = initials[4] * initials[1] + initials[3] * initials[2]
        denominator = initials[0]
        result = next_term(new_state(spec), spec)
        if numerator % denominator == 0:
            assert result == numerator // denominator
        else:
            assert isinstance(result, NonIntegralEvent)
            assert result.remainder == numerator % abs(denominator)
            assert 0 <= result.remainder < abs(denominator)

    def test_negative_divisor_example(self):
        spec = SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=(-7, 5, 1, 2, 3))
        # 3*5 + 2*1 = 17 = (-7)(-3) - 4, so the remainder modulo 7 is 3
        event = next_term(new_state(spec), spec)
        assert (event.numerator, event.denominator, event.remainder) == (17, -7, 3)
        spec = SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=(-7, 4, 1, 1, 5))
        assert next_term(new_state(spec), spec) == 21 // -7 == -3

    def test_witnesses_past_the_division_crossover(self):
        # The step at n = 700 divides a 100,000-bit numerator by a
        # 50,000-bit a_{n-5}; each witness must be the builtin divmod's.
        spec = somos5_spec()
        n = 700
        clean = generate(spec, n).values()
        nudged = list(clean)
        nudged[n - 1] += 1
        for values in (nudged, nudged[: n - 5] + [-nudged[n - 5]] + nudged[n - 4 :]):
            numerator = values[n - 1] * values[n - 4] + values[n - 2] * values[n - 3]
            denominator = values[n - 5]
            assert abs(denominator).bit_length() > 2 * _DIV_LIMIT
            event = next_term(SequenceBuffer(values), spec)
            assert isinstance(event, NonIntegralEvent)
            expected = (n, numerator, denominator, numerator % abs(denominator))
            assert (event.index, event.numerator, event.denominator, event.remainder) == expected
            assert 0 < event.remainder < abs(denominator)
        negated = clean[: n - 5] + [-clean[n - 5]] + clean[n - 4 :]
        step = clean[n - 1] * clean[n - 4] + clean[n - 2] * clean[n - 3]
        assert next_term(SequenceBuffer(negated), spec) == step // -clean[n - 5] < 0

    def test_zero_denominator(self):
        spec = SequenceSpec(order=5, summands=((1, 4), (2, 3)), initials=(0, 1, 1, 1, 1))
        buffer = new_state(spec)
        with pytest.raises(ZeroDenominatorError) as excinfo:
            next_term(buffer, spec)
        assert excinfo.value.index == 5

    def test_short_buffer_rejected(self):
        buffer = SequenceBuffer([1, 1, 1])
        with pytest.raises(IndexOutOfRangeError):
            next_term(buffer, somos5_spec())

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            next_term(new_state(somos5_spec()), somos5_spec(), "float")

    def test_integer_mode_steps_an_integral_fraction_window(self):
        buffer = SequenceBuffer([Fraction(1)] * 5)
        value = next_term(buffer, somos5_spec(), INTEGER)
        assert value == 2 and type(value) is int
        assert buffer.term(5) == 2

    def test_integer_mode_rejects_a_non_integral_window(self):
        buffer = SequenceBuffer([Fraction(1), 1, Fraction(1, 2), 1, 1])
        with pytest.raises(ValueError, match="1/2"):
            next_term(buffer, somos5_spec(), INTEGER)
        assert buffer.next_index == 5

    def test_integer_step_on_a_rational_prefix_is_the_scan_witness(self):
        spec = somos_k_spec(8)
        event = next_term(generate(spec, 17, RATIONAL).below(17), spec, INTEGER)
        assert event == NonIntegralEvent(17, 420514, 7, 3)
        assert event == scan_integrality(spec, 100).first_nonintegral


@st.composite
def operands(draw, min_bits, max_bits):
    """Signed ints of min_bits..max_bits bits: random, all ones, or a power of two."""
    bits = draw(st.integers(min_value=min_bits, max_value=max_bits))
    if bits == 0:
        return 0
    shape = draw(st.sampled_from(("random", "ones", "power")))
    if shape == "ones":
        value = (1 << bits) - 1
    elif shape == "power":
        value = 1 << (bits - 1)
    else:
        seed = draw(st.integers(min_value=0, max_value=2**32))
        value = random.Random(seed).getrandbits(bits) | 1 << (bits - 1)
    return draw(st.sampled_from((1, -1))) * value


class TestDivmod:
    """engine._divmod is the builtin divmod, for every pair of ints."""

    @settings(deadline=None, max_examples=200)
    @given(a=operands(0, 6 * _DIV_LIMIT), b=operands(1, 3 * _DIV_LIMIT))
    def test_signed_operands(self, a, b):
        assert _divmod(a, b) == divmod(a, b)

    @settings(deadline=None, max_examples=150)
    @given(data=st.data(), n=st.integers(min_value=_DIV_LIMIT - 8, max_value=4 * _DIV_LIMIT + 8))
    def test_odd_divisors_straddling_the_crossover(self, data, n):
        # An odd divisor length past the limit takes the doubling branch.
        n |= 1
        b = data.draw(operands(n, n))
        a = data.draw(operands(n + _DIV_LIMIT - 8, 2 * n + 1))
        assert _divmod(a, b) == divmod(a, b)

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), n=st.integers(min_value=_DIV_LIMIT + 1, max_value=2 * _DIV_LIMIT))
    def test_dividends_of_many_divisor_lengths(self, data, n):
        b = data.draw(operands(n, n))
        a = data.draw(operands(3 * n, 9 * n))
        assert _divmod(a, b) == divmod(a, b)

    @pytest.mark.parametrize("n", [8192, 8193, 12_000])
    def test_saturated_quotient_digit_and_its_correction(self, n):
        # b = 2^(n-1) + 2^(n/2) - 1 and a = 2^(2n-1): the top n/2 bits of
        # a >> n equal those of b, so the first quotient digit is taken as
        # 2^(n/2) - 1, which overshoots and is corrected by adding b back.
        # Odd n takes the doubling branch instead.
        half = (n + 1) // 2
        b = 1 << (n - 1) | (1 << half) - 1
        a = 1 << (2 * n - 1)
        if n % 2 == 0:
            assert (a >> n) >> half == b >> half
        for x, y in ((a, b), (-a, b), (a, -b), (-a, -b), (a - 1, b), (a + b, b)):
            assert _divmod(x, y) == divmod(x, y)

    # Explicit ids: pytest would name a case by str(a), which raises past
    # the interpreter's int<->str digit limit, so the big ones go by bit length.
    @pytest.mark.parametrize(
        "a",
        [0, 1, -5, 1 << 10_000, -(1 << 10_000)],
        ids=["0", "1", "-5", "10001-bits", "-10001-bits"],
    )
    def test_zero_divisor(self, a):
        with pytest.raises(ZeroDivisionError):
            _divmod(a, 0)

    def test_dividing_every_somos5_step_writes_the_reference_bfile(self, monkeypatch):
        # The ladder leaves Somos-5 steps no division; withholding its
        # proposals sends all 695 steps, with divisors of up to 50,000
        # bits, through Burnikel and Ziegler's recursion.
        recursions = []
        div_digits = somos.bigint._div_digits
        monkeypatch.setattr(somos.engine, "propose", lambda buffer, spec, n: None)
        monkeypatch.setattr(
            somos.bigint, "_div_digits", lambda *args: recursions.append(None) or div_digits(*args)
        )
        buffer = generate(somos5_spec(), 700)
        monkeypatch.undo()
        assert recursions
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["bfile_700"]
        assert hashlib.sha256(emit_bfile(buffer).encode("utf-8")).hexdigest() == reference


class TestGenerate:
    def test_first_twelve_terms(self):
        assert generate(somos5_spec(), 12).values() == FIRST_TWELVE

    def test_initials_only(self):
        assert generate(somos5_spec(), 5).values() == [1] * 5

    def test_fourteen_terms_end_at_6161(self):
        buffer = generate(somos5_spec(), 14)
        assert buffer.term(13) == 6161
        oracle = somos_terms(5, 14)
        assert [Fraction(v) for v in buffer.values()] == oracle

    @pytest.mark.parametrize("count", [0, 1, 3, 5])
    def test_count_below_order_gives_the_first_initials(self, count):
        spec = SequenceSpec(order=5, summands=SOMOS_SUMMANDS[5], initials=(2, 3, 5, 7, 11))
        buffer = generate(spec, count)
        assert (buffer.start_index, buffer.values()) == (0, [2, 3, 5, 7, 11][:count])

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="^count must be non-negative, got -2$"):
            generate(somos5_spec(), -2)

    def test_integer_mode_aborts_with_witness(self):
        spec = somos_k_spec(8)
        oracle_failing = first_fractional_index(somos_terms(8, 40))
        with pytest.raises(NonIntegralTermError) as excinfo:
            generate(spec, 40)
        assert excinfo.value.event.index == oracle_failing
        assert excinfo.value.buffer.next_index == oracle_failing

    def test_determinism(self):
        first = generate(somos5_spec(), 60).values()
        second = generate(somos5_spec(), 60).values()
        assert first == second

    def test_mode_agreement_where_integer_succeeds(self):
        for k in (4, 5, 6, 7):
            spec = somos_k_spec(k)
            integral = generate(spec, 60, INTEGER).values()
            rational = generate(spec, 60, RATIONAL).values()
            assert all(v.denominator == 1 for v in rational[k:])
            assert [Fraction(v) for v in integral] == rational

    def test_mode_boundary_at_somos8_breakdown(self):
        # rational denominators are 1 exactly where integer mode succeeds
        spec = somos_k_spec(8)
        oracle = somos_terms(8, 25)
        failing = first_fractional_index(oracle)
        rational = generate(spec, 25, RATIONAL).values()
        assert all(v.denominator == 1 for v in rational[:failing])
        assert rational[failing].denominator != 1
        with pytest.raises(NonIntegralTermError) as excinfo:
            generate(spec, 25, INTEGER)
        assert excinfo.value.event.index == failing

    def test_positive_and_nondecreasing_prefix(self, somos5_buffer):
        values = somos5_buffer(300).values()
        assert values[0] >= 1
        assert all(previous <= value for previous, value in zip(values, values[1:]))


def _assert_fractions_in_lowest_terms(values):
    for value in values:
        assert isinstance(value, Fraction)
        assert value.denominator > 0
        assert gcd(value.numerator, value.denominator) == 1


class TestRationalAgainstOracle:
    @pytest.mark.parametrize("k,count", [(4, 60), (5, 60), (6, 50), (7, 50), (8, 30), (8, 46)])
    def test_all_ones_start(self, k, count):
        # Somos-8 runs past its first fractional index 17, so its later
        # windows hold non-integral fractions.
        buffer = generate(somos_k_spec(k), count, RATIONAL)
        oracle = somos_terms(k, count)
        assert buffer.values() == oracle
        _assert_fractions_in_lowest_terms(buffer.values()[k:])
        if k == 8:
            assert first_fractional_index(oracle) == 17

    def test_negative_initials(self):
        # a_6 = 6 divides by a_0 = -1 exactly; a_8 = -15/2 divides by a_2 = -2
        # from an all-integer window; later windows hold fractions.
        initials = (-1, 1, -2, 1, 3, -1)
        spec = SequenceSpec(order=6, summands=SOMOS_SUMMANDS[6], initials=initials)
        buffer = generate(spec, 20, RATIONAL)
        oracle = fraction_terms(6, SOMOS_SUMMANDS[6], 20, initials)
        assert buffer.values() == oracle
        assert oracle[6] == 6 and oracle[8] == Fraction(-15, 2)
        _assert_fractions_in_lowest_terms(buffer.values()[6:])

    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(min_value=4, max_value=6),
        initials=st.lists(st.integers(min_value=-6, max_value=6), min_size=6, max_size=6),
    )
    def test_signed_initials(self, k, initials):
        initials = initials[:k]
        assume(initials[0] != 0)
        spec = SequenceSpec(order=k, summands=SOMOS_SUMMANDS[k], initials=initials)
        try:
            oracle = fraction_terms(k, SOMOS_SUMMANDS[k], 14, initials)
        except ZeroDivisionError:
            with pytest.raises(ZeroDenominatorError):
                generate(spec, 14, RATIONAL)
            return
        buffer = generate(spec, 14, RATIONAL)
        assert buffer.values() == oracle
        _assert_fractions_in_lowest_terms(buffer.values()[k:])

    @settings(deadline=None, max_examples=60)
    @given(
        k=st.integers(min_value=6, max_value=9),
        count=st.integers(min_value=18, max_value=20),
        initials=st.lists(st.integers(min_value=-5, max_value=5), min_size=9, max_size=9),
    )
    def test_signed_initials_past_the_first_fraction(self, k, count, initials):
        # Windows past the first fractional term hold negative, zero and
        # fractional terms; a zero reaching a_{n-k} must raise.
        initials = initials[:k]
        spec = SequenceSpec(order=k, summands=SOMOS_SUMMANDS[k], initials=initials)
        try:
            oracle = fraction_terms(k, SOMOS_SUMMANDS[k], count, initials)
        except ZeroDivisionError:
            with pytest.raises(ZeroDenominatorError):
                generate(spec, count, RATIONAL)
            return
        buffer = generate(spec, count, RATIONAL)
        assert buffer.values() == oracle
        _assert_fractions_in_lowest_terms(buffer.values()[k:])

    @settings(deadline=None, max_examples=200)
    @given(
        k=st.integers(min_value=4, max_value=9),
        terms=st.lists(
            st.one_of(
                st.integers(min_value=-40, max_value=40),
                st.fractions(min_value=-40, max_value=40, max_denominator=90),
            ),
            min_size=9,
            max_size=9,
        ),
    )
    # Somos-8 summand denominators 2, 3, 5 and 49 have lcm 1470, none of them.
    @example(
        k=8,
        terms=[Fraction(1, 2), Fraction(-2, 3), Fraction(3, 5), Fraction(4, 7), 1, 1, -1, 3],
    )
    def test_step_on_signed_fraction_windows(self, k, terms):
        window = terms[:k]
        assume(window[-1] != 0)
        summands = SOMOS_SUMMANDS[k]
        expected = sum(Fraction(window[i - 1]) * window[j - 1] for i, j in summands) / window[-1]
        value = _fractional_step(window, summands)
        assert value == expected
        _assert_fractions_in_lowest_terms([value])

    def test_somos8_rational_output_matches_the_reference_digest(self, capsys):
        digest = json.loads(REFERENCE.read_text(encoding="utf-8"))["somos8_rational_54"]
        assert main(["generate", "--k", "8", "--count", "54", "--mode", "rational"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class TestBufferRetention:
    def test_window_reads_back_from_n(self, somos5_values):
        buffer = SequenceBuffer(list(somos5_values[7:20]), start_index=7)
        for n in range(7, 20):
            for depth in range(n - 7 + 1):
                t = buffer.window(n, depth)
                assert t == tuple(somos5_values[n - d] for d in range(depth + 1))
        assert buffer.window(12, 0) == (somos5_values[12],)

    @pytest.mark.parametrize("n, depth", [(9, 3), (7, 1), (20, 0), (21, 5), (19, 13)])
    def test_window_past_the_retained_range(self, n, depth):
        buffer = SequenceBuffer(list(range(13)), start_index=7)
        with pytest.raises(IndexOutOfRangeError, match=rf"\[{n - depth}, {n}\].*\[7, 20\)"):
            buffer.window(n, depth)

    def test_negative_depth_rejected(self):
        # An empty tuple would break t[d] = a_{n-d}.
        buffer = generate(somos5_spec(), 12)
        with pytest.raises(ValueError, match="depth must be non-negative, got -1"):
            buffer.window(5, -1)

    def test_below_a_negative_start(self):
        below = SequenceBuffer([1, 2, 3], start_index=-2).below(0)
        assert (below.start_index, below.values()) == (-2, [1, 2])


class TestRecurrenceRecheck:
    def test_clean_buffer_has_no_violation(self, somos5_buffer):
        assert first_recurrence_violation(somos5_buffer(200), somos5_spec()) is None

    def test_perturbed_term_detected(self, somos5_values):
        values = list(somos5_values[:50])
        values[20] += 1
        index = first_recurrence_violation(SequenceBuffer(values), somos5_spec())
        assert index is not None
        # a_20 first appears on the right-hand side of the identity at n = 21
        assert 20 <= index <= 25

    def test_partial_buffer_checked_from_first_covered_index(self, somos5_values):
        buffer = SequenceBuffer(list(somos5_values[3:40]), start_index=3)
        assert first_recurrence_violation(buffer, somos5_spec()) is None

    def test_somos4_terms_violate_somos5_at_6(self):
        # a_6 a_1 = 7, against a_5 a_2 + a_4 a_3 = 5.
        buffer = generate(somos_k_spec(4), 40)
        assert first_recurrence_violation(buffer, somos5_spec()) == 6


def _exact(buffer, spec, n) -> bool:
    """The identity at n by the exact comparison of its two sides: the oracle."""
    lhs, rhs = _sides(buffer.window(n, spec.order), spec)
    return lhs == rhs


def _bound(t, spec) -> int:
    """max(bits(x) + bits(y) over the k + 1 products) + bits(#summands) + 1."""
    widest = max(
        t[i].bit_length() + t[j].bit_length() for i, j in ((0, spec.order), *spec.summands)
    )
    return widest + len(spec.summands).bit_length() + 1


def _is_prime(p) -> bool:
    return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))


class TestResidueIdentity:
    """Past engine._RESIDUE_LIMIT, a walk's identities are decided by residues
    modulo M_i = 2^{p_i} - 1; each is compared with the exact comparison of
    engine._sides."""

    @staticmethod
    def walk(buffer, spec):
        """Each covered identity through one store, in walk order, and by the oracle."""
        store = {}
        covered = range(window_start(buffer.start_index, spec.order), buffer.next_index)
        return [_identity(buffer, spec, n, store) for n in covered], [
            _exact(buffer, spec, n) for n in covered
        ]

    @staticmethod
    def _decided(monkeypatch):
        # The indices decided by residues, in order.
        decided = []
        residue = somos.engine._residue_identity
        monkeypatch.setattr(
            somos.engine,
            "_residue_identity",
            lambda t, spec, n, *rest: decided.append(n) or residue(t, spec, n, *rest),
        )
        return decided

    def test_the_identity_holds_everywhere_on_somos5_to_1000(self, monkeypatch):
        spec = somos5_spec()
        buffer = SequenceBuffer([v.numerator for v in somos_terms(5, 1000)])
        decided = self._decided(monkeypatch)
        assert first_recurrence_violation(buffer, spec) is None
        assert all(_exact(buffer, spec, n) for n in range(5, 1000))
        first = next(n for n in range(5, 1000) if _bound(buffer.window(n, 5), spec) >= _RESIDUE_LIMIT)
        assert 5 < first < 1000 and decided == list(range(first, 1000))

    def test_integral_fractions_are_decided_by_residues(self, monkeypatch):
        spec = somos5_spec()
        values = somos_terms(5, 620)[580:]
        decided = self._decided(monkeypatch)
        residues, exact = self.walk(SequenceBuffer(values, start_index=580), spec)
        assert residues == exact == [True] * 35
        assert decided == list(range(585, 620))

    @pytest.mark.parametrize(
        "mutate",
        [
            pytest.param(lambda v: v + 1, id="plus-one"),
            pytest.param(lambda v: -v, id="sign-flip"),
            pytest.param(lambda v: 0, id="zero"),
            pytest.param(lambda v: Fraction(3 * v + 1, 3), id="fraction"),
        ],
    )
    def test_a_mutant_past_the_crossover_fails_at_the_same_index(self, mutate):
        spec = somos5_spec()
        values = [v.numerator for v in somos_terms(5, 620)[580:]]
        values[600 - 580] = mutate(values[600 - 580])
        buffer = SequenceBuffer(values, start_index=580)
        assert _bound(buffer.window(585, 5), spec) >= _RESIDUE_LIMIT
        residues, exact = self.walk(buffer, spec)
        assert residues == exact
        assert 585 + exact.index(False) == 600
        assert first_recurrence_violation(buffer, spec) == 600

    def test_a_multiple_of_every_modulus_but_the_last_fails(self):
        # a_5 a_0 - (a_4 a_1 + a_3 a_2) = q, the product of every modulus the
        # bound chooses but the last, which q is coprime to.
        spec = somos5_spec()
        exponents = _mersenne_exponents(2 * _RESIDUE_LIMIT)
        q = 1
        for p in exponents[:-1]:
            q *= (1 << p) - 1
        buffer = SequenceBuffer([1, 11, 5, 3, 2, 2 * 11 + 3 * 5 + q])
        t = buffer.window(5, 5)
        assert _mersenne_exponents(_bound(t, spec)) == exponents
        assert _bound(t, spec) >= _RESIDUE_LIMIT
        difference = t[0] * t[5] - (t[1] * t[4] + t[2] * t[3])
        assert [difference % ((1 << p) - 1) == 0 for p in exponents] == [True] * (
            len(exponents) - 1
        ) + [False]
        assert _identity(buffer, spec, 5, {}) is False
        assert not _exact(buffer, spec, 5)

    def test_the_exponents_are_the_fewest_distinct_primes_that_cover_the_bound(self):
        terms = [v.numerator for v in somos_terms(5, 1000)]
        walk = {_bound(tuple(terms[n - d] for d in range(6)), somos5_spec()) for n in range(5, 1000)}
        primes = [p for p in range(3001, 8000) if _is_prime(p)]
        for bound in sorted(walk | {1, 2999, 3000, 3001, 6010, 6011, _RESIDUE_LIMIT, 10**6}):
            exponents = _mersenne_exponents(bound)
            assert list(exponents) == primes[: len(exponents)]
            assert sum(p - 1 for p in exponents) >= bound > sum(p - 1 for p in exponents[:-1])
        assert primes[0] == 3001 and len(_mersenne_exponents(10**6)) > 64
        moduli = [(1 << p) - 1 for p in primes[:12]]
        assert all(gcd(a, b) == 1 for i, a in enumerate(moduli) for b in moduli[i + 1 :])

    @settings(deadline=None, max_examples=200)
    @given(
        x=st.integers(min_value=-(2**20000), max_value=2**20000),
        p=st.sampled_from([1, 2, 3, 61, 3001, 3011]),
    )
    @example(x=0, p=3001)
    @example(x=(1 << 3001) - 1, p=3001)
    @example(x=-((1 << 3001) - 1), p=3001)
    @example(x=((1 << 3001) - 1) * (1 << 9000), p=3001)
    @example(x=(1 << 6002) - 1, p=3001)
    @example(x=1 << 6002, p=3001)
    def test_the_residue_is_the_remainder(self, x, p):
        assert _mersenne_residue(x, p) == x % ((1 << p) - 1)

    def test_the_store_keeps_the_window_and_never_lends_a_residue(self):
        spec = somos5_spec()
        values = [v.numerator for v in somos_terms(5, 620)[580:]]
        buffer = SequenceBuffer(values, start_index=580)
        store = {}
        assert all(_identity(buffer, spec, n, store) for n in range(585, 620))
        assert sorted(store) == list(range(614, 620))
        values[619 - 580] += 1
        assert _identity(SequenceBuffer(values, start_index=580), spec, 619, store) is False


def digits(value) -> int:
    """Number of decimal digits to_decimal prints for |value|."""
    return len(to_decimal(value).lstrip("-"))


class TestDigitCount:
    @pytest.mark.parametrize(
        "value,expected",
        [(274, 3), (1, 1), (0, 1), (-6161, 4), (9, 1), (10, 2), (999, 3), (1000, 4)],
    )
    def test_examples(self, value, expected):
        assert digits(value) == expected

    def test_power_of_ten_boundaries(self):
        # 5000 is past the default 4300-digit int->str limit of Python 3.11+.
        for exponent in (5, 50, 500, 5000):
            assert digits(10**exponent - 1) == exponent
            assert digits(10**exponent) == exponent + 1

    @given(st.integers(min_value=-(10**60), max_value=10**60))
    def test_matches_string_length(self, value):
        assert digits(value) == len(str(abs(value)))

    def test_monotone_along_somos5(self, somos5_values):
        counts = [digits(v) for v in somos5_values[:101]]
        assert counts[100] >= counts[99]
        assert counts == sorted(counts)

    def test_fraction_terms(self):
        assert digits(as_integer(Fraction(274))) == 3
        with pytest.raises(ValueError):
            as_integer(Fraction(1, 2))


# 5001 digits: past the default 4300-digit int->str limit of Python 3.11+.
HUGE = 10**5000 + 7


class TestDigitSafeText:
    """Witness text prints every integer in full through to_decimal."""

    def test_small_values_print_in_full(self):
        event = NonIntegralEvent(8, 17, -7, 3)
        assert repr(event) == "NonIntegralEvent(index=8, numerator=17, denominator=-7, remainder=3)"
        assert str(NonIntegralTermError(event, SequenceBuffer([1]))) == (
            "non-integral term at index 8: remainder 3 dividing by a[8-k]"
        )

    def test_event_repr(self, digit_limit):
        event = NonIntegralEvent(900, 3 * HUGE + 1, -HUGE, 1 + HUGE // 2)
        assert repr(event) == (
            f"NonIntegralEvent(index=900, numerator=3{'0' * 4998}22, "
            f"denominator=-1{'0' * 4999}7, remainder=5{'0' * 4998}4)"
        )

    def test_error_message(self, digit_limit):
        event = NonIntegralEvent(900, 3 * HUGE + 1, 2 * HUGE, HUGE + 1)
        error = NonIntegralTermError(event, SequenceBuffer([1]))
        assert str(error) == (
            f"non-integral term at index 900: remainder 1{'0' * 4999}8 dividing by a[900-k]"
        )
        assert error.event is event

    @pytest.mark.parametrize("where", ["certificate", "bfile"])
    def test_non_integral_term_prints_in_full(self, digit_limit, where):
        # A fraction whose numerator is past the limit is refused as a term
        # with its exact digits, not with the interpreter's int->str error.
        if where == "certificate":
            values = generate(somos5_spec(), 595).values()
            values[590] = term = Fraction(3 * values[590] + 1, 3)  # a_{n-5} at n = 595
            refuse = lambda: build_certificate(SequenceBuffer(values), 595)
        else:
            term = Fraction(3**10000, 2)
            refuse = lambda: emit_bfile(SequenceBuffer([1, term]))
        assert len(to_decimal(term.numerator)) > 4300
        with pytest.raises(ValueError) as excinfo:
            refuse()
        assert str(excinfo.value) == (
            f"term {to_decimal(term.numerator)}/{to_decimal(term.denominator)} is not an integer"
        )


class TestRecurrenceIdentityProperty:
    @settings(deadline=None, max_examples=30)
    @given(
        k=st.integers(min_value=4, max_value=7),
        count=st.integers(min_value=10, max_value=40),
    )
    def test_exact_identity_over_generated_prefix(self, k, count):
        spec = somos_k_spec(k)
        buffer = generate(spec, count, RATIONAL)
        for n in range(k, buffer.next_index):
            lhs = buffer.term(n) * buffer.term(n - k)
            rhs = sum(buffer.term(n - i) * buffer.term(n - j) for i, j in spec.summands)
            assert lhs - rhs == 0


def test_as_integer():
    assert as_integer(7) == 7
    assert as_integer(Fraction(7)) == 7
    with pytest.raises(ValueError):
        as_integer(Fraction(7, 2))


def test_one_somos_k_spec():
    assert somos5_spec() == somos_k_spec(5) and somos5_spec().name == "somos-5"
    assert somos.engine.somos_k_spec is somos_k_spec
