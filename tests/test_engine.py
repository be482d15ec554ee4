from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    somos5_spec,
    somos_k_spec,
)
from somos.bigint import _DIV_LIMIT
from somos.cli import main
from somos.engine import _divmod, _fractional_step, _identity
from somos.formats import parse_bfile, to_decimal

from helpers import SOMOS_SUMMANDS, first_fractional_index, fraction_terms

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
        spec = SequenceSpec(order=5, summands=((1, 3),), initials=(1,) * 5)
        with pytest.raises(InvalidSpecError):
            new_state(spec)

    def test_duplicate_summand(self):
        spec = SequenceSpec(order=5, summands=((1, 4), (1, 4)), initials=(1,) * 5)
        with pytest.raises(InvalidSpecError):
            spec.validate()

    def test_wrong_initials_length(self):
        spec = SequenceSpec(order=5, summands=((1, 4),), initials=(1, 1, 1))
        with pytest.raises(InvalidSpecError):
            spec.validate()

    def test_empty_summands(self):
        spec = SequenceSpec(order=5, summands=(), initials=(1,) * 5)
        with pytest.raises(InvalidSpecError):
            spec.validate()

    def test_summand_order_flipped(self):
        spec = SequenceSpec(order=5, summands=((4, 1),), initials=(1,) * 5)
        with pytest.raises(InvalidSpecError):
            spec.validate()

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
        oracle = fraction_terms(8, SOMOS_SUMMANDS[8], 40)
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

    @pytest.mark.parametrize("a", [0, 1, -5, 1 << 10_000, -(1 << 10_000)])
    def test_zero_divisor(self, a):
        with pytest.raises(ZeroDivisionError):
            _divmod(a, 0)


class TestGenerate:
    def test_first_twelve_terms(self):
        assert generate(somos5_spec(), 12).values() == FIRST_TWELVE

    def test_initials_only(self):
        assert generate(somos5_spec(), 5).values() == [1] * 5

    def test_fourteen_terms_end_at_6161(self):
        buffer = generate(somos5_spec(), 14)
        assert buffer.term(13) == 6161
        oracle = fraction_terms(5, SOMOS_SUMMANDS[5], 14)
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
        oracle_failing = first_fractional_index(fraction_terms(8, SOMOS_SUMMANDS[8], 40))
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
        oracle = fraction_terms(8, SOMOS_SUMMANDS[8], 25)
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
        oracle = fraction_terms(k, SOMOS_SUMMANDS[k], count)
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
    def test_has_range(self):
        buffer = SequenceBuffer([1, 2, 3], start_index=7)
        assert buffer.has_range(7, 9)
        assert not buffer.has_range(6, 9)
        assert not buffer.has_range(7, 10)

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

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_generate_records_every_identity(self, k):
        spec = somos_k_spec(k)
        buffer = generate(spec, 300, INTEGER, record=True)
        assert sorted(buffer.identity_holds) == list(range(k, 300))
        for n, holds in buffer.identity_holds.items():
            assert holds == _identity(buffer, spec, n)

    def test_rational_steps_record_only_integral_windows(self):
        spec = somos_k_spec(8)
        buffer = generate(spec, 30, RATIONAL, record=True)
        integral = [
            n
            for n in range(8, 30)
            if all(buffer.term(n - i).denominator == 1 for i in range(1, 9))
        ]
        assert integral != list(range(8, 30))  # some windows hold fractions
        assert sorted(buffer.identity_holds) == integral
        for n, holds in buffer.identity_holds.items():
            assert holds is True and _identity(buffer, spec, n)

    def test_recorded_facts_are_read_and_the_rest_evaluated(self, somos5_values):
        spec = somos5_spec()

        def recorded(buffer, identity_holds):
            buffer.identity_holds, buffer.recurrence = identity_holds, spec.summands
            return buffer

        clean = recorded(SequenceBuffer(list(somos5_values[:50])), {30: False})
        assert first_recurrence_violation(clean, spec) == 30
        values = list(somos5_values[:50])
        values[45] += 1
        # a_45 enters the identities at n = 45..49; those up to 46 read True.
        corrupted = recorded(SequenceBuffer(values), {n: True for n in range(5, 47)})
        assert first_recurrence_violation(corrupted, spec) == 47
        assert first_recurrence_violation(recorded(SequenceBuffer(values), {}), spec) == 45

    def test_a_record_is_read_only_for_its_own_recurrence(self):
        # Somos-4's record, which holds every n >= 4, says nothing about the
        # Somos-5 identity over its terms.
        buffer = generate(somos_k_spec(4), 40, record=True)
        bare = SequenceBuffer(buffer.values())
        assert buffer.recorded(somos_k_spec(4)) is buffer.identity_holds
        assert buffer.recorded(somos5_spec()) is None
        # a_6 a_1 = 7, against a_5 a_2 + a_4 a_3 = 5.
        assert first_recurrence_violation(buffer, somos5_spec()) == 6
        assert first_recurrence_violation(bare, somos5_spec()) == 6
        # Stepping another recurrence adds nothing to the record.
        recorded = dict(buffer.identity_holds)
        next_term(buffer, somos5_spec(), RATIONAL)
        assert buffer.identity_holds == recorded


class TestIdentityRecord:
    """Only generate(..., record=True) makes a buffer that keeps the record."""

    def test_other_buffers_carry_no_record(self, somos5_values):
        spec = somos5_spec()
        for buffer in (
            SequenceBuffer(somos5_values[:40]),
            generate(spec, 40),
            parse_bfile("".join(f"{n} {v}\n" for n, v in enumerate(somos5_values[:40]))),
        ):
            assert buffer.identity_holds is None and buffer.recorded(spec) is None
        assert generate(spec, 40, record=True).recorded(spec) == {n: True for n in range(5, 40)}

    def test_below_drops_the_record(self):
        spec = somos5_spec()
        buffer = generate(spec, 40, record=True)
        assert buffer.below(None) is buffer
        for count in (0, 3, 20, 40, 60):
            bounded = buffer.below(count)
            assert bounded.identity_holds is None and bounded.recorded(spec) is None
            assert bounded.values() == buffer.values()[:count]


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
