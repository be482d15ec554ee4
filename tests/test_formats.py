from __future__ import annotations

import hashlib
import json
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import somos.bigint
from somos import (
    GapError,
    ParseError,
    SequenceBuffer,
    build_certificate,
    emit_bfile,
    emit_report_json,
    emit_terms_json,
    generate,
    parse_bfile,
    run_lemma_harness,
    scan_coprimality,
    scan_integrality,
    somos5_spec,
    somos_k_spec,
    verify_coprime_range,
)
from somos.bigint import _LEAF_DIGITS
from somos.formats import emit_report_text, from_decimal, term_text, to_decimal

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "b006721.txt"
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


class TestParseBFile:
    def test_known_prefix(self):
        buffer = parse_bfile("0 1\n1 1\n2 1\n3 1\n4 1\n5 2\n")
        assert (buffer.start_index, buffer.values()) == (0, [1, 1, 1, 1, 1, 2])

    def test_comments_and_blanks_skipped(self):
        buffer = parse_bfile("# comment\n0 1\n")
        assert (buffer.start_index, buffer.values()) == (0, [1])
        empty = parse_bfile("\n\n# only noise\n")
        assert (empty.start_index, empty.values()) == (0, [])

    def test_gap_is_an_error(self):
        with pytest.raises(GapError) as excinfo:
            parse_bfile("0 1\n2 1\n")
        assert excinfo.value.line_no == 2
        assert excinfo.value.expected == 1
        assert excinfo.value.found == 2

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ParseError) as excinfo:
            parse_bfile("0 1\n1 one\n")
        assert excinfo.value.line_no == 2
        with pytest.raises(ParseError):
            parse_bfile("0\n")
        with pytest.raises(ParseError):
            parse_bfile("0 1 2\n")

    @pytest.mark.parametrize(
        "line", ["0 1_000", "0 1_" + "0" * 5000, "0 12x", "0 ١", "x 1", "1_0 1"]
    )
    def test_malformed_field_of_any_length_is_a_parse_error(self, line):
        with pytest.raises(ParseError) as excinfo:
            parse_bfile("# header\n" + line + "\n")
        assert excinfo.value.line_no == 2
        assert str(excinfo.value) == f"line 2: expected '<index> <value>', got {line!r}"

    def test_negative_values_and_offset_start(self):
        buffer = parse_bfile("3 -7\n4 9\n")
        assert (buffer.start_index, buffer.values()) == (3, [-7, 9])
        buffer = parse_bfile("-2 5\n-1 6\n0 7\n")
        assert (buffer.start_index, buffer.values()) == (-2, [5, 6, 7])

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int<->str digit limit"
    )
    def test_index_past_the_digit_limit_is_a_parse_error(self):
        line = "1" * 5000 + " 1"
        with digit_limit(4300), pytest.raises(ParseError) as excinfo:
            parse_bfile("0 1\n" + line + "\n")
        assert str(excinfo.value) == f"line 2: expected '<index> <value>', got {line!r}"


class TestEmitBFile:
    def test_twelve_terms(self):
        text = emit_bfile(generate(somos5_spec(), 12))
        lines = text.splitlines()
        assert len(lines) == 12
        assert lines[-1] == "11 274"
        assert text.endswith("274\n")

    def test_initials_only(self):
        assert emit_bfile(generate(somos5_spec(), 5)).splitlines() == [f"{i} 1" for i in range(5)]

    def test_round_trip_reproduces_buffer(self):
        buffer = generate(somos5_spec(), 40)
        parsed = parse_bfile(emit_bfile(buffer))
        assert parsed.values() == buffer.values()
        assert parsed.start_index == buffer.start_index

    @pytest.mark.parametrize(
        "count, start, indices",
        [
            (None, 3, [3, 4, 5, 6]),
            (9, 3, [3, 4, 5, 6]),
            (5, 3, [3, 4]),
            (3, 3, []),
            (1, 1, []),
            (0, 0, []),
        ],
    )
    def test_count_bounds_the_indices(self, count, start, indices):
        buffer = parse_bfile("3 30\n4 40\n5 50\n6 60\n").below(count)
        assert buffer.start_index == start
        assert [i for i, _ in buffer.items()] == indices
        assert buffer.values() == [10 * i for i in indices]

    def test_emit_parse_emit_is_identity_on_fixture(self):
        text = FIXTURE.read_text(encoding="utf-8")
        assert emit_bfile(parse_bfile(text)) == text

    def test_fractional_term_rejected(self):
        buffer = SequenceBuffer([1, Fraction(1, 2)])
        with pytest.raises(ValueError):
            emit_bfile(buffer)

    @given(
        st.lists(st.integers(min_value=-(10**30), max_value=10**30), max_size=30),
        st.integers(min_value=-(10**6), max_value=10**6),
    )
    def test_round_trip_random_values(self, values, start):
        parsed = parse_bfile(emit_bfile(SequenceBuffer(values, start_index=start)))
        assert parsed.values() == values
        assert parsed.start_index == (start if values else 0)

    def test_round_trip_ten_thousand_digit_values(self):
        rng = random.Random(12345)
        for _ in range(5):
            value = rng.randrange(10**9999, 10**10000)
            parsed = parse_bfile(emit_bfile(SequenceBuffer([value, -value])))
            assert (parsed.start_index, parsed.values()) == (0, [value, -value])
            assert from_decimal(to_decimal(value)) == value


@contextmanager
def digit_limit(limit):
    """Run the body under the given int<->str digit limit (0 lifts it).

    Interpreters without sys.set_int_max_str_digits run the body unchanged.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


# Values at the leaf seams of the conversions (600 and 1,200 digits),
# around the default 4,300-digit limit, around 10,000 digits (33,000
# bits), and the smallest edge cases.
EDGE_VALUES = [0, 1, -1] + [
    value
    for exponent in (4299, 4300, 4301, 9933, 9934, 9935)
    for value in (10**exponent, 10**exponent - 1, -(10**exponent))
] + [10**599, -(10**599), 10**600 - 1, 10**600, 10**1200, 10**1200 + 1] + [
    2**32999 - 1, 2**32999, 2**33000, -(2**32999)
]


def _random_integer(bits, seed, sign):
    return sign * random.Random(seed).getrandbits(bits)


# Up to 300k bits (about 90k digits), past the largest term Somos-8
# reaches in 54 rational steps.
INTEGERS = st.builds(
    _random_integer,
    st.integers(min_value=0, max_value=300_000),
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([1, -1]),
)


def assert_exact_under_any_digit_limit(value):
    with digit_limit(0):
        expected = str(value)
    # 640 is the smallest nonzero limit; 4300 is the default.
    for limit in (0, 640, 4300):
        with digit_limit(limit):
            assert to_decimal(value) == expected
            assert from_decimal(expected) == value


class TestDecimalHelpers:
    def test_round_trip(self):
        for value in (0, 1, -1, 10**100, -(10**100)):
            assert from_decimal(to_decimal(value)) == value

    @settings(deadline=None, max_examples=40)
    @given(INTEGERS)
    def test_random_values_under_any_digit_limit(self, value):
        assert_exact_under_any_digit_limit(value)

    @pytest.mark.parametrize(
        "value", EDGE_VALUES, ids=lambda v: f"{'-' if v < 0 else ''}{v.bit_length()}-bit"
    )
    def test_edge_values_under_any_digit_limit(self, value):
        assert_exact_under_any_digit_limit(value)

    def test_process_digit_limit_is_never_touched(self, monkeypatch):
        value = random.Random(85119).randrange(10**85118, 10**85119)
        with digit_limit(0):
            expected = str(value)

        def refuse(limit):
            raise AssertionError("the process-wide digit limit was changed")

        with digit_limit(4300), monkeypatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
            assert to_decimal(value) == expected
            assert to_decimal(-value) == "-" + expected
            assert from_decimal(expected) == value
            assert from_decimal("-" + expected) == -value

    def test_builtins_see_only_leaves(self, monkeypatch):
        # With the limit lifted, str() and int() would take any value in
        # quadratic time; the conversions hand them leaves of at most
        # _LEAF_DIGITS digits at every size all the same.
        rng = random.Random(300_000)
        values = [10**599, 10**600 - 1, 10**600, 10**1200, 10**1200 + 1] + [
            rng.getrandbits(bits) | 1 << (bits - 1)
            for bits in (1_990, 1_994, 3_987, 14_000, 33_000, 100_000, 300_000)
        ]
        with digit_limit(0):
            expected = {value: str(value) for value in values}
            leaves = []

            def str_leaf(value):
                text = str(value)
                leaves.append(text)
                return text

            def int_leaf(text):
                leaves.append(text)
                return int(text)

            monkeypatch.setattr(somos.bigint, "str", str_leaf, raising=False)
            monkeypatch.setattr(somos.bigint, "int", int_leaf, raising=False)
            for value, text in expected.items():
                assert to_decimal(value) == text and from_decimal(text) == value
                assert to_decimal(-value) == "-" + text and from_decimal("-" + text) == -value
        assert leaves and max(len(leaf.lstrip("+-")) for leaf in leaves) <= _LEAF_DIGITS

    def test_malformed_decimal_raises(self):
        with pytest.raises(ValueError):
            from_decimal("12x")

    @pytest.mark.parametrize(
        "text", ["1_000", "1_" + "0" * 5000, "", "+", "- 1", "1.0", "0x10", "\u0661\u0662"]
    )
    def test_same_syntax_at_every_length(self, text):
        # int() alone would take "1_000" and non-ASCII digits, but only
        # within the digit limit; every length follows the b-file syntax.
        with pytest.raises(ValueError):
            from_decimal(text)

    @pytest.mark.parametrize(
        "text, value",
        [("0", 0), ("+0", 0), ("-0", 0), ("0" * 5000, 0), ("0" * 4999 + "7", 7)],
        ids=["0", "+0", "-0", "5000-zeros", "4999-zeros-then-7"],
    )
    def test_zero_literals_under_any_digit_limit(self, text, value):
        for limit in (0, 640, 4300):
            with digit_limit(limit):
                assert from_decimal(text) == value

    def test_sign_and_surrounding_whitespace(self):
        assert from_decimal(" +42\n") == 42
        assert from_decimal("-0") == 0
        assert from_decimal("  -" + "9" * 5000) == -(10**5000 - 1)

    def test_term_text(self):
        assert term_text(274) == "274"
        assert term_text(Fraction(274)) == "274"
        assert term_text(Fraction(-3, 7)) == "-3/7"


class TestReportJson:
    def test_certificate_payload_at_10(self, somos5_buffer):
        cert = build_certificate(somos5_buffer(12), 10)
        payload = json.loads(emit_report_json(cert))
        assert payload["schema_version"] == "1"
        assert payload["kind"] == "divisibility_certificate"
        assert payload["valid"] is True
        assert payload["index"] == 10
        assert payload["numerator_residue"] == "0"
        assert payload["modulus"] == "2"
        assert payload["precondition_gcd"] == "1"
        assert [step["value"] for step in payload["chain"]] == [
            "166", "166", "166", "70", "70", "30", "30", "30",
        ]
        assert payload["chain"][3]["kind"] == "drop-multiple"
        assert payload["chain"][3]["dropped_multiple"] == "96"
        assert [s["shift"] for s in payload["shifts"]] == [5, 4, 3, 2, 1]

    def test_breakdown_report_nulls_when_clean(self):
        report = scan_integrality(somos5_spec(), 50)
        payload = json.loads(emit_report_json(report))
        assert payload["kind"] == "breakdown_report"
        assert payload["first_nonintegral"] is None
        assert payload["first_noncoprime"] is None
        assert payload["spec"]["order"] == 5
        assert payload["spec"]["initials"] == ["1"] * 5

    def test_breakdown_report_with_witness(self):
        report = scan_integrality(somos_k_spec(8), 60)
        payload = json.loads(emit_report_json(report))
        event = payload["first_nonintegral"]
        assert isinstance(event["index"], int)
        # arithmetic payloads are decimal strings, never JSON numbers
        assert isinstance(event["numerator"], str)
        assert isinstance(event["denominator"], str)
        assert isinstance(event["remainder"], str)

    def test_verification_report_payload(self, somos5_buffer):
        report = verify_coprime_range(somos5_buffer(50), depth=4)
        payload = json.loads(emit_report_json(report))
        assert payload["kind"] == "verification_report"
        assert payload["passed"] is True
        assert payload["first_failure_index"] is None

    def test_lemma_harness_payload(self):
        report = run_lemma_harness(seed=3, samples=50)
        payload = json.loads(emit_report_json(report))
        assert payload["kind"] == "lemma_harness_report"
        assert payload["seed"] == 3
        assert payload["passed"] is True
        assert [r["lemma"] for r in payload["results"]] == [
            "product", "pairwise", "shift", "cancellation",
        ]

    def test_emission_is_deterministic(self, somos5_buffer):
        cert = build_certificate(somos5_buffer(30), 20)
        assert emit_report_json(cert) == emit_report_json(cert)
        report = run_lemma_harness(seed=1, samples=20)
        again = run_lemma_harness(seed=1, samples=20)
        assert emit_report_json(report) == emit_report_json(again)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            emit_report_json(object())

    def test_terms_json(self):
        payload = json.loads(emit_terms_json(generate(somos5_spec(), 12), name="somos-5"))
        assert payload["kind"] == "terms"
        assert payload["terms"][-1] == "274"
        assert payload["start_index"] == 0


# One document of each kind, built fresh for each parametrized case.
DOCUMENTS = {
    "terms": lambda: emit_terms_json(generate(somos5_spec(), 12), name="somos-5"),
    "verification_report": lambda: emit_report_json(
        verify_coprime_range(generate(somos5_spec(), 30), depth=4)
    ),
    "non_integral_event": lambda: emit_report_json(
        scan_integrality(somos_k_spec(8), 30).first_nonintegral
    ),
    "breakdown_report": lambda: emit_report_json(scan_coprimality(somos_k_spec(7), 30)),
    "lemma_harness_report": lambda: emit_report_json(run_lemma_harness(seed=1, samples=5)),
    "divisibility_certificate": lambda: emit_report_json(
        build_certificate(generate(somos5_spec(), 12), 10)
    ),
}


@pytest.mark.parametrize("kind", DOCUMENTS)
def test_every_document_opens_with_its_envelope(kind):
    document = json.loads(DOCUMENTS[kind]())
    assert list(document.items())[:2] == [("schema_version", "1"), ("kind", kind)]


class TestReportText:
    def test_invalid_certificate_line(self, somos5_values):
        values = list(somos5_values[:12])
        values[9] = 36
        cert = build_certificate(SequenceBuffer(values), 10)
        assert emit_report_text(cert) == (
            "certificate n = 10: INVALID (precondition gcd 1, residue 1)"
        )

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            emit_report_text(object())


def test_certificates_and_bfile_match_the_reference_digests():
    """What `certify --index N --format json` prints for each pinned N, and
    what `generate --count 700 --format bfile` writes, byte for byte."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    buffer = generate(somos5_spec(), 450)
    expected = reference["certify_index_json"]
    assert len(expected) == 50
    for key, sha in expected.items():
        n = int(key)
        assert digest(emit_report_json(build_certificate(buffer.below(n), n)) + "\n") == sha, n
    assert digest(emit_bfile(generate(somos5_spec(), 700))) == reference["bfile_700"]
