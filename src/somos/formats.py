"""OEIS b-file parsing/emission and a stable JSON report schema.

All arithmetic payloads (term values, gcds, residues) are rendered as
decimal strings so no JSON consumer can lose precision; structural
fields (indices, counts, offsets) stay plain numbers.  Emission is
deterministic: fixed key order, no timestamps, byte-identical output for
identical inputs.  The schema carries a version field, currently "1".
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .certificate import DivisibilityCertificate
from .coprime import LemmaHarnessReport, VerificationReport
from .engine import NonIntegralEvent, SequenceBuffer, SequenceSpec, _divmod, as_integer
from .errors import GapError, ParseError
from .scanner import BreakdownReport, NoncoprimeWitness

SCHEMA_VERSION = "1"

_INT_FIELD = re.compile(r"[+-]?[0-9]+")


# Leaf size, in decimal digits, of the divide-and-conquer conversions.  It
# is below 640, the smallest nonzero int<->str digit limit the interpreter
# accepts, so no str() or int() on a leaf can trip that limit.
_LEAF_DIGITS = 600


def to_decimal(value: int) -> str:
    """Exact decimal string of an integer of any size.

    str() handles what the interpreter's int-to-str digit limit allows;
    past it, a divide-and-conquer conversion takes over.  Touches no
    process-wide state, so it is safe to call from any thread.
    """
    try:
        return str(value)
    except ValueError:  # past the digit limit
        digits = _int_to_digits(abs(value))
        return "-" + digits if value < 0 else digits


def from_decimal(text: str) -> int:
    """Parse a decimal literal of any length: optional sign, ASCII digits.

    Surrounding whitespace is ignored; anything else, underscores
    included, raises ValueError.  Like to_decimal, it falls back to a
    divide-and-conquer conversion past the digit limit and is thread-safe.
    """
    literal = text.strip()
    if not _INT_FIELD.fullmatch(literal):
        raise ValueError(f"invalid decimal literal: {text!r}")
    try:
        return int(literal)
    except ValueError:  # past the digit limit
        value = _digits_to_int(literal.lstrip("+-"))
        return -value if literal[0] == "-" else value


def _powers_of_five():
    """The function w -> 5**w, memoized for the life of the function."""
    powers = {}

    def power_of_five(w):
        result = powers.get(w)
        if result is None:
            if w <= _LEAF_DIGITS:
                result = 5**w
            elif w - 1 in powers:
                result = powers[w - 1] * 5
            else:
                # Smaller half first, so that the larger is often w-1 of it.
                result = power_of_five(w >> 1) * power_of_five(w - (w >> 1))
            powers[w] = result
        return result

    return power_of_five


def _int_to_digits(value: int) -> str:
    """Decimal digits of an integer value >= 0, by divide and conquer.

    value = hi * 10**d + lo, where d is half the width in digits.  Since
    10**d = 5**d * 2**d, hi and lo come from one engine._divmod of
    value >> d by 5**d, with the powers of five memoized for the call.
    Leaves of at most _LEAF_DIGITS digits go through str() and are padded
    to their width with zfill.
    """
    power_of_five = _powers_of_five()

    def convert(n, w):  # n < 10**w; exactly w digits
        if w <= _LEAF_DIGITS:
            return str(n).zfill(w)
        d = w >> 1
        hi, rest = _divmod(n >> d, power_of_five(d))
        return convert(hi, w - d) + convert(rest << d | n & ((1 << d) - 1), d)

    # 30103/100000 > log10(2), so value < 2**bits <= 10**width.
    width = value.bit_length() * 30103 // 100000 + 1
    return convert(value, width).lstrip("0")


def _digits_to_int(digits: str) -> int:
    """Integer value of a string of ASCII digits, by divide and conquer.

    After CPython 3.12's Lib/_pylong.py: value = hi * 10**d + lo, where d
    is the length of the low half and hi * 10**d is formed as
    (hi * 5**d) << d, with the powers of five memoized for the call.
    Leaves of at most _LEAF_DIGITS go through int().
    """
    power_of_five = _powers_of_five()

    def convert(a, b):
        if b - a <= _LEAF_DIGITS:
            return int(digits[a:b])
        mid = (a + b + 1) >> 1
        return convert(mid, b) + ((convert(a, mid) * power_of_five(b - mid)) << (b - mid))

    return convert(0, len(digits))


def parse_bfile(text: str) -> SequenceBuffer:
    """Parse OEIS b-file text: '<index> <value>' lines, '#' comments, blanks.

    The buffer starts at the first line's index, or at 0 for a file with
    no entry; indices must increase by exactly 1 from line to line.
    """
    values = []
    expected = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            if len(fields) != 2 or not _INT_FIELD.fullmatch(fields[0]):
                raise ValueError
            value = from_decimal(fields[1])
            index = int(fields[0])  # ValueError past the int<->str digit limit
        except ValueError:
            raise ParseError(line_no, f"expected '<index> <value>', got {raw!r}") from None
        if expected is not None and index != expected:
            raise GapError(line_no, expected, index)
        expected = index + 1
        values.append(value)
    return SequenceBuffer(values, start_index=expected - len(values) if values else 0)


def emit_bfile(buffer: SequenceBuffer) -> str:
    """Render '<index> <value>\\n' lines; exact round trip with parse_bfile."""
    return "".join(f"{index} {to_decimal(as_integer(value))}\n" for index, value in buffer.items())


def term_text(value) -> str:
    """Decimal rendering of a term; exact fractions render as 'p/q'."""
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{to_decimal(value.numerator)}/{to_decimal(value.denominator)}"
    return to_decimal(as_integer(value))


def emit_terms_json(buffer: SequenceBuffer, name: str | None = None) -> str:
    """Versioned JSON list of a buffer's terms as exact decimal strings."""
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "terms",
        "name": name,
        "start_index": buffer.start_index,
        "terms": [term_text(value) for _, value in buffer.items()],
    }
    return json.dumps(payload, indent=2)


def emit_report_json(report) -> str:
    """Serialize any report/certificate type to its versioned JSON form."""
    return json.dumps(_payload(report), indent=2)


def _payload(report) -> dict:
    if isinstance(report, DivisibilityCertificate):
        return _certificate_payload(report)
    if isinstance(report, VerificationReport):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "verification_report",
            "check": report.check,
            "start": report.start,
            "stop": report.stop,
            "checked": report.checked,
            "passed": report.passed,
            "first_failure_index": report.first_failure_index,
            "first_failure_reason": report.first_failure_reason,
        }
    if isinstance(report, NonIntegralEvent):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "non_integral_event",
            **_event_payload(report),
        }
    if isinstance(report, BreakdownReport):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "breakdown_report",
            "spec": _spec_payload(report.spec),
            "terms_checked": report.terms_checked,
            "depth": report.depth,
            "first_nonintegral": _event_payload(report.first_nonintegral),
            "first_noncoprime": _witness_payload(report.first_noncoprime),
        }
    if isinstance(report, LemmaHarnessReport):
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "lemma_harness_report",
            "seed": report.seed,
            "samples": report.samples,
            "bound": report.bound,
            "passed": report.passed,
            "results": [
                {
                    "lemma": r.lemma,
                    "samples": r.samples,
                    "failures": r.failures,
                    "first_counterexample": None
                    if r.first_counterexample is None
                    else [to_decimal(v) for v in r.first_counterexample],
                }
                for r in report.results
            ],
        }
    raise TypeError(f"no JSON schema for {type(report).__name__}")


def _certificate_payload(certificate: DivisibilityCertificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "divisibility_certificate",
        "index": certificate.index,
        "modulus": to_decimal(certificate.modulus),
        "precondition_gcd": to_decimal(certificate.precondition_gcd),
        "shifts": [
            {
                "shift": s.shift,
                "lhs": to_decimal(s.lhs),
                "rhs": to_decimal(s.rhs),
                "holds": s.holds,
            }
            for s in certificate.shifts
        ],
        "chain": [
            {
                "step": step.step_no,
                "kind": step.kind,
                "value": to_decimal(step.value),
                "congruent_to_prev": step.congruent_to_prev,
                "verified": step.verified,
                "dropped_multiple": None
                if step.dropped_multiple is None
                else to_decimal(step.dropped_multiple),
            }
            for step in certificate.chain
        ],
        "numerator_residue": to_decimal(certificate.numerator_residue),
        "valid": certificate.valid,
    }


def _spec_payload(spec: SequenceSpec) -> dict:
    return {
        "name": spec.name,
        "order": spec.order,
        "summands": [list(pair) for pair in spec.summands],
        "initials": [to_decimal(v) for v in spec.initials],
    }


def _event_payload(event: NonIntegralEvent | None):
    if event is None:
        return None
    return {
        "index": event.index,
        "numerator": to_decimal(event.numerator),
        "denominator": to_decimal(event.denominator),
        "remainder": to_decimal(event.remainder),
    }


def _witness_payload(witness: NoncoprimeWitness | None):
    if witness is None:
        return None
    return {"index": witness.index, "offset": witness.offset, "gcd": to_decimal(witness.gcd)}
