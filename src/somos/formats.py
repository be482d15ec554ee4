"""OEIS b-files, a stable JSON report schema and the CLI's text lines.

All arithmetic payloads (term values, gcds, residues) are rendered as
decimal strings so no JSON consumer can lose precision; structural
fields (indices, counts, offsets) stay plain numbers.  Emission is
deterministic: fixed key order, no timestamps, byte-identical output for
identical inputs.  The schema carries a version field, currently "1".
Each result type has one JSON form and one text form, laid out here
side by side.
"""

from __future__ import annotations

import json

from .bigint import _INT_FIELD, from_decimal, term_text, to_decimal
from .certificate import DivisibilityCertificate
from .coprime import LemmaHarnessReport, VerificationReport
from .engine import NonIntegralEvent, SequenceBuffer, SequenceSpec, as_integer
from .errors import GapError, ParseError
from .scanner import BreakdownReport, NoncoprimeWitness

SCHEMA_VERSION = "1"


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


def emit_report_text(report) -> str:
    """Render any report/certificate type as the lines the CLI prints."""
    if isinstance(report, DivisibilityCertificate):
        status = "valid" if report.valid else "INVALID"
        return (
            f"certificate n = {report.index}: {status} "
            f"(precondition gcd {to_decimal(report.precondition_gcd)}, "
            f"residue {to_decimal(report.numerator_residue)})"
        )
    if isinstance(report, VerificationReport):
        status = "pass" if report.passed else "FAIL"
        line = f"{report.check} over n in [{report.start}, {report.stop}): {report.checked} checked, {status}"
        if not report.passed:
            line += f"; first failure at n = {report.first_failure_index} ({report.first_failure_reason})"
        return line
    if isinstance(report, NonIntegralEvent):
        return (
            f"non-integral term at index {report.index}: "
            f"numerator {to_decimal(report.numerator)}, "
            f"denominator {to_decimal(report.denominator)}, "
            f"remainder {to_decimal(report.remainder)}"
        )
    if isinstance(report, BreakdownReport):
        lines = [f"scanned {report.spec.name} for {report.terms_checked} terms"]
        event = report.first_nonintegral
        lines.append("all terms integral" if event is None else emit_report_text(event))
        witness = report.first_noncoprime
        if report.depth is not None and witness is None:
            lines.append(f"no common factors up to depth {report.depth}")
        elif report.depth is not None:
            lines.append(
                f"first common factor at index {witness.index}, offset {witness.offset}: "
                f"gcd = {to_decimal(witness.gcd)}"
            )
        return "\n".join(lines)
    if isinstance(report, LemmaHarnessReport):
        return "\n".join(
            f"{r.lemma}: {r.samples} samples, {r.failures} counterexamples" for r in report.results
        )
    raise TypeError(f"no text form for {type(report).__name__}")


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
