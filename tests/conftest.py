from __future__ import annotations

import sys

import pytest

import somos.engine
from somos import (
    SequenceBuffer,
    SomosError,
    VerificationReport,
    first_recurrence_violation,
    generate,
    somos5_spec,
    verify_coprime_range,
)

SESSION_TERMS = 501


@pytest.fixture(scope="session")
def somos5_values():
    """First 501 Somos-5 terms, generated once per session."""
    return tuple(generate(somos5_spec(), SESSION_TERMS).values())


@pytest.fixture
def somos5_buffer(somos5_values):
    """Factory for fresh buffers over a Somos-5 prefix, starting at index 0."""

    def make(count: int = SESSION_TERMS) -> SequenceBuffer:
        return SequenceBuffer(list(somos5_values[:count]))

    return make


@pytest.fixture
def digit_limit():
    """The interpreter's default 4300-digit int->str limit, restored afterwards."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this interpreter has no int->str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.fixture(scope="session")
def two_stage_verify():
    """What `somos verify` reports, composed from two passes over the buffer.

    The recurrence identity is checked over every covered index first and
    wins when it fails; otherwise the windows run, each computing all its
    gcds.  Returns the report, or the type and text of what was raised.
    """

    def run(buffer, spec, depth):
        try:
            violation = first_recurrence_violation(buffer, spec)
            if violation is None:
                return verify_coprime_range(buffer, depth)
        except (ValueError, SomosError) as exc:
            return type(exc), str(exc)
        start = max(buffer.start_index + spec.order, spec.order)
        return VerificationReport(
            check="recurrence-identity",
            start=start,
            stop=buffer.next_index,
            checked=violation - start + 1,
            passed=False,
            first_failure_index=violation,
            first_failure_reason="a_n * a_{n-k} != bilinear sum",
        )

    return run


@pytest.fixture
def wrong_last_quotient(monkeypatch):
    """At the steps-th integer step, withhold the ladder's proposal and
    make that step's divmod off by one with a zero remainder, so the
    wrong quotient reaches the buffer; monkeypatch.undo() restores both."""

    def install(steps):
        proposals, pending = [], []
        propose, divmod_ = somos.engine.propose, somos.engine._divmod

        def withheld(buffer, spec, n):
            proposals.append(n)
            if len(proposals) == steps:
                pending.append(n)
                return None
            return propose(buffer, spec, n)

        def wrong(a, b):
            quotient, remainder = divmod_(a, b)
            if pending:
                pending.clear()
                return quotient + 1, 0
            return quotient, remainder

        monkeypatch.setattr(somos.engine, "propose", withheld)
        monkeypatch.setattr(somos.engine, "_divmod", wrong)

    return install
