from __future__ import annotations

from fractions import Fraction

import pytest

import somos.engine
from somos import (
    RATIONAL,
    SequenceBuffer,
    SequenceSpec,
    generate,
    next_term,
    somos5_spec,
    somos_k_spec,
)
from somos.ladder import propose

from helpers import SOMOS_SUMMANDS, fraction_terms

# The stream stride of each spec with a ladder: n = stride * j + parity.
STRIDE = {4: 1, 5: 2}


@pytest.mark.parametrize("k, count", [(5, 1000), (4, 600)])
def test_every_proposal_is_the_fraction_recursion(k, count):
    oracle = fraction_terms(k, SOMOS_SUMMANDS[k], count)
    assert all(v.denominator == 1 for v in oracle)
    buffer = SequenceBuffer([v.numerator for v in oracle])
    spec = somos_k_spec(k)
    proposed = {n: propose(buffer, spec, n) for n in range(k, count)}
    assert [n for n, value in proposed.items() if value is None] == [
        n for n in range(k, count) if n // STRIDE[k] < 4
    ]
    assert all(type(value) is int for value in proposed.values() if value is not None)
    assert {n: value for n, value in proposed.items() if value is not None} == {
        n: oracle[n] for n in range(k, count) if n // STRIDE[k] >= 4
    }


@pytest.mark.parametrize(
    "spec",
    [
        somos_k_spec(6),
        somos_k_spec(7),
        somos_k_spec(8),
        SequenceSpec(order=5, summands=SOMOS_SUMMANDS[5], initials=(1, 1, 1, 1, 2)),
    ],
    ids=["somos-6", "somos-7", "somos-8", "somos-5-other-initials"],
)
def test_no_proposal_for_another_spec(spec):
    buffer = generate(spec, 40, mode=RATIONAL)
    assert [propose(buffer, spec, n) for n in range(spec.order, 41)] == [None] * (41 - spec.order)


def _count_divisions(monkeypatch):
    divisions = []
    divide = somos.engine._divmod
    monkeypatch.setattr(somos.engine, "_divmod", lambda a, b: divisions.append(b) or divide(a, b))
    return divisions


def test_offset_buffer_has_no_proposal_and_still_divides(monkeypatch):
    spec, count = somos5_spec(), 300
    expected = generate(spec, count + 1).term(count)
    tail = SequenceBuffer(generate(spec, count).values()[count - 10 :], start_index=count - 10)
    assert propose(tail, spec, count) is None
    divisions = _count_divisions(monkeypatch)
    assert next_term(tail, spec) == expected and tail.term(count) == expected
    assert divisions == [tail.term(count - 5)]


def test_a_non_integral_half_index_term_withholds_the_proposal():
    spec = somos5_spec()
    values = generate(spec, 41).values()
    terms = values[:40]
    terms[20] = Fraction(1, 2)  # b_10 of the even stream, read for n = 40
    buffer = SequenceBuffer(terms)
    assert propose(buffer, spec, 40) is None
    assert next_term(buffer, spec) == values[40]


def test_integral_fractions_propose_an_int():
    spec = somos5_spec()
    values = generate(spec, 61).values()
    buffer = SequenceBuffer([Fraction(v) for v in values[:60]])
    assert type(propose(buffer, spec, 60)) is int
    term = next_term(buffer, spec)
    assert type(term) is int and term == values[60]


@pytest.mark.parametrize("k, count, divided", [(5, 1000, 3), (4, 600, 0)])
def test_the_ladder_leaves_only_the_first_steps_to_division(monkeypatch, k, count, divided):
    # Somos-5 divides at n = 5, 6, 7, where the stream index is below 4.
    divisions = _count_divisions(monkeypatch)
    buffer = generate(somos_k_spec(k), count, record=True)
    assert len(divisions) == divided
    assert all(buffer.identity_holds.values()) and len(buffer.identity_holds) == count - k


def test_rational_mode_takes_the_checked_proposal(monkeypatch):
    oracle = fraction_terms(5, SOMOS_SUMMANDS[5], 700)
    divisions = _count_divisions(monkeypatch)
    buffer = generate(somos5_spec(), 700, mode=RATIONAL)
    assert buffer.values() == oracle
    assert all(type(value) is Fraction for value in buffer.values()[5:])
    assert len(divisions) == 3


@pytest.mark.parametrize("k", [4, 5])
def test_a_rejected_proposal_falls_through_to_division(monkeypatch, k):
    spec, count = somos_k_spec(k), 300
    clean = generate(spec, count, record=True)
    proposals, rejected, divided = [], [], []

    def off_by_one(buffer, spec, n):
        proposals.append(n)
        value = propose(buffer, spec, n)
        if value is None:
            return None
        rejected.append(n)
        return value + 1

    divide = somos.engine._divmod
    monkeypatch.setattr(somos.engine, "propose", off_by_one)
    monkeypatch.setattr(
        somos.engine, "_divmod", lambda a, b: divided.append(proposals[-1]) or divide(a, b)
    )
    buffer = generate(spec, count, record=True)
    assert buffer.values() == clean.values()
    assert buffer.identity_holds == clean.identity_holds
    assert set(buffer.identity_holds.values()) == {True}
    assert rejected == [n for n in range(k, count) if n // STRIDE[k] >= 4]
    assert divided == proposals == list(range(k, count))
