from __future__ import annotations

from fractions import Fraction
from functools import cache

import pytest

import somos.engine
from somos import (
    INTEGER,
    RATIONAL,
    NonIntegralEvent,
    SequenceBuffer,
    SequenceSpec,
    generate,
    next_term,
    somos5_spec,
    new_state,
    somos_k_spec,
)
from somos.cli import main
from somos.ladder import propose

from helpers import SOMOS_SUMMANDS, fraction_terms

# The stream stride of each spec with a ladder: n = stride * j + parity.
STRIDE = {4: 1, 5: 2}


@cache
def _oracle(k, count):
    """The first count all-ones Somos-k terms by the Fraction recursion,
    computed once per module (Somos-5 to 1000 takes seconds)."""
    return fraction_terms(k, SOMOS_SUMMANDS[k], count)


@pytest.mark.parametrize("k, count", [(5, 1000), (4, 600)])
def test_every_proposal_is_the_fraction_recursion(k, count):
    oracle = _oracle(k, count)
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


def _stepped(spec, count):
    """The first count terms, each appended by next_term to a new_state
    buffer, which is not generate's own: every proposal is checked."""
    buffer = new_state(spec)
    while buffer.next_index < count:
        next_term(buffer, spec)
    return buffer


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
    buffer = _stepped(somos_k_spec(k), count)
    assert len(divisions) == divided
    assert buffer.values() == _oracle(k, count)


def test_rational_generate_takes_each_proposal_unchecked(monkeypatch):
    oracle = _oracle(5, 1000)[:700]
    divisions = _count_divisions(monkeypatch)
    buffer = generate(somos5_spec(), 700, mode=RATIONAL)
    assert buffer.values() == oracle
    assert all(type(value) is Fraction for value in buffer.values()[5:])
    assert len(divisions) == 3


@pytest.mark.parametrize("k", [4, 5])
def test_a_rejected_proposal_falls_through_to_division(monkeypatch, k):
    spec, count = somos_k_spec(k), 300
    clean = generate(spec, count)
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
    buffer = _stepped(spec, count)
    assert buffer.values() == clean.values()
    assert rejected == [n for n in range(k, count) if n // STRIDE[k] >= 4]
    assert divided == proposals == list(range(k, count))


@pytest.mark.parametrize("mode", [INTEGER, RATIONAL])
@pytest.mark.parametrize("k, count", [(5, 1000), (4, 600)])
def test_generated_terms_are_the_fraction_recursion(k, count, mode):
    buffer = generate(somos_k_spec(k), count, mode=mode)
    assert buffer.values() == _oracle(k, count)


@pytest.mark.parametrize(
    "k, windows",
    [(5, [(0, 1, 1, 1, 1, 1), (0, 2, 1, 1, 1, 1), (0, 3, 2, 1, 1, 1)]), (4, [])],
    ids=["somos-5", "somos-4"],
)
def test_generate_forms_the_bilinear_sum_only_without_a_proposal(monkeypatch, k, windows):
    # On generate's own buffer a proposal is the term, so the
    # bilinear sum is formed only at Somos-5's n = 5, 6, 7, whose stream
    # index is below 4; each window is (0, a_{n-1}, ..., a_{n-5}).
    formed = []
    sides = somos.engine._sides
    monkeypatch.setattr(
        somos.engine, "_sides", lambda t, *args: formed.append(tuple(t)) or sides(t, *args)
    )
    buffer = generate(somos_k_spec(k), 300)
    assert formed == windows
    assert buffer.values() == _oracle(k, 600)[:300]


def test_a_wrong_ladder_term_fails_the_identity_pass(monkeypatch, capsys):
    # generate takes the ladder's a_299 unchecked; verify's identity pass
    # names it.  No certificate in [10, 300) reads a_299, as the residue at
    # 299 is divided once the identity there fails, so certify --count 300
    # passes, and the certificate at 300 fails on the identity at 299.
    def off_by_one_at_299(buffer, spec, n):
        value = propose(buffer, spec, n)
        return value + 1 if n == 299 else value

    monkeypatch.setattr(somos.engine, "propose", off_by_one_at_299)
    assert main(["verify", "--count", "300"]) == 1
    assert main(["certify", "--count", "300"]) == 0
    assert main(["certify", "--count", "301"]) == 1
    assert capsys.readouterr().out == (
        "recurrence-identity over n in [5, 300): 295 checked, FAIL; "
        "first failure at n = 299 (a_n * a_{n-k} != bilinear sum)\n"
        "certificate over n in [10, 300): 290 checked, pass\n"
        "certificate over n in [10, 301): 291 checked, FAIL; "
        "first failure at n = 300 (shift identity at offset 1 fails)\n"
    )


def test_a_term_appended_by_hand_ends_the_trust():
    spec, count = somos5_spec(), 300
    buffer = generate(spec, count)
    assert buffer.source == spec
    nudged = generate(spec, count + 1).term(count) + 1
    by_hand = SequenceBuffer(buffer.values() + [nudged])
    buffer.append(nudged)
    assert buffer.source is None
    event = next_term(buffer, spec)
    assert isinstance(event, NonIntegralEvent)
    assert event == next_term(by_hand, spec)
    assert buffer.next_index == by_hand.next_index == count + 1


def test_a_bounded_generated_buffer_is_not_generates_own():
    spec = somos5_spec()
    buffer = generate(spec, 60)
    assert buffer.below(None) is buffer and buffer.source == spec
    bounded = buffer.below(50)
    assert bounded.source is None
    assert next_term(bounded, spec) == buffer.term(50)
