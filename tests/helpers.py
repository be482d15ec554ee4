"""Independent oracles used to freeze expected values.

Nothing here imports the package under test: the brute-force rational
recursion is the reference the engine is judged against, and the
hand-expanded reduction chain is the reference for certificates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd


def fraction_terms(order, summands, count, initials=None):
    """Evaluate the recurrence a_n = (sum a_{n-i} a_{n-j}) / a_{n-k} with Fractions."""
    if initials is None:
        initials = [1] * order
    terms = [Fraction(v) for v in initials]
    while len(terms) < count:
        n = len(terms)
        numerator = sum(terms[n - i] * terms[n - j] for i, j in summands)
        terms.append(numerator / terms[n - order])
    return terms


def first_fractional_index(terms):
    """Index of the first term with denominator != 1, or None."""
    for index, value in enumerate(terms):
        if value.denominator != 1:
            return index
    return None


SOMOS_SUMMANDS = {
    4: ((1, 3), (2, 2)),
    5: ((1, 4), (2, 3)),
    6: ((1, 5), (2, 4), (3, 3)),
    7: ((1, 6), (2, 5), (3, 4)),
    8: ((1, 7), (2, 6), (3, 5), (4, 4)),
    9: ((1, 8), (2, 7), (3, 6), (4, 5)),
}


def certificate_oracle(values, n):
    """The Somos-5 divisibility certificate at n, evaluated term by term.

    values is a plain list of ints with values[i] = a_i.  Every line is
    spelled out as a product of single terms and every congruence is
    reduced mod a_{n-5}.  Returns the fields of a DivisibilityCertificate
    in declaration order, nested as tests/test_certificate.py::oracle_layout
    lays them out.  The result is memoized on exactly what it reads: n and
    a_{n-1}, ..., a_{n-10}.
    """
    return _certificate_oracle(n, tuple(values[n - d] for d in range(1, 11)))


@cache
def _certificate_oracle(n, window):
    t = dict(enumerate(window, start=1))
    m = t[5]
    numerator = t[1] * t[4] + t[2] * t[3]
    shifts = []
    for s in range(5, 0, -1):
        lhs = t[s] * t[s + 5]
        rhs = t[s + 1] * t[s + 4] + t[s + 2] * t[s + 3]
        shifts.append((s, lhs, rhs, lhs == rhs))
    precondition_gcd = gcd(m, t[8] * t[9])
    lines = [
        (t[8] * t[9] * numerator, "exact-rewrite", None),
        (t[8] * t[9] * t[1] * t[4] + t[8] * t[9] * t[2] * t[3], "exact-rewrite", None),
        (
            t[8] * t[1] * (t[5] * t[8] + t[6] * t[7])
            + t[9] * t[2] * (t[4] * t[7] + t[5] * t[6]),
            "exact-rewrite",
            None,
        ),
        (
            t[8] * t[1] * t[6] * t[7] + t[9] * t[2] * t[4] * t[7],
            "drop-multiple",
            t[8] * t[1] * t[5] * t[8] + t[9] * t[2] * t[5] * t[6],
        ),
        (
            t[8] * t[7] * (t[2] * t[5] + t[3] * t[4])
            + t[9] * t[4] * (t[3] * t[6] + t[4] * t[5]),
            "exact-rewrite",
            None,
        ),
        (
            t[8] * t[7] * t[3] * t[4] + t[9] * t[4] * t[3] * t[6],
            "drop-multiple",
            t[8] * t[7] * t[2] * t[5] + t[9] * t[4] * t[4] * t[5],
        ),
        (t[3] * t[4] * (t[8] * t[7] + t[9] * t[6]), "exact-rewrite", None),
        (t[3] * t[4] * t[5] * t[10], "exact-rewrite", None),
    ]
    chain = []
    previous = None
    for step_no, (value, kind, dropped) in enumerate(lines):
        if previous is None:
            congruent = verified = True
        else:
            congruent = (previous - value) % m == 0
            if kind == "exact-rewrite":
                verified = value == previous
            else:
                verified = previous - value == dropped and dropped % m == 0
        chain.append((step_no, kind, value, congruent, verified, dropped))
        previous = value
    numerator_residue = numerator % m
    valid = (
        precondition_gcd == 1
        and all(holds for *_, holds in shifts)
        and all(verified for *_, verified, _ in chain)
        and chain[-1][2] % m == 0
        and numerator_residue == 0
    )
    return (n, m, precondition_gcd, tuple(shifts), tuple(chain), numerator_residue, valid)
