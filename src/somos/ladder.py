"""Division-free proposals for the all-ones Somos-4 and Somos-5 steps.

All-ones Somos-4 is, and each parity stream b_j = a_{2j+p} of all-ones
Somos-5 is, a Somos-4 sequence with b_0 = b_1 = 1 (Hone, Trans. AMS 359,
2007).  Such a sequence and its elliptic divisibility sequence W satisfy

    b_{m+h} b_{m-h} = W_h^2 b_{m+1} b_{m-1} - W_{h+1} W_{h-1} b_m^2

(van der Poorten and Swart, Bull. LMS 38, 2006).  Taking h = m and
h = m - 1 gives b_{2m} and b_{2m-1} from the three terms at half the
index, with no division:

    b_{2m}   = W_m^2     b_{m+1} b_{m-1} - W_{m+1} W_{m-1} b_m^2
    b_{2m-1} = W_{m-1}^2 b_{m+1} b_{m-1} - W_m W_{m-2}     b_m^2

Both lines are identities of the sequence, so from its own terms a
proposal is a_n.  The engine step asks for one only on a buffer that
generate built for the spec: it starts at index 0 and holds every term,
all integral and all the sequence's own, so the step takes the proposal
unchecked, and verify and certify --count then evaluate the identity at
every n.  Every other buffer divides.  This module imports nothing from
the package.
"""

from __future__ import annotations

from functools import cache

# (order, summands, initials) -> (stride of a stream, W_0 .. W_4).
_LADDERS = {
    (4, ((1, 3), (2, 2)), (1, 1, 1, 1)): (1, (0, 1, 1, -1, -5)),
    (5, ((1, 4), (2, 3)), (1, 1, 1, 1, 1)): (2, (0, 1, 1, -8, -57)),
}


def propose(buffer, spec, n: int) -> int | None:
    """a_n from the three terms at half its index, on a buffer that
    generate built for spec.

    None for a spec outside the table and for a stream index j < 4,
    where the half-index terms are not all behind n.
    """
    ladder = _LADDERS.get((spec.order, spec.summands, spec.initials))
    if ladder is None:
        return None
    stride, seed = ladder
    j, parity = divmod(n, stride)
    if j < 4:
        return None
    m = (j + 1) >> 1
    # b_{m+1}, b_m, b_{m-1}: ints, or rational mode's integral Fractions.
    up, mid, down = (buffer.term(stride * (m + d) + parity).numerator for d in (1, 0, -1))
    h = m if j % 2 == 0 else m - 1  # b_j = b_{m+h} with b_{m-h} = b_0 or b_1 = 1
    square, cross = _coefficients(seed, h)
    return square * (up * down) - cross * mid**2


@cache
def _coefficients(seed: tuple[int, ...], h: int) -> tuple[int, int]:
    """(W_h^2, W_{h+1} W_{h-1}): the two coefficients of the rule for
    b_{m+h}, shared by the steps of both parities and both stream indices
    with this h."""
    return _w(seed, h) ** 2, _w(seed, h + 1) * _w(seed, h - 1)


@cache
def _w(seed: tuple[int, ...], i: int) -> int:
    """W_i of the elliptic divisibility sequence with W_0 .. W_4 = seed.

    W_{-i} = -W_i, and past W_4 each term comes from terms near half its
    index by the doubling formulas, which divide by W_2 = 1 here.  The
    cache keeps each W_i for the process: one per half index stepped.
    """
    if i < 0:
        return -_w(seed, -i)
    if i < len(seed):
        return seed[i]
    h = i >> 1
    if i & 1:
        return _w(seed, h + 2) * _w(seed, h) ** 3 - _w(seed, h - 1) * _w(seed, h + 1) ** 3
    return _w(seed, h) * (
        _w(seed, h + 2) * _w(seed, h - 1) ** 2 - _w(seed, h - 2) * _w(seed, h + 1) ** 2
    )
