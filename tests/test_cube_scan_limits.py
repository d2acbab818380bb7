"""Closed-form limits of the A_p cube scan for power weights in 1-D.

For w = |x|**beta the ratio M_{Q,1}(w) / M_{Q,r}(w), r = -p'/p, of an interval
Q = [c, c + 1] * 2**-k does not depend on the level: w is homogeneous, so the
ratio is a function of c alone. The scanned family holds the level-k dyadic
intervals and their one-third and two-thirds translates, so c runs over
Z + {0, 1/3, 2/3}, and far from 0 the ratio falls to 1. The family's supremum
is therefore a maximum over a few closed-form values, from

    int_a^b |x|**e dx = (sgn(b) |b|**(e + 1) - sgn(a) |a|**(e + 1)) / (e + 1).

A sampled weight is not the continuum: the midpoint means of the finest
cubes see |x|**beta only at cell centers. So the tests check the sign of the
gap between the scan and the limit and that it falls under refinement.
"""

import math

import pytest

from dilatest.weights import SHIFT_FRACTIONS, Power, ap_constant, weight_grid

L = 8.0


def _power_integral(a, b, e):
    """int_a^b |x|**e dx for e > -1."""
    def antiderivative(x):
        return math.copysign(abs(x) ** (e + 1), x) / (e + 1)

    return antiderivative(b) - antiderivative(a)


def family_limit(beta, p):
    """sup over the scanned family of M_{Q,1}(|x|**beta) / M_{Q,r}(|x|**beta)."""
    r = -1.0 / (p - 1.0)  # -p'/p
    best = 1.0
    for m in range(-8, 8):
        for shift in SHIFT_FRACTIONS:
            c = m + shift
            mean_1 = _power_integral(c, c + 1, beta)
            mean_r = _power_integral(c, c + 1, beta * r)
            best = max(best, mean_1 / mean_r ** (1.0 / r))
    return best


CASES = [  # (beta, p, the family limit to six digits)
    (0.5, 2.0, 1.36928),
    (-0.3, 2.0, 1.10950),
    (0.3, 1.5, 1.23426),
    (1.5, 3.0, 7.56239),
]


@pytest.mark.parametrize("beta, p, limit", CASES)
def test_family_limit_is_the_closed_form(beta, p, limit):
    assert family_limit(beta, p) == pytest.approx(limit, abs=5e-6)


@pytest.mark.parametrize("beta, p", [case[:2] for case in CASES])
def test_scan_approaches_the_family_limit_from_below(beta, p):
    limit = family_limit(beta, p)
    gaps = []
    for n in (512, 4096):
        # every level the grid resolves
        rep = ap_constant(weight_grid(Power(beta), 0, 1, L, n), p, depth=30)
        gaps.append(limit - rep.constant)
    assert all(gap > 0 for gap in gaps), gaps
    # a fall by a fifth or more, far above round-off: eight times the cells
    # cut the gap to between 0.25 and 0.62 of itself in these cases
    assert gaps[1] < 0.8 * gaps[0], gaps
