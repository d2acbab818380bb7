"""Cross-dimension oracles: a 2-D function of x1 alone reproduces the 1-D engine.

For f(x1, x2) = g(x1) every x2-integral and every h2-average is a plain
measure factor, so each 2-D quantity is a fixed multiple of the 1-D one:

* window field: the window side 2 * 2**-k, the h2 range 2 * 2**-k and the
  prefactor 2**(2k) give 4,
* cube field: the side 2**-k, the h2 range 2 * 2**-k and 2**(-k) ** -2 give 2,
* expanded field: the side 5 * 2**-k, the h2 range 2 * 2**-k and
  (5 * 2**-k) ** -2 give 0.4,
* cube power means and the maximal field: factor 1.

This holds where the x2 direction loses nothing to the boundary, which is
the unflagged middle column of each field. The flagged entries of that
column obey it too, since the 2-D kept-pair count is the 1-D one times the
x2 count, but they round differently: they agree to round-off of the
column's largest entry. The mirror,
f(x1, x2) = g(x2), gives the same factors on the middle row; together they
guard the axis order of the 2-D kernel, each axis's stencil rows and edge
masks.
"""

import itertools
from math import inf

import numpy as np
import pytest

from dilatest.differences import delta_cube_field, delta_expanded_field, delta_window_field
from dilatest.dyadic import GridFunction
from dilatest.maximal import hl_maximal
from dilatest.weights import cube_families, cube_power_means, power_table

L, N, M = 4.0, 64, 2
RTOL = 1e-13


def _pair(g):
    """g on the 1-D grid, and (x1, x2) -> g(x1) on the 2-D grid."""
    return GridFunction.from_callable(g, 1, L, N), GridFunction.from_callable(
        lambda p: g(p[..., 0]), 2, L, N
    )


def _g(x):
    return np.exp(-((x - 0.3) ** 2)) * (1.5 + np.sin(2.0 * x))


F1, F2 = _pair(_g)
F2_OF_X2 = GridFunction.from_callable(lambda p: _g(p[..., 1]), 2, L, N)

FIELD_FACTORS = pytest.mark.parametrize(
    "field, factor",
    [(delta_window_field, 4.0), (delta_cube_field, 2.0), (delta_expanded_field, 0.4)],
)


def _check_middle_line(f2, axis, field, factor):
    """The middle line across ``axis`` of each 2-D field is the 1-D field times
    factor: to RTOL of its largest entry everywhere, to RTOL where unflagged."""
    compared = 0
    for k in range(3):
        v2, flags = (np.moveaxis(a, axis, 0) for a in field(f2, k, M)[:2])
        mid = v2.shape[1] // 2
        want = factor * field(F1, k, M)[0]
        np.testing.assert_allclose(v2[:, mid], want, rtol=RTOL, atol=RTOL * np.abs(want).max())
        keep = ~flags[:, mid]
        if keep.any():  # every expanded cube at k = 0 reaches the boundary
            np.testing.assert_allclose(v2[keep, mid], want[keep], rtol=RTOL, atol=0)
            compared += 1
    assert compared >= 2


@FIELD_FACTORS
def test_difference_fields_of_a_function_of_x1_match_the_1d_fields(field, factor):
    _check_middle_line(F2, 0, field, factor)


@FIELD_FACTORS
def test_difference_fields_of_a_function_of_x2_match_the_1d_fields(field, factor):
    _check_middle_line(F2_OF_X2, 1, field, factor)


def test_cube_power_means_of_a_weight_of_x1_match_the_1d_means():
    w1, w2 = _pair(lambda x: np.abs(x - 0.3) ** 0.4 + 0.1)
    for k, r in itertools.product(range(-2, 5), (1, -1, 2.5, inf, -inf)):
        for fam in cube_families(w1, k):  # one geometry, so the same families in 1-D and 2-D
            m1 = cube_power_means(power_table(w1.samples, r), fam, r)
            m2 = cube_power_means(power_table(w2.samples, r), fam, r)
            # the cube grid's first axis is x1
            np.testing.assert_allclose(m2, np.repeat(m1[:, None], len(m1), axis=1),
                                       rtol=RTOL, atol=0)


def test_maximal_field_of_a_function_of_x1_matches_the_1d_field():
    want = np.repeat(hl_maximal(F1).samples[:, None], N, axis=1)
    np.testing.assert_allclose(hl_maximal(F2).samples, want, rtol=RTOL, atol=0)
