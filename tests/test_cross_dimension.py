"""Cross-dimension oracles: a 2-D or 3-D function of x1 alone reproduces the 1-D engine.

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

In 3-D, f(x1, x2, x3) = g(x1) has one more transverse axis, so the field
factors are squared (16, 4 and 0.16) on the middle line (x2, x3 central),
and the flags of that line are the 1-D flags. The 3-D grid is N = 32, whose
finest level (k = 2) has one-cell windows and nodes h = +-dx/2, where the
second difference of the piecewise-linear interpolant vanishes: the field
is round-off, so the 3-D fields are compared at k = 0 and 1.
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
N3 = 32  # the 3-D grid
RTOL = 1e-13


def _pair(g, dim=2, n=N):
    """g on the 1-D grid, and x -> g(x1) on the ``dim``-D grid."""
    return GridFunction.from_callable(g, 1, L, n), GridFunction.from_callable(
        lambda p: g(p[..., 0]), dim, L, n
    )


def _g(x):
    return np.exp(-((x - 0.3) ** 2)) * (1.5 + np.sin(2.0 * x))


F1, F2 = _pair(_g)
F2_OF_X2 = GridFunction.from_callable(lambda p: _g(p[..., 1]), 2, L, N)
F1_32, F3 = _pair(_g, 3, N3)

FIELD_FACTORS = pytest.mark.parametrize(
    "field, factor",
    [(delta_window_field, 4.0), (delta_cube_field, 2.0), (delta_expanded_field, 0.4)],
)


def _check_middle_line(f, axis, field, factor, f1=F1, levels=range(3)):
    """The middle line along ``axis`` of each field of f is the field of f1
    times factor: to RTOL of its largest entry everywhere, to RTOL where
    unflagged, and flagged where the 1-D field is."""
    compared = 0
    for k in levels:
        v, flags = (np.moveaxis(a, axis, 0) for a in field(f, k, M)[:2])
        line = (slice(None),) + (v.shape[1] // 2,) * (f.dim - 1)
        want, want_flags = field(f1, k, M)[:2]
        want = factor * want
        np.testing.assert_allclose(v[line], want, rtol=RTOL, atol=RTOL * np.abs(want).max())
        np.testing.assert_array_equal(flags[line], want_flags)
        keep = ~flags[line]
        if keep.any():  # every expanded cube at k = 0 reaches the boundary
            np.testing.assert_allclose(v[line][keep], want[keep], rtol=RTOL, atol=0)
            compared += 1
    assert compared >= len(levels) - 1


@FIELD_FACTORS
def test_difference_fields_of_a_function_of_x1_match_the_1d_fields(field, factor):
    _check_middle_line(F2, 0, field, factor)


@FIELD_FACTORS
def test_difference_fields_of_a_function_of_x2_match_the_1d_fields(field, factor):
    _check_middle_line(F2_OF_X2, 1, field, factor)


@pytest.mark.parametrize(
    "field, factor",
    [(delta_window_field, 16.0), (delta_cube_field, 4.0), (delta_expanded_field, 0.16)],
)
def test_3d_difference_fields_of_a_function_of_x1_match_the_1d_fields(field, factor):
    _check_middle_line(F3, 0, field, factor, f1=F1_32, levels=range(2))


def _check_cube_power_means(dim, n):
    w1, w = _pair(lambda x: np.abs(x - 0.3) ** 0.4 + 0.1, dim, n)
    for k, r in itertools.product(range(-2, 5), (1, -1, 2.5, inf, -inf)):
        for fam in cube_families(w1, k):  # one geometry, so the same families in every dimension
            m1 = cube_power_means(power_table(w1.samples, r), [fam], r)
            m = cube_power_means(power_table(w.samples, r), [fam], r)
            # the cube grid, in C order, has x1 as its first axis
            assert m.shape == (len(m1) ** dim,)
            m = m.reshape((len(m1),) * dim)
            want = np.broadcast_to(m1.reshape((-1,) + (1,) * (dim - 1)), m.shape)
            np.testing.assert_allclose(m, want, rtol=RTOL, atol=0)


def test_cube_power_means_of_a_weight_of_x1_match_the_1d_means():
    _check_cube_power_means(2, N)


def test_3d_cube_power_means_of_a_weight_of_x1_match_the_1d_means():
    _check_cube_power_means(3, N3)


def _check_maximal_field(f1, f):
    want = hl_maximal(f1).samples.reshape((-1,) + (1,) * (f.dim - 1))
    np.testing.assert_allclose(hl_maximal(f).samples, np.broadcast_to(want, f.samples.shape),
                               rtol=RTOL, atol=0)


def test_maximal_field_of_a_function_of_x1_matches_the_1d_field():
    _check_maximal_field(F1, F2)


def test_3d_maximal_field_of_a_function_of_x1_matches_the_1d_field():
    _check_maximal_field(F1_32, F3)
