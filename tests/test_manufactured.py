"""Manufactured closed forms for the difference fields.

Multilinear interpolation reproduces every polynomial of degree at most one
in each coordinate, so for such f the order-M difference has a closed form
that does not depend on x:

* f(x) = a . x, M = 1: Delta_h f = a . h,
* f(x) = x1 * x2, M = 2: Delta_h^2 f = 2 h1 h2.

With S = dh^n * sum over the h-nodes of |Delta_h^M f| (nodes and dh from
``_h_axis``), the fields are exact multiples of S wherever no (x, h) pair
reads past the outermost cell centers, where interpolation holds the edge
sample constant:

* window field: 2**(n(k+1)) * S, at centers at least (M + 1) r cells from
  every edge (r cells per level-k side),
* cube field: 2**(kn) * S, at cubes at least M cubes from every edge,
* expanded field: (5 * 2**-k)**-n * S, at cubes at least M + 2 cubes in.

Neither f is a function of one coordinate, so unlike the cross-dimension
oracles these see a kernel that reads one axis's node value on every axis.
"""

import itertools

import numpy as np
import pytest

from dilatest.differences import (
    _h_axis,
    delta_cube_field,
    delta_expanded_field,
    delta_window_field,
)
from dilatest.dyadic import GridFunction, level_cell_count

RTOL = 1e-13
A = np.array([0.7, -1.3, 0.4])


def _linear(p):
    return p @ A[: p.shape[-1]]


def _product(p):
    return p[..., 0] * p[..., 1]


# f, its order M, and Delta_h^M f on an array of nodes (..., n)
CASES = {
    "linear": (_linear, 1, lambda h: h @ A[: h.shape[-1]]),
    "x1*x2": (_product, 2, lambda h: 2.0 * h[..., 0] * h[..., 1]),
}
GRIDS = [(2, 64), (3, 32)]  # (n, N) at L = 4


def _closed_form(field, f, k, order, delta):
    """The field's exact value and the index of the entries it holds at."""
    axis, dh = _h_axis(2.0**-k, f.spacing)
    nodes = np.array(list(itertools.product(axis, repeat=f.dim)))
    s = dh**f.dim * np.sum(np.abs(delta(nodes)))
    n, r = f.dim, level_cell_count(f, k)
    cubes = f.resolution // r
    if field is delta_window_field:
        value, lo, hi = 2.0 ** (n * (k + 1)) * s, (order + 1) * r, f.resolution - (order + 1) * r
    elif field is delta_cube_field:
        value, lo, hi = 2.0 ** (k * n) * s, order, cubes - order
    else:
        value, lo, hi = (5.0 * 2.0**-k) ** -n * s, order + 2, cubes - order - 2
    return value, (slice(lo, hi),) * n


@pytest.mark.parametrize("field", [delta_window_field, delta_cube_field, delta_expanded_field])
@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("dim, n", GRIDS)
def test_difference_fields_match_their_closed_forms(dim, n, case, field):
    fn, order, delta = CASES[case]
    f = GridFunction.from_callable(fn, dim, 4.0, n)
    compared = 0
    for k in range(3):
        values, flags = field(f, k, order)[:2]
        want, inner = _closed_form(field, f, k, order, delta)
        if values[inner].size == 0:  # no expanded cube at k = 0 is far enough in
            continue
        assert not flags[inner].any()
        np.testing.assert_allclose(values[inner], want, rtol=RTOL, atol=0)
        compared += 1
    assert compared >= 2
