"""Cube power means: the one primitive behind the A_p, A_1 and class scans."""

import math

import numpy as np
import pytest

from dilatest.dyadic import Box, GridFunction, box_lp_average
from dilatest.errors import InvalidExponent
from dilatest.weights import (
    SHIFT_FRACTIONS,
    Power,
    ShiftedPower,
    a1_constant,
    ap_constant,
    conjugate,
    cube_power_means,
    scan_levels,
    weight_grid,
)


def _oracle(w: GridFunction, box, r):
    """The scalar power mean; r < 0 goes through the reciprocal weight."""
    if r > 0:
        return box_lp_average(w, box, r)
    return 1.0 / box_lp_average(w.with_samples(1.0 / w.samples), box, -r)


@pytest.mark.parametrize(
    "dim, halfwidth, n", [(1, 8.0, 256), (1, 3.0, 256), (2, 4.0, 32), (2, 3.0, 32)]
)
def test_cube_power_means_match_the_scalar_oracle(dim, halfwidth, n):
    # L = 3 is not a power of two, so the families carry clipped edge cubes
    rng = np.random.default_rng(11 + dim)
    w = GridFunction(dim, halfwidth, np.exp(0.5 * rng.normal(size=(n,) * dim)))
    p = 3.0
    exponents = [1.0, p, -conjugate(p) / p, math.inf, -math.inf]
    clipped = 0
    for k in scan_levels(w, 6):
        side = 2.0**-k
        for shift in SHIFT_FRACTIONS:
            for r in exponents:
                means, idx, bdy = cube_power_means(w.samples, w, k, shift, r)
                assert means.shape == (len(idx),) == bdy.shape
                for mean, m in zip(means, idx):
                    lo = tuple((int(mi) + shift) * side for mi in m)
                    box = Box(lo, tuple(x + side for x in lo))
                    want = _oracle(w, box, r)
                    assert mean == pytest.approx(want, rel=1e-12), (k, shift, r, tuple(m))
                clipped += int(np.sum(bdy))
    if halfwidth == 3.0:
        assert clipped > 0


def test_cube_power_means_reject_r_zero():
    w = GridFunction(1, 4.0, np.ones(32))
    for r in (0.0, math.nan):
        with pytest.raises(InvalidExponent):
            cube_power_means(w.samples, w, 0, 0.0, r)


@pytest.mark.parametrize(
    "spec, dim, n",
    [
        (Power(0.5), 1, 1024),
        (Power(-0.5), 1, 1024),
        (ShiftedPower(0.5, -0.3), 1, 1024),
        (Power(0.3), 2, 128),
        (ShiftedPower((0.5, 0.25), -0.4), 2, 128),
    ],
)
def test_ap_constant_falls_with_p_and_stays_below_a1(spec, dim, n):
    # M_{Q,r} grows with r, so M_{Q,1} / M_{Q,-1/(p-1)} falls as p grows and
    # never exceeds M_{Q,1} / M_{Q,-inf}
    g = weight_grid(spec, 0, dim, 4.0, n)
    a1 = a1_constant(g, depth=5).constant
    previous = math.inf
    for p in (1.05, 1.5, 2.0, 3.0):
        ap = ap_constant(g, p, depth=5).constant
        assert ap <= previous * (1 + 1e-12), (p, ap, previous)
        assert ap <= a1 * (1 + 1e-12), (p, ap, a1)
        previous = ap
