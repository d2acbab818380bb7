"""Cube power means: the one primitive behind the A_p, A_1 and class scans."""

import math

import numpy as np
import pytest

from dilatest.dyadic import Box, GridFunction, box_lp_average
from dilatest.errors import EmptyIntersection, InvalidExponent, NonPositiveValue
from dilatest.norms import SpaceParams
from dilatest.weights import (
    SHIFT_FRACTIONS,
    Power,
    ShiftedPower,
    WeightSequence,
    ap_constant,
    conjugate,
    cube_families,
    cube_power_means,
    power_table,
    scan_levels,
    weight_grid,
    xclass_check,
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
        for fam in cube_families(w, k):
            for r in exponents:
                means = cube_power_means(power_table(w.samples, r), fam, r)
                assert means.shape == (len(fam.indices),) * dim
                for m in np.ndindex(means.shape):
                    mean, shift = means[m], fam.shift
                    lo = tuple((int(fam.indices[mi]) + shift) * side for mi in m)
                    box = Box(lo, tuple(x + side for x in lo))
                    want = _oracle(w, box, r)
                    assert mean == pytest.approx(want, rel=1e-12), (k, shift, r, m)
                    # a clipped cube's box leaves [-L, L] on some axis
                    clipped += min(box.lo) < -halfwidth or max(box.hi) > halfwidth
    if halfwidth == 3.0:
        assert clipped > 0


def test_cube_power_means_reject_r_zero():
    w = GridFunction(1, 4.0, np.ones(32))
    for r in (0.0, math.nan):
        with pytest.raises(InvalidExponent):
            cube_power_means(power_table(w.samples, 1.0), cube_families(w, 0)[0], r)


@pytest.mark.parametrize(
    "value, r",
    [(0.25, -1000.0), (10.0, 308.0)],  # w**r itself overflows; each w**r fits but a sum does not
)
def test_cube_power_means_raise_when_a_power_sum_leaves_the_float_range(value, r):
    w = GridFunction(1, 4.0, np.full(64, value))
    with pytest.raises(NonPositiveValue, match=f"r = {r} .* at level 0"):
        cube_power_means(power_table(w.samples, r), cube_families(w, 0)[0], r)


def test_cube_power_means_of_an_underflowed_sum_are_inf():
    # at r < 0 a huge weight's w**r underflows to 0, and the mean is inf
    w = GridFunction(1, 4.0, np.full(64, 1e200))
    means = cube_power_means(power_table(w.samples, -2.0), cube_families(w, 0)[0], -2.0)
    assert np.all(means == math.inf)


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
    a1 = ap_constant(g, 1.0, depth=5).constant
    previous = math.inf
    for p in (1.05, 1.5, 2.0, 3.0):
        ap = ap_constant(g, p, depth=5).constant
        assert ap <= previous * (1 + 1e-12), (p, ap, previous)
        assert ap <= a1 * (1 + 1e-12), (p, ap, a1)
        previous = ap


def _family_means(w: GridFunction, k, shift, r):
    """M_{Q,r}(w) over every nonempty cube of the shifted level-k family, by cube position."""
    side, L = 2.0**-k, w.halfwidth
    m0 = math.floor(-L / side - shift) - 1
    m1 = math.ceil(L / side - shift) + 1
    out = {}
    for m in np.ndindex(*(m1 - m0,) * w.dim):
        lo = tuple((m0 + mi + shift) * side for mi in m)
        try:
            out[m] = _oracle(w, Box(lo, tuple(x + side for x in lo)), r)
        except EmptyIntersection:
            continue
    return out


def _xclass_oracle(t: WeightSequence, sp: SpaceParams, j_max):
    """Per fine level j, the sups over k <= j and every cube of C1's and C2's ratios."""
    c1, c2 = [0.0] * (j_max + 1), [0.0] * (j_max + 1)
    for lev in scan_levels(t.grid, j_max):
        for shift in SHIFT_FRACTIONS:
            mp, ms1, ms2 = (
                [_family_means(t.level(kw), lev, shift, r) for kw in range(j_max + 1)]
                for r in (sp.p, -sp.sigma1, sp.sigma2)
            )
            for j in range(j_max + 1):
                for k in range(j + 1):
                    gain1 = 2.0 ** (sp.alpha[0] * (j - k))
                    gain2 = 2.0 ** (sp.alpha[1] * (k - j))
                    for q in mp[k]:
                        c1[j] = max(c1[j], mp[k][q] / ms1[j][q] * gain1)
                        c2[j] = max(c2[j], ms2[j][q] / mp[k][q] * gain2)
    return c1, c2


@pytest.mark.parametrize(
    "dim, halfwidth, n", [(1, 8.0, 128), (1, 3.0, 64), (2, 4.0, 16), (2, 3.0, 32)]
)
# a space's sigma1 = theta p / (p - theta) is at least p' = 2; sigma1 = 6 is theta = 1.5
@pytest.mark.parametrize("sigma1, sigma2", [(6.0, 3.0), (math.inf, 3.0), (2.0, math.inf)])
def test_xclass_check_matches_the_brute_force_oracle(dim, halfwidth, n, sigma1, sigma2):
    # rough, level-dependent weights, so every (k, j) pairing and cube matters;
    # L = 3 is not a power of two, so the families carry clipped edge cubes
    rng = np.random.default_rng(5 + dim + n)
    levels = [
        GridFunction(dim, halfwidth, 2.0 ** (0.6 * k) * np.exp(0.7 * rng.normal(size=(n,) * dim)))
        for k in range(4)
    ]
    p = 2.0
    theta = p if sigma1 == math.inf else sigma1 * p / (p + sigma1)
    t = WeightSequence(levels)
    sp = SpaceParams("B", p, 2.0, 2, (0.3, 0.9), theta=theta, sigma2=sigma2)
    assert sp.sigma1 == sigma1
    rep = xclass_check(t, sp, depth=3)
    o1, o2 = _xclass_oracle(t, sp, 3)
    assert [d for d, _, _ in rep.trace] == [1, 3]
    for d, a, b in rep.trace:
        assert a == pytest.approx(max(o1[: d + 1]), rel=1e-12), (d, "C1")
        assert b == pytest.approx(max(o2[: d + 1]), rel=1e-12), (d, "C2")
    assert (rep.c1, rep.c2) == rep.trace[-1][1:]
