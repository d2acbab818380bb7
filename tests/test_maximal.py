import math

import numpy as np
import pytest

from dilatest import fixtures
from dilatest.dyadic import GridFunction
from dilatest.errors import InvalidExponent, MissingLevels, PreconditionFailed
from dilatest.maximal import (
    fs_inequality_ratio,
    hl_maximal,
    m_sigma,
    weighted_maximal_ratio,
)
from dilatest.weights import Constant, GeometricLevel, Power, WeightSequence

L = 8.0


def brute_force_maximal_at(f, i):
    """Independent slow scan over the same cube family."""
    s = np.abs(f.samples)
    n = f.resolution
    best = s[i]
    for j in range(1, int(math.log2(n)) + 1):
        half = 2 ** (j - 1)
        for c in range(max(0, i - half), min(n, i + half + 1)):
            lo, hi = max(0, c - half), min(n, c + half + 1)
            best = max(best, s[lo:hi].mean())
    return best


def brute_force_maximal_2d_at(f, i0, i1):
    """``brute_force_maximal_at`` on a 2-D grid: every centered square of side
    2 half + 1 cells, clipped, whose center is within half cells of (i0, i1) per axis."""
    s = np.abs(f.samples)
    n = f.resolution
    best = s[i0, i1]
    for j in range(1, int(math.log2(n)) + 1):
        half = 2 ** (j - 1)
        for c0 in range(max(0, i0 - half), min(n, i0 + half + 1)):
            for c1 in range(max(0, i1 - half), min(n, i1 + half + 1)):
                block = s[max(0, c0 - half):c0 + half + 1, max(0, c1 - half):c1 + half + 1]
                best = max(best, block.mean())
    return best


def test_maximal_constant():
    f = GridFunction.from_callable(lambda x: np.full_like(x, 2.0), 1, L, 256)
    assert np.allclose(hl_maximal(f).samples, 2.0, rtol=1e-14)


def test_maximal_dominates_function():
    f = fixtures.random_smooth(11, 1, L, 512)
    mf = hl_maximal(f)
    assert np.all(mf.samples >= np.abs(f.samples) - 1e-15)


def test_maximal_matches_brute_force():
    f = fixtures.random_smooth(4, 1, L, 256)
    mf = hl_maximal(f)
    rng = np.random.default_rng(0)
    for i in rng.integers(0, 256, size=12):
        assert mf.samples[i] == pytest.approx(brute_force_maximal_at(f, int(i)), rel=1e-12)


def test_maximal_indicator_tail():
    # indicator of [0, 1] seen from x = 2: the best cube is about [0, 2]
    n = 4096
    f = GridFunction.from_callable(
        lambda x: ((x >= 0) & (x <= 1)).astype(float), 1, L, n
    )
    mf = hl_maximal(f)
    i = int(np.argmin(np.abs(f.axis_centers() - 2.0)))
    assert mf.samples[i] == pytest.approx(0.5, abs=5e-3)
    assert mf.samples[i] == pytest.approx(brute_force_maximal_at(f, i), rel=1e-12)


def test_maximal_spike_decay():
    n = 1024
    samples = np.zeros(n)
    f0 = GridFunction(1, L, samples)
    i0 = int(np.argmin(np.abs(f0.axis_centers())))
    samples[i0] = 1.0 / f0.spacing
    f = GridFunction(1, L, samples)
    mf = hl_maximal(f)
    for x in (0.5, 1.0, 3.0):
        i = int(np.argmin(np.abs(f.axis_centers() - x)))
        v = mf.samples[i]
        assert 1.0 / (2.5 * x) < v < 1.2 / x
        assert v == pytest.approx(brute_force_maximal_at(f, i), rel=1e-12)


def test_maximal_sublinear():
    f = fixtures.random_smooth(1, 1, L, 256)
    g = fixtures.random_smooth(2, 1, L, 256)
    fg = f.with_samples(f.samples + g.samples)
    lhs = hl_maximal(fg).samples
    rhs = hl_maximal(f).samples + hl_maximal(g).samples
    assert np.all(lhs <= rhs + 1e-12)


def test_maximal_dilation_commutation_within_tolerance():
    # cell-centered lattices are not closed under doubling, so the commutation
    # g = f(2x) => Mg(x) = Mf(2x) holds up to interpolation error only
    lam = 2.0
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, 2048)
    g = GridFunction.from_callable(lambda x: np.exp(-((lam * x) ** 2)), 1, L, 2048)
    mf, mg = hl_maximal(f), hl_maximal(g)
    xs = np.linspace(-2.0, 2.0, 41)
    got = mg.interp(xs)
    want = mf.interp(lam * xs)
    assert np.max(np.abs(got - want)) < 2e-2


def test_maximal_2d_smoke():
    f = GridFunction.from_callable(
        lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2)), 2, 4.0, 64
    )
    mf = hl_maximal(f)
    assert np.all(mf.samples >= np.abs(f.samples) - 1e-15)
    assert mf.samples.max() == pytest.approx(1.0, rel=1e-2)


def test_maximal_2d_matches_brute_force_on_every_point():
    # small integer samples, so many cube means tie with each other and with |f|
    samples = np.random.default_rng(9).integers(-3, 4, size=(16, 16)).astype(float)
    f = GridFunction(2, 2.0, samples)
    mf = hl_maximal(f).samples
    for i0, i1 in np.ndindex(mf.shape):
        assert mf[i0, i1] == pytest.approx(brute_force_maximal_2d_at(f, i0, i1), rel=1e-12)


def test_m_sigma():
    f = GridFunction.from_callable(lambda x: np.full_like(x, 3.0), 1, L, 256)
    assert np.allclose(m_sigma(f, 2.0).samples, 3.0, rtol=1e-12)
    g = fixtures.random_smooth(3, 1, L, 256)
    assert np.allclose(m_sigma(g, 1.0).samples, hl_maximal(g).samples, rtol=1e-14)
    n = 4096
    ind = GridFunction.from_callable(
        lambda x: ((x >= 0) & (x <= 1)).astype(float), 1, L, n
    )
    i = int(np.argmin(np.abs(ind.axis_centers() - 2.0)))
    assert m_sigma(ind, 2.0).samples[i] == pytest.approx(math.sqrt(0.5), abs=5e-3)


def test_fs_ratio_constant_family_is_one():
    f = GridFunction.from_callable(lambda x: np.full_like(x, 1.5), 1, L, 256)
    assert fs_inequality_ratio([f], 2.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_fs_ratio_zero_family():
    f = GridFunction(1, L, np.zeros(256))
    assert fs_inequality_ratio([f, f], 2.0, 2.0, 0.5) == 0.0


def test_fs_ratio_scale_invariant():
    fam = fixtures.random_indicator_family(7, 4, 1, L, 512)
    r1 = fs_inequality_ratio(fam, 2.0, 2.0, 0.5)
    scaled = [f.with_samples(5.0 * f.samples) for f in fam]
    r2 = fs_inequality_ratio(scaled, 2.0, 2.0, 0.5)
    assert r2 == pytest.approx(r1, rel=1e-12)
    assert r1 > 1.0


def test_fs_ratio_exponent_guard():
    f = GridFunction(1, L, np.ones(256))
    with pytest.raises(InvalidExponent):
        fs_inequality_ratio([f], 2.0, 2.0, 1.5)


def test_weighted_ratio_constants():
    t = WeightSequence.from_spec(Constant(1.0), 3, 1, L, 256)
    f = GridFunction.from_callable(lambda x: np.full_like(x, 2.0), 1, L, 256)
    got = weighted_maximal_ratio([f, f], t, 2.0, 2.0, 1.5)
    assert got == pytest.approx(1.0, rel=1e-12)


def test_weighted_ratio_power_weight():
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), 5, 1, L, 1024)
    fam = [fixtures.random_smooth(s, 1, L, 1024) for s in range(4)]
    r = weighted_maximal_ratio(fam, t, 2.0, 2.0, 1.5)
    assert 1.0 <= r < 10.0


def test_weighted_ratio_at_theta_equal_to_p_is_finite():
    # p / theta = 1: the levelwise precondition is the A_1 scan
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), 3, 1, L, 512)
    fam = [fixtures.random_smooth(s, 1, L, 512) for s in range(3)]
    r = weighted_maximal_ratio(fam, t, 2.0, 2.0, 2.0)
    assert math.isfinite(r) and r >= 1.0


def test_weighted_ratio_precondition():
    # |x|^1.2 fails the scan at exponent p/theta = 4/3
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(1.2)), 3, 1, L, 4096)
    fam = [fixtures.random_smooth(s, 1, L, 4096) for s in range(2)]
    with pytest.raises(PreconditionFailed):
        weighted_maximal_ratio(fam, t, 2.0, 2.0, 1.5)


def test_weighted_ratio_needs_a_level_per_function():
    t = WeightSequence.from_spec(Constant(1.0), 1, 1, L, 256)
    f = GridFunction.from_callable(lambda x: np.full_like(x, 2.0), 1, L, 256)
    with pytest.raises(MissingLevels):
        weighted_maximal_ratio([f, f, f], t, 2.0, 2.0, 1.5)
