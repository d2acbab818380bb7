"""The fixture helpers against the formulas they replaced, bit for bit.

``_radius2`` adds the squares axis by axis and ``gaussian`` subtracts its
center per axis, where the oracle sums over a trailing axis of a subtracted
point array; ``_smooth_edge`` evaluates its exponentials only inside the band
0 < t < 1, where the oracle clips t and evaluates them everywhere. The
fixtures sample on each axis's cell centers: their samples are the
evaluator at the grid points bit for bit, and never go through the cloud.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from dilatest import fixtures
from dilatest.dyadic import GridFunction
from dilatest.fixtures import _radius2, _smooth_edge, gaussian

EDGES = [-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1e-300, 2.0**-53, 0.5,
         1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 7.0, np.inf]


def _old_radius2(pts):
    return np.sum(pts * pts, axis=-1)


def _old_gaussian(pts, width, center):
    return np.exp(-_old_radius2(pts - center) / width**2)


def _old_smooth_edge(t):
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_radius2_and_gaussian_match_the_trailing_axis_sum(dim):
    rng = np.random.default_rng(dim)
    pts = rng.choice([-1.0, 1.0], size=(7, 9, dim)) * 10.0 ** rng.uniform(-4, 2, (7, 9, dim))
    pts[0, 0] = -0.0
    assert _same_bits(_radius2(list(np.moveaxis(pts, -1, 0))), _old_radius2(pts))
    for center in (0.0, -1.25, rng.normal(size=dim)):
        for width in (0.4, 1.0, 1.6):
            want = _old_gaussian(pts, width, center)
            public = pts[..., 0] if dim == 1 else pts
            assert _same_bits(gaussian(public, dim, width, center), want)


def test_smooth_edge_matches_the_clipped_formula():
    rng = np.random.default_rng(0)
    t = np.concatenate([EDGES, rng.uniform(-0.5, 1.5, 4000), rng.uniform(0.0, 2e-3, 200),
                        1.0 - rng.uniform(0.0, 2e-3, 200)])
    got = _smooth_edge(t)
    assert _same_bits(got, _old_smooth_edge(t))
    assert np.all(got[t <= 0.0] == 0.0) and not np.any(np.signbit(got))
    assert np.all(got[t >= 1.0] == 1.0)
    assert _same_bits(_smooth_edge(t.reshape(-1, 2)), _old_smooth_edge(t).reshape(-1, 2))


def test_smooth_edge_raises_no_floating_point_warning():
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        _smooth_edge(np.array(EDGES))


@pytest.mark.parametrize("dim, n", [(1, 512), (2, 64)])
def test_fixtures_through_the_helpers_match_the_old_formulas(dim, n):
    f = fixtures.fixture("mollified_step", dim, 3.0, n)
    pts = f.points() if dim == 2 else f.points()[..., None]
    want = np.prod([_old_smooth_edge((1.0 - np.abs(pts[..., a])) / 0.5 + 0.5)
                    for a in range(dim)], axis=0)
    assert np.array_equal(f.samples, want)
    g = fixtures.fixture("sine_packet", dim, 3.0, n)
    assert _same_bits(g.samples, np.sin(4.0 * pts[..., 0]) * np.exp(-_old_radius2(pts) / 4.0))


# sha256 of the members' samples rounded to float32, in draw order, recorded
# when the family was built as a list. The float64 bytes also depend on the
# platform's exp (numpy's AVX-512 kernel and libm round about 5% of values
# apart), which float32 rounding absorbs; the oracle test below pins the bits.
INDICATOR_FAMILY_DIGESTS = {
    (1, 512): "bf6f3c68bc0fe681038de63da7c2617c9a4cb1bd4dec2f9f7cdce6d3c8137889",
    (2, 64): "ff2316adfe76da59964fefb42f089d95a3b94ac67ed3be56282707d3fc1abee7",
}


@pytest.mark.parametrize("dim, n", sorted(INDICATOR_FAMILY_DIGESTS))
def test_random_indicator_family_keeps_its_recorded_members(dim, n):
    digest = hashlib.sha256()
    for f in fixtures.random_indicator_family(7, 4, dim, resolution=n):
        digest.update(f.samples.astype(np.float32).tobytes())
    assert digest.hexdigest() == INDICATOR_FAMILY_DIGESTS[dim, n]


@pytest.mark.parametrize("dim, n", sorted(INDICATOR_FAMILY_DIGESTS))
def test_random_indicator_family_is_lazy_and_draws_like_the_list_it_was(dim, n):
    fam = fixtures.random_indicator_family(7, 4, dim, 8.0, n)
    assert iter(fam) is fam  # an iterator, not a list: members are made as they are drawn
    rng = np.random.default_rng(7)
    pts = GridFunction(dim, 8.0, np.zeros((n,) * dim)).points()
    for f in fam:
        c = rng.uniform(-8.0 / 3, 8.0 / 3)
        hw = rng.uniform(0.4, 1.6)
        assert _same_bits(f.samples, fixtures.mollified_step(pts, dim, halfwidth=hw, center=c))
        assert _same_bits(f.resample(n // 2).samples,
                          fixtures.mollified_step(f.resample(n // 2).points(), dim, hw, 0.5, c))
    assert next(fam, None) is None


def _every_sampled_function(dim, n):
    """Every fixture, two random_smooth draws and a random_indicator_family."""
    fs = [fixtures.fixture(name, dim, 3.0, n) for name in fixtures.fixture_names()]
    fs += [fixtures.random_smooth(seed, dim, 3.0, n) for seed in (0, 1)]
    return fs + list(fixtures.random_indicator_family(4, 3, dim, 3.0, n))


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32), (3, 8)])
def test_samples_taken_per_axis_are_the_evaluator_at_the_points_bit_for_bit(dim, n):
    for f in _every_sampled_function(dim, n):
        assert _same_bits(f.samples, np.asarray(f.evaluator(f.points()), dtype=float))


@pytest.mark.parametrize("dim, n", [(1, 256), (2, 32), (3, 8)])
def test_resample_goes_through_the_evaluator(dim, n):
    for f in _every_sampled_function(dim, n):
        for m in (n // 2, 2 * n):  # no block means on the way down, and refining needs it
            g = f.resample(m)
            assert g.evaluator is f.evaluator
            assert _same_bits(g.samples, np.asarray(f.evaluator(g.points()), dtype=float))


@pytest.mark.parametrize("sample", [
    lambda n: fixtures.random_smooth(3, 2, 4.0, n),
    lambda n: next(fixtures.random_indicator_family(3, 1, 2, 4.0, n)),
    lambda n: fixtures.fixture("sine_packet", 2, 4.0, n),
], ids=["random_smooth", "random_indicator_family", "sine_packet"])
def test_sampling_never_builds_the_point_cloud(sample):
    # points() of a 2-D N=256 grid is an (N, N, 2) float array, 1 MiB; a path
    # through it holds it next to the samples (N, N), 3 times the samples at
    # least, while per-axis sampling holds the samples and one term of a sum
    n = 256
    cloud, samples = n * n * 2 * 8, n * n * 8
    sample(8)  # first-call allocations outside the measurement
    tracemalloc.start()
    try:
        f = sample(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.samples.shape == (n, n)
    assert peak < cloud + samples // 2, peak
