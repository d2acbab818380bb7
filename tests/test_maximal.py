import gc
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilatest import fixtures, maximal
from dilatest.dyadic import GridFunction, mixed_norm, prefix_table, table_windows, three_point_max
from dilatest.errors import InvalidExponent, MissingLevels, NonPositiveValue, PreconditionFailed
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


def brute_force_maximal(f):
    """The whole field the slow way, in any dimension: per radius every
    centered cube's clipped mean, each a slice of |f| averaged, then per point
    the largest of |f| and of the means whose centers lie within the radius
    along every axis."""
    s = np.abs(f.samples)
    n = f.resolution
    best = s.copy()
    for j in range(1, int(math.log2(n)) + 1):
        half = 2 ** (j - 1)
        means = np.empty(s.shape)
        for c in np.ndindex(s.shape):
            means[c] = s[tuple(slice(max(0, i - half), i + half + 1) for i in c)].mean()
        for i in np.ndindex(s.shape):
            near = means[tuple(slice(max(0, a - half), a + half + 1) for a in i)]
            best[i] = max(best[i], near.max())
    return best


def full_grid_maximal(f):
    """The maximal field with every radius's means taken on the whole grid:
    ``hl_maximal`` before its active boxes, kept as the reference that the
    boxes must match bit for bit."""
    n = f.resolution
    absf = np.abs(f.samples)
    pad = n // 2 + 1
    table = prefix_table(absf, 0, pad)
    idx = np.arange(n)
    reach = None
    for j in range(int(math.log2(n)), 0, -1):
        half = 2 ** (j - 1)
        cells = np.minimum(idx + half + 1, n) - np.maximum(idx - half, 0)
        local = table_windows(table, 0, pad, half, half + 1)
        for ax in range(f.dim):
            if ax:
                local = prefix_table(local, ax, half + 1)
                local = table_windows(local, ax, half + 1, half, half + 1)
            local /= np.reshape(cells, (-1,) + (1,) * (f.dim - 1 - ax))
        if reach is not None:
            local = _full_grid_dilate(reach, half, local)
        reach = local
    return f.with_samples(_full_grid_dilate(reach, 1, absf))


def _full_grid_dilate(values, step, out):
    for ax in range(values.ndim - 1):
        values = three_point_max(values, step, ax)
    return three_point_max(values, step, values.ndim - 1, out)


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


def test_maximal_2d_matches_brute_force_on_a_corner_block():
    # small integers in one corner, zero elsewhere: the active boxes touch two
    # edges, and many means tie with each other and with |f|
    samples = np.zeros((16, 16))
    samples[:5, :3] = np.random.default_rng(4).integers(-3, 4, size=(5, 3))
    f = GridFunction(2, 2.0, samples)
    mf = hl_maximal(f).samples
    for i0, i1 in np.ndindex(mf.shape):
        assert mf[i0, i1] == pytest.approx(brute_force_maximal_2d_at(f, i0, i1), rel=1e-12)


def test_maximal_3d_matches_brute_force_on_every_point():
    samples = np.zeros((8, 8, 8))
    samples[2:5, 1:3, 3:8] = np.random.default_rng(6).integers(-3, 4, size=(3, 2, 5))
    f = GridFunction(3, 2.0, samples)
    np.testing.assert_allclose(hl_maximal(f).samples, brute_force_maximal(f), rtol=1e-12)


CASES = ["box", "low edge", "high edge", "both edges", "corner", "zero", "full"]


@st.composite
def _supported_samples(draw):
    """(dim, samples): signed samples that are 0 outside a box of one of CASES."""
    dim = draw(st.integers(1, 3))
    n = 2 ** draw(st.integers(2, 6))
    case = draw(st.sampled_from(CASES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    box = []
    for _ in range(dim):
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo + 1, n))
        box.append({"box": slice(lo, hi), "low edge": slice(0, hi), "high edge": slice(lo, n),
                    "both edges": slice(0, n), "corner": slice(n - 1, n) if lo % 2 else slice(0, 1),
                    "zero": slice(0, 0), "full": slice(0, n)}[case])
    samples = np.zeros((n,) * dim)
    samples[tuple(box)] = rng.normal(size=samples[tuple(box)].shape)
    return dim, samples


@settings(max_examples=60, deadline=None)
@given(_supported_samples())
@example((2, np.pad(-np.ones((3, 2)), ((0, 13), (14, 0)))))
@example((3, np.zeros((4, 4, 4))))
@example((1, np.arange(-32.0, 32.0)))
def test_maximal_matches_the_full_grid_means_bit_for_bit(case):
    dim, samples = case
    f = GridFunction(dim, 2.0, samples)
    assert np.array_equal(hl_maximal(f).samples, full_grid_maximal(f).samples)


@settings(max_examples=60, deadline=None)
@given(_supported_samples().filter(lambda case: case[0] > 1), st.data())
@example((2, np.arange(1.0, 257.0).reshape(16, 16)), None)
@example((3, np.arange(1.0, 513.0).reshape(8, 8, 8) % 7.0), None)
def test_maximal_field_commutes_with_transposes_and_reflections(case, data):
    # the cube family is symmetric under every permutation and reflection of
    # the axes, so the field of a moved f is the moved field, up to the order
    # of the sums; the nested maxima shift rows of the last axis, where an
    # entry carried over from the neighbouring row would break the symmetry
    dim, samples = case
    if data is None:  # the examples: reverse the axes and reflect the first
        order, flips = tuple(reversed(range(dim))), (0,)
    else:
        order = tuple(data.draw(st.permutations(range(dim))))
        flips = tuple(a for a in range(dim) if data.draw(st.booleans()))

    def move(values):
        return np.flip(np.transpose(values, order), flips)

    want = move(hl_maximal(GridFunction(dim, 2.0, samples)).samples)
    got = hl_maximal(GridFunction(dim, 2.0, move(samples))).samples
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_every_table_spans_at_most_the_support_grown_by_its_radius(monkeypatch):
    # a later edit must not fall back to full-grid means on compact supports
    made = []

    def recorded(values, axis, pad):
        made.append((np.shape(values), axis))
        return prefix_table(values, axis, pad)

    monkeypatch.setattr(maximal, "prefix_table", recorded)
    n, support = 64, (slice(20, 24), slice(40, 43))
    samples = np.zeros((n, n))
    samples[support] = 1.0
    hl_maximal(GridFunction(2, 2.0, samples))
    halves = [2 ** (j - 1) for j in range(int(math.log2(n)), 0, -1)]
    # one axis-0 table of the support, then one axis-1 table per radius of the
    # partial means on the axis-0 box
    assert made[0] == ((4, 3), 0)
    assert [axis for _, axis in made[1:]] == [1] * len(halves)
    for (shape, _), half in zip(made[1:], halves):
        assert shape == (min(24 + half, n) - max(20 - half, 0), 3)


def test_overflowing_means_raise_a_typed_error_naming_the_radius():
    # 16 cells of 1e308 sum past the float range: no warning and no untyped
    # ValueError, a NonPositiveValue
    f = GridFunction(2, 2.0, np.full((16, 16), 1e308))
    with pytest.raises(NonPositiveValue, match="radius 8 cells"):
        hl_maximal(f)
    row = np.zeros((16, 16))
    row[0] = 1e308  # the columns sum to 1e308; the means along a row overflow later
    with pytest.raises(NonPositiveValue, match="radius 4 cells"):
        hl_maximal(GridFunction(2, 2.0, row))


def test_weighted_ratio_of_overflowing_means_raises_a_typed_error():
    t = WeightSequence.from_spec(Constant(1.0), 1, 2, 2.0, 32)
    f = GridFunction(2, 2.0, np.full((32, 32), 1e308))
    with pytest.raises(NonPositiveValue, match="maximal field"):
        weighted_maximal_ratio([f, f], t, 2.0, 2.0, 1.5)


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


def test_a_power_that_overflows_raises_a_typed_error_naming_sigma(monkeypatch):
    # 2-D N=16 samples of 1e200 at sigma = 2: |f| ** 2 leaves the float
    # range, which once surfaced as a RuntimeWarning and an untyped ValueError
    f = GridFunction(2, 2.0, np.full((16, 16), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPositiveValue, match=re.escape("|f| ** 2.0 leaves")):
            m_sigma(f, 2.0)
        # the root of a maximal field past the float range, as one of 1e300 at sigma = 0.5
        monkeypatch.setattr(maximal, "hl_maximal",
                            lambda g: g.with_samples(np.full((16, 16), 1e300)))
        with pytest.raises(NonPositiveValue, match=re.escape("** (1 / 0.5) leaves")):
            m_sigma(GridFunction(2, 2.0, np.ones((16, 16))), 0.5)
    monkeypatch.undo()
    assert np.allclose(m_sigma(f.with_samples(f.samples * 1e-100), 2.0).samples, 1e100,
                       rtol=1e-12)


def test_fs_ratio_constant_family_is_one():
    f = GridFunction.from_callable(lambda x: np.full_like(x, 1.5), 1, L, 256)
    assert fs_inequality_ratio([f], 2.0, 2.0, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_fs_ratio_zero_family():
    f = GridFunction(1, L, np.zeros(256))
    assert fs_inequality_ratio([f, f], 2.0, 2.0, 0.5) == 0.0


def test_fs_ratio_scale_invariant():
    fam = list(fixtures.random_indicator_family(7, 4, 1, L, 512))  # read twice
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


# (dim, halfwidth, N) of the streamed ratios against the held fields
STREAM_GRIDS = [(1, 8.0, 256), (2, 4.0, 32), (3, 4.0, 32)]


def _ratio_of_held_fields(num, den, p, q, f):
    """The two F-kind L_p(l_q) sums of the listed fields, divided."""
    cellw = f.spacing**f.dim
    return mixed_norm("F", num, p, q, cellw)[0] / mixed_norm("F", den, p, q, cellw)[0]


@pytest.mark.parametrize("dim, hw, n", STREAM_GRIDS)
def test_fs_ratio_of_a_list_or_a_generator_is_the_ratio_of_the_held_fields(dim, hw, n):
    p, q, sigma = 3.0, 1.5, 0.5
    fam = list(fixtures.random_indicator_family(5, 3, dim, hw, n))
    want = _ratio_of_held_fields([m_sigma(f, sigma).samples for f in fam],
                                 [f.samples for f in fam], p, q, fam[0])
    assert fs_inequality_ratio(fam, p, q, sigma) == want
    lazy = fixtures.random_indicator_family(5, 3, dim, hw, n)
    assert fs_inequality_ratio(lazy, p, q, sigma) == want


@pytest.mark.parametrize("dim, hw, n", STREAM_GRIDS)
def test_weighted_ratio_is_the_ratio_of_the_held_fields(dim, hw, n):
    # the family is a sequence: the ratio checks its length against the levels
    p, q, theta = 3.0, 1.5, 1.5
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), 3, dim, hw, n)
    fam = [fixtures.random_smooth(s, dim, hw, n) for s in range(3)]
    want = _ratio_of_held_fields(
        [t.level(k).samples * hl_maximal(f).samples for k, f in enumerate(fam)],
        [t.level(k).samples * f.samples for k, f in enumerate(fam)], p, q, fam[0])
    assert weighted_maximal_ratio(fam, t, p, q, theta) == want


def test_fs_ratio_of_an_empty_family_is_an_error():
    for empty in ([], fixtures.random_indicator_family(5, 0, 1, L, 256)):
        with pytest.raises(ValueError, match="at least one"):
            fs_inequality_ratio(empty, 2.0, 2.0, 0.5)


def _traced_peak(call):
    gc.collect()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_fs_ratio_holds_one_member_of_a_lazy_family_at_a_time():
    # each member and its maximal field are folded as made: four times the
    # members may not cost another field
    def ratio(count):
        fam = fixtures.random_indicator_family(9, count, 2, 4.0, 64)
        return fs_inequality_ratio(fam, 2.0, 2.0, 0.5)

    ratio(2)
    field_bytes = np.zeros((64, 64)).nbytes
    assert _traced_peak(lambda: ratio(8)) - _traced_peak(lambda: ratio(2)) < field_bytes
