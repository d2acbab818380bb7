"""Cube scans that build each table once give the numbers of the per-family formula.

The scans build one first-axis table per weight array and exponent and read
it for every level and shift, skip a shift family that repeats an earlier
one's cells, and ``hl_maximal`` reads one padded axis-0 table for every
radius and nests three-point maxima from the widest radius down. The oracles
here are the formulas before that: a fresh ``w**r`` and a fresh prefix table
per family, all three shifts scanned, and one box reduction and one running
maximum by window doubling per radius. Every sum adds the same numbers in the
same order and every max selects one of them, so the comparisons are exact.
"""

import functools
import gc
import math
import tracemalloc

import numpy as np
import pytest

from dilatest.dyadic import GridFunction, box_reduce, range_table
from dilatest.maximal import hl_maximal
from dilatest.norms import SpaceParams
from dilatest.weights import (
    SHIFT_FRACTIONS,
    CubeFamily,
    GeometricLevel,
    Power,
    WeightSequence,
    ap_constant,
    cube_families,
    cube_power_means,
    power_table,
    scan_levels,
    weight_grid,
    xclass_check,
)

EXPONENTS = [1.0, -1.0, -3.0, 2.5, math.inf, -math.inf]
GRIDS = [(1, 8.0, 1024), (2, 4.0, 64), (1, 4.0 / 3.0, 256), (2, 4.0 / 3.0, 32)]


def _fresh_box_reduce(values, lo, hi, op):
    """Per axis, a prefix table with a leading zero (or ``reduceat`` on the
    array plus one spare slice) built for this one call."""
    out = np.asarray(values, dtype=float)
    for axis in range(out.ndim):
        n = out.shape[axis]
        a, b = np.clip(lo, 0, n), np.minimum(np.maximum(hi, np.clip(lo, 0, n)), n)
        at = (slice(None),) * axis
        if op in ("sum", "mean"):
            shape = list(out.shape)
            shape[axis] = n + 1
            table = np.zeros(shape)
            np.cumsum(out, axis=axis, out=table[at + (slice(1, None),)])
            out = table.take(b, axis) - table.take(a, axis)
            if op == "mean":
                out = out / np.reshape(b - a, (-1,) + (1,) * (out.ndim - 1 - axis))
            continue
        padded = np.concatenate([out, out[at + (slice(0, 1),)]], axis)
        ufunc, empty = (np.maximum, -np.inf) if op == "max" else (np.minimum, np.inf)
        starts = np.stack([a, b], axis=-1).ravel()
        out = ufunc.reduceat(padded, starts, axis=axis)[at + (slice(0, None, 2),)]
        out = np.where(np.reshape(b > a, (-1,) + (1,) * (out.ndim - 1 - axis)), out, empty)
    return out


def _family(w: GridFunction, k, shift):
    """Every nonempty cube of the shifted level-k tiling, a repeat of an earlier
    shift's cells or not, with its cells snapped by ``index_range``."""
    side = 2.0**-k
    ms = np.arange(math.floor(-w.halfwidth / side - shift) - 1,
                   math.ceil(w.halfwidth / side - shift) + 1)
    lo, hi = w.index_range((ms + shift) * side, (ms + 1 + shift) * side)
    keep = hi > lo
    return CubeFamily(k, shift, lo[keep], hi[keep], ms[keep])


def _fresh_means(w: GridFunction, k, shift, r):
    """M_{Q,r}(w) over one shifted family from a fresh w**r, and the cube indices."""
    _, _, lo, hi, ms = _family(w, k, shift)
    cubes = ms[np.indices((len(lo),) * w.dim).reshape(w.dim, -1).T]
    if math.isinf(r):
        return _fresh_box_reduce(w.samples, lo, hi, "max" if r > 0 else "min").ravel(), cubes
    sums = _fresh_box_reduce(w.samples**r, lo, hi, "sum").ravel()
    counts = functools.reduce(np.multiply.outer, [hi - lo] * w.dim).ravel()
    return (sums / counts) ** (1.0 / r), cubes


def _weight(dim, halfwidth, n, seed=0):
    rng = np.random.default_rng(seed + dim * n)
    return GridFunction(dim, halfwidth, np.exp(0.8 * rng.normal(size=(n,) * dim)))


@pytest.mark.parametrize("dim, halfwidth, n", GRIDS)
def test_shared_power_tables_give_the_fresh_per_family_means_bit_for_bit(dim, halfwidth, n):
    w = _weight(dim, halfwidth, n)
    for r in EXPONENTS:
        table = power_table(w.samples, r)
        for k in scan_levels(w, 8):
            for fam in cube_families(w, k):
                means = cube_power_means(table, fam, r)
                want, cubes = _fresh_means(w, k, fam.shift, r)
                assert np.array_equal(means.ravel(), want), (r, k, fam.shift)
                assert np.array_equal(fam.indices[np.indices(means.shape).reshape(w.dim, -1).T],
                                      cubes)


def _running_max(values, radius, axis):
    """Max over the window [i - radius, i + radius] along one axis, clipped to the
    array: padded with -inf to full windows of w = 2 radius + 1, doubled to spans
    of the largest power of two p <= w, and two such spans cover each window."""
    n = values.shape[axis]
    width = 2 * radius + 1
    at = (slice(None),) * axis
    shape = list(values.shape)
    shape[axis] = n + 2 * radius
    a = np.full(shape, -np.inf)
    a[at + (slice(radius, radius + n),)] = values
    span = 1
    while 2 * span <= width:
        a = np.maximum(a[at + (slice(None, -span),)], a[at + (slice(span, None),)])
        span *= 2
    return np.maximum(a[at + (slice(0, n),)], a[at + (slice(width - span, width - span + n),)])


@pytest.mark.parametrize("dim, halfwidth, n", GRIDS)
def test_hl_maximal_equals_one_box_mean_per_radius_bit_for_bit(dim, halfwidth, n):
    f = GridFunction(dim, halfwidth, np.random.default_rng(n).normal(size=(n,) * dim))
    absf = np.abs(f.samples)
    want = absf.copy()
    idx = np.arange(n)
    for j in range(1, int(math.log2(n)) + 1):
        half = 2 ** (j - 1)
        local = _fresh_box_reduce(absf, idx - half, idx + half + 1, "mean")
        for ax in range(dim):
            local = _running_max(local, half, ax)
        want = np.maximum(want, local)
    assert np.array_equal(hl_maximal(f).samples, want)


def test_box_reduce_reads_a_first_axis_table_like_its_array():
    values = np.random.default_rng(2).random((9, 9)) + 0.1
    lo, hi = np.array([-2, 0, 3, 7]), np.array([1, 4, 3, 12])
    for op in ("sum", "min", "max"):
        table = range_table(values, 0, op)
        assert table.op == op
        assert np.array_equal(box_reduce(table, lo, hi), _fresh_box_reduce(values, lo, hi, op)), op
    for op in ("mean", "median"):
        with pytest.raises(ValueError):
            range_table(values, 0, op)


# -- the scans against brute force over all three shifts -------------------------------


def _brute_ap(gamma: GridFunction, p, depth, resolutions):
    """The A_p scan with fresh means for every level and all three shifts."""
    r = -math.inf if p == 1.0 else -1.0 / (p - 1.0)
    trace = []
    for res in resolutions:
        g = gamma.resample(res)
        best = -math.inf
        for k in scan_levels(g, depth):
            for shift in SHIFT_FRACTIONS:
                mean, idx = _fresh_means(g, k, shift, 1.0)
                ratio = mean / _fresh_means(g, k, shift, r)[0]
                j = int(np.argmax(ratio))
                if ratio[j] > best:
                    best = float(ratio[j])
                    arg = (k, tuple(int(x) for x in idx[j]), shift)
        trace.append((res, best))
    return trace, arg


def _brute_xclass(t: WeightSequence, sp: SpaceParams, j_max, depths):
    """Running sups of C1 and C2 per fine level with fresh means and all three shifts."""
    c1 = [-math.inf] * (j_max + 1)
    c2 = [-math.inf] * (j_max + 1)
    for lev in scan_levels(t.grid, j_max):
        for shift in SHIFT_FRACTIONS:
            mp, ms1, ms2 = (
                [_fresh_means(t.level(kw), lev, shift, r)[0] for kw in range(j_max + 1)]
                for r in (sp.p, -sp.sigma1, sp.sigma2)
            )
            for j in range(j_max + 1):
                for k in range(j + 1):
                    v1 = mp[k] / ms1[j] * 2.0 ** (-sp.alpha[0] * (k - j))
                    v2 = ms2[j] / mp[k] * 2.0 ** (-sp.alpha[1] * (j - k))
                    c1[j] = max(c1[j], float(v1.max()))
                    c2[j] = max(c2[j], float(v2.max()))
    return [(d, max(c1[: d + 1]), max(c2[: d + 1])) for d in depths]


SCANS = [(2, 4.0, 256), (1, 8.0, 512)]


def _skips_a_family(g: GridFunction, depth):
    return any(len(cube_families(g, k)) < len(SHIFT_FRACTIONS) for k in scan_levels(g, depth))


@pytest.mark.parametrize("dim, halfwidth, n", SCANS)
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_ap_constant_equals_the_scan_over_all_three_shifts(dim, halfwidth, n, p):
    for gamma in (
        _weight(dim, halfwidth, n, seed=7),
        weight_grid(Power(0.6), 0, dim, halfwidth, n),
    ):
        assert _skips_a_family(gamma, 6)
        rep = ap_constant(gamma, p, depth=6)
        trace, (k, m, shift) = _brute_ap(gamma, p, 6, [res for res, _ in rep.trace])
        assert rep.trace == trace
        assert rep.constant == trace[-1][1]
        assert (rep.argmax_cube.level, rep.argmax_cube.index, rep.argmax_shift) == (k, m, shift)


# cube levels up to 3 reach the finest grid level only on the coarser grids
@pytest.mark.parametrize(
    "dim, halfwidth, n, skips",
    [case + (False,) for case in SCANS] + [(2, 4.0, 64, True), (1, 8.0, 128, True)],
)
@pytest.mark.parametrize("theta, sigma2", [(1.5, 2.0), (1.0, 3.0)])
def test_xclass_check_equals_the_scan_over_all_three_shifts(dim, halfwidth, n, skips, theta,
                                                            sigma2):
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), 3, dim, halfwidth, n)
    assert _skips_a_family(t.grid, 3) == skips
    sp = SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.7), theta=theta, sigma2=sigma2)
    rep = xclass_check(t, sp, depth=6)
    assert rep.trace == _brute_xclass(t, sp, 3, [d for d, _, _ in rep.trace])
    assert (rep.c1, rep.c2) == rep.trace[-1][1:]


# -- metamorphic: the cube conditions do not see a power-of-two scale ------------------


@pytest.mark.parametrize("dim, halfwidth, n", [(1, 8.0, 512), (2, 4.0, 64)])
@pytest.mark.parametrize("m", [-3, 5])
def test_scaling_the_weight_by_a_power_of_two_leaves_the_cube_constants(dim, halfwidth, n, m):
    w = _weight(dim, halfwidth, n, seed=3)
    scaled = w.with_samples(2.0**m * w.samples)
    for p in (1.0, 4.0 / 3.0, 2.0, 3.0):
        a, b = ap_constant(w, p, depth=6).constant, ap_constant(scaled, p, depth=6).constant
        assert b == pytest.approx(a, rel=1e-13, abs=0), p
    rng = np.random.default_rng(dim)
    levels = [w.with_samples(2.0 ** (0.6 * k) * np.exp(0.7 * rng.normal(size=(n,) * dim)))
              for k in range(4)]
    sp = SpaceParams("B", 2.0, 2.0, 2, (0.3, 0.9), theta=1.5, sigma2=3.0)
    a = xclass_check(WeightSequence(levels), sp, depth=3)
    b = xclass_check(WeightSequence([g.with_samples(2.0**m * g.samples) for g in levels]),
                     sp, depth=3)
    assert b.c1 == pytest.approx(a.c1, rel=1e-13, abs=0)
    assert b.c2 == pytest.approx(a.c2, rel=1e-13, abs=0)


# -- the tables are locals of one call ---------------------------------------------------


@pytest.mark.parametrize(
    "scan",
    [
        lambda w, t: ap_constant(w, 2.0, depth=6),
        lambda w, t: xclass_check(t, SpaceParams("B", 2.0, 2.0, 2, (0.3, 0.9), theta=1.5),
                                  depth=3),
        lambda w, t: hl_maximal(w),
    ],
    ids=["ap_constant", "xclass_check", "hl_maximal"],
)
@pytest.mark.parametrize("dim", [1, 2])
def test_scan_call_leaves_no_garbage_and_no_growth(scan, dim):
    n = 512 if dim == 1 else 64
    w = _weight(dim, 4.0, n, seed=5)
    t = WeightSequence([w.with_samples(2.0**k * w.samples) for k in range(4)])
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    scan(w, t)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([arrays])
        for _ in range(10):
            scan(w, t)
        after = tracemalloc.take_snapshot().filter_traces([arrays])
        garbage = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert garbage == 0
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < w.samples.nbytes
