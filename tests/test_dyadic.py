import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest.dyadic import (
    Box,
    DyadicCube,
    GridFunction,
    box_average,
    box_lp_average,
    cube_box,
    cubes_covering,
    expanded_cube,
    grid_axes,
    level_block_reduce,
    level_cell_count,
    prefix_table,
    window_sums,
)
from dilatest.errors import EmptyIntersection, OutOfDomain, ResolutionExceeded
from dilatest.plan import finest_level


def grid(fn, n=1024, L=8.0, dim=1):
    return GridFunction.from_callable(fn, dim, L, n)


def test_cube_box_identity_level():
    b = cube_box(DyadicCube(0, (0,)))
    assert b.lo == (0.0,) and b.hi == (1.0,)


def test_cube_box_positive_level():
    b = cube_box(DyadicCube(2, (3,)))
    assert b.lo == (0.75,) and b.hi == (1.0,)


def test_cube_box_negative_level():
    b = cube_box(DyadicCube(-1, (-1,)))
    assert b.lo == (-2.0,) and b.hi == (0.0,)


def test_expanded_cube_unit():
    b = expanded_cube(DyadicCube(0, (0,)))
    assert b.lo == (-2.0,) and b.hi == (3.0,)


def test_expanded_cube_level_one():
    b = expanded_cube(DyadicCube(1, (4,)))
    assert b.lo == (1.0,) and b.hi == (3.5,)


def test_expanded_cube_2d():
    b = expanded_cube(DyadicCube(0, (0, 0)))
    assert b.lo == (-2.0, -2.0) and b.hi == (3.0, 3.0)
    assert b.sides == (5.0, 5.0)


def test_box_average_constant():
    f = grid(lambda x: np.full_like(x, -1.5))
    assert box_average(f, Box((-3.0,), (2.0,))) == pytest.approx(1.5, rel=1e-14)


def test_box_average_linear_exact_midpoint():
    f = grid(lambda x: x)
    # midpoint rule is exact for affine integrands on aligned boxes
    assert box_average(f, Box((0.0,), (1.0,))) == pytest.approx(0.5, abs=1e-14)


def test_box_average_quadratic_oracle():
    # oracle: exact integral of x^2 over [0,1] is 1/3; midpoint error O(dx^2)
    f = grid(lambda x: x * x, n=4096)
    dx = f.spacing
    assert box_average(f, Box((0.0,), (1.0,))) == pytest.approx(1.0 / 3.0, abs=dx**2)


def test_box_lp_average_constant_any_p():
    f = grid(lambda x: np.full_like(x, 2.0))
    for p in (0.5, 1, 2, math.inf):
        assert box_lp_average(f, Box((-1.0,), (1.0,)), p) == pytest.approx(2.0)


def test_box_lp_average_quadratic_mean():
    f = grid(lambda x: x, n=4096)
    dx = f.spacing
    got = box_lp_average(f, Box((0.0,), (1.0,)), 2)
    assert got == pytest.approx(math.sqrt(1.0 / 3.0), abs=dx**2)


def test_box_lp_average_sup():
    f = grid(lambda x: (np.abs(x - 0.25) <= 0.25).astype(float))
    assert box_lp_average(f, Box((0.0,), (1.0,)), math.inf) == 1.0


def test_box_average_empty_intersection():
    f = grid(lambda x: x)
    with pytest.raises(EmptyIntersection):
        box_average(f, Box((9.0,), (10.0,)))


def test_cubes_covering_examples():
    assert {c.index for c in cubes_covering(Box((0.0,), (1.0,)), 1)} == {(0,), (1,)}
    assert {c.index for c in cubes_covering(Box((-1.0,), (1.0,)), 0)} == {(-1,), (0,)}
    assert len(cubes_covering(Box((0.0, 0.0), (1.0, 1.0)), 1)) == 4


def test_cubes_covering_resolution_guard():
    with pytest.raises(ResolutionExceeded):
        cubes_covering(Box((0.0,), (1.0,)), 8, spacing=1 / 64)


@pytest.mark.parametrize("halfwidth", [Fraction(1, 2), Fraction(4, 3), Fraction(3), Fraction(8)])
@pytest.mark.parametrize("min_cells", [1, 4])
def test_finest_level_matches_a_brute_force_search(halfwidth, min_cells):
    for n in (2, 8, 32, 64, 256, 1024, 4096, 65536):
        # the level-k side 2**-k spans N 2**-k / (2L) cells, in exact arithmetic
        fits = [k for k in range(-20, 40) if Fraction(n) / (2 * halfwidth * 2**k) >= min_cells]
        assert finest_level(float(halfwidth), n, min_cells) == max(fits), n


@pytest.mark.parametrize("min_cells, level", [(1, 1081), (4, 1079)])
def test_finest_level_of_a_subnormal_halfwidth_is_exact(min_cells, level):
    # L = 5e-324 = 2**-1074 and N = 2**8: the side 2**-k spans 2**(1081 - k)
    # cells, and the ratio N / (2 L min_cells) once overflowed to inf
    assert finest_level(5e-324, 256, min_cells) == level


def test_partition_measures():
    f = grid(lambda x: x, n=256, L=4.0)
    for k in (-2, 0, 3):
        cubes = cubes_covering(f.domain, k)
        total = sum(math.prod(cube_box(c).sides) for c in cubes)
        assert total == pytest.approx((2 * f.halfwidth) ** f.dim, rel=1e-12)
        # disjointness: count of cells covered matches the full grid
        counts = 0
        for c in cubes:
            cb = cube_box(c).intersect(f.domain)
            i0, i1 = f.index_range(cb.lo[0], cb.hi[0])
            counts += i1 - i0
        assert counts == f.resolution


def test_nesting():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(-2, 6))
        m = int(rng.integers(-40, 40))
        child = cube_box(DyadicCube(k + 1, (m,)))
        parents = [
            c
            for c in cubes_covering(child, k)
            if cube_box(c).intersect(child) is not None
        ]
        assert len(parents) == 1
        pb = cube_box(parents[0])
        assert pb.lo[0] <= child.lo[0] and child.hi[0] <= pb.hi[0]


def test_quadrature_consistency_union():
    f = grid(lambda x: np.sin(x) + 2.0, n=512)
    b1, b2 = Box((0.0,), (1.0,)), Box((1.0,), (3.0,))
    a1, a2 = box_average(f, b1), box_average(f, b2)
    union = box_average(f, Box((0.0,), (3.0,)))
    assert union == pytest.approx((1 * a1 + 2 * a2) / 3, rel=1e-12)


def test_lp_average_monotone_in_p():
    rng = np.random.default_rng(7)
    f = grid(lambda x: 0.2 + np.abs(np.sin(3 * x)), n=256)
    ps = sorted(rng.uniform(0.3, 6.0, size=5))
    b = Box((-2.0,), (2.0,))
    vals = [box_lp_average(f, b, p) for p in ps] + [box_lp_average(f, b, math.inf)]
    assert all(a <= b_ + 1e-12 for a, b_ in zip(vals, vals[1:]))


def test_block_reduce_matches_box_average():
    f = grid(lambda x: np.cos(x), n=512)
    k = 2
    means = level_block_reduce(np.abs(f.samples), f, k) / level_cell_count(f, k)
    cubes = cubes_covering(f.domain, k)
    direct = [box_average(f, cube_box(c)) for c in cubes]
    assert np.allclose(np.sort(means), np.sort(direct), rtol=1e-12)


def test_window_sums_constant_exact():
    f = grid(lambda x: np.ones_like(x), n=256, L=4.0)
    r = int(round(1.0 / f.spacing))
    sums = window_sums(f.samples, r) * f.spacing
    inner = np.abs(f.axis_centers()) <= f.halfwidth - 1.0
    assert np.allclose(sums[inner], 2.0, rtol=1e-12)


# values as the difference fields may hold them and beyond: exact zeros of
# either sign, subnormals, and magnitudes from 1e-300 to 1e300 of either sign,
# whose sums on these small arrays stay finite
_LANE_VALUES = st.builds(
    lambda magnitude, sign: sign * magnitude,
    st.one_of(st.just(0.0), st.floats(5e-324, 2.2e-308), st.floats(1e-300, 1e300)),
    st.sampled_from([1.0, -1.0]),
)


@st.composite
def _complex_pair(draw):
    """A complex array of 1-3 axes of 1-6 entries whose lanes, the real and
    the imaginary part, are two independent arrays of ``_LANE_VALUES``, one
    entry of one lane at times an infinity, as a field that overflows holds."""
    dim = draw(st.integers(1, 3), label="dim")
    shape = tuple(draw(st.lists(st.integers(1, 6), min_size=dim, max_size=dim), label="shape"))
    size = math.prod(shape)
    z = np.empty(shape, dtype=complex)
    for lane in (z.real, z.imag):
        lane[...] = np.reshape(draw(st.lists(_LANE_VALUES, min_size=size, max_size=size)), shape)
    lane = draw(st.sampled_from([None, z.real, z.imag]), label="infinite lane")
    if lane is not None:
        lane.flat[draw(st.integers(0, size - 1), label="at")] = draw(
            st.sampled_from([math.inf, -math.inf]), label="infinity")
    return z


def _assert_lane_by_lane(reduce, z):
    """``reduce`` of the complex array z holds in each lane the bytes of
    ``reduce`` of that lane alone, a float array."""
    with np.errstate(invalid="ignore"):  # inf - inf in a lane holding an infinity
        got = reduce(z)
        wants = [reduce(np.ascontiguousarray(lane)) for lane in (z.real, z.imag)]
    assert got.dtype == complex
    for part, want in zip((got.real, got.imag), wants):
        assert want.dtype == float and part.shape == want.shape
        assert np.ascontiguousarray(part).tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(z=_complex_pair(), data=st.data())
def test_complex_sums_are_the_float_sums_of_each_lane_byte_for_byte(z, data):
    # one complex reduction serves two float arrays: every add and subtract
    # works lane by lane and the halving reads the float view, so each lane
    # gets the bits of its own float call, the nan of inf - inf included
    axis = data.draw(st.integers(0, z.ndim - 1), label="axis")
    pad = data.draw(st.integers(0, 3), label="pad")
    _assert_lane_by_lane(lambda v: prefix_table(v, axis, pad), z)

    r = data.draw(st.integers(1, 4), label="radius")
    grow = data.draw(st.one_of(st.none(), st.lists(st.tuples(st.integers(0, r), st.integers(0, r)),
                                                   min_size=z.ndim, max_size=z.ndim)), label="grow")
    _assert_lane_by_lane(lambda v: window_sums(v, r, grow), z)


def test_interp_identity_and_outside():
    f = grid(lambda x: np.sin(x), n=256)
    c = f.axis_centers()
    assert np.allclose(f.interp(c), f.samples, rtol=0, atol=1e-15)
    with pytest.raises(OutOfDomain):
        f.interp(np.array([9.0]))
    vals, mask = f.interp_masked(np.array([0.3, 9.0]))
    assert mask.tolist() == [True, False] and vals[1] == 0.0


def _reference_interp(f, pts, corner_sum=False):
    """Linear (1-D) and bilinear (2-D) interpolation written out per dimension:
    clamped lower index and weight per axis, then in 2-D the nested linear
    steps, along x and then along y, or with ``corner_sum`` the explicit sum of
    the four corner terms; and the box test per point."""
    pts = np.asarray(pts, dtype=float)
    n, dx, L = f.resolution, f.spacing, f.halfwidth
    u = (pts + L) / dx - 0.5
    i0 = np.clip(np.floor(u).astype(np.int64), 0, n - 2)
    w = np.clip(u - i0, 0.0, 1.0)
    s = f.samples
    if f.dim == 1:
        return (1.0 - w) * s[i0] + w * s[i0 + 1], np.abs(pts) <= L
    ix, iy = i0[..., 0], i0[..., 1]
    wx, wy = w[..., 0], w[..., 1]
    if corner_sum:
        vals = (
            s[ix, iy] * (1 - wx) * (1 - wy)
            + s[ix + 1, iy] * wx * (1 - wy)
            + s[ix, iy + 1] * (1 - wx) * wy
            + s[ix + 1, iy + 1] * wx * wy
        )
    else:
        below = s[ix, iy] * (1 - wx) + s[ix + 1, iy] * wx
        above = s[ix, iy + 1] * (1 - wx) + s[ix + 1, iy + 1] * wx
        vals = below * (1 - wy) + above * wy
    return vals, np.all(np.abs(pts) <= L, axis=-1)


@pytest.mark.parametrize("dim, n, L", [(1, 256, 8.0), (1, 64, 3.0), (2, 64, 4.0), (2, 32, 3.0)])
def test_interp_matches_the_linear_and_bilinear_formulas_bit_for_bit(dim, n, L):
    rng = np.random.default_rng(7 + dim)
    f = GridFunction(dim, L, rng.standard_normal((n,) * dim))
    shape = (5, 37) if dim == 1 else (5, 37, 2)
    inside = rng.uniform(-L, L, size=shape)
    outside = rng.uniform(-1.5 * L, 1.5 * L, size=shape)  # about a third leave the box
    lattice = f.points() + 0.25 * f.spacing
    for pts in (inside, outside, lattice, f.points()):
        want, mask = _reference_interp(f, pts)
        assert np.array_equal(f._interp_clamped(pts), want)
        got, got_mask = f.interp_masked(pts)
        assert np.array_equal(got, np.where(mask, want, 0.0))
        assert np.array_equal(got_mask, mask) and np.array_equal(f.in_domain(pts), mask)
        if mask.all():
            assert np.array_equal(f.interp(pts), want)
        else:
            with pytest.raises(OutOfDomain):
                f.interp(pts)
        # the corner-sum formula differs from the nested steps only in round-off
        corners, _ = _reference_interp(f, pts, corner_sum=True)
        assert np.max(np.abs(want - corners)) <= 1e-14 * np.max(np.abs(f.samples))
    assert not _reference_interp(f, outside)[1].all()
    point = inside[0, 0]  # a single point in the public layout
    assert np.array_equal(f.interp(point), _reference_interp(f, point)[0])


def test_grid_2d_average():
    f = grid(lambda p: p[..., 0] + 0 * p[..., 1], n=128, L=2.0, dim=2)
    assert box_average(f, Box((0.0, -1.0), (1.0, 1.0))) == pytest.approx(
        0.5, abs=1e-12
    )


@pytest.mark.parametrize("dim, n, coarse", [(1, 64, 8), (2, 32, 4), (3, 16, 8)])
def test_resample_of_sampled_data_takes_block_means_bit_for_bit(dim, n, coarse):
    rng = np.random.default_rng(dim)
    shape = (n,) * dim
    f = GridFunction(dim, 3.0, rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape))
    c = n // coarse
    blocks = f.samples.reshape(sum(((coarse, c) for _ in range(dim)), ()))
    g = f.resample(coarse)
    assert (g.dim, g.halfwidth, g.evaluator) == (dim, 3.0, None)
    assert np.array_equal(g.samples, blocks.mean(axis=tuple(range(1, 2 * dim, 2))))
    with pytest.raises(ValueError):
        f.resample(2 * n)


@pytest.mark.parametrize("halfwidth", [math.nan, math.inf, -math.inf, 0.0])
@pytest.mark.parametrize("build", [lambda hw: GridFunction(1, hw, np.zeros(8)),
                                   lambda hw: grid_axes(1, hw, 8)],
                         ids=["GridFunction", "grid_axes"])
def test_a_halfwidth_that_is_not_a_positive_finite_number_is_a_value_error(build, halfwidth):
    # nan and inf once passed, giving a spacing of nan or inf
    with pytest.raises(ValueError, match="halfwidth must be positive and finite"):
        build(halfwidth)
