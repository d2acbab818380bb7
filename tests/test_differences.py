import functools
import gc
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest import differences, fixtures
from dilatest.differences import (
    _h_axis,
    _h_nodes,
    _lead_next,
    _shift,
    delta_avg_cube,
    delta_avg_expanded,
    delta_avg_window,
    delta_cube_field,
    delta_expanded_field,
    delta_fields,
    delta_m,
    delta_window_field,
    difference_coefficients,
)
from dilatest.dyadic import (
    Box,
    GridFunction,
    finest_level,
    level_block_reduce,
    level_cell_count,
    level_cube_count,
    range_table,
    table_reduce,
    window_sums,
)
from dilatest.errors import OutOfDomain


def grid(fn, n=4096, L=8.0, dim=1):
    return GridFunction.from_callable(fn, dim, L, n)


def first_index(f, k):
    """Dyadic index of the level-k cube at the lower domain corner, where the
    cube fields start along each axis."""
    return int(round(-f.halfwidth * 2.0**k))


# -- independent oracle: dense double quadrature straight from the closed form


def oracle_double_average(fn, x_lo, x_hi, h_half, order, normalization, nx=1200, nh=1200):
    xs = x_lo + (np.arange(nx) + 0.5) * (x_hi - x_lo) / nx
    hs = -h_half + (np.arange(nh) + 0.5) * (2 * h_half) / nh
    coeffs = [((-1) ** j * math.comb(order, j), order - j) for j in range(order + 1)]
    total = 0.0
    for h in hs:
        acc = 0.0
        for c, mult in coeffs:
            acc = acc + c * fn(xs + mult * h)
        total += np.sum(np.abs(acc))
    dx = (x_hi - x_lo) / nx
    dh = 2 * h_half / nh
    return total * dx * dh / normalization


def test_delta_m_linear_first_difference():
    f = grid(lambda x: x, n=1024)
    for h in (0.1, 0.37, -0.5):
        for x in (0.0, 1.3, -2.7):
            assert delta_m(f, 1, h, x) == pytest.approx(h, rel=1e-12)


def test_delta_m_quadratic_second_difference_aligned():
    f = grid(lambda x: x * x, n=1024)
    h = 16 * f.spacing  # aligned displacement: interpolation is exact here
    got = delta_m(f, 2, h, f.axis_centers()[400])
    assert got == pytest.approx(2 * h * h, rel=1e-12)


def test_delta_m_annihilates_low_degree():
    # constants and affine functions are reproduced exactly by the linear
    # interpolant, so low orders annihilate to round-off
    fc = grid(lambda x: np.full_like(x, 3.7), n=512)
    fl = grid(lambda x: 2.0 * x - 1.0, n=512)
    assert abs(delta_m(fc, 1, 0.3, 0.2)) < 1e-12
    assert abs(delta_m(fl, 2, 0.29, -1.1)) < 1e-12
    # quadratics under order 3 hit the interpolation floor, not round-off
    fq = grid(lambda x: x * x, n=4096)
    assert abs(delta_m(fq, 3, 0.173, 0.51)) < 1e-3


def test_delta_m_out_of_domain():
    f = grid(lambda x: x, n=256, L=2.0)
    with pytest.raises(OutOfDomain):
        delta_m(f, 2, 1.5, 0.0)


def test_recursion_identity():
    # relative to the stencil magnitude: the identity is a cancellation, so the
    # result itself can be arbitrarily small compared to the summed terms
    f = grid(lambda x: np.sin(1.7 * x) + 0.3 * x, n=2048)
    rng = np.random.default_rng(3)
    for order in (1, 2, 3):
        for _ in range(10):
            x = float(rng.uniform(-3, 3))
            h = float(rng.uniform(-0.4, 0.4))
            lhs = delta_m(f, order + 1, h, x)
            rhs = delta_m(f, order, h, x + h) - delta_m(f, order, h, x)
            stencil = sum(
                abs(math.comb(order + 1, j) * f.interp(x + (order + 1 - j) * h))
                for j in range(order + 2)
            )
            assert abs(lhs - rhs) / max(stencil, 1e-30) < 1e-12


def test_delta_avg_cube_constant_and_linear():
    fc = grid(lambda x: np.full_like(x, 5.0), n=1024)
    assert delta_avg_cube(fc, Box((0.0,), (1.0,)), 1) == 0.0
    fl = grid(lambda x: 3.0 * x, n=1024)
    assert delta_avg_cube(fl, Box((0.0,), (1.0,)), 2) == pytest.approx(0.0, abs=1e-10)


def test_delta_avg_cube_quadratic_frozen_oracle():
    # oracle: (1/1) int_{-1}^{1} int_0^1 |2xh + h^2| dx dh = 9/8 exactly;
    # dense-quadrature oracle agrees with the closed form
    oracle = oracle_double_average(lambda x: x * x, 0.0, 1.0, 1.0, 1, 1.0)
    assert oracle == pytest.approx(9.0 / 8.0, rel=2e-3)
    f = grid(lambda x: x * x)
    got = delta_avg_cube(f, Box((0.0,), (1.0,)), 1)
    assert got == pytest.approx(9.0 / 8.0, rel=5e-3)


def test_delta_avg_window_slope_matches_order():
    f = grid(np.sin)
    for order, tol in ((1, 0.1), (2, 0.2)):
        v3 = delta_avg_window(f, 0.7, 3, order)
        v4 = delta_avg_window(f, 0.7, 4, order)
        slope = math.log2(v4 / v3)
        assert abs(slope + order) < tol


def test_delta_avg_expanded_against_oracle():
    f = grid(np.sin)
    got = delta_avg_expanded(f, 2, 0, 1)
    # expanded cube of Q_{2,0} is (-0.5, 0.75), h over (-0.25, 0.25),
    # normalization (5/4)^2
    oracle = oracle_double_average(np.sin, -0.5, 0.75, 0.25, 1, 1.25**2)
    assert got == pytest.approx(oracle, rel=5e-3)


def test_homogeneity_under_dilation():
    lam = 2.0
    f = grid(lambda x: np.exp(-(x**2)), n=4096)
    g = grid(lambda x: np.exp(-((lam * x) ** 2)), n=4096)
    rng = np.random.default_rng(9)
    for _ in range(12):
        x = float(rng.uniform(-1.5, 1.5))
        h = float(rng.uniform(-0.3, 0.3))
        lhs = delta_m(g, 2, h, x)
        rhs = delta_m(f, 2, lam * h, lam * x)
        assert lhs == pytest.approx(rhs, abs=2e-4)


def test_window_field_matches_pointwise_op():
    f = grid(lambda x: np.exp(-(x**2)) * np.sin(3 * x), n=1024)
    k, order = 3, 2
    field, flagged = delta_window_field(f, k, order)
    centers = f.axis_centers()
    for i in (200, 512, 700):
        assert not flagged[i]
        assert field[i] == pytest.approx(
            delta_avg_window(f, centers[i], k, order), rel=1e-9
        )


def test_cube_field_matches_pointwise_op():
    f = grid(lambda x: np.exp(-(x**2)) * np.cos(2 * x), n=1024)
    k, order = 2, 1
    values, flagged = delta_cube_field(f, k, order)
    m0 = first_index(f, k)
    for j in (10, 31, 40):
        m = m0 + j
        box = Box((m * 2.0**-k,), ((m + 1) * 2.0**-k,))
        if not flagged[j]:
            assert values[j] == pytest.approx(delta_avg_cube(f, box, order), rel=1e-9)


def test_expanded_field_matches_pointwise_op():
    f = grid(lambda x: np.exp(-(x**2)), n=1024)
    k, order = 2, 2
    values, flagged = delta_expanded_field(f, k, order)
    m0 = first_index(f, k)
    j = len(values) // 2 + 3  # an interior cube
    assert not flagged[j]
    assert values[j] == pytest.approx(
        delta_avg_expanded(f, k, m0 + j, order), rel=1e-9
    )


def test_window_vs_expanded_cube_bounded_ratio():
    # averaging the moving-window functional over a cube stays within a fixed
    # dimensional factor of the expanded-cube functional
    f = grid(np.sin, n=2048)
    order = 1
    for k in (2, 3):
        win, _ = delta_window_field(f, k, order)
        cubes, flags = delta_expanded_field(f, k, order)
        win_avg = level_block_reduce(win, f, k) / level_cell_count(f, k)
        keep = (~flags) & (cubes > 1e-12)
        ratio = win_avg[keep] / cubes[keep]
        assert np.all(ratio < 100.0) and np.all(ratio > 0.01)


# -- every field against its scalar oracle, boundary entries included


def _oracle_grid(dim):
    if dim == 1:
        return grid(lambda x: np.exp(-((x - 0.3) ** 2)) * np.cos(2 * x), n=256, L=4.0)
    return grid(
        lambda p: np.exp(-(p[..., 0] ** 2) - 0.5 * p[..., 1] ** 2) * np.sin(p[..., 0] + 0.7),
        n=64,
        L=4.0,
        dim=2,
    )


def _probe_entries(n, dim):
    """Corner, edge-adjacent, edge-middle and interior indices of an n^dim array."""
    picks = [(0,) * dim, (1,) * dim, (n - 1,) * dim, (n // 2,) * dim]
    if dim == 2:
        picks += [(0, n // 2), (n - 1, 1), (n // 2, n - 2)]
    return picks


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("order", [1, 2])
def test_fields_match_scalar_oracles_everywhere(dim, k, order):
    f = _oracle_grid(dim)
    c = f.axis_centers()
    side = 2.0**-k
    window, wflag = delta_window_field(f, k, order)
    cube, cflag = delta_cube_field(f, k, order)
    expanded, eflag = delta_expanded_field(f, k, order)
    m0 = first_index(f, k)
    seen_flags = set()
    for idx in _probe_entries(f.resolution, dim):
        want = delta_avg_window(f, tuple(c[i] for i in idx), k, order)
        assert window[idx] == pytest.approx(want, rel=1e-12)
        seen_flags.add(bool(wflag[idx]))
    for idx in _probe_entries(cube.shape[0], dim):
        m = tuple(m0 + j for j in idx)
        box = Box(tuple(mi * side for mi in m), tuple((mi + 1) * side for mi in m))
        assert cube[idx] == pytest.approx(delta_avg_cube(f, box, order), rel=1e-12)
        want = delta_avg_expanded(f, k, m if dim == 2 else m[0], order)
        assert expanded[idx] == pytest.approx(want, rel=1e-12)
        seen_flags.update((bool(cflag[idx]), bool(eflag[idx])))
    assert seen_flags == {True, False}


# -- the separable-shift kernel against the point-cloud gather it replaced


def _tiles(f, k):
    nc = 2 * f.halfwidth * 2.0**k
    return abs(nc - round(nc)) < 1e-9


def _reference_fields(f, k, orders):
    """(values, flags) of every field and order, from the gather the kernel replaced.

    Each node interpolates the whole point cloud with ``interp_masked`` once
    per stencil multiple and sums reduce(|Delta_h^M f| * mask) and
    reduce(mask) over the nodes; the cube tile sums reduce the node sums of
    |Delta_h^M f| * mask and of mask instead. Normalizations and flags follow
    the field definitions.
    """
    a, n = 2.0**-k, f.dim
    r = int(round(a / f.spacing))
    fields = {  # name: (reduction, normalization, extra flag from the cell counts, once)
        "window": (
            lambda v: window_sums(v, r),
            2.0 ** (-2 * k * n),
            lambda cells: ~np.isclose(cells, (2 * r) ** n, rtol=1e-12),
            False,
        )
    }
    if _tiles(f, k):
        c = level_cell_count(f, k)
        j = np.arange(level_cube_count(f, k))

        def expanded(v):
            for ax in range(n):
                v = table_reduce(range_table(v, ax), (j - 2) * c, (j + 3) * c)
            return v

        fields["cube"] = (lambda v: level_block_reduce(v, f, k), a ** (2 * n), None, True)
        fields["expanded"] = (expanded, (5 * a) ** (2 * n), lambda cells: cells < (5 * c) ** n,
                              False)
    nodes, w_h = _h_nodes(a, f.spacing, n)
    pts = f.points()
    sums = {(name, m): [0.0, 0.0] for name in fields for m in orders}
    for h in nodes:
        shifted = [f.interp_masked(pts + mult * h) for mult in range(max(orders) + 1)]
        for m in orders:
            acc, valid = 0.0, np.ones(f.samples.shape, dtype=bool)
            for coeff, mult in difference_coefficients(m):
                acc = acc + coeff * shifted[mult][0]
                valid &= shifted[mult][1]
            for name, (red, _, _, once) in fields.items():
                red = (lambda v: v) if once else red
                s = sums[name, m]
                s[0] = s[0] + red(np.abs(acc) * valid)
                s[1] = s[1] + red(valid.astype(float))
    out = {}
    for (name, m), (num, valid) in sums.items():
        red, norm, extra, once = fields[name]
        if once:
            num, valid = red(num), red(valid)
        cells = red(np.ones(f.samples.shape))
        total = len(nodes) * cells
        with np.errstate(invalid="ignore", divide="ignore"):
            renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
        flags = valid < total - 1e-9
        if extra is not None:
            flags = flags | extra(cells)
        out[name, m] = (w_h * f.spacing**n * num * renorm / norm, flags)
    return out


def _kernel_grid(dim, L, n):
    if dim == 1:
        return grid(lambda x: np.exp(-((x - 0.3) ** 2)) * np.cos(2 * x), n=n, L=L)
    return grid(
        lambda p: np.exp(-(p[..., 0] ** 2) - 0.5 * p[..., 1] ** 2) * np.sin(p[..., 0] + 0.7),
        n=n,
        L=L,
        dim=2,
    )


def _kernel_cases():
    """(dim, L, N) and k: every level on the 1-D configs grid and on 2-D N=64,
    the finer levels on the 2-D ladder grid (N=128, whose coarse levels take
    half a minute in the gather), and dx = 1/24 (L = 4/3 in 1-D, the same
    lattice on L = 2/3 in 2-D), where the capped node step of k = 0 is off
    the half-cell lattice and the cubes do not tile, so only the window exists.
    """
    cases = [((1, 8.0, 1024), k) for k in range(4)]
    cases += [((2, 4.0, 64), k) for k in range(4)]
    cases += [((2, 4.0, 128), k) for k in (2, 3)]
    cases += [((1, 4.0 / 3.0, 64), k) for k in range(4)]
    cases += [((2, 2.0 / 3.0, 32), k) for k in (0, 3)]
    return [pytest.param(g, k, id=f"{g[0]}d-L{g[1]:.3g}-N{g[2]}-k{k}") for g, k in cases]


@pytest.mark.parametrize("geometry, k", _kernel_cases())
def test_shift_kernel_matches_gather(geometry, k):
    # the shifts keep interp's float steps, so 2-D agrees exactly as well
    f = _kernel_grid(*geometry)
    field = {
        "window": delta_window_field,
        "cube": delta_cube_field,
        "expanded": delta_expanded_field,
    }
    want = _reference_fields(f, k, (1, 2, 3))
    assert {name for name, _ in want} == (set(field) if _tiles(f, k) else {"window"})
    for (name, m), (values, flags) in want.items():
        got = field[name](f, k, m)
        np.testing.assert_array_equal(got[0], values)
        np.testing.assert_array_equal(got[1], flags)


def _node_sums_per_node_stencils(fs, k, order, reduces):
    """The node loop before its stencil table and its functions axis: one
    loop per function, every node asks ``axis_stencil`` for each recomputed
    axis, sums the terms from 0.0 with every coefficient multiplied, scales
    the mult = 0 term per node, masks |Delta_h^M f| by the outer product of
    the per-axis in-domain tests, and tile-sums the node sum of the masked
    fields."""
    return [_one_node_sums_per_node_stencils(f, k, order, reduces) for f in fs]


def _one_node_sums_per_node_stencils(f, k, order, reduces):
    axis_nodes, dh = _h_axis(2.0 ** (-k), f.spacing)
    coeffs, mults = zip(*difference_coefficients(order))
    dim = f.dim
    i0, w, _ = f.axis_stencil([0.0])
    still = f.samples
    for a in range(dim):
        still = _shift(still if a == 0 else _lead_next(still), i0[0], w[0])
    moved = [[f.samples] * (len(mults) - 1)] + [None] * (dim - 1)
    inside = [None] * dim
    count = 0
    nums = [0.0] * len(reduces)
    last = (None,) * dim
    for node in itertools.product(range(len(axis_nodes)), repeat=dim):
        first = next(a for a in range(dim) if node[a] != last[a])
        last = node
        for a in range(first, dim):
            i0, w, ok = f.axis_stencil(np.multiply(mults[:-1], axis_nodes[node[a]]))
            inside[a] = np.logical_and.reduce(ok)
            if a == 0:
                count = count + inside[0]
            if a + 1 < dim:
                moved[a + 1] = [
                    _lead_next(_shift(v, i0[j], w[j])) for j, v in enumerate(moved[a])
                ]
                continue
            acc = 0.0
            for j, v in enumerate(moved[a]):
                v = _shift(v, i0[j], w[j])
                v *= coeffs[j]
                acc = acc + v
            acc = acc + still * coeffs[-1]
        g = np.abs(np.moveaxis(acc, 0, -1), order="C")
        g *= functools.reduce(np.logical_and.outer, inside)
        nums = [num + (g if once else reduce(g)) for num, (reduce, once) in zip(nums, reduces)]
    out = []
    for num, (reduce, once) in zip(nums, reduces):
        if once:
            num = reduce(num)
        cells = reduce(np.ones(f.samples.shape))
        valid = reduce(functools.reduce(np.multiply.outer, [count.astype(float)] * dim))
        total = len(axis_nodes) ** dim * cells
        with np.errstate(invalid="ignore", divide="ignore"):
            renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
        out.append((dh**dim * f.spacing**dim * num * renorm, valid < total - 1e-9, cells))
    return out


@pytest.mark.parametrize("k", [0, 1])
def test_node_loop_matches_per_node_stencils_on_the_ladder_grid(k, monkeypatch):
    # the coarse levels of the 2-D ladder grid, which the gather above skips
    f = _kernel_grid(2, 4.0, 128)
    fields = (delta_window_field, delta_cube_field)
    got = [field(f, k, 2) for field in fields]
    monkeypatch.setattr(differences, "_node_sums", _node_sums_per_node_stencils)
    for field, have in zip(fields, got):
        want = field(f, k, 2)
        np.testing.assert_array_equal(have[0], want[0])
        np.testing.assert_array_equal(have[1], want[1])


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("geometry", [(1, 4.0, 256), (2, 2.0, 32), (3, 1.0, 16)],
                         ids=["1d", "2d", "3d"])
def test_cube_field_agrees_with_per_node_tile_sums(geometry, order, monkeypatch):
    # the cube kind tiles the node sum of |Delta_h^M f| once; tiling each
    # node's field and summing the tiles adds the same terms >= 0 in another
    # order: 1e-14 relative at every entry, the far tails of the smooth f
    # included
    dim, halfwidth, n = geometry
    f = fixtures.random_smooth(order, dim, halfwidth, n)
    levels = range(finest_level(halfwidth, n) + 1)
    got = [delta_cube_field(f, k, order) for k in levels]
    node_sums = differences._node_sums
    monkeypatch.setattr(differences, "_node_sums", lambda fs, k, order, reduces: node_sums(
        fs, k, order, [(reduce, False) for reduce, _ in reduces]))
    for k, (values, flags) in zip(levels, got):
        want, want_flags = delta_cube_field(f, k, order)
        np.testing.assert_allclose(values, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(flags, want_flags)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from(
        [(1, 1.0, 32), (1, 2.0, 64), (1, 4.0, 128), (2, 1.0, 16), (2, 2.0, 16), (3, 1.0, 8)]
    ),
    order=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_joint_fields_equal_the_separate_calls_byte_for_byte(geometry, order, seed):
    # one node loop feeds both reductions, each adding its node terms in node
    # order: not close, the same bytes, boundary-clipped entries included
    dim, halfwidth, n = geometry
    f = GridFunction(dim, halfwidth, np.random.default_rng(seed).standard_normal((n,) * dim))
    field = {
        "window": delta_window_field,
        "cube": delta_cube_field,
        "expanded": delta_expanded_field,
    }
    for k in range(finest_level(halfwidth, n) + 1):
        alone = {kind: call(f, k, order) for kind, call in field.items()}
        assert alone["window"][1].any()  # the edge windows are clipped
        for kinds in (("window", "cube"), ("window", "expanded")):
            for kind, (values, flags) in zip(kinds, delta_fields([f], k, order, kinds)[0]):
                assert _same_bytes(values, alone[kind][0]), (k, kinds, kind)
                assert _same_bytes(flags, alone[kind][1]), (k, kinds, kind)


@settings(max_examples=40, deadline=None)
@given(
    geometry=st.sampled_from(
        [(1, 1.0, 32), (1, 2.0, 64), (2, 1.0, 16), (2, 2.0, 16), (3, 1.0, 8)]
    ),
    count=st.integers(1, 4),
    order=st.integers(1, 3),
    kinds=st.lists(st.sampled_from(["window", "cube", "expanded"]), min_size=1, max_size=3,
                   unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_fields_of_several_functions_equal_the_one_function_calls(
    geometry, count, order, kinds, seed
):
    # the node loop shares the stencil rows across the functions; each
    # function's fields are the same bytes as its own call, flags included
    dim, halfwidth, n = geometry
    rng = np.random.default_rng(seed)
    fs = [GridFunction(dim, halfwidth, rng.standard_normal((n,) * dim)) for _ in range(count)]
    field = {
        "window": delta_window_field,
        "cube": delta_cube_field,
        "expanded": delta_expanded_field,
    }
    for k in range(finest_level(halfwidth, n) + 1):
        joint = delta_fields(fs, k, order, kinds)
        assert len(joint) == count
        for f, per_kind in zip(fs, joint):
            for kind, (values, flags) in zip(kinds, per_kind):
                alone = field[kind](f, k, order)
                assert _same_bytes(values, alone[0]), (k, kind)
                assert _same_bytes(flags, alone[1]), (k, kind)


@pytest.mark.parametrize(
    "other",
    [
        lambda f: GridFunction(f.dim, 2.0 * f.halfwidth, f.samples),
        lambda f: GridFunction(f.dim, f.halfwidth, f.samples[::2]),
        lambda f: GridFunction(2, f.halfwidth, np.outer(f.samples, f.samples)),
    ],
    ids=["halfwidth", "resolution", "dim"],
)
def test_functions_on_different_grids_raise_value_error(other):
    f = GridFunction(1, 2.0, np.random.default_rng(0).standard_normal(64))
    with pytest.raises(ValueError, match="one grid"):
        delta_fields([f, other(f)], 1, 2, ("window",))


@functools.lru_cache(maxsize=None)
def _oracle_fields(dim, k, order):
    f = _oracle_grid(dim)
    return f, delta_window_field(f, k, order)[0], delta_cube_field(f, k, order)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    k=st.integers(0, 2),
    order=st.integers(1, 2),
    data=st.data(),
)
def test_fields_match_scalar_oracles_at_random_entries(dim, k, order, data):
    f, window, (cube, _) = _oracle_fields(dim, k, order)
    m0 = first_index(f, k)
    c = f.axis_centers()
    i = tuple(data.draw(st.integers(0, n - 1)) for n in window.shape)
    assert window[i] == pytest.approx(
        delta_avg_window(f, tuple(c[j] for j in i), k, order), rel=1e-12
    )
    m = tuple(m0 + data.draw(st.integers(0, n - 1)) for n in cube.shape)
    side = 2.0**-k
    box = Box(tuple(mi * side for mi in m), tuple((mi + 1) * side for mi in m))
    assert cube[tuple(mi - m0 for mi in m)] == pytest.approx(
        delta_avg_cube(f, box, order), rel=1e-12
    )


@pytest.mark.parametrize(
    "field",
    [
        delta_window_field,
        delta_cube_field,
        delta_expanded_field,
        pytest.param(
            lambda f, k, order: delta_fields([f, f], k, order, ("window", "cube")),
            id="delta_fields-window-cube",
        ),
    ],
)
@pytest.mark.parametrize("dim", [1, 2])
def test_field_call_leaves_no_garbage_and_no_growth(field, dim):
    # buffers held by a reference cycle live until the cyclic collector runs:
    # with it off they show as array memory that repeated calls pile up
    f = _oracle_grid(dim)
    arrays = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    field(f, 2, 2)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot().filter_traces([arrays])
        for _ in range(10):
            field(f, 2, 2)
        after = tracemalloc.take_snapshot().filter_traces([arrays])
        garbage = gc.collect()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert garbage == 0
    growth = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
    assert growth < f.samples.nbytes


@pytest.mark.parametrize(
    "call",
    [
        lambda f: delta_window_field(f, 2, 2),
        lambda f: delta_cube_field(f, 2, 2),
        lambda f: delta_expanded_field(f, 2, 3),
        lambda f: window_sums(f.samples, 3),
        lambda f: delta_fields([f, f], 2, 2, ("window", "expanded")),
    ],
    ids=["window", "cube", "expanded", "window_sums", "window+expanded"],
)
@pytest.mark.parametrize("dim", [1, 2])
def test_calls_leave_their_input_unchanged(call, dim):
    # the fields keep f(x + 0*h) and slice views of the samples across nodes;
    # read-only samples turn any in-place write into an error
    f = _oracle_grid(dim)
    before = f.samples.copy()
    f.samples.flags.writeable = False
    call(f)
    call(f)
    assert np.array_equal(f.samples, before)
