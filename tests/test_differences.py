import functools
import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest import differences, fixtures
from dilatest.cli import parse_config
from dilatest.dilation import dilate
from dilatest.differences import (
    _h_axis,
    _h_nodes,
    _slice_rows,
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
    level_block_reduce,
    level_cell_count,
    support_box,
    window_sums,
)
from dilatest.errors import ConfigError, NonPositiveValue, OutOfDomain, ResolutionExceeded
from dilatest.plan import WINDOW_CELLS, finest_level


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


def _tiling_levels(f):
    """Every level whose cubes tile the grid's domain, from one cube per axis
    to cubes of one cell."""
    return range(-int(math.log2(2 * f.halfwidth)), finest_level(f.halfwidth, f.resolution) + 1)


def _expanded_oracle_cases():
    """Every tiling level and M = 1..3 on a 1-D and a 2-D grid, and the 1-D
    Gaussian at L=8, N=4096, k=3, M=2."""
    fs = [_oracle_grid(1), grid(lambda p: np.exp(-(p[..., 0] ** 2) - 0.5 * p[..., 1] ** 2)
                                * np.sin(p[..., 0] + 0.7), n=16, L=2.0, dim=2)]
    cases = [pytest.param(f, k, order,
                          id=f"{f.dim}d-L{f.halfwidth:g}-N{f.resolution}-k{k}-M{order}")
             for f in fs for k in _tiling_levels(f) for order in (1, 2, 3)]
    gaussian = grid(lambda x: np.exp(-(x**2)))  # L=8, N=4096
    return cases + [pytest.param(gaussian, 3, 2, id="gaussian-1d-L8-N4096-k3-M2")]


@pytest.mark.parametrize("f, k, order", _expanded_oracle_cases())
def test_every_expanded_entry_matches_its_scalar_oracle(f, k, order):
    # the expanded sums add five tile sums per axis, so the tails keep their
    # digits: prefix-table differences lost every digit of 35 of the 128
    # entries of the 1-D Gaussian at L=8, N=4096, k=3, M=2
    values, _ = delta_expanded_field(f, k, order)
    m0 = first_index(f, k)
    want = [delta_avg_expanded(f, k, tuple(m0 + j for j in idx), order)
            for idx in np.ndindex(values.shape)]
    np.testing.assert_allclose(values.ravel(), want, rtol=1e-13, atol=0.0)


# -- the separable-shift kernel against the point-cloud gather it replaced


def _tiles(f, k):
    nc = 2 * f.halfwidth * 2.0**k
    return abs(nc - round(nc)) < 1e-9


def _units(values, dim, order, spacing):
    """The node units of the sweep over the tensor product of the node
    values ``values`` of an axis, in the row-major order of their first
    node: (h, -h) when M h is a whole number of cells on every axis and -h
    is a node as well, else (h,); a node is a tuple of value indices."""
    values = [float(x) for x in values]
    twin = [values.index(-x) if -x in values and (order * x / spacing).is_integer() else None
            for x in values]
    units = []
    for node in itertools.product(range(len(values)), repeat=dim):
        mirror = tuple(twin[i] for i in node)
        if None in mirror:
            units.append((node,))
        elif node < mirror:
            units.append((node, mirror))
    return units


def _sweep_order(values, dim, order, spacing):
    """Every node in the order the sweep adds it: unit by unit, each mirror
    right after its node."""
    return [node for unit in _units(values, dim, order, spacing) for node in unit]


def _paired(coeffs, term):
    """sum_j coeffs[j] * term(j) in the sweep's stencil order: for each
    j < M/2 the products of j and M - j added, these pairs summed in turn
    from 0.0, then the middle product of an even M."""
    m = len(coeffs) - 1
    acc = 0.0
    for j in range(m // 2 + 1):
        part = coeffs[j] * term(j)
        if j < m - j:
            part = part + coeffs[m - j] * term(m - j)
        acc = acc + part
    return acc


def _reference_fields(f, k, orders):
    """(values, flags) of every field and order, from the gather the kernel replaced.

    Each node interpolates the whole point cloud with ``interp_masked`` once
    per stencil multiple, sums the stencil in the sweep's order and adds
    reduce(|Delta_h^M f| * mask) and reduce(mask) to the sums in the
    sweep's node order, each mirror -h evaluated from its own points; the
    cube tile sums and the expanded sums,
    each expanded cube's 5^n neighbouring tile sums, reduce the node sums
    of |Delta_h^M f| * mask and of mask instead. Normalizations and flags
    follow the field definitions.
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

        def expanded(v):
            # cube by cube, the tile sums of the cubes j - 2..j + 2 along each
            # axis that the domain holds, summed from 0.0 in index order along
            # axis 0, then those sums along axis 1, and so on
            tiles = level_block_reduce(v, f, k)

            def along(j, ax):
                if ax == 0:
                    return tiles[j]
                s = 0.0
                for d in range(-2, 3):
                    i = j[ax - 1] + d
                    if 0 <= i < tiles.shape[ax - 1]:
                        s = s + along(j[:ax - 1] + (i,) + j[ax:], ax - 1)
                return s

            return np.array([along(j, n) for j in np.ndindex(tiles.shape)]).reshape(tiles.shape)

        fields["cube"] = (lambda v: level_block_reduce(v, f, k), a ** (2 * n), None, True)
        fields["expanded"] = (expanded, (5 * a) ** (2 * n), lambda cells: cells < (5 * c) ** n,
                              True)
    nodes, w_h = _h_nodes(a, f.spacing, n)
    axis_values = _h_axis(a, f.spacing)[0]
    pts = f.points()
    sums = {(name, m): [0.0, 0.0] for name in fields for m in orders}
    shifted = {}  # per node, f at pts + mult * h for every mult
    for m in orders:
        coeffs = [coeff for coeff, _ in difference_coefficients(m)]
        for node in _sweep_order(axis_values, n, m, f.spacing):
            if node not in shifted:
                h = axis_values[list(node)]
                shifted[node] = [f.interp_masked(pts + mult * h) for mult in range(max(orders) + 1)]
            terms = shifted[node]
            acc = _paired(coeffs, lambda j: terms[m - j][0])
            valid = np.logical_and.reduce([ok for _, ok in terms[:m + 1]])
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
    and the finer levels on the 2-D ladder grid (N=128, whose coarse levels
    take half a minute in the gather).
    """
    cases = [((1, 8.0, 1024), k) for k in range(4)]
    cases += [((2, 4.0, 64), k) for k in range(4)]
    cases += [((2, 4.0, 128), k) for k in (2, 3)]
    return [pytest.param(g, k, id=f"{g[0]}d-L{g[1]:.3g}-N{g[2]}-k{k}") for g, k in cases]


@pytest.mark.parametrize("geometry, k", _kernel_cases())
def test_shift_kernel_matches_gather(geometry, k):
    # the half-cell slices are interp's own float steps, so 2-D agrees exactly as well
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


def _shift(v, i0, w):
    """interp's nested step along the leading axis: (1 - w) v[i0] + w v[i0 + 1] per row."""
    w = np.reshape(w, (-1,) + (1,) * (v.ndim - 1))
    out = v.take(i0, 0)
    out *= 1.0 - w
    hi = v.take(i0 + 1, 0)
    hi *= w
    out += hi
    return out


def _lead_next(v):
    """The array with its next axis leading, C-contiguous."""
    return np.ascontiguousarray(v.transpose(*range(1, v.ndim), 0))


def _axis_stencil(f, shifts):
    """Per shift, interp's clamped step at the centers of one axis moved by
    it, (i0, w) for ``_shift``, and the in-domain test |x_j + shift| <= L."""
    u, ok = f.axis_units(shifts)
    return (*f._clamped_weights(u), ok)


def _whole(reduce, values):
    """A field kind's reduction of an array that covers the whole grid."""
    return reduce(values, [tuple(slice(0, n) for n in values.shape)])[0][1]


def _node_sums_per_node_stencils(fs, k, order, reduces):
    """The node loop as interpolating shifts, with neither half-cell slices
    nor a stencil table nor a functions axis nor a field shared by a node
    and its mirror: one loop per function, every node, in the sweep's
    order, shifts the samples along one axis after another, asking
    ``_axis_stencil`` for each axis, multiplies every term by its
    coefficient, the mult = 0 term per node, sums them in the sweep's
    stencil order, masks |Delta_h^M f| by the outer product of the
    per-axis in-domain tests, and tile-sums the node sum of the masked
    fields. It holds on any grid, on the half-cell lattice or off it."""
    return [_one_node_sums_per_node_stencils(f, k, order, reduces) for f in fs]


def _one_node_sums_per_node_stencils(f, k, order, reduces):
    axis_nodes, dh = _h_axis(2.0 ** (-k), f.spacing)
    coeffs, mults = zip(*difference_coefficients(order))
    dim = f.dim
    i0, w, _ = _axis_stencil(f, [0.0])
    still = f.samples
    for a in range(dim):
        still = _shift(still if a == 0 else _lead_next(still), i0[0], w[0])
    count = sum(np.logical_and.reduce(_axis_stencil(f, np.multiply(mults[:-1], x))[2])
                for x in axis_nodes)
    nums = [0.0] * len(reduces)
    for node in _sweep_order(axis_nodes, dim, order, f.spacing):
        moved, inside = [f.samples] * (len(mults) - 1), []
        for a, i in enumerate(node):
            i0, w, ok = _axis_stencil(f, np.multiply(mults[:-1], axis_nodes[i]))
            inside.append(np.logical_and.reduce(ok))
            moved = [_shift(v, i0[j], w[j]) for j, v in enumerate(moved)]
            if a + 1 < dim:
                moved = [_lead_next(v) for v in moved]
        terms = moved + [still]
        acc = _paired(coeffs, lambda j: terms[j])
        g = np.abs(np.moveaxis(acc, 0, -1), order="C")
        g *= functools.reduce(np.logical_and.outer, inside)
        nums = [num + (g if once else _whole(reduce, g))
                for num, (reduce, once) in zip(nums, reduces)]
    out = []
    for num, (reduce, once) in zip(nums, reduces):
        if once:
            num = _whole(reduce, num)
        cells = _whole(reduce, np.ones(f.samples.shape))
        valid = _whole(reduce, functools.reduce(np.multiply.outer, [count.astype(float)] * dim))
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


def _tiles_of_box(reduce, f):
    """The tile sums ``reduce`` of the whole grid, taken of one pair's box
    set into a grid of zeros at each of its placements (what runs past the
    grid left out, as it is 0 in the lane read there), so that they can be
    summed node by node; the grid takes the values' dtype, so a complex
    pair of fields keeps both."""
    def tiles(values, boxes):
        out = []
        for box in boxes:
            grid = np.zeros(f.samples.shape, dtype=values.dtype)
            inside = tuple(slice(max(s.start, 0), min(s.stop, n)) for s, n in zip(box, grid.shape))
            grid[inside] = values[tuple(slice(i.start - s.start, i.stop - s.start)
                                        for i, s in zip(inside, box))]
            out.append(((slice(None),) * f.dim, _whole(reduce, grid)))
        return out
    return tiles


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
        fs, k, order, [(_tiles_of_box(reduce, f), False) for reduce, _ in reduces]))
    for k, (values, flags) in zip(levels, got):
        want, want_flags = delta_cube_field(f, k, order)
        np.testing.assert_allclose(values, want, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(flags, want_flags)


def _same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# -- the active-box sweep against the dense sweep it replaced


def _node_sums_dense(fs, k, order, reduces):
    """The node loop before active boxes and mirror units: every node, in
    the sweep's order, evaluates |Delta_h^M f| from its own stencil rows on
    all its kept centers, summed in the sweep's stencil order, sets that
    into a field of the whole grid, zeroes the rows outside the kept
    centers, and reduces the whole field; the tile sums reduce the node sum
    of those fields."""
    f = fs[0]
    axis_values, dh = _h_axis(2.0 ** (-k), f.spacing)
    coeffs = [coeff for coeff, _ in difference_coefficients(order)]
    dim = f.dim
    table = differences._slice_rows(f.halfwidth, f.resolution, k, order)
    count = np.zeros(f.resolution)
    for row in table:
        count[row[1]] += 1
    nodes = _sweep_order(axis_values[:len(table)], dim, order, f.spacing)
    result = []
    for g in fs:
        arrays = differences._half_cell_arrays(g.samples)
        nums = [None] * len(reduces)
        for node in nodes:
            rows = [table[i] for i in node]
            kept = tuple(row[1] for row in rows)

            def term(j):
                if j == order:
                    return g.samples[kept]
                term = arrays[sum(row[0][j][0] << a for a, row in enumerate(rows))]
                return term[tuple(slice(s.start + row[0][j][1], s.stop + row[0][j][1])
                                  for s, row in zip(kept, rows))]

            acc = _paired(coeffs, term)
            view = np.empty(g.samples.shape)
            view[kept] = np.abs(acc)
            for a, s in enumerate(kept):
                view[(slice(None),) * a + (slice(None, s.start),)] = 0.0
                view[(slice(None),) * a + (slice(s.stop, None),)] = 0.0
            for r, (reduce, once) in enumerate(reduces):
                part = view if once else _whole(reduce, view)
                nums[r] = part if nums[r] is None else nums[r] + part
        own = []
        for num, (reduce, once) in zip(nums, reduces):
            if once:
                num = _whole(reduce, num)
            cells = _whole(reduce, np.ones(g.samples.shape))
            valid = _whole(reduce, functools.reduce(np.multiply.outer, [count] * dim))
            total = len(table) ** dim * cells
            with np.errstate(invalid="ignore", divide="ignore"):
                renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
            own.append((dh**dim * f.spacing**dim * num * renorm, valid < total - 1e-9, cells))
        result.append(own)
    return result


def _dense_fields(fs, k, order, kinds, node_sums=_node_sums_dense):
    """``delta_fields`` through ``node_sums``, ``_node_sums_dense`` unless given."""
    parts = [differences._reduction(fs[0], k, kind) for kind in kinds]
    sums = node_sums(fs, k, order, [(reduce, once) for reduce, once, _ in parts])
    return [[finish(*s) for (_, _, finish), s in zip(parts, own)] for own in sums]


# -- the sweep before mirror units, to bound how far they move the values


def _box_field_parent(arrays, still, terms, box, coeffs, out=None):
    """One node's field as before mirror units: its stencil terms summed
    j = 0..M, the first one unscaled and ``still`` last."""
    for j, coeff in enumerate(coeffs[:-1]):
        term = arrays[sum(axis[j][0] << a for a, axis in enumerate(terms))]
        term = term[tuple(axis[j][1] for axis in terms)]
        if j == 0:
            acc = term.copy()
        else:
            acc += term * coeff
    acc += still[box]
    return np.abs(acc, out=acc if out is None else out)


def _node_sums_parent(fs, k, order, reduces):
    """The sweep before mirror units: every active node evaluated on its
    own (``_box_field_parent``), in row-major order, two nodes at a time as
    the lanes of one complex field for the window sums."""
    f = fs[0]
    _, dh = _h_axis(2.0 ** (-k), f.spacing)
    coeffs = [coeff for coeff, _ in difference_coefficients(order)]
    dim = f.dim
    table = differences._slice_rows(f.halfwidth, f.resolution, k, order)
    count = np.zeros(f.resolution)
    for row in table:
        count[row[1]] += 1
    out = []
    for reduce, _ in reduces:
        cells = _whole(reduce, np.ones(f.samples.shape))
        valid = _whole(reduce, functools.reduce(np.multiply.outer, [count] * dim))
        total = len(table) ** dim * cells
        with np.errstate(invalid="ignore", divide="ignore"):
            renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
        out.append((renorm, valid < total - 1e-9, cells))

    def sweep(g):
        arrays, still = differences._half_cell_arrays(g.samples), g.samples * coeffs[-1]
        active = []
        for s0, s1 in support_box(g.samples):
            active.append([])
            for terms, kept, (below, above), _ in table:
                lo, hi = max(kept.start, s0 - below), min(kept.stop, s1 + above)
                if lo < hi:
                    active[-1].append((slice(lo, hi), [(half, slice(lo + shift, hi + shift))
                                                      for half, shift in terms]))
        own = [np.zeros(cells.shape) for _, _, cells in out]
        field = np.zeros(g.samples.shape) if any(once for _, once in reduces) else None
        paired = not all(once for _, once in reduces)
        nodes = itertools.product(*active)
        for pair in iter(lambda: list(itertools.islice(nodes, 2)), []):
            boxes = [tuple(s for s, _ in node) for node in pair]
            dests = [None] * len(pair)
            if paired:
                union = tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                              for axis in zip(*boxes))
                lanes = np.zeros(tuple(u.stop - u.start for u in union), dtype=complex)
                dests = [lane[tuple(slice(s.start - u.start, s.stop - u.start)
                                    for s, u in zip(box, union))]
                         for lane, box in zip((lanes.real, lanes.imag), boxes)]
            for node, box, dest in zip(pair, boxes, dests):
                view = _box_field_parent(arrays, still, [terms for _, terms in node], box,
                                         coeffs, dest)
                if field is not None:
                    field[box] += view
            for (reduce, once), num in zip(reduces, own):
                if not once:
                    ((at, s),) = reduce(lanes, [union])
                    num[at] += s.real
                    num[at] += s.imag
        return [_whole(reduce, field) if once else num for num, (reduce, once) in zip(own, reduces)]

    return [[(dh**dim * f.spacing**dim * num * renorm, lost, cells)
             for num, (renorm, lost, cells) in zip(sweep(g), out)] for g in fs]


def _parent_cases():
    """The 1-D Gaussian at L=8, N=4096, whose fine-level differences cancel
    four digits and more; random samples at 1-D L=2, N=64; on the 2-D
    ladder grid (L=4, N=128) the kernel grid's function; a 2-D mollified
    step, kept on a box; and a 3-D random smooth function."""
    return [pytest.param(f, id=name) for name, f in [
        ("gaussian-1d-L8-N4096", grid(lambda x: np.exp(-(x**2)))),
        ("random-1d-L2-N64",
         GridFunction(1, 2.0, np.random.default_rng(35).standard_normal(64))),
        ("ladder-2d-L4-N128", _kernel_grid(2, 4.0, 128)),
        ("mollified_step-2d-L2-N32", fixtures.fixture("mollified_step", 2, 2.0, 32)),
        ("random_smooth-3d-L1-N16", fixtures.random_smooth(3, 3, 1.0, 16)),
    ]]


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("f", _parent_cases())
def test_mirror_units_move_the_parent_sweep_by_round_off_only(f, order):
    # the units sum each stencil and the nodes in another order than the
    # parent sweep, so every kind at every level moves by round-off: at most
    # 1e-12 of the level's largest value, or, where the level's differences
    # cancel to their own round-off, one ulp of the stencil's terms (up to
    # 2^M max|f|) through a kind's normalization (at most 4^n). The floor
    # decides at the one-cell level of M = 2, whose field is round-off and
    # moves by all of it, and on the Gaussian's fine levels, which moved by
    # up to 4.1e-12 of a level's largest value at the levels a norm reads
    # (M = 4, k = 6) and 2.9e-11 at its one-cell level; every move stayed
    # within 1/8 of the floor. Flags do not move
    kinds = ("window", "cube", "expanded")
    floor = np.finfo(float).eps * 2.0**order * np.max(np.abs(f.samples)) * 4.0**f.dim
    for k in range(finest_level(f.halfwidth, f.resolution) + 1):
        got = delta_fields([f], k, order, kinds)[0]
        want = _dense_fields([f], k, order, kinds, _node_sums_parent)[0]
        for kind, (values, flags), (parent, parent_flags) in zip(kinds, got, want):
            assert _same_bytes(flags, parent_flags), (k, kind)
            bound = max(1e-12 * np.max(np.abs(parent)), floor)
            assert np.max(np.abs(values - parent)) <= bound, (k, kind)


def _boxed(data, dim, n, shape):
    """Standard normal samples kept on one random box, 0 elsewhere, the box
    drawn as ``shape`` asks: anywhere, on an axis's lower or upper edge, one
    cell wide on an axis, or empty."""
    if shape == "zero":
        return np.zeros((n,) * dim)
    bounds = []
    for a in range(dim):
        lo = data.draw(st.integers(0, n - 1), label=f"lo{a}")
        hi = data.draw(st.integers(lo + 1, n), label=f"hi{a}")
        bounds.append([lo, hi])
    a = data.draw(st.integers(0, dim - 1), label="axis")
    if shape == "lower":
        bounds[a][0] = 0
    elif shape == "upper":
        bounds[a][1] = n
    elif shape == "narrow":
        bounds[a][1] = bounds[a][0] + 1
    elif shape == "inside":  # off every face, as ``dilate`` asks of an f it may clip
        bounds = [[max(lo, 1), min(max(hi, lo + 2), n - 1)] for lo, hi in bounds]
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    samples = np.zeros((n,) * dim)
    box = tuple(slice(lo, hi) for lo, hi in bounds)
    samples[box] = np.random.default_rng(seed).standard_normal(samples[box].shape)
    return samples


@settings(max_examples=25, deadline=None)
@given(
    geometry=st.sampled_from(
        [(1, 1.0, 32), (1, 2.0, 64), (2, 1.0, 16), (2, 0.5, 16), (3, 2.0, 8), (3, 1.0, 8)]
    ),
    order=st.integers(1, 3),
    shapes=st.lists(st.sampled_from(["any", "lower", "upper", "narrow", "zero", "dilated"]),
                    min_size=1, max_size=2),
    data=st.data(),
)
def test_active_box_sweep_is_the_dense_sweep_byte_for_byte(geometry, order, shapes, data):
    # functions zero outside a box, and dilations, whose samples beyond L/lam
    # are 0: evaluating and reducing each node on its active box only gives
    # every kind's values and flags, at every level, the dense sweep's bytes
    dim, halfwidth, n = geometry
    fs = []
    for shape in shapes:
        f = GridFunction(dim, halfwidth, _boxed(data, dim, n, "inside" if shape == "dilated"
                                                else shape))
        if shape == "dilated":
            f, _ = dilate(f, data.draw(st.sampled_from([1.5, 2.0, 4.0]), label="lambda"))
        fs.append(f)
    kinds = ("window", "cube", "expanded")
    for k in range(finest_level(halfwidth, n) + 1):
        got = delta_fields(fs, k, order, kinds)
        want = _dense_fields(fs, k, order, kinds)
        for f_got, f_want in zip(got, want):
            for kind, (values, flags), (want_values, want_flags) in zip(kinds, f_got, f_want):
                assert _same_bytes(values, want_values), (k, kind)
                assert _same_bytes(flags, want_flags), (k, kind)


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("name, geometry", [("bump", (1, 4.0, 64)),
                                            ("mollified_step", (2, 2.0, 32)),
                                            ("mollified_step", (3, 2.0, 16))],
                         ids=["1d", "2d", "3d"])
def test_an_odd_count_of_active_nodes_is_the_dense_sweep_byte_for_byte(
        name, geometry, order, monkeypatch):
    # the sweep reduces the units in pairs, and an odd count leaves the last
    # unit alone, in a pair whose second lane is empty. On the grids the
    # parser accepts every axis has an even count of node values, each
    # value's mirror among them, and every node with kept centers reads the
    # support: with the last node value left out of the stencil table, the
    # sweep and the dense sweep both run an odd count of nodes at every
    # level, an odd count of units where each node is a unit of its own
    # (odd M, one node per cell), and elsewhere nodes of the first value,
    # whose mirror is gone, alone, next to mirrored units
    dim, halfwidth, n = geometry
    rows = differences._slice_rows
    monkeypatch.setattr(differences, "_slice_rows", lambda *args: rows(*args)[:-1])
    fields = []  # one entry per field evaluated
    box_field = differences._box_field
    monkeypatch.setattr(differences, "_box_field",
                        lambda *args: fields.append(1) or box_field(*args))
    f = fixtures.fixture(name, dim, halfwidth, n)
    kinds = ("window", "cube", "expanded")
    for k in range(finest_level(halfwidth, n) + 1):
        fields.clear()
        got = delta_fields([f], k, order, kinds)[0]
        values = _h_axis(2.0**-k, f.spacing)[0][:-1]
        units = _units(values, dim, order, f.spacing)
        assert len(fields) == len(units), k
        assert len(values) ** dim % 2 == 1
        assert any(len(unit) == 1 for unit in units), k
        for kind, (values, flags), (want_values, want_flags) in zip(
                kinds, got, _dense_fields([f], k, order, kinds)[0]):
            assert _same_bytes(values, want_values), (k, kind)
            assert _same_bytes(flags, want_flags), (k, kind)


def _terms_on(row, box):
    """A stencil row's terms on ``box``, a slice of its kept centers on one
    axis: (0 for the samples or 1 for the half cells, slice) per point."""
    return [(half, slice(box.start + shift, box.stop + shift)) for half, shift in row[0]]


@settings(max_examples=30, deadline=None)
@given(
    geometry=st.sampled_from(
        [(1, 1.0, 128), (1, 8.0, 64), (2, 1.0, 16), (2, 2.0, 16), (3, 1.0, 8), (3, 2.0, 8)]
    ),
    order=st.integers(1, 4),
    shape=st.sampled_from(["full", "any", "lower", "upper", "narrow", "zero", "bump",
                           "mollified_step"]),
    data=st.data(),
)
def test_a_mirror_node_reads_its_node_field_moved_by_m_h(geometry, order, shape, data):
    # |Delta_(-h) f(x)| = |Delta_h f(x - M h)| byte for byte at every node
    # whose M h is a whole number of cells: -h's kept centers are h's moved
    # by M h, and both the kernel's field and the scalar difference give -h
    # there the bytes of h, each from its own stencil points (1-D L=1,
    # N=128 has levels of 32 nodes on 128 and 64 cells, where odd M mirrors
    # too). A level of one node per cell with odd M, where x + M h is no
    # center, has no mirror, so each node is a unit of its own and the
    # window sums, two units a call, run once per pair of nodes, and a level
    # with mirrors once per four. The sweep, which adds each node's field at
    # its mirror's box too, is the dense sweep of every node on its own,
    # byte for byte
    dim, halfwidth, n = geometry
    if shape in ("bump", "mollified_step"):
        f = fixtures.fixture(shape, dim, halfwidth, n)
    elif shape == "full":
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        f = GridFunction(dim, halfwidth, np.random.default_rng(seed).standard_normal((n,) * dim))
    else:
        f = GridFunction(dim, halfwidth, _boxed(data, dim, n, shape))
    coeffs = [coeff for coeff, _ in difference_coefficients(order)]
    arrays, still = differences._half_cell_arrays(f.samples), f.samples * coeffs[-1]
    centers = f.points()
    kinds = ("window", "cube", "expanded")
    for k in range(finest_level(halfwidth, n) + 1):
        table = _slice_rows(halfwidth, n, k, order)
        values = _h_axis(2.0**-k, f.spacing)[0]
        one_per_cell = len(values) == round(2.0 ** (1 - k) / f.spacing)
        assert all(row[3] is None for row in table) == (order % 2 == 1 and one_per_cell), k
        for node in itertools.product(range(len(values)), repeat=dim):
            rows = [table[i] for i in node]
            if rows[0][3] is None or any(row[1].start >= row[1].stop for row in rows):
                continue
            by = [row[0][0][1] for row in rows]  # the mult = M term reads the samples there
            assert by == [order * values[i] / f.spacing for i in node]
            box = tuple(row[1] for row in rows)
            mirror = [table[row[3]] for row in rows]
            moved = tuple(slice(s.start + d, s.stop + d) for s, d in zip(box, by))
            assert tuple(row[1] for row in mirror) == moved
            here = differences._box_field(arrays, still, [_terms_on(row, s)
                                                          for row, s in zip(rows, box)],
                                          box, coeffs)
            there = differences._box_field(arrays, still, [_terms_on(row, s)
                                                           for row, s in zip(mirror, moved)],
                                           moved, coeffs)
            assert _same_bytes(here, there), (k, node)
            h = values[list(node)]
            x = centers[box].reshape(-1) if dim == 1 else centers[box].reshape(-1, dim)
            assert _same_bytes(np.abs(delta_m(f, order, -h, x + order * h)),
                               np.abs(delta_m(f, order, h, x))), (k, node)
        calls = {"fields": 0, "window_sums": 0}

        def counted(name, call):
            def run(*args):
                calls[name] += 1
                return call(*args)
            return run

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(differences, "_box_field", counted("fields", differences._box_field))
            patch.setattr(differences, "window_sums", counted("window_sums", window_sums))
            got = delta_fields([f], k, order, kinds)[0]
        if shape == "full":  # every node with kept centers is active
            kept = [i for i, row in enumerate(table) if row[1].start < row[1].stop]
            units = _units(values[kept], dim, order, f.spacing)
            assert calls["fields"] == len(units) == len(kept) ** dim // (1 if one_per_cell
                                                                         and order % 2 else 2)
            # two for the renormalization's cells and kept pairs
            assert calls["window_sums"] == 2 + (len(units) + 1) // 2, k
        for kind, (field, flags), (want, want_flags) in zip(
                kinds, got, _dense_fields([f], k, order, kinds)[0]):
            assert _same_bytes(field, want), (k, kind)
            assert _same_bytes(flags, want_flags), (k, kind)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("order", [1, 3])
def test_fields_next_to_the_support_edge_match_scalar_oracles(dim, order):
    # a smooth f kept on [20, 40) of each axis: the entries on either side
    # of where the active boxes end, within and just beyond the reach of
    # the windows and h-nodes, against the point-by-point functionals
    n, halfwidth, k = 64, 2.0, 1
    f = grid(lambda x: np.cos(x) + 2.0, n=n, L=halfwidth, dim=dim) if dim == 1 else grid(
        lambda p: np.cos(p[..., 0]) * np.sin(p[..., 1] + 0.3) + 2.0, n=n, L=halfwidth, dim=2)
    samples = np.zeros_like(f.samples)
    box = (slice(20, 40),) * dim
    samples[box] = f.samples[box]
    f = GridFunction(dim, halfwidth, samples)
    window, _ = delta_window_field(f, k, order)
    expanded, _ = delta_expanded_field(f, k, order)
    c, centers = level_cell_count(f, k), f.axis_centers()
    reach = order * c + c  # stencil reach plus window radius, in cells
    near = [i for e in (20, 40) for i in (e - reach - 1, e - reach, e - 1, e, e + reach)
            if 0 <= i < n]
    for i in near:
        idx = (i,) * dim if dim == 1 else (i, 30)
        want = delta_avg_window(f, tuple(centers[j] for j in idx), k, order)
        assert window[idx] == pytest.approx(want, rel=1e-12, abs=0.0), idx
    # beyond every stencil's and window's reach the windows are exactly 0
    far = [i for i in range(n) if i < 20 - reach or i >= 40 + reach]
    assert far or order > 1
    assert all(window[(i,) * dim if dim == 1 else (i, 30)] == 0.0 for i in far)
    m0 = first_index(f, k)
    for j in range(expanded.shape[0]):
        idx = (j,) * dim
        want = delta_avg_expanded(f, k, m0 + j if dim == 1 else (m0 + j, m0 + j), order)
        assert expanded[idx] == pytest.approx(want, rel=1e-12, abs=0.0), idx


# -- the half-cell slices against the shifts they stand in for


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    dim=st.integers(1, 3),
    order=st.integers(1, 3),
)
def test_every_grid_the_parser_accepts_is_sliced_at_every_level(data, dim, order):
    # L and N powers of two put every center, h-node and stencil point a whole
    # number of half cells from the first center, so every difference field a
    # command asks for is sliced; N >= 16 L gives a level-1 window. An L one
    # ulp off a power of two is rejected by the parser, not by the fields, and
    # so is an L below the unit window, 0.5, though its fields are sliced too.
    log_l = data.draw(st.integers(-4, 6), label="log2 L")
    log_n = data.draw(st.integers(max(5, log_l + 4), 13), label="log2 N")
    halfwidth, n = 2.0**log_l, 2**log_n
    cap = finest_level(halfwidth, n, WINDOW_CELLS)  # the finest level of a difference norm
    space = {"M": order, "alpha": [0.5, 0.5], "K_max": cap}
    grid = {"L": halfwidth, "N": n, "dim": dim}
    if halfwidth < 0.5:
        with pytest.raises(ConfigError, match="grid.L"):
            parse_config({"grid": grid, "space": space}, "norm")
    else:
        cfg = parse_config({"grid": grid, "space": space}, "norm")
        assert (cfg.halfwidth, cfg.resolution, cfg.space.k_max) == (halfwidth, n, cap)
    for k in range(cap + 1):
        rows = _slice_rows(halfwidth, n, k, order)
        assert len(rows) == len(_h_axis(2.0**-k, 2.0 * halfwidth / n)[0]), k
    off = math.nextafter(halfwidth, data.draw(st.sampled_from([0.0, math.inf]), label="toward"))
    with pytest.raises(ConfigError, match="grid.L"):
        parse_config({"grid": {"L": off, "N": n, "dim": dim}, "space": space}, "norm")


@pytest.mark.parametrize("kind", ["window", "cube", "expanded"])
def test_a_field_whose_differences_overflow_raises_naming_its_level(kind):
    # finite samples of +-1.7e308 at centers 30..33 of 1-D L=2, N=64: at k = 1,
    # M = 2 the stencil sums overflow, and 49 of 64 window, 4 of 8 cube and
    # 8 of 8 expanded entries once came back nan or inf with only a numpy warning
    samples = np.zeros(64)
    samples[30:34] = [1.7e308, -1.7e308, 1.7e308, -1.7e308]
    f = GridFunction(1, 2.0, samples)
    with pytest.raises(NonPositiveValue, match=f"level-1 {kind} field of order 2 is not finite"):
        delta_fields([f], 1, 2, (kind,))
    scaled = delta_fields([f.with_samples(samples * 2.0**-900)], 1, 2, (kind,))[0][0][0]
    assert np.all(np.isfinite(scaled)) and np.any(scaled > 0)  # the same samples, in range


@pytest.mark.parametrize("halfwidth, n", [(4.0 / 3.0, 64), (2.0 / 3.0, 32)],
                         ids=["L4/3-N64", "L2/3-N32"])
def test_grids_off_the_half_cell_lattice_raise_resolution_exceeded(halfwidth, n):
    # dx = 1/24: the float coordinates of the stencil points move by ulps
    # from center to center, so no half-cell slice reproduces interp's steps
    # and the fields raise a typed error instead of returning other values
    f = GridFunction(1, halfwidth, np.ones(n))
    for k in range(4):
        for order in (1, 2, 3):
            with pytest.raises(ResolutionExceeded, match=re.escape(f"L = {halfwidth}, N = {n}")):
                delta_fields([f], k, order, ("window",))


def _edge_case_samples(dim, n):
    """Two sample arrays: standard normal inside with -0.0 on the lower faces
    and 0.0 on the upper ones, and signed zeros inside with 5e-324 on the
    lower faces and -5e-324 on the upper ones, where an edge half cell formed
    as 0.5 v + 0.5 v (0 for v = 5e-324) changes the fields of a grid with
    dx = 1."""
    rng = np.random.default_rng(20)
    out = []
    signed_zeros = np.where(rng.random((n,) * dim) < 0.5, -0.0, 0.0)
    for inside, lower, upper in ((rng.standard_normal((n,) * dim), -0.0, 0.0),
                                 (signed_zeros, 5e-324, -5e-324)):
        for a in range(dim):
            inside[(slice(None),) * a + (0,)] = lower
            inside[(slice(None),) * a + (-1,)] = upper
        out.append(inside)
    return out


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize(
    "geometry",
    [(1, 2.0, 64), (2, 1.0, 32), (3, 1.0, 8), (1, 32.0, 64), (2, 16.0, 32), (3, 8.0, 16)],
    ids=["1d", "2d", "3d", "1d-dx1", "2d-dx1", "3d-dx1"],
)
def test_sliced_and_shifted_fields_are_the_same_bytes(geometry, order, monkeypatch):
    # every kind of both functions of one call, at every level: the sliced
    # terms are the entries the shifts interpolate, in the shifts' float order
    dim, halfwidth, n = geometry
    fs = [GridFunction(dim, halfwidth, v) for v in _edge_case_samples(dim, n)]
    kinds = ("window", "cube", "expanded")
    levels = range(finest_level(halfwidth, n) + 1)
    got = [delta_fields(fs, k, order, kinds) for k in levels]
    monkeypatch.setattr(differences, "_node_sums", _node_sums_per_node_stencils)
    for k, have in zip(levels, got):
        want = delta_fields(fs, k, order, kinds)
        for f_have, f_want in zip(have, want):
            for kind, (values, flags), (want_values, want_flags) in zip(kinds, f_have, f_want):
                assert _same_bytes(values, want_values), (k, kind)
                assert _same_bytes(flags, want_flags), (k, kind)


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
