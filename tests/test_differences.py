import math

import numpy as np
import pytest

from dilatest.differences import (
    delta_avg_cube,
    delta_avg_expanded,
    delta_avg_window,
    delta_cube_field,
    delta_expanded_field,
    delta_m,
    delta_window_field,
)
from dilatest.dyadic import Box, GridFunction
from dilatest.errors import OutOfDomain


def grid(fn, n=4096, L=8.0, dim=1):
    return GridFunction.from_callable(fn, dim, L, n)


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
    values, flagged, m0 = delta_cube_field(f, k, order)
    for j in (10, 31, 40):
        m = m0 + j
        box = Box((m * 2.0**-k,), ((m + 1) * 2.0**-k,))
        if not flagged[j]:
            assert values[j] == pytest.approx(delta_avg_cube(f, box, order), rel=1e-9)


def test_expanded_field_matches_pointwise_op():
    f = grid(lambda x: np.exp(-(x**2)), n=1024)
    k, order = 2, 2
    values, flagged, m0 = delta_expanded_field(f, k, order)
    j = 32 - m0  # cube starting at 8.0 * 2**-k... pick an interior index
    j = len(values) // 2 + 3
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
        cubes, flags, m0 = delta_expanded_field(f, k, order)
        from dilatest.dyadic import level_block_reduce

        win_avg = level_block_reduce(win, f, k, op="mean")
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
    cube, cflag, m0 = delta_cube_field(f, k, order)
    expanded, eflag, e0 = delta_expanded_field(f, k, order)
    assert e0 == m0
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
