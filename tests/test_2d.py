"""Two-dimensional paths: cube scans, difference fields, norms, dilation."""

import json
import math

import numpy as np
import pytest

from dilatest import fixtures
from dilatest.cli import main
from dilatest.differences import (
    delta_avg_expanded,
    delta_avg_window,
    delta_expanded_field,
    delta_m,
    delta_window_field,
)
from dilatest.dilation import compute_H, dilate, sobolev_sup_ratio
from dilatest.dyadic import GridFunction, range_table
from dilatest.maximal import fs_inequality_ratio
from dilatest.norms import SpaceParams, diff_norm
from dilatest.weights import (
    Constant,
    GeometricLevel,
    Power,
    WeightSequence,
    ap_constant,
    cube_families,
    family_cube_reduce,
    weight_grid,
    xclass_check,
)

HW, N = 4.0, 128


def grid2(fn, n=N, hw=HW):
    return GridFunction.from_callable(fn, 2, hw, n)


def radial(p):
    return np.sqrt(p[..., 0] ** 2 + p[..., 1] ** 2)


def test_family_cube_reduce_partitions_mass():
    f = grid2(lambda p: np.exp(-radial(p) ** 2))
    families = cube_families(f, 1)[:2]
    assert [fam.shift for fam in families] == [0.0, 1.0 / 3.0]
    for fam in families:
        sums = family_cube_reduce(range_table(f.samples), fam)
        counts = np.multiply.outer(fam.hi - fam.lo, fam.hi - fam.lo)
        assert counts.sum() == N * N
        assert sums.sum() == pytest.approx(float(f.samples.sum()), rel=1e-12)
        assert sums.shape == counts.shape


def test_ap_constant_2d_power_weight():
    # admissible range in two dimensions is -2 < beta < 2 for p = 2; the
    # shorter x4 refinement ladder keeps three trace points at this size
    g = weight_grid(Power(0.5), 0, 2, HW, 512)
    rep = ap_constant(g, 2.0, depth=4, trace_factor=4)
    assert rep.verdict == "PASS"
    bad = weight_grid(Power(-3.0), 0, 2, HW, 512)
    rep = ap_constant(bad, 2.0, depth=4, trace_factor=4)
    assert rep.verdict == "FAIL", rep.trace


def test_delta_m_2d_properties():
    f = grid2(lambda p: p[..., 0] + 2.0 * p[..., 1])
    h = np.array([0.2, -0.1])
    got = delta_m(f, 1, h, np.array([0.3, 0.4]))
    assert got == pytest.approx(0.2 - 0.2, abs=1e-12)
    g = grid2(lambda p: p[..., 0] * 1.5)
    assert delta_m(g, 2, h, np.array([-0.5, 0.2])) == pytest.approx(0.0, abs=1e-10)


def test_window_field_matches_scalar_2d():
    f = grid2(lambda p: np.exp(-radial(p) ** 2) * np.sin(p[..., 0]))
    k, order = 2, 1
    field, flagged = delta_window_field(f, k, order)
    c = f.axis_centers()
    for i, j in ((40, 60), (64, 64)):
        assert not flagged[i, j]
        want = delta_avg_window(f, (c[i], c[j]), k, order)
        assert field[i, j] == pytest.approx(want, rel=1e-9)


def test_expanded_field_matches_scalar_2d():
    f = grid2(lambda p: np.exp(-radial(p) ** 2))
    k, order = 2, 1
    values, flagged = delta_expanded_field(f, k, order)
    m0 = int(round(-HW * 2.0**k))  # the cube at the lower domain corner
    nc = values.shape[0]
    i = j = nc // 2 + 1
    if not flagged[i, j]:
        want = delta_avg_expanded(f, k, (m0 + i, m0 + j), order)
        assert values[i, j] == pytest.approx(want, rel=1e-9)


def test_diff_norm_2d_b_equals_f():
    f = grid2(lambda p: np.exp(-radial(p) ** 2))
    t = WeightSequence.from_spec(
        GeometricLevel(0.5, Constant(1.0)), 2, 2, HW, N
    )
    spb = SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5), k_max=2)
    spf = SpaceParams("F", 2.0, 2.0, 2, (0.5, 0.5), k_max=2)
    b, ff = diff_norm(f, t, spb), diff_norm(f, t, spf)
    assert b > 0 and b == pytest.approx(ff, rel=1e-12)


def test_xclass_2d_exact_geometric():
    t = WeightSequence.from_spec(
        GeometricLevel(0.5, Constant(1.0)), 3, 2, HW, 64
    )
    rep = xclass_check(t, SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5)), depth=3)
    assert 0.99 <= rep.c1 <= 1.01 and 0.99 <= rep.c2 <= 1.01
    assert rep.verdict == "PASS"


def test_compute_h_2d_homogeneity():
    beta = 0.4
    t = WeightSequence.from_spec(GeometricLevel(1.0, Power(beta)), 3, 2, HW, N)
    for lam in (2.0, 4.0):
        assert compute_H(t, lam, 3, 2.0) == pytest.approx(lam**-beta, rel=1e-12)


def test_dilate_2d_change_of_variables():
    f = grid2(lambda p: np.exp(-radial(p) ** 2))
    g, _ = dilate(f, 2.0)
    # ||f(lam .)||_2 = lam^(-n/p) ||f||_2 with n = p = 2; both share one grid
    assert np.linalg.norm(g.samples) / np.linalg.norm(f.samples) == pytest.approx(0.5, rel=1e-2)


def test_sobolev_2d_power():
    r = sobolev_sup_ratio(Power(0.3), 2.0, HW, dim=2)
    assert not r.divergent
    assert r.value == pytest.approx(2.0**-0.3, rel=1e-9)


def test_fs_ratio_2d():
    fam = fixtures.random_indicator_family(5, 3, 2, HW, 64)
    r = fs_inequality_ratio(fam, 2.0, 2.0, 0.5)
    assert 1.0 <= r < 5.0


def test_cli_2d_norm(tmp_path):
    cfg = {
        "grid": {"L": 4.0, "N": 128, "dim": 2},
        "space": {
            "kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [0.5, 0.5], "K_max": 2,
        },
        "weights": {
            "kind": "geometric", "s": 0.5, "base": {"kind": "constant", "value": 1.0},
        },
        "fixture": "gaussian",
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert main(["norm", "--config", str(path), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert all(math.isfinite(r["value"]) and r["value"] > 0 for r in rows)
