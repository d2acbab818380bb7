"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Frozen brackets come from dilatest.regression (measured once at build time,
enforced as regression bounds).
"""

import math
import time

import numpy as np
import pytest

from dilatest import fixtures, regression
from dilatest.differences import delta_avg_cube, delta_avg_window, delta_m
from dilatest.dilation import compute_H, sobolev_sup_ratio, summarize_dilation, verify_theorem
from dilatest.dyadic import Box, GridFunction
from dilatest.lp_fourier import _profile, build_phi, fourier_norm, lp_pieces
from dilatest.maximal import fs_inequality_ratio, weighted_maximal_ratio
from dilatest.norms import SpaceParams, diff_norm, star_norm
from dilatest.weights import (
    Constant,
    GeometricLevel,
    Power,
    ShiftedPower,
    WeightSequence,
    ap_constant,
    xclass_check,
)

L, N = 8.0, 4096


def _verdict(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_classical_dilation_scaling():
    started = time.monotonic()
    f = fixtures.fixture("gaussian", 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 6, 1, L, N)
    slopes = {}
    for kind in ("B", "F"):
        sp = SpaceParams(kind, 2.0, 2.0, 2, (1.0, 1.0), k_max=6)
        reports = verify_theorem(
            f, t, sp, [2.0, 4.0, 8.0, 16.0], norm="diff"
        )
        slopes[kind] = summarize_dilation(reports)["slope"]
    elapsed = time.monotonic() - started
    ok = all(abs(s - 0.5) <= 0.1 for s in slopes.values()) and elapsed < 60.0
    _verdict(
        1,
        ok,
        f"log-log slopes B={slopes['B']:.4f}, F={slopes['F']:.4f} "
        f"(target 0.5 +- 0.1) in {elapsed:.1f}s",
    )


def test_criterion_2_h_exact_under_homogeneity():
    worst = 0.0
    for beta in (-0.2, 0.3):
        t = WeightSequence.from_spec(
            GeometricLevel(1.0, Power(beta)), 6, 1, L, N
        )
        for lam in (2.0, 4.0, 8.0):
            h = compute_H(t, lam, 6, 2.0)
            worst = max(worst, abs(h / lam**-beta - 1.0))
    _verdict(2, worst <= 0.01, f"max |H/lambda^-beta - 1| = {worst:.2e} (tol 1%)")


def test_criterion_3_separation_of_the_two_bounds():
    omega = ShiftedPower(1.0, -0.25)
    sob = sobolev_sup_ratio(omega, 2.0, L)
    spec = GeometricLevel(1.0, omega)
    hs = []
    for mult in (1, 2, 4):
        t = WeightSequence.from_spec(spec, 4, 1, L * mult, N * mult)
        hs.append(compute_H(t, 2.0, 4, 2.0))
    h_changes = [abs(hs[i + 1] / hs[i] - 1.0) for i in range(2)]
    ok = sob.divergent and max(h_changes) < 0.05
    _verdict(
        3,
        ok,
        f"pointwise sup trace {['%.3g' % v for v in sob.trace]} DIVERGENT={sob.divergent}; "
        f"H = {hs[-1]:.4f} changes {['%.2e' % c for c in h_changes]} under domain doubling",
    )


def test_criterion_4_lambda_independence_of_c():
    f = fixtures.fixture("gaussian", 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Power(0.3)), 6, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), theta=1.0, k_max=6)
    xrep = xclass_check(t, sp, 6)
    reports = verify_theorem(f, t, sp, [2.0, 4.0, 8.0])
    spread = summarize_dilation(reports)["spread"]
    ok = xrep.verdict == "PASS" and spread <= 3.0
    _verdict(
        4,
        ok,
        f"xclass {xrep.verdict}; observed_c spread max/median = {spread:.3f} (limit 3)",
    )


def test_criterion_5_power_weight_ap_boundary():
    outcomes = {}
    for alpha in (-0.5, 0.5, -1.5, 1.5):
        g = GridFunction.from_callable(
            lambda x, a=alpha: np.abs(x) ** a, 1, L, N
        )
        outcomes[alpha] = ap_constant(g, 2.0, depth=6).verdict
    ok = (
        outcomes[-0.5] == outcomes[0.5] == "PASS"
        and outcomes[-1.5] == outcomes[1.5] == "FAIL"
    )
    _verdict(5, ok, f"A_2 scan verdicts for |x|^alpha: {outcomes}")


def test_criterion_6_xclass_exactness():
    s = 0.7
    t = WeightSequence.from_spec(GeometricLevel(s, Constant(1.0)), 6, 1, L, 512)
    good = SpaceParams("B", 2.0, 2.0, 2, (s, s))
    rep_good = xclass_check(t, good, depth=6)
    with pytest.warns(UserWarning, match="violates"):
        bad = SpaceParams("B", 2.0, 2.0, 2, (s, s - 1.0))
    rep_bad = xclass_check(t, bad, depth=6)
    ok = (
        0.99 <= rep_good.c1 <= 1.01
        and 0.99 <= rep_good.c2 <= 1.01
        and rep_good.verdict == "PASS"
        and rep_bad.verdict == "FAIL"
    )
    _verdict(
        6,
        ok,
        f"alpha=s: C1={rep_good.c1:.6f}, C2={rep_good.c2:.6f} ({rep_good.verdict}); "
        f"alpha2=s-1: {rep_bad.verdict}",
    )


def test_criterion_7_difference_identities():
    f = GridFunction.from_callable(lambda x: np.sin(1.3 * x) + 0.2 * x, 1, L, N)
    rng = np.random.default_rng(17)
    worst_rec = 0.0
    for order in (1, 2, 3):
        for _ in range(8):
            x = float(rng.uniform(-3, 3))
            h = float(rng.uniform(-0.4, 0.4))
            lhs = delta_m(f, order + 1, h, x)
            rhs = delta_m(f, order, h, x + h) - delta_m(f, order, h, x)
            stencil = sum(
                abs(math.comb(order + 1, j) * f.interp(x + (order + 1 - j) * h))
                for j in range(order + 2)
            )
            worst_rec = max(worst_rec, abs(lhs - rhs) / max(stencil, 1e-30))

    const = GridFunction.from_callable(lambda x: np.full_like(x, 3.7), 1, L, N)
    lin = GridFunction.from_callable(lambda x: 2.0 * x - 1.0, 1, L, N)
    worst_ann = 0.0
    for g, order in ((const, 1), (lin, 2)):
        worst_ann = max(worst_ann, delta_avg_cube(g, Box((0.0,), (1.0,)), order))
        worst_ann = max(worst_ann, delta_avg_window(g, 0.7, 3, order))
    ok = worst_rec <= 1e-12 and worst_ann <= 1e-6
    _verdict(
        7,
        ok,
        f"recursion residual {worst_rec:.2e} (tol 1e-12); "
        f"annihilation residual {worst_ann:.2e} (tol 1e-6)",
    )


def test_criterion_8_littlewood_paley_telescoping():
    mults = build_phi(6, 1, L, N)
    radial = np.abs(2.0 * math.pi * np.fft.fftfreq(N, d=2.0 * L / N))  # |xi| on the DFT lattice
    worst = 0.0
    partial = np.zeros_like(mults[0])
    for k in range(7):
        partial = partial + mults[k]
        worst = max(worst, float(np.max(np.abs(partial - _profile(radial * 2.0**-k)))))

    f = GridFunction.from_callable(
        lambda x: np.cos(math.pi * x / 4.0) + 0.3 * np.sin(math.pi * x / 2.0), 1, L, N
    )
    recon = sum(p.samples for p in lp_pieces(f, 6))
    rel = float(np.linalg.norm(recon - f.samples) / np.linalg.norm(f.samples))
    ok = worst <= 1e-12 and rel <= 1e-8
    _verdict(
        8,
        ok,
        f"telescoping residual {worst:.2e} (tol 1e-12); "
        f"band-limited reconstruction {rel:.2e} (tol 1e-8)",
    )


def test_criterion_9_norm_equivalence_brackets():
    t = WeightSequence.from_spec(GeometricLevel(0.5, Constant(1.0)), 6, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5), k_max=6)
    sd_lo, sd_hi = regression.STAR_DIFF_BRACKET
    fd_lo, fd_hi = regression.FOURIER_DIFF_BRACKET
    ratios = {}
    ok = True
    for name in fixtures.EQUIVALENCE_FAMILY:
        f = fixtures.fixture(name, 1, L, N)
        d = diff_norm(f, t, sp)
        sd = star_norm(f, t, sp) / d
        fd = fourier_norm(f, t, sp) / d
        ratios[name] = (round(sd, 4), round(fd, 4))
        ok = ok and sd_lo <= sd <= sd_hi and fd_lo <= fd <= fd_hi
    _verdict(
        9,
        ok,
        f"star/diff in {regression.STAR_DIFF_BRACKET}, fourier/diff in "
        f"{regression.FOURIER_DIFF_BRACKET}: {ratios}",
    )


def test_criterion_10_maximal_ratio_regressions():
    n_base = 512
    fs_worst_change = 0.0
    wm_worst_change = 0.0
    fs_max = 0.0
    wm_max = 0.0
    t_by_n = {
        n: WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), 5, 1, L, n)
        for n in (n_base, 2 * n_base)
    }
    for seed in range(20):
        fs_pair = []
        wm_pair = []
        for n in (n_base, 2 * n_base):
            fam = fixtures.random_indicator_family(seed, 6, 1, L, n)
            fs_pair.append(fs_inequality_ratio(fam, 2.0, 2.0, 0.5))
            smooth = [fixtures.random_smooth(1000 + 10 * seed + i, 1, L, n) for i in range(4)]
            wm_pair.append(weighted_maximal_ratio(smooth, t_by_n[n], 2.0, 2.0, 1.5))
        fs_max = max(fs_max, fs_pair[0])
        wm_max = max(wm_max, wm_pair[0])
        fs_worst_change = max(fs_worst_change, abs(fs_pair[1] / fs_pair[0] - 1.0))
        wm_worst_change = max(wm_worst_change, abs(wm_pair[1] / wm_pair[0] - 1.0))
    ok = (
        fs_max <= regression.FS_RATIO_BOUND
        and wm_max <= regression.WEIGHTED_RATIO_BOUND
        and fs_worst_change < 0.10
        and wm_worst_change < 0.10
    )
    _verdict(
        10,
        ok,
        f"fs max {fs_max:.4f} <= {regression.FS_RATIO_BOUND}, "
        f"weighted max {wm_max:.4f} <= {regression.WEIGHTED_RATIO_BOUND}; "
        f"doubling changes {fs_worst_change:.3%} / {wm_worst_change:.3%} (< 10%)",
    )
