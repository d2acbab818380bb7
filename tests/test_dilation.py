import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from dilatest import dilation, fixtures
from dilatest.dilation import (
    choose_i,
    compute_H,
    dilate,
    sobolev_sup_ratio,
    summarize_dilation,
    verify_theorem,
)
from dilatest.errors import ClippingExcessive, PreconditionFailed, ResolutionExceeded
from dilatest.dyadic import GridFunction
from dilatest.norms import SpaceParams
from dilatest.weights import (
    Constant,
    GeometricLevel,
    Power,
    ShiftedPower,
    WeightSequence,
)

L, N = 8.0, 2048


def test_choose_i_examples():
    assert choose_i(1.0) == 1
    assert choose_i(3.0) == 2
    assert choose_i(2.0) == 2  # strict left inequality at exact powers
    assert choose_i(7.99) == 3
    assert choose_i(5.0) == 3


def test_choose_i_brackets_powers_of_two_and_their_neighbours():
    # lam < 2**i <= 2*lam, checked in exact rational arithmetic up to the largest float
    lams = [math.nextafter(2.0**j, d) for j in range(1024) for d in (0.0, math.inf)]
    lams += [2.0**j for j in range(1024)] + [sys.float_info.max]
    for lam in (x for x in lams if x >= 1.0):
        i = choose_i(lam)
        assert Fraction(lam) < 2**i <= 2 * Fraction(lam), lam


@pytest.mark.parametrize("lam", [0.5, math.inf, math.nan])
def test_choose_i_rejects_factors_below_one_and_non_finite(lam):
    with pytest.raises(ValueError, match="finite and at least 1"):
        choose_i(lam)


def test_dilate_identity():
    f = fixtures.fixture("gaussian", 1, L, N)
    g, clipped = dilate(f, 1.0)
    assert np.allclose(g.samples, f.samples, rtol=0, atol=1e-15)
    assert clipped == 0.0


def test_dilate_support_scaling():
    f = GridFunction.from_callable(
        lambda x: fixtures.mollified_step(x, 1, halfwidth=1.0, center=1.0), 1, L, N
    )
    g, _ = dilate(f, 2.0)
    c = g.axis_centers()
    inside = np.abs(c - 0.5) <= 0.4
    outside = np.abs(c - 0.5) >= 0.8
    assert np.all(g.samples[inside] > 0.9)
    assert np.all(g.samples[outside] < 0.1)


def test_dilate_lp_change_of_variables():
    f = fixtures.fixture("gaussian", 1, L, N)
    g, _ = dilate(f, 2.0)
    # the L_2 norms on one grid, whose common cell measure cancels
    assert np.linalg.norm(g.samples) / np.linalg.norm(f.samples) == pytest.approx(2.0**-0.5,
                                                                                  rel=1e-2)


def test_dilate_clipping_guard():
    f = GridFunction.from_callable(lambda x: np.ones_like(x), 1, L, 512)
    with pytest.raises(ClippingExcessive):
        dilate(f, 2.0)


def test_compute_h_constant_levels():
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(3.0)), 5, 1, L, N)
    for lam in (1.0, 2.0, 5.0):
        assert compute_H(t, lam, 5, 2.0) == pytest.approx(1.0, rel=1e-14)


def test_compute_h_power_weight_homogeneity():
    for beta in (-0.2, 0.3):
        t = WeightSequence.from_spec(
            GeometricLevel(1.0, Power(beta)), 5, 1, L, N
        )
        for lam in (2.0, 3.0, 4.0, 8.0):
            assert compute_H(t, lam, 5, 2.0) == pytest.approx(lam**-beta, rel=1e-12)


def test_compute_h_needs_the_weights_in_closed_form():
    exact = WeightSequence.from_spec(GeometricLevel(1.0, Power(0.3)), 4, 1, L, N)
    stripped = WeightSequence([g.with_samples(g.samples) for g in exact.levels])
    with pytest.raises(PreconditionFailed, match="closed form"):
        compute_H(stripped, 2.0, 4, 2.0)


def test_compute_h_dominated_by_pointwise_sup():
    # for |x|^beta the pointwise ratio is the constant lam^-beta everywhere,
    # so the cube-norm ratio cannot exceed it
    for beta, lam in ((0.3, 2.0), (-0.2, 4.0)):
        t = WeightSequence.from_spec(
            GeometricLevel(1.0, Power(beta)), 4, 1, L, N
        )
        h = compute_H(t, lam, 4, 2.0)
        sup = sobolev_sup_ratio(Power(beta), lam, L).value
        assert h <= sup * (1.0 + 1e-9)


def test_compute_h_shifted_power_stable_under_domain_doubling():
    spec = GeometricLevel(1.0, ShiftedPower(1.0, -0.25))
    hs = []
    for mult in (1, 2):
        t = WeightSequence.from_spec(spec, 4, 1, L * mult, N * mult)
        hs.append(compute_H(t, 2.0, 4, 2.0))
    assert hs[1] == pytest.approx(hs[0], rel=5e-2)


def test_sobolev_sup_constant_and_power():
    assert sobolev_sup_ratio(Constant(2.0), 3.0, L).value == pytest.approx(1.0)
    for beta in (0.3, -0.4):
        r = sobolev_sup_ratio(Power(beta), 2.0, L)
        assert not r.divergent
        assert r.value == pytest.approx(2.0**-beta, rel=1e-9)


def test_sobolev_sup_shifted_power_divergent():
    r = sobolev_sup_ratio(ShiftedPower(1.0, -0.25), 2.0, L)
    assert r.divergent
    assert r.trace[1] >= 2 * r.trace[0] and r.trace[2] >= 2 * r.trace[1]


@pytest.mark.parametrize("dim, cells, zoom", [(1, 4096, 65), (2, 256, 17), (3, 16, 17)])
def test_sup_probe_sizes_follow_one_rule(monkeypatch, dim, cells, zoom):
    # 2**(16 - 4n) lattice cells and 2**max(4, 8 - 2n) + 1 zoom points per axis
    seen = []

    def stage(omega, lam, lattice, dx, points, rounds):
        seen.append((lattice.shape, points, rounds))
        return 1.0

    monkeypatch.setattr(dilation, "_stage_sup", stage)
    sobolev_sup_ratio(Constant(1.0), 2.0, L, dim=dim)
    assert seen == [((cells,) * dim + (dim,), zoom, 4 * (s + 1)) for s in range(3)]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sobolev_sup_in_every_dimension(dim):
    # |x - c|**-0.25 blows up at x = lam * c, so every case diverges; |x|**-0.5
    # has the finite sup lam**0.5 everywhere
    for c, lam, halfwidth in itertools.product(
        [(1.0, 0.0, 0.0), (0.7, -0.3, 1.1)], [2.0, 3.0], [4.0, 8.0]
    ):
        r = sobolev_sup_ratio(ShiftedPower(c[:dim], -0.25), lam, halfwidth, dim=dim)
        assert r.divergent, (c, lam, halfwidth, r.trace)
    r = sobolev_sup_ratio(Power(-0.5), 2.0, 4.0, dim=dim)
    assert not r.divergent
    assert r.value == pytest.approx(2.0**0.5, rel=1e-9)


def test_sobolev_sup_above_3d_raises_a_typed_error():
    with pytest.raises(ResolutionExceeded, match="16 lattice cells"):
        sobolev_sup_ratio(Power(-0.5), 2.0, 4.0, dim=4)


def test_verify_theorem_in_3d():
    f = GridFunction.from_callable(lambda p: np.exp(-4.0 * np.sum(p**2, axis=-1)), 3, 2.0, 32)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=1)
    t = WeightSequence.from_spec(
        GeometricLevel(1.0, ShiftedPower((0.5, 0.0, 0.0), -0.25)), 1, 3, 2.0, 32
    )
    reports = verify_theorem(f, t, sp, [2.0, 4.0])
    for r in reports:
        assert r.sobolev.divergent
        assert r.bound_rhs_shape == pytest.approx(r.lam ** (1.0 - 3 / 2.0) * r.H, rel=1e-15)
        assert np.isfinite(r.observed_c) and r.observed_c > 0


def test_verify_theorem_identity_lambda():
    f = fixtures.fixture("gaussian", 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    (rep,) = verify_theorem(f, t, sp, [1.0])
    assert rep.H == pytest.approx(1.0, rel=1e-14)
    assert rep.observed_c == pytest.approx(1.0, rel=1e-12)


def test_verify_theorem_classical_slope():
    f = fixtures.fixture("gaussian", 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    reports = verify_theorem(f, t, sp, [2.0, 4.0, 8.0])
    summary = summarize_dilation(reports)
    assert summary["verdict"] == "PASS"
    assert summary["slope"] == pytest.approx(0.5, abs=0.1)


def test_verify_theorem_power_weight_lambda_independence():
    f = fixtures.fixture("gaussian", 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Power(0.3)), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), theta=1.0, k_max=5)
    reports = verify_theorem(f, t, sp, [2.0, 4.0, 8.0])
    assert summarize_dilation(reports)["spread"] <= 3.0
    # without the H correction the bound shape alone is not lambda-stable
    naive = [r.observed_c * r.H for r in reports]
    assert max(naive) / min(naive) > max(r.observed_c for r in reports) / min(
        r.observed_c for r in reports
    )


def test_verify_theorem_precondition():
    f = fixtures.fixture("gaussian", 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 3, (2.5, 2.5), k_max=5)  # alpha above the rate
    with pytest.raises(PreconditionFailed):
        verify_theorem(f, t, sp, [2.0])


def test_verify_theorem_report_carries_sobolev():
    f = fixtures.fixture("gaussian", 1, L, 1024)
    t = WeightSequence.from_spec(
        GeometricLevel(1.0, ShiftedPower(1.0, -0.25)), 4, 1, L, 1024
    )
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=4)
    (rep,) = verify_theorem(f, t, sp, [2.0])
    assert rep.sobolev is not None and rep.sobolev.divergent
