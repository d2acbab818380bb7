import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest import fixtures
from dilatest.dilation import (
    choose_i,
    compute_H,
    dilate,
    sobolev_sup_ratio,
    summarize_dilation,
    verify_theorem,
)
from dilatest.errors import ClippingExcessive, PreconditionFailed
from dilatest.dyadic import GridFunction, tensor_points
from dilatest.norms import SpaceParams
from dilatest.verdicts import FAIL, trend
from dilatest.weights import (
    AdmissibleSeq,
    Constant,
    GeometricLevel,
    Power,
    ProductWeight,
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
        sup = sobolev_sup_ratio(Power(beta), lam)
        assert h <= sup * (1.0 + 1e-9)


def test_compute_h_shifted_power_stable_under_domain_doubling():
    spec = GeometricLevel(1.0, ShiftedPower(1.0, -0.25))
    hs = []
    for mult in (1, 2):
        t = WeightSequence.from_spec(spec, 4, 1, L * mult, N * mult)
        hs.append(compute_H(t, 2.0, 4, 2.0))
    assert hs[1] == pytest.approx(hs[0], rel=5e-2)


def test_sobolev_sup_constant_and_power():
    assert sobolev_sup_ratio(Constant(2.0), 3.0) == 1.0
    for beta in (0.3, -0.4):
        assert sobolev_sup_ratio(Power(beta), 2.0) == 2.0**-beta
    assert sobolev_sup_ratio(Power(-40.0), 1e10) == math.inf  # 1e400 leaves the float range


def test_sobolev_sup_rejects_lambda_up_to_one():
    for lam in (1.0, 0.5):
        with pytest.raises(ValueError, match="lambda > 1"):
            sobolev_sup_ratio(Power(0.3), lam)


def test_sobolev_sup_shifted_power_divergent():
    omega = ShiftedPower(1.0, -0.25)
    assert sobolev_sup_ratio(omega, 2.0) == math.inf
    trace = probe_sup(omega, 2.0, L)[2]
    assert trace[1] >= 2 * trace[0] and trace[2] >= 2 * trace[1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sobolev_sup_in_every_dimension(dim):
    # |x - c|**-0.25 blows up at x = lam * c, so every case diverges; |x|**-0.5
    # has the finite sup lam**0.5 everywhere
    for c, lam in itertools.product([(1.0, 0.0, 0.0), (0.7, -0.3, 1.1)], [2.0, 3.0]):
        assert sobolev_sup_ratio(ShiftedPower(c[:dim], -0.25), lam, dim) == math.inf
    assert sobolev_sup_ratio(Power(-0.5), 2.0, dim) == 2.0**0.5


def test_sobolev_sup_in_4d_takes_the_closed_form():
    for beta, lam in ((-0.5, 2.0), (0.3, 8.0)):
        assert sobolev_sup_ratio(Power(beta), lam, 4) == lam**-beta
    assert sobolev_sup_ratio(ShiftedPower((1.0, 0.0, 0.0, 2.0), -0.25), 2.0, 4) == math.inf


def test_sobolev_sup_sums_the_exponents_of_each_center():
    # (1,) and (1, 1) are one point in 2-D, so the pair cancels to |x|**0.5
    pair = (ShiftedPower(1.0, 0.75), ShiftedPower((1.0, 1.0), -0.75))
    omega = GeometricLevel(2.0, ProductWeight(pair + (Power(0.25), ShiftedPower(0.0, 0.25))))
    assert sobolev_sup_ratio(omega, 4.0, 2) == 4.0**-0.5
    assert sobolev_sup_ratio(ProductWeight(pair[:1] + (Power(0.25),)), 4.0, 2) == math.inf


# -- the lattice-and-zoom probe: a test-side oracle for the closed form --------


def _ratio_values(omega, lam, pts):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = omega.at(0, pts / lam)
        den = omega.at(0, pts)
        ratio = num / den
    # a point where w(x/lambda) is infinite and w(x) is not has an infinite
    # ratio, a blow-up the probe sees; 0/0 and inf/inf read nothing
    return np.where(~np.isnan(ratio) & (den > 0), ratio, -np.inf)


def _stage_sup(omega, lam, lattice, dx, zoom, zoom_rounds):
    """Largest ratio on a lattice (..., dim) of spacing dx, then around its four
    largest values ``zoom_rounds`` tensor zooms of ``zoom`` points per axis over
    center +- w, w = dx shrinking 8x a round and recentered on each maximum."""
    flat = _ratio_values(omega, lam, lattice).reshape(-1)
    order = np.argsort(flat)[-4:]
    best = float(flat[order[-1]])
    probes = lattice.reshape(-1, lattice.shape[-1])
    for seed_idx in order:
        center = probes[seed_idx]
        w = dx
        for _ in range(zoom_rounds):
            la = np.linspace(-w, w, zoom)
            local = tensor_points([c + la for c in center]).reshape(-1, len(center))
            lv = _ratio_values(omega, lam, local)
            j = int(np.argmax(lv))
            center = local[j]
            best = max(best, float(lv[j]))
            w /= 8.0
    return best


def probe_sup(omega, lam, halfwidth, dim=1):
    """(value, divergent, trace) of sup_x w(x/lambda)/w(x) probed over three
    domain-doubling stages, the first over [-halfwidth, halfwidth]**dim.

    Each stage doubles the box and deepens the zoom around the running
    maxima; divergent is the scans' growth rule: the probed sup at least
    doubled across both of the last two stages, or a stage met a point
    where the ratio is infinite, as a lattice point on the blow-up center
    lambda c of a factor is (a finite closed form has none: a center whose
    exponents cancel reads 0 * inf there, which is nan). The lattice has
    2**(16 - 4 * dim) cells and each zoom 2**max(4, 8 - 2 * dim) + 1 points
    per axis. It sees a blow-up only inside its boxes, and one of
    |x - c|**d with |d| < 1/4 may grow too slowly to meet the rule.
    """
    cells, zoom = 2 ** (16 - 4 * dim), 2 ** max(4, 8 - 2 * dim) + 1
    trace = []
    for s in range(3):
        box = halfwidth * 2.0**s
        dx = 2.0 * box / cells
        axis = -box + (np.arange(cells) + 0.5) * dx
        trace.append(_stage_sup(omega, lam, tensor_points([axis] * dim), dx, zoom, 4 * (s + 1)))
    return trace[-1], trend(trace) == FAIL or math.inf in trace, trace


_PROBE_HW = 8.0
# The probe is a valid oracle only where it can see every blow-up: each
# center c and lambda c inside its first box (|c_i| <= 0.75 and lambda <= 8,
# so |lambda c_i| <= 6 < 8), and exponents in multiples of 1/4, so that every
# exponent sum at a center is 0 or at least 1/4 in size. The closed form
# outside that domain is covered by the far-center test in test_cli.py.
_COORDS = st.sampled_from([-0.75, -0.5, 0.0, 0.5, 0.75])
_EXPONENTS = st.sampled_from([-1.0, -0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 1.0])


@st.composite
def _specs(draw, dim):
    center = st.one_of(st.tuples(_COORDS), st.tuples(*[_COORDS] * dim))
    shifted = st.builds(ShiftedPower, center, _EXPONENTS)
    # |x - c|**d * |x - c|**-d, the second center spelled with dim coordinates
    cancelling = st.builds(
        lambda c, d: ProductWeight((ShiftedPower(c, d), ShiftedPower(c * (dim // len(c)), -d))),
        center,
        _EXPONENTS,
    )
    leaf = st.one_of(
        st.builds(Constant, st.floats(0.1, 10.0)),
        st.builds(Power, st.floats(-1.0, 1.0)),
        shifted,
        shifted,
        cancelling,
        st.builds(AdmissibleSeq, st.floats(-2.0, 2.0), st.floats(-1.0, 1.0)),
    )
    level = st.one_of(leaf, st.builds(GeometricLevel, st.floats(-2.0, 2.0), leaf, st.booleans()))
    factors = draw(st.lists(level, min_size=1, max_size=3))
    return factors[0] if len(factors) == 1 else ProductWeight(tuple(factors))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), dim=st.sampled_from([1, 2, 3]), lam=st.sampled_from([2.0, 3.0, 4.0, 8.0]))
def test_closed_form_sup_agrees_with_the_probe(data, dim, lam):
    omega = data.draw(_specs(dim))
    closed = sobolev_sup_ratio(omega, lam, dim)
    value, divergent, trace = probe_sup(omega, lam, _PROBE_HW, dim)
    assert divergent == (closed == math.inf), (omega, closed, trace)
    if not divergent:
        assert value == pytest.approx(closed, rel=1e-12, abs=0), (omega, trace)


def test_probe_sees_a_lattice_point_on_a_blow_up_center():
    # in 3-D at lambda = 4 the last stage's lattice holds lambda c = (-2, -2, -2)
    # itself, where w(x/lambda) is infinite; dropping that point left the
    # probe's sups at 4.4e3, 1.3e6, 1.1e6, which missed the growth rule
    omega = ProductWeight((ShiftedPower((-0.5,), -0.75), ShiftedPower((0.75,), -0.5)))
    _, divergent, trace = probe_sup(omega, 4.0, _PROBE_HW, 3)
    assert divergent and sobolev_sup_ratio(omega, 4.0, 3) == math.inf, trace


def test_verify_theorem_in_3d():
    f = GridFunction.from_callable(lambda p: np.exp(-4.0 * np.sum(p**2, axis=-1)), 3, 2.0, 32)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=1)
    t = WeightSequence.from_spec(
        GeometricLevel(1.0, ShiftedPower((0.5, 0.0, 0.0), -0.25)), 1, 3, 2.0, 32
    )
    reports = verify_theorem(f, t, sp, [2.0, 4.0])
    for r in reports:
        assert r.sobolev == math.inf
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
    assert rep.sobolev == math.inf
