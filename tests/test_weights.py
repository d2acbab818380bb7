import json
import math

import numpy as np
import pytest

from dilatest.dyadic import GridFunction
from dilatest.errors import (
    ConfigError,
    InvalidExponent,
    MissingLevels,
    NonPositiveValue,
    ResolutionExceeded,
)
from dilatest.norms import SpaceParams
from dilatest.plan import scan_levels
from dilatest.verdicts import FAIL, INCONCLUSIVE, PASS
from dilatest.weights import (
    SPEC_KINDS,
    AdmissibleSeq,
    Constant,
    GeometricLevel,
    Power,
    ProductWeight,
    ShiftedPower,
    WeightSequence,
    ap_constant,
    conjugate,
    cube_families,
    cube_power_means,
    cube_weight_norm,
    eval_weight,
    power_table,
    sigma1_of,
    spec_from_dict,
    spec_to_dict,
    weight_grid,
    xclass_check,
)

L, N = 8.0, 4096


def _subset_worst_ratio(gamma: GridFunction, p, seed=0):
    """Largest (|E|/|Q|)**(p-1) mean_Q w / mean_E w over 200 random 1-D cell ranges E in Q;
    an A_p weight keeps it at most [w]_{A_p}."""
    rng = np.random.default_rng(seed)
    worst, n = 0.0, gamma.resolution
    for _ in range(200):
        w = int(rng.integers(8, n // 4))
        i = int(rng.integers(0, n - w))
        e = int(rng.integers(1, w))
        j = i + int(rng.integers(0, w - e + 1))
        ratio = gamma.samples[i : i + w].mean() / gamma.samples[j : j + e].mean()
        worst = max(worst, (e / w) ** (p - 1.0) * ratio)
    return worst


def test_conjugate_and_sigma1():
    assert conjugate(2.0) == 2.0
    assert conjugate(4.0) == pytest.approx(4.0 / 3.0)
    assert sigma1_of(1.0, 2.0) == 2.0
    assert sigma1_of(2.0, 2.0) == math.inf
    with pytest.raises(InvalidExponent):
        conjugate(1.0)
    with pytest.raises(InvalidExponent):
        sigma1_of(3.0, 2.0)


def test_eval_weight_closed_forms():
    assert eval_weight(Power(0.0), 0, 0.37) == 1.0
    assert eval_weight(ShiftedPower(1.0, 2.0), 0, 3.0) == pytest.approx(4.0)
    assert eval_weight(GeometricLevel(1.0, Constant(1.0)), 3, 0.5) == pytest.approx(8.0)
    got = eval_weight(GeometricLevel(1.0, Power(2.0), dilated=True), 2, 4.0)
    assert got == pytest.approx(2.0**2 * (4.0 / 4.0) ** 2)
    seq = eval_weight(AdmissibleSeq(1.0, 1.0, 0.5), 3, 0.1)
    assert seq == pytest.approx(8.0 * 4.0 * (1 + math.log(4.0)) ** 0.5)
    prod = eval_weight(ProductWeight((Constant(2.0), Power(1.0))), 0, 3.0)
    assert prod == pytest.approx(6.0)


def test_eval_weight_guards_positivity():
    with pytest.raises(NonPositiveValue):
        eval_weight(Power(-5000.0), 0, 8.0)  # underflows to zero
    with pytest.raises(NonPositiveValue):
        eval_weight(ShiftedPower(1.0, -0.5), 0, 1.0)  # singular point


def test_shifted_power_center_must_fit_the_dimension():
    # one entry serves every axis; otherwise one entry per axis
    got = eval_weight(ShiftedPower((1.0,), 1.0), 0, np.array([[4.0, 5.0]]), 2)
    assert got == pytest.approx([5.0])
    with pytest.raises(ValueError, match="does not fit 1-D"):
        eval_weight(ShiftedPower((1.0, 2.0), 1.0), 0, np.array([0.0, 3.0]), 1)
    with pytest.raises(ValueError, match="does not fit 2-D"):
        eval_weight(ShiftedPower((1.0, 2.0, 3.0), 1.0), 0, np.zeros((4, 2)), 2)


def test_spec_serialization_roundtrip():
    spec = GeometricLevel(
        0.5, ProductWeight((Power(0.3), ShiftedPower(1.0, -0.25))), dilated=True
    )
    assert spec_from_dict(spec_to_dict(spec)) == spec


# one instance of every weight kind, with every optional field off its default
_EVERY_KIND = [
    Constant(2.0),
    Power(0.3),
    ShiftedPower((1.0, -0.5), -0.25),
    GeometricLevel(0.5, Power(0.3), dilated=True),
    AdmissibleSeq(1.0, 0.5, -0.25),
    ProductWeight((Constant(2.0), ShiftedPower(1.0, -0.25))),
]
# the fields a config must give, as the README's weight-spec block lists them
_REQUIRED = {
    "constant": ["value"],
    "power": ["beta"],
    "shifted_power": ["center", "delta"],
    "geometric": ["s", "base"],
    "admissible_seq": ["s"],
    "product": ["factors"],
}


def test_every_spec_kind_round_trips_through_json():
    assert sorted(spec.kind for spec in _EVERY_KIND) == sorted(SPEC_KINDS) == sorted(_REQUIRED)
    for spec in _EVERY_KIND:
        d = json.loads(json.dumps(spec_to_dict(spec)))
        assert SPEC_KINDS[d["kind"]] is type(spec)
        assert spec_from_dict(d) == spec


@pytest.mark.parametrize("spec", _EVERY_KIND, ids=lambda spec: spec.kind)
def test_every_required_spec_field_when_missing_is_a_config_error(spec):
    full = spec_to_dict(spec)
    for name in _REQUIRED[spec.kind]:
        partial = {key: value for key, value in full.items() if key != name}
        with pytest.raises(ConfigError, match=rf"^weights\.{name}: missing$"):
            spec_from_dict(partial)
    # the other fields take their defaults
    bare = spec_from_dict({key: full[key] for key in ["kind"] + _REQUIRED[spec.kind]})
    assert bare == type(spec)(*(getattr(spec, name) for name in _REQUIRED[spec.kind]))


def test_a_scalar_center_is_a_one_entry_tuple():
    assert ShiftedPower(1.0, -0.25) == ShiftedPower((1.0,), -0.25)
    assert ShiftedPower(1.0, -0.25).center == (1.0,)


def test_ap_constant_of_one_is_exactly_one():
    g = GridFunction.from_callable(lambda x: np.ones_like(x), 1, L, 512)
    rep = ap_constant(g, 2.0, depth=4)
    assert rep.constant == 1.0 and rep.verdict == PASS


def test_ap_scale_invariance():
    g = weight_grid(Power(0.5), 0, 1, L, 1024)
    g3 = GridFunction(g.dim, g.halfwidth, 3.0 * g.samples, lambda x: 3.0 * np.abs(x) ** 0.5)
    a = ap_constant(g, 2.0, depth=4).constant
    b = ap_constant(g3, 2.0, depth=4).constant
    assert b == pytest.approx(a, rel=1e-12)


def test_ap_constant_at_least_one():
    rng = np.random.default_rng(5)
    vals = np.exp(rng.normal(size=512) * 0.5)
    g = GridFunction(1, L, vals)
    rep = ap_constant(g, 3.0, depth=3)
    assert rep.constant >= 1.0 - 1e-12


def test_ap_power_weight_boundary():
    # inside the admissible range: plateau; outside: sustained >= 2x growth
    for beta in (-0.5, 0.5):
        rep = ap_constant(weight_grid(Power(beta), 0, 1, L, N), 2.0, depth=6)
        assert rep.verdict == PASS, (beta, rep.trace)
    for beta in (-1.5, 1.5):
        rep = ap_constant(weight_grid(Power(beta), 0, 1, L, N), 2.0, depth=6)
        assert rep.verdict == FAIL, (beta, rep.trace)


def test_ap_monotone_in_depth():
    g = weight_grid(ShiftedPower(0.5, -0.3), 0, 1, L, 1024)
    c3 = ap_constant(g, 2.0, depth=3).constant
    c6 = ap_constant(g, 2.0, depth=6).constant
    assert c6 >= c3 - 1e-12


def test_ap_invalid_exponent():
    g = weight_grid(Constant(1.0), 0, 1, L, 256)
    for p in (0.5, math.nan):
        with pytest.raises(InvalidExponent):
            ap_constant(g, p, depth=2)


@pytest.mark.parametrize("dim", [1, 2])
def test_scans_below_the_stage_floor_raise_resolution_exceeded(dim):
    # a refinement stage needs at least 32 cells per axis, so N = 16 has none
    g = GridFunction(dim, 4.0, np.ones((16,) * dim))
    with pytest.raises(ResolutionExceeded, match="32 cells"):
        ap_constant(g, 2.0)
    with pytest.raises(ResolutionExceeded, match="32 cells"):
        ap_constant(g, 1.0)
    one_stage = GridFunction(dim, 4.0, np.ones((32,) * dim))
    assert [res for res, _ in ap_constant(one_stage, 2.0).trace] == [32]


def test_a1_constant_cases():
    # p = 1 is the A_1 ratio sup_Q mean_Q w / min_Q w
    g = GridFunction.from_callable(lambda x: np.full_like(x, 2.5), 1, L, 512)
    assert ap_constant(g, 1.0, depth=4).constant == pytest.approx(1.0)
    rep = ap_constant(weight_grid(Power(-0.5), 0, 1, L, N), 1.0, depth=6)
    assert rep.verdict == PASS
    rep = ap_constant(weight_grid(Power(1.0), 0, 1, L, N), 1.0, depth=6)
    assert rep.verdict == FAIL


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 128)])
def test_a1_constant_is_the_mean_over_min_scan(dim, n):
    # the A_1 scan written out: per stage of at least 32 cells, the largest
    # mean / min over the scanned cubes, compared bit for bit
    g = weight_grid(ShiftedPower(0.5, -0.3), 0, dim, 4.0, n)
    want = []
    for gr in (g.resample(res) for res in (n // 64, n // 8, n) if res >= 32):
        ratios = [
            cube_power_means(power_table(gr.samples, 1.0), [fam], 1.0)
            / cube_power_means(power_table(gr.samples, -math.inf), [fam], -math.inf)
            for k in scan_levels(gr.halfwidth, gr.resolution, 4)
            for fam in cube_families(gr, k)
        ]
        want.append((gr.resolution, max(float(np.max(r)) for r in ratios)))
    assert ap_constant(g, 1.0, depth=4).trace == want


def test_ap_properties_check():
    ones = GridFunction.from_callable(lambda x: np.ones_like(x), 1, L, 512)
    assert ap_constant(ones, 2.0, 5).constant == 1.0
    assert _subset_worst_ratio(ones, 2.0) <= 1.0 + 1e-12

    g = weight_grid(Power(0.5), 0, 1, L, N)
    base = ap_constant(g, 2.0, 5)
    # dilating a homogeneous weight rescales it, so the cube products agree
    dilated = GridFunction.from_callable(lambda x: g.evaluator(4.0 * x), 1, L, N)
    assert ap_constant(dilated, 2.0, 5).constant == pytest.approx(base.constant, rel=1e-12)
    # A_p sits inside A_(p+1), with a constant no larger
    bigger = ap_constant(g, 3.0, 5)
    assert bigger.verdict == PASS and bigger.constant <= base.constant * (1 + 1e-12)


@pytest.mark.parametrize("dim, n", [(1, 1024), (2, 128)])
@pytest.mark.parametrize("beta", [0.5, -0.3])
@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_ap_duality_is_an_exact_identity(dim, n, beta, p):
    # per cube, the A_p' ratio of w**(1 - p') is the A_p ratio of w to the
    # power p' - 1, so the sups agree at every stage (Grafakos, GTM 249, ch. 7)
    g = weight_grid(Power(beta), 0, dim, L, n)
    pc = conjugate(p)
    sigma = GridFunction(g.dim, g.halfwidth, g.samples ** (1.0 - pc),
                         lambda x: g.evaluator(x) ** (1.0 - pc))
    base, dual = ap_constant(g, p, depth=4), ap_constant(sigma, pc, depth=4)
    assert [res for res, _ in dual.trace] == [res for res, _ in base.trace]
    for (_, d), (_, b) in zip(dual.trace, base.trace):
        assert d == pytest.approx(b ** (pc - 1.0), rel=1e-12)


def test_cube_weight_norm_examples():
    ones = WeightSequence.from_spec(Constant(1.0), 1, 1, L, 1024)
    assert cube_weight_norm(ones, 0, 0, 2.0) == pytest.approx(1.0, rel=1e-12)
    assert cube_weight_norm(ones, 1, 0, 2.0) == pytest.approx(2.0**-0.5, rel=1e-12)
    lin = WeightSequence.from_spec(Power(1.0), 0, 1, L, 4096)
    assert cube_weight_norm(lin, 0, 0, 1.0) == pytest.approx(0.5, rel=1e-6)


def test_weight_sequence_missing_level():
    t = WeightSequence.from_spec(Constant(1.0), 2, 1, L, 256)
    with pytest.raises(MissingLevels):
        t.level(3)


def _geometric_sequence(s, base=None, k_max=6, n=512, dilated=False):
    spec = GeometricLevel(s, base or Constant(1.0), dilated=dilated)
    return WeightSequence.from_spec(spec, k_max, 1, L, n)


def _class_space(alpha1, alpha2):
    # p = 2 and theta = 1 give sigma1 = p' = 2; sigma2 defaults to p = 2
    return SpaceParams("B", 2.0, 2.0, 2, (alpha1, alpha2))


def test_xclass_exact_geometric():
    s = 0.5
    t = _geometric_sequence(s)
    rep = xclass_check(t, _class_space(s, s), depth=6)
    assert 0.99 <= rep.c1 <= 1.01 and 0.99 <= rep.c2 <= 1.01
    assert rep.verdict == PASS


def test_xclass_alpha1_above_growth_fails():
    # raising alpha1 above the geometric rate breaks the first condition:
    # the measured ratio grows like 2**((alpha1 - s)(j - k))
    s = 1.0
    t = _geometric_sequence(s)
    with pytest.warns(UserWarning, match="violates"):
        sp = _class_space(s + 0.5, s)
    rep = xclass_check(t, sp, depth=6)
    assert rep.verdict == FAIL
    assert rep.c1 == pytest.approx(2.0 ** (0.5 * 6), rel=1e-9)


def test_xclass_alpha2_below_growth_fails():
    s = 1.0
    t = _geometric_sequence(s)
    with pytest.warns(UserWarning, match="violates"):
        sp = _class_space(s, s - 1.0)
    rep = xclass_check(t, sp, depth=6)
    assert rep.verdict == FAIL
    assert rep.c2 == pytest.approx(2.0**6, rel=1e-9)


def test_xclass_x_dependence_cancels_in_c2():
    # with sigma2 = p the spatial factor cancels level-by-level, so C2 matches
    # the constant sequence exactly
    s = 0.5
    t_flat = _geometric_sequence(s)
    t_wx = _geometric_sequence(s, base=Power(0.3), n=1024)
    sp = _class_space(s, s)
    c2_flat = xclass_check(t_flat, sp, depth=5).c2
    c2_wx = xclass_check(t_wx, sp, depth=5).c2
    assert c2_wx == pytest.approx(c2_flat, rel=1e-9)


def test_xclass_order_violation_must_fail():
    # alpha2 < alpha1 with the geometric rate in between cannot pass
    t = _geometric_sequence(1.0)
    with pytest.warns(UserWarning, match="violates"):
        sp = _class_space(1.5, 0.5)
    rep = xclass_check(t, sp, depth=6)
    assert rep.order_violation
    assert rep.verdict == FAIL


def test_xclass_admissible_scalar_sequence():
    spec = AdmissibleSeq(1.0, 1.0, 0.5)
    t = WeightSequence.from_spec(spec, 6, 1, L, 512)
    eps = 0.25
    rep = xclass_check(t, _class_space(1.0 - eps, 1.0 + eps), depth=6)
    assert rep.verdict == PASS
    assert rep.c1 <= 1.0 + 1e-9 and rep.c2 < 10.0


def test_xclass_counts_families_whose_maximum_is_nan_and_reads_inconclusive():
    # w = 1e-200 on 0.3 < x < 0.9: on a cube inside that interval both
    # M_{Q,p}(t_k) and M_{Q,sigma2}(t_j) underflow to 0, so C2's 0/0 is nan
    # and the running max skips the family's whole maximum; the sups then
    # miss those cubes, and the verdict must not read PASS from the rest
    grid_w = GridFunction.from_callable(
        lambda x: np.where((0.3 < x) & (x < 0.9), 1e-200, 1.0), 1, 8.0, 512)
    t = WeightSequence([grid_w.with_samples(2.0 ** (k / 2) * grid_w.samples) for k in range(7)])
    rep = xclass_check(t, SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5), theta=2.0, sigma2=3.0))
    assert rep.skipped_families > 0
    assert math.isfinite(rep.c2)
    assert rep.verdict == INCONCLUSIVE
    # a weight without such a cube skips nothing and keeps its verdict
    flat = WeightSequence([grid_w.with_samples(np.full(512, 2.0 ** (k / 2))) for k in range(7)])
    rep = xclass_check(flat, SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5), theta=2.0, sigma2=3.0))
    assert rep.skipped_families == 0
    assert rep.verdict == PASS
