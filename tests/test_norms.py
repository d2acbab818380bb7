import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest import differences, fixtures
from dilatest.differences import delta_fields
from dilatest.dyadic import GridFunction
from dilatest.errors import LevelPlanError, MissingLevels, ResolutionExceeded
from dilatest.lp_fourier import fourier_norm
from dilatest.norms import SpaceParams, diff_and_star_norms, diff_norm, ltilde_norm, star_norm
from dilatest.weights import Constant, GeometricLevel, Power, WeightSequence

L, N = 8.0, 2048


def const_weights(k_max=5, n=N, halfwidth=L):
    return WeightSequence.from_spec(Constant(1.0), k_max, 1, halfwidth, n)


def geo_weights(s, k_max=5, n=N, halfwidth=L, base=None):
    return WeightSequence.from_spec(
        GeometricLevel(s, base or Constant(1.0)), k_max, 1, halfwidth, n
    )


def sp_of(kind="B", p=2.0, q=2.0, M=2, s=0.5, k_max=5):
    return SpaceParams(kind, p, q, M, (s, s), k_max=k_max)


def test_alpha_warning_names_the_line_that_built_the_space():
    with pytest.warns(UserWarning, match="violates") as record:
        SpaceParams("B", 2.0, 2.0, 2, (1.5, 0.5))
    assert [w.filename for w in record] == [__file__]


@pytest.mark.parametrize("norm", [
    diff_norm, star_norm, fourier_norm,
    pytest.param(lambda f, t, sp: diff_and_star_norms([f], t, sp), id="diff_and_star_norms"),
])
def test_a_weight_sequence_shorter_than_k_max_raises_missing_levels(norm):
    # the difference norms once raised ResolutionExceeded here, the Fourier norm
    # MissingLevels, for the one condition: levels 0..2 where the space needs 5
    f = fixtures.fixture("gaussian", 1, L, N)
    with pytest.raises(MissingLevels, match=r"levels 0\.\.2, need 5"):
        norm(f, const_weights(k_max=2), sp_of(k_max=5))


@pytest.mark.parametrize("norm", [
    diff_norm, star_norm,
    pytest.param(lambda f, t, sp: diff_and_star_norms([f], t, sp), id="diff_and_star_norms"),
])
def test_a_grid_below_the_unit_window_raises_naming_grid_l(norm):
    # at L = 0.25 the level-0 cubes and unit windows do not tile [-L, L];
    # diff_norm once returned 0.4003 here where star_norm raised
    f = fixtures.fixture("gaussian", 1, 0.25, 256)
    with pytest.raises(LevelPlanError, match=r"^grid\.L = 0\.25: a difference norm needs L >= 0\.5"):
        norm(f, const_weights(k_max=3, n=256, halfwidth=0.25), sp_of(k_max=3))


def test_ltilde_zero():
    f = GridFunction(1, L, np.zeros(N))
    t0 = const_weights().level(0)
    assert ltilde_norm(f, t0, 2.0) == 0.0


def test_ltilde_constant_analytic():
    # f = t0 = 1, p = 1: integral of |window cap domain| over the box is 4L-1
    f = GridFunction.from_callable(lambda x: np.ones_like(x), 1, L, N)
    t0 = const_weights().level(0)
    assert ltilde_norm(f, t0, 1.0) == pytest.approx(4 * L - 1, rel=1e-12)


def test_ltilde_rejects_a_unit_window_off_the_cell_edges():
    # L = 3, N = 64: 1 / dx = 10.67 cells, once rounded to an 11-cell window of
    # radius 1.03, so f = t0 = 1, p = 1 read 11.31 instead of 4L - 1 = 11
    f = GridFunction(1, 3.0, np.ones(64))
    with pytest.raises(ResolutionExceeded, match="unit window"):
        ltilde_norm(f, f, 1.0)
    g = GridFunction(1, 4.0, np.ones(64))  # 8 cells per unit: still exact
    assert ltilde_norm(g, g, 1.0) == pytest.approx(4 * 4.0 - 1, rel=1e-12)


def test_ltilde_weighted_gaussian_against_dense_oracle():
    f = fixtures.fixture("gaussian", 1, L, N)
    t0 = GridFunction.from_callable(lambda x: np.abs(x) ** 0.5, 1, L, N)
    got = ltilde_norm(f, t0, 2.0)

    # independent nested quadrature straight from the closed forms
    xs = -L + (np.arange(16384) + 0.5) * (2 * L / 16384)
    dx = 2 * L / 16384
    inner = np.empty_like(xs)
    for i, x in enumerate(xs):
        lo, hi = max(x - 1.0, -L), min(x + 1.0, L)
        ys = np.linspace(lo, hi, 400)
        inner[i] = np.trapezoid(np.exp(-(ys**2)), ys)
    oracle = float(np.sum(np.abs(xs) * inner**2) * dx) ** 0.5
    assert got == pytest.approx(oracle, rel=1e-2)


def test_diff_norm_zero():
    f = GridFunction(1, L, np.zeros(N))
    t = const_weights()
    assert diff_norm(f, t, sp_of()) == 0.0


def test_diff_norm_polynomial_core_annihilated():
    # degree < M: the difference part collapses to round-off, only the
    # zero-order term survives
    f = GridFunction.from_callable(lambda x: 0.5 * x + 2.0, 1, L, N)
    t = const_weights()
    value, info = diff_norm(f, t, sp_of(M=2), details=True)
    assert info["main"] < 1e-10 * info["zero_order"]
    assert value == pytest.approx(info["zero_order"], rel=1e-9)


def test_diff_norm_absolute_homogeneity():
    f = fixtures.fixture("sine_packet", 1, L, N)
    t = geo_weights(0.5)
    sp = sp_of()
    a = diff_norm(f, t, sp)
    g = f.with_samples(-2.5 * f.samples)
    assert diff_norm(g, t, sp) == pytest.approx(2.5 * a, rel=1e-12)


def test_diff_norm_triangle_inequality():
    t = geo_weights(0.5)
    sp = sp_of()
    f = fixtures.fixture("gaussian", 1, L, N)
    g = fixtures.fixture("sine_packet", 1, L, N)
    fg = f.with_samples(f.samples + g.samples)
    assert diff_norm(fg, t, sp) <= diff_norm(f, t, sp) + diff_norm(g, t, sp) + 1e-12


def test_diff_norm_b_equals_f_at_p_equals_q():
    f = fixtures.fixture("gaussian", 1, L, N)
    t = geo_weights(0.5)
    b = diff_norm(f, t, sp_of("B"))
    ff = diff_norm(f, t, sp_of("F"))
    assert b == pytest.approx(ff, rel=1e-12)


def test_diff_norm_tail_contribution_small():
    f = fixtures.fixture("gaussian", 1, L, 4096)
    t = geo_weights(0.5, n=4096, k_max=6)
    sp = sp_of(k_max=6)
    _, info = diff_norm(f, t, sp, details=True)
    terms = np.asarray(info["level_terms"])
    assert terms[-1] ** sp.q / np.sum(terms**sp.q) < 0.01


def test_star_norm_zero():
    f = GridFunction(1, L, np.zeros(N))
    assert star_norm(f, const_weights(), sp_of()) == 0.0


def test_star_norm_constant_function_counts_unit_cubes():
    # f = 1 on [-2, 2], p = 1: four unit cubes each contributing 1
    n, hw = 256, 2.0
    f = GridFunction.from_callable(lambda x: np.ones_like(x), 1, hw, n)
    t = WeightSequence.from_spec(Constant(1.0), 2, 1, hw, n)
    sp = SpaceParams("B", 1.0, 1.0, 1, (0.5, 0.5), k_max=2)
    assert star_norm(f, t, sp) == pytest.approx(4.0, rel=1e-12)


def test_star_norm_absolute_homogeneity():
    f = fixtures.fixture("bump", 1, L, N)
    t = geo_weights(0.5)
    sp = sp_of()
    a = star_norm(f, t, sp)
    assert star_norm(f.with_samples(-3.0 * f.samples), t, sp) == pytest.approx(
        3.0 * a, rel=1e-12
    )


def test_weight_sequence_rejects_nonpositive_levels():
    from dilatest.errors import NonPositiveValue

    bad = GridFunction(1, L, np.zeros(N))
    with pytest.raises(NonPositiveValue):
        WeightSequence([bad])


def test_star_norm_monotone_in_truncation():
    f = fixtures.fixture("sine_packet", 1, L, N)
    t = geo_weights(0.5)
    v4 = star_norm(f, t, sp_of(k_max=4))
    v5 = star_norm(f, t, sp_of(k_max=5))
    assert v5 >= v4 - 1e-12


def test_star_and_diff_norms_comparable_across_family():
    t = geo_weights(0.5)
    sp = sp_of()
    ratios = []
    for name in fixtures.EQUIVALENCE_FAMILY:
        f = fixtures.fixture(name, 1, L, N)
        ratios.append(star_norm(f, t, sp) / diff_norm(f, t, sp))
    ratios = np.asarray(ratios)
    assert ratios.max() / ratios.min() < 10.0


def test_boundary_flag_fires_on_small_domain():
    # variation concentrated near the boundary on a tight box: over 20% of the
    # difference mass sits in flagged windows, so the run is marked unreliable
    n, hw = 256, 2.0
    f = GridFunction.from_callable(lambda x: x * x, 1, hw, n)
    t = WeightSequence.from_spec(Constant(1.0), 1, 1, hw, n)
    sp = SpaceParams("B", 2.0, 2.0, 1, (0.5, 0.5), k_max=1)
    _, info = diff_norm(f, t, sp, details=True)
    assert info["boundary_mass"] > 0.2 and not info["reliable"]


def test_star_norm_2d_smoke():
    n, hw = 128, 4.0
    f = GridFunction.from_callable(
        lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2)), 2, hw, n
    )
    t = WeightSequence.from_spec(
        GeometricLevel(0.5, Constant(1.0)), 2, 2, hw, n
    )
    sp = SpaceParams("F", 2.0, 2.0, 2, (0.5, 0.5), k_max=2)
    v = star_norm(f, t, sp)
    assert np.isfinite(v) and v > 0


@pytest.mark.parametrize("norm, lanes", [(star_norm, False), (diff_norm, True)],
                         ids=["star", "diff"])
def test_only_the_window_field_sweeps_the_nodes_as_complex_lanes(norm, lanes, monkeypatch):
    # the F star norm's expanded field adds every node into one real field and
    # tiles it once per level; the window field alone pairs nodes as the two
    # lanes of a complex field
    made = []

    class Numpy:  # numpy, recording the dtype of every array np.zeros makes
        def __getattr__(self, name):
            return getattr(np, name)

        def zeros(self, shape, dtype=float):
            made.append(np.dtype(dtype))
            return np.zeros(shape, dtype)

    monkeypatch.setattr(differences, "np", Numpy())
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, 256)
    norm(f, const_weights(k_max=2, n=256), sp_of("F", p=3.0, q=1.5, k_max=2))
    assert made and (np.dtype(complex) in made) == lanes


# -- metamorphic: a power-of-two scale of f passes through every norm ------------------


@pytest.mark.parametrize("dim, halfwidth, n, k_max", [(1, 8.0, 1024, 4), (2, 4.0, 128, 2)])
@pytest.mark.parametrize("kind", ["B", "F"])
@pytest.mark.parametrize("p, q", [(2.0, 2.0), (1.5, 3.0)])
def test_scaling_f_by_a_power_of_two_scales_every_norm_by_it(dim, halfwidth, n, k_max, kind,
                                                             p, q):
    # multiplying by 2**m is exact, so at p = q = 2 every power and root is too
    f = fixtures.fixture("sine_packet", dim, halfwidth, n)
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), k_max, dim, halfwidth, n)
    sp = SpaceParams(kind, p, q, 2, (0.5, 0.5), k_max=k_max)
    norms = [diff_norm, star_norm, fourier_norm]
    for name, norm in zip(["diff", "star", "fourier"], norms):
        base = norm(f, t, sp)
        for m in (-3, 5):
            scaled = norm(f.with_samples(2.0**m * f.samples), t, sp)
            if p == q == 2.0:
                assert scaled == 2.0**m * base, (name, m)
            else:
                assert scaled == pytest.approx(2.0**m * base, rel=1e-13, abs=0), (name, m)


# -- one difference pass for both norms ------------------------------------------------


@pytest.mark.parametrize("dim, halfwidth, n, k_max", [(1, 4.0, 512, 4), (2, 4.0, 128, 2)])
@pytest.mark.parametrize("kind", ["B", "F"])
def test_joint_norms_equal_the_separate_calls_exactly(dim, halfwidth, n, k_max, kind):
    # B pairs the window with the cube field, F with the expanded field
    f = fixtures.fixture("sine_packet", dim, halfwidth, n)
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), k_max, dim, halfwidth, n)
    sp = SpaceParams(kind, 1.5, 3.0, 2, (0.5, 0.5), k_max=k_max)
    diff = diff_norm(f, t, sp, details=True)
    star = star_norm(f, t, sp, details=True)
    assert diff[1]["boundary_mass"] > 0 and star[1]["boundary_mass"] > 0
    assert diff_and_star_norms([f], t, sp, details=True) == [(diff, star)]
    assert diff_and_star_norms([f], t, sp) == [(diff[0], star[0])]


@pytest.mark.parametrize("dim, halfwidth, n, k_max", [(1, 4.0, 512, 4), (2, 4.0, 128, 2)])
@pytest.mark.parametrize("kind", ["B", "F"])
def test_norms_of_several_functions_equal_the_separate_calls_exactly(dim, halfwidth, n, k_max,
                                                                      kind):
    # one sweep per level serves every function; each norm, details included,
    # is the one its own call gives, asked for together or alone
    fs = [fixtures.fixture(name, dim, halfwidth, n)
          for name in ("sine_packet", "gaussian", "mollified_step")]
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), k_max, dim, halfwidth, n)
    sp = SpaceParams(kind, 1.5, 3.0, 2, (0.5, 0.5), k_max=k_max)
    want = [(diff_norm(f, t, sp, details=True), star_norm(f, t, sp, details=True)) for f in fs]
    assert diff_and_star_norms(fs, t, sp, details=True) == want
    assert diff_and_star_norms(fs, t, sp, ("star",), details=True) == [(s,) for _, s in want]
    assert diff_and_star_norms(fs, t, sp, ("diff",)) == [(d[0],) for d, _ in want]


@pytest.mark.parametrize("names", [("diff", "stra"), ("Diff",), ("star", "window")])
def test_an_unknown_norm_name_is_a_value_error_naming_it(names):
    # a misspelled name must not silently give the star norm
    f = fixtures.fixture("gaussian", 1, 4.0, 256)
    t = WeightSequence.from_spec(Constant(1.0), 2, 1, 4.0, 256)
    bad = next(name for name in names if name not in ("diff", "star"))
    with pytest.raises(ValueError, match=repr(bad)):
        diff_and_star_norms([f], t, sp_of(k_max=2), names)


@settings(max_examples=20, deadline=None)
@given(
    grid=st.sampled_from([(1, 4.0, 256, 3), (2, 2.0, 32, 1)]),
    kind=st.sampled_from(["B", "F"]),
    m=st.integers(-4, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_difference_norms_scale_by_a_power_of_two(grid, kind, m, seed):
    # f -> 2^m f scales every difference field, kept and flagged mass by
    # exact float steps; only the final (.)^(1/p) goes through libm's pow,
    # which is not correctly rounded (about 5 in 10^4 arguments miss
    # 2^m pow(x, 1/2) for x 4^m by an ulp), so the norms agree to 2 ulp
    dim, halfwidth, n, k_max = grid
    f = fixtures.random_smooth(seed, dim, halfwidth, n)
    g = f.with_samples(2.0**m * f.samples)
    kinds = ("window", "cube", "expanded")
    for k in range(1, k_max + 1):
        for (fv, ff), (gv, gf) in zip(*delta_fields([f, g], k, 2, kinds)):
            assert np.array_equal(gv, 2.0**m * fv) and np.array_equal(gf, ff)
    t = WeightSequence.from_spec(GeometricLevel(0.5, Power(0.3)), k_max, dim, halfwidth, n)
    sp = SpaceParams(kind, 2.0, 2.0, 2, (0.5, 0.5), k_max=k_max)
    for (x, xd), (y, yd) in zip(*diff_and_star_norms([f, g], t, sp, details=True)):
        assert y == pytest.approx(2.0**m * x, rel=4.5e-16, abs=0.0)
        for part in ("main", "zero_order"):
            assert yd[part] == pytest.approx(2.0**m * xd[part], rel=2.3e-16, abs=0.0)
        assert (yd["boundary_mass"], yd["reliable"]) == (xd["boundary_mass"], xd["reliable"])
