import contextlib
import io
import json
import re
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilatest import cli, fixtures, weights
from dilatest.cli import COMMANDS, RunConfig, main, parse_config, render, run
from dilatest.dilation import dilate
from dilatest.errors import (
    ConfigError, DilatestError, MissingLevels, NyquistExceeded, ResolutionExceeded,
)
from dilatest.norms import diff_norm, star_norm
from dilatest.weights import ShiftedPower, WeightSequence


def write_config(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


BASE = {
    "grid": {"L": 8.0, "N": 1024, "dim": 1},
    "space": {"kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [1.0, 1.0], "K_max": 4},
    "weights": {"kind": "geometric", "s": 1.0, "base": {"kind": "constant", "value": 1.0}},
    "fixture": "gaussian",
    "lambda_list": [2.0, 4.0],
}


def test_norm_command_zero_fixture(tmp_path, capsys):
    cfg = dict(BASE, fixture="zero")
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "r.json"
    code = main(["norm", "--config", path, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert all(row["value"] == 0.0 for row in report["results"]["rows"])
    assert report["verdicts"]["overall"] == "PASS"


def test_norm_with_too_much_boundary_mass_is_inconclusive(tmp_path, monkeypatch, capsys):
    # the unreliable setup of tests/test_norms.py: x**2 on a tight box puts
    # over 20% of the difference mass in flagged windows
    monkeypatch.setitem(fixtures._FIXTURES, "square",
                        lambda pts, dim: fixtures._axes(pts, dim)[0] ** 2)
    cfg = {
        "grid": {"L": 2.0, "N": 256, "dim": 1},
        "space": {"kind": "B", "p": 2.0, "q": 2.0, "M": 1, "alpha": [0.5, 0.5], "K_max": 1},
        "weights": {"kind": "constant", "value": 1.0},
        "fixture": "square",
    }
    out = tmp_path / "r.json"
    assert main(["norm", "--config", write_config(tmp_path, "c.json", cfg),
                 "--out", str(out)]) == 2
    report = json.loads(out.read_text())
    assert report["verdicts"] == {"overall": "INCONCLUSIVE", "unreliable": ["diff", "star"]}
    diff, star, _ = report["results"]["rows"]
    assert diff["boundary_mass"] > 0.2 and star["boundary_mass"] > 0.2
    assert "verdict: INCONCLUSIVE" in capsys.readouterr().err


def test_dilate_command_json_and_exit(tmp_path):
    path = write_config(tmp_path, "c.json", BASE)
    out = tmp_path / "r.json"
    assert main(["dilate", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    rows = report["results"]["rows"]
    assert [row["lambda"] for row in rows] == [2.0, 4.0]
    assert all(row["H"] == 1.0 for row in rows)
    assert abs(report["results"]["slope"] - 0.5) < 0.15
    assert "wall_clock_s" not in report


def test_dilate_threads_match_serial(tmp_path):
    path = write_config(tmp_path, "c.json", BASE)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["dilate", "--config", path, "--out", str(a)]) == 0
    assert main(["dilate", "--config", path, "--out", str(b), "--threads", "2"]) == 0
    ra = json.loads(a.read_text())
    rb = json.loads(b.read_text())
    assert ra["results"]["rows"] == rb["results"]["rows"]


def test_reports_are_byte_identical(tmp_path):
    cfg = dict(BASE, seed=3, families=3, family_size=4)
    cfg["grid"] = {"L": 8.0, "N": 512, "dim": 1}
    cfg["space"] = dict(BASE["space"], K_max=3)
    path = write_config(tmp_path, "c.json", cfg)
    outs = []
    for name in ("r1.json", "r2.json"):
        out = tmp_path / name
        assert main(["maximal", "--config", path, "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_csv_sweep_layout(tmp_path):
    cfg = dict(BASE, lambda_list=[2.0, 4.0, 8.0])
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "r.csv"
    assert main(["dilate", "--config", path, "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 4  # header + one row per lambda
    assert lines[0].startswith("lambda,")


def test_divergent_serialized_as_sentinel(tmp_path):
    cfg = dict(BASE)
    cfg["weights"] = {
        "kind": "geometric",
        "s": 1.0,
        "base": {"kind": "shifted_power", "center": [1.0], "delta": -0.25},
    }
    cfg["lambda_list"] = [2.0]
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "r.json"
    main(["dilate", "--config", path, "--out", str(out)])
    row = json.loads(out.read_text())["results"]["rows"][0]
    assert row["sobolev_sup"] == "DIVERGENT"


def test_singular_points_beyond_the_box_read_divergent(tmp_path):
    # |x - 12|**-0.25 blows up at x = 12 and x = 12 lambda, outside the box
    # [-4, 4] and the domain-doubled boxes a lattice probe of the ratio reads,
    # which once printed 1.08777193702 and 1.15019232491 here
    cfg = dict(BASE, grid={"L": 4.0, "N": 512, "dim": 1})
    cfg["weights"] = {
        "kind": "geometric",
        "s": 1.0,
        "base": {"kind": "shifted_power", "center": 12.0, "delta": -0.25},
    }
    out = tmp_path / "r.json"
    assert main(["dilate", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 0
    rows = json.loads(out.read_text())["results"]["rows"]
    assert [(row["lambda"], row["sobolev_sup"]) for row in rows] == [
        (2.0, "DIVERGENT"), (4.0, "DIVERGENT")
    ]


def test_m_one_without_alpha_parses_without_a_warning():
    # the default alpha is min(1, M/2) on both sides, inside 0 < alpha1 <= alpha2 < M
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cfg = parse_config({"space": {"M": 1}}, "norm")
    assert cfg.space.alpha == (0.5, 0.5)
    assert cfg.echo["space"]["alpha"] == [0.5, 0.5]
    assert parse_config({}, "norm").space.alpha == (1.0, 1.0)


def test_ap_fail_exit_code(tmp_path):
    cfg = dict(BASE)
    cfg["grid"] = {"L": 8.0, "N": 4096, "dim": 1}
    cfg["weights"] = {"kind": "power", "beta": 1.5}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ap", "--config", path]) == 1


def test_ap_pass_exit_code(tmp_path):
    cfg = dict(BASE)
    cfg["grid"] = {"L": 8.0, "N": 4096, "dim": 1}
    cfg["weights"] = {"kind": "power", "beta": 0.5}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["ap", "--config", path]) == 0


def test_xclass_inconclusive_exit_code(tmp_path):
    cfg = dict(BASE, depth=6)
    cfg["grid"] = {"L": 8.0, "N": 512, "dim": 1}
    cfg["space"] = dict(BASE["space"], K_max=4)
    cfg["space"]["K_max"] = 6
    cfg["grid"]["N"] = 2048
    cfg["weights"] = {"kind": "admissible_seq", "s": 1.0, "b": 1.0, "c": 0.0}
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["xclass", "--config", path]) == 2


def test_equiv_command(tmp_path):
    cfg = dict(BASE)
    cfg["grid"] = {"L": 8.0, "N": 4096, "dim": 1}
    cfg["space"] = {
        "kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [0.5, 0.5], "K_max": 6,
    }
    cfg["weights"] = {
        "kind": "geometric", "s": 0.5, "base": {"kind": "constant", "value": 1.0},
    }
    path = write_config(tmp_path, "c.json", cfg)
    out = tmp_path / "r.json"
    assert main(["equiv", "--config", path, "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["results"]["rows"]) == 5


def test_equiv_of_kind_f_reports_the_separate_norms():
    # the one shipped kind-F config is a norm: this runs equiv's window + expanded pass
    cfg = parse_config(dict(BASE, space=dict(BASE["space"], kind="F")), "equiv")
    t = cli._weight_sequence(cfg)
    rows = run(cfg)["results"]["rows"]
    assert [row["fixture"] for row in rows] == list(fixtures.EQUIVALENCE_FAMILY)
    for row in rows:
        f = fixtures.fixture(row["fixture"], cfg.dim, cfg.halfwidth, cfg.resolution)
        assert (row["diff"], row["star"]) == (diff_norm(f, t, cfg.space),
                                              star_norm(f, t, cfg.space))


def test_config_error_messages(tmp_path, capsys):
    bad = dict(BASE, grid={"L": 7.0, "N": 1024, "dim": 1})
    path = write_config(tmp_path, "c.json", bad)
    assert main(["norm", "--config", path]) == 2
    assert "grid.L" in capsys.readouterr().err

    bad = dict(BASE)
    bad["space"] = dict(BASE["space"], K_max=12)
    path = write_config(tmp_path, "c2.json", bad)
    assert main(["norm", "--config", path]) == 2
    assert "K_max" in capsys.readouterr().err

    bad = dict(BASE, weights={"kind": "mystery"})
    path = write_config(tmp_path, "c3.json", bad)
    assert main(["norm", "--config", path]) == 2
    assert "weights" in capsys.readouterr().err


def test_command_mismatch_rejected(tmp_path):
    cfg = dict(BASE, command="dilate")
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["norm", "--config", path]) == 2


def test_inf_accepted_in_config():
    cfg = parse_config(
        dict(BASE, space=dict(BASE["space"], sigma2="inf")), "xclass"
    )
    assert cfg.space.sigma2 == float("inf")
    with pytest.raises(ConfigError):
        parse_config(dict(BASE, space=dict(BASE["space"], p="two")), "norm")


def test_render_formats_floats_stably():
    cfg = parse_config(dict(BASE, fixture="zero"), "norm")
    report = run(cfg)
    text = render(report, "json")
    assert text == render(run(cfg), "json")
    assert "wall_clock_s" not in text


# -- the config boundary: malformed or non-integer fields exit 2, never 1


def _set(cfg, path, value):
    """Set the dotted ``path`` of cfg to ``value`` unless a parent is not an object."""
    *outer, last = path.split(".")
    node = cfg
    for key in outer:
        node = node.setdefault(key, {}) if isinstance(node, dict) else None
    if isinstance(node, dict):
        node[last] = value
    return cfg


@pytest.mark.parametrize(
    "command, path, value, field",
    [
        ("norm", "space.M", 2.5, "space.M"),
        ("norm", "space.K_max", 2.7, "space.K_max"),
        ("ap", "depth", "abc", "depth"),
        ("maximal", "seed", "x", "seed"),
        ("maximal", "seed", -1, "seed"),
        ("maximal", "families", 0, "families"),
        ("maximal", "families", -1, "families"),
        ("maximal", "family_size", 0, "family_size"),
        ("norm", "grid.dim", True, "grid.dim"),
        ("norm", "grid.L", "inf", "grid.L"),
        ("norm", "grid", [], "grid"),
        ("norm", "space", [], "space"),
        ("norm", "weights", "x", "weights"),
        ("norm", "space.alpha", 0.5, "space.alpha"),
        ("dilate", "lambda_list", [], "lambda_list"),
        ("dilate", "lambda_list", ["inf"], "lambda_list"),
        ("equiv", "bounds.star_diff", 3, "bounds.star_diff"),
        ("equiv", "bounds.star_diff", [0.7, 0.4], "bounds.star_diff"),
        # every ratio is >= 0, so these bounds would decide FAIL before anything ran
        ("equiv", "bounds.star_diff", [-1, -0.5], "bounds.star_diff"),
        ("equiv", "bounds.fourier_diff", [-1, 0], "bounds.fourier_diff"),
        ("maximal", "bounds.fs", -1, "bounds.fs"),
        ("maximal", "bounds.weighted", 0, "bounds.weighted"),
        ("maximal", "bounds.fs", "abc", "bounds.fs"),
        # one ulp off a power of two: off the half-cell lattice the fields slice
        ("norm", "grid.L", 4.000000000000001, "grid.L"),
    ],
)
def test_malformed_field_exits_2_naming_it(tmp_path, capsys, command, path, value, field):
    config = write_config(tmp_path, "c.json", _set(json.loads(json.dumps(BASE)), path, value))
    assert main([command, "--config", config]) == 2
    assert field in capsys.readouterr().err


def _shifted_power_config(dim, center):
    cfg = json.loads(json.dumps(BASE))
    cfg["grid"]["dim"] = dim
    cfg["weights"]["base"] = {"kind": "shifted_power", "center": center, "delta": -0.25}
    return cfg


@pytest.mark.parametrize("dim, center", [(1, [1.0, 99.0]), (2, [1, 2, 3])])
def test_shifted_power_center_of_the_wrong_length_exits_2(tmp_path, capsys, dim, center):
    # once read as its first entry (1-D) or a broadcast error with exit 1 (2-D)
    config = write_config(tmp_path, "c.json", _shifted_power_config(dim, center))
    assert main(["norm", "--config", config]) == 2
    assert "shifted_power.center" in capsys.readouterr().err


@pytest.mark.parametrize(
    "dim, center, parsed",
    [(1, 1.0, 1.0), (1, [1.0], 1.0), (2, 1.0, 1.0), (2, [1.0], 1.0), (2, [1.0, 2.0], (1.0, 2.0))],
)
def test_shifted_power_center_forms_that_parse(dim, center, parsed):
    # every form reads as the library's spec with that center
    cfg = parse_config(_shifted_power_config(dim, center), "norm")
    assert cfg.weights.base == ShiftedPower(parsed, -0.25)


_SPEC_KEYS = ("kind", "value", "beta", "center", "delta", "s", "b", "c", "dilated", "factors")
_PATHS = (
    ["grid", "space", "weights", "bounds", "weights.base", "command", "fixture",
     "lambda_list", "depth", "norm", "seed", "families", "family_size", "sigma"]
    + [f"grid.{key}" for key in ("L", "N", "dim")]
    + [f"space.{key}" for key in ("kind", "p", "q", "M", "alpha", "theta", "sigma2", "K_max")]
    + [f"weights.{key}" for key in _SPEC_KEYS]
    + [f"weights.base.{key}" for key in _SPEC_KEYS]
    + [f"bounds.{key}" for key in ("fs", "weighted", "star_diff", "fourier_diff")]
)
_WORDS = ["inf", "abc", "B", "F", "constant", "power", "geometric", "shifted_power",
          "product", "admissible_seq", "gaussian", "diff", "star", "norm", "value"]
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4096),
    st.integers(),
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5, 4.0, 8.0]),
    st.floats(),
    st.sampled_from(_WORDS),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_WORDS), inner, max_size=3),
    max_leaves=6,
)
# whole weight specs: a known kind with a random subset of the spec fields
_KINDS = ["constant", "power", "shifted_power", "geometric", "admissible_seq", "product"]
_spec_fields = {key: _values for key in _SPEC_KEYS[1:]}
_specs = st.recursive(
    st.fixed_dictionaries({"kind": st.sampled_from(_KINDS)}, optional=_spec_fields),
    lambda inner: st.fixed_dictionaries(
        {"kind": st.sampled_from(_KINDS)},
        optional=dict(_spec_fields, base=inner, factors=st.lists(inner, max_size=2)),
    ),
    max_leaves=4,
)


@st.composite
def _configs(draw):
    """A valid config, its weights maybe a random spec, with one to three of its
    fields overwritten at random."""
    cfg = json.loads(json.dumps(BASE))
    if draw(st.booleans()):
        cfg["weights"] = draw(_specs)
    edits = draw(st.dictionaries(st.sampled_from(_PATHS), _values, min_size=1, max_size=3))
    for path, value in edits.items():
        _set(cfg, path, value)
    return cfg


@settings(max_examples=300, deadline=None)
@given(config=_configs(), command=st.sampled_from(COMMANDS))
@example(config=dict(BASE, weights={"kind": "product", "factors": []}), command="xclass")
def test_parse_config_returns_config_or_config_error(config, command):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha outside (0, M) only warns
        try:
            cfg = parse_config(config, command)
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)
    # a parsed weight spec builds its levels, or fails as a typed error
    try:
        WeightSequence.from_spec(cfg.weights, 1, cfg.dim, cfg.halfwidth, 32)
    except DilatestError:
        pass


# 1-D L=8, N=512, K_max=3, B with p = q = 2, geometric s = 0.5 over |x|^0.3
_GEOMETRIC_POWER = {
    "grid": {"L": 8, "N": 512},
    "space": {"kind": "B", "p": 2, "q": 2, "K_max": 3},
    "weights": {"kind": "geometric", "s": 0.5, "base": {"kind": "power", "beta": 0.3}},
    "lambda_list": [2.0, 4.0],
}


@pytest.mark.parametrize(
    "command, alpha, error",
    [
        # once an OverflowError traceback with exit 1, at 2**(alpha1 (j - k)) ...
        ("xclass", [2000, 2000], "error: InvalidExponent: the inter-level factor 2**(2000.0)"),
        # ... and at lambda**(alpha2 - n/p)
        ("dilate", [0.5, 2000], "error: InvalidExponent: the bound shape"),
        # once observed_c 0, spread "nan" and exit 1, a computed FAIL
        ("dilate", ["inf", "inf"], "config error: space.alpha"),
    ],
)
def test_alpha_beyond_the_float_range_exits_2(tmp_path, capsys, command, alpha, error):
    cfg = dict(_GEOMETRIC_POWER, space=dict(_GEOMETRIC_POWER["space"], alpha=alpha))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha outside (0, M) only warns
        assert main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert error in capsys.readouterr().err


def test_maximal_family_longer_than_weights_exits_2(tmp_path, capsys, monkeypatch):
    # once MissingLevels after the weight levels were built; now the parser's
    # plan rejects it naming the key, before any level is built
    levels = []
    weight_grid = weights.weight_grid
    monkeypatch.setattr(weights, "weight_grid",
                        lambda spec, k, *args: levels.append(k) or weight_grid(spec, k, *args))
    cfg = dict(BASE, families=1, family_size=8)  # four smooth functions, three levels
    cfg["space"] = dict(BASE["space"], K_max=2, theta=1.5)
    assert main(["maximal", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert "config error: family_size = 8" in capsys.readouterr().err
    assert levels == []


@pytest.mark.parametrize(
    "k_max, family_size, built, code",
    [(5, 6, 3, 0), (5, 2, 2, 0), (5, 12, 6, 0), (1, 6, 0, 2)],
)
def test_maximal_builds_only_the_weight_levels_it_reads(
    tmp_path, capsys, monkeypatch, k_max, family_size, built, code
):
    # one weight level per smooth function of a family, max(2, family_size // 2);
    # a K_max short of them is a config error naming family_size, no level built
    levels = []
    weight_grid = weights.weight_grid
    monkeypatch.setattr(weights, "weight_grid",
                        lambda spec, k, *args: levels.append(k) or weight_grid(spec, k, *args))
    cfg = dict(BASE, grid={"L": 8.0, "N": 512, "dim": 1}, families=1, family_size=family_size)
    cfg["space"] = dict(BASE["space"], K_max=k_max, theta=1.5)
    assert main(["maximal", "--config", write_config(tmp_path, "c.json", cfg)]) == code
    assert levels == list(range(built))
    err = capsys.readouterr().err
    assert (f"config error: family_size = {family_size}" in err) == (code == 2)


def test_echoed_config_reproduces_the_results(tmp_path):
    # families, family_size, sigma and bounds change the result, so the
    # artifact's config must carry them
    cfg = dict(BASE, families=2, family_size=4, sigma=0.25,
               bounds={"fs": 3.0, "star_diff": [0.1, 0.9]})
    cfg["grid"] = {"L": 8.0, "N": 512, "dim": 1}
    cfg["space"] = dict(BASE["space"], K_max=3)
    report = run(parse_config(cfg, "maximal"))
    assert len(report["results"]["rows"]) == 2
    assert report["results"]["theta"] == 1.5  # theta = 1 falls back to 1.5
    assert run(parse_config(report["config"], "maximal"))["results"] == report["results"]
    artifact = json.loads(render(report, "json"))
    again = json.loads(render(run(parse_config(artifact["config"], "maximal")), "json"))
    assert again == artifact


@pytest.mark.parametrize("command", COMMANDS)
def test_echoed_config_reproduces_the_artifact_of_every_command(tmp_path, command):
    # the echo holds every key the reader read, defaults filled in, so running
    # it again writes the same bytes
    cfg = dict(BASE, families=2, family_size=4, sigma=0.25, depth=3,
               bounds={"fs": 3.0, "star_diff": [0.1, 0.9]})
    cfg["grid"] = {"L": 8.0, "N": 512, "dim": 1}
    cfg["space"] = dict(BASE["space"], K_max=3)
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    code = main([command, "--config", write_config(tmp_path, "c.json", cfg), "--out", str(first)])
    echo = json.loads(first.read_text())["config"]
    assert echo["command"] == command and echo["grid"]["N"] == 512
    assert main([command, "--config", write_config(tmp_path, "echo.json", echo),
                 "--out", str(again)]) == code
    assert again.read_bytes() == first.read_bytes()


@pytest.mark.parametrize(
    "path, value",
    [
        ("lambdas", [3.0]),
        ("grid.n", 4),
        ("space.Kmax", 3),
        ("bounds.fss", 1.0),
        ("weights.dilate", True),
        ("weights.base.betta", 0.3),
        ("weights.base.base", {"kind": "constant", "value": 1.0}),
    ],
)
def test_a_key_outside_the_schema_exits_2_naming_its_path(tmp_path, capsys, path, value):
    # once dropped without a word, the run using the default in its place
    cfg = _set(json.loads(json.dumps(BASE)), path, value)
    assert main(["ap", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert f"config error: {path}: unknown key" in capsys.readouterr().err


def test_every_unknown_key_is_named():
    cfg = dict(BASE, lambdas=[3.0], grid=dict(BASE["grid"], n=4))
    with pytest.raises(ConfigError, match=r"^lambdas: unknown key; grid\.n: unknown key$"):
        parse_config(cfg, "norm")


def test_a_known_key_the_command_ignores_still_parses():
    # the 2-D ladder configs pass lambda_list and families to every command
    cfg = parse_config(dict(BASE, lambda_list=[2, 4], families=4, norm="star"), "ap")
    assert cfg.lambda_list == [2.0, 4.0] and cfg.families == 4
    assert cfg.echo["lambda_list"] == [2.0, 4.0] and cfg.echo["norm"] == "star"


@pytest.mark.parametrize(
    "command, halfwidth, depth",
    [("ap", 8.0, -20), ("xclass", 8.0, 0), ("dilate", 8.0, 0),
     # the coarsest cube level of L = 2**-4 is 4
     ("ap", 0.0625, 3), ("xclass", 0.0625, 1)],
    ids=["ap--20", "xclass-0", "dilate-0", "ap-3-L0.0625", "xclass-1-L0.0625"],
)
def test_depth_below_its_minimum_exits_2_naming_depth(tmp_path, capsys, command, halfwidth,
                                                      depth):
    # once errors of the run, after the weights were built; now the parser's
    # plan rejects them
    cfg = dict(BASE, grid=dict(BASE["grid"], L=halfwidth), depth=depth)
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: depth = {depth}" in err and "at least" in err


def test_ap_at_depth_zero_still_runs(tmp_path, capsys):
    config = write_config(tmp_path, "c.json", dict(BASE, depth=0))
    main(["ap", "--config", config])
    out, err = capsys.readouterr()
    assert "error" not in err
    assert json.loads(out)["results"]["levels_scanned"] == [-3, 0]


def test_dilate_zero_fixture_exits_2_naming_the_zero_norm(tmp_path, capsys):
    config = {"grid": {"L": 8, "N": 1024}, "fixture": "zero", "space": {"K_max": 3}, "depth": 3}
    path = write_config(tmp_path, "c.json", config)
    assert main(["dilate", "--config", path]) == 2
    err = capsys.readouterr().err
    assert "PreconditionFailed" in err and "norm_before = 0" in err


@pytest.mark.parametrize(
    "changes, error, named",
    [
        # the gaussian has not decayed by the edge of [-2, 2]: lambda = 2 clips
        ({"grid": {"L": 2, "N": 256}, "lambda_list": [1.0, 2.0]},
         "ClippingExcessive", "dilation by 2.0 clips"),
        # on [-4, 4] lambda = 1e4 clips 0.6% of the mass, under the 1% limit,
        # but its bound shape overflows; the later lambda = 3e4 clips, and
        # the earlier lambda's error wins
        ({"grid": {"L": 4, "N": 256}, "lambda_list": [1e4, 3e4],
          "space": {"K_max": 2, "alpha": [80, 80], "M": 81}},
         "InvalidExponent", "lambda = 10000.0"),
    ],
    ids=["later-lambda-clips", "earlier-lambda-first"],
)
def test_dilate_errors_come_in_lambda_order(tmp_path, capsys, changes, error, named):
    config = dict({"grid": {"L": 8, "N": 256}, "space": {"K_max": 2}, "depth": 3}, **changes)
    assert main(["dilate", "--config", write_config(tmp_path, "c.json", config)]) == 2
    err = capsys.readouterr().err
    assert f"error: {error}" in err and named in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["B", "F"])
def test_dilate_star_norm_rows_equal_the_per_function_star_norms(kind):
    cfg = parse_config(dict(BASE, norm="star", space=dict(BASE["space"], kind=kind)), "dilate")
    f, t = cli._fixture(cfg), cli._weight_sequence(cfg)
    base = star_norm(f, t, cfg.space)
    rows = run(cfg)["results"]["rows"]
    assert [row["lambda"] for row in rows] == cfg.lambda_list
    for row in rows:
        g, _ = dilate(f, row["lambda"])
        assert (row["norm_before"], row["norm_after"]) == (base, star_norm(g, t, cfg.space))


@pytest.mark.parametrize("threads", ["0", "-1", "two"])
def test_threads_below_one_exit_2_naming_the_flag(tmp_path, capsys, threads):
    path = write_config(tmp_path, "c.json", BASE)
    with pytest.raises(SystemExit) as exit_:
        main(["dilate", "--config", path, "--threads", threads])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert "argument --threads" in err and "Traceback" not in err


_SMALL = {"grid": {"L": 8, "N": 256}, "space": {"K_max": 2}, "depth": 3}


@pytest.mark.parametrize(
    "weights, field",
    [
        # once read as dilated = true, beta = 1.0, beta = 0.5 and a ValueError traceback
        ({"kind": "geometric", "s": 0.5, "base": {"kind": "power", "beta": 0.3},
          "dilated": "false"}, "weights.dilated"),
        ({"kind": "power", "beta": True}, "weights.beta"),
        ({"kind": "power", "beta": "0.5"}, "weights.beta"),
        ({"kind": "product", "factors": []}, "weights.factors"),
        ({"kind": "product", "factors": [{"kind": "power", "beta": "x"}]},
         "weights.factors[0].beta"),
        ({"kind": "geometric", "s": 1.0, "base": {"kind": "constant"}}, "weights.base.value"),
        # a key the kind does not have, once dropped without a word
        ({"kind": "product", "factors": [{"kind": "power", "beta": 0.3},
                                         {"kind": "power", "beta": 0.3, "value": 1.0}]},
         "weights.factors[1].value"),
    ],
)
def test_malformed_weight_spec_exits_2_naming_its_field(tmp_path, capsys, weights, field):
    config = write_config(tmp_path, "c.json", dict(_SMALL, weights=weights))
    assert main(["xclass", "--config", config]) == 2
    assert f"config error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights",
    [
        {"kind": "admissible_seq", "s": 1e308},
        {"kind": "admissible_seq", "s": 1.0, "b": 1e308},
        {"kind": "geometric", "s": 1e308, "base": {"kind": "constant", "value": 1.0}},
    ],
)
def test_overflowing_level_scalar_exits_2(tmp_path, capsys, weights):
    # once an OverflowError traceback with exit 1, the FAIL code
    config = write_config(tmp_path, "c.json", dict(_SMALL, weights=weights))
    assert main(["xclass", "--config", config]) == 2
    err = capsys.readouterr().err
    assert "NonPositiveValue" in err and "overflows at level 1" in err


# ap, xclass and maximal on a grid too coarse for a 4-cell level-1 window
_COARSE = {
    "grid": {"L": 8, "N": 64},
    "space": {"p": 2, "theta": 1.5},
    "weights": {"kind": "geometric", "s": 0.5, "base": {"kind": "power", "beta": 0.3}},
    "depth": 3,
    "families": 1,
    "family_size": 2,
}


@pytest.mark.parametrize(
    "command, code, verdict", [("ap", 2, "INCONCLUSIVE"), ("xclass", 2, "INCONCLUSIVE"),
                               ("maximal", 0, "PASS")],
)
def test_cube_commands_run_below_the_window_cap(tmp_path, capsys, command, code, verdict):
    # none of them builds a K_max difference window; all once exited 2 on
    # "space.K_max = 1 exceeds the resolution cap 0"
    out = tmp_path / "r.json"
    assert main([command, "--config", write_config(tmp_path, "c.json", _COARSE),
                 "--out", str(out)]) == code
    assert "error" not in capsys.readouterr().err
    assert json.loads(out.read_text())["verdicts"]["overall"] == verdict


@pytest.mark.parametrize(
    "command, k_max, cap",
    [("norm", 1, 0), ("dilate", 1, 0), ("equiv", 1, 0), ("ap", 3, 2), ("xclass", 3, 2),
     ("maximal", 3, 2)],
)
def test_k_max_above_the_command_cap_exits_2(tmp_path, capsys, command, k_max, cap):
    # difference windows need 4 cells a side (K_max = 1 is the default here);
    # the weight levels of the other commands need 1 cell
    cfg = dict(_COARSE, space=dict(_COARSE["space"], K_max=k_max))
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert f"config error: space.K_max = {k_max} exceeds the resolution cap {cap}" in err


def test_ap_with_an_overflowing_power_sum_exits_2_naming_r(tmp_path, capsys):
    # at p = 1.001 the scan needs w**r at r = -1000; once the prefix tables
    # turned the overflow into nan and the artifact read "constant": "-inf"
    cfg = dict(_COARSE, grid={"L": 8, "N": 512}, space={"p": 1.001},
               weights={"kind": "power", "beta": 0.3}, depth=4)
    out = tmp_path / "r.json"
    assert main(["ap", "--config", write_config(tmp_path, "c.json", cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "NonPositiveValue" in err and "w**r at r = -1000.0" in err and not out.exists()


def test_maximal_at_theta_equal_to_p_runs_the_a1_scan(tmp_path, capsys):
    # theta = p asks for levelwise A_1 weights; once exited 2 on "the cube
    # condition needs p > 1"
    cfg = dict(_COARSE, grid={"L": 8, "N": 512}, families=2, family_size=6,
               space={"p": 2, "q": 2, "theta": 2, "alpha": [0.5, 0.5], "K_max": 3})
    out = tmp_path / "r.json"
    path = write_config(tmp_path, "c.json", cfg)
    assert main(["maximal", "--config", path, "--out", str(out)]) == 0
    assert "error" not in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["results"]["theta"] == 2.0 and report["verdicts"]["overall"] == "PASS"


def test_maximal_names_the_theta_it_would_substitute(tmp_path, capsys):
    # space.theta unset leaves the maximal bound to use theta = 1.5, above p = 1.2;
    # once "error: InvalidExponent: need 1 < theta <= p < inf", a theta never set
    cfg = {
        "grid": {"L": 8.0, "N": 256, "dim": 1},
        "space": {"kind": "B", "p": 1.2, "q": 2.0, "M": 2, "alpha": [0.5, 0.5], "K_max": 2},
        "weights": {"kind": "geometric", "s": 0.5, "base": {"kind": "power", "beta": 0.3}},
        "families": 1,
        "family_size": 2,
    }
    assert main(["maximal", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: space.theta = 1.0" in err
    assert "theta = 1.5" in err and "p = 1.2" in err


def test_maximal_theta_above_p_exits_2_before_any_weight_level(tmp_path, capsys, monkeypatch):
    # the substituted theta = 1.5 exceeds p = 1.2: once found after the three
    # weight levels were built, now the parser rejects it beside the p > 1 rule
    levels = []
    weight_grid = weights.weight_grid
    monkeypatch.setattr(weights, "weight_grid",
                        lambda spec, k, *args: levels.append(k) or weight_grid(spec, k, *args))
    cfg = {"space": {"p": 1.2, "K_max": 2}, "family_size": 6}
    assert main(["maximal", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert "config error: space.theta = 1.0" in capsys.readouterr().err
    assert levels == []


# 1-D L=8, N=256, B with p = 1, q = 2, geometric s = 0.5 over |x|^0.3
_P_ONE = {
    "grid": {"L": 8.0, "N": 256, "dim": 1},
    "space": {"kind": "B", "p": 1, "q": 2, "M": 2, "alpha": [0.5, 0.5], "K_max": 2},
    "weights": {"kind": "geometric", "s": 0.5, "base": {"kind": "power", "beta": 0.3}},
    "families": 1,
    "family_size": 2,
}


@pytest.mark.parametrize(
    "command, code",
    [("xclass", 2), ("dilate", 2), ("maximal", 2), ("norm", 0), ("equiv", 1), ("ap", 2)],
)
def test_p_equal_to_one_is_a_config_error_where_a_command_needs_p_above_one(
        tmp_path, capsys, command, code):
    # xclass and dilate once exited 2 on "error: InvalidExponent: need 1 <= theta
    # <= p and p > 1", and maximal advised "set space.theta in (1, p]", which is
    # empty at p = 1; norm, equiv and ap run at p = 1
    assert main([command, "--config", write_config(tmp_path, "c.json", _P_ONE)]) == code
    err = capsys.readouterr().err
    if command in ("xclass", "dilate", "maximal"):
        assert f"config error: space.p = 1.0: the {command} command needs p > 1" in err
    else:
        assert "error" not in err


# -- dimension 3: the input gate, and every command through main

_CUBE_3D = {
    "grid": {"L": 2.0, "N": 32, "dim": 3},
    "space": {"kind": "B", "p": 2.0, "q": 2.0, "M": 2, "alpha": [1.0, 1.0], "K_max": 1},
    "weights": {"kind": "geometric", "s": 1.0, "base": {"kind": "constant", "value": 1.0}},
    "families": 1,
    "family_size": 2,
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_command_runs_on_a_3d_config(tmp_path, capsys, command):
    # exit 0, 1 or 2 with a verdict or a typed error, never a traceback
    # (3-D dilate once raised KeyError at a table of per-dimension sup-probe sizes)
    code = main([command, "--config", write_config(tmp_path, "c.json", _CUBE_3D)])
    last = capsys.readouterr().err.strip().splitlines()[-1]
    verdict = {0: "PASS", 1: "FAIL", 2: "INCONCLUSIVE"}[code]
    assert last == f"verdict: {verdict}" or (code == 2 and last.startswith("error: "))


@pytest.mark.parametrize("dim", [0, 4])
def test_grid_dim_outside_1_to_3_exits_2_naming_the_field(tmp_path, capsys, dim):
    cfg = dict(_CUBE_3D, grid=dict(_CUBE_3D["grid"], dim=dim))
    assert main(["ap", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "grid.dim must be 1, 2 or 3 (the dimensions the package is tested in)" in err


def test_an_allocation_failure_exits_2(tmp_path, capsys, monkeypatch):
    # a grid too large to allocate (2-D N = 1048576 asks for 8 TiB) once
    # escaped main as a traceback with exit 1, the code of a computed FAIL
    def too_large(cfg, threads):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setitem(cli._HANDLERS, "ap", too_large)
    assert main(["ap", "--config", write_config(tmp_path, "c.json", BASE)]) == 2
    assert "error: MemoryError: Unable to allocate 8.00 TiB" in capsys.readouterr().err


# -- grids too small for the float range or for the unit window

@pytest.mark.parametrize("command", COMMANDS)
def test_a_subnormal_grid_l_exits_2_naming_it(tmp_path, capsys, command):
    # L = 5e-324 once raised OverflowError in finest_level for every command,
    # and with that patched norm and equiv divided by a zero cell volume
    cfg = {"command": command, "grid": {"L": 5e-324, "N": 256}}
    assert main([command, "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert "config error: grid.L = 5e-324" in capsys.readouterr().err


@pytest.mark.parametrize("halfwidth", [2.0**-1000, 0.25])
def test_norm_below_the_unit_window_exits_2_naming_grid_l(tmp_path, capsys, halfwidth):
    # at 2**-1000 numpy once refused the zero-order term's window array, and
    # at 0.25 the level-0 cubes raised ResolutionExceeded
    cfg = {"command": "norm", "grid": {"L": halfwidth, "N": 256}}
    assert main(["norm", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert f"config error: grid.L = {halfwidth!r}: the norm command needs L >= 0.5" in (
        capsys.readouterr().err)


# -- grids whose coarsest cube level is finer than a scan's levels


def test_xclass_below_the_coarsest_cube_level_exits_2_naming_k_max(tmp_path, capsys):
    # depth 20 reaches level 10, the coarsest of L = 2**-10, but K_max = 6
    # caps the levels the class check reads at min(depth, K_max) = 6
    cfg = {"command": "xclass", "grid": {"L": 0.0009765625, "N": 256}, "depth": 20}
    assert main(["xclass", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: space.K_max = 6" in err and "at least 10" in err
    assert "depth =" not in err


def test_maximal_below_its_scan_depth_exits_2_naming_grid_l(tmp_path, capsys):
    # the weighted ratio scans its weights' A_(p/theta) cubes down to level
    # 4, which no config key sets, so an L below 2**-4 can never run
    cfg = {"command": "maximal", "grid": {"L": 0.0009765625, "N": 256}}
    assert main(["maximal", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error: grid.L = 0.0009765625" in err and "depth =" not in err


# -- the level plan: what the parser accepts runs, what it rejects names a key

_PLAN_KEY = re.compile(r"^config error: (grid\.L|space\.K_max|depth|family_size) = ", re.M)


@st.composite
def _plan_configs(draw):
    """(command, config) over the keys the level plan reads: 1-D to 3-D grids
    (3-D only at N = 32), L from 2**-4 to 64, N from 32 to 128, K_max, depth
    and family_size, one family and one dilation factor to keep runs short."""
    dim = draw(st.integers(1, 3))
    n = 32 if dim == 3 else draw(st.sampled_from([32, 64, 128]))
    return draw(st.sampled_from(COMMANDS)), {
        "grid": {"L": 2.0 ** draw(st.integers(-4, 6)), "N": n, "dim": dim},
        "space": {"K_max": draw(st.integers(1, 4)), "theta": 1.5},
        "depth": draw(st.integers(-3, 6)),
        "families": 1,
        "family_size": draw(st.integers(1, 10)),
        "lambda_list": [2.0],
    }


@settings(max_examples=60, deadline=None)
@given(case=_plan_configs())
# configs the parser once accepted and a kernel then rejected on a level rule
@example(case=("xclass", dict(BASE, grid={"L": 0.0625, "N": 32}, depth=1)))
@example(case=("ap", dict(BASE, grid={"L": 0.0625, "N": 32}, depth=3)))
@example(case=("dilate", dict(BASE, grid={"L": 0.5, "N": 64}, depth=0, lambda_list=[2.0])))
@example(case=("maximal", dict(BASE, grid={"L": 8.0, "N": 32}, families=1, family_size=8,
                               space={"K_max": 2, "theta": 1.5})))
def test_a_config_the_parser_accepts_meets_no_level_rule_at_run_time(tmp_path_factory, case):
    command, config = case
    try:
        cfg = parse_config(config, command)
    except ConfigError:
        err = io.StringIO()
        path = write_config(tmp_path_factory.mktemp("plan"), "c.json", config)
        with contextlib.redirect_stderr(err):
            assert main([command, "--config", path]) == 2
        assert _PLAN_KEY.search(err.getvalue()), err.getvalue()
        return
    try:
        run(cfg)
    except (ResolutionExceeded, MissingLevels, NyquistExceeded):
        raise
    except DilatestError:
        pass  # a value error of the run, such as ClippingExcessive
