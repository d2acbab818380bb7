import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest.cli import COMMANDS, RunConfig, main, parse_config, render, run
from dilatest.errors import ConfigError


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
        ("maximal", "bounds.fs", "abc", "bounds.fs"),
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
    cfg = parse_config(_shifted_power_config(dim, center), "norm")
    assert cfg.weights.base.center == parsed


_PATHS = (
    ["grid", "space", "weights", "bounds", "weights.base", "command", "fixture",
     "lambda_list", "depth", "norm", "seed", "families", "family_size", "sigma"]
    + [f"grid.{key}" for key in ("L", "N", "dim")]
    + [f"space.{key}" for key in ("kind", "p", "q", "M", "alpha", "theta", "sigma2", "K_max")]
    + [f"weights.{key}" for key in ("kind", "s", "center", "delta", "factors")]
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


@st.composite
def _configs(draw):
    """A valid config with one to three of its fields overwritten at random."""
    cfg = json.loads(json.dumps(BASE))
    edits = draw(st.dictionaries(st.sampled_from(_PATHS), _values, min_size=1, max_size=3))
    for path, value in edits.items():
        _set(cfg, path, value)
    return cfg


@settings(max_examples=300, deadline=None)
@given(config=_configs(), command=st.sampled_from(COMMANDS))
def test_parse_config_returns_config_or_config_error(config, command):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # alpha outside (0, M) only warns
        try:
            cfg = parse_config(config, command)
        except ConfigError:
            return
    assert isinstance(cfg, RunConfig)


def test_maximal_family_longer_than_weights_exits_2(tmp_path, capsys):
    cfg = dict(BASE, families=1, family_size=8)  # four smooth functions, three levels
    cfg["space"] = dict(BASE["space"], K_max=2, theta=1.5)
    assert main(["maximal", "--config", write_config(tmp_path, "c.json", cfg)]) == 2
    assert "MissingLevels" in capsys.readouterr().err
