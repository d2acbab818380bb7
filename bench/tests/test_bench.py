"""Tests of the benchmark's own code: output check, tracing and metric names."""

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from dilatest import cli  # noqa: E402

# the cheap commands of configs-1d, maximal included for the ap_constant ratio
QUICK = ["ap_power", "dilate_shifted_power", "maximal_regression", "norm_gaussian",
         "xclass_geometric"]


def _leaves(obj, path="results"):
    """(path, value) of every number in a results tree, as compare() names them."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from _leaves(value, f"{path}.{key}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _leaves(value, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, obj


def _set(tree, path, value):
    """Set the leaf that _leaves() named ``path``."""
    steps = path.removeprefix("results").replace("[", ".").replace("]", "").split(".")[1:]
    for step in steps[:-1]:
        tree = tree[int(step)] if isinstance(tree, list) else tree[step]
    last = steps[-1]
    tree[int(last) if isinstance(tree, list) else last] = value


def test_output_check_flags_one_number_perturbed_by_1e_11():
    reference = worker.load_reference("configs-1d")["dilate_classical"]
    assert worker.compare(reference, reference) == []
    leaves = [(p, v) for p, v in _leaves(reference) if v != 0]
    assert len(leaves) > 20
    for path, value in leaves:
        actual = copy.deepcopy(reference)
        _set(actual, path, value * (1 + 1e-11))
        assert worker.compare(reference, actual) == [path]
        _set(actual, path, value * (1 + 1e-13))
        assert worker.compare(reference, actual) == []


def test_output_check_flags_missing_field_and_ignores_new_ones():
    reference = worker.load_reference("configs-1d")["ap_power"]
    actual = copy.deepcopy(reference)
    del actual["constant"]
    actual["added_later"] = 1.0
    assert worker.compare(reference, actual) == ["results.constant"]


def _bindings():
    """Every attribute of every dilatest module and of the classes they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "dilatest" and not name.startswith("dilatest."):
            continue
        for key, value in vars(module).items():
            out[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, raw in vars(value).items():
                    out[(name, key, attr)] = raw
    return out


@pytest.fixture(scope="module")
def quick_runs(tmp_path_factory):
    """The quick commands untraced, then traced: (reports, traced reports, tracer)."""
    workdir = tmp_path_factory.mktemp("bench")
    commands = [c for c in workloads.pass_commands("configs-1d", 0) if c[0] in QUICK]
    paths = []
    for label, command, config, _ in commands:
        path = workdir / f"{label}.json"
        path.write_text(json.dumps(config))
        paths.append((command, path))
    artifact = workdir / "artifact.json"
    plain = [worker.cli_call(cli, command, path, artifact)[2] for command, path in paths]
    before = _bindings()
    traced = []
    with tracing.Tracer() as tracer:
        assert _bindings() != before
        for command, path in paths:
            with tracer.command(command):
                traced.append(worker.cli_call(cli, command, path, artifact)[2])
    return plain, traced, tracer, before


def test_traced_run_restores_every_binding(quick_runs):
    *_, before = quick_runs
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_traced_results_equal_untraced(quick_runs):
    plain, traced, _, _ = quick_runs
    assert len(plain) == len(QUICK) and None not in plain and None not in traced
    for a, b in zip(plain, traced):
        assert worker.compare(a["results"], b["results"], rtol=0.0) == []


def test_traced_run_times_calls_between_modules(quick_runs):
    _, _, tracer, _ = quick_runs
    by_id = {s.id: s for s in tracer.spans}
    parents = {(by_id[s.parent].name, s.name) for s in tracer.spans if s.parent is not None}
    # bound into norms and maximal by "from .x import y"
    assert ("norms.diff_norm", "differences.delta_window_field") in parents
    assert ("maximal.weighted_maximal_ratio", "weights.ap_constant") in parents
    assert ("cli.main", "weights.WeightSequence.from_spec") in parents
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["weights.ap_constant.calls"] == 61
    assert metrics["weights.ap_constant.useful_ratio.maximal"] == 3 / 60
    assert metrics["differences.distinct_ratio.norm"] == 0.5


def test_self_time_on_a_synthetic_span_tree():
    S = tracing.Span
    spans = [
        S(0, None, "root", start=0.0, end=10.0),
        S(1, 0, "a", start=1.0, end=3.0),
        S(2, 0, "b", start=2.0, end=5.0),  # overlaps a: covered once
        S(3, 0, "c", start=8.0, end=12.0),  # runs past the root: clipped
        S(4, 2, "d", start=2.5, end=3.5),
        S(5, 3, "e", start=9.0, end=9.5),
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx({0: 10 - 4 - 2, 1: 2.0, 2: 3.0 - 1.0, 3: 4.0 - 0.5,
                                 4: 1.0, 5: 0.5})


def test_benchmark_json_names_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == run.END_TO_END
    layer = list(tracing.layer_metrics([])) + ["trace.overhead_frac", "trace.pass_s",
                                               "setup.import_numpy_s", "setup.import_scipy_s"]
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
