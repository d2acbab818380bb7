"""The memory tool of ``tools/peak_memory.py``: its report list and what a peak measures."""

import copy
import importlib.util
import json
from pathlib import Path

from dilatest import cli

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("peak_memory",
                                                  ROOT / "tools" / "peak_memory.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_reports_are_the_bench_references_at_config_seed_zero():
    listed = [(name, key) for name, key, _, _ in _tool().reports(n_seeds=1)]
    references = sorted((ROOT / "bench" / "reference").glob("*.json"))
    referenced = [(path.stem, key) for path in references
                  for key in json.loads(path.read_text(encoding="utf-8"))
                  if "@" not in key or key.endswith("@seed=0")]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(referenced)


def test_a_peak_grows_with_the_grid_it_runs_on():
    tool = _tool()
    _, _, command, config = next(r for r in tool.reports(n_seeds=1) if r[1] == "ap_power")
    small = copy.deepcopy(config)
    small["grid"]["N"] = config["grid"]["N"] // 8
    assert 0.0 < tool.peak_mb(cli, command, small) < tool.peak_mb(cli, command, config)
