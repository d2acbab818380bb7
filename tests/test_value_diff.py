"""The value-change tool of ``tools/value_diff.py``: its measure and one run over two trees."""

import importlib.util
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("value_diff", ROOT / "tools" / "value_diff.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_change_is_the_largest_relative_change_of_any_number():
    change = _tool().max_rel_change
    a = {"rows": [{"value": 2.0, "norm": "diff", "n": 3}, {"value": 4.0, "ok": True}], "c": 1.0}
    assert change(a, a) == 0.0
    assert change(a, {**a, "c": 1.0 + 2.0**-40}) == 2.0**-40 / (1.0 + 2.0**-40)
    b = {"rows": [{"value": 2.0, "norm": "diff", "n": 3}, {"value": 3.0, "ok": True}], "c": 1.1}
    assert change(a, b) == 0.25
    assert change({"x": math.nan}, {"x": math.nan}) == 0.0
    assert change({"x": math.inf}, {"x": math.inf}) == 0.0
    assert change({"x": math.inf}, {"x": 1.0}) == math.inf
    for other in ({"rows": a["rows"][:1], "c": 1.0}, {**a, "d": 0.0},
                  {**a, "rows": [{**a["rows"][0], "norm": "star"}, a["rows"][1]]},
                  {**a, "rows": [a["rows"][0], {**a["rows"][1], "ok": False}]}):
        assert change(a, other) == math.inf


def test_one_tree_against_itself_reads_zero(monkeypatch, capsys):
    tool = _tool()
    listed = [r for r in tool.reports(n_seeds=1) if r[1] in ("ap_power", "norm_gaussian")]
    monkeypatch.setattr(tool, "reports", lambda n_seeds: listed)
    monkeypatch.setattr(sys, "path", list(sys.path))
    # the tool imports dilatest afresh for each tree: the other tests keep theirs
    held = {name: m for name, m in sys.modules.items() if name.split(".")[0] == "dilatest"}
    src = str(ROOT / "src")
    try:
        assert tool.main(["value_diff.py", src, src]) == 0
    finally:
        for name in [m for m in sys.modules if m.split(".")[0] == "dilatest"]:
            del sys.modules[name]
        sys.modules.update(held)
    assert capsys.readouterr().out.splitlines() == [
        "configs-1d ap_power max_rel_change=0.0",
        "configs-1d norm_gaussian max_rel_change=0.0",
    ]
