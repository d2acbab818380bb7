"""One verdict module: only ``verdicts.py`` spells a verdict or holds a rule.

No module of ``src/dilatest`` other than ``verdicts.py`` has the string
constant ``"PASS"``, ``"FAIL"`` or ``"INCONCLUSIVE"``; the others import
the names. The trace rule's private names (``_GROWTH``, ``_PLATEAU``, and
``_trace_verdict``, its name before it moved) appear nowhere else in the
package, its tests, ``bench/`` or ``tools/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dilatest"
HOME = SRC / "verdicts.py"
VERDICTS = {"PASS", "FAIL", "INCONCLUSIVE"}
RULE_NAMES = {"_GROWTH", "_PLATEAU", "_trace_verdict"}


def verdict_sites(path):
    """(kind, name, line) of each verdict string constant and each use or
    definition of a rule name in one module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Constant) and node.value in VERDICTS:
            found.append(("literal", node.value, node.lineno))
        # a Name's id, an Attribute's attr, a def's or an import's name and alias
        names = {getattr(node, key, None) for key in ("id", "attr", "name", "asname")}
        for name in sorted(RULE_NAMES & names):
            found.append(("name", name, getattr(node, "lineno", None)))
    return found


def test_only_the_verdict_module_spells_a_verdict_or_names_a_rule():
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {kind} {name}"
        for path in sorted(SRC.glob("*.py")) if path != HOME
        for kind, name, line in verdict_sites(path)
    ]
    assert offenders == []
    assert {name for _, name, _ in verdict_sites(HOME)} >= VERDICTS | {"_GROWTH", "_PLATEAU"}


def test_no_test_bench_or_tool_module_names_a_rule():
    paths = [p for d in ("tests", "bench", "tools") for p in sorted((ROOT / d).rglob("*.py"))]
    assert paths
    offenders = [f"{path.relative_to(ROOT)}:{line}: {name}"
                 for path in paths for kind, name, line in verdict_sites(path) if kind == "name"]
    assert offenders == []


def test_the_guard_sees_each_form_of_a_verdict_or_rule(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .weights import _trace_verdict\n"
        "from . import weights\n"
        "_PLATEAU = 0.1\n"
        "def f(values, ok):\n"
        "    weights._GROWTH\n"
        "    return 'PASS' if ok else \"FAIL\"\n"
        "def _trace_verdict(v):\n"
        "    return {'INCONCLUSIVE': 2}, 'PASSED', 'verdict: FAIL', PASS\n",
        encoding="utf-8",
    )
    assert sorted(verdict_sites(probe), key=lambda site: site[2]) == [
        ("name", "_trace_verdict", 1),
        ("name", "_PLATEAU", 3),
        ("name", "_GROWTH", 5),
        ("literal", "PASS", 6),
        ("literal", "FAIL", 6),
        ("name", "_trace_verdict", 7),
        ("literal", "INCONCLUSIVE", 8),
    ]
