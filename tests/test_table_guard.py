"""One table format: prefix sums and ``reduceat`` each have one call site in the package.

``dyadic.prefix_table`` is the only place that builds a prefix-sum table
(``cumsum``, or ``accumulate`` under another name), and ``dyadic.edge_reduce``
the only place that calls ``ufunc.reduceat``. Every box, window and cube
reduction reads one of the two, so a second copy of either would be a second
table format with its own clipping and round-off.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dilatest"
SITES = {
    "cumsum": ("dyadic.py", "prefix_table"),
    "accumulate": ("dyadic.py", "prefix_table"),
    "reduceat": ("dyadic.py", "edge_reduce"),
}


def table_calls(path):
    """(called name, enclosing function, line) of every call to a name in ``SITES``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            name = callee.attr if isinstance(callee, ast.Attribute) else getattr(callee, "id", None)
            if name in SITES:
                found.append((name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_prefix_sums_and_reduceat_have_one_call_site_each():
    calls = [(path.name, *call) for path in sorted(SRC.glob("*.py")) for call in table_calls(path)]
    offenders = [f"{name} in {file}:{line} ({func})" for file, name, func, line in calls
                 if (file, func) != SITES[name]]
    assert offenders == []
    assert {(file, func) for file, _, func, _ in calls} == set(SITES.values())  # both are used


def test_the_guard_sees_each_form_of_the_call(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from numpy import cumsum\n"
        "def f(np, v, lo):\n"
        "    np.cumsum(v)\n"
        "    v.cumsum(axis=0)\n"
        "    cumsum(v)\n"
        "    np.add.accumulate(v)\n"
        "    np.minimum.reduceat(v, lo)\n"
        "    np.sum(v)\n",
        encoding="utf-8",
    )
    assert [(name, line) for name, _, line in table_calls(probe)] == [
        ("cumsum", 3), ("cumsum", 4), ("cumsum", 5), ("accumulate", 6), ("reduceat", 7),
    ]
