"""The package's public surface is what the package uses.

Every public top-level function or class of ``src/dilatest``, and every public
method or property of its classes, must be referenced somewhere in the
package outside its own body, by name or as an attribute; an import alone
does not count, and dunder methods are exempt as the language calls them.
Code that only the tests call belongs in the tests. The scalar oracles are
the exception: they compute one box or one point the slow way, and the tests
check the fast fields against them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dilatest"
ORACLES = ["box_average", "box_lp_average", "cube_weight_norm", "cubes_covering",
           "delta_avg_cube", "delta_avg_expanded", "delta_avg_window", "delta_m"]


def _public_definitions(tree):
    """(reported name, node) of the public top-level functions and classes, and
    of the public methods and properties of those classes as ``Class.name``."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def unreferenced(paths):
    """Sorted public names of the modules that nothing outside their own body uses."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    refs = [
        (getattr(node, "id", None) or node.attr, path, node.lineno)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    return sorted(
        name
        for path, tree in trees.items()
        for name, node in _public_definitions(tree)
        if not any(
            ref == node.name and (where != path or not node.lineno <= line <= node.end_lineno)
            for ref, where, line in refs
        )
    )


def test_every_public_function_and_class_is_used_by_the_package():
    assert (SRC / "weights.py").is_file()
    assert unreferenced(sorted(SRC.glob("*.py"))) == ORACLES


def test_the_guard_sees_unused_and_self_referencing_definitions(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import imported_only, used\n"
        "def recursive(n):\n    return recursive(n - 1)\n"
        "class Unused:\n    pass\n"
        "def caller():\n    return used() + _private()\n"
        "def _private():\n    pass\n",
        encoding="utf-8",
    )
    (tmp_path / "b.py").write_text(
        "import a\ndef used():\n    return a.caller().kept + a.caller().size\n"
        "def imported_only():\n    pass\n"
        "class Used:\n"
        "    def __init__(self):\n        pass\n"
        "    def kept(self):\n        pass\n"
        "    def unused(self):\n        return self.unused\n"
        "    def _helper(self):\n        pass\n"
        "    @property\n    def size(self):\n        pass\n"
        "    @property\n    def idle(self):\n        pass\n"
        "x = Used()\n",
        encoding="utf-8",
    )
    assert unreferenced(sorted(tmp_path.glob("*.py"))) == [
        "Unused", "Used.idle", "Used.unused", "imported_only", "recursive",
    ]
