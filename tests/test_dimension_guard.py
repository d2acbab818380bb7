"""The dimension is a parameter: no module compares ``dim`` with 1 or 2 or
looks a value up by ``dim``.

Points are carried as (..., dim) inside the package, so a ``dim == 1`` or
``dim == 2`` test is a second code path for one behaviour, and so is a table
subscripted by the dimension (``_T[dim]``, ``_T[f.dim]``): it lists the
supported dimensions and fails on any other with a ``KeyError``. The one
place that tells 1-D apart is ``dyadic.point_layout``, which converts
between the public 1-D layout (...,) and the internal one. An input gate
such as ``dim not in (1, 2, 3)`` compares with a tuple and stays allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dilatest"
ALLOWED = {("dyadic.py", "point_layout")}


def _is_dim(node):
    return (isinstance(node, ast.Name) and node.id == "dim") or (
        isinstance(node, ast.Attribute) and node.attr == "dim"
    )


def _is_one_or_two(node):
    return (
        isinstance(node, ast.Constant)
        and type(node.value) is int
        and node.value in (1, 2)
    )


def dim_branches(path):
    """(function name, line) of every comparison between dim and 1 or 2, and
    of every subscript indexed by dim."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for a, b in zip(operands, operands[1:]):
                if (_is_dim(a) and _is_one_or_two(b)) or (_is_dim(b) and _is_one_or_two(a)):
                    found.append((func, node.lineno))
        if isinstance(node, ast.Subscript):
            index = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if any(_is_dim(i) for i in index):
                found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_no_dimension_branches_outside_the_layout_helper():
    assert (SRC / "dyadic.py").is_file()
    offenders = [
        f"{path.name}:{line} in {func}"
        for path in sorted(SRC.glob("*.py"))
        for func, line in dim_branches(path)
        if (path.name, func) not in ALLOWED
    ]
    assert offenders == []


def test_the_guard_sees_each_form_of_the_comparison(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def f(g, dim):\n"
        "    if dim == 1: pass\n"
        "    if g.dim != 2: pass\n"
        "    if 1 == g.dim: pass\n"
        "    x = 0 < dim <= 2\n"
        "    if dim not in (1, 2): pass\n"
        "    if dim == 3 or g.ndim == 1: pass\n"
        "    x = _T[dim] + _T[g.dim] + _T[..., dim]\n"
        "    x = _T[g.ndim] + _T[dim - 1] + _T[:dim]\n",
        encoding="utf-8",
    )
    assert [line for _, line in dim_branches(probe)] == [2, 3, 4, 5, 8, 8, 8]
