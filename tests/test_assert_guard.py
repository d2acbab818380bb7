"""A runtime check is never a bare ``assert``.

``python -O`` strips assert statements, so a check written as one vanishes
and bad input goes on to a wrong number instead of a typed ``DilatestError``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dilatest"


def assert_lines(path):
    """Line of every assert statement in the file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_statements_in_the_package():
    assert (SRC / "weights.py").is_file()
    offenders = [
        f"{path.name}:{line}" for path in sorted(SRC.glob("*.py")) for line in assert_lines(path)
    ]
    assert offenders == []


def test_the_guard_sees_every_assert_statement(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "assert True\n"
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    class C:\n"
        "        def g(self):\n"
        "            assert (self, 'a tuple is always true')\n"
        "    s = 'assert x'\n"
        "    return x.assert_called\n",
        encoding="utf-8",
    )
    assert sorted(assert_lines(probe)) == [1, 3, 6]
