"""The line counter of ``tools/src_lines.py`` on a module with known counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def _counts():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.counts


def test_code_lines_leave_out_docstrings_comments_and_blanks(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# a comment\n"
        "X = 1  # code with a comment\n"
        "\n"
        "def f(a,\n"
        "      b):\n"
        '    """One-line docstring."""\n'
        '    text = """a string that\n'
        'spans two lines"""\n'
        "    return text\n",
        encoding="utf-8",
    )
    # code: X, both lines of the def, both lines of the string, the return
    assert _counts()(probe) == (12, 6)
