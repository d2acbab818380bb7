"""Every row of ``tests/cli_cases.json`` through ``cli.main`` in process, by
``tools/cli_cases.py``'s checks, and a guard that keeps the table whole and
CI's CLI runs in it."""

import contextlib
import importlib.util
import io
import re
import traceback
from pathlib import Path

import pytest

from dilatest import cli
from dilatest.verdicts import EXIT_CODE

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("cli_cases", ROOT / "tools" / "cli_cases.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TOOL = _tool()
ROWS = TOOL.rows()


def _in_process(argv):
    """``cli.main(argv)`` with stderr captured: (exit code, stderr). An
    exception that escapes main prints its traceback and exits 1, as the
    installed entry point would."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


@pytest.mark.parametrize("row", ROWS, ids=[row["name"] for row in ROWS])
def test_cli_case(tmp_path, row):
    failures = TOOL.check_row(row, _in_process, tmp_path)
    assert not failures, "\n".join(failures)


def test_the_table_is_whole_and_ci_runs_the_cli_only_through_it():
    names = [row["name"] for row in ROWS]
    assert len(set(names)) == len(names), "row names repeat"
    fields = {"name", "command", "config", "exit", "verdict", "message", "artifact_has", "why"}
    for row in ROWS:
        assert set(row) <= fields, row["name"]
        assert row["command"] in cli.COMMANDS, row["name"]
        assert ("verdict" in row) != ("message" in row), row["name"]
        want = EXIT_CODE[row["verdict"]] if "verdict" in row else 2
        assert row["exit"] == want, row["name"]
    shipped = {f"configs/{path.name}" for path in (ROOT / "configs").glob("*.json")}
    assert shipped <= {row["config"] for row in ROWS if isinstance(row["config"], str)}
    # outside comments, no workflow line runs dilatest (the entry point or
    # the module; src/dilatest as a path is no run) but through the table
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    lines = [line.split("#")[0] for line in workflow.splitlines()]
    runs = [line for line in lines if re.search(r"(?<![\w/.-])dilatest(?![\w/-])", line)]
    assert runs == []
    assert any(line.strip() == "run: python tools/cli_cases.py" for line in lines)
