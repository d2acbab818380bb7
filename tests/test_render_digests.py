"""The report-digest tool of ``tools/render_digests.py``: its report list and one digest."""

import importlib.util
import json
import re
from pathlib import Path

from dilatest import cli

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("render_digests",
                                                  ROOT / "tools" / "render_digests.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_reports_are_the_ones_the_bench_references_hold():
    listed = [(name, key) for name, key, _, _ in _tool().reports()]
    references = sorted((ROOT / "bench" / "reference").glob("*.json"))
    referenced = [(path.stem, key) for path in references
                  for key in json.loads(path.read_text(encoding="utf-8"))]
    assert len(set(listed)) == len(listed)
    assert sorted(listed) == sorted(referenced)


def test_a_digest_is_the_exit_code_and_the_artifact_hash(tmp_path):
    tool = _tool()
    _, _, command, config = next(r for r in tool.reports() if r[1] == "ap_power")
    for fmt in tool.FORMATS:
        code, sha = tool.digest(cli.main, command, config, fmt, tmp_path)
        assert code == 0 and re.fullmatch("[0-9a-f]{64}", sha)
        assert tool.digest(cli.main, command, config, fmt, tmp_path) == (code, sha)
