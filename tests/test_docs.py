"""The README's library example runs as written, and its weight-spec block
lists the weight kinds the config reader knows."""

import re
from pathlib import Path

from dilatest.weights import SPEC_KINDS

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert "'verdict': 'PASS'" in capsys.readouterr().out


def test_readme_weight_spec_block_lists_every_kind():
    blocks = re.findall(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    spec_blocks = [b for b in blocks if b.startswith('{"kind"')]
    assert len(spec_blocks) == 1
    kinds = re.findall(r'^\{"kind": "(\w+)"', spec_blocks[0], re.M)
    assert sorted(kinds) == sorted(SPEC_KINDS)
