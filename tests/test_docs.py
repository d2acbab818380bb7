"""The README's library example runs as written, its config-schema block names
the keys the config reader accepts, and its weight-spec block lists the weight
kinds the reader knows."""

import json
import re
from pathlib import Path

from dilatest.cli import parse_config
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


def _paths(obj, prefix=""):
    """Dotted paths of the keys of a config object; a weight spec counts as one key."""
    paths = set()
    for key, value in obj.items():
        if isinstance(value, dict) and key != "weights":
            paths |= _paths(value, f"{prefix}{key}.")
        else:
            paths.add(prefix + key)
    return paths


def test_readme_config_schema_block_names_exactly_the_keys_the_reader_accepts():
    blocks = re.findall(r"```jsonc\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    schema_blocks = [b for b in blocks if b.startswith('{\n  "command"')]
    assert len(schema_blocks) == 1
    schema = json.loads(re.sub(r"//.*", "", schema_blocks[0]).replace("{ ... }", "{}"))
    # a key the reader does not accept raises ConfigError; one it reads that
    # the block leaves out shows in the echo
    config = dict(schema, weights={"kind": "constant", "value": 1.0})
    echo = parse_config(config, schema["command"]).echo
    assert _paths(echo) == _paths(schema)
