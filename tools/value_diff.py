"""How far a change moves the numbers of the benchmark's reports.

Usage: python tools/value_diff.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are the ``src`` directories of two trees (a checkout of
the parent commit and this one, say). Every distinct report of the
``bench/workloads.py`` workloads at config seed 0 (the list of
``tools/render_digests.py``) runs once through ``dilatest.cli.run`` of each
tree, and each report prints one line:

    <workload> <reference key> max_rel_change=<largest relative change>

the largest relative change of any number under the report's ``results``,
at full precision, before the 12 digits an artifact keeps: 0.0 when every
number is equal, inf when anything but a number differs (a key, a length, a
string). Where ``render_digests.py`` says whether a report's bytes moved,
this says by how much. The tool reads ``bench/`` and writes nothing.
"""

import copy
import math
import numbers
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from render_digests import load_cli, reports  # noqa: E402  (tools/ is not a package)


def _is_number(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def max_rel_change(a, b):
    """The largest relative change |a - b| / max(|a|, |b|) over the numbers of
    two results trees: 0.0 when they are equal, inf when their structure or
    anything but a number differs."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((max_rel_change(a[key], b[key]) for key in a), default=0.0)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        if len(a) != len(b):
            return math.inf
        return max(map(max_rel_change, a, b), default=0.0)
    if _is_number(a) and _is_number(b):
        a, b = float(a), float(b)
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        if not (math.isfinite(a) and math.isfinite(b)):
            return math.inf
        return abs(a - b) / max(abs(a), abs(b))
    return 0.0 if type(a) is type(b) and a == b else math.inf


def tree_results(src, listed):
    """The ``results`` of each listed (workload, key, command, config) report,
    run by the ``dilatest`` under ``src``, or None when it cannot be imported
    from there. A package imported before, from another tree, is dropped."""
    for name in [m for m in sys.modules if m.split(".")[0] == "dilatest"]:
        del sys.modules[name]
    cli = load_cli(src)
    try:
        if cli is None:
            return None
        return [cli.run(cli.parse_config(copy.deepcopy(config), command))["results"]
                for _, _, command, config in listed]
    finally:
        sys.path.remove(str(Path(src).resolve()))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    listed = reports(n_seeds=1)
    base, head = (tree_results(src, listed) for src in argv[1:])
    if base is None or head is None:
        return 2
    for (name, key, _, _), a, b in zip(listed, base, head):
        print(f"{name} {key} max_rel_change={float(f'{max_rel_change(a, b):.3g}')!r}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
