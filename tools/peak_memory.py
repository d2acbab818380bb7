"""Traced memory peaks of the benchmark's reports, to see what a change does to memory.

Usage: python tools/peak_memory.py SRC

SRC is the ``src`` directory of the tree to measure. Every distinct report of
the ``bench/workloads.py`` workloads at config seed 0 (the list of
``tools/render_digests.py``) runs once through ``dilatest.cli.run`` under
``tracemalloc``, and prints one line:

    <workload> <reference key> peak_mb=<traced peak of the run, in MB>

The peak counts the numpy buffers and Python objects the run allocates, so it
is the run's own working set, free of the interpreter, the imports and the
allocator. Measure both trees and diff the outputs. The tool reads ``bench/``
and writes nothing.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from render_digests import load_cli, reports  # noqa: E402  (tools/ is not a package)


def peak_mb(cli, command, config):
    """The traced peak, in MB, of one ``cli.run`` of the config."""
    cfg = cli.parse_config(config, command)
    gc.collect()
    tracemalloc.start()
    try:
        cli.run(cfg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    cli = load_cli(argv[1])
    if cli is None:
        return 2
    for name, key, command, config in reports(n_seeds=1):
        print(f"{name} {key} peak_mb={peak_mb(cli, command, config):.2f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
