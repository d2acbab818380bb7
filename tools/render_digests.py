"""Digests of every benchmark report, to check that a change keeps them byte-identical.

Usage: python tools/render_digests.py SRC

SRC is the ``src`` directory of the tree to render (a checkout of the parent
commit, say, or this one). Every command of every ``bench/workloads.py``
workload runs at config seeds 0 .. N_SEEDS - 1 through ``dilatest.cli.main``,
once with ``--format json`` and once with ``--format csv``; a command whose
config does not depend on the seed runs once. Each run prints one line:

    <workload> <reference key> <format> exit=<code> sha256=<digest of the artifact>

(``sha256=-`` when no artifact was written). Render both trees and diff the
outputs. The tool reads ``bench/`` and writes only to a temporary directory.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (bench/ is not a package)

FORMATS = ("json", "csv")


def reports(n_seeds=workloads.N_SEEDS):
    """(workload, reference key, command, config) of every distinct report."""
    out, seen = [], set()
    for name in workloads.WORKLOADS:
        for seed in range(n_seeds):
            for _, command, config, key in workloads.pass_commands(name, seed):
                if (name, key) not in seen:
                    seen.add((name, key))
                    out.append((name, key, command, config))
    return out


def digest(main, command, config, fmt, workdir):
    """(exit code, sha256 of the artifact or '-') of one ``main`` call."""
    workdir = Path(workdir)
    cfg, art = workdir / "config.json", workdir / f"report.{fmt}"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    art.unlink(missing_ok=True)
    with contextlib.redirect_stderr(io.StringIO()):  # wall clock and verdict lines
        code = main([command, "--config", str(cfg), "--out", str(art), "--format", fmt])
    sha = hashlib.sha256(art.read_bytes()).hexdigest() if art.exists() else "-"
    return code, sha


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    sys.path.insert(0, str(src))
    from dilatest import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"dilatest was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as workdir:
        for name, key, command, config in reports():
            for fmt in FORMATS:
                code, sha = digest(cli.main, command, config, fmt, workdir)
                print(f"{name} {key} {fmt} exit={code} sha256={sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
