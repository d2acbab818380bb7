"""Repeat the benchmark over seeds and report each metric's run-to-run spread.

    python3 bench/steady.py --runs 10 --out bench/BENCH_baseline.json

For every workload (or those given with ``--workload``) this runs
``run.py`` once per seed with the ``run_seconds`` of BENCHMARK.json, then
prints per end-to-end metric the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound. ``--out`` also writes the machine, the
commit, each workload's configs and every value measured.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr[-4000:]}")
    lines = proc.stdout.splitlines()
    machine = dict(kv.split("=", 1) for kv in lines[1].removeprefix("# ").split("  "))
    return json.loads(lines[-1]), machine


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"commit": commit(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workload or list(workloads.WORKLOADS):
        values = {name: [] for name in bounds}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result, report["machine"] = one_run(workload, seed, spec["run_seconds"])
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        rows = {}
        print(f"# {workload}: {args.runs} runs, {failed} failed operations")
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            rows[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[name], "values": vals}
            flag = "" if spread < bounds[name] / 3 else "  <-- above a third of the bound"
            print(f"{name:14} median {statistics.median(vals):10.5g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]}{flag}")
        report["workloads"][workload] = {
            "why": workloads.WORKLOADS[workload]["why"],
            "commands": workloads.WORKLOADS[workload]["commands"],
            "first_seed": args.first_seed,
            "failed": failed,
            "metrics": rows,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
