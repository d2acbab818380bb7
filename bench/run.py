"""The dilatest benchmark: time to verdict per CLI command, per workload.

    python3 bench/run.py --workload configs-1d --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all          # every workload, one table each

Run from the repository root; the package is imported from ``src``. Set-up
time is measured in fresh interpreters (``-X importtime`` also gives the
numpy/scipy import split), then one fresh worker process runs the workload's
commands in whole passes for ``--seconds`` and checks every result against
the recorded reference. Command times are reported scaled by a host-speed
probe (see ``worker.py``) next to their plain wall-clock medians.
``--trace 1`` runs half the time untraced and half with spans around each
layer, and reports the per-layer metrics instead. The last line of standard
output is one JSON object with the result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_RUNS = 5
DEADLINE_S = 170
END_TO_END = ["setup_s", "pass_s", "peak_rss_mb"]

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402


def unit_of(metric):
    if metric.endswith((".calls", ".points")):
        return "count"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    return "ratio"


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def setup_sample():
    """A fresh interpreter imports dilatest.cli: (seconds, numpy s, scipy s).

    The import split sums the ``-X importtime`` self times of each package's
    modules, so numpy imported by scipy counts as numpy.
    """
    code = ("import time; t = time.perf_counter(); import dilatest.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=_env(), capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise SystemExit(f"importing dilatest.cli failed:\n{proc.stderr[-2000:]}")
    split = {"numpy": 0.0, "scipy": 0.0}
    for line in proc.stderr.splitlines():
        # import time: self [us] | cumulative | imported package
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        if package in split:
            split[package] += int(fields[0]) * 1e-6
    return float(proc.stdout.split()[-1]), split["numpy"], split["scipy"]


def high_percentile(samples):
    """The highest of p99/p90/p75 with at least ten samples above it, or None."""
    for p in (99, 90, 75):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p}={statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    return None


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (result object, table rows, machine info)."""
    started = time.monotonic()
    setup_sample()  # warm-up: the first import of a checkout compiles bytecode
    setups = [setup_sample() for _ in range(SETUP_RUNS)]
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    budget = DEADLINE_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=budget)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload}: the worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: the worker failed:\n{proc.stderr[-4000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    for failure in out["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)

    # per pass {label: [wall s, calibrated s]}; the metrics use calibrated seconds
    passes = out["passes"]
    labels = {label: command for label, command, _ in workloads.WORKLOADS[workload]["commands"]}
    # set-up is plain wall time: no host-speed probe tracked import time here
    samples = {"setup_s": [[s[0], s[0]] for s in setups],
               "pass_s": [[sum(t[i] for t in p.values()) for i in (0, 1)] for p in passes]}
    for command in dict.fromkeys(labels.values()):
        samples[f"{command}_s"] = [
            [sum(t[i] for label, t in p.items() if labels[label] == command) for i in (0, 1)]
            for p in passes]
    failed = len(out["failures"])
    if trace:
        values = dict(out["per_layer"])
        values["setup.import_numpy_s"] = statistics.median(s[1] for s in setups)
        values["setup.import_scipy_s"] = statistics.median(s[2] for s in setups)
        metrics = values
        rows = [(name, unit_of(name), value, None, None, None) for name, value in values.items()]
    else:
        rows = []
        for name, pairs in samples.items():
            calibrated = [c for _, c in pairs]
            rows.append((name, unit_of(name), statistics.median(calibrated),
                         statistics.median(w for w, _ in pairs), high_percentile(calibrated),
                         len(pairs)))
        rows.append(("peak_rss_mb", "MB", out["peak_rss_mb"], None, None, 1))
        values = {row[0]: row[2] for row in rows}
        metrics = {name: values[name] for name in END_TO_END}
        rows.append(("failed_frac", "ratio", failed / out["attempted"], None, None,
                     out["attempted"]))
    result = {
        "correct": failed == 0,
        "attempted": out["attempted"],
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit_of(name)} for name, v in metrics.items()},
    }
    return result, rows, out["machine"]


def print_table(workload, seed, trace, rows, machine):
    print(f"# workload {workload}  seed {seed} (config seed {workloads.config_seed(seed)})"
          f"  trace {int(trace)}")
    print("# " + "  ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"{'metric':52} {'unit':6} {'median':>12} {'wall median':>12} {'high':>14} {'n':>5}")
    for name, unit, value, wall, high, n in rows:
        wall = "-" if wall is None else f"{wall:.6g}"
        print(f"{name:52} {unit:6} {value:12.6g} {wall:>12} {high or '-':>14} "
              f"{'' if n is None else n:>5}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dilatest" / "cli.py").is_file():
        print(f"no dilatest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, rows, machine = measure(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, args.seed, args.trace, rows, machine)
        results[name] = result
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
