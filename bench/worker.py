"""Run one workload in this process and print what it measured as JSON.

Started by ``run.py`` in a fresh interpreter with ``src`` on ``PYTHONPATH``,
so that this process's peak memory belongs to the workload alone. Each CLI
call goes through ``dilatest.cli.main`` exactly as a user's would; the report
``cli.run`` returned is kept, unrounded, and every number under ``results`` is
compared with the reference recorded for the same command and config seed.

To record the references after a deliberate change of results::

    PYTHONPATH=src python3 bench/worker.py --workload configs-1d --record
"""

import argparse
import contextlib
import io
import json
import math
import numbers
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, layer_metrics, median_metrics

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
OUT_DIR = ROOT / ".bench_out"
RTOL = 1e-12

# On a shared host the speed of the same code drifts by up to 2x within
# seconds. The benchmark therefore also runs a fixed numpy kernel, the probe,
# ten times before each command and every PROBE_PERIOD_S during it, and scales
# the command's wall time (less the probe's own time) by PROBE_REF_S over the
# median probe time. Scaled times read as seconds on a host where the probe
# takes PROBE_REF_S, about its median on the machine of BENCH_baseline.json.
PROBE_REF_S = 0.001
PROBE_PERIOD_S = 0.1


def compare(reference, actual, rtol=RTOL, path="results"):
    """Paths where a number in ``reference`` is missing or differs in ``actual``.

    Strings (verdicts, sentinels, names) and booleans are not compared, and
    fields that the reference lacks are ignored.
    """
    if isinstance(reference, dict):
        if not isinstance(actual, dict):
            return [path]
        out = []
        for key, ref in reference.items():
            if key not in actual:
                out.append(f"{path}.{key}")
            else:
                out.extend(compare(ref, actual[key], rtol, f"{path}.{key}"))
        return out
    if isinstance(reference, list):
        if not isinstance(actual, (list, tuple)) or len(actual) != len(reference):
            return [path]
        out = []
        for i, (ref, act) in enumerate(zip(reference, actual)):
            out.extend(compare(ref, act, rtol, f"{path}[{i}]"))
        return out
    if isinstance(reference, bool) or not isinstance(reference, numbers.Number):
        return []
    if isinstance(actual, bool) or not isinstance(actual, numbers.Number):
        return [path]
    a, b = float(reference), float(actual)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return []
    if abs(a - b) <= rtol * max(abs(a), abs(b)):
        return []
    return [path]


class Probe:
    """The fixed kernel that measures host speed; every run of it is kept in
    ``samples``, and ``with probe:`` also runs it every PROBE_PERIOD_S from a
    SIGALRM handler."""

    def __init__(self):
        size = 16384  # 128 KiB per array: the size of a 2-D ladder field
        rng = np.random.default_rng(0)
        self.a = rng.random(size)
        self.x = rng.random(size) * (size - 2)
        self.u, self.w, self.v0, self.v1 = (np.empty(size) for _ in range(4))
        self.i0, self.i1 = (np.empty(size, dtype=np.int64) for _ in range(2))
        self.samples = []
        self._previous = None

    def unit(self):
        """Seconds for four linear interpolations and prefix sums, allocation-free."""
        started = time.perf_counter()
        for _ in range(4):
            np.multiply(self.x, 0.999, out=self.u)
            np.floor(self.u, out=self.w)
            np.copyto(self.i0, self.w, casting="unsafe")
            np.clip(self.i0, 0, len(self.a) - 2, out=self.i0)
            np.add(self.i0, 1, out=self.i1)
            np.subtract(self.u, self.i0, out=self.w)
            np.take(self.a, self.i0, out=self.v0)
            np.take(self.a, self.i1, out=self.v1)
            np.subtract(self.v1, self.v0, out=self.v1)
            np.multiply(self.v1, self.w, out=self.v1)
            np.add(self.v0, self.v1, out=self.v0)
            np.cumsum(self.v0, out=self.v0)
        self.samples.append(time.perf_counter() - started)
        return self.samples[-1]

    def _sample(self, signum, frame):
        self.unit()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def cli_call(cli, command, config_path, out_path):
    """One CLI call through ``cli.main``, as a user would make it.

    Returns (wall seconds, exit code, the report ``cli.run`` returned,
    error); the code and report are None when the call raised.
    """
    reports = []
    real_run = cli.run

    def keep(cfg, threads=1):
        report = real_run(cfg, threads=threads)
        reports.append(report)
        return report

    argv = [command, "--config", str(config_path), "--out", str(out_path), "--threads", "1"]
    code, error = None, None
    cli.run = keep
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            started = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a crash is a failed operation, not a stop
                error = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
    finally:
        cli.run = real_run
    return elapsed, code, (reports[0] if reports and error is None else None), error


class Runner:
    """Runs a workload's commands and checks their results."""

    def __init__(self, cli, workdir, commands, reference, probe):
        self.cli = cli
        self.probe = probe
        self.workdir = Path(workdir)
        self.reference = reference
        self.attempted = 0
        self.failures = []
        self.commands = []
        for label, command, config, key in commands:
            path = self.workdir / f"{label}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            self.commands.append((label, command, path, key))

    def run_one(self, label, command, config_path, key, tracer=None):
        """Time one command and check it: (wall seconds, calibrated seconds)."""
        self.attempted += 1
        speed = [self.probe.unit() for _ in range(10)]
        first = len(self.probe.samples)
        artifact = self.workdir / "artifact.json"
        if artifact.exists():
            artifact.unlink()
        if tracer is None:
            elapsed, code, report, error = cli_call(self.cli, command, config_path, artifact)
        else:
            with tracer.command(command):
                elapsed, code, report, error = cli_call(self.cli, command, config_path, artifact)
        during = self.probe.samples[first:]
        speed += during
        calibrated = (elapsed - sum(during)) * PROBE_REF_S / statistics.median(speed)
        if error is not None:
            problem = error
        elif report is None:
            problem = f"no report (exit {code})"
        elif not artifact.exists():
            problem = "no artifact written"
        elif key not in self.reference:
            problem = f"no reference for {key}"
        else:
            bad = compare(self.reference[key], report["results"])
            problem = bad and f"{len(bad)} values differ from the reference, first {bad[0]}"
        if problem:
            self.failures.append(f"{label}: {problem}")
        return elapsed, calibrated

    def passes(self, seconds, tracer=None):
        """Whole passes until another would end after ``seconds``; at least one.

        Returns per pass the {label: [wall s, calibrated s]} map and, when
        traced, the index range of that pass's spans.
        """
        times, ranges = [], []
        started = time.perf_counter()
        while True:
            first = len(tracer.spans) if tracer else 0
            times.append({label: self.run_one(label, command, path, key, tracer)
                          for label, command, path, key in self.commands})
            ranges.append((first, len(tracer.spans) if tracer else 0))
            elapsed = time.perf_counter() - started
            typical = statistics.median(pass_seconds(p, 0) for p in times)
            if not elapsed + typical <= seconds:
                return times, ranges


def pass_seconds(times, which=1):
    """A pass's total: wall seconds (which=0) or calibrated seconds (1)."""
    return sum(t[which] for t in times.values())


def machine():
    """What the numbers were measured on."""
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches.append(f"L{level}{kind[0].lower()}={size}")
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": " ".join(caches),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def load_reference(workload):
    path = REFERENCE_DIR / f"{workload}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _import_cli():
    import dilatest
    from dilatest import cli

    src = (ROOT / "src").resolve()
    if src not in Path(dilatest.__file__).resolve().parents:
        raise SystemExit(f"dilatest was imported from {dilatest.__file__}, not from {src}")
    return cli


@contextlib.contextmanager
def _workdir():
    path = OUT_DIR / f"{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT_DIR.rmdir()


def measure(workload, seed, seconds, trace):
    cli = _import_cli()
    with _workdir() as workdir:
        probe = Probe()
        runner = Runner(cli, workdir, workloads.pass_commands(workload, seed),
                        load_reference(workload), probe)
        out = {"machine": machine()}
        if not trace:
            with probe:
                out["passes"], _ = runner.passes(seconds)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        else:
            with probe:
                plain, _ = runner.passes(seconds / 2)
                with Tracer() as tracer:
                    traced, ranges = runner.passes(seconds / 2, tracer)
            layers = median_metrics(
                [layer_metrics(tracer.spans[a:b]) for a, b in ranges])
            plain_pass = statistics.median(pass_seconds(p) for p in plain)
            traced_pass = statistics.median(pass_seconds(p) for p in traced)
            layers["trace.overhead_frac"] = traced_pass / plain_pass - 1.0
            # on the spans' clock, so that a layer's share of the pass can be read off
            layers["trace.pass_s"] = statistics.median(pass_seconds(p, 0) for p in traced)
            out["passes"] = plain
            out["per_layer"] = layers
    out["attempted"] = runner.attempted
    out["failures"] = runner.failures
    return out


def record(workload):
    """Write the reference results of every command for every config seed."""
    cli = _import_cli()
    reference = {}
    with _workdir() as workdir:
        for seed in range(workloads.N_SEEDS):
            for label, command, config, key in workloads.pass_commands(workload, seed):
                if key in reference:
                    continue
                path = workdir / f"{label}.json"
                path.write_text(json.dumps(config), encoding="utf-8")
                _, code, report, error = cli_call(cli, command, path, workdir / "artifact.json")
                if report is None:
                    raise SystemExit(f"{key}: no report (exit {code}, {error})")
                reference[key] = report["results"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(reference)} references to {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="write the reference results instead of measuring")
    args = parser.parse_args(argv)
    if args.record:
        record(args.workload)
        return 0
    out = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
