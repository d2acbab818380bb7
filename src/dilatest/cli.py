"""Experiment orchestration: config ingestion, dispatch, report emission.

Usage: ``dilatest <command> --config <file> [--out <file>] [--format json|csv]
[--threads N]`` with commands norm, ap, xclass, dilate, maximal, equiv.

Reports are emitted with sorted keys and floats rounded to 12 significant
digits, so identical (config, seed) pairs produce byte-identical artifacts;
wall-clock time is printed to stderr only, never serialized. Exit status is
0 on PASS, 1 on FAIL, 2 on INCONCLUSIVE or a configuration error.
"""

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass

from . import fixtures, regression
from .dilation import summarize_dilation, verify_theorem
from .dyadic import GridFunction, finest_level
from .errors import ConfigError, DilatestError, InvalidExponent, config_number
from .lp_fourier import fourier_norm
from .maximal import fs_inequality_ratio, weighted_maximal_ratio
from .norms import SpaceParams, diff_norm, star_norm, window_level_cap
from .weights import (
    WeightSequence,
    ap_constant,
    plain_form,
    spec_from_dict,
    weight_grid,
    xclass_check,
)

COMMANDS = ("norm", "ap", "xclass", "dilate", "maximal", "equiv")
WINDOW_COMMANDS = ("norm", "dilate", "equiv")  # the commands that build difference windows
# the commands that need p > 1: xclass and dilate read sigma1 = theta (p/theta)',
# and the maximal bound a theta in (1, p]
P_ABOVE_ONE_COMMANDS = ("xclass", "dilate", "maximal")
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
EXIT_CODE = {"PASS": 0, "FAIL": 1, "INCONCLUSIVE": 2}
_MAXIMAL_THETA = 1.5  # the maximal bound needs theta > 1; used when space.theta is not


def _integer(value, where, minimum=None):
    """Integers are accepted as JSON integers or integral floats, never truncated."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{where}: must be at least {minimum}, got {value!r}")
    return value


def _numbers(value, where, length=None):
    """A list of config numbers: exactly ``length`` of them, or any non-empty list."""
    if not isinstance(value, list) or not value or length not in (None, len(value)):
        count = "a non-empty list of" if length is None else length
        raise ConfigError(f"{where}: expected {count} numbers, got {value!r}")
    return [config_number(v, where) for v in value]


def _choice(value, where, choices):
    if value not in choices:
        raise ConfigError(f"{where}: expected one of {list(choices)}, got {value!r}")
    return value


def _positive(value, where):
    """A bound override; every bounded ratio is >= 0, so a bound <= 0 could only read FAIL."""
    value = config_number(value, where)
    if not value > 0:
        raise ConfigError(f"{where}: must be positive, got {value}")
    return value


def _bracket(value, where):
    """A [lo, hi] bracket override: lo <= hi, and hi > 0 as for ``_positive``."""
    lo, hi = _numbers(value, where, 2)
    if lo > hi:
        raise ConfigError(f"{where}: lo = {lo} exceeds hi = {hi}")
    if not hi > 0:
        raise ConfigError(f"{where}: hi must be positive, got {hi}")
    return [lo, hi]


class _Reader:
    """One config object: each key is read once, with its default and check,
    and echoed as the run used it; ``unread`` names every other key."""

    def __init__(self, data, where):
        if not isinstance(data, dict):
            raise ConfigError(f"{where or 'config'}: expected an object, got {data!r}")
        self.data, self.where, self.echo, self.parts = data, where, {}, []

    def _path(self, key):
        return f"{self.where}.{key}" if self.where else key

    def read(self, key, default, check, *args):
        """``check(value, path, *args)`` of the value under key, else of ``default``."""
        value = check(self.data.get(key, default), self._path(key), *args)
        self.echo[key] = plain_form(value)
        return value

    def part(self, key):
        """The reader of the object under key; a missing one reads as empty."""
        part = _Reader(self.data.get(key, {}), self._path(key))
        self.echo[key] = part.echo
        self.parts.append(part)
        return part

    def unread(self):
        """Dotted paths of the keys that nothing read, here and in the parts."""
        own = [self._path(key) for key in self.data if key not in self.echo]
        return own + [path for part in self.parts for path in part.unread()]


@dataclass
class RunConfig:
    """A validated config; ``parse_config`` holds the defaults, and ``echo``
    every key it read, defaults filled in, as the artifact's ``config``."""

    command: str
    halfwidth: float
    resolution: int
    dim: int
    space: SpaceParams
    weights: object
    fixture: str
    lambda_list: list
    depth: int
    norm: str
    seed: int
    families: int
    family_size: int
    sigma: float
    bounds: dict
    echo: dict


def parse_config(data: dict, command: str) -> RunConfig:
    """Validate a config mapping; error messages carry the offending field,
    and a key that nothing reads is an error."""
    top = _Reader(data, "")
    top.read("command", command, _choice, (command,))
    grid = top.part("grid")
    halfwidth = grid.read("L", 8.0, config_number)
    if (
        not 0 < halfwidth < math.inf
        or abs(math.log2(halfwidth) - round(math.log2(halfwidth))) > 1e-12
    ):
        raise ConfigError("grid.L must be a positive power of two (cube alignment)")
    resolution = grid.read("N", 4096, _integer)
    if resolution < 32 or resolution & (resolution - 1):
        raise ConfigError("grid.N must be a power of two >= 32")
    dim = grid.read("dim", 1, _integer)
    if dim not in (1, 2, 3):
        raise ConfigError("grid.dim must be 1, 2 or 3 (the sup probe is too coarse above 3)")

    s = top.part("space")
    window_cap = window_level_cap(halfwidth, resolution)
    p = s.read("p", 2.0, config_number)
    alpha = s.read("alpha", [1.0, 1.0], _numbers, 2)
    if not all(math.isfinite(a) for a in alpha):
        raise ConfigError(f"space.alpha: expected finite numbers, got {alpha!r}")
    try:
        space = SpaceParams(
            kind=s.read("kind", "B", _choice, ("B", "F")),
            p=p,
            q=s.read("q", 2.0, config_number),
            M=s.read("M", 2, _integer, 1),
            alpha=tuple(alpha),
            theta=s.read("theta", 1.0, config_number),
            # sigma2 defaults to p, also when null
            sigma2=s.read("sigma2", p, lambda v, w: p if v is None else config_number(v, w)),
            k_max=s.read("K_max", max(1, min(6, window_cap)), _integer, 1),
        )
    except InvalidExponent as exc:
        raise ConfigError(f"space: {exc}") from exc
    if command in P_ABOVE_ONE_COMMANDS and not space.p > 1.0:
        raise ConfigError(f"space.p = {space.p}: the {command} command needs p > 1")
    # difference windows need 4 cells a side; the other commands read the
    # K_max weight levels only, each as fine as the grid resolves
    k_cap = window_cap if command in WINDOW_COMMANDS else finest_level(halfwidth, resolution)
    if space.k_max > k_cap:
        raise ConfigError(
            f"space.K_max = {space.k_max} exceeds the resolution cap {k_cap} "
            f"for grid (L={halfwidth}, N={resolution})"
        )

    weights = top.read("weights", {"kind": "constant", "value": 1.0},
                       lambda v, w: spec_from_dict(v, dim, w))
    fixture_name = top.read("fixture", "gaussian", _choice, fixtures.fixture_names())
    lam_list = top.read("lambda_list", [2.0, 4.0, 8.0], _numbers)
    if not all(1.0 <= v < math.inf for v in lam_list):
        raise ConfigError("lambda_list: dilation factors must be finite and >= 1")
    b = top.part("bounds")
    checks = {"fs": _positive, "weighted": _positive,
              "star_diff": _bracket, "fourier_diff": _bracket}
    cfg = RunConfig(
        command=command,
        halfwidth=halfwidth,
        resolution=resolution,
        dim=dim,
        space=space,
        weights=weights,
        fixture=fixture_name,
        lambda_list=lam_list,
        depth=top.read("depth", 6, _integer),
        norm=top.read("norm", "diff", _choice, ("diff", "star")),
        seed=top.read("seed", 0, _integer, 0),
        families=top.read("families", 20, _integer, 1),
        family_size=top.read("family_size", 6, _integer, 1),
        sigma=top.read("sigma", 0.5, config_number),
        bounds={key: b.read(key, None, check) for key, check in checks.items() if key in b.data},
        echo=top.echo,
    )
    unread = top.unread()
    if unread:
        raise ConfigError("; ".join(f"{path}: unknown key" for path in unread))
    return cfg


def _weight_sequence(cfg: RunConfig) -> WeightSequence:
    return WeightSequence.from_spec(
        cfg.weights, cfg.space.k_max, cfg.dim, cfg.halfwidth, cfg.resolution
    )


def _fixture(cfg: RunConfig) -> GridFunction:
    return fixtures.fixture(cfg.fixture, cfg.dim, cfg.halfwidth, cfg.resolution)


# -- command handlers -----------------------------------------------------------


def _run_norm(cfg, threads=1):
    f = _fixture(cfg)
    t = _weight_sequence(cfg)
    dv, dinfo = diff_norm(f, t, cfg.space, details=True)
    sv, sinfo = star_norm(f, t, cfg.space, details=True)
    fv = fourier_norm(f, t, cfg.space)
    rows = [
        {"norm": "diff", "value": dv, "boundary_mass": dinfo["boundary_mass"]},
        {"norm": "star", "value": sv, "boundary_mass": sinfo["boundary_mass"]},
        {"norm": "fourier", "value": fv, "boundary_mass": 0.0},
    ]
    # a value with too much boundary mass cannot be trusted, which is not a violation
    unreliable = [name for name, info in (("diff", dinfo), ("star", sinfo))
                  if not info["reliable"]]
    if not all(math.isfinite(v) for v in (dv, sv, fv)):
        return {"rows": rows}, {"overall": "FAIL"}
    if unreliable:
        return {"rows": rows}, {"overall": "INCONCLUSIVE", "unreliable": unreliable}
    return {"rows": rows}, {"overall": "PASS"}


def _run_ap(cfg, threads=1):
    gamma = weight_grid(cfg.weights, 0, cfg.dim, cfg.halfwidth, cfg.resolution)
    rep = ap_constant(gamma, cfg.space.p, cfg.depth)
    rows = [{"N": n, "constant": c, "verdict": rep.verdict} for n, c in rep.trace]
    results = {
        "rows": rows,
        "constant": rep.constant,
        "argmax_level": rep.argmax_cube.level,
        "argmax_index": list(rep.argmax_cube.index),
        "argmax_shift": rep.argmax_shift,
        "levels_scanned": list(rep.levels_scanned),
    }
    return results, {"overall": rep.verdict}


def _run_xclass(cfg, threads=1):
    t = _weight_sequence(cfg)
    rep = xclass_check(t, cfg.space, cfg.depth)
    rows = [{"depth": d, "C1": a, "C2": b} for d, a, b in rep.trace]
    results = {
        "rows": rows,
        "C1": rep.c1,
        "C2": rep.c2,
        "order_violation": rep.order_violation,
    }
    return results, {"overall": rep.verdict}


def _run_dilate(cfg, threads=1):
    f = _fixture(cfg)
    t = _weight_sequence(cfg)
    reports = verify_theorem(
        f, t, cfg.space, cfg.lambda_list, norm=cfg.norm, depth=cfg.depth,
        threads=threads,
    )
    summary = summarize_dilation(reports)
    rows = []
    for r in reports:
        sob = "DIVERGENT" if (r.sobolev and r.sobolev.divergent) else (
            r.sobolev.value if r.sobolev else None
        )
        rows.append(
            {
                "lambda": r.lam,
                "i": r.i,
                "H": r.H,
                "norm_before": r.norm_before,
                "norm_after": r.norm_after,
                "bound_rhs_shape": r.bound_rhs_shape,
                "observed_c": r.observed_c,
                "clipped_fraction": r.clipped_fraction,
                "sobolev_sup": sob,
            }
        )
    results = {
        "rows": rows,
        "spread": summary["spread"],
        "slope": summary["slope"],
        "median_c": summary["median_c"],
    }
    return results, {"overall": summary["verdict"]}


def _run_maximal(cfg, threads=1):
    t = _weight_sequence(cfg)
    sp = cfg.space
    theta = sp.theta if sp.theta > 1.0 else _MAXIMAL_THETA
    if theta > sp.p:
        raise ConfigError(
            f"space.theta = {sp.theta} is not above 1, so the maximal bound substitutes "
            f"theta = {_MAXIMAL_THETA}, which exceeds p = {sp.p}; "
            "set space.theta in (1, p]"
        )
    rows = []
    for j in range(cfg.families):
        seed = cfg.seed + j
        fam = fixtures.random_indicator_family(
            seed, cfg.family_size, cfg.dim, cfg.halfwidth, cfg.resolution
        )
        fs_ratio = fs_inequality_ratio(fam, sp.p, sp.q, cfg.sigma)
        smooth = [
            fixtures.random_smooth(
                1000 + 10 * seed + i, cfg.dim, cfg.halfwidth, cfg.resolution
            )
            for i in range(max(2, cfg.family_size // 2))
        ]
        wm_ratio = weighted_maximal_ratio(smooth, t, sp.p, sp.q, theta)
        rows.append({"seed": seed, "fs_ratio": fs_ratio, "weighted_ratio": wm_ratio})
    fs_bound = cfg.bounds.get("fs", regression.FS_RATIO_BOUND)
    wm_bound = cfg.bounds.get("weighted", regression.WEIGHTED_RATIO_BOUND)
    fs_max = max(r["fs_ratio"] for r in rows)
    wm_max = max(r["weighted_ratio"] for r in rows)
    verdict = "PASS" if fs_max <= fs_bound and wm_max <= wm_bound else "FAIL"
    results = {
        "rows": rows,
        "fs_max": fs_max,
        "weighted_max": wm_max,
        "fs_bound": fs_bound,
        "weighted_bound": wm_bound,
        "theta": theta,
    }
    return results, {"overall": verdict}


def _run_equiv(cfg, threads=1):
    t = _weight_sequence(cfg)
    rows = []
    for name in fixtures.EQUIVALENCE_FAMILY:
        f = fixtures.fixture(name, cfg.dim, cfg.halfwidth, cfg.resolution)
        d = diff_norm(f, t, cfg.space)
        s = star_norm(f, t, cfg.space)
        fo = fourier_norm(f, t, cfg.space)
        rows.append(
            {
                "fixture": name,
                "diff": d,
                "star": s,
                "fourier": fo,
                "star_diff_ratio": s / d if d > 0 else math.inf,
                "fourier_diff_ratio": fo / d if d > 0 else math.inf,
            }
        )
    sd_lo, sd_hi = cfg.bounds.get("star_diff", regression.STAR_DIFF_BRACKET)
    fd_lo, fd_hi = cfg.bounds.get("fourier_diff", regression.FOURIER_DIFF_BRACKET)
    ok = all(
        sd_lo <= r["star_diff_ratio"] <= sd_hi
        and fd_lo <= r["fourier_diff_ratio"] <= fd_hi
        for r in rows
    )
    results = {
        "rows": rows,
        "star_diff_bracket": [sd_lo, sd_hi],
        "fourier_diff_bracket": [fd_lo, fd_hi],
    }
    return results, {"overall": "PASS" if ok else "FAIL"}


_HANDLERS = {
    "norm": _run_norm,
    "ap": _run_ap,
    "xclass": _run_xclass,
    "dilate": _run_dilate,
    "maximal": _run_maximal,
    "equiv": _run_equiv,
}


def run(cfg: RunConfig, threads=1) -> dict:
    """Dispatch one command; deterministic given (config, seed)."""
    started = time.monotonic()
    handler = _HANDLERS[cfg.command]
    results, verdicts = handler(cfg, threads)
    elapsed = time.monotonic() - started
    report = {
        "config": cfg.echo,
        "results": results,
        "verdicts": verdicts,
        "meta": {
            "L": cfg.halfwidth,
            "N": cfg.resolution,
            "dim": cfg.dim,
            "K_max": cfg.space.k_max,
            "depth": cfg.depth,
            "seed": cfg.seed,
        },
    }
    # wall clock goes to the console only: emitted artifacts must be
    # byte-identical across reruns of the same (config, seed)
    report["wall_clock_s"] = elapsed
    return report


# -- emission --------------------------------------------------------------------


def _round_floats(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def render(report: dict, fmt: str) -> str:
    """Serialize a report: stable JSON, or CSV with one row per sweep entry."""
    body = {k: v for k, v in report.items() if k != "wall_clock_s"}
    if fmt == "json":
        return json.dumps(_round_floats(body), indent=2, sort_keys=True) + "\n"
    if fmt != "csv":
        raise ConfigError(f"unknown format {fmt!r}")
    rows = report["results"].get("rows", [])
    buf = io.StringIO()
    if rows:
        fieldnames = list(rows[0].keys())
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            out = {}
            for key, val in row.items():
                val = _round_floats(val)
                out[key] = f"{val:.12g}" if isinstance(val, float) else val
            writer.writerow(out)
    return buf.getvalue()


def emit(report: dict, fmt: str, path) -> None:
    data = render(report, fmt)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(data)


def _keep_freed_heap():
    """Let glibc keep freed heap memory for reuse instead of returning it.

    The kernels allocate and free many short-lived arrays. Under glibc's
    default thresholds each free at the top of a small heap hands the pages
    back to the kernel and the next array faults them in again (about 47 000
    minor faults in one 1-D dilate command). A no-op without glibc.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_TRIM_THRESHOLD, 64 << 20)
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dilatest",
        description="Weighted smoothness-space diagnostics and dilation checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="JSON config file")
        cmd.add_argument("--out", default=None, help="artifact path (default: stdout)")
        cmd.add_argument("--format", default="json", choices=("json", "csv"))
        cmd.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)
    _keep_freed_heap()

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(data, args.command)
        report = run(cfg, threads=args.threads)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DilatestError, MemoryError) as exc:  # a grid too large to allocate is invalid input
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    try:
        if args.out:
            emit(report, args.format, args.out)
        else:
            sys.stdout.write(render(report, args.format))
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    print(f"wall clock: {report['wall_clock_s']:.3f} s", file=sys.stderr)
    verdict = report["verdicts"]["overall"]
    print(f"verdict: {verdict}", file=sys.stderr)
    return EXIT_CODE.get(verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
