"""Spans around dilatest's public functions, recorded from outside the package.

``Tracer`` wraps each function in ``TARGETS`` and rebinds the wrapper in the
defining module and at every ``from .x import y`` binding in the other
``dilatest`` modules, so that calls between modules are timed too. Spans stay
in memory until the run ends; leaving the ``with`` block restores every
original binding.
"""

import functools
import hashlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _digest(g):
    """Content key of a grid function: geometry plus its sample bytes."""
    h = hashlib.blake2b(np.ascontiguousarray(g.samples).tobytes(), digest_size=16)
    return g.dim, g.halfwidth, h.hexdigest()


# the key functions take the traced function's own signature


def _field_key(f, k, order):
    return _digest(f), k, order


def _ap_key(gamma, p, depth=6, trace_steps=3, trace_factor=8):
    return _digest(gamma), p, depth


def _points(self, pts):
    return np.size(pts) // self.dim


# (span name, module, attribute, distinct-input group and key, work counter)
TARGETS = [
    ("differences.delta_window_field", "differences", "delta_window_field",
     ("differences", _field_key), None),
    ("differences.delta_cube_field", "differences", "delta_cube_field",
     ("differences", _field_key), None),
    ("differences.delta_expanded_field", "differences", "delta_expanded_field",
     ("differences", _field_key), None),
    ("dyadic.interp_masked", "dyadic", "GridFunction.interp_masked", None, ("points", _points)),
    ("dyadic.window_sums", "dyadic", "window_sums", None, None),
    ("dyadic.level_block_reduce", "dyadic", "level_block_reduce", None, None),
    ("norms.diff_norm", "norms", "diff_norm", None, None),
    ("norms.star_norm", "norms", "star_norm", None, None),
    ("norms.ltilde_norm", "norms", "ltilde_norm", None, None),
    ("weights.family_cube_reduce", "weights", "family_cube_reduce", None, None),
    ("weights.xclass_check", "weights", "xclass_check", None, None),
    ("weights.WeightSequence.from_spec", "weights", "WeightSequence.from_spec", None, None),
    ("weights.cube_weight_norms_level", "weights", "cube_weight_norms_level", None, None),
    ("weights.ap_constant", "weights", "ap_constant", ("ap_constant", _ap_key), None),
    ("maximal.hl_maximal", "maximal", "hl_maximal", None, None),
    ("maximal.fs_inequality_ratio", "maximal", "fs_inequality_ratio", None, None),
    ("maximal.weighted_maximal_ratio", "maximal", "weighted_maximal_ratio", None, None),
    ("dilation.dilate", "dilation", "dilate", None, None),
    ("dilation.compute_H", "dilation", "compute_H", None, None),
    ("dilation.sobolev_sup_ratio", "dilation", "sobolev_sup_ratio", None, None),
    ("dilation.verify_theorem", "dilation", "verify_theorem", None, None),
    ("lp_fourier.build_phi", "lp_fourier", "build_phi", None, None),
    ("lp_fourier.fourier_norm", "lp_fourier", "fourier_norm", None, None),
    ("fixtures.fixture", "fixtures", "fixture", None, None),
    ("fixtures.random_smooth", "fixtures", "random_smooth", None, None),
    ("fixtures.random_indicator_family", "fixtures", "random_indicator_family", None, None),
    ("cli.parse_config", "cli", "parse_config", None, None),
    ("cli.render", "cli", "render", None, None),
]

DIFFERENCE_FIELDS = [name for name, _, _, distinct, _ in TARGETS
                     if distinct and distinct[0] == "differences"]

# (ratio metric, spans counted, restricted to this command or None for all)
RATIOS = [
    ("differences.distinct_ratio", DIFFERENCE_FIELDS, None),
    ("differences.distinct_ratio.norm", DIFFERENCE_FIELDS, "norm"),
    ("differences.distinct_ratio.dilate", DIFFERENCE_FIELDS, "dilate"),
    ("differences.distinct_ratio.equiv", DIFFERENCE_FIELDS, "equiv"),
    ("weights.ap_constant.useful_ratio", ["weights.ap_constant"], None),
    ("weights.ap_constant.useful_ratio.maximal", ["weights.ap_constant"], "maximal"),
]

COMMAND_SPAN = "cli.main"


class Span:
    __slots__ = ("id", "parent", "name", "command", "counters", "start", "end")

    def __init__(self, id, parent, name, command=None, counters=None, start=0.0, end=0.0):
        self.id = id
        self.parent = parent
        self.name = name
        self.command = command
        self.counters = counters
        self.start = start
        self.end = end


class Tracer:
    """Install with ``with Tracer() as tracer:``; spans are in ``tracer.spans``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._seen = defaultdict(set)
        self._saved = []
        self._command = None

    def _open(self, name, counters=None):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self._command, counters)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, command):
        """Root span of one CLI call; distinct inputs are counted per call."""
        self._command = command
        self._seen.clear()
        span = self._open(COMMAND_SPAN)
        try:
            yield
        finally:
            self._close(span)
            self._command = None

    def _wrap(self, name, func, distinct, work):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            counters = None
            if distinct or work:
                counters = {}
                if distinct:
                    group, key_of = distinct
                    key = key_of(*args, **kwargs)
                    counters["distinct"] = key not in self._seen[group]
                    self._seen[group].add(key)
                if work:
                    counters[work[0]] = work[1](*args, **kwargs)
            span = self._open(name, counters)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def __enter__(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dilatest" or n.startswith("dilatest.")]
        try:
            for name, module, attr, distinct, work in TARGETS:
                owner = sys.modules["dilatest." + module]
                if "." in attr:  # a method: rebind it on its class
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self._wrap(name, raw.__func__, distinct, work))
                    else:
                        wrapped = self._wrap(name, raw, distinct, work)
                    self._saved.append((cls, meth, raw))
                    setattr(cls, meth, wrapped)
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(name, original, distinct, work)
                for m in modules:
                    for binding, value in list(vars(m).items()):
                        if value is original:
                            self._saved.append((m, binding, original))
                            setattr(m, binding, wrapped)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._saved:
            owner, binding, original = self._saved.pop()
            setattr(owner, binding, original)


def self_times(spans):
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for start, end in sorted(children[s.id]):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered
    return out


def layer_metrics(spans):
    """calls, total_s and self_s per target, self_s per module, counters and ratios."""
    own = self_times(spans)
    out = {}
    for name, module, *_ in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.total_s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{module}.self_s"] = 0.0  # the layer: every traced function of the module
    out["dyadic.interp_masked.points"] = 0
    for s in spans:
        if s.name == COMMAND_SPAN:
            continue
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.total_s"] += s.end - s.start
        out[f"{s.name}.self_s"] += own[s.id]
        out[f"{s.name.split('.')[0]}.self_s"] += own[s.id]
        if s.counters and "points" in s.counters:
            out["dyadic.interp_masked.points"] += s.counters["points"]
    for metric, names, command in RATIOS:
        hits = [s.counters["distinct"] for s in spans
                if s.name in names and (command is None or s.command == command)]
        # 0 when the workload never calls the function; its .calls shows why
        out[metric] = sum(hits) / len(hits) if hits else 0.0
    return out


def median_metrics(per_pass):
    """Per-metric median over a list of per-pass metric dicts."""
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
