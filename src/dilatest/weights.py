"""Weight construction, Muckenhoupt diagnostics, and weight-sequence classes.

Verdict semantics for every sup-over-cubes estimate: the supremum over an
unbounded cube family can only be stabilized or falsified, never confirmed.
A scan therefore reports a refinement trace and one of

* ``PASS``        the running constant moved by < 10% across the last two
                  refinement stages (plateau),
* ``FAIL``        it grew by >= 2x per stage over the last two stages,
* ``INCONCLUSIVE``  anything in between.

The scanned family is the dyadic cubes of the requested levels together with
their one-third and two-thirds translates per axis, which tracks the supremum
over all cubes to within a fixed dimensional factor.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .dyadic import DyadicCube, GridFunction, axis_reduce
from .errors import (
    InvalidExponent,
    MissingLevels,
    NonPositiveValue,
    ResolutionExceeded,
)

PASS, FAIL, INCONCLUSIVE = "PASS", "FAIL", "INCONCLUSIVE"

_GROWTH = 2.0 * (1.0 - 1e-9)  # robust against exact powers of two
_PLATEAU = 0.10
SHIFT_FRACTIONS = (0.0, 1.0 / 3.0, 2.0 / 3.0)


# -- weight construction DSL ---------------------------------------------------


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Power:
    """|x|**beta."""

    beta: float


@dataclass(frozen=True)
class ShiftedPower:
    """|x - center|**delta."""

    center: tuple
    delta: float


@dataclass(frozen=True)
class GeometricLevel:
    """2**(k*s) * base(x), or 2**(k*s) * base(2**-k * x) when dilated."""

    s: float
    base: object
    dilated: bool = False


@dataclass(frozen=True)
class AdmissibleSeq:
    """Level scalar 2**(s*k) * (1+k)**b * (1 + log(1+k))**c."""

    s: float
    b: float = 0.0
    c: float = 0.0


@dataclass(frozen=True)
class ProductWeight:
    factors: tuple


def _norm_center(center, dim):
    if np.isscalar(center):
        return (float(center),) * dim
    return tuple(float(c) for c in center)


def eval_weight(spec, k, pts, dim=1):
    """Evaluate a weight spec at level k on points (shape (...,) or (..., 2)).

    Raises NonPositiveValue if any value underflows to zero or is non-finite;
    grids are cell-centered so singular points are never hit by construction.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        vals = _eval(spec, int(k), np.asarray(pts, dtype=float), dim)
    if not np.all(np.isfinite(vals)) or np.any(vals <= 0.0):
        raise NonPositiveValue(f"weight {spec!r} not strictly positive at level {k}")
    return vals


def _radius(pts, dim, center):
    if dim == 1:
        return np.abs(pts - center[0])
    return np.sqrt(np.sum((pts - np.asarray(center)) ** 2, axis=-1))


def _eval(spec, k, pts, dim):
    if isinstance(spec, Constant):
        return np.full(np.shape(_radius(pts, dim, (0.0,) * dim)), float(spec.value))
    if isinstance(spec, Power):
        return _radius(pts, dim, (0.0,) * dim) ** spec.beta
    if isinstance(spec, ShiftedPower):
        return _radius(pts, dim, _norm_center(spec.center, dim)) ** spec.delta
    if isinstance(spec, GeometricLevel):
        arg = pts * 2.0 ** (-k) if spec.dilated else pts
        return 2.0 ** (k * spec.s) * _eval(spec.base, k, arg, dim)
    if isinstance(spec, AdmissibleSeq):
        scale = (
            2.0 ** (spec.s * k)
            * (1.0 + k) ** spec.b
            * (1.0 + math.log(1.0 + k)) ** spec.c
        )
        return np.full(np.shape(_radius(pts, dim, (0.0,) * dim)), scale)
    if isinstance(spec, ProductWeight):
        out = 1.0
        for fac in spec.factors:
            out = out * _eval(fac, k, pts, dim)
        return out
    raise TypeError(f"unknown weight spec {spec!r}")


def weight_grid(spec, k, dim=1, halfwidth=8.0, resolution=1024) -> GridFunction:
    return GridFunction.from_callable(
        lambda pts: eval_weight(spec, k, pts, dim), dim, halfwidth, resolution
    )


class WeightSequence:
    """Levels t_0..t_K of positive grid weights with a common exponent p."""

    def __init__(self, levels, p, spec=None):
        if not levels:
            raise ValueError("need at least one level")
        g0 = levels[0]
        for g in levels:
            if (g.dim, g.halfwidth, g.resolution) != (
                g0.dim,
                g0.halfwidth,
                g0.resolution,
            ):
                raise ValueError("all levels must share one grid geometry")
            if np.any(g.samples <= 0.0) or not np.all(np.isfinite(g.samples)):
                raise NonPositiveValue("weight levels must be strictly positive")
        if p <= 0:
            raise InvalidExponent("p must be positive")
        self.levels = list(levels)
        self.p = float(p)
        self.spec = spec

    @classmethod
    def from_spec(cls, spec, p, k_max, dim=1, halfwidth=8.0, resolution=1024):
        levels = [
            weight_grid(spec, k, dim, halfwidth, resolution) for k in range(k_max + 1)
        ]
        return cls(levels, p, spec=spec)

    @property
    def k_max(self):
        return len(self.levels) - 1

    @property
    def grid(self) -> GridFunction:
        return self.levels[0]

    def level(self, k) -> GridFunction:
        if not 0 <= k < len(self.levels):
            raise MissingLevels(f"level {k} not available (have 0..{self.k_max})")
        return self.levels[k]

    def eval_level(self, k, pts):
        """Level-k weight at arbitrary points: closed form if available."""
        g = self.level(k)
        if self.spec is not None:
            return eval_weight(self.spec, k, pts, g.dim)
        return g.interp(pts, outside="clamp")


# -- conjugate exponents -------------------------------------------------------


def conjugate(p) -> float:
    """Hoelder conjugate p' = p / (p - 1) for 1 < p < inf."""
    if not 1.0 < p < math.inf:
        raise InvalidExponent("conjugate exponent needs 1 < p < inf")
    return p / (p - 1.0)


def sigma1_of(theta, p):
    """theta * (p/theta)' = theta p / (p - theta); inf when theta = p."""
    if not 1.0 <= theta <= p or not p > 1.0:
        raise InvalidExponent("need 1 <= theta <= p and p > 1")
    if theta == p:
        return math.inf
    return theta * p / (p - theta)


# -- cube families over one grid ------------------------------------------------


@functools.lru_cache(maxsize=None)
def _family_axis(halfwidth, resolution, k, shift_frac):
    """Nonempty cubes of the shifted level-k tiling along one axis.

    Returns (lo, hi, indices, boundary): cube indices[i] holds the cells
    [lo[i], hi[i]) and boundary marks cubes clipped at the domain edge. The
    arrays are cached per geometry, so they are read-only.
    """
    side = 2.0 ** (-k)
    off = shift_frac * side
    L, n = halfwidth, resolution
    dx = 2.0 * L / n
    m0 = math.floor((-L - off) / side + 1e-12)
    m1 = math.ceil((L - off) / side - 1e-12)
    ms = np.arange(m0, m1)
    lows = (ms + shift_frac) * side
    edges = np.ceil((lows + L) / dx - 0.5 - 1e-9).astype(np.int64)
    edges = np.clip(np.append(edges, n), 0, n)
    keep = edges[1:] > edges[:-1]
    boundary = (lows < -L - 1e-12) | (lows + side > L + 1e-12)
    out = edges[:-1][keep], edges[1:][keep], ms[keep], boundary[keep]
    for a in out:
        a.flags.writeable = False
    return out


def family_cube_reduce(values, f: GridFunction, k, shift_frac, op="sum"):
    """Per-cube reduction over the (possibly shifted) level-k tiling.

    Returns (reduced, counts, indices, boundary) with one entry per nonempty
    cube, in C order of the cube grid; indices has one column per axis. The
    reduction runs along one axis at a time.
    """
    lo, hi, ms, boundary = _family_axis(f.halfwidth, f.resolution, k, shift_frac)
    red = np.asarray(values, dtype=float)
    for ax in range(f.dim):
        red = axis_reduce(red, lo, hi, ax, op)

    def outer(ufunc, per_axis):
        return functools.reduce(ufunc.outer, [per_axis] * f.dim).ravel()

    cubes = np.indices((len(lo),) * f.dim).reshape(f.dim, -1).T
    return red.ravel(), outer(np.multiply, hi - lo), ms[cubes], outer(np.logical_or, boundary)


def scan_levels(f: GridFunction, depth):
    """Cube levels scanned: coarsest cube with side <= 2L down to the grid."""
    k_min = -int(math.floor(math.log2(f.halfwidth)))
    cap = int(math.floor(math.log2(f.resolution / (2.0 * f.halfwidth)) + 1e-9))
    k_max = min(depth, cap)
    if k_max < k_min:
        raise ResolutionExceeded("grid too coarse for any cube level")
    return range(k_min, k_max + 1)


def _trace_verdict(values):
    if len(values) >= 3:
        g1 = values[-2] / max(values[-3], 1e-300)
        g2 = values[-1] / max(values[-2], 1e-300)
        if g1 >= _GROWTH and g2 >= _GROWTH:
            return FAIL
    if len(values) >= 2:
        prev = max(values[-2], 1e-300)
        if abs(values[-1] - values[-2]) / prev < _PLATEAU:
            return PASS
        return INCONCLUSIVE
    return INCONCLUSIVE


# -- Muckenhoupt constants -------------------------------------------------------


@dataclass
class ApReport:
    """Outcome of a sup-over-cubes scan with its refinement trace."""

    constant: float
    argmax_cube: DyadicCube
    argmax_shift: float
    levels_scanned: tuple
    trace: list
    verdict: str
    boundary_at_argmax: bool = False
    exponent: float = float("nan")


def _scan_product(g: GridFunction, depth, factors):
    """Max over the cube family of a product of per-cube statistics.

    ``factors`` maps precomputed sample arrays to per-cube values; it receives
    (sums-or-reductions, counts) and returns the per-cube product.
    """
    best = -math.inf
    arg = None
    levels = scan_levels(g, depth)
    for k in levels:
        for shift in SHIFT_FRACTIONS:
            vals, counts, idx, bdy = factors(g, k, shift)
            j = int(np.argmax(vals))
            if vals[j] > best:
                best = float(vals[j])
                arg = (DyadicCube(k, tuple(int(x) for x in idx[j])), shift, bool(bdy[j]))
    return best, arg, (levels.start, levels.stop - 1)


def _resolution_trace(n, steps=3, factor=8, floor=32):
    out = []
    for i in reversed(range(steps)):
        r = n // factor**i
        if r >= floor and r not in out:
            out.append(r)
    return out


def ap_constant(gamma: GridFunction, p, depth=6, trace_steps=3, trace_factor=8) -> ApReport:
    """Estimate the Muckenhoupt constant sup_Q M_Q(g) * M_{Q,p'/p}(g^-1)."""
    if p <= 1.0:
        raise InvalidExponent("the cube condition needs p > 1")
    sigma = conjugate(p) / p  # = 1/(p-1)

    def factors(g, k, shift):
        s_g, counts, idx, bdy = family_cube_reduce(g.samples, g, k, shift)
        s_inv, _, _, _ = family_cube_reduce(g.samples ** (-sigma), g, k, shift)
        prod = (s_g / counts) * (s_inv / counts) ** (1.0 / sigma)
        return prod, counts, idx, bdy

    return _run_refinements(gamma, p, depth, trace_steps, trace_factor, factors)


def a1_constant(gamma: GridFunction, depth=6, trace_steps=3, trace_factor=8) -> ApReport:
    """Estimate sup_Q M_Q(g) / min_Q g, the discrete A_1 surrogate."""

    def factors(g, k, shift):
        s_g, counts, idx, bdy = family_cube_reduce(g.samples, g, k, shift)
        mins, _, _, _ = family_cube_reduce(g.samples, g, k, shift, op="min")
        return (s_g / counts) / mins, counts, idx, bdy

    return _run_refinements(gamma, 1.0, depth, trace_steps, trace_factor, factors)


def _run_refinements(gamma, p, depth, steps, factor, factors):
    trace = []
    arg = None
    levels = (0, 0)
    for res in _resolution_trace(gamma.resolution, steps, factor):
        g = gamma.resample(res)
        best, arg, levels = _scan_product(g, depth, factors)
        trace.append((res, best))
    values = [v for _, v in trace]
    cube, shift, bdy = arg
    return ApReport(
        constant=values[-1],
        argmax_cube=cube,
        argmax_shift=shift,
        levels_scanned=levels,
        trace=trace,
        verdict=_trace_verdict(values),
        boundary_at_argmax=bdy,
        exponent=p,
    )


def weight_pow(gamma: GridFunction, exponent) -> GridFunction:
    ev = None
    if gamma.evaluator is not None:
        base = gamma.evaluator
        ev = lambda pts: np.asarray(base(pts), dtype=float) ** exponent
    return gamma.with_samples(gamma.samples**exponent, evaluator=ev)


def ap_properties_check(gamma: GridFunction, p, lam, depth=5, seed=0) -> dict:
    """Empirical checks of the standard A_p stability properties.

    Covers: (monotone) membership at a larger exponent, (duality) the
    conjugate weight g**(1-p'), (subset) the measure-ratio inequality over
    random cube/subset pairs, and (dilation) g(lam * x). Returns the worst
    observed ratios and scan verdicts.
    """
    if p <= 1.0:
        raise InvalidExponent("properties check needs p > 1")
    base = ap_constant(gamma, p, depth)
    bigger = ap_constant(gamma, p + 1.0, depth)
    pc = conjugate(p)
    dual = ap_constant(weight_pow(gamma, 1.0 - pc), pc, depth)

    # measure-ratio inequality over random (Q, E subset Q) pairs
    rng = np.random.default_rng(seed)
    worst = 0.0
    n = gamma.resolution
    samples = np.abs(gamma.samples)
    for _ in range(200):
        if gamma.dim == 1:
            w = int(rng.integers(8, max(9, n // 4)))
            i0 = int(rng.integers(0, n - w))
            block = samples[i0 : i0 + w]
            e_w = int(rng.integers(1, w))
            e0 = int(rng.integers(0, w - e_w + 1))
            sub = block[e0 : e0 + e_w]
            frac = e_w / w
        else:
            w = int(rng.integers(4, max(5, n // 4)))
            i0, j0 = rng.integers(0, n - w, size=2)
            block = samples[i0 : i0 + w, j0 : j0 + w]
            e_w = int(rng.integers(1, w))
            e0, e1 = rng.integers(0, w - e_w + 1, size=2)
            sub = block[e0 : e0 + e_w, e1 : e1 + e_w]
            frac = (e_w / w) ** 2
        ratio = frac ** (p - 1.0) * block.mean() / sub.mean()
        worst = max(worst, float(ratio))

    if gamma.evaluator is not None:
        dilated = GridFunction.from_callable(
            lambda pts: np.asarray(gamma.evaluator(np.asarray(pts) * lam), dtype=float),
            gamma.dim,
            gamma.halfwidth,
            gamma.resolution,
        )
    else:
        dilated = gamma.with_samples(gamma.interp(gamma.points() * lam, outside="clamp"))
    dil = ap_constant(dilated, p, depth)

    return {
        "base": base,
        "monotone": bigger,
        "duality": dual,
        "subset_worst_ratio": worst,
        "dilation": dil,
        "lambda": lam,
    }


# -- weight-sequence cube norms ---------------------------------------------------


def cube_weight_norm(t: WeightSequence, k, m) -> float:
    """t_{k,m} = (int_{Q_{k,m}} t_k^p)^(1/p), measure factor included."""
    g = t.level(k)
    if 2.0 ** (-k) < g.spacing * (1 - 1e-12):
        raise ResolutionExceeded(f"level {k} below grid resolution")
    m = (m,) if np.isscalar(m) else tuple(m)
    from .dyadic import cube_box

    box = cube_box(DyadicCube(int(k), tuple(int(x) for x in m))).intersect(g.domain)
    if box is None:
        raise ResolutionExceeded("cube lies outside the sampled box")
    sl = tuple(slice(*g.index_range(lo, hi)) for lo, hi in zip(box.lo, box.hi))
    return float(
        np.sum(g.samples[sl] ** t.p) * g.spacing**g.dim
    ) ** (1.0 / t.p)


def cube_weight_norms_level(t: WeightSequence, k):
    """All t_{k,m} over the level-k cubes tiling the grid, plus first index."""
    from .dyadic import level_block_reduce, level_first_index

    g = t.level(k)
    sums = level_block_reduce(g.samples**t.p, g, k, op="sum") * g.spacing**g.dim
    return sums ** (1.0 / t.p), level_first_index(g, k)


# -- the inter-level regularity class ----------------------------------------------


@dataclass
class XClassParams:
    alpha1: float
    alpha2: float
    sigma1: float
    sigma2: float
    p: float
    order_violation: bool = field(init=False)

    def __post_init__(self):
        if self.p <= 0 or self.sigma1 <= 0 or self.sigma2 <= 0:
            raise InvalidExponent("p and both sigmas must be positive")
        # alpha2 < alpha1 contradicts the admissible-range remark; report, not raise
        self.order_violation = self.alpha2 < self.alpha1


@dataclass
class XClassReport:
    c1: float
    c2: float
    trace: list
    verdict: str
    argmax_c1: tuple
    argmax_c2: tuple
    depth: int
    order_violation: bool


def _lp_cube_mean(sums, counts, q):
    if q == math.inf:
        return sums  # already a max-reduction
    return (sums / counts) ** (1.0 / q)


def xclass_check(t: WeightSequence, params: XClassParams, depth=6):
    """Measure the two inter-level cube inequalities of the weight class.

    C1 bounds M_{Q,p}(t_k) * M_{Q,s1}(t_j^{-1}) / 2**(a1 (k-j)) over k <= j;
    C2 bounds M_{Q,s2}(t_j) / (M_{Q,p}(t_k) * 2**(a2 (j-k))). The refinement
    trace grows the level range j and the verdict follows the plateau/growth
    heuristic. Returns (C1, C2, report).
    """
    g = t.grid
    j_max = min(depth, t.k_max)
    if j_max < 1:
        raise MissingLevels("need at least levels 0..1 for the class check")

    # per (cube-level, shift): cache per-cube statistics for every weight level
    stats = []
    for klev in scan_levels(g, min(depth, j_max)):
        for shift in SHIFT_FRACTIONS:
            mp, ms1, ms2 = [], [], []
            counts = None
            for kw in range(j_max + 1):
                s = t.level(kw).samples
                sp, counts, idx, bdy = family_cube_reduce(s**t.p, g, klev, shift)
                mp.append(_lp_cube_mean(sp, counts, t.p))
                if params.sigma1 == math.inf:
                    inv, _, _, _ = family_cube_reduce(1.0 / s, g, klev, shift, op="max")
                    ms1.append(inv)
                else:
                    si, _, _, _ = family_cube_reduce(s ** (-params.sigma1), g, klev, shift)
                    ms1.append(_lp_cube_mean(si, counts, params.sigma1))
                if params.sigma2 == math.inf:
                    mx, _, _, _ = family_cube_reduce(s, g, klev, shift, op="max")
                    ms2.append(mx)
                else:
                    s2, _, _, _ = family_cube_reduce(s**params.sigma2, g, klev, shift)
                    ms2.append(_lp_cube_mean(s2, counts, params.sigma2))
            stats.append((klev, shift, mp, ms1, ms2, idx))

    best1 = {}
    best2 = {}
    arg1 = arg2 = None
    for klev, shift, mp, ms1, ms2, idx in stats:
        for j in range(j_max + 1):
            for k in range(j + 1):
                v1 = mp[k] * ms1[j] * 2.0 ** (-params.alpha1 * (k - j))
                v2 = ms2[j] / mp[k] * 2.0 ** (-params.alpha2 * (j - k))
                i1, i2 = int(np.argmax(v1)), int(np.argmax(v2))
                if v1[i1] > best1.get(j, (-math.inf, None))[0]:
                    best1[j] = (float(v1[i1]), (k, j, klev, shift, tuple(map(int, idx[i1]))))
                if v2[i2] > best2.get(j, (-math.inf, None))[0]:
                    best2[j] = (float(v2[i2]), (k, j, klev, shift, tuple(map(int, idx[i2]))))

    depths = sorted({max(1, j_max - 4), max(1, j_max - 2), j_max})
    trace = []
    for d in depths:
        c1 = max(best1[j][0] for j in range(d + 1))
        c2 = max(best2[j][0] for j in range(d + 1))
        trace.append((d, c1, c2))
    c1_final, c2_final = trace[-1][1], trace[-1][2]
    arg1 = max((best1[j] for j in range(j_max + 1)), key=lambda x: x[0])[1]
    arg2 = max((best2[j] for j in range(j_max + 1)), key=lambda x: x[0])[1]

    v1 = _trace_verdict([c for _, c, _ in trace])
    v2 = _trace_verdict([c for _, _, c in trace])
    if FAIL in (v1, v2):
        verdict = FAIL
    elif v1 == v2 == PASS:
        verdict = PASS
    else:
        verdict = INCONCLUSIVE
    report = XClassReport(
        c1=c1_final,
        c2=c2_final,
        trace=trace,
        verdict=verdict,
        argmax_c1=arg1,
        argmax_c2=arg2,
        depth=j_max,
        order_violation=params.order_violation,
    )
    return c1_final, c2_final, report


# -- serialization (CLI config schema) ----------------------------------------------


def spec_to_dict(spec):
    if isinstance(spec, Constant):
        return {"kind": "constant", "value": spec.value}
    if isinstance(spec, Power):
        return {"kind": "power", "beta": spec.beta}
    if isinstance(spec, ShiftedPower):
        return {"kind": "shifted_power", "center": list(np.atleast_1d(spec.center)), "delta": spec.delta}
    if isinstance(spec, GeometricLevel):
        return {
            "kind": "geometric",
            "s": spec.s,
            "base": spec_to_dict(spec.base),
            "dilated": spec.dilated,
        }
    if isinstance(spec, AdmissibleSeq):
        return {"kind": "admissible_seq", "s": spec.s, "b": spec.b, "c": spec.c}
    if isinstance(spec, ProductWeight):
        return {"kind": "product", "factors": [spec_to_dict(f) for f in spec.factors]}
    raise TypeError(f"unknown weight spec {spec!r}")


def spec_from_dict(d, dim=None):
    """Weight spec from its dict form.

    With ``dim`` given, a shifted-power center must be a number, a
    one-element list, or exactly ``dim`` entries.
    """
    kind = d.get("kind")
    if kind == "constant":
        return Constant(float(d["value"]))
    if kind == "power":
        return Power(float(d["beta"]))
    if kind == "shifted_power":
        center = d["center"]
        center = tuple(float(c) for c in np.atleast_1d(center))
        if dim is not None and len(center) not in (1, dim):
            raise ValueError(
                f"shifted_power.center: expected a number or a list of length 1 or "
                f"grid.dim = {dim}, got {d['center']!r}"
            )
        return ShiftedPower(center if len(center) > 1 else center[0], float(d["delta"]))
    if kind == "geometric":
        return GeometricLevel(
            float(d["s"]), spec_from_dict(d["base"], dim), bool(d.get("dilated", False))
        )
    if kind == "admissible_seq":
        return AdmissibleSeq(float(d["s"]), float(d.get("b", 0.0)), float(d.get("c", 0.0)))
    if kind == "product":
        return ProductWeight(tuple(spec_from_dict(f, dim) for f in d["factors"]))
    raise ValueError(f"unknown weight kind {kind!r}")
