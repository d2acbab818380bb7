"""The dilation operator, its weight constant H, and the end-to-end check
that dilation norms obey the lambda**(alpha2 - n/p) * H bound with a
lambda-independent constant.

H compares the cube L_p norms of the compressed weight t(x / lambda) against
t itself over every nonnegative-level dyadic cube in the box. The compressed
weight is evaluated exactly from the weights' closed form, which H needs.

The pointwise-supremum comparison ratio sup_x w(x / lambda) / w(x) is probed
on a lattice plus an adaptive zoom around the running maxima, over three
domain-doubling stages with a per-stage zoom budget that grows; a genuinely
infinite supremum (a power-law blow-up anywhere in the doubled boxes) then
shows up as >= 2x growth per stage and is reported as DIVERGENT, while
finite suprema settle. In n dimensions the lattice has 2**(16 - 4n) cells
and each zoom 2**max(4, 8 - 2n) + 1 points per axis (4096 and 65 in 1-D,
256 and 17 in 2-D, 16 and 17 in 3-D). The zoom keeps at least 17 points
because a coarser zoom cannot climb a blow-up: with 5 points per axis in 3-D
the probe read no |x - c|**-0.25 divergence, and the trace even fell across
the stages.

The check's settings are fixed: a dilation may clip at most 1% of the
witnessed mass, the probe runs three stages, and the lambda-independence
verdict allows a max/median spread of observed_c up to 3.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import GridFunction, level_block_reduce, level_cell_count, tensor_points
from .errors import ClippingExcessive, InvalidExponent, PreconditionFailed, ResolutionExceeded
from .norms import SpaceParams, diff_norm, star_norm
from .weights import FAIL, WeightSequence, _trace_verdict, eval_weight, xclass_check

_CLIP_TOL = 0.01  # largest witnessed share of mass that a dilation may clip
_SPREAD_LIMIT = 3.0  # largest max/median of observed_c that still reads PASS


def choose_i(lam) -> int:
    """The unique integer with lam < 2**i <= 2*lam (strict on the left).

    It is lam's binary exponent: lam = m * 2**i with 1/2 <= m < 1 exactly.
    """
    if not 1.0 <= lam < math.inf:
        raise ValueError(f"dilation factor must be finite and at least 1, got {lam!r}")
    return math.frexp(lam)[1]


def _boundary_density(f: GridFunction):
    """Mean of |f| over the edge cells: the end faces of each axis, less earlier axes' cells."""
    s = np.abs(f.samples)
    faces = [s[(slice(1, -1),) * a + (end,)].ravel() for a in range(f.dim) for end in (0, -1)]
    return float(np.concatenate(faces).mean())


def dilate(f: GridFunction, lam):
    """x -> f(lam * x) by multilinear interpolation; zero beyond the box.

    Points lam * x outside the box read values the grid never saw; they are
    set to zero, which is only valid when f has decayed by the box edge. The
    diagnostic extrapolates the boundary density of |f| over the zeroed
    region and raises ClippingExcessive when that witnessed mass exceeds
    1% of the dilated total. Returns (g, clipped_fraction): the dilated
    function, which holds the interpolated samples and no evaluator, and that
    witnessed fraction.
    """
    if lam < 1.0:
        raise ValueError("dilation factor must be at least 1")
    vals, _ = f.interp_masked(f.points() * lam)
    g = f.with_samples(vals)
    n = f.dim
    zeroed = (2.0 * f.halfwidth) ** n * (1.0 - lam**-n)
    witnessed = _boundary_density(f) * zeroed
    retained = lam**-n * f.l1()
    fraction = witnessed / (retained + witnessed) if retained + witnessed > 0 else 0.0
    if fraction > _CLIP_TOL:
        raise ClippingExcessive(
            f"dilation by {lam} clips about {fraction:.2%} of the mass "
            "(the function has not decayed by the box edge)"
        )
    return g, fraction


def compute_H(t: WeightSequence, lam, k_max, p) -> float:
    """sup over levels 0..k_max and in-box dyadic cubes of the cube L_p-norm
    ratio between the compressed weight and the weight itself, which is
    evaluated from the sequence's closed form (PreconditionFailed without one)."""
    if lam < 1.0:
        raise ValueError("dilation factor must be at least 1")
    if t.spec is None:
        raise PreconditionFailed("H needs the weights in closed form; this sequence has no spec")
    g = t.grid
    level_cell_count(g, k_max)  # the level-k_max cubes must be whole cells
    pts = g.points()
    best = 0.0
    for ell in range(min(k_max, t.k_max) + 1):
        compressed = eval_weight(t.spec, ell, pts / lam, g.dim)
        num = level_block_reduce(compressed**p, g, ell)
        den = level_block_reduce(t.level(ell).samples ** p, g, ell)
        ratio = (num / den) ** (1.0 / p)
        best = max(best, float(np.max(ratio)))
    return best


@dataclass
class SobolevSupResult:
    """Probed supremum of w(x/lambda)/w(x) with its domain-doubling trace."""

    value: float
    divergent: bool
    trace: list


_SUP_STAGES = 3  # the sup probe's number of domain-doubling stages


def _ratio_values(omega, lam, pts):
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        num = omega.at(0, pts / lam)
        den = omega.at(0, pts)
        ratio = num / den
    ratio = np.where(np.isfinite(ratio) & (den > 0), ratio, -np.inf)
    return ratio


def _stage_sup(omega, lam, lattice, dx, zoom, zoom_rounds):
    """Largest ratio on a lattice (..., dim) of spacing dx, then around its four
    largest values ``zoom_rounds`` tensor zooms of ``zoom`` points per axis over
    center +- w, w = dx shrinking 8x a round and recentered on each maximum."""
    vals = _ratio_values(omega, lam, lattice)
    flat = vals.reshape(-1)
    order = np.argsort(flat)[-4:]  # zoom around the few largest coarse maxima
    best = float(flat[order[-1]])
    probes = lattice.reshape(-1, lattice.shape[-1])
    for seed_idx in order:
        center = probes[seed_idx]
        w = dx
        for _ in range(zoom_rounds):
            la = np.linspace(-w, w, zoom)
            local = tensor_points([c + la for c in center]).reshape(-1, len(center))
            lv = _ratio_values(omega, lam, local)
            j = int(np.argmax(lv))
            center = local[j]
            best = max(best, float(lv[j]))
            w /= 8.0
    return best


def sobolev_sup_ratio(omega, lam, halfwidth, dim=1) -> SobolevSupResult:
    """Probe sup_x w(x/lambda)/w(x) over three domain-doubling stages.

    w is the weight spec ``omega`` at level 0, which for a geometric spec is
    exactly its base. Each stage doubles the box and deepens the zoom around
    the running maxima; DIVERGENT is the FAIL branch of the scans' growth
    rule: the probed supremum at least doubled across both of the last two
    stages. The lattice has 2**(16 - 4 * dim) cells and each zoom
    2**max(4, 8 - 2 * dim) + 1 points per axis (see the module docstring);
    from dim = 4 on the lattice would have fewer than 16 cells per axis, and
    the probe raises ResolutionExceeded.
    """
    if lam <= 1.0:
        raise ValueError("the comparison needs lambda > 1")
    cells, zoom = 2 ** (16 - 4 * dim), 2 ** max(4, 8 - 2 * dim) + 1
    if cells < 16:
        raise ResolutionExceeded(f"the sup probe has under 16 lattice cells per axis in {dim}-D")
    trace = []
    for s in range(_SUP_STAGES):
        box = halfwidth * 2.0**s
        dx = 2.0 * box / cells
        axis = -box + (np.arange(cells) + 0.5) * dx
        lattice = tensor_points([axis] * dim)
        trace.append(_stage_sup(omega, lam, lattice, dx, zoom, 4 * (s + 1)))
    divergent = _trace_verdict(trace) == FAIL
    return SobolevSupResult(value=trace[-1], divergent=divergent, trace=trace)


@dataclass
class DilationReport:
    """Measured quantities for one dilation factor."""

    lam: float
    i: int
    H: float
    norm_before: float
    norm_after: float
    bound_rhs_shape: float
    observed_c: float
    clipped_fraction: float = 0.0
    sobolev: SobolevSupResult = None


def verify_theorem(
    f: GridFunction,
    t: WeightSequence,
    sp: SpaceParams,
    lam_list,
    norm="diff",
    depth=None,
    threads=1,
):
    """Dilate f by every factor and compare the norm growth to the bound shape.

    Requires the weight sequence to pass the inter-level class check at the
    space parameters (FAIL raises PreconditionFailed) and f to have a nonzero
    norm (a zero norm raises PreconditionFailed). Returns one report per
    lambda, in lambda_list order; entries are independent jobs and run on a
    thread pool when threads > 1. For lambda > 1 a report also holds the
    probed sup_x w(x/lambda)/w(x) of the weights' closed form. Use
    summarize_dilation for the lambda-independence verdict.
    """
    xrep = xclass_check(t, sp, depth if depth is not None else sp.k_max)
    if xrep.verdict == FAIL:
        raise PreconditionFailed(
            f"weight sequence failed the class check: trace {xrep.trace}"
        )
    norm_fn = {"diff": diff_norm, "star": star_norm}[norm]
    base = norm_fn(f, t, sp)
    if base == 0:
        raise PreconditionFailed(
            f"norm_before = 0: the {norm} norm of f vanishes, so the growth "
            "ratios of its dilations are undefined"
        )
    n_over_p = f.dim / sp.p

    def entry(lam):
        g, clipped = dilate(f, lam)
        after = norm_fn(g, t, sp)
        h_const = compute_H(t, lam, sp.k_max, sp.p)
        try:
            shape = lam ** (sp.alpha[1] - n_over_p) * h_const
        except OverflowError:
            shape = math.inf
        if not 0.0 < shape * base < math.inf:
            raise InvalidExponent(
                f"the bound shape lambda**(alpha2 - n/p) * H at lambda = {lam} and "
                f"alpha2 = {sp.alpha[1]}, times norm_before, leaves the float range"
            )
        observed = after / (shape * base)
        sob = None
        if lam > 1.0:
            sob = sobolev_sup_ratio(t.spec, lam, f.halfwidth, dim=f.dim)
        return DilationReport(
            lam=float(lam),
            i=choose_i(lam),
            H=h_const,
            norm_before=base,
            norm_after=after,
            bound_rhs_shape=shape,
            observed_c=observed,
            clipped_fraction=clipped,
            sobolev=sob,
        )

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(entry, lam_list))
    return [entry(lam) for lam in lam_list]


def summarize_dilation(reports):
    """Lambda-independence verdict plus the measured log-log growth slope.

    PASS when the largest observed_c is at most 3 times their median.
    """
    cs = np.array([r.observed_c for r in reports], dtype=float)
    spread = float(np.max(cs) / np.median(cs))
    lams = np.array([r.lam for r in reports], dtype=float)
    ratios = np.array([r.norm_after / r.norm_before for r in reports], dtype=float)
    slope = float("nan")
    if len(reports) >= 2 and np.all(ratios > 0):
        slope = float(np.polyfit(np.log2(lams), np.log2(ratios), 1)[0])
    verdict = "PASS" if spread <= _SPREAD_LIMIT else "FAIL"
    return {
        "verdict": verdict,
        "spread": spread,
        "slope": slope,
        "median_c": float(np.median(cs)),
    }
