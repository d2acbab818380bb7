"""The dilation operator, its weight constant H, and the end-to-end check
that dilation norms obey the lambda**(alpha2 - n/p) * H bound with a
lambda-independent constant.

H compares the cube L_p norms of the compressed weight t(x / lambda) against
t itself over every nonnegative-level dyadic cube in the box. The compressed
weight is evaluated exactly from the weights' closed form, which H needs.

The pointwise-supremum comparison ratio sup_x w(x / lambda) / w(x) over R^n
comes in closed form from the weight spec: at level 0 every spec is a
constant times a product of powers |x - c|**d, so the ratio is lambda to
minus the exponent sum at the origin, or infinite when the exponents at any
other center do not cancel. The CLI prints an infinite one as DIVERGENT.

The check's settings are fixed: a dilation may clip at most 1% of the
witnessed mass, and the lambda-independence verdict is ``verdicts.within``
of the max/median spread of observed_c and the limit 3.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dyadic import GridFunction, level_block_reduce, level_cell_count
from .errors import ClippingExcessive, InvalidExponent, PreconditionFailed
from .norms import SpaceParams, diff_and_star_norms
from .verdicts import FAIL, within
from .weights import WeightSequence, eval_weight, xclass_check

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


def sobolev_sup_ratio(omega, lam, dim=1) -> float:
    """sup over R^n of w(x/lambda)/w(x), w the weight spec ``omega`` at level 0.

    w is a positive constant times prod_i |x - c_i|**d_i (``omega.power_factors``).
    A factor centered at the origin scales by lambda**-d under x -> x/lambda;
    any other center whose exponents do not sum to 0 leaves the ratio
    unbounded near x = c or x = lambda c, since along the chain c, lambda c,
    lambda**2 c, ... the sums cannot cancel at every link. So the sup is inf
    in that case, and lambda**-e_0 otherwise, e_0 the exponent sum at the
    origin (inf also when that power leaves the float range).
    """
    if lam <= 1.0:
        raise ValueError("the comparison needs lambda > 1")
    exponents = {}
    for center, delta in omega.power_factors(dim):
        exponents.setdefault(center, []).append(delta)
    sums = {center: math.fsum(deltas) for center, deltas in exponents.items()}
    origin = (0.0,) * dim
    if any(total != 0.0 for center, total in sums.items() if center != origin):
        return math.inf
    try:
        return lam ** -sums.get(origin, 0.0)
    except OverflowError:
        return math.inf


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
    sobolev: float = None  # sup_x w(x/lambda)/w(x), inf if unbounded; None at lambda = 1


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
    lambda, in lambda_list order. One h-node sweep per level takes the norms
    of f and of all its dilations; the rest of each entry is an independent
    job, run on a thread pool when threads > 1, and raises its dilation's
    error, so errors come in lambda order. For lambda > 1 a report also holds
    sup_x w(x/lambda)/w(x) of the weights' closed form (``sobolev_sup_ratio``). Use
    summarize_dilation for the lambda-independence verdict.
    """
    xrep = xclass_check(t, sp, depth if depth is not None else sp.k_max)
    if xrep.verdict == FAIL:
        raise PreconditionFailed(
            f"weight sequence failed the class check: trace {xrep.trace}"
        )
    dilated = []
    for lam in lam_list:
        try:
            dilated.append(dilate(f, lam))
        except (ClippingExcessive, ValueError) as exc:
            dilated.append((f, exc))  # normed in f's place, raised by its entry
    (base,), *afters = diff_and_star_norms([f] + [g for g, _ in dilated], t, sp, (norm,))
    if base == 0:
        raise PreconditionFailed(
            f"norm_before = 0: the {norm} norm of f vanishes, so the growth "
            "ratios of its dilations are undefined"
        )
    n_over_p = f.dim / sp.p

    def entry(lam, normed, dilation):
        (after,), (_, clipped) = normed, dilation
        if isinstance(clipped, Exception):
            raise clipped
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
        return DilationReport(
            lam=float(lam),
            i=choose_i(lam),
            H=h_const,
            norm_before=base,
            norm_after=after,
            bound_rhs_shape=shape,
            observed_c=observed,
            clipped_fraction=clipped,
            sobolev=sobolev_sup_ratio(t.spec, lam, f.dim) if lam > 1.0 else None,
        )

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(entry, lam_list, afters, dilated))
    return [entry(*job) for job in zip(lam_list, afters, dilated)]


def summarize_dilation(reports):
    """Lambda-independence verdict plus the measured log-log growth slope.

    PASS when the largest observed_c is at most 3 times their median
    (``within`` the spread limit), else FAIL.
    """
    cs = np.array([r.observed_c for r in reports], dtype=float)
    spread = float(np.max(cs) / np.median(cs))
    lams = np.array([r.lam for r in reports], dtype=float)
    ratios = np.array([r.norm_after / r.norm_before for r in reports], dtype=float)
    slope = float("nan")
    if len(reports) >= 2 and np.all(ratios > 0):
        slope = float(np.polyfit(np.log2(lams), np.log2(ratios), 1)[0])
    return {
        "verdict": within(spread, _SPREAD_LIMIT),
        "spread": spread,
        "slope": slope,
        "median_c": float(np.median(cs)),
    }
