"""Difference-based norms: the windowed zero-order term, the moving-window
B/F norms, and their dyadic-cube ("starred") counterparts.

All level sums are truncated at ``SpaceParams.k_max``; that truncation is the
single source of truth shared with the Fourier-side norms so equivalence
ratios compare like with like. Boundary-clipped windows and cubes are included
with renormalized quadrature and tracked as a boundary-mass fraction; runs
where flagged terms carry more than 20% of the total mass are marked
unreliable.
``diff_and_star_norms`` gives either or both difference norms of several
functions on one grid from one h-node sweep per level.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .differences import delta_cube_field, delta_expanded_field, delta_fields, delta_window_field
from .dyadic import GridFunction, MixedNorm, level_block_reduce, level_cell_count, window_sums
from .errors import InvalidExponent, MissingLevels, ResolutionExceeded
from .plan import WINDOW_CELLS, check_k_max, check_unit_window
from .weights import WeightSequence, cube_weight_norms_level, sigma1_of

BOUNDARY_MASS_LIMIT = 0.20


@dataclass
class SpaceParams:
    """Parameters of one weighted smoothness space.

    kind "B" aggregates levels in l_q after L_p; kind "F" the other way
    around. alpha = (alpha1, alpha2) are the inter-level regularity exponents,
    theta in [1, p] fixes sigma1 = theta * (p/theta)', and sigma2 defaults
    to p.
    """

    kind: str
    p: float
    q: float
    M: int
    alpha: tuple
    theta: float = 1.0
    sigma2: float = None
    k_max: int = 6

    def __post_init__(self):
        if self.kind not in ("B", "F"):
            raise InvalidExponent("kind must be 'B' or 'F'")
        if not 1.0 <= self.p < math.inf or not 1.0 <= self.q < math.inf:
            raise InvalidExponent("p and q must lie in [1, inf)")
        if self.M < 1 or self.M != int(self.M):
            raise InvalidExponent("difference order M must be a positive integer")
        if not 1.0 <= self.theta <= self.p:
            raise InvalidExponent("theta must lie in [1, p]")
        if self.sigma2 is None:
            self.sigma2 = self.p
        if self.sigma2 < self.p:
            raise InvalidExponent("sigma2 must be at least p")
        if self.k_max < 1:
            raise InvalidExponent("k_max must be at least 1")
        a1, a2 = self.alpha
        if not 0.0 < a1 <= a2 < self.M:
            warnings.warn(
                f"alpha = {self.alpha} violates 0 < alpha1 <= alpha2 < M = {self.M}; "
                "difference norms are only equivalent inside that range",
                stacklevel=3,  # past the generated __init__, to the caller
            )

    @property
    def sigma1(self):
        return sigma1_of(self.theta, self.p)


def _check_levels(f: GridFunction, t: WeightSequence, sp: SpaceParams):
    check_unit_window(f.halfwidth, "a difference norm")  # the level-0 cubes and unit windows
    check_k_max(f.halfwidth, f.resolution, sp.k_max, WINDOW_CELLS)  # the windows' cells
    if t.k_max < sp.k_max:
        raise MissingLevels(f"weight sequence has levels 0..{t.k_max}, need {sp.k_max}")


def ltilde_norm(f: GridFunction, t0: GridFunction, p):
    """Zero-order term: L_p norm of the unit-window L_1 means against t0^p.

    Windows within distance 1 of the boundary are clipped.
    """
    r = int(round(1.0 / f.spacing))
    if r < 1 or abs(r * f.spacing - 1.0) > 1e-9:
        raise ResolutionExceeded(
            f"the unit window needs a whole number of cells, spacing {f.spacing:.3g}"
        )
    cellw = f.spacing**f.dim
    win = window_sums(np.abs(f.samples), r) * cellw
    dens = t0.samples**p * win**p
    return float(np.sum(dens) * cellw) ** (1.0 / p)


class _Norm:
    """The diff or star norm of one function, folded level by level: ``add``
    takes the level-k window (diff), cube (B star) or expanded (F star) field
    for k = 1..k_max in order, and ``value`` gives the zero-order term plus
    the B/F aggregate, with ``details`` also its parts and boundary mass."""

    def __init__(self, name, f: GridFunction, t: WeightSequence, sp: SpaceParams):
        self.name, self.f, self.t, self.sp = name, f, t, sp
        cellw = f.spacing**f.dim
        if name == "diff":
            self.zero = ltilde_norm(f, t.level(0), sp.p)
        else:
            t0m = cube_weight_norms_level(t, 0, sp.p)
            l1m = level_block_reduce(np.abs(f.samples), f, 0) * cellw
            self.zero = float(np.sum((t0m * l1m) ** sp.p)) ** (1.0 / sp.p)
            # B sums over cubes, each of measure one; F integrates over cells
            cellw = cellw if sp.kind == "F" else 1.0
        self.agg = MixedNorm(sp.kind, sp.p, sp.q, cellw)
        self.flagged_mass = self.total_mass = 0.0

    def add(self, k, field):
        f, sp, (values, flagged) = self.f, self.sp, field
        if self.name == "diff":
            terms = layer = self.t.level(k).samples * values
        elif sp.kind == "F":
            terms = 2.0 ** (k * f.dim / sp.p) * cube_weight_norms_level(self.t, k, sp.p) * values
            # every cell takes the value of the cube that owns it
            layer = np.kron(terms, np.ones((level_cell_count(f, k),) * f.dim))
        else:
            terms = layer = cube_weight_norms_level(self.t, k, sp.p) * values
        mass = terms**sp.p  # the boundary mass of the terms
        self.flagged_mass += float(np.sum(mass[flagged]))
        self.total_mass += float(np.sum(mass))
        self.agg.add(layer)

    def value(self, details):
        main, level_terms = self.agg.value()
        if not details:
            return main + self.zero
        frac = self.flagged_mass / self.total_mass if self.total_mass > 0 else 0.0
        return main + self.zero, {
            "zero_order": self.zero,
            "main": main,
            "level_terms": level_terms,
            "boundary_mass": frac,
            "reliable": frac <= BOUNDARY_MASS_LIMIT,
        }


def diff_norm(f: GridFunction, t: WeightSequence, sp: SpaceParams, details=False):
    """Moving-window difference norm (B or F kind) plus the zero-order term."""
    _check_levels(f, t, sp)
    norm = _Norm("diff", f, t, sp)
    for k in range(1, sp.k_max + 1):
        norm.add(k, delta_window_field(f, k, sp.M))
    return norm.value(details)


def star_norm(f: GridFunction, t: WeightSequence, sp: SpaceParams, details=False):
    """Dyadic-cube norm: per-cube weight norms against per-cube differences.

    The B kind pairs plain cubes with the cube-averaged difference; the F kind
    pairs each cube with its five-times expansion, scales by 2**(k n / p), and
    aggregates per cell through cube ownership. Both add the level-0 term
    built from cube L_1 norms.
    """
    _check_levels(f, t, sp)
    field = delta_expanded_field if sp.kind == "F" else delta_cube_field
    norm = _Norm("star", f, t, sp)
    for k in range(1, sp.k_max + 1):
        norm.add(k, field(f, k, sp.M))
    return norm.value(details)


def diff_and_star_norms(fs, t: WeightSequence, sp: SpaceParams, names=("diff", "star"),
                        details=False):
    """Per function of ``fs``, all on one grid, a tuple of its ``names`` norms
    ("diff", "star"), bit for bit what ``diff_norm`` and ``star_norm`` give.
    One ``delta_fields`` sweep per level serves every function and norm, and
    each norm folds its level in before the next sweep."""
    for name in names:
        if name not in ("diff", "star"):
            raise ValueError(f"unknown norm name {name!r}: the names are 'diff' and 'star'")
    _check_levels(fs[0], t, sp)
    kinds = ["window" if name == "diff" else "expanded" if sp.kind == "F" else "cube"
             for name in names]
    norms = [[_Norm(name, f, t, sp) for name in names] for f in fs]
    for k in range(1, sp.k_max + 1):
        for own, fields in zip(norms, delta_fields(fs, k, sp.M, kinds)):
            for norm, field in zip(own, fields):
                norm.add(k, field)
    return [tuple(norm.value(details) for norm in own) for own in norms]
