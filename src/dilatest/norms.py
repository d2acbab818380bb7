"""Difference-based norms: the windowed zero-order term, the moving-window
B/F norms, and their dyadic-cube ("starred") counterparts.

All level sums are truncated at ``SpaceParams.k_max``; that truncation is the
single source of truth shared with the Fourier-side norms so equivalence
ratios compare like with like. Boundary-clipped windows and cubes are included
with renormalized quadrature and tracked as a boundary-mass fraction; runs
where flagged terms carry more than 20% of the total mass are marked
unreliable.
``diff_and_star_norms`` gives both difference norms from one h-node pass
per level, since they reduce the same |Delta_h^M f|.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .differences import delta_cube_field, delta_expanded_field, delta_fields, delta_window_field
from .dyadic import (
    GridFunction, finest_level, level_block_reduce, level_cell_count, mixed_norm, window_sums,
)
from .errors import InvalidExponent, MissingLevels, ResolutionExceeded
from .weights import WeightSequence, cube_weight_norms_level, sigma1_of

BOUNDARY_MASS_LIMIT = 0.20
_WINDOW_CELLS = 4  # a difference window spans at least this many cells a side


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


def window_level_cap(halfwidth, resolution) -> int:
    """The finest level a difference norm reaches on the grid: its windows
    span at least ``_WINDOW_CELLS`` cells a side."""
    return finest_level(halfwidth, resolution, min_cells=_WINDOW_CELLS)


def _check_levels(f: GridFunction, t: WeightSequence, sp: SpaceParams):
    if sp.k_max > window_level_cap(f.halfwidth, f.resolution):
        raise ResolutionExceeded(
            f"k_max = {sp.k_max} needs window side >= {_WINDOW_CELLS} cells "
            f"(spacing {f.spacing:.3g})"
        )
    if t.k_max < sp.k_max:
        raise MissingLevels(f"weight sequence has levels 0..{t.k_max}, need {sp.k_max}")


def _aggregate_levels(sp: SpaceParams, zero, cellw, level, details):
    """Zero-order term plus the B/F aggregate of levels 1..k_max.

    ``level(k)`` returns (terms, flagged, layer): the level-k terms, whose
    p-th powers are their boundary mass, the flags of those terms, and the
    layer the aggregate reads, each entry of which has measure ``cellw``.
    """
    layers, flagged_mass, total_mass = [], 0.0, 0.0
    for k in range(1, sp.k_max + 1):
        terms, flagged, layer = level(k)
        mass = terms**sp.p
        flagged_mass += float(np.sum(mass[flagged]))
        total_mass += float(np.sum(mass))
        layers.append(layer)
    main, level_terms = mixed_norm(sp.kind, layers, sp.p, sp.q, cellw)
    value = main + zero
    if not details:
        return value
    frac = flagged_mass / total_mass if total_mass > 0 else 0.0
    return value, {
        "zero_order": zero,
        "main": main,
        "level_terms": level_terms,
        "boundary_mass": frac,
        "reliable": frac <= BOUNDARY_MASS_LIMIT,
    }


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


def _diff(f: GridFunction, t: WeightSequence, sp: SpaceParams, field, details):
    """``diff_norm`` from ``field(k)``, the level-k window field."""

    def level(k):
        values, flagged = field(k)
        weighted = t.level(k).samples * values
        return weighted, flagged, weighted

    zero = ltilde_norm(f, t.level(0), sp.p)
    return _aggregate_levels(sp, zero, f.spacing**f.dim, level, details)


def diff_norm(f: GridFunction, t: WeightSequence, sp: SpaceParams, details=False):
    """Moving-window difference norm (B or F kind) plus the zero-order term."""
    _check_levels(f, t, sp)
    return _diff(f, t, sp, lambda k: delta_window_field(f, k, sp.M), details)


def _star(f: GridFunction, t: WeightSequence, sp: SpaceParams, field, details):
    """``star_norm`` from ``field(k)``, the level-k cube (B) or expanded (F) field."""
    n, p = f.dim, sp.p
    cellw = f.spacing**n

    t0m = cube_weight_norms_level(t, 0, p)
    l1m = level_block_reduce(np.abs(f.samples), f, 0) * cellw
    zero = float(np.sum((t0m * l1m) ** p)) ** (1.0 / p)

    def level(k):
        tkm = cube_weight_norms_level(t, k, p)
        values, flags = field(k)
        if sp.kind == "F":
            per_cube = 2.0 ** (k * n / p) * tkm * values
            # every cell takes the value of the cube that owns it
            per_cell = np.kron(per_cube, np.ones((level_cell_count(f, k),) * n))
            return per_cube, flags, per_cell
        per_cube = tkm * values
        return per_cube, flags, per_cube

    # B sums over cubes, each of measure one; F integrates over cells
    return _aggregate_levels(sp, zero, cellw if sp.kind == "F" else 1.0, level, details)


def star_norm(f: GridFunction, t: WeightSequence, sp: SpaceParams, details=False):
    """Dyadic-cube norm: per-cube weight norms against per-cube differences.

    The B kind pairs plain cubes with the cube-averaged difference; the F kind
    pairs each cube with its five-times expansion, scales by 2**(k n / p), and
    aggregates per cell through cube ownership. Both add the level-0 term
    built from cube L_1 norms.
    """
    _check_levels(f, t, sp)
    field = delta_expanded_field if sp.kind == "F" else delta_cube_field
    return _star(f, t, sp, lambda k: field(f, k, sp.M), details)


def diff_and_star_norms(f: GridFunction, t: WeightSequence, sp: SpaceParams, details=False):
    """(``diff_norm``, ``star_norm``), bit for bit, from one ``delta_fields``
    call per level: the window field with the cube (B) or expanded (F) one."""
    _check_levels(f, t, sp)
    kinds = ("window", "expanded" if sp.kind == "F" else "cube")
    fields = {k: delta_fields(f, k, sp.M, kinds) for k in range(1, sp.k_max + 1)}
    return (_diff(f, t, sp, lambda k: fields[k][0], details),
            _star(f, t, sp, lambda k: fields.pop(k)[1], details))
