"""Weight construction, Muckenhoupt diagnostics, and weight-sequence classes.

Every sup-over-cubes estimate reports a refinement trace, and its verdict
is ``verdicts.trend`` of that trace (see ``verdicts`` for the rule).

The scanned family is the dyadic cubes of the requested levels together with
their one-third and two-thirds translates per axis, which tracks the supremum
over all cubes to within a fixed dimensional factor. ``cube_families`` lists
the distinct shifted families of one level once per grid geometry, their
cube edges snapped to cells by ``GridFunction.index_range``; a translate
whose cells repeat an earlier shift's is left out, since its ratios are the
same numbers.

Every cube condition is a ratio of power means
M_{Q,r}(w) = (mean_Q w**r)**(1/r), with M_{Q,inf} = max_Q w and
M_{Q,-inf} = min_Q w, all computed by ``cube_power_means``:

* A_p:  [w]_{A_p} = sup_Q M_{Q,1}(w) / M_{Q,-p'/p}(w) for p > 1, and at
        p = 1 its limit r = -p'/p -> -inf, the A_1 ratio
        sup_Q M_{Q,1}(w) / M_{Q,-inf}(w),
* C1:   sup over k <= j of M_{Q,p}(t_k) / M_{Q,-sigma1}(t_j) * 2**(alpha1 (j-k)),
* C2:   sup over k <= j of M_{Q,sigma2}(t_j) / M_{Q,p}(t_k) * 2**(alpha2 (k-j)).

A scan builds the first-axis table of each weight array and exponent once
(``power_table``): the sums of w**r, or at r = inf and r = -inf the max and
the min of w, since a ``RangeTable`` carries its reduction. The scan order,
levels coarse to fine and shifts in order, is cut into batches of families
(``family_batches``), and one ``family_cube_reduce`` call reads a table for
a whole batch; means, ratios and maxima run once per batch. Every number, and
the first cube in scan order winning a tie, is that of a family-by-family
scan. The tables are locals of the one call. The class check reads each
distinct exponent once.

The class check keeps C1 and C2 as running sups per fine level j, over k <= j
and every scanned cube; its depth trace reads the sup over j <= d. No argmax
cube is kept.

The cube levels a scan reads, the A_p stages and the class check's depth
trace follow the rules of ``plan``, which the config parser checks before a
command runs.
"""

import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

import numpy as np

from .dyadic import (
    DyadicCube,
    GridFunction,
    RangeTable,
    box_reduce,
    cube_box,
    level_block_reduce,
    point_layout,
    range_table,
    table_reduce,
)
from .errors import (
    ConfigError,
    InvalidExponent,
    MissingLevels,
    NonPositiveValue,
    ResolutionExceeded,
    config_number,
)
from .plan import ap_stages, class_levels, scan_levels
from .verdicts import INCONCLUSIVE, PASS, trend, worst

SHIFT_FRACTIONS = (0.0, 1.0 / 3.0, 2.0 / 3.0)


# -- weight construction DSL ---------------------------------------------------
# One frozen dataclass per weight kind: ``kind`` is its name in a config, its
# fields are the config's fields, ``at(k, pts)`` evaluates the level-k
# weight at points of shape (..., dim), and ``power_factors(dim)`` lists the
# (center, exponent) pairs of the level-0 weight, which is a positive
# constant times prod |x - center|**exponent.


def _radius(pts, center):
    return np.sqrt(np.sum((pts - np.asarray(center)) ** 2, axis=-1))


@dataclass(frozen=True)
class Constant:
    value: float
    kind: ClassVar[str] = "constant"

    def at(self, k, pts):
        return np.full(pts.shape[:-1], float(self.value))

    def power_factors(self, dim):
        return []


@dataclass(frozen=True)
class Power:
    """|x|**beta."""

    beta: float
    kind: ClassVar[str] = "power"

    def at(self, k, pts):
        return _radius(pts, 0.0) ** self.beta

    def power_factors(self, dim):
        return [((0.0,) * dim, self.beta)]


@dataclass(frozen=True)
class ShiftedPower:
    """|x - center|**delta; the center is a tuple of one coordinate, which
    serves every axis, or of one per axis (a number is read as one)."""

    center: tuple
    delta: float
    kind: ClassVar[str] = "shifted_power"

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(np.atleast_1d(self.center).tolist()))

    def at(self, k, pts):
        return _radius(pts, self._center(pts.shape[-1])) ** self.delta

    def power_factors(self, dim):
        return [(self._center(dim), self.delta)]

    def _center(self, dim):
        """The center's dim coordinates, a one-coordinate center on every axis."""
        if len(self.center) not in (1, dim):
            raise ValueError(f"shifted_power center {self.center!r} does not fit {dim}-D points")
        return self.center * (dim // len(self.center))


@dataclass(frozen=True)
class GeometricLevel:
    """2**(k*s) * base(x), or 2**(k*s) * base(2**-k * x) when dilated."""

    s: float
    base: object
    dilated: bool = False
    kind: ClassVar[str] = "geometric"

    def at(self, k, pts):
        return 2.0 ** (k * self.s) * self.base.at(k, pts * 2.0 ** (-k) if self.dilated else pts)

    def power_factors(self, dim):
        return self.base.power_factors(dim)  # level 0 is the base, dilated or not


@dataclass(frozen=True)
class AdmissibleSeq:
    """Level scalar 2**(s*k) * (1+k)**b * (1 + log(1+k))**c."""

    s: float
    b: float = 0.0
    c: float = 0.0
    kind: ClassVar[str] = "admissible_seq"

    def at(self, k, pts):
        scale = 2.0 ** (self.s * k) * (1.0 + k) ** self.b * (1.0 + math.log(1.0 + k)) ** self.c
        return np.full(pts.shape[:-1], scale)

    def power_factors(self, dim):
        return []


@dataclass(frozen=True)
class ProductWeight:
    factors: tuple
    kind: ClassVar[str] = "product"

    def at(self, k, pts):
        out = 1.0
        for fac in self.factors:
            out = out * fac.at(k, pts)
        return out

    def power_factors(self, dim):
        return [pair for fac in self.factors for pair in fac.power_factors(dim)]


SPEC_KINDS = {cls.kind: cls for cls in (Constant, Power, ShiftedPower, GeometricLevel,
                                         AdmissibleSeq, ProductWeight)}


def _strictly_positive(values):
    """Whether every value is finite and > 0: the one rule for weight samples."""
    return bool(np.all(np.isfinite(values)) and np.all(np.asarray(values) > 0.0))


def eval_weight(spec, k, pts, dim=1):
    """Evaluate a weight spec at level k on points in the public layout.

    Raises NonPositiveValue if any value underflows to zero, overflows, or is non-finite;
    grids are cell-centered so singular points are never hit by construction.
    """
    try:
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            vals = spec.at(int(k), point_layout(pts, dim))
    except OverflowError:  # a level scalar 2**(k s) or (1+k)**b beyond the float range
        raise NonPositiveValue(f"weight {spec!r} overflows at level {k}") from None
    if not _strictly_positive(vals):
        raise NonPositiveValue(f"weight {spec!r} not strictly positive at level {k}")
    return vals


def weight_grid(spec, k, dim=1, halfwidth=8.0, resolution=1024) -> GridFunction:
    return GridFunction.from_callable(
        lambda pts: eval_weight(spec, k, pts, dim), dim, halfwidth, resolution
    )


class WeightSequence:
    """Levels t_0..t_K of positive grid weights on one grid, with the spec
    they were built from when they have a closed form.

    A weight sequence holds functions only; the exponents p, alpha and sigma
    belong to the space (``norms.SpaceParams``), and every function that needs
    one takes it from its caller.
    """

    def __init__(self, levels, spec=None):
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
            if not _strictly_positive(g.samples):
                raise NonPositiveValue("weight levels must be strictly positive")
        self.levels = list(levels)
        self.spec = spec

    @classmethod
    def from_spec(cls, spec, k_max, dim=1, halfwidth=8.0, resolution=1024):
        levels = [
            weight_grid(spec, k, dim, halfwidth, resolution) for k in range(k_max + 1)
        ]
        return cls(levels, spec=spec)

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


class CubeFamily(NamedTuple):
    """The nonempty cubes of one shifted level-k tiling: along every axis, cube
    ``indices[i]`` holds the cells [lo[i], hi[i]) (read-only arrays)."""

    level: int
    shift: float
    lo: np.ndarray
    hi: np.ndarray
    indices: np.ndarray


_FAMILIES = {}  # (halfwidth, resolution, level) -> that level's distinct families


def cube_families(f: GridFunction, k):
    """The distinct shifted level-k families of f's grid, one per shift of
    ``SHIFT_FRACTIONS`` whose cells differ from every earlier shift's.

    A repeat has the very cubes of an earlier family, so its means and ratios
    are the same numbers; a scan that keeps only strict improvements loses
    nothing by skipping it. At the finest level all three shifts give the
    one-cell cubes, and one level up 1/3 and 2/3 coincide. Cube edges snap to
    cells by ``GridFunction.index_range``; the list is built once per geometry.
    """
    key = f.halfwidth, f.resolution, k
    if key not in _FAMILIES:
        side, L = 2.0 ** (-k), f.halfwidth
        families = []
        for shift in SHIFT_FRACTIONS:
            off = shift * side
            m0 = math.floor((-L - off) / side + 1e-12)
            m1 = math.ceil((L - off) / side - 1e-12)
            ms = np.arange(m0, m1 + 1)
            edges = (ms + shift) * side
            lo, hi = f.index_range(edges[:-1], edges[1:])
            keep = hi > lo
            fam = CubeFamily(k, shift, lo[keep], hi[keep], ms[:-1][keep])
            if not any(np.array_equal(fam.lo, g.lo) and np.array_equal(fam.hi, g.hi)
                       for g in families):
                for a in fam[2:]:
                    a.flags.writeable = False
                families.append(fam)
        _FAMILIES[key] = tuple(families)
    return _FAMILIES[key]


# entries of a batch's first-axis partial, cubes x cells**(n - 1). Whole stages at once made
# 2-D ap slower than one family per read. 2**16 made 2-D xclass faster but raised its traced
# memory peak by 0.8 MB; at 2**15 each 2-D scan's peak is that of the one-family scan
_BATCH_ENTRIES = 1 << 15


def family_batches(f: GridFunction, levels):
    """The cube families of f's grid at the levels, in scan order (levels as
    given, shifts in ``SHIFT_FRACTIONS`` order), cut into lists for
    ``family_cube_reduce``: a list closes before its first-axis partial would
    pass ``_BATCH_ENTRIES``, and a family that passes it alone is a list."""
    batch, size = [], 0
    for fam in (fam for k in levels for fam in cube_families(f, k)):
        entries = len(fam.lo) * f.resolution ** (f.dim - 1)
        if batch and size + entries > _BATCH_ENTRIES:
            yield batch
            batch, size = [], 0
        batch.append(fam)
        size += entries
    yield batch


def family_cube_reduce(table: RangeTable, fams):
    """Per-cube reduction, by the table's op, of the values tabled by
    ``range_table`` over the cubes of every family of the list: one flat array
    holding each family's cube grid in C order, family after family."""
    return box_reduce(table, [(fam.lo, fam.hi) for fam in fams])


def power_table(samples, r):
    """The first-axis table of w**r that ``cube_power_means`` reads at exponent r.

    r = 1 tables the samples themselves, and r = inf and r = -inf table them
    for the max and the min. A scan builds one per weight array and exponent
    and reads it for every batch of families.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isinf(r):
            return range_table(samples, op="max" if r > 0 else "min")
        return range_table(samples if r == 1.0 else samples**r)


def cube_power_means(table: RangeTable, fams, r):
    """Power means M_{Q,r}(w) = (mean_Q w**r)**(1/r) over the cubes of every
    family of the list, from ``power_table(w, r)``, laid out as
    ``family_cube_reduce`` lays out its sums.

    Any r != 0 is allowed; r = inf and r = -inf give the max and the min of w
    on the cube. Raises NonPositiveValue naming the level of the list's first
    family when a power sum of w**r leaves the float range: the first-axis
    prefix sums then leave it too, and every family's last cube reads their
    total. A sum that underflows to 0 at r < 0 gives the mean inf.
    """
    if r == 0 or math.isnan(r):
        raise InvalidExponent(f"a power mean needs r != 0, got {r!r}")
    with np.errstate(over="ignore", invalid="ignore"):
        sums = family_cube_reduce(table, fams)
    if math.isinf(r):
        return sums  # the max or the min
    if not np.all(np.isfinite(sums)):
        raise NonPositiveValue(
            f"the cube sums of w**r at r = {r} overflow the float range at level {fams[0].level}"
        )
    counts = np.concatenate([
        functools.reduce(np.multiply.outer, [fam.hi - fam.lo] * table.data.ndim).ravel()
        for fam in fams
    ])
    with np.errstate(divide="ignore"):  # an underflowed mean at r < 0 gives inf
        return (sums / counts) ** (1.0 / r)


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


def _mean_ratio_scan(gamma: GridFunction, r, depth, factor) -> ApReport:
    """sup_Q M_{Q,1}(w) / M_{Q,r}(w) over the cube family, at refining resolutions."""
    trace = []
    for res in ap_stages(gamma.resolution, factor):
        g = gamma.resample(res)
        levels = scan_levels(g.halfwidth, g.resolution, depth)
        # one table per exponent for the stage, read by every batch of families
        tables = power_table(g.samples, 1.0), power_table(g.samples, r)
        best = -math.inf
        for fams in family_batches(g, levels):
            ratio = cube_power_means(tables[0], fams, 1.0) / cube_power_means(tables[1], fams, r)
            j = int(np.argmax(ratio))  # the first cube in scan order wins a tie
            if ratio[j] > best:
                best = float(ratio[j])
                arg = fams, j
        trace.append((res, best))
    values = [v for _, v in trace]
    fams, j = arg
    for fam in fams:  # the family and the place in its cube grid of flat entry j
        if j < len(fam.lo) ** gamma.dim:
            break
        j -= len(fam.lo) ** gamma.dim
    at = np.unravel_index(j, (len(fam.lo),) * gamma.dim)
    return ApReport(
        constant=values[-1],
        argmax_cube=DyadicCube(fam.level, tuple(int(fam.indices[i]) for i in at)),
        argmax_shift=fam.shift,
        levels_scanned=(levels.start, levels.stop - 1),
        trace=trace,
        verdict=trend(values),
    )


def ap_constant(gamma: GridFunction, p, depth=6, trace_factor=8) -> ApReport:
    """Estimate the Muckenhoupt constant sup_Q M_{Q,1}(g) / M_{Q,-p'/p}(g).

    p = 1 takes the limit r = -inf of -p'/p, the A_1 ratio sup_Q mean_Q g / min_Q g.
    The scan runs at up to three resolutions, each ``trace_factor`` times finer
    than the last and the finest the grid's own; stages below 32 cells are
    dropped (``plan.ap_stages``).
    A sample of g that is not finite and positive raises NonPositiveValue; for
    such g no ratio is nan, so a batch's argmax is the family-by-family one.
    """
    if not p >= 1.0:
        raise InvalidExponent(f"the cube condition needs p >= 1, got p = {p}")
    if not _strictly_positive(gamma.samples):
        raise NonPositiveValue("the cube condition needs a weight whose samples are all finite "
                               "and positive")
    r = -math.inf if p == 1.0 else -conjugate(p) / p
    return _mean_ratio_scan(gamma, r, depth, trace_factor)


# -- weight-sequence cube norms ---------------------------------------------------


def cube_weight_norm(t: WeightSequence, k, m, p) -> float:
    """t_{k,m} = (int_{Q_{k,m}} t_k^p)^(1/p), measure factor included."""
    g = t.level(k)
    if 2.0 ** (-k) < g.spacing * (1 - 1e-12):
        raise ResolutionExceeded(f"level {k} below grid resolution")
    m = (m,) if np.isscalar(m) else tuple(m)
    box = cube_box(DyadicCube(int(k), tuple(int(x) for x in m))).intersect(g.domain)
    if box is None:
        raise ResolutionExceeded("cube lies outside the sampled box")
    sl = tuple(slice(*g.index_range(lo, hi)) for lo, hi in zip(box.lo, box.hi))
    return float(
        np.sum(g.samples[sl] ** p) * g.spacing**g.dim
    ) ** (1.0 / p)


def cube_weight_norms_level(t: WeightSequence, k, p):
    """All t_{k,m} over the level-k cubes tiling the grid, in cube order from
    the lower domain corner."""
    g = t.level(k)
    sums = level_block_reduce(g.samples**p, g, k) * g.spacing**g.dim
    return sums ** (1.0 / p)


# -- the inter-level regularity class ----------------------------------------------


@dataclass
class XClassReport:
    c1: float
    c2: float
    trace: list
    verdict: str
    order_violation: bool
    skipped_families: int  # families left out of the sups for a nan maximum


def _level_factor(exponent):
    """2**exponent, an inter-level factor of the class check; InvalidExponent
    when it overflows, as 2**(alpha1 (j - k)) does at alpha1 = 2000."""
    if not exponent < sys.float_info.max_exp:  # nan too, from an infinite alpha
        raise InvalidExponent(
            f"the inter-level factor 2**({exponent}) of the class check overflows"
        )
    return 2.0**exponent


def _family_maxima(values, bounds):
    """Each family's maximum over a batch's flat values (family i at
    ``bounds[i]:bounds[i + 1]``): nan for a family in which a cube's 0/0
    means (both underflowed) give a nan ratio."""
    return table_reduce(range_table(values, op="max"), bounds[:-1], bounds[1:])


def xclass_check(t: WeightSequence, sp, depth=6):
    """Measure the two inter-level cube inequalities of the weight class.

    The class is the one the space ``sp`` (a ``norms.SpaceParams``) asks for:
    its p, its alpha = (a1, a2), and its s1 = sigma1 and s2 = sigma2. Over
    k <= j and the cube family, C1 bounds
    M_{Q,p}(t_k) / M_{Q,-s1}(t_j) * 2**(a1 (j-k)) and C2 bounds
    M_{Q,s2}(t_j) / M_{Q,p}(t_k) * 2**(a2 (k-j)). Each fine level j keeps
    its running sup over k <= j and every scanned cube; the refinement trace
    reads the sup over j <= d at growing depths d, and the verdict is the
    worse of ``trend`` of the C1 and of the C2 trace. A family whose C1 or
    C2 maximum is nan (a cube's 0/0 means) is left out of the sups and
    counted in ``skipped_families``; when any is, the verdict is at best
    INCONCLUSIVE, since the sups miss those cubes' ratios. Returns the
    report, which holds C1 and C2 and flags a2 < a1, which contradicts the
    admissible range (reported, not raised).
    """
    g = t.grid
    levels, depths = class_levels(g.halfwidth, g.resolution, t.k_max, depth)
    j_max = depths[-1]
    alpha1, alpha2 = sp.alpha

    exponents = sp.p, -sp.sigma1, sp.sigma2
    distinct = dict.fromkeys(exponents)  # sigma2 = p reads the p means once
    # one table per weight level and distinct exponent, read by every cube family
    tables = {
        (kw, r): power_table(t.level(kw).samples, r) for kw in range(j_max + 1) for r in distinct
    }
    c1 = [-math.inf] * (j_max + 1)
    c2 = [-math.inf] * (j_max + 1)
    skipped = 0
    for fams in family_batches(g, levels):
        bounds = [0]  # family i holds entries bounds[i]:bounds[i + 1] of the flat means
        for fam in fams:
            bounds.append(bounds[-1] + len(fam.lo) ** g.dim)
        means = {
            r: [cube_power_means(tables[kw, r], fams, r) for kw in range(j_max + 1)]
            for r in distinct
        }
        mp, ms1, ms2 = (means[r] for r in exponents)
        nan = np.zeros(len(fams), dtype=bool)  # the batch's families with a nan maximum
        for j in range(j_max + 1):
            for k in range(j + 1):
                with np.errstate(invalid="ignore"):  # a 0/0 ratio is counted in nan
                    v1 = mp[k] / ms1[j] * _level_factor(-alpha1 * (k - j))
                    v2 = ms2[j] / mp[k] * _level_factor(-alpha2 * (j - k))
                m1, m2 = _family_maxima(v1, bounds), _family_maxima(v2, bounds)
                # a running max skips the nan maxima; fmax is nan only if all are
                c1[j] = max(c1[j], float(np.fmax.reduce(m1)))
                c2[j] = max(c2[j], float(np.fmax.reduce(m2)))
                nan |= np.isnan(m1) | np.isnan(m2)
        skipped += int(np.count_nonzero(nan))

    trace = [(d, max(c1[: d + 1]), max(c2[: d + 1])) for d in depths]
    _, c1_final, c2_final = trace[-1]
    return XClassReport(
        c1=c1_final,
        c2=c2_final,
        trace=trace,
        verdict=worst([trend([c for _, c, _ in trace]), trend([c for _, _, c in trace]),
                       INCONCLUSIVE if skipped else PASS]),
        order_violation=alpha2 < alpha1,
        skipped_families=skipped,
    )


# -- serialization (CLI config schema) ----------------------------------------------


def plain_form(value):
    """A spec or spec field in its dict form: specs as dicts, tuples as lists,
    anything else as it is."""
    if dataclasses.is_dataclass(value):
        return spec_to_dict(value)
    if isinstance(value, tuple):
        return [plain_form(v) for v in value]
    return value


def spec_to_dict(spec):
    """The dict form of a spec: its ``kind`` and every field."""
    out = {"kind": spec.kind}
    for fld in dataclasses.fields(spec):
        out[fld.name] = plain_form(getattr(spec, fld.name))
    return out


def _read_field(name, value, where, dim):
    """One field of a spec in a config: ``base`` holds a spec, ``factors`` a
    non-empty list of them, ``center`` a number or a list, ``dilated`` a
    boolean, and every other field a number."""
    if name == "base":
        return spec_from_dict(value, dim, where)
    if name == "factors":
        if not isinstance(value, list) or not value:
            raise ConfigError(f"{where}: expected a non-empty list, got {value!r}")
        return tuple(spec_from_dict(f, dim, f"{where}[{i}]") for i, f in enumerate(value))
    if name == "center":
        entries = value if isinstance(value, list) else [value]
        center = tuple(config_number(c, where) for c in entries)
        if not center or (dim is not None and len(center) not in (1, dim)):
            raise ConfigError(f"{where}: a shifted_power.center must be a number or a "
                              f"list of length 1 or grid.dim = {dim}, got {value!r}")
        return center
    if name == "dilated":
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected true or false, got {value!r}")
        return value
    return config_number(value, where)


def spec_from_dict(d, dim=None, where="weights"):
    """Weight spec from its dict form, read as the CLI reads a config.

    ``kind`` picks the class in ``SPEC_KINDS`` and every field of the class
    is read from the entry of its name; a field with a default may be left
    out, and a key that is neither ``kind`` nor a field is an error. Numbers
    go through ``config_number``; ``dilated`` must be a boolean and
    ``factors`` a non-empty list. With ``dim`` given, a shifted-power center
    must be a number, a one-element list, or exactly ``dim`` entries.
    Raises ConfigError naming the offending field, ``where`` being the path of d.
    """
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object, got {d!r}")
    kind = d.get("kind")
    cls = SPEC_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{where}.kind: unknown weight kind {kind!r}")
    names = [fld.name for fld in dataclasses.fields(cls)]
    unknown = [key for key in d if key not in names and key != "kind"]
    if unknown:
        raise ConfigError("; ".join(f"{where}.{key}: unknown key of a {kind} spec"
                                    for key in unknown))
    fields = {}
    for fld in dataclasses.fields(cls):
        path = f"{where}.{fld.name}"
        if fld.name in d:
            fields[fld.name] = _read_field(fld.name, d[fld.name], path, dim)
        elif fld.default is dataclasses.MISSING:
            raise ConfigError(f"{path}: missing")
    return cls(**fields)
