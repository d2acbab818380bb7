"""Dyadic cubes, cell-centered uniform grids, and midpoint quadrature.

Geometry conventions used throughout the package:

* the dyadic cube with level ``k`` and index ``m`` is ``2**-k * ([0,1)^n + m)``;
  levels may be negative (coarse cubes),
* a grid covers ``[-L, L]^n`` with ``N`` cells per axis (``N`` a power of two)
  and samples sit at cell centers ``-L + (j + 1/2) * dx``, so weight
  singularities on dyadic hyperplanes are never sampled,
* all integrals are midpoint sums over cells; boxes pick up the cells whose
  centers they contain, which is exact for boxes aligned with cell edges,
* box reductions come in two kinds, each applied one axis at a time so the
  dimension is a loop bound: exact per-tile reductions over aligned tiles by
  reshape (``level_block_reduce``), and reductions over arbitrary index
  ranges from prefix tables or ``reduceat`` (``axis_reduce``).
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyIntersection, OutOfDomain, ResolutionExceeded

_TIE_EPS = 1e-9


@dataclass(frozen=True)
class DyadicCube:
    """Cube 2**-level * ([0,1)^n + index)."""

    level: int
    index: tuple

    @property
    def dim(self):
        return len(self.index)

    @property
    def side(self):
        return 2.0 ** (-self.level)

    @property
    def corner(self):
        return tuple(self.side * m for m in self.index)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by per-axis half-open intervals [lo, hi)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or not self.lo:
            raise ValueError("lo/hi must be nonempty and of equal length")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("box must have positive measure on every axis")

    @property
    def dim(self):
        return len(self.lo)

    @property
    def sides(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def measure(self):
        out = 1.0
        for s in self.sides:
            out *= s
        return out

    def intersect(self, other):
        """Intersection with another box, or None if it has empty interior."""
        lo = tuple(max(a, b) for a, b in zip(self.lo, other.lo))
        hi = tuple(min(a, b) for a, b in zip(self.hi, other.hi))
        if any(h <= l for l, h in zip(lo, hi)):
            return None
        return Box(lo, hi)


def cube_box(cube: DyadicCube) -> Box:
    """Realize a dyadic cube as a half-open box."""
    s = cube.side
    return Box(tuple(s * m for m in cube.index), tuple(s * (m + 1) for m in cube.index))


def expanded_cube(cube: DyadicCube) -> Box:
    """The five-times enlarged cube ((m-2)*2**-k, (m+3)*2**-k) per axis."""
    s = cube.side
    return Box(
        tuple(s * (m - 2) for m in cube.index),
        tuple(s * (m + 3) for m in cube.index),
    )


class GridFunction:
    """Real samples at the cell centers of a uniform grid over [-L, L]^n.

    Parameters
    ----------
    dim : 1 or 2
    halfwidth : L, half side of the sampled box
    samples : array of shape (N,) or (N, N); N must be a power of two
    evaluator : optional closed form, called with points of shape (..., ) for
        dim 1 or (..., 2) for dim 2; used for exact resampling and dilation
    """

    def __init__(self, dim, halfwidth, samples, evaluator=None):
        if dim not in (1, 2):
            raise ValueError("only dimensions 1 and 2 are supported")
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != dim:
            raise ValueError(f"samples must be {dim}-dimensional")
        n = samples.shape[0]
        if samples.shape != (n,) * dim:
            raise ValueError("samples must be square")
        if n < 2 or n & (n - 1):
            raise ValueError("per-axis resolution must be a power of two >= 2")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if halfwidth <= 0:
            raise ValueError("halfwidth must be positive")
        self.dim = dim
        self.halfwidth = float(halfwidth)
        self.samples = samples
        self.evaluator = evaluator

    @property
    def resolution(self):
        return self.samples.shape[0]

    @property
    def spacing(self):
        return 2.0 * self.halfwidth / self.resolution

    @property
    def domain(self) -> Box:
        return Box((-self.halfwidth,) * self.dim, (self.halfwidth,) * self.dim)

    def axis_centers(self):
        n, dx = self.resolution, self.spacing
        return -self.halfwidth + (np.arange(n) + 0.5) * dx

    def points(self):
        """All cell centers; shape (N,) for dim 1, (N, N, 2) for dim 2."""
        c = self.axis_centers()
        if self.dim == 1:
            return c
        gx, gy = np.meshgrid(c, c, indexing="ij")
        return np.stack([gx, gy], axis=-1)

    @classmethod
    def from_callable(cls, fn, dim=1, halfwidth=8.0, resolution=1024):
        f = cls(dim, halfwidth, np.zeros((resolution,) * dim), evaluator=fn)
        f.samples = np.asarray(fn(f.points()), dtype=float)
        if f.samples.shape != (resolution,) * dim:
            raise ValueError("evaluator did not broadcast over the grid")
        if not np.all(np.isfinite(f.samples)):
            raise ValueError("evaluator produced non-finite samples")
        return f

    def with_samples(self, samples, evaluator=None):
        return GridFunction(self.dim, self.halfwidth, samples, evaluator=evaluator)

    def resample(self, resolution):
        """Same geometry at a new resolution (exact when a closed form exists)."""
        if resolution == self.resolution:
            return self
        if self.evaluator is not None:
            return GridFunction.from_callable(
                self.evaluator, self.dim, self.halfwidth, resolution
            )
        if resolution < self.resolution and self.resolution % resolution == 0:
            return self.coarsen(self.resolution // resolution)
        raise ValueError("cannot refine sampled data without a closed form")

    def coarsen(self, factor):
        """Block-mean downsample by an integer factor."""
        if self.resolution % factor:
            raise ValueError("factor must divide the resolution")
        return GridFunction(self.dim, self.halfwidth, _tile_reduce(self.samples, factor, "mean"))

    # -- interpolation ------------------------------------------------------

    def _clamped_weights(self, coords):
        """Lower neighbor index and linear weight of each coordinate, clamped to the grid."""
        n, dx, L = self.resolution, self.spacing, self.halfwidth
        u = (np.asarray(coords, dtype=float) + L) / dx - 0.5
        i0 = np.clip(np.floor(u).astype(np.int64), 0, n - 2)
        return i0, np.clip(u - i0, 0.0, 1.0)

    def _interp_clamped(self, pts):
        i0, w = self._clamped_weights(pts)
        if self.dim == 1:
            return (1.0 - w) * self.samples[i0] + w * self.samples[i0 + 1]
        ix, iy = i0[..., 0], i0[..., 1]
        wx, wy = w[..., 0], w[..., 1]
        s = self.samples
        return (
            s[ix, iy] * (1 - wx) * (1 - wy)
            + s[ix + 1, iy] * wx * (1 - wy)
            + s[ix, iy + 1] * (1 - wx) * wy
            + s[ix + 1, iy + 1] * wx * wy
        )

    def in_domain(self, pts):
        pts = np.asarray(pts, dtype=float)
        if self.dim == 1:
            return np.abs(pts) <= self.halfwidth
        return np.all(np.abs(pts) <= self.halfwidth, axis=-1)

    def interp(self, pts, outside="raise"):
        """Multilinear interpolation at arbitrary points.

        ``outside`` picks the policy for points beyond [-L, L]^n: "raise"
        (OutOfDomain), "zero", or "clamp" (nearest-edge value).
        """
        vals = self._interp_clamped(pts)
        if outside == "clamp":
            return vals
        mask = self.in_domain(pts)
        if outside == "raise":
            if not np.all(mask):
                raise OutOfDomain("evaluation point outside the sampled box")
            return vals
        if outside == "zero":
            return np.where(mask, vals, 0.0)
        raise ValueError(f"unknown outside policy {outside!r}")

    def interp_masked(self, pts):
        """(values-with-zeros, in-domain mask); used by quadratures that drop points."""
        mask = self.in_domain(pts)
        return np.where(mask, self._interp_clamped(pts), 0.0), mask

    def axis_stencil(self, shifts):
        """Clamped linear interpolation at the centers of one axis moved by each shift.

        Row r of each returned array belongs to ``shifts[r]``: the lower
        neighbor index i0 and weight w of center x_j + shift, so that
        ``(1 - w) * v[i0] + w * v[i0 + 1]`` interpolates samples v along the
        axis with the float steps of ``interp``, and the in-domain test
        |x_j + shift| <= L.
        """
        x = self.axis_centers() + np.reshape(shifts, (-1, 1))
        i0, w = self._clamped_weights(x)
        return i0, w, np.abs(x) <= self.halfwidth

    # -- index geometry ------------------------------------------------------

    def index_range(self, lo, hi):
        """Per-axis index range [i0, i1) of cells whose centers fall in [lo, hi)."""
        n, dx, L = self.resolution, self.spacing, self.halfwidth
        i0 = int(math.ceil((lo + L) / dx - 0.5 - _TIE_EPS))
        i1 = int(math.ceil((hi + L) / dx - 0.5 - _TIE_EPS))
        return max(i0, 0), min(i1, n)

    def l1(self):
        return float(np.sum(np.abs(self.samples))) * self.spacing**self.dim

    def lp(self, p):
        return float(np.sum(np.abs(self.samples) ** p) * self.spacing**self.dim) ** (
            1.0 / p
        )


# -- box quadrature ----------------------------------------------------------


def _box_slices(f: GridFunction, b: Box):
    dom = b.intersect(f.domain)
    if dom is None:
        raise EmptyIntersection("box does not meet the sampled domain")
    ranges = [f.index_range(lo, hi) for lo, hi in zip(dom.lo, dom.hi)]
    if any(i1 <= i0 for i0, i1 in ranges):
        raise EmptyIntersection("box contains no full grid cell")
    return tuple(slice(i0, i1) for i0, i1 in ranges)


def box_average(f: GridFunction, b: Box) -> float:
    """Midpoint approximation of the mean of |f| over the box."""
    return float(np.mean(np.abs(f.samples[_box_slices(f, b)])))


def box_lp_average(f: GridFunction, b: Box, p) -> float:
    """Mean of |f|^p over the box, to the power 1/p; p = inf takes the max."""
    block = np.abs(f.samples[_box_slices(f, b)])
    if p == math.inf:
        return float(np.max(block))
    if p <= 0:
        raise ValueError("p must be positive or inf")
    return float(np.mean(block**p) ** (1.0 / p))


def cubes_covering(b: Box, k: int, spacing=None):
    """All level-k dyadic cubes meeting the box, complete and duplicate-free."""
    if spacing is not None and 2.0 ** (-k) < spacing:
        raise ResolutionExceeded(
            f"level {k} cubes are smaller than the grid spacing {spacing}"
        )
    scale = 2.0**k
    axes = []
    for lo, hi in zip(b.lo, b.hi):
        m0 = math.floor(lo * scale + _TIE_EPS)
        m1 = math.ceil(hi * scale - _TIE_EPS)
        axes.append(range(m0, m1))
    return [DyadicCube(k, m) for m in itertools.product(*axes)]


# -- aligned-level fast paths -------------------------------------------------


def level_cell_count(f: GridFunction, k: int) -> int:
    """Cells per axis inside one level-k cube; requires exact alignment."""
    c = 2.0 ** (-k) / f.spacing
    if c < 1.0 - 1e-12:
        raise ResolutionExceeded(f"level {k} below grid resolution")
    ci = int(round(c))
    if abs(c - ci) > 1e-9:
        raise ResolutionExceeded(f"level {k} cubes do not align with the grid")
    return ci


def level_cube_count(f: GridFunction, k: int) -> int:
    """Level-k cubes per axis tiling [-L, L]; requires 2L * 2**k integral."""
    nc = 2.0 * f.halfwidth * 2.0**k
    if nc < 1.0 - 1e-9 or abs(nc - round(nc)) > 1e-9:
        raise ResolutionExceeded(f"level {k} cubes do not tile the domain")
    return int(round(nc))


def level_first_index(f: GridFunction, k: int) -> int:
    """Dyadic index of the cube at the lower-left domain corner."""
    return int(round(-f.halfwidth * 2.0**k))


def _tile_reduce(values, cells, op):
    """Exact reduction over aligned tiles of ``cells`` samples per axis, by reshape.

    Kept apart from ``axis_reduce`` on purpose: prefix-table differences
    round at the scale of the running total, not of the tile.
    """
    v = np.asarray(values, dtype=float)
    tiles = v.reshape(sum(((n // cells, cells) for n in v.shape), ()))
    red = {"sum": np.sum, "mean": np.mean, "max": np.max, "min": np.min}[op]
    return red(tiles, axis=tuple(range(1, tiles.ndim, 2)))


def level_block_reduce(values, f: GridFunction, k: int, op="sum"):
    """Reduce a sample array over the level-k cubes tiling the domain.

    Returns an array with one entry per cube per axis, ordered by index.
    """
    level_cube_count(f, k)  # the cubes must tile the domain
    return _tile_reduce(values, level_cell_count(f, k), op)


# -- reductions over index ranges ------------------------------------------------


def _along(vec, axis, ndim):
    """A 1-D array shaped to broadcast along ``axis`` of an ndim-array."""
    return np.reshape(vec, (-1,) + (1,) * (ndim - 1 - axis))


def _at(axis, index):
    """Index tuple that applies ``index`` along ``axis`` and keeps the axes before it."""
    return (slice(None),) * axis + (index,)


def axis_reduce(values, lo, hi, axis, op="sum"):
    """Reduce over the index ranges [lo[i], hi[i]) along one axis.

    Entry i of the output axis holds the reduction over range i; ranges are
    clipped to the array. Sums are differences of a prefix table with a
    leading zero, "mean" divides them by the clipped length, and "min"/"max"
    use ``ufunc.reduceat``. Empty ranges give 0, nan, +inf and -inf.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    lo = np.minimum(np.maximum(lo, 0), n)
    hi = np.minimum(np.maximum(hi, lo), n)
    if op in ("sum", "mean"):
        shape = list(v.shape)
        shape[axis] = n + 1
        table = np.zeros(shape)
        np.cumsum(v, axis=axis, out=table[_at(axis, slice(1, None))])
        out = table.take(hi, axis) - table.take(lo, axis)
        if op == "sum":
            return out
        with np.errstate(invalid="ignore"):
            return out / _along(hi - lo, axis, v.ndim)
    ufunc, empty = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}[op]
    # one spare slice keeps every start, hi = n included, a valid reduceat index;
    # interleaved starts put range i at output 2i
    padded = np.concatenate([v, v[_at(axis, slice(0, 1))]], axis)
    starts = np.stack([lo, hi], axis=-1).ravel()
    out = ufunc.reduceat(padded, starts, axis=axis)[_at(axis, slice(0, None, 2))]
    return np.where(_along(hi > lo, axis, v.ndim), out, empty)


def running_max(values, radius, axis):
    """Max over the window [i - radius, i + radius] along one axis, clipped to the array.

    Padding with -inf makes every window full length w = 2 radius + 1 without
    changing its max. Doubling then gives the max over [i, i + p) for p the
    largest power of two not above w, and two such spans cover each window.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[axis]
    width = 2 * radius + 1
    shape = list(v.shape)
    shape[axis] = n + 2 * radius
    a = np.full(shape, -np.inf)
    a[_at(axis, slice(radius, radius + n))] = v
    span = 1
    while 2 * span <= width:
        a = np.maximum(a[_at(axis, slice(None, -span))], a[_at(axis, slice(span, None))])
        span *= 2
    return np.maximum(a[_at(axis, slice(0, n))], a[_at(axis, slice(width - span, width - span + n))])


def window_sums(values, radius_cells: int):
    """Centered moving-window sums with half-weighted edge cells.

    Window at cell i covers (x_i - r*dx, x_i + r*dx): interior cells carry
    weight 1 and the two cells centered exactly on the window edge carry 1/2,
    so constants integrate exactly. Windows are clipped at the domain edge.
    Works separably, one axis at a time.

    Each axis builds its prefix table T (T[0] = 0, T[m] the sum of the first
    m cells) inside a buffer P with r leading zeros and r trailing copies of
    the total, so P[r + m] = T[clip(m, 0, n)]. Every clipped window is then
    a plain slice: the closed window [i - r, i + r] is P[i + 2r + 1] - P[i],
    its interior P[i + 2r] - P[i + 1]. The output stays C-ordered.
    """
    out = np.asarray(values, dtype=float)
    r = int(radius_cells)
    if r < 1:
        raise ValueError("window radius must be at least one cell")
    for ax in range(out.ndim):
        n = out.shape[ax]
        shape = list(out.shape)
        shape[ax] = n + 2 * r + 1
        table = np.empty(shape)
        table[_at(ax, slice(0, r + 1))] = 0.0
        np.cumsum(out, axis=ax, out=table[_at(ax, slice(r + 1, r + 1 + n))])
        table[_at(ax, slice(r + 1 + n, None))] = table[_at(ax, slice(r + n, r + n + 1))]
        # the closed window plus its interior, then halved
        out = table[_at(ax, slice(2 * r + 1, 2 * r + 1 + n))] - table[_at(ax, slice(0, n))]
        out += table[_at(ax, slice(2 * r, 2 * r + n))] - table[_at(ax, slice(1, 1 + n))]
        out *= 0.5
    return out


# -- mixed norms over levels -----------------------------------------------------


def lq_of_lp(layers, p, q, cellw=1.0):
    """l_q over levels of the L_p norm of each layer (the B-kind aggregate).

    Returns (value, per-level L_p norms).
    """
    terms = [float(np.sum(np.abs(v) ** p) * cellw) ** (1.0 / p) for v in layers]
    return float(np.sum(np.asarray(terms) ** q)) ** (1.0 / q), terms


def lp_of_lq(layers, p, q, cellw=1.0):
    """L_p norm of the pointwise l_q aggregate of the layers (the F kind)."""
    agg = 0.0
    for v in layers:
        agg = agg + np.abs(v) ** q
    return float(np.sum(agg ** (p / q)) * cellw) ** (1.0 / p)
