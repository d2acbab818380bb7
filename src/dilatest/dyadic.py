"""Dyadic cubes, cell-centered uniform grids, and midpoint quadrature.

Geometry conventions used throughout the package:

* the dyadic cube with level ``k`` and index ``m`` is ``2**-k * ([0,1)^n + m)``;
  levels may be negative (coarse cubes),
* a grid covers ``[-L, L]^n`` with ``N`` cells per axis (``N`` a power of two)
  and samples sit at cell centers ``-L + (j + 1/2) * dx``, so weight
  singularities on dyadic hyperplanes are never sampled; ``grid_axes``
  gives them per axis, each axis's centers shaped to broadcast along it,
* all integrals are midpoint sums over cells; boxes pick up the cells whose
  centers they contain, which is exact for boxes aligned with cell edges,
* off-grid values follow one rule, nested per-axis linear steps (clamped),
  ``interp``; ``axis_units`` gives the unclamped coordinates of whole-axis
  shifts, from which the difference fields check that each step reads a
  sample or a half-cell average, so they match ``interp`` bit for bit,
* the levels a grid resolves and a command reads follow the rules of
  ``plan``, and a level-k cube must span a whole number of cells
  (``level_cell_count``),
* box reductions come in two kinds, each applied one axis at a time so the
  dimension is a loop bound: exact sums over aligned tiles by reshape
  (``level_block_reduce``; ``resample`` divides them into block means), and
  reductions over index ranges from a table built once per array.
  ``prefix_table`` is the one prefix-sum table: with ``pad`` leading zeros
  and ``pad`` trailing totals, every clipped centered window is two slices
  of it (``table_windows``, read by ``window_sums`` and the maximal field),
  also the windows just beyond a box of a larger array that is 0 outside
  it, which ``window_sums`` returns grown by up to the radius.
  Arbitrary ranges go through a ``RangeTable``, which knows its reduction
  ("sum" reads the unpadded prefix table, "min" and "max" the array for
  ``reduceat``): ``range_table`` builds it and ``table_reduce`` reads it, and
  ``box_reduce`` takes the same ranges along every axis from a first-axis
  table, for a list of range sets at once (the cube scans read such a table
  once per batch of cube families, ``weights.family_cube_reduce``).
  The window sums keep complex values complex (``_lanes``): two float
  arrays in the real and imaginary lanes, summed at once, each lane with
  the bits of its own float call, which the window difference field uses
  to reduce two h-nodes per prefix scan,
* an array is exactly 0 outside its support box (``support_box``: per axis
  the index interval of its nonzero entries), which bounds the active boxes
  of the difference sweep and of the maximal field's means,
* the B and F aggregates over levels are one choice, folded one level at a
  time (``MixedNorm``, and ``mixed_norm`` over a list of levels).
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
    def side(self):
        return 2.0 ** (-self.level)


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
    def sides(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

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


def tensor_points(axes):
    """Points (axes[0][j_0], axes[1][j_1], ...) at [j_0, j_1, ...], shape (..., dim)."""
    out = np.empty([len(c) for c in axes] + [len(axes)])
    for a, coords in enumerate(axes):
        out[..., a] = _along(coords, a, len(axes))
    return out


def point_layout(pts, dim, public=False):
    """Points in the internal layout (..., dim), or with ``public`` in the public one.

    The two differ only in 1-D, where evaluators, ``interp``, ``eval_weight``,
    the fixtures and ``points()`` take or give shape (...,).
    """
    pts = np.asarray(pts, dtype=float)
    if dim != 1:
        return pts
    return pts[..., 0] if public else pts[..., None]


def _check_grid(dim, halfwidth, shape):
    """Raise ValueError unless ``shape`` is a grid of ``GridFunction``'s kind."""
    if dim <= 0:
        raise ValueError("the dimension must be at least 1")
    if len(shape) != dim:
        raise ValueError(f"samples must be {dim}-dimensional")
    n = shape[0]
    if shape != (n,) * dim:
        raise ValueError("samples must be square")
    if n < 2 or n & (n - 1):
        raise ValueError("per-axis resolution must be a power of two >= 2")
    if halfwidth <= 0:
        raise ValueError("halfwidth must be positive")


def _cell_centers(halfwidth, n):
    """The n cell centers of [-halfwidth, halfwidth] along one axis."""
    return -halfwidth + (np.arange(n) + 0.5) * (2.0 * halfwidth / n)


def grid_axes(dim, halfwidth, n):
    """The grid's cell centers as per-axis coordinates: axis a's n centers
    shaped to broadcast along axis a of the (n,) * dim grid, so a function
    that broadcasts them together samples the grid without its point cloud.
    Raises ValueError unless the grid is of ``GridFunction``'s kind."""
    _check_grid(dim, halfwidth, (n,) * dim)
    centers = _cell_centers(float(halfwidth), n)
    return [_along(centers, a, dim) for a in range(dim)]


def _grid_points(dim, halfwidth, n):
    """The cell centers of the grid in the public layout (``point_layout``)."""
    return point_layout(tensor_points([_cell_centers(halfwidth, n)] * dim), dim, public=True)


class GridFunction:
    """Real samples at the cell centers of a uniform grid over [-L, L]^n.

    Parameters
    ----------
    dim : n, any dimension >= 1
    halfwidth : L, half side of the sampled box
    samples : array of shape (N,) * dim; N must be a power of two
    evaluator : optional closed form, used for exact resampling;
        called with points in the public layout (see ``point_layout``):
        shape (...,) in 1-D and (..., dim) above
    """

    def __init__(self, dim, halfwidth, samples, evaluator=None):
        samples = np.asarray(samples, dtype=float)
        _check_grid(dim, halfwidth, samples.shape)
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
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
        return _cell_centers(self.halfwidth, self.resolution)

    def points(self):
        """All cell centers in the public layout: shape (N,) in 1-D, (N,) * n + (n,) above."""
        return _grid_points(self.dim, self.halfwidth, self.resolution)

    @classmethod
    def from_callable(cls, fn, dim=1, halfwidth=8.0, resolution=1024):
        """The samples of ``fn`` at the cell centers, with ``fn`` as the evaluator."""
        _check_grid(dim, halfwidth, (resolution,) * dim)
        samples = np.asarray(fn(_grid_points(dim, float(halfwidth), resolution)), dtype=float)
        if samples.shape != (resolution,) * dim:
            raise ValueError("evaluator did not broadcast over the grid")
        return cls(dim, halfwidth, samples, evaluator=fn)

    def with_samples(self, samples):
        """The same geometry holding ``samples``, with no evaluator."""
        return GridFunction(self.dim, self.halfwidth, samples)

    def resample(self, resolution):
        """Same geometry at a new resolution (exact when a closed form exists)."""
        if resolution == self.resolution:
            return self
        if self.evaluator is not None:
            return GridFunction.from_callable(
                self.evaluator, self.dim, self.halfwidth, resolution
            )
        if resolution < self.resolution and self.resolution % resolution == 0:
            # block means over the aligned tiles of the coarse cells
            factor = self.resolution // resolution
            return self.with_samples(_tile_reduce(self.samples, factor) / factor**self.dim)
        raise ValueError("cannot refine sampled data without a closed form")

    # -- interpolation ------------------------------------------------------

    def _units(self, coords):
        """Each coordinate in cells from the first center, unclamped: u = (x + L) / dx - 1/2."""
        return (np.asarray(coords, dtype=float) + self.halfwidth) / self.spacing - 0.5

    def _clamped_weights(self, u):
        """Lower neighbor index and linear weight of each unit coordinate u, clamped to the grid."""
        i0 = np.clip(np.floor(u).astype(np.int64), 0, self.resolution - 2)
        return i0, np.clip(u - i0, 0.0, 1.0)

    def _interp_clamped(self, pts):
        """n-linear interpolation, clamped, as nested linear steps: the corner
        values with the first axis fastest, then per axis a = 0, 1, ... each
        (lower, upper) pair becomes lower * (1 - w_a) + upper * w_a."""
        i0, w = self._clamped_weights(self._units(point_layout(pts, self.dim)))
        i0, w = np.moveaxis(i0, -1, 0), np.moveaxis(w, -1, 0)
        vals = [
            self.samples[tuple(i + c for i, c in zip(i0, corner[::-1]))]
            for corner in itertools.product((0, 1), repeat=self.dim)
        ]
        for wa in w:
            vals = [lo * (1 - wa) + hi * wa for lo, hi in zip(vals[::2], vals[1::2])]
        return vals[0]

    def in_domain(self, pts):
        return np.all(np.abs(point_layout(pts, self.dim)) <= self.halfwidth, axis=-1)

    def interp(self, pts):
        """Multilinear interpolation at points inside [-L, L]^n; a point beyond
        raises OutOfDomain (``interp_masked`` sets such points to zero instead)."""
        if not np.all(self.in_domain(pts)):
            raise OutOfDomain("evaluation point outside the sampled box")
        return self._interp_clamped(pts)

    def interp_masked(self, pts):
        """(values-with-zeros, in-domain mask); used by quadratures that drop points."""
        mask = self.in_domain(pts)
        return np.where(mask, self._interp_clamped(pts), 0.0), mask

    def axis_units(self, shifts):
        """The centers of one axis moved by each shift, in cells: row r of each
        returned array belongs to ``shifts[r]``, the unclamped coordinate u of
        center x_j + shift (``_units``) and the in-domain test |x_j + shift| <= L."""
        x = self.axis_centers() + np.reshape(shifts, (-1, 1))
        return self._units(x), np.abs(x) <= self.halfwidth

    # -- index geometry ------------------------------------------------------

    def index_range(self, lo, hi):
        """Per-axis index range [i0, i1) of the cells whose centers fall in [lo, hi),
        clipped to the grid; array ends give one range per entry."""
        n, dx, L = self.resolution, self.spacing, self.halfwidth
        i0, i1 = (
            np.clip(np.ceil((np.asarray(x, dtype=float) + L) / dx - 0.5 - _TIE_EPS), 0, n)
            .astype(np.int64)
            for x in (lo, hi)
        )
        return i0, i1

    def l1(self):
        return float(np.sum(np.abs(self.samples))) * self.spacing**self.dim


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


def _lanes(values):
    """``values`` as a float array, or as a complex one when they are complex:
    two float lanes, the real and the imaginary part, which ``prefix_table``
    and ``window_sums`` add and subtract lane by lane, each lane as its own
    float call would."""
    v = np.asarray(values)
    return np.asarray(v, dtype=np.result_type(v, np.float64))


def _tile_reduce(values, cells):
    """Sums over the aligned tiles of ``cells`` samples per axis, by reshape.

    Kept apart from ``table_reduce`` on purpose, and read by the expanded
    difference field for it: prefix-table differences round at the scale of
    the running total, not of the tile. The sums are taken of a C-ordered
    copy when ``values`` is not one, so their bits do not depend on its layout.
    """
    v = np.ascontiguousarray(values)
    tiles = v.reshape(sum(((n // cells, cells) for n in v.shape), ()))
    return np.sum(tiles, axis=tuple(range(1, tiles.ndim, 2)))


def level_block_reduce(values, f: GridFunction, k: int):
    """Sum a sample array over the level-k cubes tiling the domain.

    Returns an array with one entry per cube per axis, ordered by index.
    """
    level_cube_count(f, k)  # the cubes must tile the domain
    return _tile_reduce(values, level_cell_count(f, k))


# -- reductions over index ranges ------------------------------------------------


def _along(vec, axis, ndim):
    """A 1-D array shaped to broadcast along ``axis`` of an ndim-array."""
    return np.reshape(vec, (-1,) + (1,) * (ndim - 1 - axis))


def _at(axis, index):
    """Index tuple that applies ``index`` along ``axis`` and keeps the axes before it."""
    return (slice(None),) * axis + (index,)


def support_box(values):
    """Per axis, the interval (s0, s1) of indices at which some entry of
    ``values`` is nonzero, from one ``values != 0`` for every axis: the box
    outside which the array is exactly 0. (0, 0) on every axis for values = 0."""
    on = np.asarray(values) != 0
    box = []
    for axis in range(on.ndim):
        hit = on.any(axis=tuple(a for a in range(on.ndim) if a != axis)).nonzero()[0]
        box.append((int(hit[0]), int(hit[-1]) + 1) if hit.size else (0, 0))
    return tuple(box)


def prefix_table(values, axis, pad):
    """Prefix sums along one axis with ``pad`` + 1 leading zeros and ``pad``
    trailing copies of the total: entry pad + m holds the sum of the first
    clip(m, 0, n) entries, so a range [lo, hi) within pad of the axis sums to
    entry pad + hi minus entry pad + lo, clipped to the array.

    Complex values keep their dtype (``_lanes``): a complex add is two float
    adds, one per lane, so each lane's table has the bits of the float
    table of that lane, and one scan serves two arrays."""
    v = _lanes(values)
    n = v.shape[axis]
    shape = list(v.shape)
    shape[axis] = n + 2 * pad + 1
    table = np.empty(shape, dtype=v.dtype)
    table[_at(axis, slice(0, pad + 1))] = 0.0
    # np.cumsum's loop, called as the ufunc without the wrapper's per-call cost
    np.add.accumulate(v, axis=axis, out=table[_at(axis, slice(pad + 1, pad + 1 + n))])
    table[_at(axis, slice(pad + 1 + n, None))] = table[_at(axis, slice(pad + n, pad + n + 1))]
    return table


def table_windows(table, axis, pad, below, above, grow=(0, 0)):
    """Sums over the ranges [i - below, i + above), clipped to the array, for
    every index i from -grow[0] to n + grow[1] - 1, from its ``prefix_table``
    with ``pad`` >= below + grow[0], above + grow[1] - 1: two slices."""
    n = table.shape[axis] - 2 * pad - 1
    before, after = grow
    return (table[_at(axis, slice(pad + above - before, pad + above + n + after))]
            - table[_at(axis, slice(pad - below - before, pad - below + n + after))])


@dataclass(frozen=True)
class RangeTable:
    """What range reductions of one array along ``axis`` by ``op`` read: built
    once by ``range_table``, read by any number of ``table_reduce`` calls.

    For "sum" ``data`` is the ``prefix_table``; for "min" and "max" it is the
    array with one spare slice, which keeps every start, the axis length
    included, a valid ``ufunc.reduceat`` index.
    """

    axis: int
    op: str
    data: np.ndarray


def range_table(values, axis=0, op="sum"):
    """The table from which ``table_reduce`` reduces any ranges of ``values``
    along ``axis`` by ``op``: "sum", "min" or "max"."""
    v = np.asarray(values, dtype=float)
    if op == "sum":
        return RangeTable(axis, op, prefix_table(v, axis, 0))
    if op not in ("min", "max"):
        raise ValueError(f"unknown reduction {op!r}")
    return RangeTable(axis, op, np.concatenate([v, v[_at(axis, slice(0, 1))]], axis))


def table_reduce(table: RangeTable, lo, hi):
    """Reduce over the index ranges [lo[i], hi[i]) along the table's axis by its op.

    Entry i of the output axis holds the reduction over range i; ranges are
    clipped to the array. Sums are differences of prefix-table entries, and
    "min"/"max" use ``ufunc.reduceat``. Empty ranges give 0, +inf and -inf.
    """
    axis, data = table.axis, table.data
    n = data.shape[axis] - 1
    lo = np.minimum(np.maximum(lo, 0), n)
    hi = np.minimum(np.maximum(hi, lo), n)
    if table.op == "sum":
        return data.take(hi, axis) - data.take(lo, axis)
    ufunc, empty = {"min": (np.minimum, np.inf), "max": (np.maximum, -np.inf)}[table.op]
    # interleaved starts put range i at output 2i
    starts = np.stack([lo, hi], axis=-1).ravel()
    out = ufunc.reduceat(data, starts, axis=axis)[_at(axis, slice(0, None, 2))]
    return np.where(_along(hi > lo, axis, data.ndim), out, empty)


def box_reduce(table: RangeTable, ranges):
    """Reduce by the table's op over the boxes of every range set (lo, hi) of
    the list: [lo[i0], hi[i0]) x [lo[i1], hi[i1]) x ..., the same index ranges
    along every axis, from the first-axis ``range_table`` of the values.

    Returns one flat array holding each set's box grid in C order, set after
    set. The first axis reads the table once for the sets' concatenated
    ranges; each further axis tables the partial once, and each set reads its
    own rows with its own ranges, so every lane is reduced as if alone.
    """
    out = table_reduce(table, np.concatenate([lo for lo, _ in ranges]),
                       np.concatenate([hi for _, hi in ranges]))
    for ax in range(1, out.ndim):
        rows = range_table(out, 1, table.op)
        del out  # tabled; the partial and the next one are never alive together
        pieces, start = [], 0
        for lo, hi in ranges:
            stop = start + len(lo) ** ax
            part = table_reduce(RangeTable(1, rows.op, rows.data[start:stop]), lo, hi)
            pieces.append(part.reshape((-1,) + part.shape[2:]))
            start = stop
        out = np.concatenate(pieces)
    return out


def three_point_max(values, step, axis, out=None):
    """max(X[i - step], X[i], X[i + step]) along one axis, a neighbour past
    either end left out. With ``out`` (not ``values`` itself) its entries join
    the max and it is returned; otherwise the result is a fresh array.

    Nested with steps 1, 1, 2, ..., 2^(j-2) it gives the max over the clipped
    window [i - 2^(j-1), i + 2^(j-1)]: every offset in it is a sum of
    same-sign steps, so each point on the way stays between i and the target.

    Each shift is one ``np.maximum`` of two slices along ``axis``. Along the
    last axis of a C-ordered array of two or more dims those slices are rows
    of n - step entries, a ufunc loop per row, so a step of at most n/4 is
    shifted on the flat arrays instead, one loop over every entry, and the
    step entries at the edge of each row that it carried over from the
    neighbouring row are put back. Every other entry meets the same operands
    in the same order, so the result keeps the slices' bits, nan and inf
    included. Axis 0 and 1-D arrays are contiguous slices already, a middle
    axis's slices are runs of (n - step) * stride entries, and a wider step
    would put back more than half the array, so these keep the slices.
    """
    if out is None:
        out = values.copy()
    else:
        np.maximum(out, values, out=out)
    n = values.shape[axis]
    if axis == values.ndim - 1 > 0 and 4 * step <= n and out.flags.c_contiguous:
        flat, rows, shifted = out.reshape(-1), out.reshape(-1, n), values.reshape(-1)
        for into, read, edge in ((slice(step, None), slice(None, -step), slice(None, step)),
                                 (slice(None, -step), slice(step, None), slice(-step, None))):
            kept = rows[:, edge].copy()
            np.maximum(flat[into], shifted[read], out=flat[into])
            rows[:, edge] = kept
        return out
    ahead, behind = _at(axis, slice(step, None)), _at(axis, slice(None, -step))
    np.maximum(out[ahead], values[behind], out=out[ahead])
    np.maximum(out[behind], values[ahead], out=out[behind])
    return out


def window_sums(values, radius_cells: int, grow=None):
    """Centered moving-window sums with half-weighted edge cells.

    Window at cell i covers (x_i - r*dx, x_i + r*dx): interior cells carry
    weight 1 and the two cells centered exactly on the window edge carry 1/2,
    so constants integrate exactly. Windows are clipped at the domain edge.
    Works separably, one axis at a time: the closed window [i - r, i + r] plus
    its interior [i - r + 1, i + r - 1], halved, both ``table_windows`` of one
    ``prefix_table``. The output stays C-ordered.

    ``values`` may be a box of a larger array that is exactly 0 outside it:
    ``grow`` then gives per axis how many windows (before, after) the box to
    return as well, each at most r and clipped by the caller to the larger
    array. The larger array's window sums are exactly 0 beyond the grown box,
    and inside it they read the same prefix entries as the box's, since a
    prefix sum over zeros is 0 and adding zeros keeps a total's bits: so the
    box's window sums are the larger array's, bit for bit, on a finite array.
    With no ``grow`` the output has the shape of ``values``.

    Complex values are two arrays, one per lane, summed at once: the tables
    and their differences work lane by lane (``prefix_table``) and the
    halving is applied to the float view, so each lane gets the bits of its
    own float call, nonfinite values included.
    """
    out = _lanes(values)
    r = int(radius_cells)
    if r < 1:
        raise ValueError("window radius must be at least one cell")
    for ax in range(out.ndim):
        span = (0, 0) if grow is None else grow[ax]
        pad = r + max(span)
        table = prefix_table(out, ax, pad)
        out = table_windows(table, ax, pad, r, r + 1, span)
        out += table_windows(table, ax, pad, r - 1, r, span)
        half = out.view(np.float64)  # a complex 0.5 would mix the lanes through 0 * inf
        half *= 0.5
    return out


# -- mixed norms over levels -----------------------------------------------------


class MixedNorm:
    """The kind-"B" aggregate, l_q over levels of the L_p norm of each layer,
    or the kind-"F" one, the L_p norm of their pointwise l_q aggregate; a
    caller that ``add``s each level as it comes need not hold them all."""

    def __init__(self, kind, p, q, cellw=1.0, layers=()):
        self.kind, self.p, self.q, self.cellw = kind, p, q, cellw
        self.terms, self.agg = [], None  # agg: F's pointwise sum of |layer|^q
        for v in layers:
            self.add(v)

    def add(self, layer):
        if self.kind == "B":
            self.terms.append(float(np.sum(np.abs(layer) ** self.p) * self.cellw) ** (1.0 / self.p))
        elif self.agg is None:  # the first power is a fresh array: later ones add in place
            self.agg = np.abs(layer) ** self.q
        else:
            self.agg += np.abs(layer) ** self.q

    def value(self):
        """(value, per-level L_p norms); F has no per-level terms and gives []."""
        p, q = self.p, self.q
        if self.kind == "B":
            return float(np.sum(np.asarray(self.terms) ** q)) ** (1.0 / q), self.terms
        agg = 0.0 if self.agg is None else self.agg
        return float(np.sum(agg ** (p / q)) * self.cellw) ** (1.0 / p), []


def mixed_norm(kind, layers, p, q, cellw=1.0):
    """The ``MixedNorm`` of the layers: (value, per-level L_p norms)."""
    return MixedNorm(kind, p, q, cellw, layers).value()

