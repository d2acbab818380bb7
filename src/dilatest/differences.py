"""Finite differences and the local double-averaged difference functionals.

The order-M difference is the alternating binomial sum
``sum_j (-1)**j C(M, j) f(x + (M - j) h)``; the local functionals average its
absolute value both over a spatial box and over the displacement h. Three
flavors appear in the norm definitions and are kept verbatim:

* over a cube Q with h in l(Q)*(-1,1)^n, normalized by l(Q)**(2n),
* over a moving window x + 2**-k*(-1,1)^n with prefactor 2**(2kn),
* over the five-times expanded dyadic cube with h in 2**-k*(-1,1)^n but the
  normalization still using the expanded side 5*2**-k (taken literally).

Displacement quadrature uses midpoint nodes at roughly the grid spacing,
capped at 32 nodes per axis. Renormalization rule: (x, h) pairs whose
evaluation points leave the sampled box are dropped and the sum over the
remaining pairs is scaled by (all pairs) / (kept pairs), so boundary windows
stay unbiased; entries that dropped pairs are flagged.

The scalar ``delta_avg_*`` functionals take one box each and serve as
oracles. The fields share one engine, ``_node_sums``, whose one node loop
serves every function on a grid, each node's stencil rows computed once,
and feeds each |Delta_h^M f| to every reduction asked for (``delta_fields``;
each ``delta_*_field`` is its one-function, one-kind call); a kind sets only
its reduction, normalization and extra flag. Nodes and grid are tensor
products, so each stencil term f(x + mult*h) is a clamped linear shift along
one axis after another (``GridFunction.axis_stencil``): interp's one rule,
nested per-axis linear steps, so the fields equal the point-by-point
interpolation bit for bit, on any node spacing. Every axis has the same
centers and node values, so the stencil rows of the inner axes are computed
once per node value and call (1-D has no inner axis and keeps no table).
The stencil term of f(x + 0*h) does not depend on h and is shifted and
scaled once per call. Pairs that leave the box are dropped by zeroing each
axis's out-of-domain rows of |Delta_h^M f|. Each node's field is reduced on
its own, because reducing the sum over nodes would move the round-off of
the prefix sums; the kept-pair counts are integers, a product of per-axis
counts, and are reduced once per reduction.
"""

import functools
import itertools
import math

import numpy as np

from .dyadic import (
    Box,
    DyadicCube,
    GridFunction,
    box_reduce,
    expanded_cube,
    level_block_reduce,
    level_cell_count,
    level_cube_count,
    point_layout,
    range_table,
    tensor_points,
    window_sums,
)
from .errors import OutOfDomain, ResolutionExceeded

H_NODE_CAP = 32


def difference_coefficients(order):
    """(coefficient, step-multiple) pairs of the order-M difference."""
    if order < 1 or order != int(order):
        raise ValueError("difference order must be a positive integer")
    order = int(order)
    return [((-1) ** j * math.comb(order, j), order - j) for j in range(order + 1)]


def delta_m(f: GridFunction, order: int, h, x):
    """Order-M difference of f at x with displacement h (off-grid interpolated)."""
    x = np.asarray(x, dtype=float)
    h = np.asarray(h, dtype=float)
    out = 0.0
    for coeff, mult in difference_coefficients(order):
        out = out + coeff * f.interp(x + mult * h)  # raises OutOfDomain off the box
    return out


def _h_axis(halfwidth, spacing):
    """Midpoint displacement nodes on (-a, a) for one axis, and their spacing."""
    per_axis = int(max(2, min(H_NODE_CAP, round(2.0 * halfwidth / spacing))))
    dh = 2.0 * halfwidth / per_axis
    return -halfwidth + (np.arange(per_axis) + 0.5) * dh, dh


def _h_nodes(halfwidth, spacing, dim):
    """Tensor-product nodes on (-a, a)^n, one row per node, and their weight."""
    axis, dh = _h_axis(halfwidth, spacing)
    return tensor_points([axis] * dim).reshape(-1, dim), dh**dim


def _axis_overlap_weights(f: GridFunction, lo, hi):
    """Cells overlapping [lo, hi) on one axis with exact overlap fractions."""
    n, dx, L = f.resolution, f.spacing, f.halfwidth
    i0 = max(int(math.floor((lo + L) / dx)), 0)
    i1 = min(int(math.ceil((hi + L) / dx)), n)
    if i1 <= i0:
        return np.arange(0), np.zeros(0)
    idx = np.arange(i0, i1)
    left = -L + idx * dx
    w = (np.minimum(hi, left + dx) - np.maximum(lo, left)) / dx
    keep = w > 1e-12
    return idx[keep], w[keep]


def _double_average(f, box: Box, h_halfwidth, order, normalization):
    """Shared kernel: sum_h sum_x w |Delta_h^M f(x)|, renormalized for drops."""
    if min(box.sides) < f.spacing:
        raise ResolutionExceeded("box is below the grid resolution")
    dom = box.intersect(f.domain)
    if dom is None:
        raise OutOfDomain("box does not meet the sampled domain")
    axes = [_axis_overlap_weights(f, lo, hi) for lo, hi in zip(dom.lo, dom.hi)]
    if any(len(idx) == 0 for idx, _ in axes):
        raise OutOfDomain("box holds no grid cells")
    centers = f.axis_centers()
    pts = tensor_points([centers[idx] for idx, _ in axes]).reshape(-1, f.dim)
    pts = point_layout(pts, f.dim, public=True)
    w_x = functools.reduce(np.multiply.outer, [w for _, w in axes]).ravel() * f.spacing**f.dim

    nodes, w_h = _h_nodes(h_halfwidth, f.spacing, f.dim)
    num = 0.0
    valid_w = 0.0
    for h in nodes:
        acc = 0.0
        mask = np.ones(len(w_x), dtype=bool)
        for coeff, mult in difference_coefficients(order):
            vals, ok = f.interp_masked(pts + mult * h)
            acc = acc + coeff * vals
            mask &= ok
        num += w_h * float(np.sum(np.abs(acc) * w_x * mask))
        valid_w += w_h * float(np.sum(w_x * mask))
    total_w = len(nodes) * w_h * float(np.sum(w_x))
    if valid_w <= 0.0:
        raise OutOfDomain("every (x, h) pair leaves the sampled box")
    return num * (total_w / valid_w) / normalization


def delta_avg_cube(f: GridFunction, q: Box, order: int) -> float:
    """Double average over a cube with h ranging over l(Q)*(-1,1)^n."""
    side = q.sides[0]
    if any(abs(s - side) > 1e-9 * side for s in q.sides):
        raise ValueError("delta_avg_cube expects a cube")
    return _double_average(f, q, side, order, side ** (2 * f.dim))


def delta_avg_window(f: GridFunction, x, k: int, order: int) -> float:
    """Double average over the window x + 2**-k*(-1,1)^n, prefactor 2**(2kn)."""
    a = 2.0 ** (-k)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    box = Box(tuple(xi - a for xi in x), tuple(xi + a for xi in x))
    return _double_average(f, box, a, order, 2.0 ** (-2 * k * f.dim))


def delta_avg_expanded(f: GridFunction, k: int, m, order: int) -> float:
    """Double average over the expanded cube, h over 2**-k*(-1,1)^n.

    The normalization uses the expanded side 5*2**-k even though h ranges over
    the smaller box; both constants are kept exactly as in the norm they feed.
    """
    m = (m,) if np.isscalar(m) else tuple(m)
    box = expanded_cube(DyadicCube(k, m))
    return _double_average(f, box, 2.0 ** (-k), order, (5.0 * 2.0 ** (-k)) ** (2 * f.dim))


# -- vectorized fields ---------------------------------------------------------


def _shift(v, i0, w):
    """interp's nested step along the leading axis: (1 - w) v[i0] + w v[i0 + 1] per row."""
    w = np.reshape(w, (-1,) + (1,) * (v.ndim - 1))
    out = v.take(i0, 0)
    out *= 1.0 - w
    hi = v.take(i0 + 1, 0)
    hi *= w
    out += hi
    return out


def _lead_next(v):
    """The array with its next axis leading, C-contiguous: gathers copy whole rows."""
    return np.ascontiguousarray(np.moveaxis(v, 0, -1))


def _node_sums(fs, k: int, order: int, reduces):
    """The h-node loop shared by every field, for h over 2**-k*(-1,1)^n.

    ``fs`` are functions on one grid (ValueError otherwise); each of
    ``reduces`` maps a sample array to one entry per window or cube. Returns,
    per function and reduction, (sums, lost, cells): sum_h w_h sum_x dx^n
    |Delta_h^M f(x)| per entry, renormalized for the (x, h) pairs that left
    the box; a mask of entries that lost pairs; and the reduction of ones,
    the cell count of each entry. Each (function, reduction) adds its node
    terms in node order, so its result is bit for bit the one it gives alone.

    Nodes run in row-major order and a node recomputes only the axes from
    the first whose component changed: the axis-0 shifts for h_0 serve every
    h_1. A node's stencil rows, which depend on the grid alone, serve every
    function, and every axis: the inner axes revisit each value and keep its
    rows in a table, filled on first use and read by axis 0 as well; axis 0
    sees each value once, so 1-D keeps no table. The stencil point mult = 0,
    shifted once per call, is not ``f.samples``: a shift by zero still
    interpolates when the float centers do not land on the grid. Pairs that
    leave the box are dropped by zeroing each axis's out-of-domain rows of
    |Delta_h^M f|; the kept pairs, the cells and the renormalization depend
    on the grid alone and are finished once per reduction.
    """
    f = fs[0]
    if any((g.dim, g.halfwidth, g.resolution) != (f.dim, f.halfwidth, f.resolution) for g in fs):
        raise ValueError("the functions of one node loop must share one grid")
    axis_nodes, dh = _h_axis(2.0 ** (-k), f.spacing)
    # the last stencil point is mult = 0; the node loop shifts and tests only
    # the others, since every unshifted center lies in the box
    coeffs, mults = zip(*difference_coefficients(order))
    dim = f.dim

    def stencil(x):
        """(i0, w) rows of the shifted stencil points for node value x, and
        the in-domain test they share."""
        i0, w, ok = f.axis_stencil(np.multiply(mults[:-1], x))
        return i0, w, np.logical_and.reduce(ok)

    table = [None] * len(axis_nodes)  # stencil rows per node value, kept by the inner axes
    # the mult = 0 term coeffs[-1] * f(x + 0*h), the same for every node
    i0, w, _ = f.axis_stencil([0.0])
    stills = []
    for g in fs:
        still = g.samples
        for a in range(dim):
            still = _shift(still if a == 0 else _lead_next(still), i0[0], w[0])
        still *= coeffs[-1]
        stills.append(still)
    # moved[i][a][j]: function i shifted by mults[j] * h along axes 0..a-1,
    # stored with axis a leading; rows[a]: the stencil rows of axis a, whose
    # in-domain test is the axis-a factor of the mask of every stencil point
    moved = [[[g.samples] * (len(mults) - 1)] + [None] * (dim - 1) for g in fs]
    rows = [None] * dim
    count = 0  # kept (x, h) pairs per center of one axis; the same on every axis
    nums = [[0.0] * len(reduces) for _ in fs]
    last = (None,) * dim
    for node in itertools.product(range(len(axis_nodes)), repeat=dim):
        first = next(a for a in range(dim) if node[a] != last[a])
        last = node
        for a in range(first, dim):
            rows[a] = table[node[a]] or stencil(axis_nodes[node[a]])
            if a == 0:
                count = count + rows[0][2]
            else:
                table[node[a]] = rows[a]
        for i, (own, still) in enumerate(zip(moved, stills)):
            for a in range(first, dim):
                i0, w, _ = rows[a]
                if a + 1 < dim:
                    own[a + 1] = None  # release the previous shifts first
                    own[a + 1] = [
                        _lead_next(_shift(v, i0[j], w[j])) for j, v in enumerate(own[a])
                    ]
                    continue
                # the first coefficient is 1, so the sum starts from its term
                # unscaled: exact but for the sign of a zero, which abs drops
                acc = _shift(own[a][0], i0[0], w[0])
                for j in range(1, len(own[a])):
                    v = _shift(own[a][j], i0[j], w[j])
                    v *= coeffs[j]
                    acc += v
                acc += still
            # back to the axis order, C-contiguous: cube sums depend on the layout
            g = np.abs(np.moveaxis(acc, 0, -1), order="C")
            for a, (_, _, keep) in enumerate(rows):
                g[(slice(None),) * a + (~keep,)] = 0.0
            # summed per node: a single reduce of the summed field moves the
            # round-off of prefix-table sums; the integer counts are exact in any order
            nums[i] = [num + reduce(g) for num, reduce in zip(nums[i], reduces)]
    out = []
    for reduce in reduces:
        cells = reduce(np.ones(f.samples.shape))
        valid = reduce(functools.reduce(np.multiply.outer, [count.astype(float)] * dim))
        total = len(axis_nodes) ** dim * cells
        with np.errstate(invalid="ignore", divide="ignore"):
            renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
        out.append((renorm, valid < total - 1e-9, cells))
    return [[(dh**dim * f.spacing**dim * num * renorm, lost, cells)
             for num, (renorm, lost, cells) in zip(own, out)] for own in nums]


def _reduction(f: GridFunction, k: int, kind):
    """(reduce, finish) of one field kind: ``reduce`` sums a sample array over
    each level-k window or cube, and ``finish`` maps that reduction's
    (sums, lost, cells) from ``_node_sums`` to (values, flagged)."""
    n, c = f.dim, level_cell_count(f, k)  # a level-k cube spans c cells per axis
    if kind == "window":  # the window x + 2**-k (-1, 1)^n spans 2c cells per axis
        return (lambda v: window_sums(v, c)), lambda sums, lost, cells: (
            2.0 ** (2 * k * n) * sums, lost | ~np.isclose(cells, (2 * c) ** n, rtol=1e-12))
    if kind == "cube":
        return (lambda v: level_block_reduce(v, f, k)), lambda sums, lost, _: (
            sums / (2.0 ** (-k)) ** (2 * n), lost)
    if kind != "expanded":
        raise ValueError(f"unknown field kind {kind!r}")
    # expanded cube of cube j (0-based) covers cells [(j-2)c, (j+3)c)
    j = np.arange(level_cube_count(f, k))
    ranges, grid = [((j - 2) * c, (j + 3) * c)], (len(j),) * n
    return (lambda v: box_reduce(range_table(v), ranges).reshape(grid)), lambda sums, lost, cells: (
        sums / (5.0 * 2.0 ** (-k)) ** (2 * n), lost | (cells < (5 * c) ** n))


def delta_fields(fs, k: int, order: int, kinds):
    """Per function of ``fs``, all on one grid, one (values, flagged) per kind
    ("window", "cube" or "expanded") from one h-node loop, each bit for bit
    what its own ``delta_*_field`` returns."""
    parts = [_reduction(fs[0], k, kind) for kind in kinds]
    sums = _node_sums(fs, k, order, [reduce for reduce, _ in parts])
    return [[finish(*s) for (_, finish), s in zip(parts, own)] for own in sums]


def delta_window_field(f: GridFunction, k: int, order: int):
    """delta^M(x + 2**-k I^n) f at every grid center.

    Returns (values, flagged) where flagged marks windows that were clipped at
    the domain edge or lost (x, h) pairs to the boundary.
    """
    return delta_fields([f], k, order, ("window",))[0][0]


def delta_cube_field(f: GridFunction, k: int, order: int):
    """delta^M(Q_{k,m}) f for every level-k cube tiling the domain.

    Returns (values, flagged), one entry per cube in cube order from the lower
    domain corner along each axis; flagged marks cubes that lost (x, h) pairs
    to the boundary.
    """
    return delta_fields([f], k, order, ("cube",))[0][0]


def delta_expanded_field(f: GridFunction, k: int, order: int):
    """delta^M(Q_{k, m~}) f for every level-k cube tiling the domain.

    Returns (values, flagged) in the cube order of ``delta_cube_field``;
    flagged marks cubes whose expansion leaves the box or that lost pairs.
    """
    return delta_fields([f], k, order, ("expanded",))[0][0]
