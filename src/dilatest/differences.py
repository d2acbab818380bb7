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
oracles. The fields share one engine, ``_node_sums``, which reduces
|Delta_h^M f| over every window or cube of a level, one h-node at a time;
each field sets only its reduction, normalization and extra flag. Nodes and
grid are tensor products, so each stencil term f(x + mult*h) is a clamped
linear shift along one axis after another (``GridFunction.axis_stencil``),
with interp's float steps: the fields equal the point-by-point interpolation
bit for bit, on any node spacing. The stencil point f(x + 0*h) does not
depend on h and is shifted once per call. Each node's field is reduced on
its own, because reducing the sum over nodes would move the round-off of the
prefix sums; the kept-pair counts are integers, a product of per-axis
counts, and are reduced once.
"""

import functools
import itertools
import math

import numpy as np

from .dyadic import (
    Box,
    DyadicCube,
    GridFunction,
    axis_reduce,
    expanded_cube,
    level_block_reduce,
    level_cell_count,
    level_cube_count,
    level_first_index,
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
        pts = x + mult * h
        if not np.all(f.in_domain(pts)):
            raise OutOfDomain("difference stencil leaves the sampled box")
        out = out + coeff * f.interp(pts)
    return out


def _h_axis(halfwidth, spacing):
    """Midpoint displacement nodes on (-a, a) for one axis, and their spacing."""
    per_axis = int(max(2, min(H_NODE_CAP, round(2.0 * halfwidth / spacing))))
    dh = 2.0 * halfwidth / per_axis
    return -halfwidth + (np.arange(per_axis) + 0.5) * dh, dh


def _h_nodes(halfwidth, spacing, dim):
    """Tensor-product nodes on (-a, a)^n, one row per node, and their weight."""
    axis, dh = _h_axis(halfwidth, spacing)
    grids = np.meshgrid(*[axis] * dim, indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, dim), dh**dim


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
    if f.dim == 1:
        idx, w_x = axes[0]
        pts = centers[idx]
    else:
        (ix, wx), (iy, wy) = axes
        pts = np.stack(
            [np.repeat(centers[ix], len(iy)), np.tile(centers[iy], len(ix))], axis=-1
        )
        w_x = np.outer(wx, wy).ravel()
    w_x = w_x * f.spacing**f.dim

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


def _shift_terms(parts, i0, w):
    """The two terms of each array's linear shift along its leading axis, one at a time.

    Yields every lower term (1 - w) v[i0], then every upper term w v[i0 + 1],
    with interp's product order. Leading-axis gathers copy whole rows.
    """
    w = np.reshape(w, (-1,) + (1,) * (parts[0].ndim - 1))
    for idx, weight in ((i0, 1.0 - w), (i0 + 1, w)):
        for v in parts:
            t = v.take(idx, 0)
            t *= weight
            yield t


def _shift_axis(parts, i0, w, last):
    """One stencil point's linear shift along the leading axis.

    Before the last axis, returns the terms rotated so that the next axis
    leads; on the last axis, their sum in interp's order.
    """
    terms = _shift_terms(parts, i0, w)
    if not last:
        return [np.ascontiguousarray(np.moveaxis(t, 0, -1)) for t in terms]
    v = next(terms)
    for t in terms:
        v += t
    return v


def _node_sums(f: GridFunction, k: int, order: int, reduce):
    """The h-node loop shared by every field, for h over 2**-k*(-1,1)^n.

    ``reduce`` maps a sample array to one entry per window or cube. Returns
    (sums, lost, cells): sum_h w_h sum_x dx^n |Delta_h^M f(x)| per entry,
    renormalized for the (x, h) pairs that left the box; a mask of entries
    that lost pairs; and ``reduce`` of ones, the cell count of each entry.

    Nodes and grid are tensor products and each stencil shift is the same
    for every point, so f(x + mult*h) is a clamped linear shift along each
    axis in turn. The lower and upper terms of every axis stay apart until
    the last axis adds them in interp's order, so the values match
    multilinear interpolation bit for bit. Nodes run in row-major order and
    a node recomputes only the axes from the first whose component changed:
    the axis-0 shifts for h_0 serve every h_1. The stencil point mult = 0,
    f(x + 0*h), is the same at every node, so it runs through the shift
    chain once per call; it is not ``f.samples``, because a shift by zero
    still interpolates when the float centers do not land on the grid.
    """
    axis_nodes, dh = _h_axis(2.0 ** (-k), f.spacing)
    # the last stencil point is mult = 0; the node loop shifts only the others
    coeffs, mults = zip(*difference_coefficients(order))
    dim = f.dim
    still = [f.samples]
    for a in range(dim):
        i0, w, _ = f.axis_stencil([0.0])
        still = _shift_axis(still, i0[0], w[0], a + 1 == dim)
    # moved[a][j]: the interpolation terms of f shifted by mults[j] * h along
    # axes 0..a-1, stored with axis a leading; inside[a]: the axis-a factor of
    # the in-domain mask shared by every stencil point
    moved = [[[f.samples]] * (len(mults) - 1)] + [None] * (dim - 1)
    inside = [None] * dim
    count = 0  # kept (x, h) pairs per center of one axis; the same on every axis
    num = 0.0
    last = (None,) * dim
    for node in itertools.product(range(len(axis_nodes)), repeat=dim):
        first = next(a for a in range(dim) if node[a] != last[a])
        last = node
        for a in range(first, dim):
            i0, w, ok = f.axis_stencil(np.multiply(mults, axis_nodes[node[a]]))
            inside[a] = np.logical_and.reduce(ok)
            if a == 0:
                count = count + inside[0]
            if a + 1 < dim:
                moved[a + 1] = None  # release the previous shifts first
                moved[a + 1] = [
                    _shift_axis(parts, i0[j], w[j], False) for j, parts in enumerate(moved[a])
                ]
                continue
            acc = 0.0
            for j, parts in enumerate(moved[a]):
                v = _shift_axis(parts, i0[j], w[j], True)
                v *= coeffs[j]
                acc = acc + v
            acc = acc + still * coeffs[-1]
        # back to the axis order, C-contiguous: cube sums depend on the layout
        g = np.abs(np.moveaxis(acc, 0, -1), order="C")
        g *= functools.reduce(np.logical_and.outer, inside)
        # summed per node: a single reduce of the summed field moves the
        # round-off of prefix-table sums; the integer counts are exact in any order
        num = num + reduce(g)
    cells = reduce(np.ones(f.samples.shape))
    valid = reduce(functools.reduce(np.multiply.outer, [count.astype(float)] * dim))
    total = len(axis_nodes) ** dim * cells
    with np.errstate(invalid="ignore", divide="ignore"):
        renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
    return dh**dim * f.spacing**dim * num * renorm, valid < total - 1e-9, cells


def delta_window_field(f: GridFunction, k: int, order: int):
    """delta^M(x + 2**-k I^n) f at every grid center.

    Returns (values, flagged) where flagged marks windows that were clipped at
    the domain edge or lost (x, h) pairs to the boundary.
    """
    a = 2.0 ** (-k)
    r = int(round(a / f.spacing))
    if r < 1 or abs(r * f.spacing - a) > 1e-9 * a:
        raise ResolutionExceeded(f"window level {k} below grid resolution")
    sums, lost, cells = _node_sums(f, k, order, lambda v: window_sums(v, r))
    clipped = ~np.isclose(cells, (2 * r) ** f.dim, rtol=1e-12)
    return 2.0 ** (2 * k * f.dim) * sums, lost | clipped


def delta_cube_field(f: GridFunction, k: int, order: int):
    """delta^M(Q_{k,m}) f for every level-k cube tiling the domain.

    Returns (values, flagged, first_index): values indexed by m - first_index
    along each axis.
    """
    sums, lost, _ = _node_sums(f, k, order, lambda v: level_block_reduce(v, f, k))
    return sums / (2.0 ** (-k)) ** (2 * f.dim), lost, level_first_index(f, k)


def delta_expanded_field(f: GridFunction, k: int, order: int):
    """delta^M(Q_{k, m~}) f for every level-k cube tiling the domain."""
    c = level_cell_count(f, k)
    # expanded cube of cube j (0-based) covers cells [(j-2)c, (j+3)c)
    j = np.arange(level_cube_count(f, k))
    lo, hi = (j - 2) * c, (j + 3) * c

    def expanded_sums(v):
        for ax in range(f.dim):
            v = axis_reduce(v, lo, hi, ax)
        return v

    sums, lost, cells = _node_sums(f, k, order, expanded_sums)
    values = sums / (5.0 * 2.0 ** (-k)) ** (2 * f.dim)
    return values, lost | (cells < (5 * c) ** f.dim), level_first_index(f, k)
