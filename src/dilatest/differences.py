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
serves every function on a grid and feeds each |Delta_h^M f| to every
reduction asked for (``delta_fields``; each ``delta_*_field`` is its
one-function, one-kind call); a kind sets only its reduction,
normalization and extra flag. Nodes and grid are tensor products, and each
stencil term f(x + mult*h) is interp's one rule, nested per-axis clamped
linear steps, so the fields equal the point-by-point interpolation bit for
bit.

The terms are read on the half-cell lattice: every center, h-node and
stencil point lies a whole number of half cells from the first center, as
on every grid the config parser accepts (L and N powers of two). Each step
then has weight 0, 1/2 or a clamped 1, so each term is a slice of one of
2^n arrays built once per function and call: the samples and their
neighbor averages 0.5 v[i] + 0.5 v[i + 1] along each subset of axes, with
the edge samples themselves at the ends (``_half_cell_arrays``), and a
node interpolates nothing. The rows of the slices are checked and computed
once per grid, level and order (``_slice_rows``); a grid off the lattice,
as with dx = 1/24, where the step weights move by ulps from center to
center and no slice reproduces them, raises ResolutionExceeded.

A node is evaluated and reduced on its active box only: the centers whose
stencil points all stay in the sampled box (its kept centers, so the pairs
that leave the box are dropped by leaving them out), cut down per axis to
those whose stencil reads a nonzero sample. |Delta_h^M f| is exactly 0
elsewhere, so dilations, which are 0 beyond L/lambda, and compactly
supported functions skip their zeros: the window sums are taken over the
box grown by the window radius, the whole grid's sums there bit for bit
(adding zeros to a prefix sum keeps its bits), and 0 beyond. The stencil
term of f(x + 0*h) does not depend on h and is formed once per function
and call. The window kind reduces each node's field on its own, because
reducing the sum over nodes would move the round-off of its prefix sums.
The cube and expanded kinds reduce once the field summed over the nodes,
into which each node adds its box: its terms are >= 0, so their sum is
accurate in any order. The cube kind takes its tile sums, and the expanded
kind, per axis, the sums of the tile sums of cubes j - 2..j + 2, clipped
at the domain and added as slices, so nothing cancels in the tails. The
kept-pair counts are integers, a product of per-axis counts, and are
reduced once per reduction.

The nodes go in mirror units. The displacement box is symmetric, and
|Delta_(-h)^M f(x)| = |Delta_h^M f(x - M h)|: -h reads at x the stencil
points h reads at x - M h. The stencil is summed in mirror pairs,
c_j f(x + (M - j) h) + c_(M - j) f(x + j h) for each j < M/2 and then the
middle term of an even M (``_stencil_sum``, which the scalar functionals
share), so -h's pair j at x + M h is h's pair j at x with its two products
swapped or, for odd M, negated, and its field has h's bits. Where M h is a
whole number of cells on every axis (the stencil row's mult-M term reads
the samples), -h's kept centers and active box are h's moved by M h cells,
and h and -h form one unit: h's field is evaluated once, on h's active
box, and added at that box and again at the box moved by M h, h first.
Where M h is half a cell, odd M at a level of one node per cell, x + M h
is no center, and each node is a unit of its own, in the same loop, as is
a node whose mirror is not active. Units go in the row-major order of
their first node.

The window kind takes the units two at a time as the two lanes of one
complex field: the real part holds the first unit's field and the
imaginary part the second's, on the union of their active boxes, with
exact zeros elsewhere (a lone last unit leaves the second lane 0). One
``window_sums`` call serves up to four nodes: its windows are grown past
the union box to cover those of each placement, the union itself and the
union moved by a mirrored unit's M h, and each grow stays within the
window radius, as for one box. The bits stay those of one node at a time:
a complex add or subtract is two float ones, lane by lane, and the
reductions halve the float view (``dyadic.window_sums``); the union box
only adds zeros to each lane, which keeps a prefix sum's bits as the
active boxes do, and a window sum's bits do not depend on how far the
windows are grown; and each node's sums join the running sums in unit
order, the real lane's node and mirror and then the imaginary lane's.
"""

import functools
import itertools
import math

import numpy as np

from .dyadic import (
    Box,
    DyadicCube,
    GridFunction,
    expanded_cube,
    level_block_reduce,
    level_cell_count,
    point_layout,
    support_box,
    tensor_points,
    window_sums,
)
from .errors import NonPositiveValue, OutOfDomain, ResolutionExceeded

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
    terms = difference_coefficients(order)
    # raises OutOfDomain off the box
    return _stencil_sum(order, lambda j: terms[j][0] * f.interp(x + terms[j][1] * h))


def _stencil_sum(order, scaled):
    """sum_j c_j f(x + (M - j) h) from its terms ``scaled(j)``, summed in
    mirror pairs: scaled(j) + scaled(M - j) for each j < M/2 in turn, then
    the middle term scaled(M/2) of an even M. The kernel and the scalar
    functionals share this one order. It gives Delta_(-h) f(x + M h) the
    bits of +-Delta_h f(x): the pair j of -h at x + M h is c_j f(x + j h) +
    c_(M - j) f(x + (M - j) h), the pair of h at x with its two products
    swapped (c_(M - j) = c_j) or negated (c_(M - j) = -c_j), and a float add
    commutes and negates exactly. ``scaled(j)`` for j <= M/2 is added to in
    place, so it must return an array (or scalar) of its own."""
    acc = None
    for j in range(order // 2 + 1):
        part = scaled(j)
        if j < order - j:
            part += scaled(order - j)
        if acc is None:
            acc = part
        else:
            acc += part
    return acc


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
    terms = difference_coefficients(order)
    num = 0.0
    valid_w = 0.0
    for h in nodes:
        mask = np.ones(len(w_x), dtype=bool)

        def scaled(j):
            vals, ok = f.interp_masked(pts + terms[j][1] * h)
            np.logical_and(mask, ok, out=mask)
            return terms[j][0] * vals

        acc = _stencil_sum(order, scaled)
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


def _half_cells(v, axis):
    """v at the n + 1 half-cell points of one axis, u = i - 1/2 for entry i
    (u in cells from the first center): 0.5 v[i - 1] + 0.5 v[i] between two
    centers, as interp's step of weight 1/2 forms it, and at both ends the
    edge sample itself, as its clamped step returns it there."""
    out = np.empty(v.shape[:axis] + (v.shape[axis] + 1,) + v.shape[axis + 1:])
    v, lead = np.moveaxis(v, axis, 0), np.moveaxis(out, axis, 0)  # views, axis leading
    np.multiply(v[:-1], 0.5, out=lead[1:-1])
    lead[1:-1] += v[1:] * 0.5
    lead[0], lead[-1] = v[0], v[-1]
    return out


def _half_cell_arrays(samples):
    """The 2^n half-cell arrays of the samples: entry S, read as a bit set of
    axes, is ``_half_cells`` taken along the axes of S in axis order, so it
    holds interp's nested steps at every point whose coordinates are whole
    cells on the other axes and half cells on those of S."""
    arrays = [samples]
    for axis in range(samples.ndim):
        arrays += [_half_cells(v, axis) for v in arrays]
    return arrays


def _kept(ok):
    """The centers of one axis whose stencil points all pass their in-domain
    tests ``ok`` (a row per point), as a slice: each test holds on an
    interval of centers, and so does their conjunction."""
    kept = np.flatnonzero(np.logical_and.reduce(ok))
    return slice(int(kept[0]), int(kept[-1]) + 1) if kept.size else slice(0, 0)


@functools.lru_cache(maxsize=64)
def _slice_rows(halfwidth, resolution, k: int, order: int):
    """The stencil rows of every level-k node value as half-cell offsets.
    Every axis of a grid has the same centers and node values, so one axis
    serves them all, and the rows depend on the grid, level and order alone:
    they are kept for the next call.

    A row is a slice when the unclamped coordinate u of its points
    (``GridFunction.axis_units``) has 2u integral and u - j the same at
    every kept center j: then interp's step at each point has weight 0, 1/2
    or a clamped 1, so it returns an entry of the samples (u - j whole) or
    of their ``_half_cells`` (u - j half), the same array for every center.
    The mult = 0 row must be the samples themselves. The rows of node value
    x: per shifted stencil point mult * x, which array (0: the samples,
    1: the half cells) and the offset of center j's entry in it; the slice
    of kept centers (``_kept``); and how far (below, above) the centers
    whose stencil reads a sample interval [s0, s1) reach beyond it, an
    entry e of the half cells reading samples e - 1 and e; and the row of
    the mirror value -x when M x is a whole number of cells, None when it
    is half a cell (odd M with one node per cell). On a grid whose
    L and N are powers of two every center, node and point lies on this
    half-cell lattice, so every level the commands reach is sliced; a
    spacing such as 1/24 moves u by ulps from center to center and raises
    ResolutionExceeded.
    """
    off = (f"level {k} of the grid L = {halfwidth}, N = {resolution} is off the half-cell "
           "lattice of the difference fields: L must be a power of two")
    axis = GridFunction(1, halfwidth, np.zeros(resolution))
    cells = np.arange(resolution, dtype=float)
    if not np.array_equal(axis.axis_units([0.0])[0][0], cells):
        raise ResolutionExceeded(off)
    mults = [mult for _, mult in difference_coefficients(order)][:-1]
    rows = []
    nodes = _h_axis(2.0 ** (-k), axis.spacing)[0]
    for i, x in enumerate(nodes):
        u, ok = axis.axis_units(np.multiply(mults, x))
        box = _kept(ok)
        lag = u[:, box.start] - box.start  # u - j at the first kept center, per point
        if not (np.array_equal(2.0 * lag, np.floor(2.0 * lag))
                and np.array_equal(u[:, box], lag[:, None] + cells[box])):
            raise ResolutionExceeded(off)
        start = np.ceil(lag)  # center j's entry: j + lag, and 1/2 more in the half cells
        terms = tuple((int(s != d), int(s)) for s, d in zip(start, lag))
        # center j reads entry j + shift of the term's array, the mult = 0 term's entry j
        reach = (max(0, *(shift for _, shift in terms)),
                 max(0, *(half - shift for half, shift in terms)))
        # M x is a whole number of cells exactly when the mult = M term reads
        # the samples; then -x, the mirror value, is the mirror row
        rows.append((terms, box, reach, len(nodes) - 1 - i if terms[0][0] == 0 else None))
    return tuple(rows)


def _box_field(arrays, still, terms, box, coeffs, out=None):
    """One node's |Delta_h^M f| on ``box`` (a slice per axis, inside its
    kept centers) from the ``_half_cell_arrays`` of f, in axis order, and
    per axis its stencil terms there, (0 for the samples or 1 for the half
    cells, slice) per stencil point: coeff * term for each stencil point
    and ``still`` for the last, summed in mirror pairs (``_stencil_sum``),
    which fixes the field's bits and gives the mirror node -h, on this box
    moved by M h cells, the same bits. The sum is an array of the box's
    own, since numpy's loops over a strided output run several times
    slower; its absolute value goes to ``out`` if given (a lane of the
    sweep's complex field, one strided pass) and is returned."""
    order = len(coeffs) - 1

    def scaled(j):
        if j == order:
            return still[box]
        term = arrays[sum(axis[j][0] << a for a, axis in enumerate(terms))]
        return term[tuple(axis[j][1] for axis in terms)] * coeffs[j]

    acc = _stencil_sum(order, scaled)
    return np.abs(acc, out=acc if out is None else out)


def _moved(box, by):
    """``box`` moved by ``by`` cells per axis."""
    return tuple(slice(s.start + d, s.stop + d) for s, d in zip(box, by))


def _node_sums(fs, k: int, order: int, reduces):
    """The h-node loop shared by every field, for h over 2**-k*(-1,1)^n.

    ``fs`` are functions on one grid (ValueError otherwise); ``reduces`` are
    (reduce, once) pairs. ``reduce(v, boxes)`` takes the values v of a box
    of the grid, in axis order and of any memory layout, and the boxes of
    the grid it is placed at (a slice per axis each, the grid being 0
    outside the box), and returns per placement the entries (a slice per
    axis) of its windows or cubes that can be nonzero and their sums, the
    same bits for every layout and, on those entries, the reduction of the
    whole grid bit for bit; a placement may run past the grid where v, in
    the lane read at it, is 0. The window sums (once false) are taken of
    each node's field and summed over the nodes, since reducing the summed
    field would move the round-off of their prefix sums; the cube and
    expanded sums (once true) are taken once of the field summed over the
    nodes, the whole grid, since its terms are >= 0 and a sum of them is
    accurate in any order. Returns, per function and reduction, (sums,
    lost, cells): sum_h w_h sum_x dx^n |Delta_h^M f(x)| per entry,
    renormalized for the (x, h) pairs that left the box; a mask of entries
    that lost pairs; and the reduction of ones, the cell count of each
    entry. Each function adds its node terms in the same order, so its
    result is bit for bit the one it gives alone.

    The nodes go in mirror units (module docstring), in the row-major
    order of their first node: h and -h, h first, when M h is a whole
    number of cells on every axis (``_slice_rows``) and -h is active, else
    h alone. A unit evaluates h's field once, on h's active box, and adds
    it there and again at the box moved by M h, -h's active box, where -h's
    field has the same bits (``_stencil_sum``).

    A per-node reduction reads two units at once: ``v`` is complex, the
    fields of two consecutive units in its real and imaginary lanes on the
    union of their boxes, 0 elsewhere in each lane, placed at that union
    and, for each mirrored unit, at the union moved by its M h; each lane
    of a placement's result is the reduction of that node's field alone,
    bit for bit (the reductions work lane by lane, and zeros keep a prefix
    sum's bits). One call serves up to four nodes, and the sums join the
    running sums in unit order: the real lane at the union, then at its
    mirror's placement, then the imaginary lane likewise; a lone last unit
    runs with an empty imaginary lane.

    The functions run one at a time through every unit, so the loop holds
    one function's half-cell arrays. A node's stencil rows depend on the
    grid alone and serve every function and every axis (``_slice_rows``,
    which raises ResolutionExceeded off the half-cell lattice). A node is
    evaluated and reduced on its active box only: its kept centers, whose
    stencil points all stay in the box, cut down per axis to the centers
    whose stencil reads a sample in the function's support interval there
    (``dyadic.support_box``): an interval per (axis, node value), found
    once per function with the slices its terms read there, so a node only
    picks them up. |Delta_h^M f| is exactly 0 at the other centers, pairs
    that leave the box are dropped by leaving their centers out, and a node
    with an empty active box adds nothing and is skipped, as is its mirror,
    whose box is as empty. The kept pairs, the cells and the
    renormalization depend on the grid alone and are finished once per
    reduction.
    """
    f = fs[0]
    if any((g.dim, g.halfwidth, g.resolution) != (f.dim, f.halfwidth, f.resolution) for g in fs):
        raise ValueError("the functions of one node loop must share one grid")
    _, dh = _h_axis(2.0 ** (-k), f.spacing)
    coeffs = [coeff for coeff, _ in difference_coefficients(order)]
    dim = f.dim
    whole = (slice(0, f.resolution),) * dim
    table = _slice_rows(f.halfwidth, f.resolution, k, order)  # stencil rows per node value
    count = np.zeros(f.resolution)  # kept (x, h) pairs per center of one axis, as on every axis
    for _, kept, _, _ in table:
        count[kept] += 1
    out = []
    for reduce, _ in reduces:
        cells = reduce(np.ones(f.samples.shape), [whole])[0][1]
        valid = reduce(functools.reduce(np.multiply.outer, [count] * dim), [whole])[0][1]
        total = len(table) ** dim * cells
        with np.errstate(invalid="ignore", divide="ignore"):
            renorm = np.where(valid > 0, total / np.maximum(valid, 1e-300), 0.0)
        out.append((renorm, valid < total - 1e-9, cells))

    def sweep(g):
        """Per reduction, the node sums of g."""
        # the mult = 0 term coeffs[-1] * g(x + 0*h), the same for every node
        arrays, still = _half_cell_arrays(g.samples), g.samples * coeffs[-1]
        # per axis, each node value's active slice and its terms' slices
        # there, for the node values whose active slice is not empty, by row
        active = []
        for s0, s1 in support_box(g.samples):
            active.append({})
            for row, (terms, kept, (below, above), _) in enumerate(table):
                lo, hi = max(kept.start, s0 - below), min(kept.stop, s1 + above)
                if lo < hi:
                    active[-1][row] = (slice(lo, hi), [(half, slice(lo + shift, hi + shift))
                                                       for half, shift in terms])

        def units():
            """Per unit in order, h's active box, its terms there per axis,
            and M h in cells per axis if the mirror -h joins it, else None."""
            for node in itertools.product(*active):  # rows in row-major order
                mirror = tuple(table[row][3] for row in node)
                by = None
                if all(row in axis for row, axis in zip(mirror, active)):
                    if mirror < node:
                        continue  # in the unit of -h, which came first
                    by = tuple(table[row][0][0][1] for row in node)  # the mult = M term's shift
                picks = [axis[row] for axis, row in zip(active, node)]
                yield tuple(box for box, _ in picks), [terms for _, terms in picks], by

        # the running sum of each per-node reduction, and the field summed
        # over the nodes, which the tile sums reduce once; the terms are
        # >= 0, so sums started from 0.0 have the bits of sums started from
        # their first term
        own = [np.zeros(cells.shape) for _, _, cells in out]
        field = np.zeros(g.samples.shape) if any(once for _, once in reduces) else None
        paired = not all(once for _, once in reduces)

        def add(pair):
            """Add the nodes of one or two consecutive units to the sums;
            with the window sums, as the lanes of one complex field on the
            union of their boxes, 0 elsewhere, which each such reduction
            reads once, and whose lanes add in unit order. The pair's
            arrays go when it returns, before the next pair's."""
            dests = [None] * len(pair)  # the tile sums alone: arrays of the fields' own
            if paired:
                union = tuple(slice(min(s.start for s in axis), max(s.stop for s in axis))
                              for axis in zip(*(box for box, _, _ in pair)))
                lanes = np.zeros(tuple(u.stop - u.start for u in union), dtype=complex)
                dests = [lane[tuple(slice(s.start - u.start, s.stop - u.start)
                                    for s, u in zip(box, union))]
                         for lane, (box, _, _) in zip((lanes.real, lanes.imag), pair)]
            for (box, terms, by), dest in zip(pair, dests):
                view = _box_field(arrays, still, terms, box, coeffs, dest)
                if field is not None:
                    field[box] += view
                    if by is not None:
                        field[_moved(box, by)] += view
            if not paired:
                return
            placements = [union] + [_moved(union, by) for _, _, by in pair if by is not None]
            for (reduce, once), num in zip(reduces, own):
                if once:
                    continue
                sums = iter(reduce(lanes, placements))
                at, s = next(sums)
                for (_, _, by), lane in zip(pair, ("real", "imag")):
                    num[at] += getattr(s, lane)
                    if by is not None:
                        at_mirror, s_mirror = next(sums)
                        num[at_mirror] += getattr(s_mirror, lane)

        pending = units()
        for pair in iter(lambda: list(itertools.islice(pending, 2)), []):  # the last alone if odd
            add(pair)
        return [reduce(field, [whole])[0][1] if once else num
                for num, (reduce, once) in zip(own, reduces)]

    return [[(dh**dim * f.spacing**dim * num * renorm, lost, cells)
             for num, (renorm, lost, cells) in zip(sweep(g), out)] for g in fs]


def _reduction(f: GridFunction, k: int, kind):
    """(reduce, once, finish) of one field kind: ``reduce(v, boxes)`` sums
    the values v of a box of the grid, placed at each of ``boxes`` and 0
    elsewhere, over each level-k window or cube as ``_node_sums`` asks,
    ``once`` tells it the reduction sums tiles and reads the whole grid
    only, and ``finish`` maps that reduction's (sums, lost, cells) from
    ``_node_sums`` to (values, flagged)."""
    n, size = f.dim, f.resolution
    c = level_cell_count(f, k)  # a level-k cube spans c cells per axis
    if kind == "window":  # the window x + 2**-k (-1, 1)^n spans 2c cells per axis
        def windows(v, boxes):
            # per placement and axis, the range of v's own entries, -c..len + c,
            # whose windows it takes: the centers of the grid within c cells
            spans = [[(max(-c, -s.start), min(s.stop - s.start + c, size - s.start))
                      for s in box] for box in boxes]
            # one call grown to the widest of them, each grow at most c
            grow = [(max(0, *(-lo for lo, _ in axis)), max(0, *(hi - m for _, hi in axis)))
                    for axis, m in zip(zip(*spans), v.shape)]
            sums, out = window_sums(v, c, grow), []
            for box, span in zip(boxes, spans):
                local = tuple(slice(lo, hi) for lo, hi in span)
                out.append((_moved(local, [s.start for s in box]),
                            sums[_moved(local, [lo for lo, _ in grow])]))
            return out
        return windows, False, lambda sums, lost, cells: (
            2.0 ** (2 * k * n) * sums, lost | ~np.isclose(cells, (2 * c) ** n, rtol=1e-12))
    if kind not in ("cube", "expanded"):
        raise ValueError(f"unknown field kind {kind!r}")
    reach = 2 if kind == "expanded" else 0  # the expanded cube of cube j: cubes j - 2..j + 2

    def cubes(v, boxes):  # v is the whole grid, the one placement
        # per axis, the tile sums of cubes j - reach..j + reach, clipped at the
        # domain, added as slices in index order so nothing cancels
        tiles = level_block_reduce(v, f, k)
        for ax in range(n if reach else 0):
            t, tiles = np.moveaxis(tiles, ax, 0), np.zeros_like(tiles)
            out, m = np.moveaxis(tiles, ax, 0), len(t)
            for d in range(-reach, reach + 1):
                out[max(0, -d):m - max(0, d)] += t[max(0, d):m + min(0, d)]
        return [((slice(None),) * n, tiles)]
    span = 2 * reach + 1  # cubes per axis
    return cubes, True, lambda sums, lost, cells: (
        sums / (span * 2.0 ** (-k)) ** (2 * n), lost | (cells < (span * c) ** n))


def delta_fields(fs, k: int, order: int, kinds):
    """Per function of ``fs``, all on one grid, one (values, flagged) per kind
    ("window", "cube" or "expanded") from one h-node loop, each bit for bit
    what its own ``delta_*_field`` returns. Samples whose differences leave
    the float range (|Delta_h^M f| overflows) raise NonPositiveValue naming
    the level and kind of the first field that is not finite."""
    parts = [_reduction(fs[0], k, kind) for kind in kinds]
    with np.errstate(over="ignore", invalid="ignore"):  # a field that overflows raises below
        sums = _node_sums(fs, k, order, [(reduce, once) for reduce, once, _ in parts])
        fields = [[finish(*s) for (_, _, finish), s in zip(parts, own)] for own in sums]
    for own in fields:
        for kind, (values, _) in zip(kinds, own):
            if not np.all(np.isfinite(values)):
                raise NonPositiveValue(f"the level-{k} {kind} field of order {order} is not finite")
    return fields


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
