"""Hardy-Littlewood maximal operator and vector-valued maximal inequalities.

The scan family is every axis-aligned cube centered on a grid point whose
side is a power-of-two multiple of the grid spacing and which contains the
evaluation point; cubes are clipped at the domain edge and averaged over the
intersection. This family tracks the full maximal function to within a fixed
dimensional factor, which the frozen regression bounds absorb. Box averages
come from padded per-axis prefix tables (``prefix_table``), whose clipped
windows are two slices (``table_windows``): one axis-0 table per call, padded
for the widest radius and read by every radius, and one table per radius
along each other axis. The per-point maxima nest three-point maxima
(``three_point_max``) from the widest radius down: with A_j the means at
radius h_j = 2^(j-1), the field is |f| v D_1(A_1 v D_1(A_2 v D_2(A_3 v ...
D_(h_(J-1))(A_J)))), each D applied along every axis, so every level costs
O(N^n) and the whole field O(N^n log N) on N^n cells. Along the last axis of
a field above 1-D, whose slices are short rows, a shift of up to a quarter
of the axis is one maximum over the flat arrays with each row's edge
entries put back (``three_point_max``), the slices' bits at a fraction of
their per-row cost. The fields of the ``maximal`` command are sampled per
axis (``fixtures``), without the grid's point cloud.

The means are taken on active boxes. |f| is exactly 0 outside its support
box (``support_box``), so A_j is exactly 0 outside the support grown by h_j
per axis and clipped to the grid: the active box of radius h_j. The axis-0
table holds the support's rows and columns only, and each radius takes its
windows, its other-axis tables and its divisions by the cell counts on its
active box (the windows grown beyond the support, ``table_windows``' grow),
then sets the box into a grid of zeros unless it is the whole grid; the
nested maxima stay on the whole grid. Every mean keeps the bits of the
full-grid means: a prefix sum over zeros is 0, adding zeros keeps a total's
bits, and a full-grid mean outside the box is 0.0 - 0.0 or T - T for a
finite total T, exactly 0. That holds while the sums are finite. The sums
are >= 0 and grow along each table's axis, so the last slice of every table
decides it; a table whose sums leave the float range raises
NonPositiveValue naming the radius (the full-grid means would read inf, and
nan where T - T is inf - inf, outside the support). A compactly supported
f thus pays for its support grown by each radius in the means, and every f
for the nested maxima on the whole grid.

The vector-valued ratios fold each field into its L_p(l_q) sum (an F-kind
``MixedNorm``) as soon as it is made: ``fs_inequality_ratio`` reads its
family once, so a lazy family is held one member at a time, and
``weighted_maximal_ratio``, whose family is a sequence it checks against the
weight levels, makes one maximal field per level. Beyond a family the caller
holds, their working set is O(N^n) whatever the family size: the two running
sums, one member and the arrays of one maximal field (|f|, the axis-0 table,
about 2 N^n on a full support, less on a small one and below 3 N^n on any,
and per radius the running max, and on its active box the partial means and
one other-axis table, with the grid of zeros they are set into).
"""

import math

import numpy as np

from .dyadic import (GridFunction, MixedNorm, prefix_table, support_box, table_windows,
                     three_point_max)
from .errors import InvalidExponent, MissingLevels, NonPositiveValue, PreconditionFailed
from .plan import AP_DEPTH
from .verdicts import FAIL
from .weights import WeightSequence, ap_constant


def hl_maximal(f: GridFunction) -> GridFunction:
    """Maximal field: per point, the largest cube average of |f| around it.

    The means are taken on each radius's active box only, bit for bit the
    full-grid means (module docstring) whenever their sums are finite; sums
    that leave the float range raise NonPositiveValue naming the radius.
    """
    n, dim = f.resolution, f.dim
    absf = np.abs(f.samples)  # the singleton cell is the j = 0 member of the family
    support = support_box(absf)  # |f| is exactly 0 outside it
    halves = 2 ** np.arange(int(math.log2(n)))[:, None]  # h_j = 2^(j-1) in row j - 1
    # the cells of the centered cubes of +-h_j cells, clipped to the grid, every radius at once
    idx = np.arange(n)
    cells = np.minimum(idx + halves + 1, n) - np.maximum(idx - halves, 0)
    (s0, s1), widest = support[0], n // 2
    pad = widest + min(widest, max(s0, n - s1))  # the widest windows, grown by up to n/2
    with np.errstate(over="ignore"):  # sums that overflow raise in _finite
        # one axis-0 table, of the support's rows and columns, for every radius
        table = _finite(prefix_table(absf[tuple(slice(*s) for s in support)], 0, pad), 0, widest)
        reach = None  # T of the module docstring: the nested max over the wider radii
        for j in range(len(halves), 0, -1):
            half = 2 ** (j - 1)
            local, p, box = table, pad, []
            for ax, (s0, s1) in enumerate(support):
                # the active box: the support grown by the radius, clipped to the grid
                grow = (min(half, s0), min(half, n - s1))
                box.append(slice(s0 - grow[0], s1 + grow[1]))
                if ax:  # the other axes table the partial means of this radius; each
                    # rebinding drops the array before it once the next one exists
                    p = half + max(grow)
                    local = _finite(prefix_table(local, ax, p), ax, half)
                local = table_windows(local, ax, p, half, half + 1, grow)
                local /= cells[j - 1, box[-1]].reshape((-1,) + (1,) * (dim - 1 - ax))
            if local.shape != absf.shape:  # exact zeros beyond the box
                local, inner = np.zeros(absf.shape), local
                local[tuple(box)] = inner
            if reach is not None:
                local = _dilate(reach, half, local)
            reach = local
    return f.with_samples(_dilate(reach, 1, absf))  # a grid has n >= 2, so j = 1 ran


def _finite(table, axis, half):
    """``table``, a ``prefix_table`` of values >= 0, once its sums are finite:
    they grow along ``axis``, so its last slice there holds the largest."""
    if not np.isfinite(table.take(-1, axis)).all():
        raise NonPositiveValue(f"the maximal field's box sums at radius {half} cells "
                               "leave the float range")
    return table


def _dilate(values, step, out):
    """``three_point_max`` of ``values`` along every axis, joined into ``out``."""
    for ax in range(values.ndim - 1):
        values = three_point_max(values, step, ax)
    return three_point_max(values, step, values.ndim - 1, out)


def m_sigma(f: GridFunction, sigma) -> GridFunction:
    """Power variant (M(|f|^sigma))**(1/sigma). A power that leaves the
    float range raises NonPositiveValue naming sigma."""
    if sigma <= 0:
        raise InvalidExponent("sigma must be positive")
    with np.errstate(over="ignore"):  # a power that overflows raises in _powered
        powered = _powered(np.abs(f.samples) ** sigma, f"|f| ** {sigma}")
    mf = hl_maximal(f.with_samples(powered)).samples
    with np.errstate(over="ignore"):
        mf **= 1.0 / sigma  # the field is fresh: raised in place
    return f.with_samples(_powered(mf, f"M(|f| ** {sigma}) ** (1 / {sigma})"))


def _powered(values, what):
    """``values``, a power named ``what``, once it is finite."""
    if not np.isfinite(values).all():
        raise NonPositiveValue(f"{what} leaves the float range")
    return values


def _ratio(lhs: MixedNorm, rhs: MixedNorm) -> float:
    """lhs over rhs, and 0 when rhs is 0."""
    num, den = lhs.value()[0], rhs.value()[0]
    return 0.0 if den == 0.0 else num / den


def fs_inequality_ratio(fs, p, q, sigma) -> float:
    """Vector-valued maximal ratio: L_p(l_q) of M_sigma(f_k) over that of f_k.

    ``fs`` is any iterable, read once; each member and its maximal field are
    folded into the two sums as they come, so a lazy family is held one
    member at a time.
    """
    fs = iter(fs)
    f = next(fs, None)
    if f is None:
        raise ValueError("need at least one function")
    if not 0.0 < sigma < min(1.0, p, q):
        raise InvalidExponent("need 0 < sigma < min(1, p, q)")
    cellw = f.spacing ** f.dim
    lhs, rhs = (MixedNorm("F", p, q, cellw, name="the Fefferman-Stein ratio") for _ in range(2))
    while f is not None:
        lhs.add(m_sigma(f, sigma).samples)
        rhs.add(f.samples)
        f = next(fs, None)
    return _ratio(lhs, rhs)


def weighted_maximal_ratio(fs, t: WeightSequence, p, q, theta) -> float:
    """Weighted vector-valued maximal ratio under a Muckenhoupt precondition.

    The levelwise weights must pass the finiteness scan at exponent p/theta
    down to cube level ``plan.AP_DEPTH`` (their estimated constants bounded
    across levels); a FAIL verdict raises PreconditionFailed.
    """
    if not 1.0 < theta <= p < math.inf:
        raise InvalidExponent("need 1 < theta <= p < inf")
    if not 1.0 < q < math.inf:
        raise InvalidExponent("need 1 < q < inf")
    if len(fs) > t.k_max + 1:
        raise MissingLevels("weight sequence shorter than the function family")
    for k in range(len(fs)):
        rep = ap_constant(t.level(k), p / theta, AP_DEPTH)
        if rep.verdict == FAIL:
            raise PreconditionFailed(
                f"level-{k} weight failed the A_(p/theta) scan: trace {rep.trace}"
            )
    cellw = fs[0].spacing ** fs[0].dim
    lhs, rhs = (MixedNorm("F", p, q, cellw, name="the weighted maximal ratio") for _ in range(2))
    for k, f in enumerate(fs):  # level by level, one maximal field at a time
        w = t.level(k).samples
        lhs.add(w * hl_maximal(f).samples)
        rhs.add(w * f.samples)
    return _ratio(lhs, rhs)
