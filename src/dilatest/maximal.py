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
O(N^n) and the whole field O(N^n log N) on N^n cells.

The vector-valued ratios fold each field into its L_p(l_q) sum (an F-kind
``MixedNorm``) as soon as it is made: ``fs_inequality_ratio`` reads its
family once, so a lazy family is held one member at a time, and
``weighted_maximal_ratio``, whose family is a sequence it checks against the
weight levels, makes one maximal field per level. Beyond a family the caller
holds, their working set is O(N^n) whatever the family size: the two running
sums, one member and the arrays of one maximal field (|f|, the axis-0 table
of about 2 N^n, and per radius the running max, the partial means and one
other-axis table).
"""

import math

import numpy as np

from .dyadic import GridFunction, MixedNorm, prefix_table, table_windows, three_point_max
from .errors import InvalidExponent, MissingLevels, PreconditionFailed
from .plan import AP_DEPTH
from .verdicts import FAIL
from .weights import WeightSequence, ap_constant


def hl_maximal(f: GridFunction) -> GridFunction:
    """Maximal field: per point, the largest cube average of |f| around it."""
    n = f.resolution
    absf = np.abs(f.samples)  # the singleton cell is the j = 0 member of the family
    pad = n // 2 + 1  # the widest window, +-n/2 cells, reaches n/2 + 1 past an end
    table = prefix_table(absf, 0, pad)  # one axis-0 table for every radius
    idx = np.arange(n)
    reach = None  # T of the module docstring: the nested max over the wider radii
    for j in range(int(math.log2(n)), 0, -1):
        half = 2 ** (j - 1)
        # means over the centered cubes of +-half cells, clipped to the grid
        cells = np.minimum(idx + half + 1, n) - np.maximum(idx - half, 0)
        local = table_windows(table, 0, pad, half, half + 1)
        for ax in range(f.dim):
            if ax:  # the other axes table the partial means of this radius; each
                # rebinding drops the array before it once the next one exists
                local = prefix_table(local, ax, half + 1)
                local = table_windows(local, ax, half + 1, half, half + 1)
            local /= np.reshape(cells, (-1,) + (1,) * (f.dim - 1 - ax))
        if reach is not None:
            local = _dilate(reach, half, local)
        reach = local
    return f.with_samples(_dilate(reach, 1, absf))  # a grid has n >= 2, so j = 1 ran


def _dilate(values, step, out):
    """``three_point_max`` of ``values`` along every axis, joined into ``out``."""
    for ax in range(values.ndim - 1):
        values = three_point_max(values, step, ax)
    return three_point_max(values, step, values.ndim - 1, out)


def m_sigma(f: GridFunction, sigma) -> GridFunction:
    """Power variant (M(|f|^sigma))**(1/sigma)."""
    if sigma <= 0:
        raise InvalidExponent("sigma must be positive")
    mf = hl_maximal(f.with_samples(np.abs(f.samples) ** sigma)).samples
    mf **= 1.0 / sigma  # the field is fresh: raised in place
    return f.with_samples(mf)


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
    lhs, rhs = MixedNorm("F", p, q, cellw), MixedNorm("F", p, q, cellw)
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
    lhs, rhs = MixedNorm("F", p, q, cellw), MixedNorm("F", p, q, cellw)
    for k, f in enumerate(fs):  # level by level, one maximal field at a time
        w = t.level(k).samples
        lhs.add(w * hl_maximal(f).samples)
        rhs.add(w * f.samples)
    return _ratio(lhs, rhs)
