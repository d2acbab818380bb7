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
"""

import math

import numpy as np

from .dyadic import GridFunction, lp_of_lq, prefix_table, table_windows, three_point_max
from .errors import InvalidExponent, MissingLevels, PreconditionFailed
from .weights import FAIL, WeightSequence, ap_constant

_AP_DEPTH = 4  # finest cube level of the A_(p/theta) scans of the weighted ratio


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
            if ax:  # the other axes table the partial means of this radius
                local = table_windows(prefix_table(local, ax, half + 1), ax, half + 1,
                                      half, half + 1)
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
    mf = hl_maximal(f.with_samples(np.abs(f.samples) ** sigma))
    return f.with_samples(mf.samples ** (1.0 / sigma))


def fs_inequality_ratio(fs, p, q, sigma) -> float:
    """Vector-valued maximal ratio: L_p(l_q) of M_sigma(f_k) over that of f_k."""
    if not fs:
        raise ValueError("need at least one function")
    if not 0.0 < sigma < min(1.0, p, q):
        raise InvalidExponent("need 0 < sigma < min(1, p, q)")
    cellw = fs[0].spacing ** fs[0].dim
    lhs = lp_of_lq([m_sigma(f, sigma).samples for f in fs], p, q, cellw)
    rhs = lp_of_lq([f.samples for f in fs], p, q, cellw)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs


def weighted_maximal_ratio(fs, t: WeightSequence, p, q, theta) -> float:
    """Weighted vector-valued maximal ratio under a Muckenhoupt precondition.

    The levelwise weights must pass the finiteness scan at exponent p/theta
    down to cube level 4 (their estimated constants bounded across levels);
    a FAIL verdict raises PreconditionFailed.
    """
    if not 1.0 < theta <= p < math.inf:
        raise InvalidExponent("need 1 < theta <= p < inf")
    if not 1.0 < q < math.inf:
        raise InvalidExponent("need 1 < q < inf")
    if len(fs) > t.k_max + 1:
        raise MissingLevels("weight sequence shorter than the function family")
    for k in range(len(fs)):
        rep = ap_constant(t.level(k), p / theta, _AP_DEPTH)
        if rep.verdict == FAIL:
            raise PreconditionFailed(
                f"level-{k} weight failed the A_(p/theta) scan: trace {rep.trace}"
            )
    cellw = fs[0].spacing ** fs[0].dim
    lhs = lp_of_lq(
        [t.level(k).samples * hl_maximal(f).samples for k, f in enumerate(fs)], p, q, cellw
    )
    rhs = lp_of_lq([t.level(k).samples * f.samples for k, f in enumerate(fs)], p, q, cellw)
    if rhs == 0.0:
        return 0.0
    return lhs / rhs
