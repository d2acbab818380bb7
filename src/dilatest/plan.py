"""The levels and stages each command reads, decided from its grid and config.

The paper's bounds range over dyadic levels, so a verdict means something
only on a grid that resolves every level its command reads. Each rule that
says which levels a command reads is written here once, takes plain
geometry (L, N, K_max, depth), and raises ``LevelPlanError`` whose message
starts with ``<config key> = <value>``:

* ``finest_level``: the finest level whose cube side spans a given number of
  cells; a difference window needs ``WINDOW_CELLS`` a side, a weight level
  one, and ``check_k_max`` holds K_max to the cap a command reads,
* ``check_unit_window``: the difference norms tile [-L, L] with level-0
  cubes and unit windows, so they need L >= 0.5,
* ``coarsest_level`` and ``scan_levels``: a cube scan runs from the coarsest
  cube level of [-L, L]^n down to its depth, capped at the grid,
* ``ap_stages``: the resolutions of an A_p scan's refinement stages,
* ``class_levels``: the class check's cube levels and its depth trace,
* ``maximal_levels``: the weight levels ``maximal`` reads, one per smooth
  function of a family, each scanned for A_(p/theta) down to ``AP_DEPTH``.

The kernels call the rules they read. ``check_plan`` runs every rule of one
command, and the config parser calls it once, so a config it accepts meets
no level rule at run time.
"""

import math

from .errors import LevelPlanError

WINDOW_CELLS = 4  # a difference window spans at least this many cells a side
AP_DEPTH = 4  # finest cube level of the A_(p/theta) scans of maximal's weighted ratio
_STAGE_FLOOR = 32  # coarsest resolution of an A_p refinement stage
_STAGES = 3  # refinement stages of an A_p scan, the finest at the grid's resolution


def finest_level(halfwidth, resolution, min_cells=1) -> int:
    """Largest level k whose cube side 2**-k spans at least ``min_cells`` cells
    of the ``resolution``-cell grid over [-halfwidth, halfwidth]. A difference
    of logs, not the log of a ratio, so a tiny halfwidth cannot overflow it."""
    return math.floor(math.log2(resolution) - math.log2(2.0 * halfwidth * min_cells) + 1e-9)


def default_k_max(halfwidth, resolution) -> int:
    """The K_max of a config that sets none: the finest level whose difference
    windows span ``WINDOW_CELLS`` cells a side, within 1..6."""
    return max(1, min(6, finest_level(halfwidth, resolution, WINDOW_CELLS)))


def check_k_max(halfwidth, resolution, k_max, min_cells=1):
    """Levels 1..k_max each span at least ``min_cells`` cells a side."""
    cap = finest_level(halfwidth, resolution, min_cells)
    if k_max > cap:
        raise LevelPlanError(f"space.K_max = {k_max} exceeds the resolution cap {cap} "
                             f"for grid (L={halfwidth}, N={resolution})")


def check_unit_window(halfwidth, reader):
    """L >= 0.5, so that the level-0 cubes and the unit windows of the
    difference norms tile [-L, L]; ``reader`` names what reads them."""
    if halfwidth < 0.5:
        raise LevelPlanError(f"grid.L = {halfwidth!r}: {reader} needs L >= 0.5, "
                             "so that its level-0 cubes and unit windows tile [-L, L]")


def coarsest_level(halfwidth) -> int:
    """The coarsest cube level the scans read on a grid over [-L, L]^n."""
    return -int(math.floor(math.log2(halfwidth)))


def scan_levels(halfwidth, resolution, depth):
    """Cube levels scanned: coarsest cube with side <= L down to depth, and
    no finer than the grid's cells."""
    k_min, cap = coarsest_level(halfwidth), finest_level(halfwidth, resolution)
    if depth < k_min:
        raise LevelPlanError(f"depth = {depth} is below the coarsest cube level of grid "
                             f"L = {halfwidth}; depth must be at least {k_min}")
    if cap < k_min:
        raise LevelPlanError(f"grid.N = {resolution} is too coarse for any cube level")
    return range(k_min, min(depth, cap) + 1)


def ap_stages(n, factor=8):
    """The resolutions of an A_p scan's refinement stages on a grid of n cells
    per axis: up to ``_STAGES``, each ``factor`` times finer than the last and
    the finest n; stages below ``_STAGE_FLOOR`` cells are dropped."""
    stages = sorted(r for r in {n // factor**i for i in range(_STAGES)} if r >= _STAGE_FLOOR)
    if not stages:
        raise LevelPlanError(f"grid.N = {n}: an A_p stage needs {_STAGE_FLOOR} cells")
    return stages


def class_levels(halfwidth, resolution, k_max, depth):
    """The class check's cube levels, and the depths of its trace, the last
    one j_max = min(depth, K_max), the finest weight level it reads. It pairs
    levels k < j and scans cube levels from the coarsest to j_max, so depth
    and K_max are each at least 1 and at least the coarsest level."""
    k_min = coarsest_level(halfwidth)
    for key, value in (("depth", depth), ("space.K_max", k_max)):
        if value < max(1, k_min):
            raise LevelPlanError(f"{key} = {value}: the class check pairs levels up to min(depth, "
                                 f"K_max) and scans cube levels {k_min} (the coarsest of grid L = "
                                 f"{halfwidth}) to it, so {key} must be at least {max(1, k_min)}")
    j_max = min(depth, k_max)
    depths = sorted({max(1, j_max - 4), max(1, j_max - 2), j_max})
    return scan_levels(halfwidth, resolution, j_max), depths


def maximal_levels(halfwidth, k_max, family_size) -> int:
    """How many weight levels ``maximal`` reads: one per smooth function of a
    family, max(2, family_size // 2), each scanned down to cube ``AP_DEPTH``."""
    if coarsest_level(halfwidth) > AP_DEPTH:
        raise LevelPlanError(f"grid.L = {halfwidth!r}: the maximal command scans its weights' "
                             f"A_(p/theta) cubes down to level {AP_DEPTH}, so L >= 2**-{AP_DEPTH}")
    count = max(2, family_size // 2)
    if count > k_max + 1:
        raise LevelPlanError(f"family_size = {family_size}: the maximal command pairs {count} "
                             f"smooth functions with weight levels 0..{count - 1}, K_max = {k_max}")
    return count


def check_plan(command, halfwidth, resolution, k_max, depth, family_size):
    """Every level rule of one command's run; raises LevelPlanError naming
    the config key of the first it breaks."""
    windows = command in ("norm", "dilate", "equiv")  # the commands that build difference windows
    if windows:
        check_unit_window(halfwidth, f"the {command} command")
    # the other commands read the weight levels only, each as fine as the grid resolves
    check_k_max(halfwidth, resolution, k_max, WINDOW_CELLS if windows else 1)
    if command == "ap":
        for res in ap_stages(resolution):
            scan_levels(halfwidth, res, depth)
    elif command in ("xclass", "dilate"):  # dilate runs the class check at depth
        class_levels(halfwidth, resolution, k_max, depth)
    elif command == "maximal":
        maximal_levels(halfwidth, k_max, family_size)
