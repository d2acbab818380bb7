"""Built-in test functions and seeded random families.

Every fixture decays well inside the default box, so dilation clipping and
window clipping stay negligible. All fixtures carry closed-form evaluators,
which keep resampling to another resolution exact; dilation interpolates the
samples.

The fixtures take points in the public layout (``point_layout``) and read
them as per-axis coordinate arrays that broadcast together. ``fixture``,
``random_smooth`` and ``random_indicator_family`` sample on each axis's N
cell centers (``grid_axes``) instead of the grid's point cloud: a tensor
factor costs O(N) per axis and a sum of squares is one broadcast add, and
every sample has the bits of the evaluator at the same point, which each
``GridFunction`` keeps for resampling.
"""

import functools

import numpy as np

from .dyadic import GridFunction, grid_axes, point_layout

_SMOOTH_TERMS = 4  # Gaussians in one random_smooth mixture


class _Axes(tuple):
    """A grid's per-axis coordinate arrays (``grid_axes``), passed where a
    fixture takes points so that it samples without the point cloud."""


def _axes(pts, dim):
    """The per-axis coordinate arrays of ``pts``, points in the public layout
    or an ``_Axes``."""
    if isinstance(pts, _Axes):
        return pts
    pts = point_layout(pts, dim)
    return [pts[..., a] for a in range(dim)]


def _sampled(fn, dim, halfwidth, resolution) -> GridFunction:
    """``fn`` on the grid's cell centers, taken per axis, with ``fn`` as the evaluator."""
    return GridFunction(dim, halfwidth, fn(_Axes(grid_axes(dim, halfwidth, resolution))),
                        evaluator=fn)


def _radius2(xs, center=0.0):
    """|x - center|^2 of per-axis coordinates, the squares added axis by axis in axis order."""
    center = np.broadcast_to(center, (len(xs),))
    return functools.reduce(np.add, [np.square(x - c) for x, c in zip(xs, center)])


def _axis_apply(fn1d, xs):
    """The tensor product of fn1d over per-axis coordinates, multiplied in axis order."""
    return functools.reduce(np.multiply, [fn1d(x) for x in xs])


def _smooth_edge(t):
    """C-infinity transition: exactly 0 for t <= 0 and 1 for t >= 1, the two
    exponentials evaluated only inside the band 0 < t < 1."""
    out = np.where(t >= 1.0, 1.0, 0.0)
    band = (t > 0.0) & (t < 1.0)
    tb = t[band]
    a = np.exp(-1.0 / np.maximum(tb, 1e-300))
    out[band] = a / (a + np.exp(-1.0 / (1.0 - tb)))
    return out


def gaussian(pts, dim=1, width=1.0, center=0.0):
    # a fresh array (0-d at a single point): negated, scaled and raised in place
    out = np.asarray(_radius2(_axes(pts, dim), center))
    np.negative(out, out=out)
    out /= width**2
    return np.exp(out, out=out)


def bump(pts, dim=1, radius=3.0):
    """Compactly supported C-infinity tensor mollifier."""

    def one(x):
        u = x / radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    return _axis_apply(one, _axes(pts, dim))


def sine_packet(pts, dim=1, freq=4.0, width=2.0):
    xs = _axes(pts, dim)
    env = np.exp(-_radius2(xs) / width**2)
    return np.sin(freq * xs[0]) * env


def mollified_step(pts, dim=1, halfwidth=1.0, edge=0.5, center=0.0):
    """Smoothed indicator of [center-halfwidth, center+halfwidth] per axis."""

    def one(x):
        return _smooth_edge((halfwidth - np.abs(x - center)) / edge + 0.5)

    return _axis_apply(one, _axes(pts, dim))


def _zero(pts, dim):
    return np.zeros(np.broadcast_shapes(*(np.shape(x) for x in _axes(pts, dim))))


_FIXTURES = {
    "zero": _zero,
    "gaussian": lambda pts, dim: gaussian(pts, dim),
    "gaussian_wide": lambda pts, dim: 0.75 * gaussian(pts, dim, width=1.6, center=0.5),
    "bump": lambda pts, dim: bump(pts, dim),
    "sine_packet": lambda pts, dim: sine_packet(pts, dim),
    "mollified_step": lambda pts, dim: mollified_step(pts, dim),
}

# the five-function family used by norm-equivalence regressions
EQUIVALENCE_FAMILY = (
    "gaussian",
    "gaussian_wide",
    "bump",
    "sine_packet",
    "mollified_step",
)


def fixture_names():
    return sorted(_FIXTURES)


def fixture(name, dim=1, halfwidth=8.0, resolution=1024) -> GridFunction:
    try:
        fn = _FIXTURES[name]
    except KeyError:
        raise KeyError(f"unknown fixture {name!r}; known: {fixture_names()}") from None
    return _sampled(lambda pts: fn(pts, dim), dim, halfwidth, resolution)


def random_smooth(seed, dim=1, halfwidth=8.0, resolution=1024) -> GridFunction:
    """Seeded mixture of four Gaussians, decaying well inside the box."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.3, 1.0, size=_SMOOTH_TERMS)
    centers = rng.uniform(-halfwidth / 4, halfwidth / 4, size=(_SMOOTH_TERMS, dim))
    widths = rng.uniform(0.4, 1.5, size=_SMOOTH_TERMS)

    def fn(pts):
        out = 0.0
        for a, c, w in zip(amps, centers, widths):
            term = gaussian(pts, dim, width=w, center=c)
            term *= a
            out = np.add(out, term, out=term)  # out + a * g, written into g's array
        return out

    return _sampled(fn, dim, halfwidth, resolution)


def random_indicator_family(seed, count, dim=1, halfwidth=8.0, resolution=1024):
    """Seeded family of shifted mollified indicators (vector-valued tests).

    A lazy generator: each member is drawn and sampled only when it is asked
    for, so a caller that folds the members as they come holds one at a time.
    Wrap it in ``list`` to read the family more than once.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        c = rng.uniform(-halfwidth / 3, halfwidth / 3)
        hw = rng.uniform(0.4, 1.6)
        yield _sampled(lambda pts, c=c, hw=hw: mollified_step(pts, dim, halfwidth=hw, center=c),
                       dim, halfwidth, resolution)
