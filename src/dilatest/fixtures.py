"""Built-in test functions and seeded random families.

Every fixture decays well inside the default box, so dilation clipping and
window clipping stay negligible. All fixtures carry closed-form evaluators,
which keep resampling to another resolution exact; dilation interpolates the
samples.
"""

import functools

import numpy as np

from .dyadic import GridFunction, point_layout

_SMOOTH_TERMS = 4  # Gaussians in one random_smooth mixture

# fixtures take points in the public layout (``point_layout``), the helpers (..., dim)


def _radius2(pts, center=0.0):
    """|pts - center|^2, the squares added axis by axis in axis order."""
    center = np.broadcast_to(center, pts.shape[-1:])
    return functools.reduce(np.add, [np.square(pts[..., a] - c) for a, c in enumerate(center)])


def _axis_apply(fn1d, pts):
    """The tensor product of fn1d over the axes, multiplied in axis order."""
    return functools.reduce(np.multiply, [fn1d(pts[..., a]) for a in range(pts.shape[-1])])


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
    return np.exp(-_radius2(point_layout(pts, dim), center) / width**2)


def bump(pts, dim=1, radius=3.0):
    """Compactly supported C-infinity tensor mollifier."""

    def one(x):
        u = x / radius
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        ui = u[inside]
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - ui * ui))
        return out

    return _axis_apply(one, point_layout(pts, dim))


def sine_packet(pts, dim=1, freq=4.0, width=2.0):
    pts = point_layout(pts, dim)
    env = np.exp(-_radius2(pts) / width**2)
    return np.sin(freq * pts[..., 0]) * env


def mollified_step(pts, dim=1, halfwidth=1.0, edge=0.5, center=0.0):
    """Smoothed indicator of [center-halfwidth, center+halfwidth] per axis."""

    def one(x):
        return _smooth_edge((halfwidth - np.abs(x - center)) / edge + 0.5)

    return _axis_apply(one, point_layout(pts, dim))


_FIXTURES = {
    "zero": lambda pts, dim: np.zeros(point_layout(pts, dim).shape[:-1]),
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
    return GridFunction.from_callable(
        lambda pts: fn(pts, dim), dim, halfwidth, resolution
    )


def random_smooth(seed, dim=1, halfwidth=8.0, resolution=1024) -> GridFunction:
    """Seeded mixture of four Gaussians, decaying well inside the box."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.3, 1.0, size=_SMOOTH_TERMS)
    centers = rng.uniform(-halfwidth / 4, halfwidth / 4, size=(_SMOOTH_TERMS, dim))
    widths = rng.uniform(0.4, 1.5, size=_SMOOTH_TERMS)

    def fn(pts):
        out = 0.0
        for a, c, w in zip(amps, centers, widths):
            out = out + a * gaussian(pts, dim, width=w, center=c)
        return out

    return GridFunction.from_callable(fn, dim, halfwidth, resolution)


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
        yield GridFunction.from_callable(
            lambda pts, c=c, hw=hw: mollified_step(pts, dim, halfwidth=hw, center=c),
            dim,
            halfwidth,
            resolution,
        )
