"""Smooth dyadic resolution of unity and Fourier-side norms.

The band multipliers live on the DFT frequency lattice of the periodized box,
so "convolve with the band kernel" is a pointwise multiplication in frequency
space. The cutoff profile is exactly 1 on |xi| <= 1 and exactly 0 on
|xi| >= 3/2, hence the band sum telescopes identically and band-limited
inputs reconstruct to round-off.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dyadic import GridFunction, mixed_norm
from .errors import ImaginaryResidue, MissingLevels, NyquistExceeded
from .weights import WeightSequence


def _profile(r):
    """C-infinity decreasing profile: exactly 1 on r<=1, exactly 0 on r>=3/2."""

    def e(t):
        out = np.zeros_like(t)
        pos = t > 0
        out[pos] = np.exp(-1.0 / t[pos])
        return out

    r = np.asarray(r, dtype=float)
    a = e(3.0 - 2.0 * r)
    b = e(2.0 * r - 2.0)
    return a / (a + b)


@dataclass
class ResolutionOfUnity:
    """Band multipliers phi_0..phi_K on a fixed DFT frequency lattice."""

    dim: int
    halfwidth: float
    resolution: int
    k_max: int
    multipliers: list
    radial: np.ndarray


def nyquist_frequency(halfwidth, resolution):
    return math.pi * resolution / (2.0 * halfwidth)


def build_phi(k_max, dim=1, halfwidth=8.0, resolution=1024) -> ResolutionOfUnity:
    """Evaluate the dyadic resolution of unity on the DFT lattice."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    nyq = nyquist_frequency(halfwidth, resolution)
    if 3.0 * 2.0 ** (k_max - 1) > nyq:
        raise NyquistExceeded(
            f"band {k_max} needs frequencies up to {3.0 * 2.0 ** (k_max - 1):.1f}, "
            f"Nyquist is {nyq:.1f}"
        )
    dx = 2.0 * halfwidth / resolution
    omega = 2.0 * math.pi * np.fft.fftfreq(resolution, d=dx)
    radial = np.sqrt(functools.reduce(np.add.outer, [omega * omega] * dim))
    mults = [_profile(radial)]
    for k in range(1, k_max + 1):
        mults.append(_profile(radial * 2.0**-k) - _profile(radial * 2.0 ** (1 - k)))
    return ResolutionOfUnity(
        dim=dim,
        halfwidth=halfwidth,
        resolution=resolution,
        k_max=k_max,
        multipliers=mults,
        radial=radial,
    )


def _check_geometry(f: GridFunction, ru: ResolutionOfUnity):
    if (f.dim, f.halfwidth, f.resolution) != (ru.dim, ru.halfwidth, ru.resolution):
        raise ValueError("grid and resolution-of-unity geometries differ")


def lp_pieces(f: GridFunction, ru: ResolutionOfUnity):
    """Band-limited pieces of f; their sum telescopes to a low-pass of f."""
    _check_geometry(f, ru)
    spectrum = np.fft.fftn(f.samples)
    scale = max(float(np.sqrt(np.mean(f.samples**2))), 1e-300)
    pieces = []
    for mult in ru.multipliers:
        z = np.fft.ifftn(spectrum * mult)
        resid = float(np.max(np.abs(z.imag)))
        if resid > 1e-10 * scale:
            raise ImaginaryResidue(
                f"imaginary residue {resid:.3e} too large: the multiplier is not Hermitian"
            )
        pieces.append(f.with_samples(z.real.copy()))
    return pieces


def fourier_norm(f: GridFunction, t: WeightSequence, sp, ru: ResolutionOfUnity) -> float:
    """Fourier-side weighted norm of the B or F kind.

    B aggregates weighted L_p norms of the band pieces in l_q over levels;
    F swaps the order and takes the L_p norm of the pointwise l_q aggregate.
    """
    _check_geometry(f, ru)
    k_top = sp.k_max
    if ru.k_max < k_top:
        raise NyquistExceeded("resolution of unity holds fewer bands than requested")
    if t.k_max < k_top:
        raise MissingLevels(f"weight sequence has levels 0..{t.k_max}, need {k_top}")
    pieces = lp_pieces(f, ru)
    layers = [t.level(k).samples * pieces[k].samples for k in range(k_top + 1)]
    return mixed_norm(sp.kind, layers, sp.p, sp.q, f.spacing**f.dim)[0]
