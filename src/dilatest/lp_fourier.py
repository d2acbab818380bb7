"""Smooth dyadic resolution of unity and Fourier-side norms.

The band multipliers live on the DFT frequency lattice of the periodized box,
so "convolve with the band kernel" is a pointwise multiplication in frequency
space. The cutoff profile is exactly 1 on |xi| <= 1 and exactly 0 on
|xi| >= 3/2, hence the band sum telescopes identically and band-limited
inputs reconstruct to round-off. The grid and K fix the bands, so
``lp_pieces`` builds them from the grid of the function it splits.
"""

import functools
import math

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


def nyquist_frequency(halfwidth, resolution):
    return math.pi * resolution / (2.0 * halfwidth)


def build_phi(k_max, dim, halfwidth, resolution):
    """The band multipliers phi_0..phi_K of the dyadic resolution of unity on
    the DFT lattice of the grid of ``resolution`` cells per axis over
    [-halfwidth, halfwidth]**dim."""
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
    return mults


def lp_pieces(f: GridFunction, k_max):
    """Band-limited pieces 0..k_max of f, with the bands of f's own grid; their
    sum telescopes to a low-pass of f."""
    spectrum = np.fft.fftn(f.samples)
    scale = max(float(np.sqrt(np.mean(f.samples**2))), 1e-300)
    pieces = []
    for mult in build_phi(k_max, f.dim, f.halfwidth, f.resolution):
        z = np.fft.ifftn(spectrum * mult)
        resid = float(np.max(np.abs(z.imag)))
        if resid > 1e-10 * scale:
            raise ImaginaryResidue(
                f"imaginary residue {resid:.3e} too large: the multiplier is not Hermitian"
            )
        pieces.append(f.with_samples(z.real.copy()))
    return pieces


def fourier_norm(f: GridFunction, t: WeightSequence, sp) -> float:
    """Fourier-side weighted norm of the B or F kind, over the bands 0..sp.k_max
    of f's grid.

    B aggregates weighted L_p norms of the band pieces in l_q over levels;
    F swaps the order and takes the L_p norm of the pointwise l_q aggregate.
    """
    if t.k_max < sp.k_max:
        raise MissingLevels(f"weight sequence has levels 0..{t.k_max}, need {sp.k_max}")
    pieces = lp_pieces(f, sp.k_max)
    layers = [t.level(k).samples * piece.samples for k, piece in enumerate(pieces)]
    return mixed_norm(sp.kind, layers, sp.p, sp.q, f.spacing**f.dim)[0]
