import math

import numpy as np
import pytest

from dilatest.dyadic import GridFunction
from dilatest.errors import DilatestError, ImaginaryResidue, MissingLevels, NyquistExceeded
from dilatest.dyadic import mixed_norm
from dilatest.lp_fourier import _profile, build_phi, fourier_norm, lp_pieces
from dilatest.norms import SpaceParams
from dilatest.weights import Constant, GeometricLevel, WeightSequence

L, N = 8.0, 1024


def test_profile_plateaus():
    ru = build_phi(4, 1, L, N)
    psi0 = ru.multipliers[0]
    inside = ru.radial <= 1.0
    outside = ru.radial >= 1.5
    assert np.all(psi0[inside] == 1.0)
    assert np.all(psi0[outside] == 0.0)


def test_phi1_vanishes_at_low_frequency():
    ru = build_phi(2, 1, L, N)
    j = int(np.argmin(np.abs(ru.radial - 0.5)))
    assert abs(ru.radial[j]) <= 0.75  # a genuinely low frequency on this lattice
    assert ru.multipliers[1][j] == 0.0


def test_band_support():
    ru = build_phi(5, 1, L, N)
    for k in range(1, 6):
        lo, hi = 2.0 ** (k - 1), 3.0 * 2.0 ** (k - 1)
        out = (ru.radial <= lo + 1e-12) | (ru.radial >= hi - 1e-12)
        assert np.all(ru.multipliers[k][out] == 0.0)


def test_telescoping_identity_everywhere():
    ru = build_phi(6, 1, L, N)
    psi = ru.multipliers[0]
    partial = np.zeros_like(psi)
    for k in range(7):
        partial = partial + ru.multipliers[k]
        expected = _profile(ru.radial * 2.0**-k)
        assert np.max(np.abs(partial - expected)) < 1e-12
    # at |xi| = 1 the telescoped sum is exactly 1 for every truncation
    j = int(np.argmin(np.abs(ru.radial - 1.0)))
    assert _profile(np.array([ru.radial[j] * 2.0**-6]))[0] == 1.0


def test_nyquist_guard():
    with pytest.raises(NyquistExceeded):
        build_phi(12, 1, L, N)


def test_band_limited_input_is_piece_zero():
    # frequency pi/4 < 1: exactly periodic on the box and inside band zero
    f = GridFunction.from_callable(lambda x: np.cos(math.pi * x / 4.0), 1, L, N)
    ru = build_phi(4, 1, L, N)
    pieces = lp_pieces(f, ru)
    assert np.max(np.abs(pieces[0].samples - f.samples)) < 1e-12
    for k in range(1, 5):
        assert np.max(np.abs(pieces[k].samples)) < 1e-12


def test_zero_function_all_pieces_zero():
    f = GridFunction(1, L, np.zeros(N))
    for piece in lp_pieces(f, build_phi(3, 1, L, N)):
        assert np.all(piece.samples == 0.0)


def test_energy_lands_in_the_matching_band():
    # cos(4x) on a pi-commensurable box: |xi| = 4 sits in bands 2 and 3 only
    f = GridFunction.from_callable(lambda x: np.cos(4.0 * x), 1, math.pi, 256)
    ru = build_phi(5, 1, math.pi, 256)
    pieces = lp_pieces(f, ru)
    energies = np.array([np.sum(p.samples**2) for p in pieces])
    total = energies.sum()
    assert (energies[2] + energies[3]) / total > 0.9999


def test_reconstruction_of_band_limited_input():
    f = GridFunction.from_callable(
        lambda x: np.cos(math.pi * x / 4.0) + 0.5 * np.sin(math.pi * x), 1, L, N
    )
    ru = build_phi(5, 1, L, N)
    pieces = lp_pieces(f, ru)
    recon = sum(p.samples for p in pieces)
    rel = np.linalg.norm(recon - f.samples) / np.linalg.norm(f.samples)
    assert rel < 1e-12


def test_partial_reconstruction_error_decreases_with_truncation():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    ru = build_phi(6, 1, L, N)
    pieces = lp_pieces(f, ru)
    errs = []
    partial = np.zeros(N)
    for p in pieces:
        partial = partial + p.samples
        errs.append(np.linalg.norm(partial - f.samples) / np.linalg.norm(f.samples))
    assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 1e-10


def test_fourier_norm_zero():
    f = GridFunction(1, L, np.zeros(N))
    t = WeightSequence.from_spec(Constant(1.0), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    assert fourier_norm(f, t, sp, build_phi(5, 1, L, N)) == 0.0


def test_fourier_norm_band_limited_reduces_to_lp():
    f = GridFunction.from_callable(lambda x: np.cos(math.pi * x / 4.0), 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    l2 = math.sqrt(np.sum(f.samples**2) * f.spacing)
    for kind in ("B", "F"):
        sp = SpaceParams(kind, 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
        assert fourier_norm(f, t, sp, build_phi(5, 1, L, N)) == pytest.approx(l2, rel=1e-10)


def test_fourier_norm_monotone_in_smoothness():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 3, (1.0, 1.0), k_max=5)
    t1 = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    t2 = WeightSequence.from_spec(GeometricLevel(2.0, Constant(1.0)), 5, 1, L, N)
    sp2 = SpaceParams("B", 2.0, 2.0, 3, (2.0, 2.0), k_max=5)
    ru = build_phi(5, 1, L, N)
    assert fourier_norm(f, t2, sp2, ru) > fourier_norm(f, t1, sp, ru)


def _classical_fourier_norm(f, s, kind, ru):
    """Unweighted smoothness-s norm, p = q = 2, with the level factors 2**(k s) written out."""
    layers = [2.0 ** (k * s) * piece.samples for k, piece in enumerate(lp_pieces(f, ru))]
    return mixed_norm(kind, layers, 2.0, 2.0, f.spacing**f.dim)[0]


def test_generic_weight_path_matches_hardcoded_path():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)) * np.cos(x), 1, L, N)
    s = 0.5
    t = WeightSequence.from_spec(GeometricLevel(s, Constant(1.0)), 5, 1, L, N)
    ru = build_phi(5, 1, L, N)
    for kind in ("B", "F"):
        sp = SpaceParams(kind, 2.0, 2.0, 2, (s, s), k_max=5)
        generic = fourier_norm(f, t, sp, ru)
        hard = _classical_fourier_norm(f, s, kind, ru)
        assert generic == pytest.approx(hard, rel=1e-12)


def test_b_equals_f_when_p_equals_q():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)) * np.sin(2 * x), 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(0.5, Constant(1.0)), 4, 1, L, N)
    spb = SpaceParams("B", 3.0, 3.0, 2, (0.5, 0.5), k_max=4)
    spf = SpaceParams("F", 3.0, 3.0, 2, (0.5, 0.5), k_max=4)
    ru = build_phi(4, 1, L, N)
    assert fourier_norm(f, t, spb, ru) == pytest.approx(fourier_norm(f, t, spf, ru), rel=1e-12)


def test_missing_levels():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    t = WeightSequence.from_spec(Constant(1.0), 2, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    with pytest.raises(MissingLevels):
        fourier_norm(f, t, sp, build_phi(5, 1, L, N))


def test_two_admissible_profiles_agree_within_bounded_ratio():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    ru = build_phi(5, 1, L, N)
    a = fourier_norm(f, t, sp, ru)

    def steeper(r):
        # the package's profile with exp(-1/t**2) in place of exp(-1/t)
        up, down = np.zeros_like(r), np.zeros_like(r)
        for out, u in ((up, 3.0 - 2.0 * r), (down, 2.0 * r - 2.0)):
            out[u > 0] = np.exp(-1.0 / u[u > 0] ** 2)
        return up / (up + down)

    psi = [steeper(ru.radial * 2.0**-k) for k in range(6)]
    ru.multipliers = [psi[0]] + [psi[k] - psi[k - 1] for k in range(1, 6)]
    b = fourier_norm(f, t, sp, ru)
    assert 0.5 < a / b < 2.0


def test_pieces_2d_smoke():
    f = GridFunction.from_callable(
        lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2)), 2, 4.0, 64
    )
    ru = build_phi(3, 2, 4.0, 64)
    pieces = lp_pieces(f, ru)
    recon = sum(p.samples for p in pieces)
    # the Gaussian is essentially band-limited at this resolution
    rel = np.linalg.norm(recon - f.samples) / np.linalg.norm(f.samples)
    assert rel < 1e-6


def test_non_hermitian_multiplier_raises_a_typed_error():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    ru = build_phi(3, 1, L, N)
    ru.multipliers[1] = ru.multipliers[1] * (np.fft.fftfreq(N) > 0)  # one-sided band
    with pytest.raises(ImaginaryResidue) as err:
        lp_pieces(f, ru)
    assert isinstance(err.value, DilatestError)
