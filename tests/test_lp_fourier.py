import math

import numpy as np
import pytest

from dilatest.dyadic import GridFunction
from dilatest.errors import DilatestError, ImaginaryResidue, MissingLevels, NyquistExceeded
from dilatest.dyadic import mixed_norm
from dilatest import lp_fourier
from dilatest.lp_fourier import _profile, build_phi, fourier_norm, lp_pieces
from dilatest.norms import SpaceParams
from dilatest.weights import Constant, GeometricLevel, WeightSequence

L, N = 8.0, 1024


def _radial(dim, halfwidth, n):
    """|xi| on the DFT lattice of n cells per axis over [-halfwidth, halfwidth]**dim."""
    axis = 2.0 * math.pi * np.fft.fftfreq(n, d=2.0 * halfwidth / n)
    return np.sqrt(sum(np.meshgrid(*[axis**2] * dim, indexing="ij")))


def test_profile_plateaus():
    psi0 = build_phi(4, 1, L, N)[0]
    radial = _radial(1, L, N)
    inside = radial <= 1.0
    outside = radial >= 1.5
    assert np.all(psi0[inside] == 1.0)
    assert np.all(psi0[outside] == 0.0)


def test_phi1_vanishes_at_low_frequency():
    mults, radial = build_phi(2, 1, L, N), _radial(1, L, N)
    j = int(np.argmin(np.abs(radial - 0.5)))
    assert abs(radial[j]) <= 0.75  # a genuinely low frequency on this lattice
    assert mults[1][j] == 0.0


def test_band_support():
    mults, radial = build_phi(5, 1, L, N), _radial(1, L, N)
    for k in range(1, 6):
        lo, hi = 2.0 ** (k - 1), 3.0 * 2.0 ** (k - 1)
        out = (radial <= lo + 1e-12) | (radial >= hi - 1e-12)
        assert np.all(mults[k][out] == 0.0)


def test_telescoping_identity_everywhere():
    mults, radial = build_phi(6, 1, L, N), _radial(1, L, N)
    partial = np.zeros_like(mults[0])
    for k in range(7):
        partial = partial + mults[k]
        expected = _profile(radial * 2.0**-k)
        assert np.max(np.abs(partial - expected)) < 1e-12
    # at |xi| = 1 the telescoped sum is exactly 1 for every truncation
    j = int(np.argmin(np.abs(radial - 1.0)))
    assert _profile(np.array([radial[j] * 2.0**-6]))[0] == 1.0


def test_nyquist_guard():
    with pytest.raises(NyquistExceeded):
        build_phi(12, 1, L, N)


def test_band_limited_input_is_piece_zero():
    # frequency pi/4 < 1: exactly periodic on the box and inside band zero
    f = GridFunction.from_callable(lambda x: np.cos(math.pi * x / 4.0), 1, L, N)
    pieces = lp_pieces(f, 4)
    assert np.max(np.abs(pieces[0].samples - f.samples)) < 1e-12
    for k in range(1, 5):
        assert np.max(np.abs(pieces[k].samples)) < 1e-12


def test_zero_function_all_pieces_zero():
    f = GridFunction(1, L, np.zeros(N))
    for piece in lp_pieces(f, 3):
        assert np.all(piece.samples == 0.0)


def test_energy_lands_in_the_matching_band():
    # cos(4x) on a pi-commensurable box: |xi| = 4 sits in bands 2 and 3 only
    f = GridFunction.from_callable(lambda x: np.cos(4.0 * x), 1, math.pi, 256)
    pieces = lp_pieces(f, 5)
    energies = np.array([np.sum(p.samples**2) for p in pieces])
    total = energies.sum()
    assert (energies[2] + energies[3]) / total > 0.9999


def test_reconstruction_of_band_limited_input():
    f = GridFunction.from_callable(
        lambda x: np.cos(math.pi * x / 4.0) + 0.5 * np.sin(math.pi * x), 1, L, N
    )
    pieces = lp_pieces(f, 5)
    recon = sum(p.samples for p in pieces)
    rel = np.linalg.norm(recon - f.samples) / np.linalg.norm(f.samples)
    assert rel < 1e-12


def test_partial_reconstruction_error_decreases_with_truncation():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    pieces = lp_pieces(f, 6)
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
    assert fourier_norm(f, t, sp) == 0.0


def test_fourier_norm_band_limited_reduces_to_lp():
    f = GridFunction.from_callable(lambda x: np.cos(math.pi * x / 4.0), 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    l2 = math.sqrt(np.sum(f.samples**2) * f.spacing)
    for kind in ("B", "F"):
        sp = SpaceParams(kind, 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
        assert fourier_norm(f, t, sp) == pytest.approx(l2, rel=1e-10)


def test_fourier_norm_monotone_in_smoothness():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 3, (1.0, 1.0), k_max=5)
    t1 = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    t2 = WeightSequence.from_spec(GeometricLevel(2.0, Constant(1.0)), 5, 1, L, N)
    sp2 = SpaceParams("B", 2.0, 2.0, 3, (2.0, 2.0), k_max=5)
    assert fourier_norm(f, t2, sp2) > fourier_norm(f, t1, sp)


def _classical_fourier_norm(f, s, kind, k_max):
    """Unweighted smoothness-s norm, p = q = 2, with the level factors 2**(k s) written out."""
    layers = [2.0 ** (k * s) * piece.samples for k, piece in enumerate(lp_pieces(f, k_max))]
    return mixed_norm(kind, layers, 2.0, 2.0, f.spacing**f.dim)[0]


def test_generic_weight_path_matches_hardcoded_path():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)) * np.cos(x), 1, L, N)
    s = 0.5
    t = WeightSequence.from_spec(GeometricLevel(s, Constant(1.0)), 5, 1, L, N)
    for kind in ("B", "F"):
        sp = SpaceParams(kind, 2.0, 2.0, 2, (s, s), k_max=5)
        generic = fourier_norm(f, t, sp)
        hard = _classical_fourier_norm(f, s, kind, 5)
        assert generic == pytest.approx(hard, rel=1e-12)


def test_b_equals_f_when_p_equals_q():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)) * np.sin(2 * x), 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(0.5, Constant(1.0)), 4, 1, L, N)
    spb = SpaceParams("B", 3.0, 3.0, 2, (0.5, 0.5), k_max=4)
    spf = SpaceParams("F", 3.0, 3.0, 2, (0.5, 0.5), k_max=4)
    assert fourier_norm(f, t, spb) == pytest.approx(fourier_norm(f, t, spf), rel=1e-12)


def test_missing_levels():
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    t = WeightSequence.from_spec(Constant(1.0), 2, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    with pytest.raises(MissingLevels):
        fourier_norm(f, t, sp)


def test_two_admissible_profiles_agree_within_bounded_ratio(monkeypatch):
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), 5, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=5)
    a = fourier_norm(f, t, sp)

    def steeper(r):
        # the package's profile with exp(-1/t**2) in place of exp(-1/t)
        up, down = np.zeros_like(r), np.zeros_like(r)
        for out, u in ((up, 3.0 - 2.0 * r), (down, 2.0 * r - 2.0)):
            out[u > 0] = np.exp(-1.0 / u[u > 0] ** 2)
        return up / (up + down)

    def steeper_phi(k_max, dim, halfwidth, resolution):
        psi = [steeper(_radial(dim, halfwidth, resolution) * 2.0**-k) for k in range(k_max + 1)]
        return [psi[0]] + [psi[k] - psi[k - 1] for k in range(1, k_max + 1)]

    monkeypatch.setattr(lp_fourier, "build_phi", steeper_phi)
    b = fourier_norm(f, t, sp)
    assert 0.5 < a / b < 2.0


def test_pieces_2d_smoke():
    f = GridFunction.from_callable(
        lambda p: np.exp(-(p[..., 0] ** 2 + p[..., 1] ** 2)), 2, 4.0, 64
    )
    pieces = lp_pieces(f, 3)
    recon = sum(p.samples for p in pieces)
    # the Gaussian is essentially band-limited at this resolution
    rel = np.linalg.norm(recon - f.samples) / np.linalg.norm(f.samples)
    assert rel < 1e-6


def test_non_hermitian_multiplier_raises_a_typed_error(monkeypatch):
    f = GridFunction.from_callable(lambda x: np.exp(-(x**2)), 1, L, N)

    def one_sided(k_max, dim, halfwidth, resolution):
        mults = build_phi(k_max, dim, halfwidth, resolution)
        mults[1] = mults[1] * (np.fft.fftfreq(resolution) > 0)
        return mults

    monkeypatch.setattr(lp_fourier, "build_phi", one_sided)
    with pytest.raises(ImaginaryResidue) as err:
        lp_pieces(f, 3)
    assert isinstance(err.value, DilatestError)


def _phi_at(k, xi):
    """phi_k(xi) from the profile itself: psi(|xi| 2**-k) - psi(|xi| 2**(1-k))."""
    r = np.array([math.hypot(*xi)])
    return float(_profile(r * 2.0**-k)[0] - (_profile(r * 2.0 ** (1 - k))[0] if k else 0.0))


@pytest.mark.parametrize(
    "halfwidth, steps",
    [(8.0, (3,)), (4.0, (3,)), (8.0, (3, 2)), (4.0, (3, 1))],
)
def test_piece_of_a_lattice_cosine_is_phi_k_times_it(halfwidth, steps):
    # cos(xi . x) with xi on the DFT lattice of the box: every piece is the
    # cosine scaled by phi_k(xi). The chosen |xi| split between two bands with
    # factors strictly inside (0, 1), so bands of another grid's lattice fail.
    dim, n, k_max = len(steps), 64, 3
    xi = tuple(math.pi / halfwidth * m for m in steps)

    def cosine(pts):
        return np.cos(np.reshape(pts, (-1, dim)) @ xi).reshape((n,) * dim)

    f = GridFunction.from_callable(cosine, dim, halfwidth, n)
    factors = [_phi_at(k, xi) for k in range(k_max + 1)]
    assert sum(0.0 < c < 1.0 for c in factors) == 2
    for k, piece in enumerate(lp_pieces(f, k_max)):
        assert np.max(np.abs(piece.samples - factors[k] * f.samples)) < 1e-12
