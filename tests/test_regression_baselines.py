"""Single-value regression anchors on the reference grid (L=8, N=4096)."""

import numpy as np
import pytest

from dilatest import fixtures
from dilatest.lp_fourier import fourier_norm
from dilatest.norms import SpaceParams, diff_norm, star_norm
from dilatest.weights import Constant, GeometricLevel, WeightSequence

L, N, K = 8.0, 4096, 6

# single-value baselines for the reference Gaussian fixture, measured once on
# the reference setup of ``dilatest.regression`` and frozen
FOURIER_GAUSSIAN_S1_BASELINE = 1.398776406774764  # B-kind, t_k = 2**k
DIFF_GAUSSIAN_SHALF_BASELINE = 2.764485237737893  # t_k = 2**(k/2), M = 2
STAR_GAUSSIAN_SHALF_BASELINE = 1.4826337791860635


@pytest.fixture(scope="module")
def gaussian():
    return fixtures.fixture("gaussian", 1, L, N)


def test_fourier_gaussian_baseline(gaussian):
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), K, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=K)
    got = fourier_norm(gaussian, t, sp)
    assert got == pytest.approx(FOURIER_GAUSSIAN_S1_BASELINE, rel=1e-6)


def test_diff_and_star_gaussian_baselines(gaussian):
    t = WeightSequence.from_spec(GeometricLevel(0.5, Constant(1.0)), K, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5), k_max=K)
    assert diff_norm(gaussian, t, sp) == pytest.approx(
        DIFF_GAUSSIAN_SHALF_BASELINE, rel=1e-6
    )
    assert star_norm(gaussian, t, sp) == pytest.approx(
        STAR_GAUSSIAN_SHALF_BASELINE, rel=1e-6
    )
