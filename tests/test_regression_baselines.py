"""Single-value regression anchors on the reference grid (L=8, N=4096)."""

import numpy as np
import pytest

from dilatest import fixtures, regression
from dilatest.lp_fourier import fourier_norm
from dilatest.norms import SpaceParams, diff_norm, star_norm
from dilatest.weights import Constant, GeometricLevel, WeightSequence

L, N, K = 8.0, 4096, 6


@pytest.fixture(scope="module")
def gaussian():
    return fixtures.fixture("gaussian", 1, L, N)


def test_fourier_gaussian_baseline(gaussian):
    t = WeightSequence.from_spec(GeometricLevel(1.0, Constant(1.0)), K, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (1.0, 1.0), k_max=K)
    got = fourier_norm(gaussian, t, sp)
    assert got == pytest.approx(regression.FOURIER_GAUSSIAN_S1_BASELINE, rel=1e-6)


def test_diff_and_star_gaussian_baselines(gaussian):
    t = WeightSequence.from_spec(GeometricLevel(0.5, Constant(1.0)), K, 1, L, N)
    sp = SpaceParams("B", 2.0, 2.0, 2, (0.5, 0.5), k_max=K)
    assert diff_norm(gaussian, t, sp) == pytest.approx(
        regression.DIFF_GAUSSIAN_SHALF_BASELINE, rel=1e-6
    )
    assert star_norm(gaussian, t, sp) == pytest.approx(
        regression.STAR_GAUSSIAN_SHALF_BASELINE, rel=1e-6
    )
