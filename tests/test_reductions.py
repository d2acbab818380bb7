"""The shared reduction kernels against brute-force slicing."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatest.dyadic import (
    GridFunction,
    axis_reduce,
    lp_of_lq,
    lq_of_lp,
    running_max,
    window_sums,
)
from dilatest.weights import family_cube_reduce, scan_levels

BRUTE = {
    "sum": lambda block, axis: block.sum(axis=axis),
    "mean": lambda block, axis: block.mean(axis=axis) if block.shape[axis] else
    np.full(np.delete(block.shape, axis), np.nan),
    "min": lambda block, axis: block.min(axis=axis, initial=np.inf),
    "max": lambda block, axis: block.max(axis=axis, initial=-np.inf),
}


@st.composite
def reduce_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(dim))
    axis = draw(st.integers(0, dim - 1))
    seed = draw(st.integers(0, 2**16))
    n = shape[axis]
    # bounds reach past both ends of the axis, so ranges come out empty,
    # reversed, partly clipped or fully outside
    bounds = st.integers(-3, n + 3)
    ranges = draw(st.lists(st.tuples(bounds, bounds), min_size=1, max_size=8))
    op = draw(st.sampled_from(sorted(BRUTE)))
    values = np.random.default_rng(seed).normal(size=shape)
    return values, ranges, axis, op


@settings(max_examples=300, deadline=None)
@given(reduce_cases())
def test_axis_reduce_matches_slicing(case):
    values, ranges, axis, op = case
    n = values.shape[axis]
    lo = np.array([a for a, _ in ranges])
    hi = np.array([b for _, b in ranges])
    got = axis_reduce(values, lo, hi, axis, op)
    assert got.shape[axis] == len(ranges)
    for i, (a, b) in enumerate(ranges):
        a, b = min(max(a, 0), n), min(max(b, 0), n)
        block = values.take(np.arange(a, max(a, b)), axis=axis)
        want = BRUTE[op](block, axis)
        np.testing.assert_allclose(got.take(i, axis=axis), want, rtol=1e-12, atol=1e-12)


def _window_sums_by_ranges(values, r):
    """Centered window sums as one concatenated lo/hi ``axis_reduce`` per axis, then split."""
    out = np.asarray(values, dtype=float)
    for ax in range(out.ndim):
        idx = np.arange(out.shape[ax])
        lo = np.concatenate([idx - r, idx - r + 1])
        hi = np.concatenate([idx + r + 1, idx + r])
        closed, interior = np.split(axis_reduce(out, lo, hi, ax), 2, axis=ax)
        out = 0.5 * (closed + interior)
    return out


@settings(max_examples=200, deadline=None)
@given(
    dim=st.sampled_from([1, 2]),
    n=st.integers(2, 64),
    radius=st.data(),
    seed=st.integers(0, 2**16),
)
def test_window_sums_match_range_reductions_bit_for_bit(dim, n, radius, seed):
    # the prefix-table slices subtract the same operands as the clipped ranges
    r = radius.draw(st.integers(1, 2 * n + 2), label="r")
    rng = np.random.default_rng(seed)
    shape = (n,) * dim
    values = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-3, 3, size=shape)
    got = window_sums(values, r)
    assert np.array_equal(got, _window_sums_by_ranges(values, r))
    assert got.flags.c_contiguous


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_running_max_matches_clipped_windows(n):
    rng = np.random.default_rng(n)
    values = rng.normal(size=(n, n + 2))
    for axis in (0, 1):
        length = values.shape[axis]
        for radius in range(length + 1):  # every window size, up to wider than the axis
            got = running_max(values, radius, axis)
            for i in range(length):
                window = values.take(np.arange(max(i - radius, 0), min(i + radius + 1, length)),
                                     axis=axis)
                np.testing.assert_array_equal(got.take(i, axis=axis), window.max(axis=axis))
    flat = rng.normal(size=n)
    for radius in range(n + 1):
        want = [flat[max(i - radius, 0): i + radius + 1].max() for i in range(n)]
        np.testing.assert_array_equal(running_max(flat, radius, 0), want)


@pytest.mark.parametrize("dim,halfwidth,n", [(1, 8.0, 256), (1, 3.0, 256), (2, 3.0, 32)])
def test_family_cube_reduce_matches_slicing(dim, halfwidth, n):
    values = np.random.default_rng(dim).random((n,) * dim) + 0.1
    f = GridFunction(dim, halfwidth, values)
    for k in scan_levels(f, 6):
        for shift in (0.0, 1.0 / 3.0, 2.0 / 3.0):
            # the shifted tiling cut by cell centers, brute force
            side, dx = 2.0**-k, 2.0 * halfwidth / n
            centers = -halfwidth + (np.arange(n) + 0.5) * dx
            cube_of = np.floor(centers / side - shift + 1e-9).astype(int)
            cells = [(int(np.argmax(cube_of == m)), int(n - np.argmax(cube_of[::-1] == m)))
                     for m in np.unique(cube_of)]
            blocks = [values[a:b] for a, b in cells]
            if dim == 2:
                blocks = [values[a:b, c:d] for a, b in cells for c, d in cells]
            for op in ("sum", "min", "max"):
                red, counts, idx, _ = family_cube_reduce(values, f, k, shift, op)
                want = [getattr(np, op)(b) for b in blocks]
                np.testing.assert_allclose(red, want, rtol=1e-12)
                assert list(counts) == [b.size for b in blocks]
                assert idx.shape == (len(blocks), dim)


def test_mixed_norms_of_one_layer_are_its_lp_norm():
    layer = np.random.default_rng(3).normal(size=64)
    lp = float(np.sum(np.abs(layer) ** 3) * 0.5) ** (1 / 3)
    value, terms = lq_of_lp([layer], 3.0, 1.5, 0.5)
    assert value == pytest.approx(lp, rel=1e-12) and terms == [pytest.approx(lp, rel=1e-12)]
    assert lp_of_lq([layer], 3.0, 1.5, 0.5) == pytest.approx(lp, rel=1e-12)


def test_mixed_norms_of_constant_layers():
    # constant layers a, b on a domain of measure 4: B = F = 4^(1/p) (a^q + b^q)^(1/q)
    a, b, p, q = 1.5, 0.5, 2.0, 3.0
    layers = [np.full(16, a), np.full(16, b)]
    want = 4.0 ** (1 / p) * (a**q + b**q) ** (1 / q)
    assert lq_of_lp(layers, p, q, 0.25)[0] == pytest.approx(want, rel=1e-12)
    assert lp_of_lq(layers, p, q, 0.25) == pytest.approx(want, rel=1e-12)


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, dilatest.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout.strip() == "[]"
