"""The shared reduction kernels against brute-force slicing."""

import functools
import math
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
    edge_reduce,
    edge_table,
    mixed_norm,
    prefix_table,
    three_point_max,
    window_sums,
)
from dilatest.plan import scan_levels
from dilatest.weights import cube_families, family_cube_reduce, power_table

# the exponent that picks each reduction of an edge read
OPS = {"sum": 1.0, "min": -math.inf, "max": math.inf}


@st.composite
def edge_cases(draw):
    dim = draw(st.sampled_from([1, 2]))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(dim))
    axis = draw(st.integers(0, dim - 1))
    seed = draw(st.integers(0, 2**16))
    # edges anywhere in 0..n and the last one n, so pairs rise, repeat or fall
    # back as where one tiling of the axis ends and the next begins
    n = shape[axis]
    edges = draw(st.lists(st.integers(0, n), min_size=1, max_size=9)) + [n]
    op = draw(st.sampled_from(sorted(OPS)))
    values = np.random.default_rng(seed).normal(size=shape)
    return values, np.array(edges), axis, op


@settings(max_examples=300, deadline=None)
@given(edge_cases())
def test_edge_reads_match_slicing(case):
    values, edges, axis, op = case
    r = OPS[op]
    got = edge_reduce(edge_table(values, axis, r), edges, axis, r)
    assert got.shape[axis] == len(edges) - 1
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        if b > a:  # a pair that does not rise reads no run
            want = getattr(np, op)(values.take(np.arange(a, b), axis=axis), axis=axis)
            np.testing.assert_allclose(got.take(i, axis=axis), want, rtol=1e-12, atol=1e-12)


def _window_sums_by_ranges(values, r):
    """Centered window sums as one concatenated lo/hi read of a ``prefix_table``
    per axis, each range clipped to the array, then split."""
    out = np.asarray(values, dtype=float)
    for ax in range(out.ndim):
        n = out.shape[ax]
        idx = np.arange(n)
        lo = np.clip(np.concatenate([idx - r, idx - r + 1]), 0, n)
        hi = np.clip(np.concatenate([idx + r + 1, idx + r]), 0, n)
        table = prefix_table(out, ax, 0)
        closed, interior = np.split(table.take(hi, ax) - table.take(lo, ax), 2, axis=ax)
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


def _step_lists(radius):
    """Three-point steps whose nesting spans [-radius, radius]: greedy doubling
    for every radius, and for a power of two the 1, 1, 2, ..., radius/2 that
    ``hl_maximal`` nests."""
    greedy, total = [], 0
    while total < radius:
        greedy.append(min(total + 1, radius - total))
        total += greedy[-1]
    lists = [greedy]
    if radius >= 2 and radius & (radius - 1) == 0:
        lists.append([1] + [2**i for i in range(int(math.log2(radius)))])
    return lists


def _three_point_max_by_slices(values, step, axis, out=None):
    """``three_point_max`` as two slices along ``axis`` on every axis and
    shape: the reference that its flat shifts must match bit for bit."""
    out = values.copy() if out is None else np.maximum(out, values, out=out)
    ahead = (slice(None),) * axis + (slice(step, None),)
    behind = (slice(None),) * axis + (slice(None, -step),)
    np.maximum(out[ahead], values[behind], out=out[ahead])
    np.maximum(out[behind], values[ahead], out=out[behind])
    return out


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_nested_three_point_max_matches_clipped_windows(n):
    rng = np.random.default_rng(n)
    # the 3-D last axis is long enough for steps up to a quarter of it to take
    # the flat shifts, and the middle axis keeps the slices
    for values in (rng.normal(size=(n, n + 2)), rng.normal(size=(n, n + 1, 4 * n + 3))):
        for axis in range(values.ndim):
            length = values.shape[axis]
            for radius in range(length + 3):  # every window size, up to wider than the axis
                want = np.stack([values.take(np.arange(max(i - radius, 0),
                                                       min(i + radius + 1, length)),
                                             axis=axis).max(axis=axis)
                                 for i in range(length)], axis=axis)
                for steps in _step_lists(radius):
                    got = functools.reduce(lambda v, step: three_point_max(v, step, axis),
                                           steps, values)
                    np.testing.assert_array_equal(got, want)
                    if steps:  # the last step joined into an out
                        out = rng.normal(size=values.shape)
                        joined = np.maximum(out, want)
                        inner = functools.reduce(
                            lambda v, step: three_point_max(v, step, axis), steps[:-1], values)
                        assert three_point_max(inner, steps[-1], axis, out) is out
                        np.testing.assert_array_equal(out, joined)
            for step in range(1, length + 3):  # single steps, up to wider than the axis
                out = rng.normal(size=values.shape)
                want = _three_point_max_by_slices(values, step, axis)
                want_out = _three_point_max_by_slices(values, step, axis, out.copy())
                assert three_point_max(values, step, axis).tobytes() == want.tobytes()
                assert three_point_max(values, step, axis, out).tobytes() == want_out.tobytes()
    flat = rng.normal(size=n)
    for radius in range(n + 3):
        want = [flat[max(i - radius, 0): i + radius + 1].max() for i in range(n)]
        for steps in _step_lists(radius):
            got = functools.reduce(lambda v, step: three_point_max(v, step, 0), steps, flat)
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("shape", [(7, 24), (5, 6, 20), (3, 4, 5, 16)])
def test_three_point_max_keeps_the_bits_of_the_slices_on_nan_and_inf(shape):
    # nan of either sign, +-inf and +-0 at random entries, also at row edges,
    # where a flat shift reads the neighbouring row before its entries are put back
    rng = np.random.default_rng(len(shape))
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0])
    values, joined = rng.normal(size=shape), rng.normal(size=shape)
    for array in (values, joined):
        flat = array.reshape(-1)
        flat[rng.choice(flat.size, flat.size // 5, replace=False)] = rng.choice(specials,
                                                                                flat.size // 5)
    values[..., 0], values[..., -1] = np.nan, -np.inf
    for axis in range(len(shape)):
        for step in range(1, shape[axis] + 2):
            for out in (None, joined):
                got = three_point_max(values, step, axis, None if out is None else out.copy())
                want = _three_point_max_by_slices(values, step, axis,
                                                  None if out is None else out.copy())
                assert got.tobytes() == want.tobytes(), (axis, step, out is None)


def test_three_point_max_joins_into_out_and_leaves_values():
    values = np.random.default_rng(5).normal(size=(6, 7))
    kept = values.copy()
    out = np.random.default_rng(6).normal(size=(6, 7))
    want = np.maximum(out, three_point_max(values, 2, 1))
    got = three_point_max(values, 2, 1, out)
    assert got is out
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(values, kept)


@pytest.mark.parametrize("dim,halfwidth,n", [(1, 8.0, 256), (1, 3.0, 256), (2, 3.0, 32)])
def test_family_cube_reduce_matches_slicing(dim, halfwidth, n):
    values = np.random.default_rng(dim).random((n,) * dim) + 0.1
    f = GridFunction(dim, halfwidth, values)
    for k in scan_levels(f.halfwidth, f.resolution, 6):
        level = cube_families(f, k)
        blocks = []
        for fam in level.families:
            # the shifted tiling cut by cell centers, brute force
            side, dx = 2.0**-k, 2.0 * halfwidth / n
            centers = -halfwidth + (np.arange(n) + 0.5) * dx
            cube_of = np.floor(centers / side - fam.shift + 1e-9).astype(int)
            cells = [(int(np.argmax(cube_of == m)), int(n - np.argmax(cube_of[::-1] == m)))
                     for m in np.unique(cube_of)]
            fam_blocks = [values[a:b] for a, b in cells]
            if dim == 2:
                fam_blocks = [values[a:b, c:d] for a, b in cells for c, d in cells]
            counts = functools.reduce(np.multiply.outer, [fam.hi - fam.lo] * dim)
            assert list(counts.ravel()) == [b.size for b in fam_blocks]
            blocks += fam_blocks
        for op, r in OPS.items():
            # the level's families in one read, each family's cube grid after the last's
            red = family_cube_reduce(power_table(values, r), level, r)
            np.testing.assert_allclose(red, [getattr(np, op)(b) for b in blocks], rtol=1e-12)
            assert red.shape == (sum(len(fam.indices) ** dim for fam in level.families),)


def test_mixed_norms_of_one_layer_are_its_lp_norm():
    layer = np.random.default_rng(3).normal(size=64)
    lp = float(np.sum(np.abs(layer) ** 3) * 0.5) ** (1 / 3)
    value, terms = mixed_norm("B", [layer], 3.0, 1.5, 0.5)
    assert value == pytest.approx(lp, rel=1e-12) and terms == [pytest.approx(lp, rel=1e-12)]
    assert mixed_norm("F", [layer], 3.0, 1.5, 0.5)[0] == pytest.approx(lp, rel=1e-12)


def test_mixed_norms_of_constant_layers():
    # constant layers a, b on a domain of measure 4: B = F = 4^(1/p) (a^q + b^q)^(1/q)
    a, b, p, q = 1.5, 0.5, 2.0, 3.0
    layers = [np.full(16, a), np.full(16, b)]
    want = 4.0 ** (1 / p) * (a**q + b**q) ** (1 / q)
    assert mixed_norm("B", layers, p, q, 0.25)[0] == pytest.approx(want, rel=1e-12)
    assert mixed_norm("F", layers, p, q, 0.25)[0] == pytest.approx(want, rel=1e-12)


def test_importing_the_cli_loads_no_scipy():
    code = "import sys, dilatest.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert out.stdout.strip() == "[]"
