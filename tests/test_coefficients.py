"""Point evaluation, infima, and minimum points of the coefficient kinds."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab.coefficients import (
    checkerboard,
    constant,
    laminate,
    raster,
    raster_from_file,
    smooth_trigonometric,
)


def test_constant_everywhere():
    a = constant(3.0)
    pts = np.array([[0.0, 0.0], [0.3, -7.2], [125.5, 0.125]])
    assert np.all(a.eval(pts) == 3.0)
    assert a.ess_inf() == 3.0
    assert a.eval(np.array([0.1, 0.9])) == 3.0  # single point -> scalar


def test_constant_requires_positive():
    with pytest.raises(ValueError):
        constant(0.0)
    with pytest.raises(ValueError):
        constant(-1.0)


def test_checkerboard_quadrants():
    a = checkerboard(1.0, 4.0)
    # alpha on the two quadrants where floor(2 y1) + floor(2 y2) is even
    assert a.eval(np.array([0.25, 0.25])) == 1.0
    assert a.eval(np.array([0.75, 0.75])) == 1.0
    assert a.eval(np.array([0.75, 0.25])) == 4.0
    assert a.eval(np.array([0.25, 0.75])) == 4.0
    assert a.ess_inf() == 1.0
    assert a.eval(np.array(a.min_point())) == 1.0


def test_checkerboard_periodicity():
    a = checkerboard(2.0, 5.0)
    rng = np.random.default_rng(42)
    pts = rng.uniform(-3.0, 3.0, size=(64, 2))
    shifts = rng.integers(-4, 5, size=(64, 2)).astype(float)
    assert np.array_equal(a.eval(pts), a.eval(pts + shifts))


def test_laminate_layers():
    a = laminate(1.0, 4.0, direction=(0.0, 1.0), fraction=0.5)
    assert a.eval(np.array([0.9, 0.25])) == 1.0
    assert a.eval(np.array([0.1, 0.75])) == 4.0
    assert a.eval(np.array(a.min_point())) == 1.0
    # fraction shifts the interface
    b = laminate(1.0, 4.0, direction=(0.0, 1.0), fraction=0.25)
    assert b.eval(np.array([0.5, 0.2])) == 1.0
    assert b.eval(np.array([0.5, 0.3])) == 4.0


def test_laminate_other_direction():
    a = laminate(2.0, 3.0, direction=(1.0, 0.0))
    assert a.eval(np.array([0.25, 0.9])) == 2.0
    assert a.eval(np.array([0.75, 0.9])) == 3.0


def test_smooth_trigonometric_extremes():
    a = smooth_trigonometric(2.0, 1.0)
    assert a.eval(np.array([0.0, 0.0])) == pytest.approx(3.0)
    assert a.eval(np.array([0.5, 0.0])) == pytest.approx(1.0)
    assert a.ess_inf() == pytest.approx(1.0)
    p = np.array(a.min_point())
    assert a.eval(p) == pytest.approx(a.ess_inf())


def test_smooth_trigonometric_positivity_guard():
    with pytest.raises(ValueError):
        smooth_trigonometric(1.0, 1.0)  # touches zero
    with pytest.raises(ValueError):
        smooth_trigonometric(1.0, 2.0)


def test_raster_lookup_and_min():
    samples = np.array([[2.0, 3.0], [0.5, 7.0]])
    a = raster(samples)
    # samples[r, c] sits at cell center ((c+0.5)/M, (r+0.5)/M)
    assert a.eval(np.array([0.25, 0.25])) == 2.0
    assert a.eval(np.array([0.75, 0.25])) == 3.0
    assert a.eval(np.array([0.25, 0.75])) == 0.5
    assert a.ess_inf() == 0.5
    assert a.min_point() == (0.25, 0.75)


def test_raster_copy_is_write_protected():
    samples = np.ones((2, 2))
    a = raster(samples)
    samples[0, 0] = 99.0
    assert a.eval(np.array([0.25, 0.25])) == 1.0
    with pytest.raises(ValueError):
        a.params["samples"][0, 0] = 5.0


def test_raster_from_file_roundtrip(tmp_path):
    path = tmp_path / "cells.txt"
    path.write_text("2\n1.5 2.5\n3.5 0.25\n")
    a = raster_from_file(str(path))
    assert a.eval(np.array([0.25, 0.25])) == 1.5
    assert a.eval(np.array([0.75, 0.75])) == 0.25
    assert a.ess_inf() == 0.25


def test_raster_from_file_rejects_bad_input(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1.0 2.0\n3.0\n")  # short row
    with pytest.raises(ValueError):
        raster_from_file(str(bad))
    nonpos = tmp_path / "nonpos.txt"
    nonpos.write_text("1\n0.0\n")
    with pytest.raises(ValueError):
        raster_from_file(str(nonpos))


def test_vectorized_shapes():
    a = checkerboard(1.0, 4.0)
    grid = np.stack(np.meshgrid(np.linspace(0, 1, 8), np.linspace(0, 1, 8),
                                indexing="ij"), axis=-1)
    out = a.eval(grid)
    assert out.shape == (8, 8)
    assert np.isin(out, [1.0, 4.0]).all()


def test_alpha_beta_bounds():
    rng = np.random.default_rng(7)
    pts = rng.uniform(-2, 2, size=(200, 2))
    for a in (checkerboard(1.0, 4.0), laminate(1.5, 2.5),
              smooth_trigonometric(2.0, 1.0), constant(3.0)):
        vals = a.eval(pts)
        assert np.all(vals >= a.alpha - 1e-12)
        assert np.all(vals <= a.beta + 1e-12)


# -- block-wise evaluation against the whole-array formula -----------------------


def _frac(x):
    return x - np.floor(x)


def _whole_array_eval(a, pts):
    """a(y) by the whole-array formulas that block-wise evaluation replaced."""
    y1, y2 = _frac(pts[..., 0]), _frac(pts[..., 1])
    p = a.params
    if a.kind == "constant":
        return np.full_like(y1, p["value"])
    if a.kind == "checkerboard":
        even = (np.floor(2.0 * y1) + np.floor(2.0 * y2)) % 2 == 0
        return np.where(even, p["alpha_val"], p["beta_val"])
    if a.kind == "laminate":
        d = p["direction"]
        t = _frac(pts[..., 0] * d[0] + pts[..., 1] * d[1])
        return np.where(t < p["fraction"], p["alpha_val"], p["beta_val"])
    if a.kind == "smooth-trigonometric":
        return p["c0"] + p["c1"] * np.cos(2 * np.pi * y1) * np.cos(2 * np.pi * y2)
    samples = p["samples"]
    m = samples.shape[0]
    col = np.minimum((y1 * m).astype(int), m - 1)
    row = np.minimum((y2 * m).astype(int), m - 1)
    return samples[row, col]


KINDS = (
    constant(3.0),
    checkerboard(1.0, 4.0),
    laminate(1.0, 4.0, direction=(1.0, 2.0), fraction=0.3),
    smooth_trigonometric(2.0, 1.0),
    raster(np.arange(1.0, 26.0).reshape(5, 5)),
)
BLOCK = 1 << 15
# points where frac rounds to 1.0 (-1e-20), quadrant and layer edges, and
# magnitudes where few fractional bits are left
EDGES = [-1e-20, 1e-20, 0.0, -0.0, 0.5, -0.5, 1.5, -2.5, 0.25, -0.75,
         1e15, -1e15, 1e15 + 0.5, -(2.0**49) - 0.5]


@settings(max_examples=40, deadline=None)
@given(
    size=st.sampled_from([1, 7, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 5]),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 40.0, 1e15]),
    edges=st.lists(st.sampled_from(EDGES)
                   | st.floats(-1e15, 1e15, allow_nan=False)
                   | st.integers(-40, 40).map(lambda k: k / 2.0),
                   min_size=1, max_size=24),
)
def test_blockwise_eval_matches_whole_array_formula(size, seed, scale, edges):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(size, 2))
    # scatter the edge values over both coordinates, across block boundaries
    flat = pts.reshape(-1)
    flat[rng.integers(0, flat.size, size=4 * len(edges))] = \
        rng.choice(np.array(edges), size=4 * len(edges))
    for a in KINDS:
        want = _whole_array_eval(a, pts)
        assert np.array_equal(a.eval(pts), want)
        assert np.array_equal(a.eval(pts[None]), want[None])
        assert a.eval(pts[-1]) == want[-1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_rejects_non_finite_points(bad):
    # the bad point sits in the second block, so every block is checked
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, size=(BLOCK + 5, 2))
    pts[BLOCK + 2, 1] = bad
    for a in KINDS:
        with pytest.raises(ValueError, match=f"non-finite point .*index {BLOCK + 2}"):
            a.eval(pts)
        with pytest.raises(ValueError, match="non-finite point"):
            a.eval(pts[BLOCK + 2])
        a.eval(pts[:BLOCK])  # the finite first block alone is accepted


# -- tensor-grid evaluation against point evaluation -------------------------------


@settings(max_examples=60, deadline=None)
@given(
    # 1..7 coordinates per axis, and a grid of three blocks
    shape=st.tuples(st.integers(1, 7), st.integers(1, 7))
    | st.just((49, 2048)),
    raster_size=st.integers(1, 7),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([1.0, 40.0, 1e15]),
    edges=st.lists(st.sampled_from(EDGES)
                   | st.floats(-1e15, 1e15, allow_nan=False)
                   | st.integers(-40, 40).map(lambda k: k / 2.0),
                   min_size=1, max_size=8),
)
def test_eval_grid_matches_eval_on_the_stacked_points(shape, raster_size, seed,
                                                      scale, edges):
    rng = np.random.default_rng(seed)
    u = rng.uniform(-scale, scale, shape[0])
    v = rng.uniform(-scale, scale, shape[1])
    for c in (u, v):
        c[rng.integers(0, len(c), size=len(edges))] = edges
    pts = np.empty(shape + (2,))
    pts[..., 0] = u[:, None]
    pts[..., 1] = v
    samples = rng.uniform(1.0, 3.0, (raster_size, raster_size))
    for a in KINDS + (raster(samples),):
        got = a.eval_grid(u, v)
        assert got.shape == shape and got.dtype == np.float64
        assert np.array_equal(got, a.eval(pts))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_eval_grid_rejects_non_finite_coordinates(bad):
    good = np.linspace(-3.0, 3.0, 5)
    for a in KINDS:
        for u, v, name in ((np.where(good > 2, bad, good), good, "u"),
                           (good, np.where(good < -2, bad, good), "v")):
            with pytest.raises(ValueError, match=f"non-finite coordinate {name}"):
                a.eval_grid(u, v)
