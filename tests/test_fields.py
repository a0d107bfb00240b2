"""Grids and field validation."""

import math

import numpy as np
import pytest

from vortexlab.fields import (
    CartesianGrid,
    PolarGrid,
    ScalarField2D,
    VectorField2D,
)


def test_cartesian_grid_basics():
    g = CartesianGrid((0.0, 0.0), (1.0, 2.0), (8, 16))
    assert g.h == pytest.approx(0.125)
    assert g.node_shape == (9, 17)
    x, y = g.node_axes()
    assert x[0] == 0.0 and x[-1] == 1.0
    assert y[0] == 0.0 and y[-1] == 2.0


def test_cartesian_grid_validation():
    with pytest.raises(ValueError):
        CartesianGrid((0.0, 0.0), (1.0, 1.0), (2, 2))  # too coarse
    with pytest.raises(ValueError):
        CartesianGrid((0.0, 0.0), (1.0, 1.0), (8, 12))  # non-square cells


def test_polar_grid_log_spacing():
    g = PolarGrid((0.0, 0.0), 0.1, 10.0, 16, 32)
    rho = g.rho()
    assert rho[0] == pytest.approx(0.1)
    assert rho[-1] == pytest.approx(10.0)
    ratios = rho[1:] / rho[:-1]
    assert np.allclose(ratios, ratios[0])
    th = g.theta()
    assert th[0] == 0.0
    assert len(th) == 32  # periodic, no duplicate seam node
    assert th[-1] < 2.0 * math.pi


def test_vector_field_shape_validation():
    g = CartesianGrid((0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(ValueError):
        VectorField2D(g, np.zeros((9, 9)))  # missing component axis
    with pytest.raises(ValueError):
        ScalarField2D(g, np.zeros((8, 8)))  # node shape mismatch


def test_scalar_jump_only_on_polar():
    g = CartesianGrid((0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(ValueError):
        ScalarField2D(g, np.zeros(g.node_shape), jump=1.0)
