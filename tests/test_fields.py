"""Grids and field validation."""

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


def test_vector_field_shape_validation():
    g = CartesianGrid((0.0, 0.0), (1.0, 1.0), (8, 8))
    with pytest.raises(ValueError):
        VectorField2D(g, np.zeros((9, 9)))  # missing component axis
    with pytest.raises(ValueError):
        ScalarField2D(g, np.zeros((8, 8)))  # node shape mismatch


def test_fields_need_a_cartesian_grid():
    g = PolarGrid((0.0, 0.0), 0.1, 10.0, 16, 32)
    with pytest.raises(ValueError, match="CartesianGrid"):
        VectorField2D(g, np.zeros((16, 32, 2)))
    with pytest.raises(ValueError, match="CartesianGrid"):
        ScalarField2D(g, np.zeros((16, 32)))
