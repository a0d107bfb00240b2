"""Effective-tensor solver: exact cases, reference values, extrapolation."""

import math
import warnings

import numpy as np
import pytest

from vortexlab.cell_problem import (
    HomogenizedTensor,
    _extrapolate,
    homogenized_tensor,
    refine_tensor,
    solve_corrector,
)
from vortexlab.coefficients import (
    checkerboard,
    constant,
    laminate,
    smooth_trigonometric,
)


def test_constant_coefficient_is_exact():
    t = homogenized_tensor(constant(3.0), n=32)
    assert t.a11 == pytest.approx(3.0, abs=1e-12)
    assert t.a22 == pytest.approx(3.0, abs=1e-12)
    assert t.a12 == pytest.approx(0.0, abs=1e-12)
    assert t.residual <= 1e-9


def test_laminate_harmonic_arithmetic_means():
    # layers normal to e2: harmonic mean across, arithmetic mean along
    t = homogenized_tensor(laminate(1.0, 4.0, direction=(0.0, 1.0)), n=64)
    harm = 2.0 / (1.0 / 1.0 + 1.0 / 4.0)  # 1.6
    arit = 0.5 * (1.0 + 4.0)  # 2.5
    assert t.a22 == pytest.approx(harm, rel=1e-9)
    assert t.a11 == pytest.approx(arit, rel=1e-9)
    assert abs(t.a12) < 1e-9
    assert t.eig_min == pytest.approx(1.6, rel=1e-9)
    assert t.eig_max == pytest.approx(2.5, rel=1e-9)


def test_laminate_rotated_direction_swaps_axes():
    t = homogenized_tensor(laminate(1.0, 4.0, direction=(1.0, 0.0)), n=64)
    assert t.a11 == pytest.approx(1.6, rel=1e-9)
    assert t.a22 == pytest.approx(2.5, rel=1e-9)


def test_checkerboard_geometric_mean():
    # reference value sqrt(alpha beta) = 2; finite-volume value at n=128
    t = homogenized_tensor(checkerboard(1.0, 4.0), n=128)
    assert t.a11 == pytest.approx(2.0, rel=0.01)
    assert t.a11 == pytest.approx(t.a22, rel=1e-9)  # diagonal symmetry
    assert abs(t.a12) < 1e-9
    # self-duality: det is exactly alpha*beta in the continuum
    assert t.det == pytest.approx(4.0, rel=0.01)


def test_checkerboard_richardson_extrapolation():
    ref = refine_tensor(checkerboard(1.0, 4.0), [64, 128, 256])
    assert ref.tensor.a11 == pytest.approx(2.0, rel=1e-4)
    assert ref.tensor.a22 == pytest.approx(2.0, rel=1e-4)
    assert len(ref.table) == 3
    assert ref.orders["a11"] is not None and ref.orders["a11"] > 0.5
    assert not ref.warning


@pytest.mark.parametrize("ns", [[64, 128], [64, 256]], ids=["ratio2", "ratio4"])
def test_two_value_extrapolation_is_exact_on_first_order_defects(ns):
    # A + C/n loses its defect at any grid ratio, not only at 2
    values = [2.0 + 5.0 / n for n in ns]
    value, order, warn = _extrapolate(values, ns)
    assert value == pytest.approx(2.0, abs=1e-15)
    assert order is None and not warn


def test_smooth_coefficient_reference_value():
    # a = 2 + cos(2 pi y1) cos(2 pi y2): isotropic effective tensor
    t = homogenized_tensor(smooth_trigonometric(), n=256)
    assert t.a11 == pytest.approx(t.a22, rel=1e-7)
    assert abs(t.a12) < 1e-7
    assert t.a11 == pytest.approx(1.9353490, abs=2e-4)
    # strictly between harmonic and arithmetic bounds
    assert 1.0 < t.a11 < 2.0


def test_corrector_solution_contract():
    sol = solve_corrector(checkerboard(1.0, 4.0), (1.0, 0.0), n=64)
    assert sol.residual <= 1e-9
    assert sol.iterations > 0
    assert abs(sol.phi.values.mean()) < 1e-10
    assert sol.energy > 0.0


def test_corrector_energy_is_tensor_entry():
    coeff = laminate(1.0, 4.0, direction=(0.0, 1.0))
    e1 = solve_corrector(coeff, (1.0, 0.0), n=64).energy
    e2 = solve_corrector(coeff, (0.0, 1.0), n=64).energy
    assert e1 == pytest.approx(2.5, rel=1e-9)
    assert e2 == pytest.approx(1.6, rel=1e-9)


def test_refine_requires_increasing_resolutions():
    with pytest.raises(ValueError):
        refine_tensor(constant(1.0), [64, 64, 128])
    with pytest.raises(ValueError):
        refine_tensor(constant(1.0), [128, 64])


def test_tensor_json_dict_keys():
    t = homogenized_tensor(constant(2.0), n=32)
    d = t.to_json_dict()
    for key in ("a11", "a12", "a22", "det", "eig_min", "eig_max", "n",
                "residual"):
        assert key in d
    assert d["det"] == pytest.approx(4.0, abs=1e-10)


def test_tensor_eigenvalues_closed_form():
    t = HomogenizedTensor(2.0, 0.5, 1.0, 0, 0.0)
    w = np.linalg.eigvalsh(np.array([[2.0, 0.5], [0.5, 1.0]]))
    assert t.eig_min == pytest.approx(w[0], rel=1e-12)
    assert t.eig_max == pytest.approx(w[1], rel=1e-12)
    assert t.det == pytest.approx(np.linalg.det(t.matrix()), rel=1e-12)


def test_resolution_floor():
    with pytest.raises(ValueError):
        homogenized_tensor(constant(1.0), n=8)
