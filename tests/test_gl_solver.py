"""Energy quadrature, recovery competitors, the proxy energy, and descent."""

import math

import numpy as np
import pytest

from vortexlab import coefficients, gl_solver, solvers
from vortexlab.fields import CartesianGrid, VectorField2D
from vortexlab.vortex_analysis import Rectangle, VortexMeasure, detect_vortices
from vortexlab.gl_solver import (
    GLParameters,
    MinimizeBudget,
    _DescentKernel,
    core_radius_energy,
    default_grid,
    gl_energy,
    minimize_gl,
    recovery_field,
    relocated_measure,
)

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
ONE = coefficients.constant(1.0)


def _params(eps, delta=1.0, coeff=ONE, n=64):
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (n, n))
    return GLParameters(eps, delta, coeff, grid)


# -- energy quadrature ---------------------------------------------------------------


def test_parameters_validation_and_default_grid():
    with pytest.raises(ValueError):
        _params(0.0)
    with pytest.raises(ValueError):
        _params(0.1, delta=-1.0)
    grid = default_grid(UNIT, 2.0**-5)
    assert grid.h <= 2.0**-5 / 4.0 * (1 + 1e-12)
    assert grid.n[0] & (grid.n[0] - 1) == 0  # power of two


def test_gradient_term_exact_on_affine_field():
    params = _params(0.1)
    xx, yy = params.grid.node_mesh()
    v = VectorField2D(params.grid, np.stack([xx, yy], axis=-1))
    e = gl_energy(v, params)
    # |grad v|^2 = 2 on the unit square; the edge quadrature is exact
    assert e.gradient_term == pytest.approx(2.0, rel=1e-12)
    scaled = GLParameters(0.1, 1.0, coefficients.constant(3.0), params.grid)
    assert gl_energy(v, scaled).gradient_term == pytest.approx(6.0, rel=1e-12)


def test_potential_term_exact_on_constant_field():
    params = _params(0.1)
    w = np.zeros(params.grid.node_shape + (2,))
    w[..., 0] = 0.5
    v = VectorField2D(params.grid, w)
    e = gl_energy(v, params)
    assert e.gradient_term == 0.0
    # (1 - 0.25)^2 / eps^2 over a unit-area domain
    assert e.potential_term == pytest.approx(0.5625 / 0.01, rel=1e-12)
    halved = GLParameters(0.05, 1.0, ONE, params.grid)
    assert gl_energy(v, halved).potential_term == pytest.approx(
        4.0 * e.potential_term, rel=1e-12)
    assert e.total == pytest.approx(e.gradient_term + e.potential_term)


def test_energy_two_sided_coefficient_bound():
    rng = np.random.default_rng(11)
    params = _params(0.1, delta=0.25, coeff=coefficients.checkerboard(1.0, 4.0))
    v = VectorField2D(params.grid, rng.standard_normal(
        params.grid.node_shape + (2,)))
    ga = gl_energy(v, params).gradient_term
    g1 = gl_energy(v, _params(0.1)).gradient_term
    assert 1.0 * g1 <= ga <= 4.0 * g1


# -- recovery construction ------------------------------------------------------------


def test_relocated_measure_snaps_to_minimum_cells():
    coeff = coefficients.smooth_trigonometric()
    assert coeff.min_point() == pytest.approx((0.5, 0.0))
    mu = VortexMeasure((((0.52, 0.41), 1), ((0.13, 0.77), -2)), UNIT)
    out = relocated_measure(mu, coeff, 0.25)
    assert out.atoms[0][0] == pytest.approx((0.5 + 0.125, 0.25))
    assert out.atoms[0][1] == 1
    assert out.atoms[1][0] == pytest.approx((0.125, 0.75))
    assert out.atoms[1][1] == -2
    # relocation landing on the boundary leaves the open domain
    edge = VortexMeasure((((0.9, 0.5), 1),), UNIT)
    with pytest.raises(ValueError, match="leaves the domain"):
        relocated_measure(edge, coeff, 0.8)


def test_recovery_field_round_trip():
    eps = 2.0**-5
    grid = default_grid(UNIT, eps)
    params = GLParameters(eps, 1.0, ONE, grid)
    mu = VortexMeasure((((0.3, 0.35), 1), ((0.7, 0.6), -2)), UNIT)
    v = recovery_field(mu, params)
    mod = np.hypot(v.values[..., 0], v.values[..., 1])
    assert mod.max() <= 1.0 + 1e-12
    found = detect_vortices(v)
    assert len(found.atoms) == 2
    for (p, z), (q, w) in zip(sorted(found.atoms), sorted(mu.atoms)):
        assert z == w
        assert math.dist(p, q) <= 2.0 * grid.h


def test_recovery_field_validation():
    eps = 2.0**-5
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    with pytest.raises(ValueError, match="resolution"):
        recovery_field(mu, _params(eps, n=32))  # h = 1/32 > eps/4
    close = VortexMeasure((((0.5, 0.5), 1), ((0.52, 0.5), -1)), UNIT)
    grid = default_grid(UNIT, eps)
    params = GLParameters(eps, 1.0, ONE, grid)
    with pytest.raises(ValueError, match="separation"):
        recovery_field(close, params)


def test_recovery_field_at_relocated_atoms():
    # delta = sqrt(eps): the atom moves to the coefficient's minimum point
    # of its delta-cell, and the field's vortex sits there
    eps = 2.0**-5
    delta = math.sqrt(eps)
    grid = default_grid(UNIT, eps)
    coeff = coefficients.smooth_trigonometric()
    params = GLParameters(eps, delta, coeff, grid)
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    target = relocated_measure(mu, coeff, delta)
    v = recovery_field(target, params)
    found = detect_vortices(v)
    assert len(found.atoms) == 1
    assert found.atoms[0][1] == 1
    assert math.dist(found.atoms[0][0], target.atoms[0][0]) <= 2.0 * grid.h


# -- prescribed-degree proxy -----------------------------------------------------------


def test_core_radius_energy_frozen_value():
    eps = 2.0**-5
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    params = _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                     n=16)
    energy, info = core_radius_energy(mu, params, n=128)
    assert energy == pytest.approx(34.5489653, rel=1e-6)
    assert info.relative_residual <= 1e-8


def _textbook_cg(apply_operator, rhs, apply_preconditioner, *, rtol, maxiter):
    """Reference preconditioned CG, independent of `solvers.pcg`: allocates
    every update and sums with whole-array np.sum."""
    x = np.zeros_like(rhs)
    bnorm = float(np.linalg.norm(rhs))
    r = rhs.copy()
    z = apply_preconditioner(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    for it in range(1, maxiter + 1):
        ap = apply_operator(p)
        alpha = rz / float(np.sum(p * ap))
        x = x + alpha * p
        r = r - alpha * ap
        res = float(np.linalg.norm(r))
        if res <= rtol * bnorm:
            return x, solvers.SolveInfo(it, res / bnorm)
        z = apply_preconditioner(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise solvers.SolverError("budget", iterations=maxiter)


def _float64_inner_solve(monkeypatch):
    """Make `core_radius_energy`'s inner solve float64: face weights, CG
    vectors and the DCT-II preconditioner."""
    monkeypatch.setattr(gl_solver, "_INNER_DTYPE", np.float64)


def _float64_reference(monkeypatch, mu, params):
    """The proxy energy from one float64 solve to rtol 1e-12 by
    `_textbook_cg`, with the exact float64 preconditioner."""
    with monkeypatch.context() as m:
        _float64_inner_solve(m)
        m.setattr(gl_solver, "_INNER_RTOL", 1e-12)
        m.setattr(gl_solver, "pcg", _textbook_cg)
        energy, info = core_radius_energy(mu, params, rtol=1e-12)
    assert info.outer_steps == 1
    return energy


# the first three rows of the scaling study (checkerboard(1, 4), delta = eps,
# default grid of 4/eps cells): the set-up and the solver may change how
# they compute, never a bit of what, except by a change of precision.  The
# float32 preconditioner moved k = 7 by one ulp, and the float32 inner CG
# under float64 refinement moved k = 5 by 4 ulps and k = 7 by 6 (float64
# CG with a float32 preconditioner: 34.54896529298041, 43.27626179433605
# and 51.995180180934376 in 21 iterations); each pin agrees with a float64
# CG to rtol 1e-12 within 1e-12 relative.
@pytest.mark.parametrize("k, expected", [
    (5, 34.54896529298044), (6, 43.27626179433605), (7, 51.99518018093442)])
def test_core_radius_energy_scaling_rows_are_exact(monkeypatch, k, expected):
    eps = 2.0**-k
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    params = _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                     n=16)
    energy, info = core_radius_energy(mu, params)
    assert energy == expected
    assert (info.iterations, info.outer_steps) == (23, 2)
    assert info.relative_residual <= 1e-8
    reference = _float64_reference(monkeypatch, mu, params)
    assert energy == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_core_radius_energy_k7_row_with_the_float64_preconditioner(monkeypatch):
    # the same refinement with a float64 inner solve (float64 weights, CG
    # and preconditioner): the float32 one takes as many iterations
    eps = 2.0**-7
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    params = _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                     n=16)
    reference = _float64_reference(monkeypatch, mu, params)
    _float64_inner_solve(monkeypatch)
    energy, info = core_radius_energy(mu, params)
    assert energy == 51.995180180934376
    assert (info.iterations, info.outer_steps) == (23, 2)
    assert energy == pytest.approx(reference, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("rtol", [1e-8, 1e-12])
@pytest.mark.parametrize("k, atoms", [
    (5, (((0.5, 0.5), 1),)), (6, (((0.5, 0.5), 1),)), (7, (((0.5, 0.5), 1),)),
    (6, (((0.43, 0.52), 1), ((0.7, 0.3), -1)))])
def test_float32_preconditioner_keeps_iterations_and_energy(monkeypatch, k,
                                                            atoms, rtol):
    # the float32 inner solve (weights, CG and preconditioner) against the
    # float64 one under the same refinement
    eps = 2.0**-k
    mu = VortexMeasure(atoms, UNIT)
    params = _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                     n=16)
    energy, info = core_radius_energy(mu, params, rtol=rtol)
    _float64_inner_solve(monkeypatch)
    want, want_info = core_radius_energy(mu, params, rtol=rtol)
    assert info.iterations == want_info.iterations
    assert info.outer_steps == want_info.outer_steps
    assert info.relative_residual <= rtol
    assert energy == pytest.approx(want, rel=1e-13, abs=0.0)


def _one_vortex_k6():
    eps = 2.0**-6
    return (VortexMeasure((((0.5, 0.5), 1),), UNIT),
            _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                    n=16))


def test_refinement_fails_on_a_non_finite_residual(monkeypatch):
    def broken(*args, **kwargs):
        x, info = solvers.pcg(*args, **kwargs)
        x[3, 4] = np.nan
        return x, info

    monkeypatch.setattr(gl_solver, "pcg", broken)
    with pytest.raises(solvers.SolverError, match="non-finite residual") as err:
        core_radius_energy(*_one_vortex_k6())
    assert err.value.iterations > 0


def test_refinement_fails_when_a_step_does_not_lower_the_residual(monkeypatch):
    def stuck(*args, **kwargs):
        x, info = solvers.pcg(*args, **kwargs)
        return np.zeros_like(x), info

    monkeypatch.setattr(gl_solver, "pcg", stuck)
    with pytest.raises(solvers.SolverError, match="stagnated") as err:
        core_radius_energy(*_one_vortex_k6())
    assert err.value.residual == pytest.approx(1.0)


def test_refinement_counts_inner_iterations_against_one_budget(monkeypatch):
    # 50 n inner iterations in all: each step gets what the earlier left
    calls = []

    def recording(*args, maxiter, **kwargs):
        x, info = solvers.pcg(*args, maxiter=maxiter, **kwargs)
        calls.append((maxiter, info.iterations))
        return x, info

    monkeypatch.setattr(gl_solver, "pcg", recording)
    mu, params = _one_vortex_k6()
    _, info = core_radius_energy(mu, params, n=64)
    assert len(calls) == info.outer_steps == 2
    assert calls[0][0] == 50 * 64
    assert calls[1][0] == 50 * 64 - calls[0][1]
    assert info.iterations == calls[0][1] + calls[1][1]


def test_core_radius_phase_is_the_minimizer_of_the_reported_energy():
    eps, n = 2.0**-5, 128
    atoms = (((0.43, 0.52), 1), ((0.7, 0.3), -1))
    mu = VortexMeasure(atoms, UNIT)
    params = _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                     n=16)
    phi, info, faces = gl_solver._core_radius_phase(mu, params, n, 1e-8)

    def energy(psi):
        return solvers._row_sum(psi, lambda i0, i1: solvers._face_energy(
            psi, i0, i1, *faces(i0, i1)))

    e0 = energy(phi)
    assert (e0, info) == core_radius_energy(mu, params, n=n)
    # the cells inside an eps-disk, from their centres
    c = (np.arange(n) + 0.5) / n
    inactive = np.zeros((n, n), dtype=bool)
    for (ax, ay), _ in atoms:
        inactive |= (c[:, None] - ax) ** 2 + (c - ay) ** 2 <= eps**2
    assert inactive.any() and not inactive.all()
    assert np.all(phi[inactive] == 0.0)
    # the first variation vanishes: E(phi + t v) - E(phi - t v) is odd in t
    # and E's Hessian term is even, so the odd part must be rounding
    v = np.random.default_rng(3).standard_normal((n, n))
    v[inactive] = 0.0
    for t in (1e-2, 1e-3):
        plus, minus = energy(phi + t * v), energy(phi - t * v)
        even = plus + minus - 2.0 * e0
        assert even > 0.0
        assert abs(plus - minus) <= 1e-6 * even


def test_core_radius_energy_scales_with_constant_coefficient():
    eps = 2.0**-5
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    e1, _ = core_radius_energy(mu, _params(eps, delta=eps, n=16), n=128)
    e3, _ = core_radius_energy(
        mu, _params(eps, delta=eps, coeff=coefficients.constant(3.0), n=16),
        n=128)
    assert e3 == pytest.approx(3.0 * e1, rel=1e-9)
    # a = 1: between the inscribed-disk annulus cost and 2 pi |log eps|
    assert 2.0 * math.pi * math.log(0.25 / eps) <= e1
    assert e1 <= 2.0 * math.pi * abs(math.log(eps))


def test_core_radius_energy_validation():
    eps = 2.0**-5
    rect = Rectangle((0.0, 0.0), (2.0, 1.0))
    mu = VortexMeasure((((0.5, 0.5), 1),), rect)
    grid = CartesianGrid((0.0, 0.0), (2.0, 1.0), (32, 16))
    params = GLParameters(eps, eps, ONE, grid)
    with pytest.raises(ValueError, match="square"):
        core_radius_energy(mu, params)
    empty = VortexMeasure((), UNIT)
    with pytest.raises(ValueError, match="atom"):
        core_radius_energy(empty, _params(eps, n=16))


# -- descent ---------------------------------------------------------------------------


def test_minimize_monotone_holds_boundary_and_keeps_vortex():
    eps = 2.0**-4
    params = _params(eps, n=64)
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    v0 = recovery_field(mu, params)
    report = minimize_gl(v0, params, MinimizeBudget(max_iterations=800))
    assert report.converged
    # energy differences reach rounding before the stall window can fire
    assert report.stop_reason == "rounding_floor"
    assert report.energy.total < gl_energy(v0, params).total
    # strict descent at every accepted step
    assert all(b <= a for a, b in zip(report.trace, report.trace[1:]))
    assert report.trace[0] == pytest.approx(gl_energy(v0, params).total)
    assert report.trace[-1] == pytest.approx(report.energy.total)
    # boundary nodes are frozen
    for sl in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        assert np.array_equal(report.field.values[sl], v0.values[sl])
    assert len(report.vortices.atoms) == 1
    (p, z), = report.vortices.atoms
    assert z == 1
    assert math.dist(p, (0.5, 0.5)) <= 2.0 * params.grid.h


def test_minimize_budget_exhaustion_flags_not_converged():
    eps = 2.0**-4
    params = _params(eps, n=64)
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    v0 = recovery_field(mu, params)
    report = minimize_gl(v0, params, MinimizeBudget(max_iterations=3))
    assert not report.converged
    assert report.stop_reason == "budget"
    assert report.iterations == 3


def test_minimized_energy_obeys_two_sided_coefficient_bound():
    eps = 2.0**-5
    grid = default_grid(UNIT, eps)
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    budget = MinimizeBudget(max_iterations=1500)
    p1 = GLParameters(eps, eps, ONE, grid)
    r1 = minimize_gl(recovery_field(mu, p1), p1, budget)
    pa = GLParameters(eps, eps, coefficients.checkerboard(1.0, 4.0), grid)
    ra = minimize_gl(recovery_field(mu, pa), pa, budget)
    assert r1.converged and ra.converged
    assert r1.energy.total == pytest.approx(22.665003, rel=1e-4)
    assert ra.energy.total == pytest.approx(41.123962, rel=1e-4)
    assert 1.0 * r1.energy.total <= ra.energy.total <= 4.0 * r1.energy.total


def test_minimize_stops_at_zero_gradient_on_uniform_field():
    params = _params(0.1, n=16)
    w = np.zeros(params.grid.node_shape + (2,))
    w[..., 0] = 1.0
    report = minimize_gl(VectorField2D(params.grid, w), params)
    assert report.stop_reason == "zero_gradient"
    assert report.converged
    assert report.iterations == 0


def test_minimize_non_finite_start_is_a_line_search_failure():
    params = _params(0.1, n=16)
    w = np.zeros(params.grid.node_shape + (2,))
    w[..., 0] = 1.0
    w[8, 8, 0] = np.nan
    with np.errstate(invalid="ignore"):
        report = minimize_gl(VectorField2D(params.grid, w), params)
    assert report.stop_reason == "line_search"
    assert not report.converged


def test_line_search_quartic_matches_energy_differences():
    # E(w + t d) - E(w) through the public gl_energy, against the quartic
    # whose coefficients the descent computes
    eps = 2.0**-3
    params = _params(eps, delta=eps, coeff=coefficients.checkerboard(1.0, 4.0),
                     n=32)
    v = recovery_field(VortexMeasure((((0.5, 0.5), 1),), UNIT), params)
    rng = np.random.default_rng(8)
    d = np.zeros_like(v.values)
    d[1:-1, 1:-1] = 0.1 * rng.standard_normal(d[1:-1, 1:-1].shape)

    kernel = _DescentKernel(params.grid, params)
    w = np.moveaxis(v.values, -1, 0).copy(order="C")
    g = np.empty_like(w)
    defect = np.empty(params.grid.node_shape)
    e0 = gl_energy(v, params).total
    assert kernel.energy_gradient(w, g, defect) == pytest.approx(e0, rel=1e-13)
    c1 = float(np.vdot(g, np.moveaxis(d, -1, 0)))
    c2, c3, c4 = kernel.quartic(w, defect, np.moveaxis(d, -1, 0).copy(order="C"))
    for t in (-0.5, 0.05, 0.3, 1.0, 2.0):
        moved = VectorField2D(params.grid, v.values + t * d)
        exact = gl_energy(moved, params).total - e0
        assert c1 * t + c2 * t**2 + c3 * t**3 + c4 * t**4 == pytest.approx(
            exact, rel=1e-10)


# (c1, c2, c3, c4) of every 40th line search of a 400-iteration descent on
# a 128^2 grid (checkerboard(1, 4), eps = delta = 2^-5, a +-1 pair from
# `recovery_field`)
RECORDED_QUARTICS = [
    (-819.6817465523369, 8310.97567279307, -65.27272665712316, 93.78098931135303),
    (-13.362600284557667, 88.59938741094945, 5.9815468895174355, 17.828634718879663),
    (-6.352385424061994, 37.10223839153105, 1.0600264394011745, 0.1504419087926325),
    (-0.7442040797442702, 4.429400584746656, -0.0026521191555186367,
     0.002068415189759331),
    (-0.09812240597905579, 0.6467443780827123, -0.0007575125954770839,
     2.2632105609282156e-05),
    (-0.007081982082980598, 0.040385400785505746, 3.8121090776494842e-06,
     1.663665018153105e-07),
    (-0.004254758808921055, 0.025113284081867093, 1.4973301351110163e-05,
     3.5450153377881287e-07),
    (-0.0007317660945573007, 0.004599474196454119, -8.004446114906863e-07,
     2.9695827047256378e-09),
    (-6.230086104931477e-05, 0.0004049028965027584, -5.413302519692231e-09,
     1.1877535024509926e-11),
    (-1.0341876050421164e-05, 6.399889772343524e-05, 7.730146493203567e-10,
     4.448145035918133e-13),
]
# phi'(t) = 4 c4 t^3 + 3 c3 t^2 + 2 c2 t + c1 with known roots
CONSTRUCTED_QUARTICS = {
    # 4 (t - 1)(t^2 + 1): one real root
    "one real root": (-4.0, 2.0, -4.0 / 3.0, 1.0),
    # 4 (t - 0.5)(t - 1.5)(t - 3): minima at 0.5 and 3, the lower at 3
    "three real roots": (-9.0, 13.5, -20.0 / 3.0, 1.0),
    # 4 (t - 0.2)(t - 1.5)(t - 2): minima at 0.2 and 2, the lower at 0.2
    "three real roots, the first lowest": (-2.4, 7.4, -14.8 / 3.0, 1.0),
    # 4 (t - 1)^2 (t - 3): a double root below the minimum
    "double root": (-12.0, 14.0, -20.0 / 3.0, 1.0),
    # 4 (t - 1)(t - 2)^2: the minimum below a double root
    "double root above": (-16.0, 16.0, -20.0 / 3.0, 1.0),
    "c3 = 0, one real root": (-1.0, 2.0, 0.0, 0.5),
    "c3 = 0, three real roots": (-0.5, -3.0, 0.0, 1.0),
}


def _numpy_quartic_step(c1, c2, c3, c4):
    """The step as `np.roots` gives it: the lowest phi over the real parts
    of the roots of phi' that are positive."""
    ts = np.roots((4.0 * c4, 3.0 * c3, 2.0 * c2, c1)).real
    ts = ts[ts > 0.0]
    phis = (((c4 * ts + c3) * ts + c2) * ts + c1) * ts
    i = int(np.argmin(phis))
    return float(ts[i]), float(phis[i])


@pytest.mark.parametrize("coeffs", RECORDED_QUARTICS
                         + list(CONSTRUCTED_QUARTICS.values()),
                         ids=[f"descent-{i}" for i in range(len(RECORDED_QUARTICS))]
                         + list(CONSTRUCTED_QUARTICS))
def test_closed_form_step_matches_numpy_roots(monkeypatch, coeffs):
    want_t, want_phi = _numpy_quartic_step(*coeffs)
    t, phi = gl_solver._quartic_step(*coeffs)
    assert t == pytest.approx(want_t, rel=1e-12, abs=0.0)
    assert phi == pytest.approx(want_phi, rel=1e-12, abs=0.0)
    # and the closed form answers without the fallback
    monkeypatch.setattr(gl_solver.np, "roots", None)
    assert gl_solver._quartic_step(*coeffs) == (t, phi)


def test_step_falls_back_to_numpy_roots(monkeypatch):
    # when every closed-form root misses the residual check, and when
    # phi' is a quadratic (c4 = 0), np.roots gives the step
    monkeypatch.setattr(gl_solver, "_CUBIC_RTOL", -1.0)
    for coeffs in CONSTRUCTED_QUARTICS.values():
        assert gl_solver._quartic_step(*coeffs) == _numpy_quartic_step(*coeffs)
    monkeypatch.undo()
    assert gl_solver._quartic_step(-2.0, 1.0, 0.0, 0.0) == (1.0, -1.0)
    assert math.isnan(gl_solver._quartic_step(math.inf, 1.0, 0.0, 1.0)[0])


def _checkerboard_recovery(k):
    eps = 2.0**-k
    params = GLParameters(eps, eps, coefficients.checkerboard(1.0, 4.0),
                          default_grid(UNIT, eps))
    mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    return recovery_field(mu, params), params


def test_stall_count_is_insensitive_to_rounding_noise_in_the_start():
    v0, params = _checkerboard_recovery(5)
    counts = []
    for seed in (None, 1, 2, 3):
        values = v0.values.copy()
        if seed is not None:
            rng = np.random.default_rng(seed)
            values[1:-1, 1:-1] += 1e-10 * rng.standard_normal(
                values[1:-1, 1:-1].shape)
        report = minimize_gl(VectorField2D(params.grid, values), params)
        assert report.stop_reason == "stalled"
        counts.append(report.iterations)
    assert max(counts) <= 1.02 * min(counts), counts


def test_descent_iterations_are_mesh_independent():
    counts = []
    for k in (5, 6):
        v0, params = _checkerboard_recovery(k)
        report = minimize_gl(v0, params)
        assert report.converged
        counts.append(report.iterations)
    assert max(counts) <= 2 * min(counts), counts
