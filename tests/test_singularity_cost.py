"""Annulus minima, per-vortex cost limits, and the splitting relaxation."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import coefficients, singularity_cost, solvers
from vortexlab.cell_problem import HomogenizedTensor
from vortexlab.fields import PolarGrid
from vortexlab.solvers import SolverError
from vortexlab.vortex_analysis import Rectangle, VortexMeasure
from vortexlab.singularity_cost import (
    AnnulusProblem,
    capital_psi,
    min_annulus_energy,
    oscillating_annulus_grid,
    predicted_gamma_limit,
    psi_of_z,
)

IDENTITY = HomogenizedTensor(1.0, 0.0, 1.0, 0, 0.0)


# -- problem validation -------------------------------------------------------------


def test_problem_validation():
    grid = PolarGrid((0.0, 0.0), 1.0, 10.0, 97, 64)
    with pytest.raises(ValueError):
        AnnulusProblem(grid, 0, tensor=IDENTITY)  # zero charge
    with pytest.raises(ValueError):
        AnnulusProblem(grid, 1)  # neither mode configured
    with pytest.raises(ValueError):
        AnnulusProblem(grid, 1, tensor=IDENTITY,
                       coefficient=coefficients.constant(1.0), delta=0.5)
    with pytest.raises(ValueError):
        AnnulusProblem(grid, 1, coefficient=coefficients.constant(1.0))
    # oscillation unresolved: cells near r_inner are far wider than delta/6
    with pytest.raises(ValueError, match="unresolved"):
        AnnulusProblem(grid, 1, coefficient=coefficients.constant(1.0),
                       delta=1e-3)


def test_grid_builder_resolves_inner_radius():
    g = oscillating_annulus_grid(1.0, 8.0, 0.5)
    # cell size near r_inner must not exceed delta / cells_per_period
    ds = math.log(8.0) / (g.n_r - 1)
    assert max(ds, g.dtheta) * 1.0 <= 0.5 / 8.0 * (1 + 1e-12)
    with pytest.raises(ValueError):
        oscillating_annulus_grid(1.0, 8.0, 0.5, cells_per_period=4.0)


@pytest.mark.parametrize("r_inner, r_outer, delta, message", [
    (1.0, 100.0, -0.1, "delta"),
    (1.0, 100.0, 0.0, "delta"),
    (1.0, 100.0, math.nan, "delta"),
    (1.0, 100.0, math.inf, "delta"),
    (0.0, 100.0, 0.1, "radii"),
    (-1.0, 100.0, 0.1, "radii"),
    (math.nan, 100.0, 0.1, "radii"),
    (1.0, math.inf, 0.1, "radii"),
    (1.0, 0.5, 0.1, "radii"),
    (1.0, 1.0, 0.1, "radii"),
    (1.0, 100.0, 1e-300, "more float64 cells"),
], ids=["negative-delta", "zero-delta", "nan-delta", "inf-delta",
        "zero-r-inner", "negative-r-inner", "nan-r-inner", "inf-r-outer",
        "inverted-radii", "equal-radii", "delta-too-fine"])
def test_grid_builder_rejects_bad_inputs(r_inner, r_outer, delta, message):
    # each used to return a grid or fail with another error (ZeroDivisionError,
    # OverflowError, NaN to integer)
    with pytest.raises(ValueError, match=message):
        oscillating_annulus_grid(r_inner, r_outer, delta)
    with pytest.raises(ValueError, match="cells_per_period"):
        oscillating_annulus_grid(1.0, 8.0, 0.5, cells_per_period=math.nan)


# -- homogenized mode ----------------------------------------------------------------


def test_isotropic_annulus_is_exact():
    # for an isotropic tensor the pure phase u = z*theta is the minimizer,
    # and the element quadrature integrates it exactly
    grid = PolarGrid((0.0, 0.0), 1.0, 100.0, 222, 256)
    exact = 2.0 * math.pi * math.log(100.0)
    energy, info = min_annulus_energy(AnnulusProblem(grid, 1, tensor=IDENTITY))
    assert energy == pytest.approx(exact, rel=1e-12)
    assert info.iterations == 1
    energy2, _ = min_annulus_energy(AnnulusProblem(grid, 2, tensor=IDENTITY))
    assert energy2 == pytest.approx(4.0 * exact, rel=1e-12)


def test_anisotropic_limit_approaches_det_rule():
    # diag(1, 4): the large-annulus cost per log R tends to 2 pi sqrt(det)
    tensor = HomogenizedTensor(1.0, 0.0, 4.0, 0, 0.0)
    est = psi_of_z(1, [10.0, 31.6227766, 100.0], tensor=tensor)
    assert est.mode == "homogenized"
    assert est.value == pytest.approx(12.5342044, rel=1e-6)
    assert est.value == pytest.approx(4.0 * math.pi, rel=0.01)
    assert not est.warning
    assert est.alpha == pytest.approx(1.0)
    assert est.beta == pytest.approx(4.0)


def test_psi_identity_fit_is_flat():
    est = psi_of_z(1, [5.0, 10.0, 20.0], tensor=IDENTITY)
    assert est.value == pytest.approx(2.0 * math.pi, rel=1e-10)
    assert abs(est.fit_constant) < 1e-9
    assert est.fit_residual < 1e-9
    raw = [row[3] for row in est.schedule]
    assert np.allclose(raw, 2.0 * math.pi, rtol=1e-12)


def test_psi_schedule_validation():
    with pytest.raises(ValueError):
        psi_of_z(1, [10.0, 20.0], tensor=IDENTITY)  # too few ratios
    with pytest.raises(ValueError):
        psi_of_z(1, [10.0, 10.0, 20.0], tensor=IDENTITY)  # not increasing


def test_psi_json_round_trip():
    est = psi_of_z(1, [5.0, 10.0, 20.0], tensor=IDENTITY)
    d = est.to_json_dict()
    assert d["z"] == 1
    assert d["mode"] == "homogenized"
    assert len(d["schedule"]) == 3
    assert d["schedule"][0]["delta"] is None
    assert d["value"] == pytest.approx(est.value)


# -- the preconditioned CG solve against the sparse direct one -----------------------


def _assemble(k_el, n_r):
    """COO assembly of the per-column element matrices `k_el` on n_r node
    rows, independent of the matrix-free apply it checks; returns the
    matrix and the node numbers of each element's corners."""
    n_theta = len(k_el)
    jj, kk = np.meshgrid(np.arange(n_r - 1), np.arange(n_theta), indexing="ij")
    corners = np.stack([jj * n_theta + kk, (jj + 1) * n_theta + kk,
                        jj * n_theta + (kk + 1) % n_theta,
                        (jj + 1) * n_theta + (kk + 1) % n_theta],
                       axis=-1)  # (n_r - 1, n_theta, 4), local node order
    rows = np.repeat(corners[:, :, :, None], 4, axis=3)
    cols = np.repeat(corners[:, :, None, :], 4, axis=2)
    values = np.broadcast_to(k_el, (n_r - 1, n_theta, 4, 4))
    n = n_r * n_theta
    k_mat = sp.coo_matrix((values.ravel(), (rows.ravel(), cols.ravel())),
                          shape=(n, n)).tocsr()
    return k_mat, corners


def _element_matrices(problem):
    grid = problem.grid
    ds = math.log(grid.r_outer / grid.r_inner) / (grid.n_r - 1)
    return singularity_cost._q1_element_matrices(
        problem.tensor.matrix(), ds, grid.dtheta, grid.n_theta)


def _coo_system(problem):
    """The assembled Q1 system of the homogenized mode, energy(phi) =
    phi.K.phi + 2 f.phi + const over the nodes."""
    nr, z = problem.grid.n_r, problem.z
    k_el, f_el, const = _element_matrices(problem)
    k_mat, corners = _assemble(k_el, nr)
    f_vec = np.zeros(k_mat.shape[0])
    np.add.at(f_vec, corners.ravel(),
              z * np.broadcast_to(f_el, corners.shape).ravel())
    return k_mat, f_vec, z * z * const * (nr - 1)


def _spsolve_energy(problem):
    """Reference homogenized minimum: a sparse direct solve of the
    assembled system."""
    k_mat, f_vec, const = _coo_system(problem)
    n_dof = k_mat.shape[0]
    nt = problem.grid.n_theta
    # fixed trace: interior nodes only; free: pin one node, then re-center
    keep = (np.arange(nt, n_dof - nt) if problem.fixed_trace
            else np.arange(1, n_dof))
    phi = np.zeros(n_dof)
    phi[keep] = spla.spsolve(k_mat[keep][:, keep].tocsc(), -f_vec[keep])
    if not problem.fixed_trace:
        phi -= phi.mean()
    return float(phi @ (k_mat @ phi) + 2.0 * (f_vec @ phi) + const)


class _AssembledStiffness:
    """`singularity_cost._Q1Stiffness` through the COO-assembled matrix."""

    def __init__(self, k_el, n_r, rows):
        keep = np.arange(n_r * len(k_el)).reshape(n_r, -1)[rows].ravel()
        self.k_in = _assemble(k_el, n_r)[0][keep][:, keep]

    def __call__(self, v):
        return (self.k_in @ v.ravel()).reshape(v.shape)


@settings(max_examples=40, deadline=None)
@given(
    a11=st.floats(0.2, 5.0),
    a22=st.floats(0.2, 5.0),
    tilt=st.floats(0.05, 0.95) | st.floats(-0.95, -0.05),
    ratio=st.floats(1.5, 200.0),
    n_r=st.integers(8, 14),
    n_theta=st.integers(16, 23),
    z=st.integers(1, 3) | st.integers(-3, -1),
    fixed_trace=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_matrix_free_q1_apply_matches_coo_assembly(a11, a22, tilt, ratio, n_r,
                                                   n_theta, z, fixed_trace,
                                                   seed):
    # an SPD tensor with a12 != 0 couples both diagonals of each element
    tensor = HomogenizedTensor(a11, tilt * math.sqrt(a11 * a22), a22, 0, 0.0)
    grid = PolarGrid((0.0, 0.0), 1.0, ratio, n_r, n_theta)
    problem = AnnulusProblem(grid, z, tensor=tensor, fixed_trace=fixed_trace)
    k_el, f_el, _ = _element_matrices(problem)
    rows = slice(1, n_r - 1) if fixed_trace else slice(None)
    stiffness = singularity_cost._Q1Stiffness(k_el, n_r, rows)
    k_in = _AssembledStiffness(k_el, n_r, rows).k_in
    shape = (k_in.shape[0] // n_theta, n_theta)
    rng = np.random.default_rng(seed)
    u, v = rng.standard_normal((2,) + shape)

    def magnitude(w):  # per entry, the sum of the magnitudes of its terms
        return (abs(k_in) @ np.abs(w).ravel()).reshape(shape)

    ku = stiffness(u)
    assert ku.shape == shape
    assert np.all(np.abs(ku - (k_in @ u.ravel()).reshape(shape))
                  <= 1e-13 * magnitude(u))
    # symmetric
    assert (abs(np.vdot(v, ku) - np.vdot(u, stiffness(v)))
            <= 1e-13 * np.vdot(np.abs(v), magnitude(u)))
    # free circles: the constants are its kernel
    if not fixed_trace:
        ones = np.ones(shape)
        assert np.all(np.abs(stiffness(ones)) <= 1e-13 * magnitude(ones))
    # the z-load is scattered from the element loads the same way
    _, f_vec, _ = _coo_system(problem)
    load = singularity_cost._scatter([z * f_el[:, a] for a in range(4)],
                                     n_r, n_theta)
    assert np.allclose(load.ravel(), f_vec, rtol=0.0,
                       atol=1e-13 * np.abs(f_vec).max())


LAMINATE = HomogenizedTensor(2.5, 0.0, 1.6, 0, 0.0)  # laminate(1, 4) normal to e2


@pytest.mark.parametrize("tensor", [
    IDENTITY,
    HomogenizedTensor(1.0, 0.0, 4.0, 0, 0.0),
    HomogenizedTensor(1.0, 0.3, 4.0, 0, 0.0),
    LAMINATE,
], ids=["identity", "diag-1-4", "full-1-0.3-4", "laminate"])
@pytest.mark.parametrize("fixed_trace", [False, True], ids=["free", "fixed"])
def test_cg_solve_matches_sparse_direct(tensor, fixed_trace):
    for ratio, n_r in ((4.0, 25), (30.0, 49)):
        grid = PolarGrid((0.0, 0.0), 1.0, ratio, n_r, 32)
        for z in (1, 2):
            problem = AnnulusProblem(grid, z, tensor=tensor,
                                     fixed_trace=fixed_trace)
            energy, _ = min_annulus_energy(problem)
            assert energy == pytest.approx(_spsolve_energy(problem),
                                           rel=1e-12, abs=0.0)


TENSORS = [
    HomogenizedTensor(1.9979, 0.0, 1.9979, 0, 0.0),
    HomogenizedTensor(1.0, 0.3, 4.0, 0, 0.0),
    LAMINATE,
]


@pytest.mark.parametrize("tensor", TENSORS,
                         ids=["near-isotropic", "full-1-0.3-4", "laminate"])
@pytest.mark.parametrize("fixed_trace", [False, True], ids=["free", "fixed"])
def test_homogenized_energy_matches_the_assembled_apply(monkeypatch, tensor,
                                                        fixed_trace):
    # the psi table's largest annulus; the same CG on the assembled matrix
    grid = PolarGrid((0.0, 0.0), 1.0, 100.0, 222, 256)
    results = []
    for stiffness in (singularity_cost._Q1Stiffness, _AssembledStiffness):
        monkeypatch.setattr(singularity_cost, "_Q1Stiffness", stiffness)
        results.append([
            min_annulus_energy(AnnulusProblem(grid, z, tensor=tensor,
                                              fixed_trace=fixed_trace))
            for z in (1, 2)])
    for (free, free_info), (assembled, assembled_info) in zip(*results):
        assert free_info.iterations == assembled_info.iterations
        assert free == pytest.approx(assembled, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("fixed_trace", [False, True], ids=["free", "fixed"])
def test_isotropic_annulus_takes_one_cg_iteration(fixed_trace):
    # the preconditioner is the exact inverse of the isotropic operator
    tensor = HomogenizedTensor(2.0, 0.0, 2.0, 0, 0.0)
    grid = PolarGrid((0.0, 0.0), 1.0, 30.0, 164, 64)
    for z in (1, 2):
        energy, info = min_annulus_energy(
            AnnulusProblem(grid, z, tensor=tensor, fixed_trace=fixed_trace))
        assert energy == pytest.approx(4.0 * math.pi * z * z * math.log(30.0),
                                       rel=1e-12)
        assert info.iterations == 1
    # an anisotropic tensor still converges, in a few dozen iterations
    _, info = min_annulus_energy(AnnulusProblem(
        grid, 1, tensor=HomogenizedTensor(1.0, 0.3, 4.0, 0, 0.0),
        fixed_trace=fixed_trace))
    assert 1 < info.iterations <= 40


def test_homogenized_stall_is_wrapped(monkeypatch):
    def stall(*args, **kwargs):
        raise SolverError("budget", residual=0.5, iterations=7)

    monkeypatch.setattr(singularity_cost, "pcg", stall)
    grid = PolarGrid((0.0, 0.0), 1.0, 4.0, 25, 32)
    with pytest.raises(SolverError, match="annulus solve stalled") as err:
        min_annulus_energy(AnnulusProblem(grid, 1, tensor=IDENTITY))
    assert err.value.iterations == 7
    assert err.value.residual == 0.5


# -- oscillating mode ----------------------------------------------------------------


def test_constant_coefficient_annulus_exact_both_modes():
    # with a constant coefficient the corrector vanishes, so both boundary
    # treatments reproduce c * 2 pi z^2 log R to machine precision
    coeff = coefficients.constant(2.0)
    grid = oscillating_annulus_grid(1.0, 8.0, 0.5)
    exact = 2.0 * 2.0 * math.pi * math.log(8.0)
    for fixed in (False, True):
        problem = AnnulusProblem(grid, 1, coefficient=coeff, delta=0.5,
                                 fixed_trace=fixed)
        energy, _ = min_annulus_energy(problem)
        assert energy == pytest.approx(exact, rel=1e-12)


def test_checkerboard_annulus_bracketed_and_ordered():
    coeff = coefficients.checkerboard(1.0, 4.0)
    grid = oscillating_annulus_grid(1.0, 8.0, 0.25)
    free, _ = min_annulus_energy(
        AnnulusProblem(grid, 1, coefficient=coeff, delta=0.25))
    pinned, _ = min_annulus_energy(
        AnnulusProblem(grid, 1, coefficient=coeff, delta=0.25,
                       fixed_trace=True))
    log_r = math.log(8.0)
    assert 2.0 * math.pi * 1.0 * log_r <= free <= 2.0 * math.pi * 4.0 * log_r
    # pinning the boundary trace shrinks the admissible class
    assert pinned >= free - 1e-12
    assert free == pytest.approx(26.1544735, rel=1e-6)
    assert pinned == pytest.approx(26.3178332, rel=1e-6)
    # the period-delta medium lies closer to its homogenized cost
    # 2 pi sqrt(det A_hom) log 8 = 4 pi log 8 than the period-1 medium does
    period_one, _ = min_annulus_energy(
        AnnulusProblem(grid, 1, coefficient=coeff, delta=1.0))
    limit = 4.0 * math.pi * log_r
    assert abs(free - limit) < abs(period_one - limit)


def test_oscillating_annulus_takes_its_products_in_row_passes(monkeypatch):
    # CG takes p . Ap in the operator's row pass and r . z in the inverse's
    # last pass, so `dot` runs once, for the right-hand side's norm
    calls = []
    plain = solvers.dot

    def counting(u, v):
        calls.append(u.shape)
        return plain(u, v)

    monkeypatch.setattr(solvers, "dot", counting)
    grid = oscillating_annulus_grid(1.0, 8.0, 0.25)
    _, info = min_annulus_energy(AnnulusProblem(
        grid, 1, coefficient=coefficients.checkerboard(1.0, 4.0), delta=0.25))
    assert info.iterations > 1
    assert len(calls) == 1


def _dense_oscillating_energy(problem):
    """Reference oscillating minimum: the finite-volume energy sum over
    faces, sum w (D phi + c)^2, assembled face by face as dense matrices
    and minimized by numpy.linalg least squares."""
    grid, z = problem.grid, problem.z
    ns, nt = grid.n_r - 1, grid.n_theta
    s0 = math.log(grid.r_inner)
    ds = (math.log(grid.r_outer) - s0) / ns
    dt = 2.0 * math.pi / nt

    def a(s, t):
        x = grid.center[0] + math.exp(s) * math.cos(t)
        y = grid.center[1] + math.exp(s) * math.sin(t)
        return float(problem.coefficient.eval(np.array([x, y]) / problem.delta))

    faces = []  # (weight, {cell: coefficient}, constant)
    for k in range(nt):
        tc = (k + 0.5) * dt
        for j in range(1, ns):  # radial faces between rows j - 1 and j
            faces.append((a(s0 + j * ds, tc) * dt / ds,
                          {(j, k): 1.0, (j - 1, k): -1.0}, 0.0))
        for j in range(ns):  # angular faces between columns k and k + 1
            faces.append((a(s0 + (j + 0.5) * ds, (k + 1) * dt) * ds / dt,
                          {(j, (k + 1) % nt): 1.0, (j, k): -1.0}, z * dt))
        if problem.fixed_trace:  # phi = 0 half a cell beyond each end row
            for j, s in ((0, s0), (ns - 1, s0 + ns * ds)):
                faces.append((2.0 * a(s, tc) * dt / ds, {(j, k): 1.0}, 0.0))
    d = np.zeros((len(faces), ns * nt))
    w = np.array([face[0] for face in faces])
    c = np.array([face[2] for face in faces])
    for row, (_, cells, _) in enumerate(faces):
        for (j, k), value in cells.items():
            d[row, j * nt + k] = value
    root = np.sqrt(w)
    phi = np.linalg.lstsq(root[:, None] * d, -root * c, rcond=None)[0]
    return float(np.sum(w * (d @ phi + c) ** 2))


@pytest.mark.parametrize("fixed_trace", [False, True], ids=["free", "fixed"])
def test_oscillating_annulus_matches_dense_oracle(fixed_trace):
    grid = PolarGrid((0.3, -0.2), 1.0, 2.0, 9, 24)
    coeff = coefficients.smooth_trigonometric()
    for z in (1, -2):
        problem = AnnulusProblem(grid, z, coefficient=coeff, delta=2.0,
                                 fixed_trace=fixed_trace)
        energy, _ = min_annulus_energy(problem)
        assert energy == pytest.approx(_dense_oscillating_energy(problem),
                                       rel=1e-10)


@pytest.mark.parametrize("ratio, delta", [(8.0, 0.25), (100.0, 0.1)])
def test_fixed_trace_annulus_converges_like_free(ratio, delta):
    # DST-II inverts the constant-coefficient half-cell Dirichlet operator
    # exactly, as DCT-II does the reflective one
    coeff = coefficients.checkerboard(1.0, 4.0)
    grid = oscillating_annulus_grid(1.0, ratio, delta)
    free, pinned = (
        min_annulus_energy(AnnulusProblem(grid, 1, coefficient=coeff,
                                          delta=delta, fixed_trace=fixed))[1]
        for fixed in (False, True))
    assert pinned.iterations <= free.iterations + 2


@pytest.mark.parametrize("coeff", [
    coefficients.checkerboard(1.0, 4.0),
    coefficients.checkerboard(1.0, 100.0),
    coefficients.smooth_trigonometric(),
], ids=["checkerboard-1-4", "checkerboard-1-100", "smooth"])
@pytest.mark.parametrize("ratio, delta", [(8.0, 0.25), (100.0, 0.1)])
@pytest.mark.parametrize("fixed_trace", [False, True], ids=["free", "fixed"])
def test_float32_preconditioner_keeps_iterations_and_energy(
        monkeypatch, coeff, ratio, delta, fixed_trace):
    # the oscillating annulus CG is float64 and absorbs the float32 inverse
    problem = AnnulusProblem(oscillating_annulus_grid(1.0, ratio, delta), 1,
                             coefficient=coeff, delta=delta,
                             fixed_trace=fixed_trace)
    single, single_info = min_annulus_energy(problem)
    real = singularity_cost.mixed_dct_fft_preconditioner
    monkeypatch.setattr(singularity_cost, "mixed_dct_fft_preconditioner",
                        lambda *a, **k: real(*a, **{**k, "dtype": np.float64}))
    exact, exact_info = min_annulus_energy(problem)
    assert single_info.iterations == exact_info.iterations
    assert single == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_oscillating_psi_reports_coefficient_bounds():
    coeff = coefficients.constant(3.0)
    est = psi_of_z(1, [4.0, 8.0, 16.0], coefficient=coeff, delta=0.5)
    assert est.mode == "oscillating"
    assert est.value == pytest.approx(3.0 * 2.0 * math.pi, rel=1e-10)
    assert est.alpha == pytest.approx(3.0)
    assert est.beta == pytest.approx(3.0)
    assert est.schedule[0][2] == pytest.approx(0.5)


# -- splitting relaxation ------------------------------------------------------------


def test_capital_psi_quadratic_table_splits_to_units():
    table = {k: 2.0 * math.pi * k * k for k in range(1, 5)}
    value, split = capital_psi(table, 3)
    assert value == pytest.approx(6.0 * math.pi)
    assert split == (1, 1, 1)
    value, split = capital_psi(table, -2)
    assert value == pytest.approx(4.0 * math.pi)
    assert split == (-1, -1)


def test_capital_psi_subadditive_table_keeps_large_cores():
    # psi(2) < 2 psi(1): pairing up is cheaper
    table = {1: 6.0, 2: 10.0, 3: 17.0}
    value, split = capital_psi(table, 2)
    assert value == pytest.approx(10.0)
    assert split == (2,)
    value, split = capital_psi(table, 3)
    assert value == pytest.approx(16.0)
    assert sorted(split, reverse=True) == [2, 1]


def test_capital_psi_can_use_cancelling_charges():
    table = {1: 5.0, 2: 6.0, 3: 40.0}
    value, split = capital_psi(table, 3)
    assert value == pytest.approx(min(40.0, 6.0 + 5.0, 3 * 5.0, 6.0 + 6.0 + 5.0))
    assert sum(split) == 3
    # expensive unit charge: representing 1 as 3 - 2 is strictly cheaper
    value, split = capital_psi({1: 6.0, 2: 2.0, 3: 2.0}, 1)
    assert value == pytest.approx(4.0)
    assert split == (3, -2)


def test_capital_psi_validation():
    with pytest.raises(ValueError):
        capital_psi({1: 1.0}, 0)
    with pytest.raises(ValueError, match="missing"):
        capital_psi({1: 1.0}, 2)
    with pytest.raises(ValueError):
        capital_psi({1: -1.0}, 1)


# -- predicted limit -----------------------------------------------------------------


def test_predicted_gamma_limit_closed_form():
    coeff = coefficients.checkerboard(1.0, 4.0)
    tensor = HomogenizedTensor(2.0, 0.0, 2.0, 0, 0.0)
    mu = VortexMeasure((((0.25, 0.25), 1), ((0.75, 0.75), -2)),
                       Rectangle((0.0, 0.0), (1.0, 1.0)))
    lam = 0.5
    want = 2.0 * math.pi * (0.5 * 1.0 + 0.5 * 2.0) * 3
    assert predicted_gamma_limit(coeff, tensor, lam, mu) == pytest.approx(want)
    assert predicted_gamma_limit(coeff, tensor, 0.0, mu) == pytest.approx(
        2.0 * math.pi * 1.0 * 3)
    with pytest.raises(ValueError):
        predicted_gamma_limit(coeff, tensor, 1.2, mu)
