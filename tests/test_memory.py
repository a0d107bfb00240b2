"""Memory held by the large solves, counted by tracemalloc.

tracemalloc counts every numpy allocation, touched or not.  With one
worker (`solvers._WORKERS`) the row chunks run one after another, so the
peak of a call does not depend on timing or on the machine's core count:
it is a deterministic measure of the grid arrays the call holds at once.
Each bound is the measured peak, in float64 grids of the problem's size,
plus a margin of half to two thirds of a grid, short of one more grid
array.
"""

import tracemalloc

import numpy as np
import pytest

from vortexlab import coefficients, gl_solver, singularity_cost, solvers
from vortexlab.fields import CartesianGrid
from vortexlab.vortex_analysis import Rectangle, VortexMeasure


@pytest.fixture(autouse=True)
def one_worker(monkeypatch):
    # several workers would each hold their chunk's temporaries at once
    monkeypatch.setattr(solvers, "_WORKERS", 1)


def _peak_grids(fn, cells: int) -> float:
    """The traced peak of fn() above what was allocated before it, in
    float64 arrays of `cells` elements."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / (8 * cells)


def test_pcg_holds_x_r_p_z_and_its_operator_output():
    # measured 4.02 grids: x, p, z and one preconditioner transient (the
    # operator's output and the right-hand side, which becomes r, exist
    # before the call); it was 5.02 when pcg copied the right-hand side
    # into r, and 7.02 when it also kept the projected right-hand side
    # beside r and its first preconditioner output beside p
    n = 256
    rng = np.random.default_rng(5)
    wx, wy = rng.uniform(1.0, 4.0, (2, n, n))
    operator = solvers.FaceOperator(wx, wy)
    precond = solvers.periodic_fft_preconditioner((n, n), 2.5)
    rhs = rng.standard_normal((n, n))

    def project(v):
        v -= v.mean()
        return v

    def solve():
        x, info = solvers.pcg(operator, rhs, precond, rtol=1e-8, maxiter=500,
                              project=project)
        assert info.relative_residual <= 1e-8

    assert _peak_grids(solve, n * n) < 4.5


def test_core_radius_energy_holds_no_right_hand_side():
    # measured 4.64 grids at n = 512, in the set-up, while the coefficient
    # is evaluated on the y faces: the masked x-face weights, the y faces'
    # points (two grids) and values, the mask and the evaluation's block
    # temporaries.  The solve holds 4.35: phi (float64), the float32
    # weights, the refinement residual (CG's r), CG's x and p, the one grid
    # that A p, the DCT-II buffer and z share, the mask and one row chunk's
    # rebuilt weights; so float64 weights kept for the solve, one grid
    # each, exceed the bound.  It was 7.34 with both float64 weight arrays
    # resident, 8.83 with CG's own r and separate A p, z and DCT-II
    # buffer, and 10.83 with b and the face data stored as well
    n = 512
    unit = Rectangle((0.0, 0.0), (1.0, 1.0))
    mu = VortexMeasure((((0.43, 0.52), 1), ((0.7, 0.3), -1)), unit)
    params = gl_solver.GLParameters(
        0.05, 0.05, coefficients.checkerboard(1.0, 4.0),
        CartesianGrid((0.0, 0.0), (1.0, 1.0), (16, 16)))

    def solve():
        energy, info = gl_solver.core_radius_energy(mu, params, n=n)
        assert info.relative_residual <= 1e-8

    assert _peak_grids(solve, n * n) < 5.2


def test_oscillating_solve_stays_within_the_psi_memory_estimate():
    # `vortexlab psi` refuses a delta whose annulus solve would need more
    # than physical memory, estimating it as cells times this constant;
    # measured 7.76 grids (62.1 bytes per cell) at 369 x 503, 8.76 when
    # the right-hand side was kept beside CG's copy of it
    checker = coefficients.checkerboard(1.0, 4.0)
    grid = singularity_cost.oscillating_annulus_grid(1.0, 100.0, 0.1)
    cells = (grid.n_r - 1) * grid.n_theta
    assert (grid.n_r - 1, grid.n_theta) == (369, 503)
    for fixed_trace in (False, True):
        problem = singularity_cost.AnnulusProblem(
            grid, 1, coefficient=checker, delta=0.1, fixed_trace=fixed_trace)
        peak = _peak_grids(lambda: singularity_cost.min_annulus_energy(problem),
                           cells)
        assert 8 * peak < singularity_cost._OSCILLATING_SOLVE_BYTES_PER_CELL
