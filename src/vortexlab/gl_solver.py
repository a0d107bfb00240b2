"""Heterogeneous Ginzburg-Landau energy: evaluation, recovery fields,
minimization, and the prescribed-degree (core-radius) proxy energy.

The energy of a two-component field v on a rectangle is

    E(v) = integral a(x/delta) |grad v|^2 + (1/eps^2) integral (1-|v|^2)^2.

Quadrature is edge-based for the gradient term (each edge weighted by the
coefficient at its midpoint and by the number of adjacent plaquettes) and
nodal for the potential; that combination has no spurious zero-energy
modes and gives exact values on affine fields.

`recovery_field` assembles the near-optimal competitor around a vortex
measure: a linear-modulus core of radius eps, a pure phase annulus, an
exact phase-corrector annulus solved with the fixed-trace annulus
minimizer when the coefficient oscillates, and the superposition of angle
fields far away.  `core_radius_energy` measures the prescribed-degree
minimum over unit-modulus fields outside eps-disks — a single linear
solve, and the quantitative measurement channel of the scaling studies.

`minimize_gl` descends the energy with boundary nodes held fixed, by
nonlinear conjugate gradients with an exact line search: along a line the
energy is a quartic in the step, so one pass over the grid gives its four
coefficients and the step is the lowest root of the cubic derivative.  A
step that would raise the energy is never taken, and the report says why
the descent stopped (`STOP_REASONS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .coefficients import PeriodicCoefficient
from .fields import CartesianGrid, PolarGrid, VectorField2D
from .singularity_cost import (
    AnnulusProblem,
    min_annulus_energy,
    oscillating_annulus_grid,
)
from .solvers import (
    FaceOperator,
    SolveInfo,
    SolverError,
    _chunk_dot,
    _chunk_sum,
    _face_energy,
    _face_rhs,
    _face_rows,
    _padded_grid,
    _row_blocks,
    _row_sum,
    dct2_preconditioner,
    dot,
    pcg,
)
from .vortex_analysis import Rectangle, VortexMeasure, detect_vortices

__all__ = [
    "GLParameters",
    "EnergyBreakdown",
    "MinimizeBudget",
    "MinimizationReport",
    "STOP_REASONS",
    "default_grid",
    "gl_energy",
    "relocated_measure",
    "recovery_field",
    "core_radius_energy",
    "minimize_gl",
]


@dataclass(frozen=True)
class GLParameters:
    """Problem data: coherence length, coefficient period, coefficient, grid.

    The domain is the grid's rectangle; boundary conditions are carried by
    the fields themselves (minimization holds boundary nodes fixed)."""

    epsilon: float
    delta: float
    coefficient: PeriodicCoefficient
    grid: CartesianGrid

    def __post_init__(self) -> None:
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.delta <= 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    @property
    def domain(self) -> Rectangle:
        return Rectangle(self.grid.origin, self.grid.extent)


def default_grid(
    domain: Rectangle, epsilon: float, cells_per_eps: int = 4
) -> CartesianGrid:
    """Power-of-two grid satisfying the core resolution rule h <= eps/4."""
    target = max(domain.extent) * cells_per_eps / epsilon
    n = 1 << max(3, math.ceil(math.log2(target)))
    ny = round(n * domain.extent[1] / domain.extent[0])
    return CartesianGrid(domain.origin, domain.extent, (n, ny))


@dataclass(frozen=True)
class EnergyBreakdown:
    total: float
    gradient_term: float
    potential_term: float


def _edge_coefficients(
    grid: CartesianGrid, coeff: PeriodicCoefficient, delta: float
) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient sampled at x-edge and y-edge midpoints, scaled by 1/delta."""
    x, y = grid.node_axes()
    h = grid.h
    return (coeff.eval_grid((x[:-1] + 0.5 * h) / delta, y / delta),
            coeff.eval_grid(x / delta, (y[:-1] + 0.5 * h) / delta))


def _node_area_weights(grid: CartesianGrid) -> np.ndarray:
    nx, ny = grid.n
    wx = np.ones(nx + 1)
    wx[0] = wx[-1] = 0.5
    wy = np.ones(ny + 1)
    wy[0] = wy[-1] = 0.5
    return grid.h**2 * wx[:, None] * wy[None, :]


def _edge_row_weights(grid: CartesianGrid) -> tuple[np.ndarray, np.ndarray]:
    """Plaquette-sharing weights: 1 for interior edge rows, 1/2 on the rim."""
    nx, ny = grid.n
    wx = np.ones((1, ny + 1))
    wx[0, 0] = wx[0, -1] = 0.5
    wy = np.ones((nx + 1, 1))
    wy[0, 0] = wy[-1, 0] = 0.5
    return wx, wy


def gl_energy(v: VectorField2D, params: GLParameters) -> EnergyBreakdown:
    """Energy of v with the parameters' coefficient, period, and eps."""
    grid = v.grid
    if not isinstance(grid, CartesianGrid):
        raise ValueError("the energy quadrature requires a Cartesian grid")
    w = v.values
    a_ex, a_ey = _edge_coefficients(grid, params.coefficient, params.delta)
    rx, ry = _edge_row_weights(grid)
    dx = w[1:, :, :] - w[:-1, :, :]
    dy = w[:, 1:, :] - w[:, :-1, :]
    grad = float(
        np.sum(a_ex * rx * np.sum(dx * dx, axis=-1))
        + np.sum(a_ey * ry * np.sum(dy * dy, axis=-1))
    )
    mod2 = np.sum(w * w, axis=-1)
    pot = float(
        np.sum(_node_area_weights(grid) * (1.0 - mod2) ** 2) / params.epsilon**2
    )
    return EnergyBreakdown(grad + pot, grad, pot)


# -- recovery construction -------------------------------------------------------


def relocated_measure(
    mu: VortexMeasure, coeff: PeriodicCoefficient, delta: float
) -> VortexMeasure:
    """Move each atom to the coefficient's minimum point of its delta-cell.

    The relocated position is delta * (floor(x/delta) + y_min) with y_min a
    minimum point of the coefficient on the unit cell; charges are kept.
    """
    ymin = coeff.min_point()
    atoms = []
    for (x, y), z in mu.atoms:
        p = (
            delta * (math.floor(x / delta) + ymin[0]),
            delta * (math.floor(y / delta) + ymin[1]),
        )
        if not mu.domain.contains(p):
            raise ValueError(
                f"relocated atom {p} leaves the domain; delta too coarse"
            )
        atoms.append((p, z))
    return VortexMeasure(tuple(atoms), mu.domain)


def _default_s(epsilon: float) -> float:
    loglog = math.log(max(abs(math.log(epsilon)), 1.0 + 1e-9))
    return min(max(1.0 - 1.0 / max(loglog, 1e-9), 0.05), 0.95)


def _interp_polar_phase(
    phi: np.ndarray, grid: PolarGrid, dx: np.ndarray, dy: np.ndarray
) -> np.ndarray:
    """Bilinear interpolation of a nodal (s, theta) table at offsets dx, dy."""
    ns, nt = phi.shape
    s = np.log(np.hypot(dx, dy) / grid.r_inner)
    ds = math.log(grid.r_outer / grid.r_inner) / (ns - 1)
    theta = np.mod(np.arctan2(dy, dx), 2.0 * math.pi)
    fs = np.clip(s / ds, 0.0, ns - 1 - 1e-12)
    js = np.floor(fs).astype(int)
    ts = fs - js
    ft = theta / grid.dtheta
    kt = np.floor(ft).astype(int) % nt
    tt = ft - np.floor(ft)
    kt1 = (kt + 1) % nt
    return (
        (1 - ts) * (1 - tt) * phi[js, kt]
        + ts * (1 - tt) * phi[js + 1, kt]
        + (1 - ts) * tt * phi[js, kt1]
        + ts * tt * phi[js + 1, kt1]
    )


def recovery_field(
    mu: VortexMeasure,
    params: GLParameters,
    s: Optional[float] = None,
    relocate_cores: bool = False,
) -> VectorField2D:
    """Near-optimal competitor field carrying the vortex measure mu.

    Around each atom (relocated to its coefficient-minimum cell point when
    `relocate_cores` is set): modulus ramp r/eps inside the eps-disk, pure
    phase out to r_mid = min(base^s, rho_bar/2) (base = delta when
    relocating, else eps), then — for non-constant coefficients — the
    fixed-trace annulus minimizer's phase corrector out to rho_bar, and the
    plain superposition of angle fields beyond.  rho_bar = min(rho, 1/2)
    with rho a third of the smallest pairwise/boundary distance.

    Requires mu to be separated at scale eps and the grid to resolve the
    cores (h <= eps/4).
    """
    grid = params.grid
    eps = params.epsilon
    if grid.h > eps / 4.0 * (1.0 + 1e-12):
        raise ValueError(
            f"grid spacing h={grid.h:.3e} violates the core resolution rule "
            f"h <= eps/4 = {eps / 4.0:.3e}"
        )
    if not mu.is_separated(eps):
        raise ValueError(
            f"measure separation {mu.separation():.3e} is below 2*eps; "
            "the construction needs disjoint core neighborhoods"
        )
    if relocate_cores:
        mu = relocated_measure(mu, params.coefficient, params.delta)

    if s is None:
        s = _default_s(eps)
    if not (0.0 < s < 1.0):
        raise ValueError(f"s must lie in (0,1), got {s}")

    atoms = mu.atoms
    xx, yy = grid.node_mesh()
    phase = np.zeros(grid.node_shape)
    for (ax, ay), z in atoms:
        phase += z * np.arctan2(yy - ay, xx - ax)
    modulus = np.ones(grid.node_shape)

    if atoms:
        dists = [mu.domain.boundary_distance(p) for p, _ in atoms]
        pos = [p for p, _ in atoms]
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                dists.append(math.dist(pos[i], pos[j]))
        rho_bar = min(min(dists) / 3.0, 0.5)
    else:
        rho_bar = 0.5

    base = params.delta if relocate_cores else eps
    r_mid = min(base**s, 0.5 * rho_bar)
    oscillating = params.coefficient.kind != "constant"

    for (ax, ay), z in atoms:
        dx = xx - ax
        dy = yy - ay
        r = np.hypot(dx, dy)
        core = r < eps
        modulus[core] = np.maximum(r[core], 1e-9 * grid.h) / eps
        if oscillating and r_mid > 1.5 * eps and r_mid < 0.75 * rho_bar:
            pgrid = oscillating_annulus_grid(
                r_mid, rho_bar, params.delta, center=(ax, ay)
            )
            problem = AnnulusProblem(
                pgrid, z, coefficient=params.coefficient,
                delta=params.delta, fixed_trace=True,
            )
            _, lifting = min_annulus_energy(problem)
            phi = lifting.values - z * pgrid.theta()[None, :]
            band = (r >= r_mid) & (r < rho_bar)
            if np.any(band):
                phase[band] += _interp_polar_phase(
                    phi, pgrid, dx[band], dy[band]
                )

    values = np.stack([modulus * np.cos(phase), modulus * np.sin(phase)],
                      axis=-1)
    return VectorField2D(grid, values)


# -- prescribed-degree proxy energy ------------------------------------------------


def _superposition_gradient(
    x: np.ndarray, y: np.ndarray, atoms, axis: int
) -> np.ndarray:
    """Component `axis` of the gradient of the superposition of angle fields
    at the points (x, y), broadcast together."""
    g = np.zeros(np.broadcast_shapes(np.shape(x), np.shape(y)))
    for (ax, ay), z in atoms:
        dx = x - ax
        dy = y - ay
        r2 = dx * dx + dy * dy
        g += z * (-dy) / r2 if axis == 0 else z * dx / r2
    return g


#: Precision of `core_radius_energy`'s inner solve: its face weights, CG
#: vectors and DCT-II preconditioner.
_INNER_DTYPE = np.float32
#: Relative residual each inner solve reaches before the float64 residual is
#: formed again.  The scaling rows (k = 5..9) take 2 refinement steps at
#: 1e-4; at 1e-3 they took 3 steps and more inner iterations in all.
_INNER_RTOL = 1e-4


def core_radius_energy(
    mu: VortexMeasure,
    params: GLParameters,
    n: Optional[int] = None,
    rtol: float = 1e-8,
) -> tuple[float, SolveInfo]:
    """Minimum weighted Dirichlet energy of unit-modulus fields with the
    prescribed degrees, outside the union of eps-disks around the atoms.

    Geometry.  Writing the competitor's phase as (superposition of angle
    fields) + (single-valued correction) reduces the minimization to one
    linear solve on n x n square cells over the domain: coefficient at
    the face midpoints, natural boundary conditions, every face that
    touches an inactive cell (inside an eps-disk) weighted 0, face data h
    times the angle fields' gradient.  b, A phi and the energy are
    `solvers.FaceOperator`'s row kernels, given per row chunk the weight
    and face-data rows it reads.  The set-up evaluates the coefficient
    once per face family; later passes rebuild their weight rows with the
    same bits (`PeriodicCoefficient.eval_grid`, then the mask), one
    evaluation per chunk for both b and A phi.

    Shift.  b is projected onto mean-zero functions on the active cells:
    the set-up stages b's rows in phi to sum them, the first residual
    b - A 0 = b is read from there, and later rebuilds of b's rows
    subtract the mean.

    Memory.  No grid-size coordinate, gradient or right-hand side array
    exists, and the float64 weights live only through the set-up.  The
    2048^2 solve holds phi in float64 and 6 float32 grids (the weights,
    CG's r, x and p, and one row-padded grid that is A p, the DCT-II's
    work buffer and z in turn; see `pcg`): about 32 bytes per cell, as
    much as the set-up's peak (the float64 weights beside phi and the
    float32 weights).

    Precision.  Float64 iterative refinement around a float32 CG (Carson
    & Higham, SIAM J. Sci. Comput. 40, 2018): each outer step solves
    A d = r to `_INNER_RTOL` with `solvers.pcg` in float32 (float64
    inner products), adds d to phi and forms r = b - A phi in float64,
    until the float64 relative residual is at most `rtol`, within 50 n
    inner iterations in all.  The scaling rows' energies agree with a
    float64 CG to 1e-12 relative.  Energy and `SolveInfo` are the same
    bits for every thread count and BLAS setting.

    Returns (energy, SolveInfo of the refined solve: inner iterations in
    all, final float64 relative residual, outer steps).  Raises
    SolverError when an inner solve fails, or when an outer step gives a
    non-finite residual or does not lower it.
    """
    if not mu.atoms:
        raise ValueError("the proxy energy needs at least one atom")
    domain = mu.domain
    lx, ly = domain.extent
    if abs(lx - ly) > 1e-12 * lx:
        raise ValueError("the proxy solver expects a square domain")
    eps = params.epsilon
    if n is None:
        n = 1 << max(4, math.ceil(math.log2(4.0 * lx / eps)))
    h = lx / n
    ox, oy = domain.origin

    xc = ox + (np.arange(n) + 0.5) * h
    yc = oy + (np.arange(n) + 0.5) * h
    xf = ox + np.arange(1, n) * h
    yf = oy + np.arange(1, n) * h
    active = np.empty((n, n), dtype=bool)

    def mask_rows(i0: int, i1: int) -> None:
        x1 = xc[i0:i1, None]
        rows = active[i0:i1]
        rows[...] = True
        for (ax, ay), _ in mu.atoms:
            rows &= (x1 - ax) ** 2 + (yc - ay) ** 2 > eps**2

    _row_blocks(active, mask_rows)
    if not active.any():
        raise ValueError("no active cells: eps-disks cover the whole domain")

    coeff = params.coefficient
    delta = params.delta

    def face_coefficients(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """a at the face midpoints (s[i], t[j]), in one call."""
        pts = np.empty((len(s), len(t), 2))
        pts[..., 0] = (s / delta)[:, None]
        pts[..., 1] = t / delta
        return coeff.eval(pts)

    wx = face_coefficients(xf, yc)
    wy = face_coefficients(xc, yf)

    def masked(w: np.ndarray, f0: int, f1: int, axis: int) -> np.ndarray:
        """w, the x faces f0..f1-1 (axis 0) or the y faces of rows f0..f1-1
        (axis 1), with the faces that touch an inactive cell zeroed."""
        cells = active[f0:f1 + 1 - axis]
        if not cells.all():  # a factor of 1.0 leaves every bit as it is
            w *= (cells[:-1] & cells[1:] if axis == 0
                  else cells[:, :-1] & cells[:, 1:])
        return w

    def mask_set_up(i0: int, i1: int) -> None:
        j1 = min(i1, n - 1)
        masked(wx[i0:j1], i0, j1, 0)
        masked(wy[i0:i1], i0, i1, 1)

    _row_blocks(active, mask_set_up)

    def data_rows(i0: int, i1: int) -> tuple[np.ndarray, np.ndarray]:
        """h times the angle fields' gradient on the faces that the row
        kernels read for rows i0..i1-1 (`solvers._face_rows`)."""
        gx = _superposition_gradient(xf[max(i0 - 1, 0):min(i1, n - 1), None],
                                     yc, mu.atoms, 0)
        gy = _superposition_gradient(xc[i0:i1, None], yf, mu.atoms, 1)
        gx *= h
        gy *= h
        return gx, gy

    def staged_rhs(i0: int, i1: int) -> float:
        """Rows i0..i1-1 of b, zeroed on the inactive cells, into phi; their
        sum."""
        b = _face_rhs(i0, i1, phi[i0:i1], wx[max(i0 - 1, 0):min(i1, n - 1)],
                      wy[i0:i1], None, *data_rows(i0, i1))
        np.copyto(b, 0.0, where=~active[i0:i1])
        return _chunk_sum(b)

    phi = np.empty((n, n))
    shift = _row_sum(active, staged_rhs) / int(active.sum())
    abar = 0.5 * float(wx.mean() + wy.mean()) * n / (n - 1)
    inner_weights = wx.astype(_INNER_DTYPE), wy.astype(_INNER_DTYPE)
    # the float64 weights are not kept: each later pass rebuilds the rows
    # it reads
    del wx, wy

    def weight_rows(i0: int, i1: int) -> tuple:
        """The same faces' weights, with the bits of the masked set-up
        weights (no face wraps)."""
        lo, j1 = max(i0 - 1, 0), min(i1, n - 1)
        return (masked(coeff.eval_grid(xf[lo:j1] / delta, yc / delta), lo, j1, 0),
                masked(coeff.eval_grid(xc[i0:i1] / delta, yf / delta), i0, i1, 1),
                None)

    # A p, the DCT-II's transforms and z, in turn (see `pcg`)
    work = _padded_grid((n, n), _INNER_DTYPE)
    inner = FaceOperator(*inner_weights, out=work)
    precond = dct2_preconditioner((n, n), abar, restrict=active,
                                  dtype=_INNER_DTYPE, buffer=work)
    r = np.empty((n, n), _INNER_DTYPE)

    def first_residual(i0: int, i1: int) -> float:
        b = phi[i0:i1]
        b -= shift
        np.copyto(b, 0.0, where=~active[i0:i1])
        r[i0:i1] = b
        squared = _chunk_dot(b, b)
        b.fill(0.0)
        return squared

    def residual_rows(i0: int, i1: int) -> float:
        """Rows i0..i1-1 of b - A phi into r; their squared float64 norm."""
        weights = weight_rows(i0, i1)
        b = _face_rhs(i0, i1, np.empty((i1 - i0, n)), *weights,
                      *data_rows(i0, i1))
        b -= shift
        np.copyto(b, 0.0, where=~active[i0:i1])
        ap = _face_rows(phi, i0, i1, np.empty_like(b), *weights)
        np.subtract(b, ap, out=ap)
        r[i0:i1] = ap
        return _chunk_dot(ap, ap)

    bnorm = math.sqrt(_row_sum(phi, first_residual))
    info = _refine(phi, r, bnorm, lambda: _row_sum(r, residual_rows),
                   inner, precond, rtol=rtol, maxiter=50 * n)
    return _row_sum(phi, lambda i0, i1: _face_energy(
        phi, i0, i1, *weight_rows(i0, i1), *data_rows(i0, i1))), info


def _refine(phi: np.ndarray, r: np.ndarray, bnorm: float,
            residual: Callable[[], float], inner: FaceOperator, precond, *,
            rtol: float, maxiter: int) -> SolveInfo:
    """Solve A phi = b in place to relative residual `rtol` by iterative
    refinement: float64 residuals, corrections from `pcg` on `inner` and
    `precond` in their own precision, at most `maxiter` inner iterations
    in all (see `core_radius_energy`).

    On entry phi is 0 and r, in the inner precision, holds the first
    residual b, whose float64 norm is `bnorm`.  `residual()` writes
    b - A phi into r for the current phi and returns its float64 squared
    norm; r is also the right-hand side of each inner solve and CG's r
    (`pcg` overwrites it, and the residual pass after the step writes it
    again)."""
    if not math.isfinite(bnorm):
        raise SolverError("refinement got a non-finite right-hand side",
                          iterations=0)
    if bnorm == 0.0:
        return SolveInfo(0, 0.0, 0)
    res = bnorm
    iterations = steps = 0
    while res > rtol * bnorm:
        try:
            d, info = pcg(inner, r, precond, rtol=_INNER_RTOL,
                          maxiter=maxiter - iterations)
        except SolverError as exc:
            raise SolverError(
                f"refinement step {steps + 1}: {exc}", residual=res / bnorm,
                iterations=iterations + exc.iterations) from exc
        iterations += info.iterations
        steps += 1

        def correct(i0: int, i1: int) -> None:
            phi[i0:i1] += d[i0:i1]

        _row_blocks(phi, correct)
        d = None  # free before the residual pass and the next inner solve
        previous, res = res, math.sqrt(residual())
        if not math.isfinite(res):
            raise SolverError(
                f"refinement met a non-finite residual (step {steps})",
                iterations=iterations)
        if not res < previous:
            raise SolverError(
                f"refinement stagnated at relative residual {res / bnorm:.3e} "
                f"(step {steps})", residual=res / bnorm, iterations=iterations)
    return SolveInfo(iterations, res / bnorm, steps)


# -- minimization ---------------------------------------------------------------------


@dataclass(frozen=True)
class MinimizeBudget:
    max_iterations: int = 2000
    stall_window: int = 50
    stall_rtol: float = 1e-8


#: Why a descent stopped (see `minimize_gl`); the first three are convergence.
STOP_REASONS = (
    "stalled", "rounding_floor", "zero_gradient", "budget", "line_search"
)


@dataclass
class MinimizationReport:
    field: VectorField2D
    energy: EnergyBreakdown
    trace: list[float]
    vortices: VortexMeasure
    stop_reason: str
    iterations: int

    @property
    def converged(self) -> bool:
        return self.stop_reason in STOP_REASONS[:3]


class _DescentKernel:
    """Energy, gradient and line-search quartic of the GL energy on one grid.

    Fields are component-first arrays of shape (2, nx+1, ny+1).  The edge
    weights c = a * row-weight and the node weights m = area / eps^2 are
    built once, stored as 2c and -4m, the factors of the gradient, so that
    the gradient needs no scaling pass (the sums undo the factors exactly:
    they are powers of two).  Every work array is allocated once, so an
    evaluation allocates nothing of grid size.  Its sums are `solvers.dot`,
    whose bits do not depend on the BLAS thread count.
    """

    def __init__(self, grid: CartesianGrid, params: GLParameters) -> None:
        a_ex, a_ey = _edge_coefficients(grid, params.coefficient, params.delta)
        rx, ry = _edge_row_weights(grid)
        self.cx2 = 2.0 * a_ex * rx
        self.cy2 = 2.0 * a_ey * ry
        self.m4 = -4.0 * _node_area_weights(grid) / params.epsilon**2
        nx, ny = grid.n
        # the x- and y-edge arrays are the halves of one buffer each, so
        # that a sum over all edges is one reduction
        size = 2 * nx * (ny + 1)
        self._d = np.empty(size + 2 * (nx + 1) * ny)
        self._f = np.empty_like(self._d)
        self._dx = self._d[:size].reshape(2, nx, ny + 1)
        self._dy = self._d[size:].reshape(2, nx + 1, ny)
        self._fx = self._f[:size].reshape(2, nx, ny + 1)
        self._fy = self._f[size:].reshape(2, nx + 1, ny)
        self._p = np.empty(grid.node_shape)
        self._q = np.empty(grid.node_shape)
        self._mq = np.empty(grid.node_shape)

    def energy_gradient(
        self, w: np.ndarray, g: np.ndarray, defect: np.ndarray
    ) -> float:
        """E(w).  Writes dE/dw, zeroed on the boundary nodes, into g and the
        nodal defect 1 - |w|^2 into `defect`."""
        dx, dy, fx, fy, md = self._dx, self._dy, self._fx, self._fy, self._mq
        np.subtract(w[:, 1:, :], w[:, :-1, :], out=dx)
        np.subtract(w[:, :, 1:], w[:, :, :-1], out=dy)
        np.multiply(dx, self.cx2, out=fx)
        np.multiply(dy, self.cy2, out=fy)
        grad_term = 0.5 * dot(self._f, self._d)
        np.einsum("kij,kij->ij", w, w, out=defect)
        np.subtract(1.0, defect, out=defect)
        np.multiply(self.m4, defect, out=md)
        pot_term = -0.25 * dot(md, defect)
        np.multiply(w, md, out=g)
        g[:, :-1, :] -= fx
        g[:, 1:, :] += fx
        g[:, :, :-1] -= fy
        g[:, :, 1:] += fy
        g[:, 0, :] = 0.0
        g[:, -1, :] = 0.0
        g[:, :, 0] = 0.0
        g[:, :, -1] = 0.0
        return grad_term + pot_term

    def quartic(
        self, w: np.ndarray, defect: np.ndarray, d: np.ndarray
    ) -> tuple[float, float, float]:
        """c2, c3, c4 of E(w + t d) - E(w) = c1 t + c2 t^2 + c3 t^3 + c4 t^4,
        with `defect` = 1 - |w|^2; c1 is g.d."""
        dx, dy, fx, fy = self._dx, self._dy, self._fx, self._fy
        p, q, mq = self._p, self._q, self._mq
        np.subtract(d[:, 1:, :], d[:, :-1, :], out=dx)
        np.subtract(d[:, :, 1:], d[:, :, :-1], out=dy)
        np.multiply(dx, self.cx2, out=fx)
        np.multiply(dy, self.cy2, out=fy)
        c2 = 0.5 * dot(self._f, self._d)
        np.einsum("kij,kij->ij", w, d, out=p)
        np.einsum("kij,kij->ij", d, d, out=q)
        np.multiply(self.m4, q, out=mq)
        c4 = -0.25 * dot(mq, q)
        c3 = -dot(mq, p)
        c2 += 0.5 * dot(mq, defect)
        np.multiply(self.m4, p, out=q)
        c2 -= dot(q, p)
        return c2, c3, c4


#: Relative residual |p(t)| / (sum of |terms|) a polished closed-form root
#: of the line search's cubic must reach, or the step falls back to
#: `np.roots`.
_CUBIC_RTOL = 1e-9


def _cubic_real_roots(a: float, b: float, c: float, d: float) -> list[float]:
    """The real roots of a t^3 + b t^2 + c t + d (a != 0) in closed form,
    each polished by two Newton steps, or [] when one misses `_CUBIC_RTOL`.

    Cardano's formula for one real root, written so that nothing cancels;
    the trigonometric form for three; a repeated root appears once per
    multiplicity, as the trigonometric form gives it."""
    bb, cc, dd = b / a, c / a, d / a
    shift = bb / 3.0
    p = cc - bb * shift
    q = (2.0 * shift * shift - cc) * shift + dd
    disc = 0.25 * q * q + p * p * p / 27.0
    if disc > 0.0:
        u = math.cbrt(-0.5 * q - math.copysign(math.sqrt(disc), q))
        roots = [u - p / (3.0 * u)]
    elif p == 0.0:
        roots = [0.0] * 3
    else:
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * m)))
        theta = math.acos(arg) / 3.0
        roots = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    polished = []
    for s in roots:
        t = s - shift
        for _ in range(2):
            slope = (3.0 * a * t + 2.0 * b) * t + c
            if slope == 0.0:
                break
            t -= (((a * t + b) * t + c) * t + d) / slope
        scale = abs(a * t * t * t) + abs(b * t * t) + abs(c * t) + abs(d)
        if not abs(((a * t + b) * t + c) * t + d) <= _CUBIC_RTOL * scale:
            return []
        polished.append(t)
    return polished


def _quartic_step(
    c1: float, c2: float, c3: float, c4: float
) -> tuple[float, float]:
    """The step t > 0 at the lowest critical point of
    phi(t) = c1 t + c2 t^2 + c3 t^3 + c4 t^4, and phi(t).

    With c1 < 0 < c4 the cubic phi' has a positive real root, and the
    minimum of phi over t > 0 is at one of them.  The roots come in closed
    form (`_cubic_real_roots`); where one fails its residual check, or
    c4 = 0, from `np.roots`, whose complex pairs' real parts are harmless
    extra candidates.  Non-finite coefficients give nan.
    """
    if not math.isfinite(c1 + c2 + c3 + c4):
        return math.nan, math.nan
    roots = _cubic_real_roots(4.0 * c4, 3.0 * c3, 2.0 * c2, c1) if c4 else []
    if not roots:
        roots = np.roots((4.0 * c4, 3.0 * c3, 2.0 * c2, c1)).real.tolist()
    candidates = [((((c4 * t + c3) * t + c2) * t + c1) * t, t)
                  for t in roots if t > 0.0]
    if not candidates:
        return math.nan, math.nan
    phi, t = min(candidates)
    return t, phi


def minimize_gl(
    initial: VectorField2D,
    params: GLParameters,
    budget: MinimizeBudget = MinimizeBudget(),
) -> MinimizationReport:
    """Descend the energy from `initial` with boundary nodes held fixed.

    Nonlinear conjugate gradients (Polak-Ribiere with restarts) with an
    exact line search: along a direction d the energy E(w + t d) is a
    quartic in t, whose coefficients one pass over the grid gives, and the
    step is the positive critical point of lowest value.  Each iteration
    evaluates energy and gradient once, at the point that becomes the next
    iterate.  A step is accepted only if it does not raise the energy, so
    the reported energy trace is monotone by construction; a rejected
    conjugate step is retried once along -g.

    `stop_reason` says why the descent ended (`converged` is true for the
    first three):
    - `stalled`: the relative decrease over `stall_window` iterations fell
      below `stall_rtol`;
    - `rounding_floor`: a steepest-descent step was rejected while its
      predicted decrease was within summation rounding of the energy;
    - `zero_gradient`: the gradient vanished exactly;
    - `budget`: `max_iterations` steps were taken;
    - `line_search`: a steepest-descent step predicted to decrease the
      energy raised it (in practice, non-finite values in the field).
    """
    grid = initial.grid
    if not isinstance(grid, CartesianGrid):
        raise ValueError("minimization requires a Cartesian grid")
    kernel = _DescentKernel(grid, params)
    # summation rounding of an energy over this many nodes
    floor_rtol = grid.node_shape[0] * grid.node_shape[1] * np.finfo(float).eps

    w = np.moveaxis(initial.values, -1, 0).copy(order="C")
    g = np.empty_like(w)
    defect = np.empty(grid.node_shape)
    w_new, g_new = np.empty_like(w), np.empty_like(w)
    defect_new = np.empty_like(defect)
    energy = kernel.energy_gradient(w, g, defect)
    gg = dot(g, g)
    d = np.negative(g)
    trace = [energy]
    stop_reason = "budget"

    for _ in range(budget.max_iterations):
        slope = dot(g, d)
        steepest = slope >= 0.0
        if steepest:
            np.negative(g, out=d)
            slope = -gg
        if slope == 0.0:
            stop_reason = "zero_gradient"
            break
        while True:
            t, predicted = _quartic_step(slope, *kernel.quartic(w, defect, d))
            np.multiply(d, t, out=w_new)
            w_new += w
            energy_new = kernel.energy_gradient(w_new, g_new, defect_new)
            if energy_new <= energy or steepest:
                break
            np.negative(g, out=d)
            slope = -gg
            steepest = True
        if not energy_new <= energy:
            floor = -predicted <= floor_rtol * abs(energy)
            stop_reason = "rounding_floor" if floor else "line_search"
            break
        gg_new = dot(g_new, g_new)
        beta = max(0.0, (gg_new - dot(g_new, g)) / gg)
        w, w_new = w_new, w
        g, g_new = g_new, g
        defect, defect_new = defect_new, defect
        d *= beta
        d -= g
        energy, gg = energy_new, gg_new
        trace.append(energy)
        win = budget.stall_window
        if len(trace) > win:
            drop = trace[-win - 1] - trace[-1]
            if drop < budget.stall_rtol * max(abs(trace[-1]), 1e-300):
                stop_reason = "stalled"
                break

    final = VectorField2D(grid, np.moveaxis(w, 0, -1).copy(order="C"))
    breakdown = gl_energy(final, params)
    vortices = detect_vortices(final)
    return MinimizationReport(
        final, breakdown, trace, vortices, stop_reason, len(trace) - 1
    )
