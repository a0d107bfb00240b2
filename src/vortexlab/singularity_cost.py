"""Per-vortex energy cost on annuli.

The cost of carrying winding number z across an annulus A(r, R) is

    psi_{r,R}(z) = (1/log(R/r)) * min { energy of w : w unit-modulus,
                                        degree z on the annulus },

with the energy either the oscillating-coefficient form
integral a(x/delta)|grad w|^2 or the constant-tensor quadratic form
integral <A grad w, grad w>.  The degree constraint is enforced by
construction: w = exp(i u) with u = z*theta + phi and phi single-valued,
which turns the nonconvex constraint set into an affine one and the
minimization into one linear solve.  `min_annulus_energy` returns the
minimum and that solve's `SolveInfo`; psi(z) needs only the number, so
the minimizing phase is not kept.

Log-polar coordinates (s, theta) = (log rho, theta) make the Dirichlet
form conformally flat, so both solvers work on a plain rectangle:

  * oscillating mode: cell-centered finite volumes with the coefficient
    sampled at face midpoints.  The midpoint rule is exactly self-dual
    under a -> alpha*beta/a for two-valued coefficients, which keeps the
    effective behavior of under-resolved fine structure unbiased, unlike
    one-sided averaging of cell values.  CG on that `solvers.FaceOperator`,
    preconditioned by the inverse of the constant-coefficient operator:
    real FFT along theta and, along s, DCT-II for free circles or DST-II
    for a fixed trace (whose half-cell Dirichlet rows it diagonalizes), so
    both boundary kinds take about as many iterations.  The inverse runs
    in float32, which the float64 CG absorbs: the same iteration counts,
    and energies within 1e-12 relative of the float64 inverse's.
  * homogenized mode: bilinear (Q1) finite elements with exact 2x2 Gauss
    element integration of the rotated tensor Q(theta)^T A Q(theta); the
    exact integration leaves no spurious zero-energy (hourglass) modes.
    CG on the stiffness, applied without assembly as a 9-point stencil
    scattered from the element matrices, preconditioned by the exact
    inverse of the isotropic Q1 operator of scale trace(A)/2 (DCT-I or
    DST-I along s, real FFT along theta; Concus & Golub's fast-solver
    preconditioning): one iteration for isotropic tensors, a few dozen for
    anisotropic ones.

The limit cost psi(z) is estimated from a schedule of increasing radius
ratios by fitting value(R) = psi + c/log R, matching the O(1/log R)
defect of the finite-annulus minimum.  The relaxed cost Psi(z) minimizes
sum_j psi(z_j) over integer splittings sum_j z_j = z.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cell_problem import HomogenizedTensor
from .coefficients import PeriodicCoefficient
from .fields import PolarGrid
from .solvers import (
    FaceOperator,
    SolveInfo,
    SolverError,
    _mean_zero,
    dot,
    mixed_dct_fft_preconditioner,
    pcg,
    q1_node_preconditioner,
)

__all__ = [
    "AnnulusProblem",
    "PsiEstimate",
    "oscillating_annulus_grid",
    "min_annulus_energy",
    "psi_of_z",
    "capital_psi",
    "predicted_gamma_limit",
]

#: cells per coefficient period near the inner radius used by the grid
#: builder; the hard validation floor is 6 cells per period.
DEFAULT_CELLS_PER_PERIOD = 8.0
_MIN_CELLS_PER_PERIOD = 6.0
#: Bytes per cell that `_oscillating_minimum`'s solve holds: the float64
#: face weights ws and wt, CG's x, r (the right-hand side itself), p, z and
#: A p, and one more array for transients (43.9 MiB, 62 bytes per cell,
#: traced on one thread at 737 x 1006; `tests/test_memory.py`).
_OSCILLATING_SOLVE_BYTES_PER_CELL = 8 * 8


@dataclass(frozen=True)
class AnnulusProblem:
    """Degree-z minimization problem on an annulus.

    Exactly one of (`coefficient`, `delta`) — the oscillating mode — or
    `tensor` — the homogenized mode — must be set.  `fixed_trace` pins
    phi = 0 on both circles (trace w = (x/|x|)^z there); otherwise only
    the degree is prescribed and the boundaries are free.
    """

    grid: PolarGrid
    z: int
    coefficient: Optional[PeriodicCoefficient] = None
    delta: Optional[float] = None
    tensor: Optional[HomogenizedTensor] = None
    fixed_trace: bool = False

    def __post_init__(self) -> None:
        if self.z == 0:
            raise ValueError("charge z must be nonzero")
        oscillating = self.coefficient is not None
        if oscillating == (self.tensor is not None):
            raise ValueError(
                "set exactly one of coefficient+delta (oscillating) or "
                "tensor (homogenized)"
            )
        if oscillating:
            if self.delta is None or self.delta <= 0:
                raise ValueError("oscillating mode requires delta > 0")
            dmax = self.grid.r_inner * max(
                math.log(self.grid.r_outer / self.grid.r_inner) / (self.grid.n_r - 1),
                self.grid.dtheta,
            )
            if dmax > self.delta / _MIN_CELLS_PER_PERIOD * (1.0 + 1e-9):
                raise ValueError(
                    f"oscillation unresolved: cell size {dmax:.3e} near the "
                    f"inner radius exceeds delta/6 = {self.delta / 6.0:.3e}"
                )


def oscillating_annulus_grid(
    r_inner: float,
    r_outer: float,
    delta: float,
    cells_per_period: float = DEFAULT_CELLS_PER_PERIOD,
) -> PolarGrid:
    """Annulus grid sized so cells near r_inner span delta/cells_per_period.

    Cell sizes grow proportionally to the radius, so the resolution rule
    is binding at the inner radius only; `cells_per_period` below 6
    violates the solver's validation floor.  Raises ValueError unless the
    radii are finite with 0 < r_inner < r_outer, delta and
    cells_per_period are finite with delta > 0, and a float64 array of the
    grid's cells fits numpy's index range.
    """
    if not (math.isfinite(r_outer) and 0.0 < r_inner < r_outer):
        raise ValueError(
            f"need finite radii 0 < r_inner < r_outer, got {r_inner}, {r_outer}")
    if not (math.isfinite(delta) and delta > 0.0):
        raise ValueError(f"delta must be a finite number > 0, got {delta}")
    if not (math.isfinite(cells_per_period)
            and cells_per_period >= _MIN_CELLS_PER_PERIOD):
        raise ValueError(
            f"cells_per_period must be >= {_MIN_CELLS_PER_PERIOD}, "
            f"got {cells_per_period}"
        )
    dmax = (delta / r_inner) / cells_per_period
    length = math.log(r_outer / r_inner)
    cells = (length / dmax) * (2.0 * math.pi / dmax) if dmax > 0.0 else math.inf
    if 8.0 * cells > np.iinfo(np.intp).max:
        raise ValueError(
            f"delta = {delta:g} needs an annulus grid of more float64 cells "
            "than numpy can allocate")
    ns = max(7, math.ceil(length / dmax))
    nt = max(16, math.ceil(2.0 * math.pi / dmax))
    return PolarGrid((0.0, 0.0), r_inner, r_outer, ns + 1, nt)


# -- oscillating mode: cell-centered finite volumes -----------------------------


def _oscillating_minimum(problem: AnnulusProblem) -> tuple[float, SolveInfo]:
    """Returns (energy, SolveInfo) for the oscillating-coefficient mode.

    The cells are a (log-radius, angle) grid, natural or pinned along the
    radius and periodic along the angle; the solve is CG on that
    `solvers.FaceOperator`, preconditioned by `mixed_dct_fft_preconditioner`
    in float32.
    """
    grid = problem.grid
    coeff = problem.coefficient
    delta = problem.delta
    z = problem.z
    center = grid.center

    ns = grid.n_r - 1
    nt = grid.n_theta
    s0 = math.log(grid.r_inner)
    length = math.log(grid.r_outer / grid.r_inner)
    ds = length / ns
    dt = grid.dtheta
    sc = s0 + (np.arange(ns) + 0.5) * ds
    tc = (np.arange(nt) + 0.5) * dt

    def coeff_at(s: np.ndarray, t: np.ndarray) -> np.ndarray:
        """a(x / delta) at log-radii s (rows) and angles t (columns)."""
        rho = np.exp(s)[:, None]
        x = (center[0] + rho * np.cos(t)[None, :]) / delta
        y = (center[1] + rho * np.sin(t)[None, :]) / delta
        return coeff.eval(np.stack([x, y], axis=-1))

    # face midpoints: radial faces between cell rows j and j+1 sit at node
    # radii; angular faces between cell columns k and k+1 sit at node angles
    ws = coeff_at(s0 + np.arange(1, ns) * ds, tc)  # (ns-1, nt) interior faces
    wt = coeff_at(sc, np.arange(1, nt + 1) * dt)  # (ns, nt), face k: columns k, k+1
    abar = float(ws.mean()) if ws.size else float(wt.mean())

    # each face weight carries its geometric factor from here on
    cs = dt / ds
    ct = ds / dt
    ws *= cs
    wt *= ct
    # half-cell Dirichlet faces at the circles of a fixed trace, phi = 0 there
    pinned = (2.0 * cs * coeff_at(np.array([s0, s0 + length]), tc)
              if problem.fixed_trace else None)  # (2, nt)
    operator = FaceOperator(ws, wt, pinned)
    gt = z * dt

    precond = mixed_dct_fft_preconditioner(
        (ns, nt), abar * cs, abar * ct, pinned=problem.fixed_trace,
        dtype=np.float32)
    project = None if problem.fixed_trace else _mean_zero

    try:
        # the right-hand side becomes CG's residual, freed on return
        phi, info = pcg(
            operator, operator.rhs(0.0, gt), precond, rtol=1e-8,
            maxiter=max(50 * max(ns, nt), 2000), project=project,
        )
    except SolverError as exc:
        raise SolverError(
            f"annulus solve stalled at residual {exc.residual:.3e}",
            residual=exc.residual, iterations=exc.iterations,
        ) from exc

    return operator.energy(phi, 0.0, gt), info


# -- homogenized mode: Q1 finite elements ----------------------------------------


def _q1_element_matrices(
    a_mat: np.ndarray, ds: float, dt: float, n_theta: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element stiffness, z-load and constant term per theta column.

    The rotated tensor M(theta) = Q(theta)^T A Q(theta), evaluated at each
    element's angular midpoint, is constant per element, so 2x2 Gauss
    integration of the bilinear form is exact.  Local node order:
    (0,0), (1,0), (0,1), (1,1) in (s, theta).
    """
    th = (np.arange(n_theta) + 0.5) * dt
    c, s = np.cos(th), np.sin(th)
    a00, a01, a11 = a_mat[0, 0], a_mat[0, 1], a_mat[1, 1]
    m11 = a00 * c * c + 2 * a01 * s * c + a11 * s * s
    m22 = a00 * s * s - 2 * a01 * s * c + a11 * c * c
    m12 = (a11 - a00) * s * c + a01 * (c * c - s * s)

    gauss = 0.5 * (1.0 - 1.0 / math.sqrt(3.0))
    pts = [(gauss, gauss), (gauss, 1 - gauss), (1 - gauss, gauss),
           (1 - gauss, 1 - gauss)]
    k_el = np.zeros((n_theta, 4, 4))
    f_el = np.zeros((n_theta, 4))
    for xi, eta in pts:
        dn_dxi = np.array([-(1 - eta), (1 - eta), -eta, eta])
        dn_deta = np.array([-(1 - xi), -xi, (1 - xi), xi])
        bs = dn_dxi / ds     # d/ds
        bt = dn_deta / dt    # d/dtheta
        w = 0.25 * ds * dt
        k_el += w * (
            m11[:, None, None] * (bs[:, None] * bs[None, :])[None]
            + m22[:, None, None] * (bt[:, None] * bt[None, :])[None]
            + m12[:, None, None]
            * (bs[:, None] * bt[None, :] + bt[:, None] * bs[None, :])[None]
        )
        f_el += w * (m12[:, None] * bs[None, :] + m22[:, None] * bt[None, :])
    const = float(np.sum(m22) * ds * dt)
    return k_el, f_el, const


def _element_corners(ext: np.ndarray) -> tuple[np.ndarray, ...]:
    """The corner views of every element, in the local node order, of a
    node array extended by one column that stands for its first (the
    periodic wrap in theta): each view is (n_r - 1, n_theta), element
    (j, k) at [j, k]."""
    return ext[:-1, :-1], ext[1:, :-1], ext[:-1, 1:], ext[1:, 1:]


def _scatter(parts, n_r: int, n_theta: int) -> np.ndarray:
    """Node array of the per-element corner values `parts` (local node
    order, each broadcastable to (n_r - 1, n_theta)), summed per node."""
    ext = np.zeros((n_r, n_theta + 1))
    for target, part in zip(_element_corners(ext), parts):
        target += part
    ext[:, 0] += ext[:, n_theta]
    return ext[:, :n_theta]


#: (s, theta) index offsets of the local nodes within their element
_LOCAL_NODES = ((0, 0), (1, 0), (0, 1), (1, 1))


class _Q1Stiffness:
    """The Q1 stiffness K of the per-column element matrices `k_el`,
    applied without assembly to functions on the node rows `rows`, every
    other row held at zero (all rows for free circles, the interior ones
    for a fixed trace).

    Set-up scatters each element entry k_el[a, b] onto the node at corner a
    as the weight of its neighbour at the offset from corner a to corner b:
    the rows of K as a 9-point stencil, one coefficient array per offset.
    A call gathers the nine neighbours of every node as shifted slices of
    v padded by a zero row at each end and a wrapped column at each side.
    On a 222 x 256 node grid a call takes about 0.6 ms, where applying each
    element's matrix to its gathered corners and scattering the results
    took 1.3 ms (a 2-core Xeon, one thread).
    """

    def __init__(self, k_el: np.ndarray, n_r: int, rows: slice) -> None:
        n_theta = len(k_el)
        stencil = np.zeros((3, 3, n_r, n_theta + 1))
        for a, (ja, ka) in enumerate(_LOCAL_NODES):
            for b, (jb, kb) in enumerate(_LOCAL_NODES):
                corner = _element_corners(stencil[1 + jb - ja, 1 + kb - ka])[a]
                corner += k_el[:, a, b]
        stencil[..., 0] += stencil[..., n_theta]
        self.stencil = np.ascontiguousarray(stencil[:, :, rows, :n_theta])
        self._padded = np.zeros((self.stencil.shape[2] + 2, n_theta + 2))

    def __call__(self, v: np.ndarray) -> np.ndarray:
        m, n = v.shape
        padded = self._padded
        padded[1:-1, 1:-1] = v
        padded[1:-1, 0] = v[:, -1]
        padded[1:-1, -1] = v[:, 0]
        out = self.stencil[1, 1] * v
        for oj in range(3):
            for ok in range(3):
                if (oj, ok) != (1, 1):
                    out += self.stencil[oj, ok] * padded[oj:oj + m, ok:ok + n]
        return out


def _homogenized_minimum(problem: AnnulusProblem) -> tuple[float, SolveInfo]:
    """Returns (energy, SolveInfo) for the constant-tensor mode.

    The energy of phi is phi.K.phi + 2 f.phi + const over the nodes, with K
    the Q1 stiffness and f the z-load, neither of them assembled: K is
    applied as a stencil scattered from the per-column element matrices
    (`_Q1Stiffness`), and f is scattered from the element loads.
    """
    grid = problem.grid
    z = problem.z
    nr, nt = grid.n_r, grid.n_theta
    ds = math.log(grid.r_outer / grid.r_inner) / (nr - 1)
    k_el, f_el, const = _q1_element_matrices(
        problem.tensor.matrix(), ds, grid.dtheta, nt)
    # the preconditioner inverts the isotropic operator of this scale
    scale = 0.5 * float(np.trace(problem.tensor.matrix()))

    if problem.fixed_trace:
        # phi = 0 on both circles: solve on the interior nodes
        rows = slice(1, nr - 1)
        project = None
    else:
        # free circles: the kernel is the constants, so solve on mean zero
        rows = slice(None)
        project = _mean_zero

    rhs = -_scatter([z * f_el[:, a] for a in range(4)], nr, nt)[rows]
    stiffness = _Q1Stiffness(k_el, nr, rows)
    precond = q1_node_preconditioner(rhs.shape, ds, grid.dtheta, scale,
                                     pinned=problem.fixed_trace)
    try:
        # pcg overwrites its right-hand side, and the energy reads rhs
        sol, info = pcg(stiffness, rhs.copy(), precond, rtol=1e-12,
                        maxiter=max(50 * max(nr, nt), 2000), project=project)
    except SolverError as exc:
        raise SolverError(
            f"annulus solve stalled at residual {exc.residual:.3e}",
            residual=exc.residual, iterations=exc.iterations,
        ) from exc

    # phi vanishes off `rows`, so its energy is that of sol on them
    energy = (dot(sol, stiffness(sol)) - 2.0 * dot(rhs, sol)
              + z * z * const * (nr - 1))
    return energy, info


def min_annulus_energy(problem: AnnulusProblem) -> tuple[float, SolveInfo]:
    """Minimum energy over the phases u = z*theta + phi, phi single-valued.

    Returns (energy, SolveInfo of the linear solve: iterations and final
    relative residual), the contract of `gl_solver.core_radius_energy`;
    the minimizing phi is not kept.  Raises SolverError when the solve
    stalls.
    """
    if problem.coefficient is not None:
        return _oscillating_minimum(problem)
    return _homogenized_minimum(problem)


# -- limit extrapolation -----------------------------------------------------------


@dataclass(frozen=True)
class PsiEstimate:
    """Limit estimate of the per-vortex cost with its schedule."""

    z: int
    value: float
    schedule: tuple[tuple[float, float, Optional[float], float], ...]
    #: rows (r_inner, r_outer, delta or None, raw value)
    fit_constant: float
    fit_residual: float
    warning: bool
    mode: str
    alpha: float
    beta: float

    def to_json_dict(self) -> dict:
        return {
            "z": self.z,
            "value": self.value,
            "mode": self.mode,
            "fit_constant": self.fit_constant,
            "fit_residual": self.fit_residual,
            "warning": self.warning,
            "alpha": self.alpha,
            "beta": self.beta,
            "schedule": [
                {"r": r, "R": bigr, "delta": d, "raw": raw}
                for (r, bigr, d, raw) in self.schedule
            ],
        }


def _homogenized_radial_nodes(ratio: float) -> int:
    return max(97, int(round(48.0 * math.log(ratio))) + 1)


def psi_of_z(
    z: int,
    ratios: list[float],
    *,
    tensor: Optional[HomogenizedTensor] = None,
    coefficient: Optional[PeriodicCoefficient] = None,
    delta: Optional[float] = None,
    fixed_trace: bool = False,
    n_theta: int = 256,
    cells_per_period: float = DEFAULT_CELLS_PER_PERIOD,
) -> PsiEstimate:
    """Estimate the limit cost psi(z) from a schedule of radius ratios.

    The inner radius is normalized to 1 (the minimum depends on the radii
    only through their ratio; in the oscillating mode `delta` is then
    measured in units of the inner radius).  Each ratio produces one
    annulus minimum; the limit is the intercept of the least-squares fit
    value(R) = psi + c/log R.  A non-monotone raw sequence sets the
    warning flag but the fit is still reported.
    """
    if len(ratios) < 3 or any(b <= a for a, b in zip(ratios, ratios[1:])):
        raise ValueError(f"need >= 3 increasing ratios, got {ratios}")
    oscillating = coefficient is not None
    rows = []
    for ratio in ratios:
        if oscillating:
            grid = oscillating_annulus_grid(1.0, ratio, delta, cells_per_period)
            problem = AnnulusProblem(grid, z, coefficient=coefficient,
                                     delta=delta, fixed_trace=fixed_trace)
        else:
            grid = PolarGrid((0.0, 0.0), 1.0, ratio,
                             _homogenized_radial_nodes(ratio), n_theta)
            problem = AnnulusProblem(grid, z, tensor=tensor,
                                     fixed_trace=fixed_trace)
        energy, _ = min_annulus_energy(problem)
        rows.append((1.0, float(ratio), delta if oscillating else None,
                     energy / math.log(ratio)))

    raw = np.array([row[3] for row in rows])
    diffs = np.diff(raw)
    scale = max(1.0, float(np.max(np.abs(raw))))
    moving = np.abs(diffs) > 1e-9 * scale
    warn = bool(moving.any() and np.ptp(np.sign(diffs[moving])) > 0)

    inv_log = 1.0 / np.log(np.array(ratios))
    design = np.stack([np.ones_like(inv_log), inv_log], axis=-1)
    coef, *_ = np.linalg.lstsq(design, raw, rcond=None)
    value, c_fit = float(coef[0]), float(coef[1])
    residual = float(np.linalg.norm(design @ coef - raw))

    if oscillating:
        alpha, beta = coefficient.alpha, coefficient.beta
        mode = "oscillating"
    else:
        alpha, beta = tensor.eig_min, tensor.eig_max
        mode = "homogenized"
    if warn:
        warnings.warn(
            f"psi schedule for z={z} is not monotone in log(R); limit fit "
            "may be unreliable",
            stacklevel=2,
        )
    return PsiEstimate(z, value, tuple(rows), c_fit, residual, warn, mode,
                       float(alpha), float(beta))


# -- splitting relaxation ------------------------------------------------------------


def capital_psi(
    psi_table: dict[int, float], z: int
) -> tuple[float, tuple[int, ...]]:
    """Exact minimum of sum_j psi(z_j) over integer splittings sum z_j = z.

    `psi_table` maps |charge| to its cost (costs are even in the charge).
    The search runs over all multisets of nonzero integers with
    sum |z_j| <= (beta_eff/alpha_eff) * |z|, where the effective bounds
    are read off the table itself via 2 pi alpha k^2 <= psi(k) <= 2 pi
    beta k^2; any longer splitting costs at least 2 pi beta_eff |z| and
    cannot beat the best short one.  Returns (value, charges sorted
    descending).
    """
    if z == 0:
        raise ValueError("charge z must be nonzero")
    table = {abs(int(k)): float(v) for k, v in psi_table.items()}
    missing = [k for k in range(1, abs(z) + 1) if k not in table]
    if missing:
        raise ValueError(f"psi_table is missing charges {missing}")
    for k, v in table.items():
        if v <= 0:
            raise ValueError(f"psi({k}) must be positive, got {v}")

    alpha_eff = min(v / (2.0 * math.pi * k * k) for k, v in table.items())
    beta_eff = max(v / (2.0 * math.pi * k * k) for k, v in table.items())
    budget = max(abs(z), math.floor((beta_eff / alpha_eff) * abs(z) + 1e-12))
    kmax = min(max(table), budget)

    candidates = []
    for k in range(kmax, 0, -1):
        candidates.extend([k, -k])

    best_value = math.inf
    best_split: tuple[int, ...] = ()

    def search(idx: int, remaining: int, left: int, cost: float,
               chosen: list[int]) -> None:
        nonlocal best_value, best_split
        if remaining == 0 and chosen:
            if cost < best_value:
                best_value = cost
                best_split = tuple(sorted(chosen, reverse=True))
            return
        if abs(remaining) > left:
            return
        for i in range(idx, len(candidates)):
            c = candidates[i]
            if abs(c) > left:
                continue
            nc = cost + table[abs(c)]
            if nc >= best_value:
                continue
            chosen.append(c)
            search(i, remaining - c, left - abs(c), nc, chosen)
            chosen.pop()

    search(0, z, budget, 0.0, [])
    return best_value, best_split


def predicted_gamma_limit(
    coeff: PeriodicCoefficient,
    tensor: HomogenizedTensor,
    lam: float,
    mu,
) -> float:
    """Predicted limit energy per |log eps|:
    2 pi ((1 - lambda) ess_inf(a) + lambda sqrt(det A)) * total variation."""
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return (
        2.0
        * math.pi
        * ((1.0 - lam) * coeff.ess_inf() + lam * math.sqrt(tensor.det))
        * mu.total_variation
    )
