"""Effective tensor of a periodic coefficient via corrector problems.

For a 1-periodic scalar coefficient a(y), the effective (homogenized)
2x2 tensor is

    <A_hom xi, xi> = min over periodic phi of  integral over the unit cell
                     of a(y) |xi + grad phi(y)|^2 dy,

one quadratic minimization per direction xi.  The discretization is
cell-centered finite volumes with harmonic averaging of a at cell faces
(the standard choice for discontinuous coefficients; arithmetic averaging
biases checkerboard-type fields high).  The periodic singular system, a
periodic `solvers.FaceOperator`, is solved by FFT-preconditioned conjugate
gradients with a mean-zero projection every iteration, to the relative
residual `_RTOL`.

Off-diagonal entries come from polarization:
a12 = (E(e1+e2) - E(e1) - E(e2)) / 2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import PeriodicCoefficient
from .fields import CartesianGrid, ScalarField2D
from .solvers import (
    FaceOperator,
    SolverError,
    _mean_zero,
    pcg,
    periodic_fft_preconditioner,
)

__all__ = [
    "HomogenizedTensor",
    "CorrectorSolution",
    "TensorRefinement",
    "solve_corrector",
    "homogenized_tensor",
    "refine_tensor",
    "MIN_RESOLUTION",
]

#: smallest cell grid side that `solve_corrector` accepts
MIN_RESOLUTION = 16
#: relative residual of every corrector solve
_RTOL = 1e-9


@dataclass(frozen=True)
class HomogenizedTensor:
    """Symmetric positive-definite 2x2 effective tensor with provenance."""

    a11: float
    a12: float
    a22: float
    resolution: int
    residual: float

    @property
    def det(self) -> float:
        return self.a11 * self.a22 - self.a12 * self.a12

    def _eigs(self) -> tuple[float, float]:
        mean = 0.5 * (self.a11 + self.a22)
        rad = math.hypot(0.5 * (self.a11 - self.a22), self.a12)
        return (mean - rad, mean + rad)

    @property
    def eig_min(self) -> float:
        return self._eigs()[0]

    @property
    def eig_max(self) -> float:
        return self._eigs()[1]

    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a12, self.a22]])

    def to_json_dict(self) -> dict:
        return {
            "a11": self.a11,
            "a12": self.a12,
            "a22": self.a22,
            "det": self.det,
            "eig_min": self.eig_min,
            "eig_max": self.eig_max,
            "n": self.resolution,
            "residual": self.residual,
        }


@dataclass
class CorrectorSolution:
    """Minimizer phi (mean zero, periodic, cell-centered) for one direction."""

    phi: ScalarField2D
    direction: tuple[float, float]
    energy: float
    residual: float
    iterations: int


def _cell_center_grid(n: int) -> CartesianGrid:
    """Grid whose nodes are the n x n cell centers of the unit cell."""
    h = 1.0 / n
    return CartesianGrid((0.5 * h, 0.5 * h), (1.0 - h, 1.0 - h), (n - 1, n - 1))


def _face_weights(coeff: PeriodicCoefficient, n: int) -> tuple[np.ndarray, np.ndarray]:
    h = 1.0 / n
    yc = (np.arange(n) + 0.5) * h
    a = coeff.eval_grid(yc, yc)
    an1 = np.roll(a, -1, axis=0)
    an2 = np.roll(a, -1, axis=1)
    wx = 2.0 * a * an1 / (a + an1)
    wy = 2.0 * a * an2 / (a + an2)
    return wx, wy


def solve_corrector(
    coeff: PeriodicCoefficient,
    xi: tuple[float, float],
    n: int,
) -> CorrectorSolution:
    """Minimize the cell quadratic form for direction xi on an n x n grid.

    Equivalently solves div(a (xi + grad phi)) = 0 with periodic boundary
    conditions, to relative residual `_RTOL`, by CG on the periodic
    `solvers.FaceOperator` of the harmonic face weights, preconditioned by
    the inverse of the constant-coefficient operator (2-d real FFT).  The
    returned energy is the quadratic form at the minimizer, i.e. the value
    <A_hom xi, xi> up to discretization error.
    """
    if n < MIN_RESOLUTION:
        raise ValueError(f"cell grid must have n >= {MIN_RESOLUTION}, got {n}")
    h = 1.0 / n
    wx, wy = _face_weights(coeff, n)
    gx = h * float(xi[0])
    gy = h * float(xi[1])
    operator = FaceOperator(wx, wy)
    b = operator.rhs(gx, gy)

    abar = 0.5 * float(wx.mean() + wy.mean())
    precond = periodic_fft_preconditioner((n, n), abar)

    def apply(v: np.ndarray) -> np.ndarray:
        # the periodic operator keeps mean zero only up to rounding; without
        # this projection a checkerboard(1, 100) corrector at n = 64 took 35
        # iterations instead of 34 in one direction
        return _mean_zero(operator.apply(v))

    try:
        phi, info = pcg(apply, b, precond, rtol=_RTOL, maxiter=50 * n,
                        project=_mean_zero)
    except SolverError as exc:
        raise SolverError(
            f"cell corrector for xi={xi} stalled at residual {exc.residual:.3e} "
            f"(pathological coefficient contrast?)",
            residual=exc.residual,
            iterations=exc.iterations,
        ) from exc

    energy = operator.energy(phi, gx, gy)
    field = ScalarField2D(_cell_center_grid(n), phi)
    return CorrectorSolution(field, (float(xi[0]), float(xi[1])), energy,
                             info.relative_residual, info.iterations)


def homogenized_tensor(coeff: PeriodicCoefficient, n: int) -> HomogenizedTensor:
    """Assemble the effective tensor from three corrector solves."""
    e1 = solve_corrector(coeff, (1.0, 0.0), n)
    e2 = solve_corrector(coeff, (0.0, 1.0), n)
    e12 = solve_corrector(coeff, (1.0, 1.0), n)
    a11 = e1.energy
    a22 = e2.energy
    a12 = 0.5 * (e12.energy - a11 - a22)
    residual = max(e1.residual, e2.residual, e12.residual)
    return HomogenizedTensor(a11, a12, a22, n, residual)


@dataclass
class TensorRefinement:
    """Extrapolated tensor plus the raw convergence table."""

    tensor: HomogenizedTensor
    table: list[HomogenizedTensor]
    orders: dict[str, float | None]
    warning: bool


def _extrapolate(values: list[float], ns: list[int]) -> tuple[float, float | None, bool]:
    """Richardson extrapolation from the last three table values.

    Returns (extrapolated, observed order or None, warning).  Geometric
    grid sequences are assumed; with only two values a first-order defect
    is assumed, at the grid ratio of the two.  A converged or non-monotone
    tail returns the last value, the latter with a warning.
    """
    if len(values) >= 3:
        v1, v2, v3 = values[-3], values[-2], values[-1]
        d1, d2 = v2 - v1, v3 - v2
        floor = 1e-12 * max(1.0, abs(v3))
        if abs(d2) <= floor and abs(d1) <= floor:
            return v3, None, False
        if d1 * d2 <= 0 or abs(d2) >= abs(d1):
            return v3, None, True
        ratio = ns[-1] / ns[-2]
        p = math.log(abs(d1) / abs(d2)) / math.log(ratio)
        return v3 + d2 / (ratio**p - 1.0), p, False
    v1, v2 = values[-2], values[-1]
    return v2 + (v2 - v1) / (ns[-1] / ns[-2] - 1.0), None, False


def refine_tensor(
    coeff: PeriodicCoefficient, n_sequence: list[int]
) -> TensorRefinement:
    """Tensor on a sequence of grids plus Richardson-extrapolated entries.

    `n_sequence` must be increasing with length >= 2 (geometric, e.g.
    {64, 128, 256}, recommended).  Per-entry observed convergence orders
    are reported; a non-monotone entry disables its extrapolation and sets
    the warning flag.
    """
    if len(n_sequence) < 2 or any(
        b <= a for a, b in zip(n_sequence, n_sequence[1:])
    ):
        raise ValueError(f"n_sequence must be increasing, length >= 2: {n_sequence}")
    table = [homogenized_tensor(coeff, n) for n in n_sequence]
    ns = list(n_sequence)

    entries: dict[str, float] = {}
    orders: dict[str, float | None] = {}
    warn = False
    for name in ("a11", "a12", "a22"):
        vals = [getattr(t, name) for t in table]
        ext, order, bad = _extrapolate(vals, ns)
        entries[name] = ext
        orders[name] = order
        warn = warn or bad
    if warn:
        warnings.warn(
            "non-monotone convergence table; affected entries not extrapolated",
            stacklevel=2,
        )
    tensor = HomogenizedTensor(
        entries["a11"], entries["a12"], entries["a22"],
        ns[-1], table[-1].residual,
    )
    return TensorRefinement(tensor, table, orders, warn)
