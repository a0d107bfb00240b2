"""Discretization substrate: grids and scalar/vector fields.

Two grid families cover every computation in the package:

  * `CartesianGrid` — uniform square-cell grids on rectangles, fields stored
    on the (nx+1) x (ny+1) nodes;
  * `PolarGrid` — the geometry of an annulus solve: logarithmically spaced
    radii and uniformly spaced periodic angles.  Equal-log radial shells
    carry equal energy for fields whose energy density scales like
    1/rho^2, which is exactly the regime of interest, so log spacing
    spends resolution where the energy lives.

Fields live on a `CartesianGrid` only; the annulus solves return numbers,
not fields.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

__all__ = [
    "CartesianGrid",
    "PolarGrid",
    "ScalarField2D",
    "VectorField2D",
]


# -- grids --------------------------------------------------------------------


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform grid with square cells on the rectangle origin + [0,Lx]x[0,Ly].

    `n` counts cells per axis; nodal fields hold (nx+1) x (ny+1) values.
    """

    origin: tuple[float, float]
    extent: tuple[float, float]
    n: tuple[int, int]

    def __post_init__(self) -> None:
        nx, ny = self.n
        lx, ly = self.extent
        if nx < 4 or ny < 4:
            raise ValueError(f"need at least 4 cells per axis, got {self.n}")
        if lx <= 0 or ly <= 0:
            raise ValueError(f"extent must be positive, got {self.extent}")
        hx, hy = lx / nx, ly / ny
        if abs(hx - hy) > 1e-12 * max(hx, hy):
            raise ValueError(
                f"cells must be square: Lx/nx={hx!r} differs from Ly/ny={hy!r}"
            )

    @property
    def h(self) -> float:
        return self.extent[0] / self.n[0]

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.n[0] + 1, self.n[1] + 1)

    def node_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """1-d arrays of node coordinates along each axis."""
        nx, ny = self.n
        x = self.origin[0] + self.h * np.arange(nx + 1)
        y = self.origin[1] + self.h * np.arange(ny + 1)
        return x, y

    def node_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Node coordinate arrays X, Y of shape node_shape ('ij' indexing)."""
        x, y = self.node_axes()
        return np.meshgrid(x, y, indexing="ij")


@dataclass(frozen=True)
class PolarGrid:
    """Annulus grid: log-spaced radii, uniform periodic angles.

    Radial nodes rho_j = r_inner * (r_outer/r_inner)^(j/(n_r-1)) for
    j = 0..n_r-1; angular nodes theta_k = 2 pi k / n_theta for
    k = 0..n_theta-1 with periodic wraparound (no duplicated seam node).
    """

    center: tuple[float, float]
    r_inner: float
    r_outer: float
    n_r: int
    n_theta: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r_inner < self.r_outer):
            raise ValueError(
                f"need 0 < r_inner < r_outer, got {self.r_inner}, {self.r_outer}"
            )
        if self.n_r < 8:
            raise ValueError(f"need n_r >= 8, got {self.n_r}")
        if self.n_theta < 16:
            raise ValueError(f"need n_theta >= 16, got {self.n_theta}")

    @property
    def dtheta(self) -> float:
        return 2.0 * np.pi / self.n_theta


# -- fields -------------------------------------------------------------------


def _check_shape(grid: CartesianGrid, values: np.ndarray, ncomp: int) -> None:
    if not isinstance(grid, CartesianGrid):
        raise ValueError(f"fields need a CartesianGrid, got {type(grid).__name__}")
    want = grid.node_shape + ((ncomp,) if ncomp > 1 else ())
    if values.shape != want:
        raise ValueError(f"values shape {values.shape} does not match grid {want}")


@dataclass
class ScalarField2D:
    """Scalar nodal field."""

    grid: CartesianGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        _check_shape(self.grid, self.values, 1)


@dataclass
class VectorField2D:
    """Two-component nodal field."""

    grid: CartesianGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        _check_shape(self.grid, self.values, 2)
