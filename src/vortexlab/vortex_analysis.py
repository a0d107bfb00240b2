"""Topological diagnostics for planar complex-valued fields.

Covers the Jacobian determinant, the integer-valued diagnostics (winding
along the domain boundary, per-plaquette vortex detection), atomic vortex
measures, and the flat distance between two such measures.

The primary vortex detector is plaquette winding of v/|v| rather than the
raw Jacobian: winding is integer-valued and invariant under any positive
rescaling of the modulus, so detection commutes with modulus truncation.
The Jacobian is kept for the divergence-form identities it satisfies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import ndimage
from scipy.optimize import linear_sum_assignment

from .fields import CartesianGrid, ScalarField2D, VectorField2D

__all__ = [
    "Rectangle",
    "VortexMeasure",
    "DegreeResult",
    "FlatDistanceResult",
    "jacobian",
    "boundary_degree",
    "detect_vortices",
    "flat_distance",
]


# -- domains and measures -----------------------------------------------------


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned open rectangle origin + (0,Lx) x (0,Ly)."""

    origin: tuple[float, float]
    extent: tuple[float, float]

    def __post_init__(self) -> None:
        if self.extent[0] <= 0 or self.extent[1] <= 0:
            raise ValueError(f"extent must be positive, got {self.extent}")

    def contains(self, p: tuple[float, float]) -> bool:
        x = p[0] - self.origin[0]
        y = p[1] - self.origin[1]
        return 0.0 < x < self.extent[0] and 0.0 < y < self.extent[1]

    def boundary_distance(self, p: tuple[float, float]) -> float:
        x = p[0] - self.origin[0]
        y = p[1] - self.origin[1]
        return min(x, self.extent[0] - x, y, self.extent[1] - y)

    @property
    def diameter(self) -> float:
        return math.hypot(self.extent[0], self.extent[1])


@dataclass(frozen=True)
class VortexMeasure:
    """Atomic integer measure sum_i z_i delta_{x_i} on a rectangle.

    Atoms are ((x, y), charge) pairs with nonzero integer charges and
    positions strictly inside the domain.
    """

    atoms: tuple[tuple[tuple[float, float], int], ...]
    domain: Rectangle

    def __post_init__(self) -> None:
        norm = []
        for pos, charge in self.atoms:
            z = int(charge)
            if z == 0 or z != charge:
                raise ValueError(f"charges must be nonzero integers, got {charge}")
            p = (float(pos[0]), float(pos[1]))
            if not self.domain.contains(p):
                raise ValueError(f"atom at {p} lies outside the open domain")
            norm.append((p, z))
        object.__setattr__(self, "atoms", tuple(norm))

    @property
    def total_charge(self) -> int:
        return sum(z for _, z in self.atoms)

    @property
    def total_variation(self) -> int:
        return sum(abs(z) for _, z in self.atoms)

    def separation(self) -> float:
        """min over atom pairs of |x_i - x_j|/2 and over atoms of the
        distance to the boundary; +inf for the empty measure."""
        if not self.atoms:
            return math.inf
        vals = [self.domain.boundary_distance(p) for p, _ in self.atoms]
        pos = [p for p, _ in self.atoms]
        for i in range(len(pos)):
            for j in range(i + 1, len(pos)):
                vals.append(0.5 * math.dist(pos[i], pos[j]))
        return min(vals)

    def is_separated(self, eps: float) -> bool:
        """Membership in the well-separated class at scale eps."""
        return self.separation() >= 2.0 * eps

    def to_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("x,y,charge\n")
            for (x, y), z in self.atoms:
                fh.write(f"{x!r},{y!r},{z}\n")

    @staticmethod
    def from_csv(path: str, domain: Rectangle) -> "VortexMeasure":
        atoms = []
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.lower().startswith("x,"):
                    continue
                parts = line.split(",")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected 'x,y,charge'")
                atoms.append(((float(parts[0]), float(parts[1])), int(parts[2])))
        return VortexMeasure(tuple(atoms), domain)


# -- pointwise topological fields ----------------------------------------------


def _plaquette_grid(grid: CartesianGrid) -> CartesianGrid:
    """Grid whose nodes are the plaquette (cell) centers of `grid`."""
    h = grid.h
    nx, ny = grid.n
    return CartesianGrid(
        (grid.origin[0] + 0.5 * h, grid.origin[1] + 0.5 * h),
        (grid.extent[0] - h, grid.extent[1] - h),
        (nx - 1, ny - 1),
    )


def jacobian(v: VectorField2D) -> ScalarField2D:
    """Plaquette-centered determinant of the discrete gradient.

    Each plaquette uses the average of its two opposite edge differences
    per direction, which makes the identity map give det = 1 exactly and
    keeps the discrete divergence-form identity within O(h).
    """
    h = v.grid.h
    w = v.values
    dx = 0.5 * (w[1:, :-1] - w[:-1, :-1] + w[1:, 1:] - w[:-1, 1:]) / h
    dy = 0.5 * (w[:-1, 1:] - w[:-1, :-1] + w[1:, 1:] - w[1:, :-1]) / h
    det = dx[..., 0] * dy[..., 1] - dx[..., 1] * dy[..., 0]
    return ScalarField2D(_plaquette_grid(v.grid), det)


# -- winding numbers -------------------------------------------------------------


@dataclass(frozen=True)
class DegreeResult:
    value: int
    residual: float


def _wrap(a: np.ndarray) -> np.ndarray:
    """Reduce angle increments to (-pi, pi] (nearest-branch lifting)."""
    return np.angle(np.exp(1j * a))


def boundary_degree(v: VectorField2D) -> DegreeResult:
    """Winding of v along the rectangle boundary, counterclockwise.

    Uses the boundary nodes themselves (no interpolation); the residual is
    exactly zero up to roundoff because the increments telescope.
    """
    w = v.values
    ring = np.concatenate([
        w[:, 0, :],            # bottom, left to right
        w[-1, 1:, :],          # right side, upward
        w[-2::-1, -1, :],      # top, right to left
        w[0, -2:0:-1, :],      # left side, downward (stop before start)
    ])
    mod = np.hypot(ring[:, 0], ring[:, 1])
    if np.any(mod <= 1e-12):
        raise ValueError("degree undefined on curve: |v| vanishes at a sample")
    theta = np.arctan2(ring[:, 1], ring[:, 0])
    increments = _wrap(np.diff(np.concatenate([theta, theta[:1]])))
    winding = float(increments.sum()) / (2.0 * np.pi)
    value = int(round(winding))
    return DegreeResult(value, abs(winding - value))


def detect_vortices(v: VectorField2D) -> VortexMeasure:
    """Locate vortices by per-plaquette winding of v/|v|.

    Each plaquette sums its four nearest-branch edge angle increments; the
    result is an exact multiple of 2 pi, giving an integer winding.
    Plaquettes with nonzero winding are clustered by 8-connectivity; each
    cluster yields one atom at its |winding|-weighted centroid with the
    cluster's total winding as charge (clusters cancelling to zero are
    dropped).  Winding only sees the phase, so detection is invariant
    under positive modulus rescaling.  Nodes where |v| is exactly 0 have
    no phase; their count is reported in a warning.
    """
    w = v.values
    mod = np.hypot(w[..., 0], w[..., 1])
    n_zero = int(np.count_nonzero(mod == 0.0))
    if n_zero:
        warnings.warn(
            f"{n_zero} nodes have |v| = 0; their phase is undefined and "
            "nearby windings may be unreliable",
            stacklevel=2,
        )
    ang = np.arctan2(w[..., 1], w[..., 0])
    ex = _wrap(ang[1:, :] - ang[:-1, :])
    ey = _wrap(ang[:, 1:] - ang[:, :-1])
    loop = ex[:, :-1] + ey[1:, :] - ex[:, 1:] - ey[:-1, :]
    winding = np.rint(loop / (2.0 * np.pi)).astype(int)

    labels, n_lab = ndimage.label(winding != 0, structure=np.ones((3, 3)))
    grid = v.grid
    h = grid.h
    index = np.arange(1, n_lab + 1)
    # |winding| weights keep each centroid a convex combination of its
    # plaquette centres, hence inside the domain, for mixed-sign clusters too
    weights = np.abs(winding).astype(float)
    cx = grid.origin[0] + (np.arange(winding.shape[0]) + 0.5) * h
    cy = grid.origin[1] + (np.arange(winding.shape[1]) + 0.5) * h
    totals = ndimage.sum_labels(winding, labels, index)
    masses = ndimage.sum_labels(weights, labels, index)
    sx = ndimage.sum_labels(weights * cx[:, None], labels, index)
    sy = ndimage.sum_labels(weights * cy[None, :], labels, index)
    atoms = [
        ((float(x / m), float(y / m)), int(total))
        for total, m, x, y in zip(totals, masses, sx, sy)
        if total != 0
    ]
    domain = Rectangle(grid.origin, grid.extent)
    return VortexMeasure(tuple(atoms), domain)


# -- flat distance ----------------------------------------------------------------


@dataclass(frozen=True)
class FlatDistanceResult:
    """Optimal value with its transport plan and objective breakdown.

    Plan entries are (source, sink, mass) with positions for matched unit
    masses and None marking a boundary discharge endpoint.
    """

    value: float
    plan: tuple[tuple[Optional[tuple[float, float]],
                      Optional[tuple[float, float]], float], ...]
    breakdown: dict = field(compare=False)


def _surplus_units(
    mu1: VortexMeasure, mu2: VortexMeasure
) -> tuple[list[tuple[float, float]], list[tuple[float, float]]]:
    """Unit masses of the signed difference mu1 - mu2, positives/negatives."""
    charges: dict[tuple[float, float], int] = {}
    for pos, z in mu1.atoms:
        charges[pos] = charges.get(pos, 0) + z
    for pos, z in mu2.atoms:
        charges[pos] = charges.get(pos, 0) - z
    pos_units: list[tuple[float, float]] = []
    neg_units: list[tuple[float, float]] = []
    for pos in sorted(charges):
        z = charges[pos]
        if z > 0:
            pos_units.extend([pos] * z)
        elif z < 0:
            neg_units.extend([pos] * (-z))
    return pos_units, neg_units


def flat_distance(mu1: VortexMeasure, mu2: VortexMeasure) -> FlatDistanceResult:
    """Flat distance between two atomic measures on the same rectangle.

    Integer charges split into unit masses; each positive surplus unit is
    either transported to a negative surplus unit at Euclidean cost or
    discharged at the boundary at cost = distance to the boundary.  On
    domains of diameter > 2 the dual test functions are capped at
    modulus 1, so discharge costs cap at 1 and pair costs at 2.  The
    resulting square assignment problem is solved exactly.
    """
    if mu1.domain != mu2.domain:
        raise ValueError("measures live on different domains")
    domain = mu1.domain
    capped = domain.diameter > 2.0

    pos_units, neg_units = _surplus_units(mu1, mu2)
    np_, nn = len(pos_units), len(neg_units)
    if np_ == 0 and nn == 0:
        return FlatDistanceResult(0.0, (), {
            "transport_cost": 0.0, "discharge_cost": 0.0,
            "matched_units": 0, "discharged_units": 0,
        })

    def discharge_cost(p: tuple[float, float]) -> float:
        d = domain.boundary_distance(p)
        return min(d, 1.0) if capped else d

    size = np_ + nn
    cost = np.zeros((size, size))
    for i, p in enumerate(pos_units):
        for j, q in enumerate(neg_units):
            d = math.dist(p, q)
            cost[i, j] = min(d, 2.0) if capped else d
        cost[i, nn:] = discharge_cost(p)
    for j, q in enumerate(neg_units):
        cost[np_:, j] = discharge_cost(q)
    # dummy-dummy entries stay 0

    rows, cols = linear_sum_assignment(cost)
    value = float(cost[rows, cols].sum())

    plan = []
    transport = 0.0
    discharge = 0.0
    matched = 0
    discharged = 0
    for i, j in zip(rows, cols):
        if i < np_ and j < nn:
            plan.append((pos_units[i], neg_units[j], 1.0))
            transport += cost[i, j]
            matched += 1
        elif i < np_:
            plan.append((pos_units[i], None, 1.0))
            discharge += cost[i, j]
            discharged += 1
        elif j < nn:
            plan.append((None, neg_units[j], 1.0))
            discharge += cost[i, j]
            discharged += 1
    return FlatDistanceResult(value, tuple(plan), {
        "transport_cost": transport,
        "discharge_cost": discharge,
        "matched_units": matched,
        "discharged_units": discharged,
    })
