"""Periodic scalar coefficient fields a(y) on the unit cell.

All coefficients are 1-periodic in both coordinates and take values in a
band [alpha, beta] with alpha > 0.  Evaluation reduces points to the unit
cell with an exact fractional-part operation, so periodicity holds to the
last bit.  It runs block-wise, 2^15 points at a time, so that a call on
millions of points (the core-radius proxy's faces) keeps its temporaries
in cache instead of allocating several arrays of the input's size; each
point's value is computed the same way whatever the block.  On a tensor
grid of 1-d coordinates, `eval_grid` gives the same bits from the same
kernel without building the points, and computes what depends on one
coordinate once per coordinate: the checkerboard's 2047 x 2048 face grid
takes 12 ms there and 51 ms through `eval`, the smooth field's 16 and
123 ms (medians of 7, one thread of a 2-core Xeon).  Supported kinds:

  constant            a(y) = c
  checkerboard        alpha on the two quadrants of [0,1)^2 where
                      floor(2 y1) + floor(2 y2) is even, beta elsewhere
  laminate            alpha where frac(y . direction) < fraction, beta
                      elsewhere (layers normal to `direction`)
  smooth-trigonometric  a(y) = c0 + c1 cos(2 pi y1) cos(2 pi y2)
  raster              piecewise-constant M x M sample grid on cell centers
                      of [0,1)^2 (nearest-cell lookup, no interpolation)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "PeriodicCoefficient",
    "constant",
    "checkerboard",
    "laminate",
    "smooth_trigonometric",
    "raster",
    "raster_from_file",
]


#: Points per block of `PeriodicCoefficient.eval`.
_BLOCK_POINTS = 1 << 15


def _frac(x: np.ndarray) -> np.ndarray:
    """Fractional part in [0, 1), exact for integer shifts."""
    return x - np.floor(x)


@dataclass(frozen=True)
class PeriodicCoefficient:
    """A 1-periodic coefficient field with known bounds.

    Immutable after construction; evaluation is pure, so instances may be
    shared freely across worker threads.
    """

    kind: str
    params: dict[str, Any] = field(repr=False)
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha <= self.beta):
            raise ValueError(
                f"coefficient bounds must satisfy 0 < alpha <= beta, "
                f"got alpha={self.alpha}, beta={self.beta}"
            )

    # -- evaluation ---------------------------------------------------------

    def eval(self, y: np.ndarray) -> np.ndarray:
        """Evaluate a(y) at points of shape (..., 2).

        Points are reduced to the unit cell internally; any finite input
        is accepted, and a non-finite coordinate raises ValueError (it has
        no position in the cell).  Returns an array of shape (...), or a
        float for a single point.  Large inputs are evaluated, and checked,
        in blocks of `_BLOCK_POINTS` points, so the temporaries stay in
        cache.
        """
        pts = np.asarray(y, dtype=float)
        scalar_input = pts.ndim == 1
        pts = np.atleast_2d(pts)
        if pts.shape[-1] != 2:
            raise ValueError(f"points must have shape (..., 2), got {pts.shape}")
        flat = pts.reshape(-1, 2)
        out = np.empty(len(flat))
        for i0 in range(0, len(flat), _BLOCK_POINTS):
            block = flat[i0:i0 + _BLOCK_POINTS]
            if not np.isfinite(block).all():
                bad = i0 + int(np.argmin(np.isfinite(block).all(axis=1)))
                raise ValueError(f"non-finite point {tuple(flat[bad])} "
                                 f"(index {bad} of the flattened points)")
            out[i0:i0 + len(block)] = self._eval_block(block[:, 0], block[:, 1])
        if scalar_input:
            return float(out[0])
        return out.reshape(pts.shape[:-1])

    def eval_grid(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """a(u_i, v_j) on the tensor grid of 1-d coordinates u and v, an
        array of shape (len(u), len(v)).

        Bit for bit `eval` at the stacked points (u_i, v_j): the same
        kernel runs on u as a column and v as a row, so each element takes
        the same operations, while whatever depends on one coordinate only
        (the fractional parts, the checkerboard's halves, the smooth
        field's cosines) is computed once per coordinate instead of once
        per point.  Rows go in blocks of fewer than 2 `_BLOCK_POINTS`
        points, so the temporaries stay in cache.  A non-finite coordinate
        raises ValueError, as in `eval`.
        """
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        for name, c in (("u", u), ("v", v)):
            if c.ndim != 1:
                raise ValueError(f"{name} must be 1-d, got shape {c.shape}")
            if not np.isfinite(c).all():
                bad = int(np.argmin(np.isfinite(c)))
                raise ValueError(f"non-finite coordinate {name}[{bad}] = {c[bad]}")
        blocks = len(u) * len(v) // _BLOCK_POINTS
        if blocks <= 1:
            return self._eval_block(u[:, None], v)
        out = np.empty((len(u), len(v)))
        step = -(-len(u) // blocks)
        for i0 in range(0, len(u), step):
            out[i0:i0 + step] = self._eval_block(u[i0:i0 + step, None], v)
        return out

    def _eval_block(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        """a at the points (x1, x2): 1-d arrays of equal length, or a column
        and a row, whose broadcast is the grid of points (`eval_grid`)."""
        y1 = _frac(x1)
        y2 = _frac(x2)
        k = self.kind
        p = self.params
        if k == "constant":
            return np.full(np.broadcast_shapes(y1.shape, y2.shape), p["value"])
        if k == "checkerboard":
            # floor(2 y) is 0, 1 or 2 (frac may round up to 1.0), so
            # truncation equals it, and the parity of the sum is the XOR of
            # the parities (on a tensor grid, of a column and a row)
            odd = (((2.0 * y1).astype(np.int64) & 1).astype(bool)
                   ^ ((2.0 * y2).astype(np.int64) & 1).astype(bool))
            return np.where(odd, p["beta_val"], p["alpha_val"])
        if k == "laminate":
            d = p["direction"]
            t = _frac(x1 * d[0] + x2 * d[1])
            return np.where(t < p["fraction"], p["alpha_val"], p["beta_val"])
        if k == "smooth-trigonometric":
            return p["c0"] + p["c1"] * np.cos(2 * np.pi * y1) * np.cos(2 * np.pi * y2)
        if k == "raster":
            samples = p["samples"]
            m = samples.shape[0]
            col = np.minimum((y1 * m).astype(int), m - 1)
            row = np.minimum((y2 * m).astype(int), m - 1)
            return samples[row, col]
        raise ValueError(f"unknown coefficient kind {k!r}")  # pragma: no cover

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.eval(y)

    # -- summary statistics -------------------------------------------------

    def ess_inf(self) -> float:
        """Essential infimum of the field over the unit cell.

        Exact (analytic) for all kinds except raster, which is known only
        at its samples: there it is the sample minimum.
        """
        k = self.kind
        p = self.params
        if k == "constant":
            return float(p["value"])
        if k in ("checkerboard", "laminate"):
            return float(min(p["alpha_val"], p["beta_val"]))
        if k == "smooth-trigonometric":
            return float(p["c0"] - abs(p["c1"]))
        if k == "raster":
            return float(p["samples"].min())
        raise ValueError(f"unknown coefficient kind {k!r}")  # pragma: no cover

    def min_point(self) -> tuple[float, float]:
        """A point of the unit cell where the field attains its minimum.

        Used to place vortex cores at energetically cheap cell positions.
        Returns cell-interior representatives for piecewise-constant kinds.
        """
        k = self.kind
        p = self.params
        if k == "constant":
            return (0.5, 0.5)
        if k == "checkerboard":
            # centers of the even quadrants hold alpha_val
            if p["alpha_val"] <= p["beta_val"]:
                return (0.25, 0.25)
            return (0.75, 0.25)
        if k == "laminate":
            t = 0.5 * p["fraction"] if p["alpha_val"] <= p["beta_val"] \
                else 0.5 * (1.0 + p["fraction"])
            d = p["direction"]
            # representative on the layer: move along the normal direction
            if abs(d[0]) >= abs(d[1]):
                return (_frac(np.array(t / d[0] if d[0] != 0 else 0.0)).item(), 0.5)
            return (0.5, _frac(np.array(t / d[1] if d[1] != 0 else 0.0)).item())
        if k == "smooth-trigonometric":
            if p["c1"] > 0:
                return (0.5, 0.0)  # cos*cos = -1
            return (0.0, 0.0)  # cos*cos = +1, multiplied by negative c1
        if k == "raster":
            samples = p["samples"]
            m = samples.shape[0]
            row, col = np.unravel_index(int(np.argmin(samples)), samples.shape)
            return ((col + 0.5) / m, (row + 0.5) / m)
        raise ValueError(f"unknown coefficient kind {k!r}")  # pragma: no cover


# -- constructors -----------------------------------------------------------


def constant(value: float) -> PeriodicCoefficient:
    """Spatially constant coefficient a(y) = value."""
    value = float(value)
    return PeriodicCoefficient("constant", {"value": value}, value, value)


def checkerboard(alpha_val: float, beta_val: float) -> PeriodicCoefficient:
    """Four-quadrant checkerboard on the unit cell.

    Takes `alpha_val` on the quadrants where floor(2 y1) + floor(2 y2) is
    even ((0,0) and (1,1) blocks) and `beta_val` on the other two.
    """
    a, b = float(alpha_val), float(beta_val)
    return PeriodicCoefficient(
        "checkerboard",
        {"alpha_val": a, "beta_val": b},
        min(a, b),
        max(a, b),
    )


def laminate(
    alpha_val: float,
    beta_val: float,
    direction: tuple[float, float] = (0.0, 1.0),
    fraction: float = 0.5,
) -> PeriodicCoefficient:
    """Layered coefficient: alpha_val where frac(y . direction) < fraction.

    `direction` is the layer normal (an integer vector preserves exact
    1-periodicity; the axis vectors are the usual choice).  `fraction` is
    the volume fraction of the alpha_val phase.
    """
    if not (0.0 < fraction < 1.0):
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    a, b = float(alpha_val), float(beta_val)
    d = (float(direction[0]), float(direction[1]))
    if d == (0.0, 0.0):
        raise ValueError("direction must be nonzero")
    return PeriodicCoefficient(
        "laminate",
        {"alpha_val": a, "beta_val": b, "direction": d, "fraction": float(fraction)},
        min(a, b),
        max(a, b),
    )


def smooth_trigonometric(c0: float = 2.0, c1: float = 1.0) -> PeriodicCoefficient:
    """Smooth field a(y) = c0 + c1 cos(2 pi y1) cos(2 pi y2).

    Requires c0 - |c1| > 0 so the field stays positive.
    """
    c0, c1 = float(c0), float(c1)
    if c0 - abs(c1) <= 0:
        raise ValueError(f"c0 - |c1| must be positive, got c0={c0}, c1={c1}")
    return PeriodicCoefficient(
        "smooth-trigonometric", {"c0": c0, "c1": c1}, c0 - abs(c1), c0 + abs(c1)
    )


def raster(samples: np.ndarray) -> PeriodicCoefficient:
    """Piecewise-constant field from an M x M sample grid.

    `samples[r, c]` is the value on the grid cell centered at
    ((c + 0.5)/M, (r + 0.5)/M); evaluation is nearest-cell with no
    interpolation, so the sample bounds are exact field bounds.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"samples must be a square 2-d array, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise ValueError("samples must be nonempty")
    if not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("all raster samples must be finite and positive")
    arr = arr.copy()
    arr.setflags(write=False)
    return PeriodicCoefficient(
        "raster", {"samples": arr}, float(arr.min()), float(arr.max())
    )


def raster_from_file(path: str) -> PeriodicCoefficient:
    """Read a raster coefficient from a plain-text grid file.

    Format: first line holds the integer M, followed by M rows of M
    whitespace-separated finite positive decimals, row-major, giving samples on
    the cell centers of [0,1)^2.
    """
    with open(path, "r", encoding="utf-8") as fh:
        tokens = fh.read().split()
    if not tokens:
        raise ValueError(f"{path}: empty raster file")
    try:
        m = int(tokens[0])
    except ValueError as exc:
        raise ValueError(f"{path}: first token must be the grid size M") from exc
    if m < 1:
        raise ValueError(f"{path}: grid size must be >= 1, got {m}")
    values = tokens[1:]
    if len(values) != m * m:
        raise ValueError(
            f"{path}: expected {m * m} samples for M={m}, found {len(values)}"
        )
    arr = np.array([float(v) for v in values], dtype=float).reshape(m, m)
    return raster(arr)
