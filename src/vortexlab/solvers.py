"""Matrix-free preconditioned conjugate gradients on structured grids.

Every elliptic solve in the package is a five-point finite-volume operator
or a bilinear (Q1) finite-element one on a rectangular index grid
(periodic, reflective, pinned or masked boundaries), so a single CG routine
plus a family of spectral preconditioners covers all of them.  The
preconditioners invert the constant-coefficient analogue of the operator
with the transform that diagonalizes it:

  * periodic x periodic       -> 2-d real FFT
  * reflective x periodic     -> DCT-II along the reflective axis, real
                                 FFT along the periodic one
  * pinned x periodic         -> DST-II along the pinned axis (half-cell
                                 Dirichlet rows, exact), real FFT along
                                 the periodic one
  * reflective x reflective   -> 2-d DCT-II (also used for masked grids,
                                 where it preconditions the zero-filled
                                 extension)
  * Q1 nodes, free x periodic -> DCT-I along the free axis (end rows
                                 doubled), real FFT along the periodic one
  * Q1 nodes, pinned x periodic -> DST-I on the interior nodes, real FFT
                                 along the periodic one

Periodic axes use the real-input FFT: the data are real, so only the
n//2 + 1 nonnegative frequencies are transformed and divided.  All
transforms are unitary up to diagonal scalings that commute with the
eigenvalue division, so each preconditioner is symmetric positive definite
on the relevant subspace.

Work on arrays of 512 x 512 points or more runs on as many threads as the
process may use (its CPU affinity, read once at import); smaller arrays
stay on one thread, where starting threads costs more than it saves.  This
covers the transforms and the elementwise work of a solve: CG's vector
updates, the eigenvalue division, mask restrictions and operators that opt
in through `_row_blocks`.  Elementwise work is also done in cache-sized
row chunks, so a chain of updates reads and writes each large array once.
Each 1-d transform and each element is computed the same way whatever the
thread count, and every reduction (inner products, sums) runs over the
whole array on one thread, so the results are bit-for-bit identical.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.fft as sfft

__all__ = [
    "SolverError",
    "SolveInfo",
    "pcg",
    "active_projection",
    "periodic_fft_preconditioner",
    "mixed_dct_fft_preconditioner",
    "dct2_preconditioner",
    "q1_node_preconditioner",
]


def _affinity_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


_WORKERS = _affinity_count()
# On 2 cores two threads cost 40% more than one on a 128^2 transform, break
# even near 512^2 and save 40-50% at 2048^2.
_THREADED_MIN_SIZE = 512 * 512


def _workers(a: np.ndarray) -> int:
    """Thread count for the transforms and elementwise work on `a`."""
    return _WORKERS if a.size >= _THREADED_MIN_SIZE else 1


# Elements per chunk of elementwise work: a chunk's operands and temporaries
# stay in a 2 MiB per-core L2, so chained updates touch memory once.  On a
# 2-core Xeon, at 2048^2, the core-radius operator took 27 ms in chunks of
# 8-16 rows against 35 ms in whole half-grid blocks (79 ms unblocked), and
# CG's x and r updates 18 ms in chunks of 2^15 against 25 ms unchunked;
# at 256^2 two chunks cost no more than one.
_CHUNK_ELEMENTS = 1 << 15

_pool: Optional[ThreadPoolExecutor] = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The pool behind `_row_blocks`, started on first use, not at import."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _WORKERS - 1),
                                       thread_name_prefix="vortexlab-rows")
        return _pool


def _row_blocks(a: np.ndarray, fn: Callable[[int, int], None]) -> None:
    """Run fn(i0, i1) over row ranges [i0, i1) of axis 0 of `a` that cover
    it exactly once, each at most `_CHUNK_ELEMENTS` elements (one row at
    least).

    `fn` must only touch rows i0..i1-1 of its outputs.  Arrays of 512^2
    points or more are split into one contiguous block per worker
    (`_WORKERS`, read at call time); the caller runs the first block and a
    shared pool the others.  Smaller arrays run inline on the calling
    thread.  `fn` runs on pool threads, so it must never call
    `_row_blocks` itself: a pool task waiting on the pool can deadlock.
    """
    rows = a.shape[0]
    step = max(1, _CHUNK_ELEMENTS * rows // max(a.size, 1))

    def block(b0: int, b1: int) -> None:
        for i0 in range(b0, b1, step):
            fn(i0, min(i0 + step, b1))

    workers = min(_workers(a), rows)
    if workers <= 1:
        block(0, rows)
        return
    bounds = [rows * k // workers for k in range(workers + 1)]
    pool = _executor()
    futures = [pool.submit(block, b0, b1)
               for b0, b1 in zip(bounds[1:-1], bounds[2:])]
    try:
        block(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()


def active_projection(active: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """In-place map of a grid array onto mean-zero functions supported on the
    True cells of the boolean mask `active`.

    Zeroes the inactive cells, subtracts the mean over the active cells
    and zeroes the inactive cells again, with the same arithmetic as
    `v *= active; v -= v.sum() / nact; v *= active`.  Only the inactive
    cells are indexed, which is cheap when they are few (holes around
    vortex cores)."""
    inactive = np.nonzero(~active)
    nact = int(active.sum())

    def project(v: np.ndarray) -> np.ndarray:
        v[inactive] = 0.0
        shift = v.sum() / nact

        def rows(i0: int, i1: int) -> None:
            v[i0:i1] -= shift

        _row_blocks(v, rows)
        v[inactive] = 0.0
        return v

    return project


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, residual: float = float("nan"),
                 iterations: int = -1):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolveInfo:
    iterations: int
    relative_residual: float


def pcg(
    apply_operator: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    apply_preconditioner: Callable[[np.ndarray], np.ndarray],
    *,
    rtol: float,
    maxiter: int,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> tuple[np.ndarray, SolveInfo]:
    """Preconditioned CG for symmetric positive (semi)definite operators.

    `project`, when given, maps onto the solvable subspace (typically
    mean-zero functions, possibly restricted to active cells), in place.
    It is applied to the right-hand side, to every operator output, and to
    the solution on return.  The iterate itself is not projected on each
    step: it is a combination of search directions, each built from
    preconditioner outputs that already lie in the subspace, so a per-step
    projection would only remove rounding.

    After set-up the loop allocates no grid-size arrays of its own (only
    cache-sized temporaries); the operator and the preconditioner may.
    The vector updates run in `_row_blocks`, on several threads for large
    grids; the inner products stay whole-array, so the iterates do not
    depend on the thread count.  Non-finite data (right-hand side, curvature
    p.Ap, or residual norm) raises SolverError at once instead of running
    out the iteration budget.

    Returns (solution, info); raises SolverError if the relative residual
    has not dropped below `rtol` within `maxiter` iterations.
    """
    x = np.zeros_like(rhs)
    b = rhs if project is None else project(rhs.copy())
    bnorm = math.sqrt(float(np.vdot(b, b)))
    if not math.isfinite(bnorm):
        raise SolverError("conjugate gradients got a non-finite right-hand side",
                          iterations=0)
    if bnorm == 0.0:
        return x, SolveInfo(0, 0.0)

    r = b.copy()
    z = apply_preconditioner(r)
    p = z.copy()
    rz = float(np.vdot(r, z))
    res = bnorm
    for it in range(1, maxiter + 1):
        ap = apply_operator(p)
        if project is not None:
            ap = project(ap)
        denom = float(np.vdot(p, ap))
        if not math.isfinite(denom):
            raise SolverError(
                f"conjugate gradients met non-finite curvature (iteration {it})",
                residual=res / bnorm, iterations=it,
            )
        if denom <= 0.0:
            raise SolverError(
                f"conjugate gradients lost positivity (iteration {it})",
                residual=res / bnorm, iterations=it,
            )
        alpha = rz / denom

        def update_x_r(i0: int, i1: int) -> None:
            x[i0:i1] += p[i0:i1] * alpha
            r[i0:i1] -= ap[i0:i1] * alpha

        _row_blocks(r, update_x_r)
        res = math.sqrt(float(np.vdot(r, r)))
        if not math.isfinite(res):
            raise SolverError(
                f"conjugate gradients met a non-finite residual (iteration {it})",
                iterations=it,
            )
        if res <= rtol * bnorm:
            if project is not None:
                x = project(x)
            return x, SolveInfo(it, res / bnorm)
        z = apply_preconditioner(r)
        rz_new = float(np.vdot(r, z))
        beta = rz_new / rz

        def update_p(i0: int, i1: int) -> None:
            p[i0:i1] *= beta
            p[i0:i1] += z[i0:i1]

        _row_blocks(p, update_p)
        rz = rz_new
    raise SolverError(
        f"conjugate gradients did not reach rtol={rtol} in {maxiter} iterations",
        residual=res / bnorm,
        iterations=maxiter,
    )


def _eig_periodic(n: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n)


def _eig_reflective(n: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)


def _eig_pinned(n: int) -> np.ndarray:
    return 2.0 - 2.0 * np.cos(np.pi * np.arange(1, n + 1) / n)


def periodic_fft_preconditioner(
    shape: tuple[int, int], scale: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of scale * (periodic 5-point Laplacian), zero mode projected.

    The eigenvalues along axis 0 cover every frequency; along axis 1 only
    the nonnegative ones that `rfft2` keeps."""
    lam0 = _eig_periodic(shape[0])
    lam1 = _eig_periodic(shape[1])[: shape[1] // 2 + 1]
    ell = scale * (lam0[:, None] + lam1[None, :])
    ell[0, 0] = 1.0

    def apply(r: np.ndarray) -> np.ndarray:
        workers = _workers(r)
        rh = sfft.rfft2(r, workers=workers)
        rh /= ell
        rh[0, 0] = 0.0
        return sfft.irfft2(rh, s=shape, overwrite_x=True, workers=workers)

    return apply


def mixed_dct_fft_preconditioner(
    shape: tuple[int, int], coeff_axis0: float, coeff_axis1: float,
    *, pinned: bool = False,
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of the constant-coefficient cell-centered operator with axis 0
    bounded and axis 1 periodic, eigenvalue coeff0*lam0(p) + coeff1*lam_P(q).

    Along axis 0 the rows either reflect (`pinned` False: DCT-II, lam0 =
    2 - 2 cos(pi p / n0), p = 0..n0-1) or carry the half-cell Dirichlet
    rows 3 phi_0 - phi_1 of a zero trace on both ends (`pinned` True:
    DST-II, lam0 = 2 - 2 cos(pi (p + 1) / n0)).  The reflective operator
    is singular; its constant mode is projected out, so pair it with a
    mean-zero projection.  The pinned one is definite and nothing is
    projected."""
    n0, n1 = shape
    lam0 = _eig_pinned(n0) if pinned else _eig_reflective(n0)
    lam1 = _eig_periodic(n1)[: n1 // 2 + 1]  # the frequencies rfft keeps
    ell = coeff_axis0 * lam0[:, None] + coeff_axis1 * lam1[None, :]
    if not pinned:
        ell[0, 0] = 1.0
    forward, inverse = (sfft.dst, sfft.idst) if pinned else (sfft.dct, sfft.idct)

    def apply(r: np.ndarray) -> np.ndarray:
        workers = _workers(r)
        w = forward(r, type=2, axis=0, workers=workers)
        w = sfft.rfft(w, axis=1, workers=workers)
        w /= ell
        if not pinned:
            w[0, 0] = 0.0
        w = sfft.irfft(w, n=n1, axis=1, overwrite_x=True, workers=workers)
        return inverse(w, type=2, axis=0, overwrite_x=True, workers=workers)

    return apply


def dct2_preconditioner(
    shape: tuple[int, int], scale: float,
    restrict: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of scale * (reflective 5-point Laplacian) via 2-d DCT-II.

    When `restrict` (a boolean active mask) is given, the result is
    restricted to the active cells and re-centered there
    (`active_projection`), which keeps the preconditioner symmetric
    positive definite on the masked subspace.
    """
    lam1 = _eig_reflective(shape[0])
    lam2 = _eig_reflective(shape[1])
    ell = scale * (lam1[:, None] + lam2[None, :])
    ell[0, 0] = 1.0
    project = active_projection(restrict) if restrict is not None else None

    def apply(r: np.ndarray) -> np.ndarray:
        workers = _workers(r)
        w = sfft.dctn(r, type=2, workers=workers)

        def divide(i0: int, i1: int) -> None:
            w[i0:i1] /= ell[i0:i1]

        _row_blocks(w, divide)
        w[0, 0] = 0.0
        w = sfft.idctn(w, type=2, overwrite_x=True, workers=workers)
        return w if project is None else project(w)

    return apply


def q1_node_preconditioner(
    shape: tuple[int, int], h0: float, h1: float, scale: float,
    *, pinned: bool = False,
) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of scale * (Q1 stiffness) on a node grid of spacings
    (h0, h1), periodic along axis 1.

    The stiffness is the tensor product K0 (x) M1 + M0 (x) K1 of the 1-d
    linear-element stiffness K and mass M matrices.  The periodic factors
    are circulant: FFT eigenvalues k = (2 - 2 cos w) / h and
    m = h (2 + cos w) / 3 with w = 2 pi q / n.  Along axis 0 the same
    formulas hold with w = pi p / (n0 - 1):

      * free ends (`pinned` False, `shape` counts every node): K0 and M0
        carry half-weight end rows; doubling those rows makes both
        diagonal in DCT-I.  The constant mode is projected out, so the
        result inverts the operator on mean-zero data.
      * pinned ends (`pinned` True, `shape` counts the interior nodes
        only, w = pi p / (n0 + 1), p = 1..n0): DST-I.  The operator is
        definite and nothing is projected.
    """
    n0, n1 = shape
    if pinned:
        w0 = np.pi * np.arange(1, n0 + 1) / (n0 + 1)
    else:
        w0 = np.pi * np.arange(n0) / (n0 - 1)
    w1 = 2.0 * np.pi * np.arange(n1 // 2 + 1) / n1
    k0, m0 = (2.0 - 2.0 * np.cos(w0)) / h0, h0 * (2.0 + np.cos(w0)) / 3.0
    k1, m1 = (2.0 - 2.0 * np.cos(w1)) / h1, h1 * (2.0 + np.cos(w1)) / 3.0
    ell = scale * (k0[:, None] * m1[None, :] + m0[:, None] * k1[None, :])
    if not pinned:
        ell[0, 0] = 1.0
        ends = np.ones((n0, 1))
        ends[0] = ends[-1] = 2.0

    def apply(r: np.ndarray) -> np.ndarray:
        workers = _workers(r)
        if pinned:
            w = sfft.dst(r, type=1, axis=0, workers=workers)
        else:
            w = sfft.dct(r * ends, type=1, axis=0, overwrite_x=True,
                         workers=workers)
        w = sfft.rfft(w, axis=1, workers=workers)
        w /= ell
        if not pinned:
            w[0, 0] = 0.0
        w = sfft.irfft(w, n=n1, axis=1, overwrite_x=True, workers=workers)
        if pinned:
            return sfft.idst(w, type=1, axis=0, overwrite_x=True, workers=workers)
        return sfft.idct(w, type=1, axis=0, overwrite_x=True, workers=workers)

    return apply
