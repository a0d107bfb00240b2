"""Matrix-free preconditioned conjugate gradients on structured grids.

Every elliptic solve in the package is one weighted Dirichlet problem on a
rectangular index grid, and this module holds one of each part:

  * `FaceOperator`: the finite-volume operator -div(w grad) of given face
    weights (any mask or geometric factor folded in), with its right-hand
    side and energy.  The face counts per axis set the boundary (periodic
    or natural), and optional half-cell Dirichlet rows pin axis 0.  b,
    A phi and the energy are row kernels that read only their chunk's
    weight and face-data rows.  The cell corrector, the oscillating
    annulus and the core-radius proxy all use them; the core-radius proxy
    stores no weights and rebuilds each chunk's rows.
  * `pcg`: preconditioned CG with an optional projection, on float64 or
    float32 vectors, with float64 inner products (`dot`).  It holds x,
    r and p beside the operator's output Ap and the preconditioner's
    output z: the right-hand side itself becomes r (projected in place),
    and since Ap is dead before z is made and z before the next Ap, the
    two may be one array.
  * `_spectral_inverse`: the exact inverse of a separable operator
    scale * (K0 (x) M1 + M0 (x) K1), given per axis the transform that
    diagonalizes the 1-d stiffness K and mass M and their eigenvalues
    (Concus & Golub's fast-solver preconditioning).  The four
    preconditioner factories are constructors of it:

      factory                         axis 0                axis 1      M
      `periodic_fft_preconditioner`   periodic cells        periodic    I
      `mixed_dct_fft_preconditioner`  reflective or pinned  periodic    I
      `dct2_preconditioner`           reflective cells      reflective  I
      `q1_node_preconditioner`        free or pinned nodes  periodic    Q1

    with one transform per boundary kind:

      periodic cells or nodes             -> real FFT
      reflective cells                    -> DCT-II
      pinned cells (half-cell Dirichlet)  -> DST-II
      free nodes (end rows doubled)       -> DCT-I
      pinned nodes (interior nodes only)  -> DST-I

    `dct2_preconditioner` also serves masked grids: it inverts the
    zero-filled extension and restricts the result to the active cells.

Periodic axes use the real-input FFT: the data are real, so only the
n//2 + 1 nonnegative frequencies are transformed and divided.  All
transforms are unitary up to diagonal scalings that commute with the
eigenvalue division, so each preconditioner is symmetric positive definite
on the relevant subspace.  On the all-real (DCT-II) path both 2-d
transforms run in place on one work buffer whose rows are padded by a
cache line: at 2048^2 an unpadded row's power-of-two stride sent every
column of the axis-0 pass to the same cache sets, and a fresh output had
to be faulted in on every forward call.  That path stores no eigenvalue
grid, so the buffer costs no memory: each row chunk of the division
rebuilds its block from the per-axis eigenvalue vectors.  The buffer is
also the result, restricted in place, so a call allocates no grid; the
caller may pass the buffer in (`buffer=`) and share it with an operator's
output (`FaceOperator(out=)`), as the core-radius solve does.

Work precision.  Everything runs in float64 except where a caller asks a
spectral inverse for float32 (`dtype=`); CG absorbs an inverse that is
exact only to about 1e-7 relative (Carson & Higham, SIAM J. Sci. Comput.
40, 2018).  Two solves do:

  * the core-radius proxy (`dct2_preconditioner`): its buffer,
    transforms, eigenvalue division, restriction and result are float32,
    inside a float32 inner CG on float32 face weights whose corrections a
    float64 outer loop refines (`gl_solver.core_radius_energy`).  Its
    2048^2 masked solve is memory-bound, and float32 halves the bytes each
    iteration moves.
  * the oscillating annulus (`mixed_dct_fft_preconditioner`): its
    transforms and eigenvalue division are float32, and one last chunked
    pass casts the result back for the float64 CG.  There the DCT-II
    along 737 = 11 * 67 rows and the real FFT along 1006 = 2 * 503
    columns are large-prime transforms, and float32 halves their cost.

The cell corrector's periodic FFT and the Q1 inverse stay float64: the
Q1 inverse is exact, where float32 would turn its one CG iteration into
several, and the homogenized annulus solves to rtol 1e-12.

Work on arrays of 512 x 512 points or more runs on as many threads as the
process may use (its CPU affinity, read once at import); smaller arrays
stay on one thread, where starting threads costs more than it saves.  This
covers the transforms and the elementwise work of a solve, all through
`_row_blocks`: CG's vector updates, the eigenvalue division, mask
restrictions and the face operator.  Elementwise work is also done in
cache-sized row chunks, so a chain of updates reads and writes each large
array once.

Reductions.  Every inner product and sum of a solve goes through `dot`
or `_row_sum`: a float64 partial per row chunk of a grid that depends on
the array's shape alone, the partials added in chunk order.  numpy's
`vdot` hands float64 data to the BLAS, which splits long vectors over its
own threads, so its bits depend on the BLAS thread count; these sums do
not.  The chunk that computes a partial is often already in cache: CG
takes r.r in its x/r update, p.Ap in `FaceOperator`'s row pass and r.z in
the last pass of the DCT-II and of the float32 mixed inverse
(`with_dot`).  Each 1-d transform and each element is computed the same
way whatever the thread count, so solutions are bit-for-bit the same for
every `_WORKERS`, core count and BLAS setting.
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
    "FaceOperator",
    "pcg",
    "dot",
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

# A reduction reads its operands once and writes nothing, so on 2 cores a
# second thread pays only from about 2^20 elements: a float64 `dot` took 272
# against 186 us inline at 2^18 elements, 464 against 359 at 2^19, and 614
# against 741 at 2^20.  Below this size `dot` runs its chunks inline.
_DOT_THREADED_MIN_SIZE = 1 << 20

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


def _chunk_rows(a: np.ndarray) -> int:
    """Rows per chunk of `a`: at most `_CHUNK_ELEMENTS` elements, one row at
    least."""
    return max(1, _CHUNK_ELEMENTS * a.shape[0] // max(a.size, 1))


def _row_blocks(a: np.ndarray, fn: Callable[[int, int], object]) -> list:
    """Run fn(i0, i1) over the row chunks [i0, i1) of axis 0 of `a`, which
    cover it exactly once, and return fn's results in chunk order.

    The chunks depend on the shape of `a` alone: chunk k holds rows
    k s .. (k + 1) s - 1, s rows of at most `_CHUNK_ELEMENTS` elements (one
    row at least).  `fn` must only touch rows i0..i1-1 of its outputs.
    Arrays of 512^2 points or more hand one contiguous run of chunks to
    each worker (`_WORKERS`, read at call time); the caller runs the first
    run and a shared pool the others.  Smaller arrays run inline on the
    calling thread.  `fn` runs on pool threads, so it must never call
    `_row_blocks` itself: a pool task waiting on the pool can deadlock.
    """
    rows, step = a.shape[0], _chunk_rows(a)
    count = -(-rows // step)
    workers = min(_workers(a), count)
    if workers <= 1:
        return [fn(i0, min(i0 + step, rows)) for i0 in range(0, rows, step)]
    results: list = [None] * count

    def run(c0: int, c1: int) -> None:
        for c in range(c0, c1):
            results[c] = fn(c * step, min((c + 1) * step, rows))

    bounds = [count * k // workers for k in range(workers + 1)]
    pool = _executor()
    futures = [pool.submit(run, c0, c1)
               for c0, c1 in zip(bounds[1:-1], bounds[2:])]
    try:
        run(bounds[0], bounds[1])
    finally:
        wait(futures)
    for future in futures:
        future.result()
    return results


def _row_sum(a: np.ndarray, fn: Callable[[int, int], float]) -> float:
    """The sum of the float partials fn(i0, i1) over `_row_blocks`' chunks
    of `a`, added in chunk order: the same bits for every thread count."""
    total = 0.0
    for part in _row_blocks(a, fn):
        total += part
    return total


def _chunk_dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v of one chunk, summed in float64 (float32 products are rounded
    to float32 and then summed in float64), in the chunk's own shape, so a
    row-padded view is not copied first.  On contiguous chunks the float64
    sum has the bits of the 1-d one; the float32 products go into a
    contiguous float64 array, whose sum has them too."""
    if u.dtype.char == v.dtype.char == "d":
        axes = list(range(u.ndim))
        return float(np.einsum(u, axes, v, axes, []))
    return float(np.multiply(u, v, out=np.empty(u.shape)).sum())


def _chunk_sum(u: np.ndarray) -> float:
    """The float64 sum of a 2-d chunk by rows, the same bits whatever the
    stride between its rows (the DCT-II's padded buffer or a plain array)."""
    return float(u.sum(axis=1, dtype=np.float64).sum())


def dot(u: np.ndarray, v: np.ndarray) -> float:
    """u . v in float64 over the fixed row chunks of u (`_row_sum`; arrays
    of more than two axes are taken as rows of their last axis): the same
    bits for every `_WORKERS`, core count and BLAS thread count, which
    `np.vdot` does not give."""
    if u.ndim > 2:
        u, v = u.reshape(-1, u.shape[-1]), v.reshape(-1, v.shape[-1])
    if u.size >= _DOT_THREADED_MIN_SIZE:
        return _row_sum(u, lambda i0, i1: _chunk_dot(u[i0:i1], v[i0:i1]))
    # the same chunks and order, inline
    step, total = _chunk_rows(u), 0.0
    for i0 in range(0, len(u), step):
        total += _chunk_dot(u[i0:i0 + step], v[i0:i0 + step])
    return total


class SolverError(RuntimeError):
    """Raised when an iterative solve fails to reach its tolerance."""

    def __init__(self, message: str, residual: float = float("nan"),
                 iterations: int = -1):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


@dataclass(frozen=True)
class SolveInfo:
    """What a solve did: CG iterations in all, the final relative residual,
    and the number of CG runs (`outer_steps`: 1 for `pcg`, the refinement
    steps for a refined solve, whose `iterations` add up its inner ones)."""

    iterations: int
    relative_residual: float
    outer_steps: int = 1


def _with_dot(apply: Callable) -> Callable[[np.ndarray], tuple[np.ndarray, float]]:
    """v -> (apply(v), v . apply(v)): `apply.with_dot` where it has one,
    which takes the product in the pass that writes the output, otherwise
    `dot` after the call.  Both sum the same chunks the same way, so the
    bits do not depend on which one runs."""
    fused = getattr(apply, "with_dot", None)
    if fused is not None:
        return fused

    def unfused(v: np.ndarray) -> tuple[np.ndarray, float]:
        out = apply(v)
        return out, dot(v, out)

    return unfused


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

    `rhs` becomes the first residual: it is projected in place (when
    `project` is given) and overwritten by the iteration, so a caller that
    reads it after the call passes a copy.  `project`, when given, maps
    onto the solvable subspace (typically mean-zero functions, possibly
    restricted to active cells), in place.  It is applied to the
    right-hand side and to the solution on return.  The operator's
    outputs are not projected: an operator that does not keep the
    subspace must project inside itself.  The iterate is not projected on
    each step either: it is a combination of search directions, each
    built from preconditioner outputs that already lie in the subspace.

    The vectors keep the dtype of `rhs` (float64 or float32); the inner
    products are float64 (`dot`).  An operator or preconditioner with a
    `with_dot` attribute (`FaceOperator`, `dct2_preconditioner`) has it
    called instead, and returns the pair (output, input . output) from the
    pass that writes the output; r.r is taken in the x/r update.  The
    grid arrays held are x, r (`rhs` itself) and p, beside the operator's
    output Ap and the preconditioner's output z.  Ap is read only in the
    x/r update, before the preconditioner is called, and z only in the
    update of p, before the operator is called again; so the two may be
    one array that the operator and the preconditioner each overwrite
    (`FaceOperator(out=)` and `dct2_preconditioner(buffer=)` on the same
    grid, as in `gl_solver.core_radius_energy`).  After set-up the loop
    allocates no grid-size arrays of its own (only cache-sized
    temporaries); the operator and the preconditioner may.
    The vector updates run in `_row_blocks`, on several threads for large
    grids, and the iterates do not depend on the thread count.  Non-finite
    data (right-hand side, curvature p.Ap, or residual norm) raises
    SolverError at once instead of running out the iteration budget.

    Returns (solution, info); raises SolverError if the relative residual
    has not dropped below `rtol` within `maxiter` iterations.
    """
    x = np.zeros_like(rhs)
    # the (projected) right-hand side is the first residual
    r = rhs if project is None else project(rhs)
    bnorm = math.sqrt(dot(r, r))
    if not math.isfinite(bnorm):
        raise SolverError("conjugate gradients got a non-finite right-hand side",
                          iterations=0)
    if bnorm == 0.0:
        return x, SolveInfo(0, 0.0)

    operator = _with_dot(apply_operator)
    precondition = _with_dot(apply_preconditioner)
    z, rz = precondition(r)
    p = z.copy()
    z = None  # free before the operator and the next preconditioner call
    res = bnorm
    for it in range(1, maxiter + 1):
        ap, denom = operator(p)
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

        def update_x_r(i0: int, i1: int) -> float:
            x[i0:i1] += p[i0:i1] * alpha
            r[i0:i1] -= ap[i0:i1] * alpha
            return _chunk_dot(r[i0:i1], r[i0:i1])

        res = math.sqrt(_row_sum(r, update_x_r))
        if not math.isfinite(res):
            raise SolverError(
                f"conjugate gradients met a non-finite residual (iteration {it})",
                iterations=it,
            )
        if res <= rtol * bnorm:
            if project is not None:
                x = project(x)
            return x, SolveInfo(it, res / bnorm)
        z, rz_new = precondition(r)
        beta = rz_new / rz

        def update_p(i0: int, i1: int) -> None:
            p[i0:i1] *= beta
            p[i0:i1] += z[i0:i1]

        _row_blocks(p, update_p)
        rz = rz_new
        z = None  # free before the preconditioner allocates the next one
    raise SolverError(
        f"conjugate gradients did not reach rtol={rtol} in {maxiter} iterations",
        residual=res / bnorm,
        iterations=maxiter,
    )


# -- the operator -------------------------------------------------------------


class FaceOperator:
    """The weighted five-point operator A = -div(w grad) on a grid of cells,
    given by its face weights.

    `wx[i, j]` weights the face between cells (i, j) and (i + 1, j), `wy[i, j]`
    the face between (i, j) and (i, j + 1); any mask or geometric factor is
    already folded in.  The face counts set each axis's boundary: an axis
    with as many faces as cells is periodic (its last face joins the last
    cell to the first), one with a face fewer has natural (zero-flux) ends.
    `pinned`, of shape (2, n1), weights the half-cell Dirichlet faces to a
    zero trace beyond the first and the last row of axis 0.

    With face data g (already times h), `energy` is
    E(phi) = sum w (d phi + g)^2 + sum pinned phi_end^2, over the faces d phi
    of phi; its minimizer solves A phi = `rhs(gx, gy)`, and its gradient is
    2 (A phi - b).

    b, A phi and E are row kernels (`_face_rhs`, `_face_rows`,
    `_face_energy`) run over cache-sized row chunks (`_row_blocks`,
    `_row_sum`); each kernel reads only the weight and face-data rows of
    its chunk, so a caller that stores no weights can rebuild those rows
    per chunk (`gl_solver.core_radius_energy`).

    `apply` writes A phi into one output array that every call overwrites:
    `out`, an array of the cell grid's shape in the weights' dtype (it may
    be a row-padded view), or else one allocated here.  A caller may share
    `out` with other work whose data is dead by the next `apply` (see
    `pcg`).
    """

    def __init__(self, wx: np.ndarray, wy: np.ndarray,
                 pinned: Optional[np.ndarray] = None,
                 out: Optional[np.ndarray] = None) -> None:
        self.wx, self.wy, self.pinned = wx, wy, pinned
        self.shape = (wy.shape[0], wx.shape[1])
        dtype = np.result_type(wx, wy)
        if out is None:
            out = np.empty(self.shape, dtype)
        elif out.shape != self.shape or out.dtype != dtype:
            raise ValueError(f"out must be a {dtype} array of shape {self.shape}, "
                             f"got {out.dtype} {out.shape}")
        self._out = out

    def apply(self, phi: np.ndarray) -> np.ndarray:
        """A phi, into the output array that every call reuses (`out`), in
        the weights' dtype (float32 weights and phi: float32 throughout).

        Runs in cache-sized row chunks (`_row_blocks`): each row takes its two
        axis-0 fluxes and its axis-1 fluxes, so no grid-size flux array
        exists, and grids of 512^2 cells or more spread the rows over the
        process's threads with bit-identical results."""
        rows, out = self._rows(phi), self._out
        _row_blocks(out, lambda i0, i1: rows(i0, i1, out[i0:i1]))
        return out

    __call__ = apply

    def with_dot(self, phi: np.ndarray) -> tuple[np.ndarray, float]:
        """(A phi, phi . A phi), the product taken chunk by chunk in the
        pass that writes A phi (see `pcg`)."""
        rows, out = self._rows(phi), self._out
        return out, _row_sum(out, lambda i0, i1: _chunk_dot(
            phi[i0:i1], rows(i0, i1, out[i0:i1])))

    def _rows(self, phi: np.ndarray) -> Callable[[int, int, np.ndarray], np.ndarray]:
        """The row kernel on this operator's weights: rows(i0, i1, block)
        writes rows i0..i1-1 of A phi into `block` and returns it."""
        weights, pinned = self._faces(self.wx, self.wy), self.pinned

        def rows(i0: int, i1: int, block: np.ndarray) -> np.ndarray:
            return _face_rows(phi, i0, i1, block, *weights(i0, i1), pinned)

        return rows

    def _faces(self, ax, ay) -> Callable[[int, int], tuple]:
        """rows(i0, i1): the rows of the face arrays (ax, ay), of the
        weights' shapes or scalars, that the row kernels read for rows
        i0..i1-1.  They are the axis-0 faces max(i0, 1) - 1 ..
        min(i1, n0 - 1) - 1, the axis-1 faces of the rows, and the wrapped
        axis-0 face of a periodic axis 0 (else None)."""
        n0 = self.shape[0]
        ax = np.broadcast_to(ax, self.wx.shape)
        ay = np.broadcast_to(ay, self.wy.shape)
        wrap = ax[-1] if len(ax) == n0 else None

        def rows(i0: int, i1: int) -> tuple:
            return ax[max(i0, 1) - 1:min(i1, n0 - 1)], ay[i0:i1], wrap

        return rows

    def rhs(self, gx, gy) -> np.ndarray:
        """b with b[i] = t[i] - t[i-1] along each axis, t = w g the flux of
        the face data (arrays of face shape or scalars)."""
        weights, data = self._faces(self.wx, self.wy), self._faces(gx, gy)
        b = np.empty(self.shape)
        _row_blocks(b, lambda i0, i1: _face_rhs(
            i0, i1, b[i0:i1], *weights(i0, i1), *data(i0, i1)))
        return b

    def energy(self, phi: np.ndarray, gx, gy) -> float:
        """sum w (d phi + g)^2 over the faces, plus the pinned faces' term."""
        weights, data = self._faces(self.wx, self.wy), self._faces(gx, gy)
        return _row_sum(phi, lambda i0, i1: _face_energy(
            phi, i0, i1, *weights(i0, i1), *data(i0, i1), self.pinned))


def _face_rows(phi: np.ndarray, i0: int, i1: int, block: np.ndarray,
               wx_rows: np.ndarray, wy_rows: np.ndarray,
               wrap: Optional[np.ndarray] = None,
               pinned: Optional[np.ndarray] = None) -> np.ndarray:
    """The A phi row kernel of `FaceOperator`: write rows i0..i1-1 of A phi
    into `block` and return it, given only the weights those rows read.

    `wx_rows` weights the axis-0 faces between rows max(i0, 1) - 1 and
    min(i1, n0 - 1) (faces max(i0, 1) - 1 .. min(i1, n0 - 1) - 1 of
    `FaceOperator.wx`), `wy_rows` the axis-1 faces of rows i0..i1-1.  A
    periodic axis 0 passes the weight row of its wrapped face (`wrap`, the
    last row of wx), pinned ends their `pinned` weights.  So a caller that
    does not store the weights can rebuild just these rows per chunk
    (`gl_solver.core_radius_energy`); `_face_rhs` and `_face_energy` take
    the same rows."""
    n0, n1 = phi.shape
    m1 = wy_rows.shape[1]
    # fluxes through faces i0..i1 of axis 0 (face i lies below row i; the
    # end faces are the wrapped one or carry none), then row i gets
    # fx[i] - fx[i+1] and its axis-1 fluxes
    lo, hi = max(i0, 1), min(i1, n0 - 1)
    fx = np.zeros((i1 - i0 + 1, n1), block.dtype)
    np.multiply(wx_rows, phi[lo:hi + 1] - phi[lo - 1:hi],
                out=fx[lo - i0:hi - i0 + 1])
    if wrap is not None and (i0 == 0 or i1 == n0):
        wrapped = wrap * (phi[0] - phi[-1])
        if i0 == 0:
            fx[0] = wrapped
        if i1 == n0:
            fx[-1] = wrapped
    np.subtract(fx[:-1], fx[1:], out=block)
    fy = _differences(phi[i0:i1], m1)
    fy *= wy_rows
    block[:, :m1] -= fy
    block[:, 1:] += fy[:, :n1 - 1]
    if m1 == n1:
        block[:, 0] += fy[:, -1]
    if pinned is not None:
        if i0 == 0:
            block[0] += pinned[0] * phi[0]
        if i1 == n0:
            block[-1] += pinned[1] * phi[-1]
    return block


def _face_rhs(i0: int, i1: int, block: np.ndarray,
              wx_rows: np.ndarray, wy_rows: np.ndarray,
              wrap: Optional[np.ndarray], gx_rows, gy_rows,
              g_wrap=None) -> np.ndarray:
    """The right-hand side row kernel of `FaceOperator`: write rows
    i0..i1-1 of b into `block` and return it.

    The weights are `_face_rows`' rows, the face data (gx_rows, gy_rows,
    g_wrap) the same faces' data, arrays of their shape or scalars.  b
    takes the fluxes t = w g as t[i] - t[i-1] along each axis: each element
    is zeroed, then takes its axis-0 fluxes (the face above it, then the
    one below, the wrapped face last on row 0) and its axis-1 fluxes in
    the same order, so its bits do not depend on the rows asked for."""
    n1, m1 = block.shape[1], wy_rows.shape[1]
    lo = max(i0, 1) - 1
    hi = lo + len(wx_rows)  # min(i1, n0 - 1): i1 is n0 where hi < i1
    block.fill(0.0)
    t = wx_rows * gx_rows
    block[:hi - i0] += t[i0 - lo:]
    if wrap is not None:
        t_wrap = wrap * g_wrap
        if hi < i1:
            block[-1] += t_wrap
    block[lo + 1 - i0:] -= t[:i1 - 1 - lo]
    if wrap is not None and i0 == 0:
        block[0] -= t_wrap
    del t  # one flux array at a time
    t = wy_rows * gy_rows
    block[:, :m1] += t
    block[:, 1:] -= t[:, :n1 - 1]
    if m1 == n1:
        block[:, 0] -= t[:, -1]
    return block


def _face_energy(phi: np.ndarray, i0: int, i1: int,
                 wx_rows: np.ndarray, wy_rows: np.ndarray,
                 wrap: Optional[np.ndarray], gx_rows, gy_rows, g_wrap=None,
                 pinned: Optional[np.ndarray] = None) -> float:
    """The energy row kernel of `FaceOperator`: the float64 partial
    sum w (d phi + g)^2 over the faces that rows i0..i1-1 own, given
    `_face_rhs`' weights and face data (and `_face_rows`' `pinned`).

    Rows i0..i1-1 own their axis-1 faces and the axis-0 faces above them,
    the wrapped one included (so the face below row i0 > 0 in `wx_rows`
    is skipped), and the pinned faces of the end rows among them.  Each
    family adds t . e in float64 (`_chunk_dot`), e = d phi + g and
    t = w e, so the partials depend on the chunk rows alone."""
    n0 = phi.shape[0]
    skip = min(i0, 1)
    hi = min(i1, n0 - 1)

    def faces(w, d, g) -> float:
        d += g
        return _chunk_dot(w * d, d)

    energy = (faces(wx_rows[skip:], phi[i0 + 1:hi + 1] - phi[i0:hi],
                    np.broadcast_to(gx_rows, wx_rows.shape)[skip:])
              + faces(wy_rows, _differences(phi[i0:i1], wy_rows.shape[1]),
                      gy_rows))
    if wrap is not None and i1 == n0:
        energy += faces(wrap, phi[0] - phi[-1], g_wrap)
    if pinned is not None:
        if i0 == 0:
            energy += _chunk_dot(pinned[0] * phi[0], phi[0])
        if i1 == n0:
            energy += _chunk_dot(pinned[1] * phi[-1], phi[-1])
    return energy


def _differences(phi: np.ndarray, faces: int) -> np.ndarray:
    """phi[:, j+1] - phi[:, j] along axis 1 for j < `faces`; with as many
    faces as columns the last one wraps, phi[:, 0] - phi[:, -1]."""
    n1 = phi.shape[1]
    d = np.empty((len(phi), faces), phi.dtype)
    np.subtract(phi[:, 1:], phi[:, :-1], out=d[:, :n1 - 1])
    if faces == n1:
        np.subtract(phi[:, :1], phi[:, -1:], out=d[:, n1 - 1:])
    return d


# -- spectral inverses --------------------------------------------------------


#: Mode p of an n-point axis has the angular frequency c (p + p0) / (n + dn)
#: of its transform's rule (c, p0, dn).
_FREQUENCIES = {
    "rfft": (2.0 * math.pi, 0, 0),
    "dct2": (math.pi, 0, 0),
    "dst2": (math.pi, 1, 0),
    "dct1": (math.pi, 0, -1),
    "dst1": (math.pi, 1, 1),
}

#: The real transforms as (forward, inverse, type).
_REAL_TRANSFORMS = {
    "dct2": (sfft.dctn, sfft.idctn, 2),
    "dst2": (sfft.dstn, sfft.idstn, 2),
    "dct1": (sfft.dctn, sfft.idctn, 1),
    "dst1": (sfft.dstn, sfft.idstn, 1),
}


def _frequencies(transform: str, n: int) -> np.ndarray:
    c, p0, dn = _FREQUENCIES[transform]
    return c * np.arange(p0, n + p0) / (n + dn)


def _fv_axis(transform: str, n: int, coeff: float = 1.0):
    """(transform, stiffness, mass eigenvalues) of a finite-volume axis:
    coeff (2 - 2 cos w) and 1."""
    k = coeff * (2.0 - 2.0 * np.cos(_frequencies(transform, n)))
    return transform, k, np.ones(n)


def _q1_axis(transform: str, n: int, h: float):
    """(transform, stiffness, mass eigenvalues) of a linear-element axis of
    spacing h: (2 - 2 cos w) / h and h (2 + cos w) / 3."""
    w = _frequencies(transform, n)
    return transform, (2.0 - 2.0 * np.cos(w)) / h, h * (2.0 + np.cos(w)) / 3.0


#: Bytes of padding per row of the all-real path's work buffer, one cache
#: line (8 float64 or 16 float32 elements).  At n1 = 2048 an unpadded row
#: is 16 KiB in float64, a power-of-two stride that maps a whole column
#: onto the same cache sets; on a 2-core Xeon the padded buffer cut a
#: 2048^2 forward DCT-II from 108 to 62 ms and the in-place inverse from
#: 88 to 50 ms.  scipy transforms the strided view in place
#: (`overwrite_x=True`), in either precision.
_ROW_PAD_BYTES = 64


def _padded_grid(shape: tuple[int, int], dtype) -> np.ndarray:
    """An uninitialized array of `shape` and `dtype` whose rows are padded
    by `_ROW_PAD_BYTES`: the first shape[1] columns of a wider array."""
    pad = _ROW_PAD_BYTES // np.dtype(dtype).itemsize
    return np.empty((shape[0], shape[1] + pad), dtype)[:, :shape[1]]


def _spectral_inverse(shape: tuple[int, int], axes, scale: float,
                      dtype=np.float64, restrict: Optional[np.ndarray] = None,
                      buffer: Optional[np.ndarray] = None,
                      ) -> Callable[[np.ndarray], np.ndarray]:
    """Exact inverse of scale * (K0 (x) M1 + M0 (x) K1), given per axis the
    (transform, stiffness eigenvalues, mass eigenvalues) of K and M.

    The real transform runs first, in one call over every axis that has it
    (two real axes must share it), then the real-input FFT over the
    periodic axes, which keeps the n1 // 2 + 1 nonnegative frequencies of
    axis 1 (so a periodic axis 0 needs a periodic axis 1).  When no axis is
    pinned, the constant mode, whose eigenvalue is exactly 0, is projected
    out.

    `dtype` is the work precision: the transforms, the eigenvalues (from
    copies of the per-axis vectors and `scale` in `dtype`) and the
    division run in it.

    With no periodic axis both transforms run in place on one work buffer
    per instance: `buffer`, an array of `shape` in `dtype`, or else one
    allocated here with rows padded by `_ROW_PAD_BYTES` (`_padded_grid`).
    The eigenvalue grid is not stored but rebuilt per row chunk of the
    division from the per-axis vectors, with the same arithmetic.  The
    buffer is the result: given the boolean mask `restrict`, it is
    restricted to the True cells and re-centred there, in place (the
    inactive cells are zeroed, the mean over the active ones (`_row_sum`)
    is subtracted in one last chunked pass and the inactive cells are
    zeroed again).  So each call returns the same array, which the next
    call overwrites; a caller that keeps a result copies it.  Such an
    instance is not reentrant: it must not be applied from two threads at
    once.

    With a periodic axis the transforms go into fresh arrays (`r` cast to
    `dtype` first) and the division is by a stored grid; no `restrict` is
    taken.  The result is float64, for the float64 CGs these paths serve:
    in float64 it is the last transform's output, and in float32 one last
    chunked pass casts it into a fresh array.

    Where there is a last pass (always on the all-real path), the returned
    function's `with_dot(r)` gives the pair (result, r . result) with the
    product taken in that pass (see `pcg`)."""
    (t0, k0, m0), (t1, k1, m1) = axes
    transforms = (t0, t1)
    real = tuple(a for a in (0, 1) if transforms[a] != "rfft")
    periodic = tuple(a for a in (0, 1) if transforms[a] == "rfft")
    if len({transforms[a] for a in real}) > 1 or periodic == (0,):
        raise ValueError(f"unsupported transforms {transforms}")
    if periodic:
        keep = shape[1] // 2 + 1
        k1, m1 = k1[:keep], m1[:keep]
    singular = scale * (k0[0] * m1[0] + m0[0] * k1[0]) == 0.0
    # finite-volume axes have unit mass, where k0 (x) 1 + 1 (x) k1 is the
    # same sum without its (exact) products by 1, and half the work
    unit_mass = bool(np.all(m0 == 1.0) and np.all(m1 == 1.0))
    # eigenvalues in the work precision: float64 ones would upcast the
    # division of float32 (or complex64) data
    dtype = np.dtype(dtype)
    k0, m0, k1, m1 = (v.astype(dtype) for v in (k0, m0, k1, m1))
    scale = dtype.type(scale)
    # the periodic paths serve float64 CGs (cell corrector, annuli), so their
    # result is float64 whatever the work precision
    result = np.dtype(np.float64) if periodic else dtype

    def eigenvalues(i0: int, i1: int) -> np.ndarray:
        """Rows i0..i1 - 1 of the eigenvalue grid, the zero mode's set to 1."""
        if unit_mass:
            ell = scale * np.add.outer(k0[i0:i1], k1)
        else:
            ell = scale * (np.multiply.outer(k0[i0:i1], m1)
                           + np.multiply.outer(m0[i0:i1], k1))
        if singular and i0 == 0:
            ell[0, 0] = 1.0
        return ell

    if real:
        forward, inverse, type_ = _REAL_TRANSFORMS[transforms[real[0]]]
    ends = None
    if "dct1" in transforms:
        # free-end nodes: DCT-I diagonalizes K and M with their end rows doubled
        ends = np.ones([n if a in real else 1 for a, n in enumerate(shape)])
        for a in real:
            np.moveaxis(ends, a, 0)[[0, -1]] *= 2.0
    sizes = [shape[a] for a in periodic]
    if periodic:
        if restrict is not None or buffer is not None:
            raise ValueError("only the all-real path takes a mask or a buffer")
        # a stored grid divides faster than one rebuilt per chunk (256^2
        # FFT: 2.35 against 2.48 ms), and on the cell and annulus grids
        # its memory sets no peak
        stored, padded = eigenvalues(0, len(k0)), None
    else:
        # the rebuilt eigenvalues pay for the work buffer: see `_ROW_PAD_BYTES`
        stored = None
        padded = _padded_grid(shape, dtype) if buffer is None else buffer
        if padded.shape != tuple(shape) or padded.dtype != dtype:
            raise ValueError(f"buffer must be a {dtype} array of shape "
                             f"{tuple(shape)}, got {padded.dtype} {padded.shape}")
    if restrict is not None:
        inactive = np.nonzero(~restrict)
        nact = int(restrict.sum())

    def transform(r: np.ndarray) -> np.ndarray:
        workers = _workers(r)
        if padded is None:
            w = r if ends is None else r * ends
            if w.dtype != dtype:
                w = w.astype(dtype)
        else:
            w = padded
            w[...] = r if ends is None else r * ends
        if real:
            w = forward(w, type=type_, axes=real, overwrite_x=w is not r,
                        workers=workers)
        if periodic:
            w = sfft.rfftn(w, axes=periodic, workers=workers)

        def divide(i0: int, i1: int) -> None:
            w[i0:i1] /= eigenvalues(i0, i1) if stored is None else stored[i0:i1]

        _row_blocks(w, divide)
        if singular:
            w[0, 0] = 0.0
        if periodic:
            w = sfft.irfftn(w, s=sizes, axes=periodic, overwrite_x=True,
                            workers=workers)
        if real:
            w = inverse(w, type=type_, axes=real, overwrite_x=True,
                        workers=workers)
        return w

    if padded is None and result == dtype:
        return transform  # a fresh array in the result's dtype already

    def last_pass(r: np.ndarray, dot: bool):
        """The output for the result of r (the work buffer itself on the
        all-real path, a fresh float64 array otherwise), and the chunk
        kernel of the last pass that writes it (returning its chunk of
        r . result when `dot`)."""
        w = transform(r)
        out = w if padded is not None else np.empty(shape, result)
        if restrict is None:
            shift = None
        else:
            w[inactive] = 0.0
            shift = _row_sum(w, lambda i0, i1: _chunk_sum(w[i0:i1])) / nact

        def rows(i0: int, i1: int) -> Optional[float]:
            block = out[i0:i1]
            if shift is not None:
                np.subtract(w[i0:i1], shift, out=block)
                block *= restrict[i0:i1]
            elif out is not w:
                block[...] = w[i0:i1]
            return _chunk_dot(r[i0:i1], block) if dot else None

        return out, rows

    def apply(r: np.ndarray) -> np.ndarray:
        out, rows = last_pass(r, False)
        _row_blocks(out, rows)
        return out

    def with_dot(r: np.ndarray) -> tuple[np.ndarray, float]:
        out, rows = last_pass(r, True)
        return out, _row_sum(out, rows)

    apply.with_dot = with_dot
    return apply


def periodic_fft_preconditioner(
    shape: tuple[int, int], scale: float
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of scale * (periodic 5-point Laplacian), zero mode projected."""
    return _spectral_inverse(
        shape, (_fv_axis("rfft", shape[0]), _fv_axis("rfft", shape[1])), scale)


def mixed_dct_fft_preconditioner(
    shape: tuple[int, int], coeff_axis0: float, coeff_axis1: float,
    *, pinned: bool = False, dtype=np.float64,
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of the constant-coefficient cell-centered operator with axis 0
    bounded and axis 1 periodic, eigenvalue coeff0*lam0(p) + coeff1*lam_P(q).

    Along axis 0 the rows either reflect (`pinned` False: DCT-II, lam0 =
    2 - 2 cos(pi p / n0), p = 0..n0-1) or carry the half-cell Dirichlet
    rows 3 phi_0 - phi_1 of a zero trace on both ends (`pinned` True:
    DST-II, lam0 = 2 - 2 cos(pi (p + 1) / n0)).  The reflective operator
    is singular; its constant mode is projected out, so pair it with a
    mean-zero projection.  The pinned one is definite and nothing is
    projected.

    `dtype` is the precision of the transforms and the eigenvalue
    division; the result is float64 either way.  The float64 default is
    the exact inverse.  With np.float32 the transforms cost less, and the
    result is the inverse to about 1e-7 relative, symmetric only to that
    accuracy, which a float64 CG absorbs (as for `dct2_preconditioner`).
    The returned function then has `with_dot`: one chunked pass casts the
    result to float64 and takes r . z (`pcg`)."""
    axis0 = _fv_axis("dst2" if pinned else "dct2", shape[0], coeff_axis0)
    return _spectral_inverse(
        shape, (axis0, _fv_axis("rfft", shape[1], coeff_axis1)), 1.0, dtype)


def dct2_preconditioner(
    shape: tuple[int, int], scale: float,
    restrict: Optional[np.ndarray] = None,
    *, dtype=np.float64, buffer: Optional[np.ndarray] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """Inverse of scale * (reflective 5-point Laplacian) via 2-d DCT-II.

    When `restrict` (a boolean active mask) is given, the result is
    restricted to the active cells and re-centered there, which keeps the
    preconditioner symmetric positive definite on the masked subspace.

    Both transforms run in place on one work buffer: `buffer`, an array of
    `shape` in `dtype` (ValueError otherwise), or else one of shape
    (n0, n1 + one cache line) allocated here (`_padded_grid`); the padding
    breaks the power-of-two row stride that made the axis-0 pass miss the
    cache at 2048^2.  The eigenvalues are rebuilt per row chunk from the
    per-axis vectors rather than stored.  The buffer is the result: one
    chunked pass restricts it in place and for the function's `with_dot`
    also takes r . z (`pcg`).  Each call returns that same array (a view
    of the padded one), which the next call overwrites, so a caller that
    keeps a result copies it; a caller may also share the buffer with
    other work whose data is dead by the next call (`pcg`).  The function
    is not reentrant: apply it from one thread at a time (each solve
    builds its own).

    `dtype` is the precision of the buffer, the transforms, the eigenvalue
    division, the restriction and the result.  The float64 default is the
    exact inverse.  np.float32 halves the memory traffic, and the result
    is the inverse to about 1e-7 relative: symmetric and definite only to
    that accuracy, which a CG whose inner products are float64 absorbs
    (mixed-precision preconditioning; Carson & Higham, SIAM J. Sci.
    Comput. 40, 2018).
    """
    return _spectral_inverse(
        shape, (_fv_axis("dct2", shape[0]), _fv_axis("dct2", shape[1])), scale,
        dtype, restrict, buffer)


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
    axis0 = _q1_axis("dst1" if pinned else "dct1", shape[0], h0)
    return _spectral_inverse(
        shape, (axis0, _q1_axis("rfft", shape[1], h1)), scale)
