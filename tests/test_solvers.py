"""CG driver and spectral preconditioners against direct solves."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft

from vortexlab import cell_problem, coefficients, gl_solver, singularity_cost, solvers
from vortexlab.fields import CartesianGrid
from vortexlab.solvers import (
    SolveInfo,
    SolverError,
    dct2_preconditioner,
    mixed_dct_fft_preconditioner,
    pcg,
    periodic_fft_preconditioner,
    q1_node_preconditioner,
)
from vortexlab.vortex_analysis import Rectangle, VortexMeasure


def _periodic_laplacian(u):
    return (4.0 * u
            - np.roll(u, 1, axis=0) - np.roll(u, -1, axis=0)
            - np.roll(u, 1, axis=1) - np.roll(u, -1, axis=1))


def _reflective_laplacian_axis(u, axis):
    d = np.diff(u, axis=axis)
    out = np.zeros_like(u)
    sl_lo = [slice(None)] * u.ndim
    sl_hi = [slice(None)] * u.ndim
    sl_lo[axis] = slice(None, -1)
    sl_hi[axis] = slice(1, None)
    out[tuple(sl_lo)] -= d
    out[tuple(sl_hi)] += d
    return out


def test_pcg_matches_direct_solve():
    rng = np.random.default_rng(3)
    n = 40
    m = rng.standard_normal((n, n))
    a = m @ m.T + n * np.eye(n)  # SPD
    b = rng.standard_normal(n)
    # pcg overwrites its right-hand side
    x, info = pcg(lambda v: a @ v, b.copy(), lambda r: r.copy(),
                  rtol=1e-12, maxiter=500)
    assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9)
    assert info.relative_residual <= 1e-12


def test_pcg_raises_on_budget():
    rng = np.random.default_rng(4)
    n = 60
    m = rng.standard_normal((n, n))
    a = m @ m.T + 0.01 * np.eye(n)  # badly conditioned
    b = rng.standard_normal(n)
    with pytest.raises(SolverError) as err:
        pcg(lambda v: a @ v, b, lambda r: r.copy(), rtol=1e-14, maxiter=2)
    assert err.value.iterations == 2
    assert np.isfinite(err.value.residual)


def test_pcg_projection_keeps_mean_zero():
    rng = np.random.default_rng(5)
    u = rng.standard_normal((16, 16))
    b = _periodic_laplacian(u)

    def project(v):
        v -= v.mean()
        return v

    x, _ = pcg(_periodic_laplacian, b,
               periodic_fft_preconditioner((16, 16), 1.0),
               rtol=1e-11, maxiter=200, project=project)
    assert abs(x.mean()) < 1e-12
    assert np.allclose(x, u - u.mean(), atol=1e-8)


def test_periodic_preconditioner_is_exact_inverse():
    rng = np.random.default_rng(6)
    r = rng.standard_normal((12, 20))
    r -= r.mean()
    pre = periodic_fft_preconditioner((12, 20), 2.5)
    back = 2.5 * _periodic_laplacian(pre(r))
    assert np.allclose(back, r, atol=1e-10)


def test_dct2_preconditioner_is_exact_inverse():
    rng = np.random.default_rng(7)
    r = rng.standard_normal((10, 14))
    r -= r.mean()
    pre = dct2_preconditioner((10, 14), 1.7)

    def op(u):
        return 1.7 * (_reflective_laplacian_axis(u, 0)
                      + _reflective_laplacian_axis(u, 1))

    back = op(pre(r))
    assert np.allclose(back - back.mean(), r, atol=1e-10)


def test_mixed_preconditioner_is_exact_inverse():
    rng = np.random.default_rng(8)
    r = rng.standard_normal((9, 16))
    r -= r.mean()
    pre = mixed_dct_fft_preconditioner((9, 16), 1.3, 0.6)

    def op(u):
        return (1.3 * _reflective_laplacian_axis(u, 0)
                + 0.6 * _periodic_laplacian_axis1(u))

    back = op(pre(r))
    assert np.allclose(back - back.mean(), r, atol=1e-10)


def _periodic_laplacian_axis1(u):
    return 2.0 * u - np.roll(u, 1, axis=1) - np.roll(u, -1, axis=1)


def test_mixed_preconditioner_pinned_is_exact_inverse():
    # half-cell Dirichlet rows 3 phi_0 - phi_1 (zero trace half a cell beyond
    # each end row) along axis 0, periodic along axis 1
    n0, n1, c0, c1 = 9, 16, 1.3, 0.6
    d0 = 2.0 * np.eye(n0) - np.eye(n0, k=1) - np.eye(n0, k=-1)
    d0[0, 0] = d0[-1, -1] = 3.0
    p1 = 2.0 * np.eye(n1) - np.eye(n1, k=1) - np.eye(n1, k=-1)
    p1[0, -1] = p1[-1, 0] = -1.0
    op = c0 * np.kron(d0, np.eye(n1)) + c1 * np.kron(np.eye(n0), p1)
    rng = np.random.default_rng(13)
    r = rng.standard_normal((n0, n1))
    pre = mixed_dct_fft_preconditioner((n0, n1), c0, c1, pinned=True)
    back = (op @ pre(r).ravel()).reshape(n0, n1)
    assert np.allclose(back, r, atol=1e-12)
    # symmetric, as CG needs; nothing is projected out
    v = rng.standard_normal((n0, n1))
    assert np.vdot(v, pre(r)) == pytest.approx(np.vdot(r, pre(v)), rel=1e-12)
    # default behavior projects constants out entirely
    pre0 = mixed_dct_fft_preconditioner((8, 8), 1.0, 1.0)
    assert np.allclose(pre0(np.ones((8, 8))), 0.0, atol=1e-12)


def _linear_element_matrices(n, h, periodic):
    """1-d linear-element stiffness and mass on n nodes of spacing h."""
    k = (2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)) / h
    m = h * (4.0 * np.eye(n) + np.eye(n, k=1) + np.eye(n, k=-1)) / 6.0
    if periodic:
        k[0, -1] = k[-1, 0] = -1.0 / h
        m[0, -1] = m[-1, 0] = h / 6.0
    else:  # free ends: half-weight end rows
        k[0, 0] = k[-1, -1] = 1.0 / h
        m[0, 0] = m[-1, -1] = h / 3.0
    return k, m


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_q1_node_preconditioner_is_exact_inverse(pinned):
    n0, n1, h0, h1, scale = 11, 16, 0.3, 0.4, 1.7
    k1, m1 = _linear_element_matrices(n1, h1, periodic=True)
    if pinned:  # interior nodes of an n0 + 2 node line with both ends at 0
        k0, m0 = _linear_element_matrices(n0 + 2, h0, periodic=False)
        k0, m0 = k0[1:-1, 1:-1], m0[1:-1, 1:-1]
    else:
        k0, m0 = _linear_element_matrices(n0, h0, periodic=False)
    op = scale * (np.kron(k0, m1) + np.kron(m0, k1))
    rng = np.random.default_rng(12)
    r = rng.standard_normal((n0, n1))
    if not pinned:
        r -= r.mean()
    pre = q1_node_preconditioner((n0, n1), h0, h1, scale, pinned=pinned)
    back = (op @ pre(r).ravel()).reshape(n0, n1)
    assert np.allclose(back, r, atol=1e-12)
    # symmetric, as CG needs
    v = rng.standard_normal((n0, n1))
    if not pinned:
        v -= v.mean()
    assert np.vdot(v, pre(r)) == pytest.approx(np.vdot(r, pre(v)), rel=1e-12)


def test_masked_dct2_preconditioner_symmetry():
    rng = np.random.default_rng(9)
    mask = rng.uniform(size=(12, 12)) > 0.2
    pre = dct2_preconditioner((12, 12), 1.0, restrict=mask)
    u = rng.standard_normal((12, 12)) * mask
    v = rng.standard_normal((12, 12)) * mask
    u -= u[mask].mean()
    u *= mask
    v -= v[mask].mean()
    v *= mask
    # symmetric on the mean-zero masked subspace
    assert np.sum(v * pre(u)) == pytest.approx(np.sum(u * pre(v)), rel=1e-9)


# -- non-finite data ---------------------------------------------------------------


def test_pcg_fails_fast_on_nan_rhs():
    b = np.ones((8, 8))
    b[3, 4] = np.nan
    with pytest.raises(SolverError, match="non-finite") as err:
        pcg(_periodic_laplacian, b, lambda r: r.copy(), rtol=1e-10, maxiter=500)
    assert err.value.iterations <= 1


def test_pcg_fails_fast_on_nan_operator_output():
    rng = np.random.default_rng(10)
    b = rng.standard_normal((8, 8))

    def broken(u):
        out = _periodic_laplacian(u) + 4.0 * u
        out[0, 0] = np.nan
        return out

    with pytest.raises(SolverError, match="non-finite") as err:
        pcg(broken, b, lambda r: r.copy(), rtol=1e-10, maxiter=500)
    assert err.value.iterations <= 1


# -- the loop against the textbook one ------------------------------------------------


def _textbook_pcg(apply_operator, rhs, apply_preconditioner, *, rtol, maxiter,
                  project=None):
    """Reference CG: allocates every update and projects every iterate."""
    x = np.zeros_like(rhs)
    b = rhs if project is None else project(rhs.copy())
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return x, SolveInfo(0, 0.0)
    r = b.copy()
    z = apply_preconditioner(r)
    p = z.copy()
    rz = float(np.sum(r * z))
    for it in range(1, maxiter + 1):
        ap = apply_operator(p)
        if project is not None:
            ap = project(ap)
        denom = float(np.sum(p * ap))
        if denom <= 0.0:
            raise SolverError("lost positivity", iterations=it)
        alpha = rz / denom
        x += alpha * p
        if project is not None:
            x = project(x)
        r -= alpha * ap
        res = float(np.linalg.norm(r))
        if res <= rtol * bnorm:
            return x, SolveInfo(it, res / bnorm)
        z = apply_preconditioner(r)
        rz_new = float(np.sum(r * z))
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise SolverError("budget", iterations=maxiter)


CHECKER = coefficients.checkerboard(1.0, 4.0)


def _core_radius(n):
    unit = Rectangle((0.0, 0.0), (1.0, 1.0))
    mu = VortexMeasure((((0.43, 0.52), 1), ((0.7, 0.3), -1)), unit)
    eps = 0.05
    params = gl_solver.GLParameters(
        eps, eps, CHECKER, CartesianGrid((0.0, 0.0), (1.0, 1.0), (16, 16)))
    return gl_solver, lambda: gl_solver.core_radius_energy(mu, params, n=n)[0]


def _corrector():
    return cell_problem, lambda: cell_problem.solve_corrector(
        CHECKER, (1.0, 1.0), 64).energy


def _annulus(fixed_trace):
    grid = singularity_cost.oscillating_annulus_grid(1.0, 8.0, 0.25)
    problem = singularity_cost.AnnulusProblem(
        grid, 1, coefficient=CHECKER, delta=0.25, fixed_trace=fixed_trace)
    return singularity_cost, lambda: singularity_cost.min_annulus_energy(problem)[0]


@pytest.mark.parametrize("case", [
    lambda: _core_radius(64),
    lambda: _core_radius(128),
    _corrector,
    lambda: _annulus(False),
    lambda: _annulus(True),
], ids=["core-radius-64", "core-radius-128", "cell-corrector",
        "free-annulus", "fixed-trace-annulus"])
def test_pcg_matches_textbook_loop(monkeypatch, case):
    module, solve = case()

    def run(impl):
        infos = []

        def recording(*args, **kwargs):
            x, info = impl(*args, **kwargs)
            infos.append(info)
            return x, info

        monkeypatch.setattr(module, "pcg", recording)
        return solve(), infos

    energy, infos = run(pcg)
    ref_energy, ref_infos = run(_textbook_pcg)
    # one CG run per solve; the core-radius refinement runs one per step
    assert len(infos) == len(ref_infos) == (2 if module is gl_solver else 1)
    assert [i.iterations for i in infos] == [i.iterations for i in ref_infos]
    # the chunked float64 sums add in another order than np.sum
    assert energy == pytest.approx(ref_energy, rel=1e-12, abs=0.0)


def _homogenized_annulus(z):
    grid = singularity_cost.PolarGrid((0.0, 0.0), 1.0, 100.0, 200, 128)
    tensor = cell_problem.HomogenizedTensor(1.0, 0.3, 4.0, 0, 0.0)
    problem = singularity_cost.AnnulusProblem(grid, z, tensor=tensor)
    return singularity_cost, lambda: singularity_cost.min_annulus_energy(problem)[0]


@pytest.mark.parametrize("case", [
    lambda: _annulus(False),
    lambda: _homogenized_annulus(1),
    lambda: _homogenized_annulus(2),
], ids=["free-annulus", "homogenized-z1", "homogenized-z2"])
def test_annuli_need_no_projection_of_the_operator_output(monkeypatch, case):
    # pcg projects only the right-hand side and the solution: the annulus
    # operators keep mean-zero functions up to rounding, and projecting
    # every output as well changes neither the iteration counts nor the
    # energy beyond rounding
    module, solve = case()

    def run(projecting):
        infos = []

        def recording(apply_operator, rhs, apply_preconditioner, **kwargs):
            project = kwargs.get("project")
            assert project is not None
            op = ((lambda v: project(apply_operator(v))) if projecting
                  else apply_operator)
            x, info = pcg(op, rhs, apply_preconditioner, **kwargs)
            infos.append(info.iterations)
            return x, info

        monkeypatch.setattr(module, "pcg", recording)
        return solve(), infos

    energy, counts = run(False)
    ref_energy, ref_counts = run(True)
    assert counts == ref_counts
    assert energy == pytest.approx(ref_energy, rel=1e-12, abs=0.0)


def test_cell_corrector_projects_its_operator_output():
    # the periodic corrector is the one solve whose counts moved without the
    # projection: 35 iterations instead of 34 for this direction
    solution = cell_problem.solve_corrector(
        coefficients.checkerboard(1.0, 100.0), (0.0, 1.0), 64)
    assert solution.iterations == 34


def test_transform_threads_do_not_change_preconditioners(monkeypatch):
    rng = np.random.default_rng(11)
    shape = (640, 520)  # large enough to be threaded
    assert shape[0] * shape[1] >= solvers._THREADED_MIN_SIZE
    mask = rng.uniform(size=shape) > 0.2
    preconditioners = [
        periodic_fft_preconditioner(shape, 1.3),
        mixed_dct_fft_preconditioner(shape, 1.3, 0.6),
        mixed_dct_fft_preconditioner(shape, 1.3, 0.6, pinned=True),
        mixed_dct_fft_preconditioner(shape, 1.3, 0.6, dtype=np.float32),
        mixed_dct_fft_preconditioner(shape, 1.3, 0.6, pinned=True,
                                     dtype=np.float32),
        dct2_preconditioner(shape, 1.7),
        dct2_preconditioner(shape, 1.7, restrict=mask),
        q1_node_preconditioner(shape, 0.02, 0.03, 1.1),
        q1_node_preconditioner(shape, 0.02, 0.03, 1.1, pinned=True),
    ]
    r = rng.standard_normal(shape)
    keep = r.copy()
    # copies: the DCT-II's result is its work buffer, which the next call
    # overwrites
    threaded = [pre(r).copy() for pre in preconditioners]
    monkeypatch.setattr(solvers, "_WORKERS", 1)
    serial = [pre(r) for pre in preconditioners]
    # pcg reuses the residual after preconditioning it
    assert np.array_equal(r, keep)
    for a, b in zip(threaded, serial):
        assert np.array_equal(a, b)


def _chunked_sum(w):
    """Float64 sum of a 2-d array in row chunks of at most 2^15 elements,
    each chunk summed by rows and the chunks added in order."""
    step = max(1, 2**15 * w.shape[0] // w.size)
    total = 0.0
    for i in range(0, len(w), step):
        total += float(w[i:i + step].sum(axis=1, dtype=np.float64).sum())
    return total


def _dense_dct2(shape, scale, mask=None, dtype=np.float64):
    """The DCT-II preconditioner with a stored eigenvalue grid, transforms
    into fresh arrays, and restriction by whole-array products with the
    mask, `w *= mask; w -= mean; w *= mask`: the oracle for the chunked
    eigenvalues, the padded in-place transforms and the fused last pass.
    `dtype` is the precision of the transforms, the division (eigenvalues
    computed in float64, then rounded), the restriction and the result;
    the mean is summed in float64 in a fixed chunk order (`_chunked_sum`)."""
    lam0 = 2.0 - 2.0 * np.cos(np.pi * np.arange(shape[0]) / shape[0])
    lam1 = 2.0 - 2.0 * np.cos(np.pi * np.arange(shape[1]) / shape[1])
    lam0, lam1 = lam0.astype(dtype), lam1.astype(dtype)
    ell = dtype(scale) * (lam0[:, None] + lam1[None, :])
    ell[0, 0] = 1.0

    def apply(r):
        w = sfft.dctn(r.astype(dtype), type=2)
        w /= ell
        w[0, 0] = 0.0
        w = sfft.idctn(w, type=2, overwrite_x=True)
        if mask is not None:
            w *= mask
            w -= _chunked_sum(w) / int(mask.sum())
            w *= mask
        return w

    return apply


def _assert_returns_its_work_buffer(pre, result, shape, dtype):
    """The all-real path's result is its row-padded work buffer: the next
    call returns a view of the same memory and overwrites `result`."""
    assert result.dtype == dtype and result.shape == shape
    assert result.strides == (shape[1] * result.itemsize
                              + solvers._ROW_PAD_BYTES, result.itemsize)
    before = result.copy()
    again = pre(np.ones(shape))
    assert again.__array_interface__ == result.__array_interface__
    assert not np.array_equal(result, before)


# 512^2 is threaded and has a power-of-two row stride
@pytest.mark.parametrize("shape", [(12, 12), (640, 520), (512, 512)])
@pytest.mark.parametrize("workers", [1, 2])
def test_masked_dct2_preconditioner_matches_dense_oracle(monkeypatch, shape,
                                                         workers):
    monkeypatch.setattr(solvers, "_WORKERS", workers)
    rng = np.random.default_rng(13)
    mask = rng.uniform(size=shape) > 0.2
    r = rng.standard_normal(shape)
    got = dct2_preconditioner(shape, 1.7, restrict=mask)(r)
    assert np.array_equal(got, _dense_dct2(shape, 1.7, mask)(r))


@pytest.mark.parametrize("shape", [(12, 12), (512, 512)])
@pytest.mark.parametrize("workers", [1, 2])
def test_dct2_preconditioner_matches_dense_oracle(monkeypatch, shape, workers):
    monkeypatch.setattr(solvers, "_WORKERS", workers)
    rng = np.random.default_rng(15)
    r = rng.standard_normal(shape)
    keep = r.copy()
    pre = dct2_preconditioner(shape, 1.7)
    first = pre(r).copy()
    second = pre(2.0 * r)
    assert np.array_equal(r, keep)
    oracle = _dense_dct2(shape, 1.7)
    assert np.array_equal(first, oracle(r))
    assert np.array_equal(second, oracle(2.0 * r))
    _assert_returns_its_work_buffer(pre, second, shape, np.float64)


# -- the float32 work precision ----------------------------------------------------


@pytest.mark.parametrize("shape", [(12, 12), (512, 512)])
@pytest.mark.parametrize("workers", [1, 2])
def test_float32_dct2_preconditioner_matches_dense_oracle(monkeypatch, shape,
                                                          workers):
    monkeypatch.setattr(solvers, "_WORKERS", workers)
    rng = np.random.default_rng(17)
    mask = rng.uniform(size=shape) > 0.2
    r = rng.standard_normal(shape)
    for restrict in (None, mask):
        # a numpy float64 scale must not upcast the float32 eigenvalues
        pre = dct2_preconditioner(shape, np.float64(1.7), restrict=restrict,
                                  dtype=np.float32)
        first = pre(r).copy()
        second = pre(2.0 * r)
        oracle = _dense_dct2(shape, 1.7, restrict, dtype=np.float32)
        assert np.array_equal(first, oracle(r))
        assert np.array_equal(second, oracle(2.0 * r))
        _assert_returns_its_work_buffer(pre, second, shape, np.float32)


def test_float32_dct2_preconditioner_is_close_and_symmetric_on_a_mask():
    rng = np.random.default_rng(18)
    shape = (96, 80)
    mask = rng.uniform(size=shape) > 0.2
    exact = dct2_preconditioner(shape, 1.3, restrict=mask)
    single = dct2_preconditioner(shape, 1.3, restrict=mask, dtype=np.float32)

    def masked_mean_zero():
        v = rng.standard_normal(shape) * mask
        v -= v[mask].mean()
        return v * mask

    u, v = masked_mean_zero(), masked_mean_zero()
    want = exact(u)
    got = single(u).copy()  # single(v) below overwrites its work buffer
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    assert np.array_equal(got, got * mask)  # restricted in float32
    assert np.sum(v * got) == pytest.approx(np.sum(u * single(v)), rel=1e-5)
    assert np.sum(u * got) > 0.0


@pytest.mark.parametrize("shape", [(9, 16), (369, 503), (737, 1006)])
@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_float32_mixed_preconditioner_is_close_and_float64(monkeypatch, shape,
                                                           pinned):
    # the annulus grids at delta = 0.1 and 0.05 take the threaded path
    rng = np.random.default_rng(19)
    r = rng.standard_normal(shape)
    if not pinned:
        r -= r.mean()
    keep = r.copy()
    exact = mixed_dct_fft_preconditioner(shape, 1.3, 0.6, pinned=pinned)
    single = mixed_dct_fft_preconditioner(shape, 1.3, 0.6, pinned=pinned,
                                          dtype=np.float32)
    want, got = exact(r), single(r)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)
    # r . z taken in the pass that casts the result, with `dot`'s bits
    z, rz = single.with_dot(r)
    assert np.array_equal(z, got) and not np.shares_memory(z, got)
    assert rz == solvers.dot(r, got)
    assert np.array_equal(r, keep)
    v = rng.standard_normal(shape)
    if not pinned:
        v -= v.mean()
    assert np.vdot(v, got) == pytest.approx(np.vdot(r, single(v)), rel=1e-5)
    # the float64 default is the exact inverse and returns a plain array
    assert not hasattr(exact, "with_dot")


def test_shared_work_grid_gives_the_bits_of_separate_arrays(monkeypatch):
    # core_radius_energy passes one padded float32 grid as its inner
    # operator's output and as the DCT-II's buffer; every inner solve must
    # give the x bits and counts of an operator and a preconditioner with
    # arrays of their own
    factories = []

    def recording_factory(*args, **kwargs):
        factories.append((args, kwargs))
        return dct2_preconditioner(*args, **kwargs)

    counts = []

    def comparing(inner, rhs, precond, **kwargs):
        (args, shared), = factories
        assert shared["buffer"] is not None and shared["restrict"] is not None
        own_precond = dct2_preconditioner(*args, **dict(shared, buffer=None))
        own_inner = solvers.FaceOperator(inner.wx, inner.wy)
        x_own, info_own = pcg(own_inner, rhs.copy(), own_precond, **kwargs)
        x, info = pcg(inner, rhs, precond, **kwargs)
        assert x.dtype == np.float32
        assert info == info_own
        assert np.array_equal(x, x_own)
        # the operator's output and the preconditioner's result are one grid
        assert np.shares_memory(inner.apply(x_own), precond(x_own))
        counts.append(info.iterations)
        return x, info

    monkeypatch.setattr(gl_solver, "dct2_preconditioner", recording_factory)
    monkeypatch.setattr(gl_solver, "pcg", comparing)
    unit = Rectangle((0.0, 0.0), (1.0, 1.0))
    mu = VortexMeasure((((0.43, 0.52), 1), ((0.7, 0.3), -1)), unit)
    params = gl_solver.GLParameters(
        0.05, 0.05, CHECKER, CartesianGrid((0.0, 0.0), (1.0, 1.0), (16, 16)))
    _, info = gl_solver.core_radius_energy(mu, params, n=256)
    assert len(counts) == info.outer_steps == 2
    assert sum(counts) == info.iterations and min(counts) > 1


def test_work_arrays_of_the_wrong_shape_or_dtype_are_refused():
    shape = (12, 16)
    wx, wy = np.ones((11, 16), np.float32), np.ones((12, 15), np.float32)
    good = solvers._padded_grid(shape, np.float32)
    solvers.FaceOperator(wx, wy, out=good)
    dct2_preconditioner(shape, 1.0, dtype=np.float32, buffer=good)
    for bad in (np.empty((12, 17), np.float32), np.empty((16, 12), np.float32),
                np.empty(shape), solvers._padded_grid(shape, np.float64)):
        with pytest.raises(ValueError, match="out must be"):
            solvers.FaceOperator(wx, wy, out=bad)
        with pytest.raises(ValueError, match="buffer must be"):
            dct2_preconditioner(shape, 1.0, dtype=np.float32, buffer=bad)


@pytest.mark.parametrize("workers", [1, 2])
def test_dctn_transforms_a_row_padded_view_in_place(workers):
    # the dct2 preconditioner's work buffer relies on this: scipy writes the
    # result into the strided view instead of into a fresh array
    view = np.random.default_rng(16).standard_normal((512, 520))[:, :512]
    address = view.__array_interface__["data"][0]
    for transform in (sfft.dctn, sfft.idctn):
        out = transform(view, type=2, overwrite_x=True, workers=workers)
        assert out.__array_interface__["data"][0] == address
        assert out.strides == view.strides


def test_pcg_threads_do_not_change_solution(monkeypatch):
    n = 512  # large enough for threaded vector updates
    assert n * n >= solvers._THREADED_MIN_SIZE
    rng = np.random.default_rng(14)
    cx, cy = 1.0 + rng.uniform(size=(2, n, n))

    def op(u):  # periodic -div(c grad u)
        fx = cx * (np.roll(u, -1, axis=0) - u)
        fy = cy * (np.roll(u, -1, axis=1) - u)
        return np.roll(fx, 1, axis=0) - fx + np.roll(fy, 1, axis=1) - fy

    def project(v):
        v -= v.mean()
        return v

    b = rng.standard_normal((n, n))
    pre = periodic_fft_preconditioner((n, n), 1.5)
    results = {}
    for workers in (2, 1):
        monkeypatch.setattr(solvers, "_WORKERS", workers)
        results[workers] = pcg(op, b.copy(), pre, rtol=1e-8, maxiter=500,
                               project=project)
    (x2, info2), (x1, info1) = results[2], results[1]
    assert info1.iterations > 1
    assert info2 == info1
    assert np.array_equal(x2, x1)


def test_core_radius_energy_threads_are_bit_identical(monkeypatch):
    n = 512  # threaded operator, updates and mask restriction
    assert n * n >= solvers._THREADED_MIN_SIZE
    unit = Rectangle((0.0, 0.0), (1.0, 1.0))
    mu = VortexMeasure((((0.43, 0.52), 1), ((0.7, 0.3), -1)), unit)
    params = gl_solver.GLParameters(
        0.05, 0.05, CHECKER, CartesianGrid((0.0, 0.0), (1.0, 1.0), (16, 16)))
    results = {}
    for workers in (2, 1):
        monkeypatch.setattr(solvers, "_WORKERS", workers)
        results[workers] = gl_solver.core_radius_energy(mu, params, n=n)
    (e2, info2), (e1, info1) = results[2], results[1]
    assert info1.iterations > 1
    assert e2 == e1
    assert info2 == info1


def test_row_blocks_from_many_threads_cover_every_row_once(monkeypatch):
    # more callers and workers than cores, with frequent thread switches:
    # each caller's rows must be touched exactly once per call
    monkeypatch.setattr(solvers, "_WORKERS", 4)
    arrays = [np.zeros((512, 512)) for _ in range(6)]
    calls = 5

    def caller(a):
        def bump(i0, i1):
            a[i0:i1] += 1.0

        for _ in range(calls):
            solvers._row_blocks(a, bump)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, args=(a,)) for a in arrays]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for a in arrays:
        assert np.all(a == calls)


# -- owned reductions ---------------------------------------------------------------


def _ordered_chunk_dot(u, v):
    """u . v as the chunks of `_row_blocks` give it, written out: row chunks
    of at most 2^15 elements, each summed in float64, added in order."""
    u2, v2 = u.reshape(len(u), -1), v.reshape(len(v), -1)
    step = max(1, 2**15 * len(u2) // u2.size)
    total = 0.0
    for i in range(0, len(u2), step):
        a, b = u2[i:i + step].ravel(), v2[i:i + step].ravel()
        total += float(np.einsum("i,i->", a, b) if a.dtype == np.float64
                       else np.sum(np.multiply(a, b, dtype=np.float32),
                                   dtype=np.float64))
    return total


@pytest.mark.parametrize("shape, dtype", [
    ((640, 520), np.float64), ((512, 512), np.float32), ((12, 12), np.float64),
    ((70_000,), np.float64)])
def test_dot_has_the_same_bits_for_every_worker_count(monkeypatch, shape,
                                                      dtype):
    rng = np.random.default_rng(30)
    u = rng.standard_normal(shape).astype(dtype)
    v = rng.standard_normal(shape).astype(dtype)
    results = set()
    for workers in (1, 2, 3):
        monkeypatch.setattr(solvers, "_WORKERS", workers)
        results.add(solvers.dot(u, v))
    assert results == {_ordered_chunk_dot(u, v)}
    exact = float(np.dot(u.astype(np.float64).ravel(), v.astype(np.float64).ravel()))
    assert results.pop() == pytest.approx(exact, rel=1e-12 if dtype == np.float64
                                          else 1e-6)


@pytest.mark.parametrize("shape", [(12, 12), (512, 512), (640, 520)])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_fused_dots_match_the_unfused_ones(monkeypatch, shape, dtype):
    # `with_dot` takes the product in the pass that writes the output; its
    # bits must be those of `dot` after the call, for every worker count
    rng = np.random.default_rng(31)
    mask = rng.uniform(size=shape) > 0.2
    wx, wy, _ = _face_case("masked", shape, rng)
    operator = solvers.FaceOperator(wx.astype(dtype), wy.astype(dtype))
    phi = rng.standard_normal(shape).astype(dtype)
    results = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(solvers, "_WORKERS", workers)
        for restrict in (None, mask):
            pre = dct2_preconditioner(shape, 1.3, restrict=restrict, dtype=dtype)
            z, rz = pre.with_dot(phi)
            z = z.copy()  # the next call overwrites the work buffer
            plain = pre(phi)
            assert z.dtype == dtype
            assert np.array_equal(z, plain)
            assert rz == solvers.dot(phi, plain)
            results.append((z.tobytes(), rz))
        ap, pap = operator.with_dot(phi)
        assert ap.dtype == dtype
        assert pap == solvers.dot(phi, operator.apply(phi).copy())
        results.append((ap.tobytes(), pap))
    assert results[:3] == results[3:6] == results[6:]


def test_pcg_runs_in_float32_with_float64_inner_products():
    n = 64
    rng = np.random.default_rng(32)
    u = rng.standard_normal((n, n))
    b = _periodic_laplacian(u - u.mean()).astype(np.float32)

    def project(v):
        v -= v.mean()
        return v

    op = solvers.FaceOperator(np.ones((n, n), np.float32), np.ones((n, n), np.float32))
    x, info = pcg(op, b.copy(), periodic_fft_preconditioner((n, n), 1.0),
                  rtol=1e-4, maxiter=100, project=project)
    assert x.dtype == np.float32
    residual = np.linalg.norm(_periodic_laplacian(x.astype(np.float64)) - b)
    assert residual <= 2e-4 * np.linalg.norm(b)


_BLAS_PROBE = """
import numpy as np
from vortexlab import coefficients, gl_solver
from vortexlab.fields import CartesianGrid
from vortexlab.vortex_analysis import Rectangle, VortexMeasure
checker = coefficients.checkerboard(1.0, 4.0)
unit = Rectangle((0.0, 0.0), (1.0, 1.0))
mu = VortexMeasure((((0.43, 0.52), 1), ((0.7, 0.3), -1)), unit)
params = gl_solver.GLParameters(
    0.05, 0.05, checker, CartesianGrid((0.0, 0.0), (1.0, 1.0), (16, 16)))
energy, info = gl_solver.core_radius_energy(mu, params, n=512)
print(energy.hex(), info.relative_residual.hex(), info.iterations)
eps = 2.0**-5
params = gl_solver.GLParameters(
    eps, eps, checker, CartesianGrid((0.0, 0.0), (1.0, 1.0), (128, 128)))
start = gl_solver.recovery_field(VortexMeasure((((0.5, 0.5), 1),), unit), params)
report = gl_solver.minimize_gl(start, params, gl_solver.MinimizeBudget(60))
print([e.hex() for e in report.trace])
"""


def test_results_do_not_depend_on_the_blas_thread_count():
    # np.vdot hands long float64 vectors to the BLAS, which splits them over
    # its threads; the owned reductions must give the same bits either way
    src = str(Path(solvers.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
        done = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0].count("\n") == 2
    assert outputs[0] == outputs[1]


# -- the face operator ---------------------------------------------------------------


def _face_case(kind, shape, rng):
    """(wx, wy, pinned) of one boundary kind, with weights in [1, 2)."""
    n0, n1 = shape
    m0 = n0 if kind == "periodic" else n0 - 1
    m1 = n1 - 1 if kind == "masked" else n1
    wx = 1.0 + rng.uniform(size=(m0, n1))
    wy = 1.0 + rng.uniform(size=(n0, m1))
    pinned = None
    if kind == "masked":
        active = rng.uniform(size=shape) > 0.2
        wx *= active[:-1, :] & active[1:, :]
        wy *= active[:, :-1] & active[:, 1:]
    if kind == "pinned":
        pinned = 1.0 + rng.uniform(size=(2, n1))
    return wx, wy, pinned


FACE_KINDS = ["periodic", "masked", "mixed", "pinned"]


def _dense_face_matrix(wx, wy, pinned, shape):
    """The operator assembled face by face: each face of weight w between
    cells p and q adds w to A[p, p] and A[q, q] and -w to A[p, q] and A[q, p]."""
    n0, n1 = shape
    a = np.zeros((n0 * n1, n0 * n1))

    def face(p, q, w):
        a[p, p] += w
        a[q, q] += w
        a[p, q] -= w
        a[q, p] -= w

    for i, j in np.ndindex(wx.shape):
        face(i * n1 + j, (i + 1) % n0 * n1 + j, wx[i, j])
    for i, j in np.ndindex(wy.shape):
        face(i * n1 + j, i * n1 + (j + 1) % n1, wy[i, j])
    if pinned is not None:
        for j in range(n1):
            a[j, j] += pinned[0, j]
            a[(n0 - 1) * n1 + j, (n0 - 1) * n1 + j] += pinned[1, j]
    return a


def _whole_grid_rhs(wx, wy, gx, gy, shape):
    """b formed on whole grids, axis by axis, the reference for the bits of
    the right-hand side kernel."""
    b = np.zeros(shape)
    for axis, w, g in ((0, wx, gx), (1, wy, gy)):
        t = np.moveaxis(w * g, axis, 0)
        bt = np.moveaxis(b, axis, 0)
        n = len(bt)
        bt[:len(t)] += t
        bt[1:] -= t[:n - 1]
        if len(t) == n:
            bt[0] -= t[-1]
    return b


def _whole_grid_energy(wx, wy, pinned, phi, gx, gy):
    """sum w (d phi + g)^2 on whole grids (the wrapped differences by roll)."""
    dx = (np.roll(phi, -1, axis=0) - phi)[:len(wx)]
    dy = (np.roll(phi, -1, axis=1) - phi)[:, :wy.shape[1]]
    energy = float(np.sum(wx * (dx + gx) ** 2) + np.sum(wy * (dy + gy) ** 2))
    if pinned is not None:
        energy += float(np.sum(pinned * phi[[0, -1]] ** 2))
    return energy


@pytest.mark.parametrize("kind", FACE_KINDS)
def test_face_rows_from_weight_rows_give_the_operator_bits(monkeypatch, kind):
    # a caller that keeps no weights (the core-radius residual and energy)
    # passes each chunk only the weight and face-data rows it reads, as copies
    shape = (60, 52)
    rng = np.random.default_rng(22)
    wx, wy, pinned = _face_case(kind, shape, rng)
    gx = rng.standard_normal(wx.shape)
    gy = rng.standard_normal(wy.shape)
    op = solvers.FaceOperator(wx, wy, pinned)
    phi = rng.standard_normal(shape)
    want = op.apply(phi).copy()
    n0 = shape[0]
    wrap = wx[-1].copy() if len(wx) == n0 else None
    g_wrap = gx[-1].copy() if len(wx) == n0 else None
    for step in (1, 7, n0):
        # the operator's own chunks have `step` rows, so that its energy
        # adds the same partials in the same order
        monkeypatch.setattr(solvers, "_CHUNK_ELEMENTS", step * shape[1])
        assert solvers._chunk_rows(phi) == step
        got, b = np.empty(shape), np.empty(shape)
        energy = 0.0
        for i0 in range(0, n0, step):
            i1 = min(i0 + step, n0)
            x = slice(max(i0, 1) - 1, min(i1, n0 - 1))
            weights = wx[x].copy(), wy[i0:i1].copy(), wrap
            data = gx[x].copy(), gy[i0:i1].copy(), g_wrap
            block = solvers._face_rows(phi, i0, i1, got[i0:i1], *weights,
                                       pinned)
            assert np.shares_memory(block, got)
            block = solvers._face_rhs(i0, i1, b[i0:i1], *weights, *data)
            assert np.shares_memory(block, b)
            energy += solvers._face_energy(phi, i0, i1, *weights, *data, pinned)
        assert np.array_equal(got, want)
        assert np.array_equal(b, op.rhs(gx, gy))
        assert energy == op.energy(phi, gx, gy)
    # b keeps the bits, signed zeros included, of the whole-grid arithmetic;
    # the energy sums in another order, so it agrees to summation rounding
    assert b.tobytes() == _whole_grid_rhs(wx, wy, gx, gy, shape).tobytes()
    assert energy == pytest.approx(
        _whole_grid_energy(wx, wy, pinned, phi, gx, gy),
        rel=(wx.size + wy.size) * np.finfo(float).eps)
    # scalar face data are taken as constant arrays, with the same bits, by
    # the operator and by the kernels (here on one chunk, as the operator's)
    gx, gy = np.full(wx.shape, 0.25), np.full(wy.shape, -1.5)
    assert np.array_equal(op.rhs(0.25, -1.5), op.rhs(gx, gy))
    assert op.energy(phi, 0.25, -1.5) == op.energy(phi, gx, gy)
    weights = wx[:n0 - 1], wy, wrap
    assert np.array_equal(solvers._face_rhs(0, n0, np.empty(shape), *weights,
                                            0.25, -1.5, 0.25), op.rhs(gx, gy))
    assert solvers._face_energy(phi, 0, n0, *weights, 0.25, -1.5, 0.25,
                                pinned) == op.energy(phi, gx, gy)


@pytest.mark.parametrize("kind", FACE_KINDS)
def test_face_operator_matches_dense_assembly(kind):
    shape = (7, 9)
    rng = np.random.default_rng(21)
    wx, wy, pinned = _face_case(kind, shape, rng)
    op = solvers.FaceOperator(wx, wy, pinned)
    size = shape[0] * shape[1]
    columns = [op.apply(e.reshape(shape)).ravel().copy() for e in np.eye(size)]
    matrix = np.array(columns).T
    dense = _dense_face_matrix(wx, wy, pinned, shape)
    assert np.allclose(matrix, dense, rtol=0.0, atol=1e-14)
    assert np.array_equal(matrix, matrix.T)
    phi = rng.standard_normal(shape)
    assert np.allclose(op.apply(phi).ravel(), dense @ phi.ravel(), atol=1e-13)


@pytest.mark.parametrize("kind", FACE_KINDS)
def test_face_operator_energy_gradient_is_twice_the_residual(kind):
    shape = (7, 9)
    rng = np.random.default_rng(22)
    wx, wy, pinned = _face_case(kind, shape, rng)
    op = solvers.FaceOperator(wx, wy, pinned)
    gx = rng.standard_normal(wx.shape)
    gy = rng.standard_normal(wy.shape)
    phi = rng.standard_normal(shape)
    v = rng.standard_normal(shape)
    grad = 2.0 * (op.apply(phi) - op.rhs(gx, gy))
    # E is quadratic, so the central difference is its exact derivative
    t = 1e-3
    slope = (op.energy(phi + t * v, gx, gy)
             - op.energy(phi - t * v, gx, gy)) / (2.0 * t)
    assert slope == pytest.approx(float(np.vdot(grad, v)), rel=1e-8)
    # and the energy itself is the face sum at phi = 0
    expected = float(np.sum(wx * gx**2) + np.sum(wy * gy**2))
    assert op.energy(np.zeros(shape), gx, gy) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("kind", FACE_KINDS)
def test_face_operator_threads_are_bit_identical(monkeypatch, kind):
    shape = (640, 520)  # large enough to be threaded
    assert shape[0] * shape[1] >= solvers._THREADED_MIN_SIZE
    rng = np.random.default_rng(23)
    wx, wy, pinned = _face_case(kind, shape, rng)
    gx = rng.standard_normal(wx.shape)
    gy = rng.standard_normal(wy.shape)
    phi = rng.standard_normal(shape)
    results = {}
    for workers in (2, 1):
        monkeypatch.setattr(solvers, "_WORKERS", workers)
        op = solvers.FaceOperator(wx, wy, pinned)
        results[workers] = (op.apply(phi).copy(), op.rhs(gx, gy),
                            op.energy(phi, gx, gy))
    assert np.array_equal(results[2][0], results[1][0])
    assert np.array_equal(results[2][1], results[1][1])
    assert results[2][2] == results[1][2]
