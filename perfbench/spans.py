"""Spans around the public calls into vortexlab, installed from outside.

`instrument(tracer, vl)` replaces each public function listed in `_targets`
by a wrapper that records one span (name, start, end, parent, attributes)
in the tracer's memory, and returns a function that puts the originals
back.  The wrappers are bound in every loaded `vortexlab` module that
holds the original, so calls from inside the package (for example
`cell_problem.refine_tensor` calling `homogenized_tensor`) are traced
too.  Nothing inside the package is edited.

`layer_metrics` turns the spans of one traced pass of each workload into
the per-layer metrics named in `BENCHMARK.json`.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
import tracemalloc
from typing import Any, Callable, Optional

import numpy as np

# The finest row of the scaling study, whose allocations are tracked.
PEAK_ALLOC_EPSILON = 2.0**-9


class Tracer:
    """Spans kept in memory; the caller writes them out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.workload = ""
        self._stack: list[dict[str, Any]] = []

    def open(self, name: str, attrs: dict[str, Any]) -> dict[str, Any]:
        span = {
            "id": len(self.spans),
            "name": name,
            "workload": self.workload,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "attrs": attrs,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")


def duration(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def _shape(a: Any) -> list[int]:
    return list(np.shape(a))


def _wrap(tracer: Tracer, name: str, fn: Callable,
          before: Optional[Callable] = None,
          after: Optional[Callable] = None,
          track_memory: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        attrs = before(*args, **kwargs) if before else {}
        memory = track_memory is not None and track_memory(*args, **kwargs)
        span = tracer.open(name, attrs)
        if memory:
            tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span["attrs"]["error"] = type(exc).__name__
            raise
        finally:
            if memory:
                span["attrs"]["peak_alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            tracer.close(span)
        if after:
            span["attrs"].update(after(result))
        return result

    return wrapper


def _preconditioner(tracer: Tracer, kind: str, fn: Callable) -> Callable:
    """Trace the factory and every apply of the preconditioner it returns."""

    @functools.wraps(fn)
    def factory(shape, *args, **kwargs):
        attrs = {"shape": list(shape), "masked": kwargs.get("restrict") is not None}
        span = tracer.open(f"solvers.{fn.__name__}", dict(attrs))
        try:
            apply = fn(shape, *args, **kwargs)
        finally:
            tracer.close(span)

        def traced_apply(r):
            s = tracer.open(f"solvers.{kind}_apply", dict(attrs))
            try:
                return apply(r)
            finally:
                tracer.close(s)

        return traced_apply

    return factory


def _annulus_attrs(problem, *args, **kwargs) -> dict[str, Any]:
    grid = problem.grid
    return {
        "mode": "oscillating" if problem.coefficient is not None else "homogenized",
        "ratio": grid.r_outer / grid.r_inner,
        "delta": problem.delta,
        "z": problem.z,
        "shape": [grid.n_r, grid.n_theta],
    }


def _targets(vl) -> list[tuple[Any, str, dict[str, Callable]]]:
    """(owner, attribute, hooks) for every traced public call."""
    s, c, cp, sc, gl, va, bc, ex, cli = (
        vl.solvers, vl.coefficients, vl.cell_problem, vl.singularity_cost,
        vl.gl_solver, vl.vortex_analysis, vl.ball_construction,
        vl.experiments, vl.cli,
    )
    return [
        (s, "pcg", dict(
            before=lambda op, rhs, *a, **k: {"shape": _shape(rhs)},
            after=lambda res: {"iterations": res[1].iterations})),
        (c.PeriodicCoefficient, "eval", dict(
            before=lambda self, y: {"kind": self.kind,
                                    "points": int(np.size(y) // 2)})),
        (cp, "solve_corrector", dict(
            before=lambda coeff, xi, n, *a, **k: {"kind": coeff.kind, "n": n},
            after=lambda res: {"iterations": res.iterations})),
        (cp, "homogenized_tensor", dict(
            before=lambda coeff, n, *a, **k: {"kind": coeff.kind, "n": n})),
        (cp, "refine_tensor", dict(
            before=lambda coeff, ns, *a, **k: {"kind": coeff.kind, "ns": list(ns)})),
        (sc, "oscillating_annulus_grid", {}),
        (sc, "min_annulus_energy", dict(before=_annulus_attrs)),
        (sc, "psi_of_z", dict(before=lambda z, ratios, **k: {"z": z})),
        (sc, "capital_psi", dict(before=lambda table, z: {"z": z})),
        (gl, "gl_energy", dict(
            before=lambda v, params: {"shape": _shape(v.values)[:2]})),
        (gl, "recovery_field", dict(
            before=lambda mu, params, *a, **k: {"shape": list(params.grid.n)})),
        (gl, "core_radius_energy", dict(
            before=lambda mu, params, n=None, *a, **k: {"epsilon": params.epsilon, "n": n},
            after=lambda res: {"iterations": res[1].iterations},
            track_memory=lambda mu, params, *a, **k:
                abs(params.epsilon - PEAK_ALLOC_EPSILON) < 1e-15)),
        (gl, "minimize_gl", dict(
            before=lambda v, params, *a, **k: {"shape": _shape(v.values)[:2]},
            after=lambda res: {"iterations": res.iterations})),
        (va, "detect_vortices", dict(
            before=lambda v, *a, **k: {"shape": _shape(v.values)[:2]},
            after=lambda res: {"atoms": len(res.atoms)})),
        (va, "boundary_degree", {}),
        (va, "flat_distance", {}),
        (bc, "evolve", dict(before=lambda balls, t: {"balls": len(balls)})),
        (bc, "lower_bound", {}),
        (ex, "parse_config", {}),
        (ex, "run_scaling_study", {}),
        (ex, "emit_report", {}),
        (cli, "main", {}),
    ]


_PRECONDITIONERS = {
    "periodic_fft_preconditioner": "fft",
    "mixed_dct_fft_preconditioner": "mixed",
    "dct2_preconditioner": "dct2",
}


def instrument(tracer: Tracer, vl) -> Callable[[], None]:
    """Install the wrappers; returns the function that removes them."""
    owners = [m for name, m in sys.modules.items()
              if name == "vortexlab" or name.startswith("vortexlab.")]
    replaced: list[tuple[Any, str, Any]] = []

    def rebind(original, wrapper, home):
        for owner in [home] + owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    replaced.append((owner, key, original))
                    setattr(owner, key, wrapper)

    for owner, attr, hooks in _targets(vl):
        original = vars(owner).get(attr)
        if original is None:
            continue  # its per-layer metrics will be reported unavailable
        prefix = owner.__module__.rsplit(".", 1)[-1] if isinstance(owner, type) \
            else owner.__name__.rsplit(".", 1)[-1]
        rebind(original, _wrap(tracer, f"{prefix}.{attr}", original, **hooks), owner)
    for attr, kind in _PRECONDITIONERS.items():
        original = vars(vl.solvers).get(attr)
        if original is None:
            continue
        rebind(original, _preconditioner(tracer, kind, original), vl.solvers)

    def restore() -> None:
        for owner, key, original in reversed(replaced):
            setattr(owner, key, original)

    return restore


# -- per-layer metrics ------------------------------------------------------------


def _select(spans, workload, name, **attrs):
    out = []
    for s in spans:
        if s["workload"] != workload or s["name"] != name:
            continue
        if all(s["attrs"].get(k) == v for k, v in attrs.items()):
            out.append(s)
    if not out:
        raise LookupError(f"no span {name} {attrs} in the {workload} pass")
    return out


def _median_ms(spans) -> float:
    return 1000.0 * statistics.median(duration(s) for s in spans)


def _top_level(spans, workload, name):
    """Spans the benchmark itself opened in the workload's pass (not nested
    inside another vortexlab call)."""
    roots = {s["id"] for s in spans
             if s["workload"] == workload and s["name"] == "pass"}
    return [s for s in _select(spans, workload, name) if s["parent"] in roots]


def layer_metrics(spans, scaling_summary: dict, cpu_seconds: float):
    """Every per-layer metric, from one traced pass of each workload.

    Returns (metrics, unavailable): a metric whose spans are missing, for
    example because the function it times was renamed, is listed in
    `unavailable` with the reason instead of stopping the run.
    """
    metrics: dict[str, dict[str, Any]] = {}
    unavailable: dict[str, str] = {}

    def put(name: str, unit: str, compute: Callable[[], float]) -> None:
        try:
            metrics[name] = {"value": float(compute()), "unit": unit}
        except (LookupError, ValueError, ZeroDivisionError) as exc:
            unavailable[name] = f"{type(exc).__name__}: {exc}"

    def tensor_span():
        (span,) = _select(spans, "cell-psi", "cell_problem.homogenized_tensor",
                          kind="checkerboard", n=256)
        return span

    def corrector_iterations():
        parent = tensor_span()["id"]
        return sum(s["attrs"]["iterations"]
                   for s in _select(spans, "cell-psi", "cell_problem.solve_corrector")
                   if s["parent"] == parent)

    def finest_row():
        (span,) = [s for s in _select(spans, "scaling", "gl_solver.core_radius_energy")
                   if abs(s["attrs"]["epsilon"] - PEAK_ALLOC_EPSILON) < 1e-15]
        return span

    def minimize(shape):
        return [s for s in _top_level(spans, "descent", "gl_solver.minimize_gl")
                if s["attrs"]["shape"] == shape]

    def descent_a():
        (span,) = minimize([129, 129])
        return span

    def eval_rate():
        evals = _select(spans, "scaling", "coefficients.eval",
                        kind="checkerboard", points=2047 * 2048)
        return (sum(s["attrs"]["points"] for s in evals)
                / sum(duration(s) for s in evals) / 1e6)

    def cli_overhead():
        (main,) = _select(spans, "scaling", "cli.main")
        return duration(main) - scaling_summary["timings_seconds"]["total"]

    def quench_ms_per_iteration():
        quench = minimize([257, 257])
        return (1000.0 * sum(duration(s) for s in quench)
                / sum(s["attrs"]["iterations"] for s in quench))

    def detect():
        return [s for s in _top_level(spans, "descent", "vortex_analysis.detect_vortices")
                if "error" not in s["attrs"]]

    timings = scaling_summary.get("timings_seconds", {})
    put("solvers.dct2_apply_ms", "ms", lambda: _median_ms(
        _select(spans, "scaling", "solvers.dct2_apply", shape=[2048, 2048])))
    put("solvers.mixed_apply_ms", "ms", lambda: _median_ms(
        _select(spans, "cell-psi", "solvers.mixed_apply", shape=[737, 1006])))
    put("solvers.fft_apply_ms", "ms", lambda: _median_ms(
        _select(spans, "cell-psi", "solvers.fft_apply", shape=[256, 256])))
    put("coefficients.eval_mpts_per_s", "Mpts/s", eval_rate)
    put("cell_problem.homogenized_tensor_s", "s", lambda: duration(tensor_span()))
    put("cell_problem.cg_iterations", "count", corrector_iterations)
    put("cell_problem.ms_per_iteration", "ms",
        lambda: 1000.0 * duration(tensor_span()) / corrector_iterations())
    put("singularity_cost.homogenized_annulus_s", "s", lambda: _median_ms(
        _select(spans, "cell-psi", "singularity_cost.min_annulus_energy",
                mode="homogenized", ratio=100.0)) / 1000.0)
    put("singularity_cost.oscillating_annulus_s", "s", lambda: _median_ms(
        _select(spans, "cell-psi", "singularity_cost.min_annulus_energy",
                mode="oscillating", delta=0.05)) / 1000.0)
    put("singularity_cost.psi_table_s", "s", lambda: sum(
        duration(s) for s in _top_level(spans, "cell-psi", "singularity_cost.psi_of_z")))
    put("gl_solver.core_radius_s", "s", lambda: duration(finest_row()))
    put("gl_solver.core_radius.cg_iterations", "count", lambda: sum(
        s["attrs"]["iterations"]
        for s in _select(spans, "scaling", "gl_solver.core_radius_energy")))
    put("gl_solver.core_radius.ms_per_iteration", "ms",
        lambda: 1000.0 * duration(finest_row()) / finest_row()["attrs"]["iterations"])
    put("gl_solver.core_radius.peak_alloc_mib", "MiB",
        lambda: finest_row()["attrs"]["peak_alloc_bytes"] / 2**20)
    put("gl_solver.minimize_s", "s", lambda: duration(descent_a()))
    put("gl_solver.minimize.iterations", "count",
        lambda: descent_a()["attrs"]["iterations"])
    put("gl_solver.minimize.ms_per_iteration", "ms", quench_ms_per_iteration)
    put("gl_solver.gl_energy_ms", "ms", lambda: _median_ms(
        _select(spans, "descent", "gl_solver.gl_energy", shape=[257, 257])))
    put("experiments.tensor_s", "s", lambda: timings["tensor"])
    put("experiments.rows_s", "s", lambda: sum(timings["rows"].values()))
    put("cli.overhead_s", "s", cli_overhead)
    put("vortex_analysis.detect_ms", "ms", lambda: _median_ms(detect()))
    put("vortex_analysis.flat_distance_ms", "ms", lambda: _median_ms(
        _top_level(spans, "descent", "vortex_analysis.flat_distance")))
    put("ball_construction.evolve_ms", "ms", lambda: _median_ms(
        _top_level(spans, "descent", "ball_construction.evolve")))
    put("process.cpu_s", "s", lambda: cpu_seconds)
    return metrics, unavailable


def coverage(spans, workload: str) -> float:
    """Share of the workload's traced pass covered by its top-level spans."""
    (root,) = [s for s in spans if s["workload"] == workload and s["name"] == "pass"]
    children = [s for s in spans if s["parent"] == root["id"]]
    return sum(duration(s) for s in children) / duration(root)


def self_seconds(spans) -> dict[str, dict[str, float]]:
    """Per workload and span name, duration minus the time its children cover."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + duration(s)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        per = out.setdefault(s["workload"], {})
        per[s["name"]] = per.get(s["name"], 0.0) + duration(s) - child_time.get(s["id"], 0.0)
    return out
