"""The names the benchmark's tracer wraps must exist, and the solves must
reach the preconditioner factories through them.

`perfbench/spans.py` wraps public functions by name, from outside the
package; a renamed or bypassed function silently drops its per-layer
metrics from a traced run.  The module is loaded here as it is, unedited.
"""

import importlib.util
import sys
from pathlib import Path

import vortexlab
import vortexlab.cli  # noqa: F401  (loads every module the tracer wraps)
from vortexlab import cell_problem, coefficients, gl_solver, singularity_cost
from vortexlab.fields import CartesianGrid
from vortexlab.vortex_analysis import Rectangle, VortexMeasure

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_name_resolves():
    spans = _spans_module()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in spans._targets(vortexlab)
               if not callable(vars(owner).get(attr))]
    missing += [f"solvers.{name}" for name in spans._PRECONDITIONERS
                if not callable(vars(vortexlab.solvers).get(name))]
    assert missing == []


def test_solves_reach_every_traced_preconditioner():
    spans = _spans_module()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, vortexlab)
    try:
        checker = coefficients.checkerboard(1.0, 4.0)
        cell_problem.solve_corrector(checker, (1.0, 0.0), 16)
        grid = singularity_cost.oscillating_annulus_grid(1.0, 4.0, 0.5)
        singularity_cost.min_annulus_energy(singularity_cost.AnnulusProblem(
            grid, 1, coefficient=checker, delta=0.5))
        unit = Rectangle((0.0, 0.0), (1.0, 1.0))
        params = gl_solver.GLParameters(
            0.125, 0.125, checker, CartesianGrid((0.0, 0.0), (1.0, 1.0), (8, 8)))
        gl_solver.core_radius_energy(
            VortexMeasure((((0.5, 0.5), 1),), unit), params)
    finally:
        restore()
    names = {s["name"] for s in tracer.spans}
    for kind in spans._PRECONDITIONERS.values():
        assert f"solvers.{kind}_apply" in names
    assert "solvers.pcg" in names


def test_core_radius_energy_emits_the_selected_spans():
    # the selectors of `coefficients.eval_mpts_per_s` (one eval call per
    # face family, with every face) and of `solvers.dct2_apply_ms`
    n = 64
    spans = _spans_module()
    tracer = spans.Tracer()
    restore = spans.instrument(tracer, vortexlab)
    try:
        unit = Rectangle((0.0, 0.0), (1.0, 1.0))
        params = gl_solver.GLParameters(
            2.0**-4, 2.0**-4, coefficients.checkerboard(1.0, 4.0),
            CartesianGrid((0.0, 0.0), (1.0, 1.0), (8, 8)))
        gl_solver.core_radius_energy(
            VortexMeasure((((0.5, 0.5), 1),), unit), params, n=n)
    finally:
        restore()
    evals = [s["attrs"] for s in tracer.spans if s["name"] == "coefficients.eval"]
    assert evals == [{"kind": "checkerboard", "points": (n - 1) * n}] * 2
    applies = [s["attrs"] for s in tracer.spans if s["name"] == "solvers.dct2_apply"]
    assert applies
    assert all(a["shape"] == [n, n] for a in applies)
