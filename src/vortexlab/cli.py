"""Command-line front end.

Subcommands: `cell` (homogenized tensor), `psi` (singularity costs),
`minimize` (single energy descent), `balls` (merging-disk timeline),
`scaling` (full study), `flat` (distance between two measure CSVs).
Each reads a strict-JSON config and writes its artifacts under --out.
Exit codes: 0 success, 2 config error, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Optional

import numpy as np

from .ball_construction import WeightedBall, evolve
from .cell_problem import (
    MIN_RESOLUTION,
    HomogenizedTensor,
    homogenized_tensor,
    refine_tensor,
)
from .experiments import (
    ConfigError,
    _atoms_from_spec,
    _domain_from_spec,
    _integer_at_least,
    _is_integer,
    _is_number,
    _number,
    _positive,
    _read_config,
    _require_keys,
    coefficient_from_spec,
    emit_report,
    parse_config,
    run_scaling_study,
)
from .gl_solver import (
    GLParameters,
    MinimizeBudget,
    default_grid,
    gl_energy,
    minimize_gl,
    recovery_field,
)
from .singularity_cost import (
    _MIN_CELLS_PER_PERIOD,
    _OSCILLATING_SOLVE_BYTES_PER_CELL,
    DEFAULT_CELLS_PER_PERIOD,
    capital_psi,
    oscillating_annulus_grid,
    psi_of_z,
)
from .solvers import SolverError
from .vortex_analysis import VortexMeasure, flat_distance

__all__ = ["main"]


def _write_json(payload: Any, out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def _cmd_cell(args: argparse.Namespace) -> int:
    data = _read_config(args.config)
    _require_keys(data, {"coefficient", "resolution", "resolutions"},
                  {"coefficient"}, "top level")
    coeff = coefficient_from_spec(data["coefficient"])
    payload: dict[str, Any]
    if "resolutions" in data:
        if "resolution" in data:
            raise ConfigError("set 'resolution' or 'resolutions', not both")
        resolutions = data["resolutions"]
        if not (
            isinstance(resolutions, list) and len(resolutions) >= 2
            and all(_is_integer(n) for n in resolutions)
            and resolutions[0] >= MIN_RESOLUTION
            and all(b > a for a, b in zip(resolutions, resolutions[1:]))
        ):
            raise ConfigError(
                "'resolutions' must be two or more increasing integers "
                f">= {MIN_RESOLUTION}, got {resolutions!r}"
            )
        refinement = refine_tensor(coeff, resolutions)
        payload = {
            "tensor": refinement.tensor.to_json_dict(),
            "table": [t.to_json_dict() for t in refinement.table],
            "orders": dict(refinement.orders),
            "warning": refinement.warning,
        }
        tensor = refinement.tensor
    else:
        n = _integer_at_least(data.get("resolution", 256), MIN_RESOLUTION,
                              "'resolution'")
        tensor = homogenized_tensor(coeff, n=n)
        payload = {"tensor": tensor.to_json_dict()}
    path = _write_json(payload, args.out, "tensor.json")
    print(
        f"tensor: a11={tensor.a11:.7f} a12={tensor.a12:.3e} "
        f"a22={tensor.a22:.7f} det={tensor.det:.7f} -> {path}"
    )
    return 0


_PSI_COMMON_KEYS = {"z_values", "ratios", "fixed_trace"}
#: mode -> (allowed, required) keys besides the common ones
_PSI_MODE_KEYS = {
    "oscillating": ({"delta", "coefficient", "cells_per_period"},
                    {"delta", "coefficient"}),
    "tensor": ({"tensor", "n_theta"}, {"tensor"}),
    "homogenized": ({"coefficient", "tensor_resolution", "n_theta"},
                    {"coefficient"}),
}


def _tensor_from_spec(spec: Any, where: str = "tensor") -> HomogenizedTensor:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(spec, {"a11", "a12", "a22"}, {"a11", "a22"}, where)
    a12 = _number(spec, "a12", where, 0.0)
    tensor = HomogenizedTensor(
        _number(spec, "a11", where), a12, _number(spec, "a22", where), 0, 0.0
    )
    if not (tensor.a11 > 0.0 and tensor.det > 0.0):
        raise ConfigError(f"{where} must be positive definite")
    return tensor


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where `os.sysconf` does not say."""
    try:
        size = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return None
    return size if size > 0 else None


def _cmd_psi(args: argparse.Namespace) -> int:
    data = _read_config(args.config)
    if "delta" in data:
        mode = "oscillating"
    elif "tensor" in data:
        mode = "tensor"
    else:
        mode = "homogenized"
    allowed, required = _PSI_MODE_KEYS[mode]
    _require_keys(data, _PSI_COMMON_KEYS | allowed, required,
                  f"top level ({mode} mode)")
    z_values = data.get("z_values", [1])
    if not (isinstance(z_values, list) and z_values
            and all(_is_integer(z) and z != 0 for z in z_values)):
        raise ConfigError("'z_values' must be a nonempty list of nonzero integers")
    ratios = data.get("ratios", [10.0, 30.0, 100.0])
    if not (
        isinstance(ratios, list) and len(ratios) >= 3
        and all(_is_number(r) for r in ratios) and ratios[0] > 1.0
        and all(b > a for a, b in zip(ratios, ratios[1:]))
    ):
        raise ConfigError("'ratios' must be three or more increasing numbers > 1")
    fixed_trace = data.get("fixed_trace", False)
    if not isinstance(fixed_trace, bool):
        raise ConfigError("'fixed_trace' must be true or false")

    kwargs: dict[str, Any] = {"fixed_trace": fixed_trace}
    if mode == "oscillating":
        kwargs["coefficient"] = coefficient_from_spec(data["coefficient"])
        kwargs["delta"] = _positive(data, "delta", "top level")
        if "cells_per_period" in data:
            cells = _number(data, "cells_per_period", "top level")
            if cells < _MIN_CELLS_PER_PERIOD:
                raise ConfigError(
                    f"'cells_per_period' must be >= {_MIN_CELLS_PER_PERIOD:g}"
                )
            kwargs["cells_per_period"] = cells
        memory = _physical_memory()
        for ratio in ratios:
            try:
                grid = oscillating_annulus_grid(
                    1.0, ratio, kwargs["delta"],
                    kwargs.get("cells_per_period", DEFAULT_CELLS_PER_PERIOD))
            except ValueError as exc:  # a grid too fine to allocate
                raise ConfigError(str(exc)) from exc
            need = ((grid.n_r - 1) * grid.n_theta
                    * _OSCILLATING_SOLVE_BYTES_PER_CELL)
            if memory is not None and need > memory:
                raise ConfigError(
                    f"delta = {kwargs['delta']:g} needs about "
                    f"{need / 2**30:.3g} GiB for the annulus solve at ratio "
                    f"{ratio:g}, more than the {memory / 2**30:.3g} GiB of "
                    "physical memory")
    else:
        kwargs["n_theta"] = _integer_at_least(data.get("n_theta", 256), 16,
                                              "'n_theta'")
        if mode == "tensor":
            kwargs["tensor"] = _tensor_from_spec(data["tensor"])
        else:
            n = _integer_at_least(data.get("tensor_resolution", 256),
                                  MIN_RESOLUTION, "'tensor_resolution'")
            kwargs["tensor"] = homogenized_tensor(
                coefficient_from_spec(data["coefficient"]), n=n)

    estimates = {}
    for k in sorted({abs(z) for z in z_values}):
        estimates[k] = psi_of_z(k, ratios, **kwargs)
    table = {k: est.value for k, est in estimates.items()}
    capitals = {}
    for z in z_values:
        # splitting search may need costs up to |z| even if only z requested
        for k in range(1, abs(z) + 1):
            if k not in table:
                estimates[k] = psi_of_z(k, ratios, **kwargs)
                table[k] = estimates[k].value
        value, split = capital_psi(table, z)
        capitals[z] = {"value": value, "splitting": list(split)}

    payload = {
        "psi": {str(k): est.to_json_dict() for k, est in estimates.items()},
        "capital_psi": {str(z): info for z, info in capitals.items()},
    }
    path = _write_json(payload, args.out, "psi.json")
    for k in sorted(estimates):
        print(f"psi({k}) = {estimates[k].value:.7f}")
    for z in z_values:
        info = capitals[z]
        print(f"Psi({z}) = {info['value']:.7f} splitting={info['splitting']}")
    print(f"-> {path}")
    return 0


_MINIMIZE_KEYS = {
    "coefficient", "epsilon", "delta", "domain", "vortices",
    "cells_per_epsilon", "s", "relocate", "max_iterations",
}


def _cmd_minimize(args: argparse.Namespace) -> int:
    data = _read_config(args.config)
    _require_keys(data, _MINIMIZE_KEYS, {"coefficient", "vortices"}, "top level")
    coeff = coefficient_from_spec(data["coefficient"])
    epsilon = _positive(data, "epsilon", "top level", 2.0**-6)
    delta = _positive(data, "delta", "top level", epsilon)
    cells = _integer_at_least(data.get("cells_per_epsilon", 4), 4,
                              "'cells_per_epsilon'")
    s = _number(data, "s", "top level") if "s" in data else None
    if s is not None and not 0.0 < s < 1.0:
        raise ConfigError(f"'s' must lie in (0,1), got {s!r}")
    relocate = data.get("relocate", False)
    if not isinstance(relocate, bool):
        raise ConfigError("'relocate' must be true or false")
    max_iterations = _integer_at_least(data.get("max_iterations", 2000), 1,
                                       "'max_iterations'")
    domain = _domain_from_spec(data.get("domain"))
    atoms = _atoms_from_spec(data["vortices"], "vortices")
    params = GLParameters(epsilon, delta, coeff,
                          default_grid(domain, epsilon, cells))
    try:
        mu = VortexMeasure(atoms, domain)
        v0 = recovery_field(mu, params, s=s, relocate_cores=relocate)
    except ValueError as exc:  # atoms outside the domain or not separated
        raise ConfigError(f"vortices: {exc}") from exc
    if args.seed is not None:
        rng = np.random.default_rng(args.seed)
        noise = 1e-3 * rng.standard_normal(v0.values.shape)
        noise[0, :] = noise[-1, :] = 0.0
        noise[:, 0] = noise[:, -1] = 0.0
        v0 = type(v0)(v0.grid, v0.values + noise)
    budget = MinimizeBudget(max_iterations=max_iterations)
    initial = gl_energy(v0, params)
    report = minimize_gl(v0, params, budget)

    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    with open(trace_path, "w", encoding="utf-8") as handle:
        handle.write("iteration,energy\n")
        for i, e in enumerate(report.trace):
            handle.write(f"{i},{e:.12g}\n")
    vortices_path = os.path.join(args.out, "vortices.csv")
    report.vortices.to_csv(vortices_path)
    payload = {
        "epsilon": epsilon,
        "delta": delta,
        "initial_energy": initial.total,
        "final_energy": report.energy.total,
        "gradient_term": report.energy.gradient_term,
        "potential_term": report.energy.potential_term,
        "iterations": report.iterations,
        "converged": report.converged,
        "stop_reason": report.stop_reason,
        "vortices": [
            {"x": p[0], "y": p[1], "charge": z} for p, z in report.vortices.atoms
        ],
    }
    path = _write_json(payload, args.out, "minimize.json")
    print(
        f"energy {initial.total:.6f} -> {report.energy.total:.6f} in "
        f"{report.iterations} iterations (converged={report.converged}, "
        f"stop_reason={report.stop_reason}) -> {path}"
    )
    return 0


_BALL_KEYS = {"x", "y", "radius", "weight"}


def _cmd_balls(args: argparse.Namespace) -> int:
    data = _read_config(args.config)
    _require_keys(data, {"balls", "t_final"}, {"balls"}, "top level")
    entries = data["balls"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError("'balls' must be a nonempty list")
    balls = []
    for i, entry in enumerate(entries):
        where = f"balls[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{where} must be an object")
        _require_keys(entry, _BALL_KEYS, _BALL_KEYS, where)
        if not _is_integer(entry["weight"]):
            raise ConfigError(
                f"'weight' at {where} must be an integer, got {entry['weight']!r}")
        balls.append(WeightedBall(
            (_number(entry, "x", where), _number(entry, "y", where)),
            _positive(entry, "radius", where), entry["weight"],
        ))
    t_final = _number(data, "t_final", "top level", 1.0)
    if t_final < 0.0:
        raise ConfigError(f"'t_final' must be a finite number >= 0, got {t_final!r}")
    try:
        timeline = evolve(balls, t_final)
    except ValueError as exc:
        raise ConfigError(f"invalid ball family: {exc}") from exc
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "balls.csv")
    timeline.export_events_csv(csv_path)
    print(
        f"{len(balls)} balls, {len(timeline.events)} merge events up to "
        f"t={timeline.t_final:g} -> {csv_path}"
    )
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    config = parse_config(args.config)
    result = run_scaling_study(config, threads=args.threads, seed=args.seed)
    csv_path, json_path = emit_report(result.rows, result.summary, args.out)
    for row in result.rows:
        status = row.flag if row.flag else f"rel_gap={row.rel_gap:+.4f}"
        print(
            f"eps=2^{math.log2(row.epsilon):+.0f} delta={row.delta:.5g} "
            f"lambda={row.lambda_effective:.3f} E/|log eps|="
            f"{row.energy_per_log:.5f} predicted={row.predicted:.5f} {status}"
        )
    print(f"-> {csv_path}, {json_path}")
    return 0


def _cmd_flat(args: argparse.Namespace) -> int:
    data = _read_config(args.config) if args.config else {}
    _require_keys(data, {"domain"}, set(), "top level")
    domain = _domain_from_spec(data.get("domain"))
    try:
        mu1 = VortexMeasure.from_csv(args.first, domain)
        mu2 = VortexMeasure.from_csv(args.second, domain)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load measures: {exc}") from exc
    result = flat_distance(mu1, mu2)
    print(f"flat distance = {result.value:.12g}")
    if args.out:
        payload = {
            "value": result.value,
            "breakdown": dict(result.breakdown),
            "plan": [
                {
                    "source": list(src) if src is not None else None,
                    "target": list(dst) if dst is not None else None,
                    "mass": mass,
                }
                for src, dst, mass in result.plan
            ],
        }
        path = _write_json(payload, args.out, "flat.json")
        print(f"-> {path}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vortexlab",
        description="Vortex energy laboratory for periodically heterogeneous media",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, config_required: bool = True) -> None:
        p.add_argument("--config", required=config_required,
                       help="path to a JSON config file")
        p.add_argument("--out", default=".", help="output directory")

    common(sub.add_parser("cell", help="solve the periodic cell problem"))
    common(sub.add_parser("psi", help="estimate singularity costs"))
    minimize = sub.add_parser("minimize", help="descend the energy once")
    common(sub.add_parser("balls", help="grow and merge a ball family"))
    scaling = sub.add_parser("scaling", help="run a scaling study")
    for p in (minimize, scaling):
        common(p)
        p.add_argument("--seed", type=int, default=None,
                       help="seed for minimizer initialization perturbations")
    scaling.add_argument("--threads", type=int, default=1,
                         help="worker threads for independent rows")
    flat = sub.add_parser("flat", help="flat distance between two measure CSVs")
    flat.add_argument("first", help="CSV of the first measure (x,y,charge)")
    flat.add_argument("second", help="CSV of the second measure")
    common(flat, config_required=False)
    return parser


_HANDLERS = {
    "cell": _cmd_cell,
    "psi": _cmd_psi,
    "minimize": _cmd_minimize,
    "balls": _cmd_balls,
    "scaling": _cmd_scaling,
    "flat": _cmd_flat,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
