"""Config-driven scaling studies: schedule epsilon, pick delta by regime,
measure vortex energies, compare against the predicted limits, and emit
CSV/JSON reports.

A study is one coefficient, one vortex configuration, one delta-vs-epsilon
regime, and a geometric epsilon schedule.  Per epsilon the energy is
measured through one of three channels: the prescribed-degree proxy (a
single linear solve — the default, and the quantitative one), the energy
of the assembled recovery field, or a full minimization started from it.
Each row records energy/|log eps| next to the predicted limit

    2 pi ((1 - lambda) ess inf a + lambda sqrt(det A_hom)) |mu|,

with lambda = min(max(-log delta, 0)/|log eps|, 1) computed from the
actual schedule (0 for delta >= 1), and A_hom always the tensor solved
numerically in the same run.

Config files are strict JSON: unknown keys are rejected with their
location, so typos fail loudly instead of silently using defaults.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from . import __version__
from .cell_problem import MIN_RESOLUTION, HomogenizedTensor, homogenized_tensor
from .coefficients import (
    PeriodicCoefficient,
    checkerboard,
    constant,
    laminate,
    raster_from_file,
    smooth_trigonometric,
)
from .fields import CartesianGrid, VectorField2D
from .gl_solver import (
    GLParameters,
    MinimizeBudget,
    _proxy_cells,
    core_radius_energy,
    default_grid,
    gl_energy,
    minimize_gl,
    recovery_field,
    relocated_measure,
)
from .singularity_cost import predicted_gamma_limit
from .solvers import SolverError
from .vortex_analysis import Rectangle, VortexMeasure

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ScalingRow",
    "StudyResult",
    "coefficient_from_spec",
    "parse_config",
    "run_scaling_study",
    "emit_report",
]

REGIMES = ("delta_proportional", "power_law", "log_slow")
CHANNELS = ("core_radius", "gl_recovery", "gl_minimize")

CSV_COLUMNS = (
    "epsilon",
    "delta",
    "lambda",
    "energy",
    "energy_per_log",
    "predicted",
    "rel_gap",
    "flag",
)


class ConfigError(ValueError):
    """Raised for malformed or schema-violating experiment configs."""


@dataclass(frozen=True)
class ExperimentConfig:
    coefficient: PeriodicCoefficient
    atoms: tuple[tuple[tuple[float, float], int], ...]
    domain: Rectangle
    regime: str
    regime_parameter: float
    epsilons: tuple[float, ...]
    channel: str = "core_radius"
    cells_per_epsilon: int = 4
    tensor_resolution: int = 256
    rtol: float = 1e-8
    max_iterations: int = 2000
    label: str = ""

    def measure(self) -> VortexMeasure:
        return VortexMeasure(self.atoms, self.domain)

    def echo(self) -> dict[str, Any]:
        """Effective configuration with defaults applied, for the summary."""
        return {
            "label": self.label,
            "coefficient": {
                "kind": self.coefficient.kind,
                "params": dict(self.coefficient.params),
            },
            "vortices": [
                {"x": p[0], "y": p[1], "charge": z} for p, z in self.atoms
            ],
            "domain": {
                "origin": list(self.domain.origin),
                "extent": list(self.domain.extent),
            },
            "regime": {"kind": self.regime, "parameter": self.regime_parameter},
            "epsilons": list(self.epsilons),
            "channel": self.channel,
            "cells_per_epsilon": self.cells_per_epsilon,
            "tensor_resolution": self.tensor_resolution,
            "rtol": self.rtol,
            "max_iterations": self.max_iterations,
        }


@dataclass(frozen=True)
class ScalingRow:
    epsilon: float
    delta: float
    lambda_effective: float
    energy: float
    energy_per_log: float
    predicted: float
    rel_gap: float
    flag: str = ""

    def __post_init__(self) -> None:
        if not (0.0 <= self.lambda_effective <= 1.0):
            raise ValueError(
                f"lambda_effective out of [0,1]: {self.lambda_effective}"
            )
        if not self.flag and not self.predicted > 0.0:
            raise ValueError(f"predicted limit must be positive: {self.predicted}")


@dataclass
class StudyResult:
    rows: list[ScalingRow]
    summary: dict[str, Any]


# -- config parsing -------------------------------------------------------------


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' at {where}")
    for key in required:
        if key not in obj:
            raise ConfigError(f"missing key '{key}' at {where}")


def _is_integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _integer_at_least(value: Any, minimum: int, what: str) -> int:
    """`value` when it is an integer >= minimum, else ConfigError about `what`."""
    if not _is_integer(value) or value < minimum:
        raise ConfigError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return value


def _number(obj: dict, key: str, where: str,
            default: Optional[float] = None) -> float:
    """obj[key] when it is a finite number; `default` when the key is
    absent and a default is given.  JSON's NaN and Infinity are rejected."""
    if key not in obj and default is not None:
        return default
    value = obj[key]
    if not _is_number(value):
        raise ConfigError(f"'{key}' at {where} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(
            f"'{key}' at {where} must be a finite number, got {value!r}")
    return float(value)


def _positive(obj: dict, key: str, where: str,
              default: Optional[float] = None) -> float:
    """obj[key] when it is a finite number > 0; `default` when the key is
    absent and a default is given."""
    value = _number(obj, key, where, default)
    if not value > 0.0:
        raise ConfigError(
            f"'{key}' at {where} must be a finite number > 0, got {value!r}")
    return value


def coefficient_from_spec(spec: Any, where: str = "coefficient") -> PeriodicCoefficient:
    """Build a coefficient from its JSON description.

    Kinds: constant {value}, checkerboard {alpha, beta}, laminate
    {alpha, beta, direction?, fraction?}, smooth {c0?, c1?}, raster {path}.
    """
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = spec.get("kind")
    if kind == "constant":
        _require_keys(spec, {"kind", "value"}, {"value"}, where)
        build, args = constant, (_number(spec, "value", where),)
    elif kind == "checkerboard":
        _require_keys(spec, {"kind", "alpha", "beta"}, {"alpha", "beta"}, where)
        build, args = checkerboard, (_number(spec, "alpha", where),
                                     _number(spec, "beta", where))
    elif kind == "laminate":
        _require_keys(
            spec,
            {"kind", "alpha", "beta", "direction", "fraction"},
            {"alpha", "beta"},
            where,
        )
        direction = spec.get("direction", [0, 1])
        if not (isinstance(direction, list) and len(direction) == 2
                and all(_is_number(v) and math.isfinite(v) for v in direction)):
            raise ConfigError(
                f"'direction' at {where} must be a list of two finite numbers")
        build, args = laminate, (_number(spec, "alpha", where),
                                 _number(spec, "beta", where), tuple(direction),
                                 _number(spec, "fraction", where, 0.5))
    elif kind == "smooth":
        _require_keys(spec, {"kind", "c0", "c1"}, set(), where)
        build, args = smooth_trigonometric, (_number(spec, "c0", where, 2.0),
                                             _number(spec, "c1", where, 1.0))
    elif kind == "raster":
        _require_keys(spec, {"kind", "path"}, {"path"}, where)
        build, args = raster_from_file, (str(spec["path"]),)
    else:
        raise ConfigError(
            f"unknown coefficient kind {kind!r} at {where} "
            f"(expected constant/checkerboard/laminate/smooth/raster)"
        )
    try:
        return build(*args)
    except (OSError, ValueError) as exc:  # bounds, fraction, raster file
        raise ConfigError(f"{where}: {exc}") from exc


def _atoms_from_spec(spec: Any, where: str) -> tuple:
    if not isinstance(spec, list) or not spec:
        raise ConfigError(f"{where} must be a nonempty list")
    atoms = []
    for i, entry in enumerate(spec):
        sub = f"{where}[{i}]"
        if not isinstance(entry, dict):
            raise ConfigError(f"{sub} must be an object")
        _require_keys(entry, {"x", "y", "charge"}, {"x", "y", "charge"}, sub)
        charge = entry["charge"]
        if not _is_integer(charge) or charge == 0:
            raise ConfigError(f"'charge' at {sub} must be a nonzero integer")
        atoms.append(
            ((_number(entry, "x", sub), _number(entry, "y", sub)), charge)
        )
    return tuple(atoms)


def _domain_from_spec(spec: Any, where: str = "domain") -> Rectangle:
    """The rectangle {origin, extent}; the unit square when `spec` is None."""
    if spec is None:
        return Rectangle((0.0, 0.0), (1.0, 1.0))
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    _require_keys(spec, {"origin", "extent"}, {"origin", "extent"}, where)
    corners = []
    for key in ("origin", "extent"):
        value = spec[key]
        if not (isinstance(value, list) and len(value) == 2
                and all(_is_number(v) and math.isfinite(v) for v in value)):
            raise ConfigError(
                f"'{key}' at {where} must be a list of two finite numbers")
        corners.append((float(value[0]), float(value[1])))
    try:
        return Rectangle(*corners)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _epsilons_from_spec(spec: Any, where: str) -> tuple[float, ...]:
    if isinstance(spec, dict):
        _require_keys(spec, {"k_min", "k_max"}, {"k_min", "k_max"}, where)
        k_min, k_max = (_integer_at_least(spec[name], 1, f"'{name}' at {where}")
                        for name in ("k_min", "k_max"))
        if k_min > k_max:
            raise ConfigError(f"k_min > k_max at {where}")
        return tuple(2.0**-k for k in range(k_min, k_max + 1))
    if isinstance(spec, list) and spec:
        eps = []
        for i, value in enumerate(spec):
            if not _is_number(value):
                raise ConfigError(f"{where}[{i}] must be a number")
            value = float(value)
            if not (0.0 < value < 1.0):
                raise ConfigError(
                    f"{where}[{i}] must lie in (0,1), got {value}"
                )
            eps.append(value)
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError(f"{where} must be strictly decreasing")
        return tuple(eps)
    raise ConfigError(
        f"{where} must be a {{k_min,k_max}} object or a decreasing list"
    )


def _regime_from_spec(spec: Any, where: str) -> tuple[str, float]:
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be an object")
    kind = spec.get("kind")
    if kind == "delta_proportional":
        _require_keys(spec, {"kind", "factor"}, set(), where)
        return kind, _positive(spec, "factor", where, default=1.0)
    if kind == "power_law":
        _require_keys(spec, {"kind", "lambda"}, {"lambda"}, where)
        lam = _number(spec, "lambda", where)
        if not (0.0 <= lam < 1.0):
            raise ConfigError(
                f"'lambda' at {where} must lie in [0,1), got {lam}"
            )
        return kind, lam
    if kind == "log_slow":
        _require_keys(spec, {"kind"}, set(), where)
        return kind, 0.0
    raise ConfigError(
        f"unknown regime kind {kind!r} at {where} (expected one of {REGIMES})"
    )


def _read_config(path: str) -> dict:
    """The JSON object in the file at `path`, the loader of every config;
    ConfigError when the file cannot be read, is not JSON or holds no
    object."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError("top-level config must be an object")
    return data


def parse_config(path: str) -> ExperimentConfig:
    """Read and validate a study config; ConfigError carries the location."""
    data = _read_config(path)
    allowed = {
        "coefficient", "vortices", "domain", "regime", "epsilons",
        "channel", "solver", "label",
    }
    _require_keys(
        data, allowed, {"coefficient", "vortices", "regime", "epsilons"}, "top level"
    )

    coeff = coefficient_from_spec(data["coefficient"])
    atoms = _atoms_from_spec(data["vortices"], "vortices")
    domain = _domain_from_spec(data.get("domain"))
    regime, parameter = _regime_from_spec(data["regime"], "regime")
    epsilons = _epsilons_from_spec(data["epsilons"], "epsilons")

    channel = data.get("channel", "core_radius")
    if channel not in CHANNELS:
        raise ConfigError(
            f"unknown channel {channel!r} (expected one of {CHANNELS})"
        )

    solver = data.get("solver", {})
    if not isinstance(solver, dict):
        raise ConfigError("solver must be an object")
    _require_keys(
        solver,
        {"cells_per_epsilon", "tensor_resolution", "rtol", "max_iterations"},
        set(),
        "solver",
    )
    cells = _integer_at_least(solver.get("cells_per_epsilon", 4), 4,
                              "'cells_per_epsilon' at solver")
    tensor_n = _integer_at_least(solver.get("tensor_resolution", 256),
                                 MIN_RESOLUTION, "'tensor_resolution' at solver")
    rtol = _positive(solver, "rtol", "solver", default=1e-8)
    if not rtol < 1:
        raise ConfigError(f"'rtol' at solver must lie in (0,1), got {rtol!r}")
    max_iterations = _integer_at_least(solver.get("max_iterations", 2000), 1,
                                       "'max_iterations' at solver")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ConfigError(f"'label' must be a string, got {label!r}")

    config = ExperimentConfig(
        coefficient=coeff,
        atoms=atoms,
        domain=domain,
        regime=regime,
        regime_parameter=parameter,
        epsilons=epsilons,
        channel=channel,
        cells_per_epsilon=cells,
        tensor_resolution=tensor_n,
        rtol=rtol,
        max_iterations=max_iterations,
        label=label,
    )
    try:
        config.measure()  # validates atom placement inside the domain
    except ValueError as exc:
        raise ConfigError(f"vortices: {exc}") from exc
    return config


# -- study execution ------------------------------------------------------------


def _delta_for(config: ExperimentConfig, epsilon: float) -> float:
    if config.regime == "delta_proportional":
        return config.regime_parameter * epsilon
    if config.regime == "power_law":
        return epsilon**config.regime_parameter
    return 1.0 / abs(math.log(epsilon))


def _lambda_effective(epsilon: float, delta: float) -> float:
    return min(max(0.0, -math.log(delta)) / abs(math.log(epsilon)), 1.0)


def _perturbed_start(v: VectorField2D, rng: np.random.Generator) -> VectorField2D:
    """v plus Gaussian noise of standard deviation 1e-3 from `rng`, zero on
    the boundary nodes (which the descent holds fixed)."""
    noise = 1e-3 * rng.standard_normal(v.values.shape)
    noise[0, :] = noise[-1, :] = 0.0
    noise[:, 0] = noise[:, -1] = 0.0
    return VectorField2D(v.grid, v.values + noise)


def _measure_one(
    config: ExperimentConfig,
    tensor: HomogenizedTensor,
    epsilon: float,
    seed: Optional[int],
) -> tuple[ScalingRow, Optional[dict[str, Any]]]:
    """The row for one epsilon, and what its solve reported (inner CG
    iterations, refinement steps and final relative residual, or descent
    iterations and stop reason;
    None for `gl_recovery` and for rows that failed)."""
    delta = _delta_for(config, epsilon)
    lam = _lambda_effective(epsilon, delta)
    mu = config.measure()
    predicted = predicted_gamma_limit(config.coefficient, tensor, lam, mu)
    log_eps = abs(math.log(epsilon))
    relocate = config.regime in ("power_law", "log_slow")
    flag = ""
    solve = None
    try:
        used = relocated_measure(mu, config.coefficient, delta) if relocate else mu
        if config.channel == "core_radius":
            placeholder = CartesianGrid(config.domain.origin, config.domain.extent, (4, 4))
            params = GLParameters(epsilon, delta, config.coefficient, placeholder)
            energy, info = core_radius_energy(
                used, params, rtol=config.rtol,
                n=_proxy_cells(max(config.domain.extent), epsilon,
                               config.cells_per_epsilon))
            solve = {"iterations": info.iterations,
                     "outer_steps": info.outer_steps,
                     "relative_residual": info.relative_residual}
        else:
            grid = default_grid(config.domain, epsilon, config.cells_per_epsilon)
            params = GLParameters(epsilon, delta, config.coefficient, grid)
            v = recovery_field(used, params)
            if config.channel == "gl_minimize":
                if seed is not None:
                    v = _perturbed_start(v, np.random.default_rng(
                        [seed, int(round(-math.log2(epsilon)))]))
                report = minimize_gl(
                    v, params, MinimizeBudget(max_iterations=config.max_iterations)
                )
                energy = report.energy.total
                solve = {"iterations": report.iterations,
                         "stop_reason": report.stop_reason}
                if not report.converged:
                    flag = f"stop_reason={report.stop_reason}"
            else:
                energy = gl_energy(v, params).total
    except (SolverError, ValueError) as exc:
        return ScalingRow(
            epsilon, delta, lam, math.nan, math.nan, predicted, math.nan,
            flag=f"{type(exc).__name__}: {exc}",
        ), None
    per_log = energy / log_eps
    return ScalingRow(
        epsilon, delta, lam, energy, per_log, predicted,
        (per_log - predicted) / predicted, flag=flag,
    ), solve


def run_scaling_study(
    config: ExperimentConfig,
    seed: Optional[int] = None,
) -> StudyResult:
    """Measure every epsilon in the schedule and assemble the summary.

    Rows run in schedule order; the homogenized tensor is solved once up
    front and shared.  Parallelism lives inside the solvers only.  A failed
    row is flagged and the study continues.  The summary's `solves` lists,
    per epsilon, what the row's solve reported.
    """
    t_start = time.perf_counter()
    tensor = homogenized_tensor(config.coefficient, n=config.tensor_resolution)
    tensor_time = time.perf_counter() - t_start

    rows, timings, solves = [], {}, []
    for epsilon in config.epsilons:
        t0 = time.perf_counter()
        row, solve = _measure_one(config, tensor, epsilon, seed)
        timings[f"{epsilon:.10g}"] = time.perf_counter() - t0
        rows.append(row)
        if solve is not None:
            solves.append({"epsilon": epsilon, **solve})

    clean = [r for r in rows if not r.flag]
    slope = None
    if len(clean) >= 2:
        x = np.array([1.0 / abs(math.log(r.epsilon)) for r in clean])
        y = np.array([r.energy_per_log - r.predicted for r in clean])
        slope = float(np.polyfit(x, y, 1)[0])

    summary: dict[str, Any] = {
        "config": config.echo(),
        "tensor": tensor.to_json_dict(),
        "trend_slope": slope,
        "rows_total": len(rows),
        "rows_flagged": sum(1 for r in rows if r.flag),
        "solves": solves,
        "seed": seed,
        "versions": {
            "vortexlab": __version__,
            "numpy": np.__version__,
            "scipy": __import__("scipy").__version__,
        },
        "timings_seconds": {
            "tensor": tensor_time,
            "rows": timings,
            "total": time.perf_counter() - t_start,
        },
    }
    return StudyResult(rows, summary)


# -- reporting -----------------------------------------------------------------


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else format(value, ".12g")


def emit_report(rows: list[ScalingRow], summary: dict, out_dir: str) -> tuple[str, str]:
    """Write scaling.csv and summary.json under out_dir; return their paths.

    The CSV is byte-deterministic for identical configs and solver seeds:
    fixed column order, fixed float formatting, no timestamps (wall-clock
    timings live in the JSON sidecar only).
    """
    if not rows:
        raise ValueError("no rows to report")
    import os

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "scaling.csv")
    json_path = os.path.join(out_dir, "summary.json")
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        lines.append(
            ",".join(
                (
                    _fmt(row.epsilon),
                    _fmt(row.delta),
                    _fmt(row.lambda_effective),
                    _fmt(row.energy),
                    _fmt(row.energy_per_log),
                    _fmt(row.predicted),
                    "" if row.flag else _fmt(row.rel_gap),
                    row.flag.replace(",", ";"),
                )
            )
        )
    with open(csv_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    with open(json_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return csv_path, json_path
