"""The three workloads: inputs, one measured pass, and the checks on its outputs.

Every call into the program goes through a module attribute
(`vl.gl_solver.minimize_gl`, not a name bound at import), so the traced
run's wrappers see the benchmark's own calls as well as the package's
internal ones.

Each pass attempts the same operations every time.  `Ops` counts them;
the one operation allowed to fail is the `detect_vortices` call on a raw
quench field built from a fixed generator seed (see `PROBE_SEED`).

The checks compare against closed forms, enumerations written here, the
grid LP in `tests/lp_oracle.py`, or properties the method must have;
nothing is compared with a stored copy of the program's output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

WORKLOADS = ("scaling", "cell-psi", "descent")

TWO_PI = 2.0 * math.pi
ALPHA, BETA = 1.0, 4.0
DYKHNE = math.sqrt(ALPHA * BETA)  # exact checkerboard tensor, sqrt(alpha*beta) = 2

# scaling: the paper's headline study, through the CLI with default options
SCALING_CONFIG = {
    "coefficient": {"kind": "checkerboard", "alpha": ALPHA, "beta": BETA},
    "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
    "regime": {"kind": "delta_proportional"},
    "epsilons": {"k_min": 5, "k_max": 9},
    "channel": "core_radius",
}

# cell-psi
CELL_NS = [64, 128, 256]
PSI_RATIOS = [10.0, 31.6, 100.0]
PSI_CHARGES = (1, 2, 3)
OSC_DELTAS = (0.1, 0.05)
OSC_RATIO = 100.0

# descent
EPS_A = 2.0**-5          # part (a): 128^2, descend to the default stall rule
EPS_B = 2.0**-6          # part (b): 256^2 quench
CHECKPOINTS = 4
CHECKPOINT_ITERATIONS = 50
BALL_T_FINAL = 10.0
BALL_SAMPLES = 11
# The raw-quench detection fault shows on every random start tried; it is
# exercised on one fixed start so that the failed share of operations is the
# same for every --seed.  This start puts a cluster centroid at
# (0.154, 1.021), outside the unit square.
PROBE_SEED = 1
# Band for the flat distance against the grid LP of tests/lp_oracle.py.
# The LP's Lipschitz cone uses 16 directions at most 26.6 degrees apart, so
# it admits test functions up to 1/cos(13.3 deg) - 1 = 2.8% steeper than
# 1-Lipschitz: 3% relative.  It also spreads each atom bilinearly over a
# grid cell of side h = 1/64; those errors largely cancel between the two
# measures (their worst case, h per unit mass, exceeds the distance itself
# at a hundred units), so the band allows 2h = 1/32 absolute for them.
LP_M = 64
LP_REL_BAND = 0.03
LP_ABS_BAND = 2.0 / LP_M


class Ops:
    """Operations attempted and failed in one pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, fn: Callable, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except BaseException:
            self.failed += 1
            raise

    def expect_failure(self, fn: Callable, *args, **kwargs):
        """Run the one known-faulty call; returns its result, or None when it
        raised the known ValueError."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except ValueError:
            self.failed += 1
            return None


@dataclass
class Outcome:
    ops: Ops
    values: dict[str, Any] = field(default_factory=dict)


# -- inputs ---------------------------------------------------------------------


def _quench_phases(seed: int, n_nodes: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, TWO_PI, (n_nodes, n_nodes))


def prepare(workload: str, seed: int, workdir: Path, vl) -> dict[str, Any]:
    """Generate the workload's inputs from the seed.

    Only the descent quench depends on the seed: the scaling and cell-psi
    inputs are the paper's fixed studies, whose cost and checks would
    otherwise move with the seed.
    """
    if workload == "scaling":
        wd = workdir / "scaling"
        wd.mkdir(parents=True, exist_ok=True)
        config = wd / "config.json"
        config.write_text(json.dumps(SCALING_CONFIG, indent=2) + "\n")
        return {"config": str(config), "out": str(wd / "out")}
    cb = vl.coefficients.checkerboard(ALPHA, BETA)
    if workload == "cell-psi":
        return {"checkerboard": cb, "laminate": vl.coefficients.laminate(ALPHA, BETA)}
    if workload == "descent":
        n_nodes = round(4.0 / EPS_B) + 1
        return {
            "checkerboard": cb,
            "phases": _quench_phases(seed, n_nodes),
            "probe_phases": _quench_phases(PROBE_SEED, n_nodes),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- passes ---------------------------------------------------------------------


def run_pass(workload: str, inputs: dict[str, Any], vl) -> Outcome:
    return {"scaling": _scaling_pass, "cell-psi": _cell_psi_pass,
            "descent": _descent_pass}[workload](inputs, vl)


def _scaling_pass(inputs, vl) -> Outcome:
    ops = Ops()
    with contextlib.redirect_stdout(io.StringIO()):
        code = ops(vl.cli.main, ["scaling", "--config", inputs["config"],
                                 "--out", inputs["out"]])
    return Outcome(ops, {"exit_code": code, "out": inputs["out"]})


def _cell_psi_pass(inputs, vl) -> Outcome:
    ops = Ops()
    cp, sc = vl.cell_problem, vl.singularity_cost
    cb = inputs["checkerboard"]
    checker = ops(cp.refine_tensor, cb, CELL_NS)
    laminate = ops(cp.refine_tensor, inputs["laminate"], CELL_NS)
    psi = {z: ops(sc.psi_of_z, z, PSI_RATIOS, tensor=checker.tensor)
           for z in PSI_CHARGES}
    table = {z: est.value for z, est in psi.items()}
    splits = {z: ops(sc.capital_psi, table, z) for z in PSI_CHARGES}
    oscillating = {}
    for delta in OSC_DELTAS:
        grid = ops(sc.oscillating_annulus_grid, 1.0, OSC_RATIO, delta)
        problem = sc.AnnulusProblem(grid, 1, coefficient=cb, delta=delta)
        oscillating[delta], _ = ops(sc.min_annulus_energy, problem)
    return Outcome(ops, {"checker": checker, "laminate": laminate, "psi": table,
                         "splits": splits, "oscillating": oscillating})


def _quench_field(vl, boundary, phases):
    """Unit field with the boundary of `boundary` and random interior phases."""
    w = np.stack([np.cos(phases), np.sin(phases)], axis=-1)
    for edge in (np.s_[0, :], np.s_[-1, :], np.s_[:, 0], np.s_[:, -1]):
        w[edge] = boundary.values[edge]
    return vl.fields.VectorField2D(boundary.grid, w)


def initial_balls(vl, mu):
    """Pairwise-disjoint balls at the atoms: radius 0.45 x nearest-neighbour
    distance, capped at the distance to the boundary."""
    pos = [p for p, _ in mu.atoms]
    balls = []
    for i, (p, z) in enumerate(mu.atoms):
        nearest = min((math.dist(p, q) for j, q in enumerate(pos) if j != i),
                      default=math.inf)
        r = min(0.45 * nearest, 0.5 * mu.domain.boundary_distance(p))
        balls.append(vl.ball_construction.WeightedBall(p, r, z))
    return balls


def _descent_pass(inputs, vl) -> Outcome:
    ops = Ops()
    gl, va, bc = vl.gl_solver, vl.vortex_analysis, vl.ball_construction
    cb = inputs["checkerboard"]
    unit = va.Rectangle((0.0, 0.0), (1.0, 1.0))
    mu = va.VortexMeasure((((0.5, 0.5), 1),), unit)

    params_a = gl.GLParameters(EPS_A, EPS_A, cb, gl.default_grid(unit, EPS_A))
    start_a = ops(gl.recovery_field, mu, params_a)
    report_a = ops(gl.minimize_gl, start_a, params_a)

    params_b = gl.GLParameters(EPS_B, EPS_B, cb, gl.default_grid(unit, EPS_B))
    boundary = ops(gl.recovery_field, mu, params_b)
    probe = ops.expect_failure(
        va.detect_vortices, _quench_field(vl, boundary, inputs["probe_phases"]))

    budget = gl.MinimizeBudget(max_iterations=CHECKPOINT_ITERATIONS, stall_rtol=0.0)
    current = _quench_field(vl, boundary, inputs["phases"])
    checkpoints = []
    previous = None
    for _ in range(CHECKPOINTS):
        report = ops(gl.minimize_gl, current, params_b, budget)
        detected = ops(va.detect_vortices, report.field)
        winding = ops(va.boundary_degree, report.field)
        flat = (ops(va.flat_distance, previous, detected)
                if previous is not None else None)
        timeline = ops(bc.evolve, initial_balls(vl, detected), BALL_T_FINAL)
        bound = ops(bc.lower_bound, timeline, cb.alpha, 0.0, BALL_T_FINAL, unit)
        checkpoints.append({"report": report, "detected": detected,
                            "winding": winding.value, "previous": previous,
                            "flat": flat, "timeline": timeline, "bound": bound})
        current = report.field
        previous = detected
    return Outcome(ops, {"report_a": report_a, "probe": probe,
                         "checkpoints": checkpoints})


# -- checks ---------------------------------------------------------------------


def check(workload: str, outcome: Outcome, oracle) -> list[str]:
    """Failed checks of one pass, as messages (empty when all hold)."""
    return {"scaling": _check_scaling, "cell-psi": _check_cell_psi,
            "descent": _check_descent}[workload](outcome.values, oracle)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _check_scaling(v, oracle) -> list[str]:
    bad = []
    if v["exit_code"] != 0:
        return [f"scaling CLI exited with {v['exit_code']}"]
    out = Path(v["out"])
    summary = v["summary"] = json.loads((out / "summary.json").read_text())
    with open(out / "scaling.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    t = summary["tensor"]
    if not (_rel(t["a11"], DYKHNE) <= 0.03 and _rel(t["a22"], DYKHNE) <= 0.03
            and abs(t["a12"]) <= 0.02):
        bad.append(f"tensor {t['a11']}, {t['a12']}, {t['a22']} not within 3% of "
                   f"Dykhne's {DYKHNE} with |a12| <= 0.02")
    if len(rows) != 5 or summary["rows_flagged"] != 0 or any(r["flag"] for r in rows):
        bad.append(f"expected five unflagged rows, got {[r['flag'] for r in rows]}")
        return bad
    lo, hi = TWO_PI * ALPHA * 0.95, TWO_PI * BETA * 1.05
    limit = TWO_PI * math.sqrt(t["a11"] * t["a22"] - t["a12"] ** 2)
    gaps = []
    for r in sorted(rows, key=lambda r: -float(r["epsilon"])):
        per_log = float(r["energy_per_log"])
        if not lo <= per_log <= hi:
            bad.append(f"eps={r['epsilon']}: energy/|log eps| {per_log} outside [{lo}, {hi}]")
        gaps.append(abs(per_log / limit - 1.0))
    if any(b > a for a, b in zip(gaps, gaps[1:])):
        bad.append(f"gap to 2 pi sqrt(det A_hom) grows with k: {gaps}")
    return bad


def brute_force_capital_psi(table: dict[int, float], z: int, budget: int):
    """Minimum of sum psi(|z_j|) over multisets of charges with |z_j| in the
    table, sum z_j = z and sum |z_j| <= budget, by plain enumeration."""
    charges = sorted({s * k for k in table for s in (1, -1)})
    best = (math.inf, ())
    for size in range(1, budget + 1):
        for combo in itertools.combinations_with_replacement(charges, size):
            if sum(combo) != z or sum(abs(c) for c in combo) > budget:
                continue
            cost = sum(table[abs(c)] for c in combo)
            if cost < best[0]:
                best = (cost, tuple(sorted(combo, reverse=True)))
    return best


def _check_cell_psi(v, oracle) -> list[str]:
    bad = []
    t = v["checker"].tensor
    if not (_rel(t.a11, DYKHNE) <= 0.01 and _rel(t.a22, DYKHNE) <= 0.01):
        bad.append(f"extrapolated checkerboard diagonal {t.a11}, {t.a22} not within 1% of 2")
    lam = v["laminate"].tensor
    arith, harm = 0.5 * (ALPHA + BETA), 2.0 / (1.0 / ALPHA + 1.0 / BETA)
    if not (_rel(lam.eig_max, arith) <= 0.005 and _rel(lam.eig_min, harm) <= 0.005):
        bad.append(f"laminate eigenvalues {lam.eig_min}, {lam.eig_max} not within "
                   f"0.5% of {harm} and {arith}")
    for z, value in v["psi"].items():
        exact = 2.0 * TWO_PI * z * z  # 2 pi sqrt(det) z^2 with det = 4
        if _rel(value, exact) > 0.02:
            bad.append(f"psi({z}) = {value} not within 2% of {exact}")
    for z, (value, split) in v["splits"].items():
        ref_value, ref_split = brute_force_capital_psi(v["psi"], z, 4 * z)
        if split != ref_split or abs(value - ref_value) > 1e-12 * ref_value:
            bad.append(f"capital_psi({z}) = {value} {split}, enumeration gives "
                       f"{ref_value} {ref_split}")
    gaps = {d: abs(e / math.log(OSC_RATIO) / (2.0 * TWO_PI) - 1.0)
            for d, e in v["oscillating"].items()}
    if not (max(gaps.values()) <= 0.10 and gaps[0.05] < gaps[0.1]):
        bad.append(f"oscillating per-log gaps to 4 pi {gaps}: need <= 10% and shrinking")
    return bad


def _non_increasing(trace) -> bool:
    return all(b <= a for a, b in zip(trace, trace[1:]))


def _check_descent(v, oracle) -> list[str]:
    bad = []
    ra = v["report_a"]
    if not _non_increasing(ra.trace) or not ra.converged:
        bad.append("descent (a): trace increases or the stall rule was not reached")
    atoms = ra.vortices.atoms
    if not (len(atoms) == 1 and atoms[0][1] == 1
            and max(abs(c - 0.5) for c in atoms[0][0]) <= EPS_A):
        bad.append(f"descent (a): expected one charge-1 atom within one cell "
                   f"({EPS_A}) of the centre, got {atoms}")
    # Once the raw-quench detection is mended, its charge must match the
    # boundary, which carries degree 1.
    if v["probe"] is not None and v["probe"].total_charge != 1:
        bad.append(f"raw quench: detected charge {v['probe'].total_charge}, expected 1")
    ended = None
    for k, c in enumerate(v["checkpoints"]):
        trace = c["report"].trace
        if not _non_increasing(trace):
            bad.append(f"checkpoint {k}: energy trace increases")
        if ended is not None and abs(trace[0] - ended) > 1e-12 * abs(ended):
            bad.append(f"checkpoint {k} starts at {trace[0]}, previous ended at {ended}")
        ended = trace[-1]
        mu = c["detected"]
        if not (mu.total_charge == c["winding"] == 1):
            bad.append(f"checkpoint {k}: detected charge {mu.total_charge}, "
                       f"boundary degree {c['winding']}, expected 1")
        bad += _check_balls(k, c, mu)
        if c["flat"] is not None:
            bad += _check_flat(k, c["previous"], mu, c["flat"].value, oracle)
    return bad


def _check_balls(k, c, mu) -> list[str]:
    bad = []
    tl = c["timeline"]
    total = mu.total_charge
    for t in np.linspace(0.0, BALL_T_FINAL, BALL_SAMPLES):
        family = tl.family_at(float(t))
        if sum(b.weight for b in family) != total:
            bad.append(f"checkpoint {k}: ball weights not conserved at t={t}")
        for b1, b2 in itertools.combinations(family, 2):
            gap = math.dist(b1.center, b2.center) - b1.radius - b2.radius
            if gap < -1e-9 * (b1.radius + b2.radius):
                bad.append(f"checkpoint {k}: balls overlap at t={t}")
                break
    ceiling = TWO_PI * ALPHA * mu.total_variation * math.log(1.0 + BALL_T_FINAL)
    if not 0.0 <= c["bound"] <= ceiling * (1 + 1e-12):
        bad.append(f"checkpoint {k}: lower bound {c['bound']} outside [0, {ceiling}]")
    return bad


def _check_flat(k, mu1, mu2, value, oracle) -> list[str]:
    reference = oracle(mu1, mu2)
    band = LP_REL_BAND * reference + LP_ABS_BAND
    if abs(value - reference) > band:
        return [f"checkpoint {k}: flat distance {value} vs grid LP {reference}, "
                f"band {band}"]
    return []


class LPOracle:
    """The grid LP of tests/lp_oracle.py, memoised on the pair of measures."""

    def __init__(self, lp_function) -> None:
        self._lp = lp_function
        self._memo: dict = {}

    def __call__(self, mu1, mu2) -> float:
        key = (mu1.atoms, mu2.atoms)
        if key not in self._memo:
            self._memo[key] = self._lp(mu1, mu2, m=LP_M)
        return self._memo[key]
