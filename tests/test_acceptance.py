"""Acceptance suite: twelve numbered end-to-end checks.

Each check prints one `CRITERION NN: PASS/FAIL - detail` line directly to
the terminal (bypassing capture) so a plain `pytest tests/test_acceptance.py`
run shows the full scoreboard; the same message backs the assertion.  Slow
artifacts (the checkerboard refinement, the smooth-coefficient tensor) are
computed once and shared across checks.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np

from vortexlab import coefficients
from vortexlab.ball_construction import WeightedBall, evolve, lower_bound
from vortexlab.cell_problem import (
    HomogenizedTensor,
    homogenized_tensor,
    refine_tensor,
)
from vortexlab.fields import CartesianGrid, PolarGrid, VectorField2D
from vortexlab.gl_solver import (
    GLParameters,
    MinimizeBudget,
    core_radius_energy,
    default_grid,
    gl_energy,
    minimize_gl,
    recovery_field,
    relocated_measure,
)
from vortexlab.singularity_cost import (
    AnnulusProblem,
    capital_psi,
    min_annulus_energy,
    oscillating_annulus_grid,
    psi_of_z,
)
from vortexlab.vortex_analysis import (
    Rectangle,
    VortexMeasure,
    boundary_degree,
    detect_vortices,
    flat_distance,
)

from lp_oracle import grid_lp_flat_norm

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))
IDENTITY = HomogenizedTensor(1.0, 0.0, 1.0, 0, 0.0)
TWO_PI = 2.0 * math.pi
FOUR_PI = 4.0 * math.pi
_DUMMY_GRID = CartesianGrid((0.0, 0.0), (1.0, 1.0), (4, 4))

_shared: dict = {}


def _checkerboard_refinement():
    if "cb_refinement" not in _shared:
        _shared["cb_refinement"] = refine_tensor(
            coefficients.checkerboard(1.0, 4.0), [64, 128, 256]
        )
    return _shared["cb_refinement"]


def _smooth_tensor():
    if "smooth_tensor" not in _shared:
        _shared["smooth_tensor"] = homogenized_tensor(
            coefficients.smooth_trigonometric(), n=256
        )
    return _shared["smooth_tensor"]


def _emit(pytestconfig, line: str) -> None:
    cap = pytestconfig.pluginmanager.getplugin("capturemanager")
    if cap is None:
        print(line, flush=True)
        return
    with cap.global_and_fixture_disabled():
        print(line, flush=True)


@contextmanager
def _criterion(pytestconfig, num: int):
    """Scored block: always prints one CRITERION line, then asserts it."""
    out = {"ok": False, "detail": "no detail recorded"}
    start = time.perf_counter()
    try:
        yield out
    except BaseException as exc:
        _emit(
            pytestconfig,
            f"CRITERION {num:02d}: FAIL - {type(exc).__name__}: {exc}",
        )
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if out["ok"] else "FAIL"
    line = f"CRITERION {num:02d}: {verdict} - {out['detail']} [{elapsed:.1f}s]"
    _emit(pytestconfig, line)
    assert out["ok"], line


# -- homogenization -------------------------------------------------------------


def test_criterion_01_checkerboard_tensor(pytestconfig):
    with _criterion(pytestconfig, 1) as out:
        t0 = time.perf_counter()
        ref = _checkerboard_refinement()
        elapsed = time.perf_counter() - t0
        raw = ref.table[-1]
        ext = ref.tensor
        raw_ok = (
            abs(raw.a11 / 2.0 - 1.0) <= 0.03
            and abs(raw.a22 / 2.0 - 1.0) <= 0.03
            and abs(raw.a12) <= 0.02
        )
        ext_ok = (
            abs(ext.a11 / 2.0 - 1.0) <= 0.01 and abs(ext.a22 / 2.0 - 1.0) <= 0.01
        )
        out["ok"] = raw_ok and ext_ok and elapsed <= 60.0
        # a12 is a difference of energies near 2: below 1e-12 it is the
        # rounding of their sums, which any summation order moves
        a12 = (f"|a12|={abs(raw.a12):.1e} <= 0.02" if abs(raw.a12) > 1e-12
               else "|a12|<=1e-12")
        out["detail"] = (
            f"n=256 diag ({raw.a11:.6f}, {raw.a22:.6f}) vs 2 (3% band), "
            f"{a12}, extrapolated a11={ext.a11:.7f} "
            f"(1% band), {elapsed:.1f}s <= 60s"
        )


def test_criterion_02_laminate_tensor(pytestconfig):
    with _criterion(pytestconfig, 2) as out:
        t0 = time.perf_counter()
        tensor = homogenized_tensor(coefficients.laminate(1.0, 4.0), n=128)
        elapsed = time.perf_counter() - t0
        eigs = np.linalg.eigvalsh(
            np.array([[tensor.a11, tensor.a12], [tensor.a12, tensor.a22]])
        )
        lo, hi = float(eigs[0]), float(eigs[1])
        out["ok"] = (
            abs(hi / 2.5 - 1.0) <= 0.005
            and abs(lo / 1.6 - 1.0) <= 0.005
            and elapsed <= 20.0
        )
        out["detail"] = (
            f"eigenvalues ({lo:.6f}, {hi:.6f}) vs (1.6, 2.5) within 0.5%, "
            f"{elapsed:.1f}s <= 20s"
        )


def test_criterion_03_constant_coefficient_exact(pytestconfig):
    with _criterion(pytestconfig, 3) as out:
        tensor = homogenized_tensor(coefficients.constant(3.0), n=64)
        deviation = max(
            abs(tensor.a11 - 3.0), abs(tensor.a22 - 3.0), abs(tensor.a12)
        )
        out["ok"] = deviation <= 1e-9 and tensor.residual <= 1e-9
        out["detail"] = (
            f"a=3 gives max entry deviation {deviation:.1e} and residual "
            f"{tensor.residual:.1e}, both <= 1e-9"
        )


# -- singularity cost -----------------------------------------------------------


def test_criterion_04_isotropic_annulus_cost(pytestconfig):
    with _criterion(pytestconfig, 4) as out:
        grid = PolarGrid((0.0, 0.0), 1.0, 100.0, 128, 256)
        t0 = time.perf_counter()
        per_log = {}
        for z in (1, 2):
            energy, _ = min_annulus_energy(AnnulusProblem(grid, z, tensor=IDENTITY))
            per_log[z] = energy / math.log(100.0)
        elapsed = time.perf_counter() - t0
        rel1 = abs(per_log[1] / TWO_PI - 1.0)
        rel2 = abs(per_log[2] / (4.0 * TWO_PI) - 1.0)
        out["ok"] = rel1 <= 0.01 and rel2 <= 0.01 and elapsed <= 30.0
        out["detail"] = (
            f"identity tensor: psi(1) off 2pi by {rel1:.2e}, psi(2) off 8pi by "
            f"{rel2:.2e} (1% band), {elapsed:.1f}s <= 30s"
        )


def _brute_force_split_cost(table: dict[int, float], z: int) -> float:
    """Exhaustive minimum of sum psi(|z_j|) over signed multisets with
    sum z_j = z and sum |z_j| <= 4|z|; independent of the pruned search."""
    budget = 4 * abs(z)
    kmax = max(table)
    magnitudes = range(1, kmax + 1)
    best = math.inf
    for counts in itertools.product(
        *[range(budget // k + 1) for k in magnitudes]
    ):
        total_abs = sum(k * c for k, c in zip(magnitudes, counts))
        if total_abs == 0 or total_abs > budget:
            continue
        cost = sum(table[k] * c for k, c in zip(magnitudes, counts))
        if cost >= best:
            continue
        for positives in itertools.product(*[range(c + 1) for c in counts]):
            signed = sum(
                k * (2 * p - c)
                for k, p, c in zip(magnitudes, positives, counts)
            )
            if signed == z:
                best = cost
                break
    return best


def test_criterion_05_unit_splitting_and_bruteforce_agree(pytestconfig):
    with _criterion(pytestconfig, 5) as out:
        tensor = _checkerboard_refinement().tensor
        ratios = [10.0, 31.6227766, 100.0]
        table = {
            z: psi_of_z(z, ratios, tensor=tensor).value for z in (1, 2, 3)
        }
        psi1 = table[1]
        band = abs(psi1 / FOUR_PI - 1.0)
        units_ok = True
        brute_ok = True
        for z in (1, 2, 3):
            value, split = capital_psi(table, z)
            units_ok = units_ok and (
                math.isclose(value, z * psi1, rel_tol=1e-9)
                and split == (1,) * z
            )
            brute = _brute_force_split_cost(table, z)
            brute_ok = brute_ok and math.isclose(value, brute, rel_tol=1e-12)
        out["ok"] = band <= 0.02 and units_ok and brute_ok
        out["detail"] = (
            f"psi(1)={psi1:.6f} off 4pi by {band:.2%} (2% band), unit "
            f"splitting optimal for z=1..3 (Psi(z)=z*psi(1)), brute-force "
            f"oracle (budget 4|z|) matches exactly: {brute_ok}"
        )


def test_criterion_06_fat_annulus_oscillating(pytestconfig):
    with _criterion(pytestconfig, 6) as out:
        cb = coefficients.checkerboard(1.0, 4.0)
        t0 = time.perf_counter()
        gaps = {}
        for delta in (0.1, 0.05):
            grid = oscillating_annulus_grid(1.0, 100.0, delta)
            problem = AnnulusProblem(grid, 1, coefficient=cb, delta=delta)
            energy, _ = min_annulus_energy(problem)
            gaps[delta] = abs(energy / math.log(100.0) / FOUR_PI - 1.0)
        elapsed = time.perf_counter() - t0
        out["ok"] = (
            gaps[0.1] <= 0.10
            and gaps[0.05] <= 0.10
            and gaps[0.05] < gaps[0.1]
            and elapsed <= 300.0
        )
        out["detail"] = (
            f"per-log energy off 4pi by {gaps[0.1]:.2%} (delta=r/10) and "
            f"{gaps[0.05]:.2%} (delta=r/20), 10% band, gap shrinks, "
            f"{elapsed:.1f}s <= 300s"
        )


# -- scaling behavior -----------------------------------------------------------


def test_criterion_07_core_proxy_corridor(pytestconfig):
    with _criterion(pytestconfig, 7) as out:
        cb = coefficients.checkerboard(1.0, 4.0)
        predicted = TWO_PI * math.sqrt(_checkerboard_refinement().tensor.det)
        mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
        lo, hi = TWO_PI * 0.95, 4.0 * TWO_PI * 1.05
        rows = []
        for k in range(5, 10):
            eps = 2.0 ** -k
            params = GLParameters(eps, eps, cb, _DUMMY_GRID)
            energy, _ = core_radius_energy(mu, params)
            per_log = energy / abs(math.log(eps))
            rows.append((k, per_log, abs(per_log - predicted) / predicted))
        corridor_ok = all(lo <= per <= hi for _, per, _ in rows)
        gaps = [gap for _, _, gap in rows]
        trend_ok = all(
            later <= earlier * (1.0 + 1e-9)
            for earlier, later in zip(gaps, gaps[1:])
        )
        out["ok"] = corridor_ok and trend_ok
        out["detail"] = (
            f"energy/|log eps| in [2pi*0.95, 8pi*1.05] for k=5..9 "
            f"({rows[0][1]:.3f}..{rows[-1][1]:.3f}), relative gaps to "
            f"2pi*sqrt(det) non-increasing: "
            + " ".join(f"{g:.4f}" for g in gaps)
        )


def test_criterion_08_interpolation_ordering(pytestconfig):
    with _criterion(pytestconfig, 8) as out:
        smooth = coefficients.smooth_trigonometric()
        sqrt_det = math.sqrt(_smooth_tensor().det)
        eps = 2.0 ** -9
        log_eps = abs(math.log(eps))
        base = VortexMeasure((((0.5, 0.5), 1),), UNIT)
        rows = []
        for lam in (0.25, 0.5, 0.75):
            delta = eps ** lam
            params = GLParameters(eps, delta, smooth, _DUMMY_GRID)
            mu = relocated_measure(base, smooth, delta)
            energy, _ = core_radius_energy(mu, params, n=2048)
            per_log = energy / log_eps
            predicted = TWO_PI * ((1.0 - lam) + lam * sqrt_det)
            rows.append((lam, per_log, predicted))
        increasing = all(
            a[1] < b[1] for a, b in zip(rows, rows[1:])
        )
        band_ok = all(
            abs(per / pred - 1.0) <= 0.20 for _, per, pred in rows
        )
        out["ok"] = increasing and band_ok
        out["detail"] = (
            "energy/|log eps| strictly increasing in lambda: "
            + " ".join(f"{per:.4f}" for _, per, _ in rows)
            + "; each within 20% of 2pi((1-l)+l*sqrt(det)): "
            + " ".join(f"{per / pred - 1.0:+.2%}" for _, per, pred in rows)
        )


# -- ball construction ----------------------------------------------------------


def _random_ball_family(rng) -> list[WeightedBall]:
    while True:
        k = int(rng.integers(1, 7))
        balls = []
        for _ in range(k):
            center = tuple(rng.uniform(0.1, 0.9, 2))
            radius = float(rng.uniform(0.005, 0.04))
            weight = int(rng.choice([-2, -1, 1, 2]))
            balls.append(WeightedBall(center, radius, weight))
        if all(
            math.dist(a.center, b.center) > a.radius + b.radius + 1e-3
            for a, b in itertools.combinations(balls, 2)
        ):
            return balls


def _annular_field_energy(
    inner: list[WeightedBall], outer: list[WeightedBall], n: int = 1024
) -> float:
    """Dirichlet energy (a=1) of the product-of-angles field between the
    initial family and the grown family, by midpoint quadrature."""
    xs = (np.arange(n) + 0.5) / n
    x, y = np.meshgrid(xs, xs, indexing="ij")
    g1 = np.zeros_like(x)
    g2 = np.zeros_like(x)
    inside_outer = np.zeros_like(x, dtype=bool)
    inside_inner = np.zeros_like(x, dtype=bool)
    for b in outer:
        inside_outer |= (x - b.center[0]) ** 2 + (y - b.center[1]) ** 2 < b.radius**2
    for b in inner:
        dx = x - b.center[0]
        dy = y - b.center[1]
        r2 = dx * dx + dy * dy
        inside_inner |= r2 < b.radius**2
        g1 += b.weight * (-dy) / r2
        g2 += b.weight * dx / r2
    region = inside_outer & ~inside_inner
    return float(np.sum((g1**2 + g2**2)[region]) / (n * n))


def test_criterion_09_ball_invariants_and_lower_bound(pytestconfig):
    with _criterion(pytestconfig, 9) as out:
        t0 = time.perf_counter()
        rng = np.random.default_rng(424242)
        disjoint_ok = growth_ok = weight_ok = True
        for _ in range(50):
            balls = _random_ball_family(rng)
            timeline = evolve(balls, 4.0)
            weight0 = sum(b.weight for b in balls)
            rad0 = sum(b.radius for b in balls)
            first_event = (
                timeline.events[0].time if timeline.events else math.inf
            )
            for t in np.linspace(0.0, 4.0, 200):
                family = timeline.family_at(float(t))
                disjoint_ok = disjoint_ok and all(
                    math.dist(a.center, b.center)
                    >= a.radius + b.radius - 1e-7
                    for a, b in itertools.combinations(family, 2)
                )
                rad = sum(b.radius for b in family)
                bound = (1.0 + t) * rad0
                growth_ok = growth_ok and rad <= bound * (1.0 + 1e-9)
                if t < first_event:
                    growth_ok = growth_ok and abs(rad - bound) <= 1e-9 * bound
                weight_ok = weight_ok and (
                    sum(b.weight for b in family) == weight0
                )

        # canonical-field configurations: certified bound vs measured energy
        rng = np.random.default_rng(515151)
        margins = []
        trials = 0
        while len(margins) < 10 and trials < 200:
            trials += 1
            k = int(rng.integers(1, 5))
            balls = []
            separated = True
            for _ in range(k):
                center = tuple(rng.uniform(0.25, 0.75, 2))
                radius = float(rng.uniform(0.01, 0.04))
                weight = int(rng.choice([-2, -1, 1, 2]))
                candidate = WeightedBall(center, radius, weight)
                for b in balls:
                    if (
                        math.dist(b.center, candidate.center)
                        <= b.radius + candidate.radius + 0.02
                    ):
                        separated = False
                balls.append(candidate)
            if not separated:
                continue
            if k == 1 and abs(balls[0].weight) < 2:
                continue
            timeline = evolve(balls, 3.0)
            t2 = timeline.events[0].time * 0.95 if timeline.events else 3.0
            if 1.0 + t2 < 1.3:
                continue
            grown = timeline.family_at(t2)
            if any(
                b.center[0] - b.radius < 0.02
                or b.center[0] + b.radius > 0.98
                or b.center[1] - b.radius < 0.02
                or b.center[1] + b.radius > 0.98
                for b in grown
            ):
                continue
            certified = lower_bound(timeline, 1.0, 0.0, t2, UNIT)
            measured = _annular_field_energy(balls, grown)
            margins.append((measured - certified) / certified)
        elapsed = time.perf_counter() - t0
        bound_ok = len(margins) == 10 and all(m >= 0.0 for m in margins)
        out["ok"] = (
            disjoint_ok and growth_ok and weight_ok and bound_ok
            and elapsed <= 30.0
        )
        out["detail"] = (
            f"50 families x 200 times: disjoint={disjoint_ok}, radius growth "
            f"law={growth_ok}, weights conserved={weight_ok}; lower bound "
            f"below measured energy on {len(margins)}/10 canonical configs "
            f"(worst margin {min(margins):+.2%}), {elapsed:.1f}s <= 30s"
        )


# -- vortex measures ------------------------------------------------------------


def _random_lp_measure(rng) -> VortexMeasure:
    k = int(rng.integers(1, 4))
    atoms = []
    for _ in range(k):
        p = tuple(rng.uniform(0.08, 0.92, 2).round(4))
        z = int(rng.choice([-2, -1, 1, 2]))
        atoms.append(((float(p[0]), float(p[1])), z))
    return VortexMeasure(tuple(atoms), UNIT)


def test_criterion_10_flat_distance_oracle(pytestconfig):
    with _criterion(pytestconfig, 10) as out:
        rng = np.random.default_rng(20240817)
        worst_rel = 0.0
        for _ in range(25):
            mu1 = _random_lp_measure(rng)
            mu2 = _random_lp_measure(rng)
            matched = flat_distance(mu1, mu2).value
            oracle = grid_lp_flat_norm(mu1, mu2, m=64)
            worst_rel = max(
                worst_rel, abs(matched - oracle) / max(matched, 1e-12)
            )

        dipole = flat_distance(
            VortexMeasure((((0.3, 0.4), 1),), UNIT),
            VortexMeasure((((0.45, 0.4), 1),), UNIT),
        ).value
        discharge = flat_distance(
            VortexMeasure((((0.5, 0.2), 1),), UNIT),
            VortexMeasure((), UNIT),
        ).value
        closed_ok = abs(dipole - 0.15) <= 1e-9 and abs(discharge - 0.2) <= 1e-9

        rng = np.random.default_rng(777)
        triangle_ok = True
        for _ in range(100):
            a, b, c = (_random_lp_measure(rng) for _ in range(3))
            d_ab = flat_distance(a, b).value
            d_bc = flat_distance(b, c).value
            d_ac = flat_distance(a, c).value
            triangle_ok = triangle_ok and d_ac <= d_ab + d_bc + 1e-12
        out["ok"] = worst_rel <= 0.05 and closed_ok and triangle_ok
        out["detail"] = (
            f"25 pairs vs 64x64 grid-LP oracle: worst rel {worst_rel:.2%} "
            f"(5% band); transport 0.15 and discharge 0.2 exact to 1e-9: "
            f"{closed_ok}; triangle inequality on 100 triples: {triangle_ok}"
        )


def _random_separated_measure(rng) -> VortexMeasure:
    count = int(rng.integers(1, 4))
    positions: list[tuple[float, float]] = []
    while len(positions) < count:
        p = tuple(rng.uniform(0.15, 0.85, 2))
        if all(math.dist(p, q) >= 0.22 for q in positions):
            positions.append(p)
    atoms = tuple(
        (p, int(rng.choice([-2, -1, 1, 2]))) for p in positions
    )
    return VortexMeasure(atoms, UNIT)


def _atoms_match(
    target: VortexMeasure, found: VortexMeasure, tol: float
) -> bool:
    if len(found.atoms) != len(target.atoms):
        return False
    remaining = list(found.atoms)
    for (x, y), z in target.atoms:
        offsets = [
            max(abs(px - x), abs(py - y)) for (px, py), _ in remaining
        ]
        i = int(np.argmin(offsets))
        (_, _), fz = remaining[i]
        if remaining[i][1] != z or offsets[i] > tol:
            return False
        remaining.pop(i)
    return True


def test_criterion_11_recovery_round_trip(pytestconfig):
    with _criterion(pytestconfig, 11) as out:
        eps = 2.0 ** -5
        grid = default_grid(UNIT, eps)
        params = GLParameters(eps, 1.0, coefficients.constant(1.0), grid)
        tol = grid.h * (1.0 + 1e-9)
        rng = np.random.default_rng(31415)
        atoms_ok = True
        degree_ok = True
        for _ in range(20):
            mu = _random_separated_measure(rng)
            v = recovery_field(mu, params)
            atoms_ok = atoms_ok and _atoms_match(mu, detect_vortices(v), tol)
            total = sum(z for _, z in mu.atoms)
            degree_ok = degree_ok and boundary_degree(v).value == total
        out["ok"] = atoms_ok and degree_ok
        out["detail"] = (
            f"20 random measures (|z|<=2): detected atoms match within one "
            f"cell (h={grid.h:.4f}) with exact charges: {atoms_ok}; boundary "
            f"degree equals total charge exactly: {degree_ok}"
        )


# -- minimizer contracts --------------------------------------------------------


def test_criterion_12_minimizer_contracts(pytestconfig):
    with _criterion(pytestconfig, 12) as out:
        eps = 2.0 ** -5
        cb = coefficients.checkerboard(1.0, 4.0)
        grid = default_grid(UNIT, eps)
        mu = VortexMeasure((((0.5, 0.5), 1),), UNIT)
        budget = MinimizeBudget(max_iterations=400)

        runs = []
        params_const = GLParameters(eps, 1.0, coefficients.constant(1.0), grid)
        runs.append(
            minimize_gl(recovery_field(mu, params_const), params_const, budget)
        )
        params_cb = GLParameters(eps, eps, cb, grid)
        runs.append(
            minimize_gl(recovery_field(mu, params_cb), params_cb, budget)
        )
        rng = np.random.default_rng(2024)
        noisy = recovery_field(mu, params_const).values.copy()
        noisy[1:-1, 1:-1, :] += 0.05 * rng.standard_normal(
            noisy[1:-1, 1:-1, :].shape
        )
        runs.append(
            minimize_gl(VectorField2D(grid, noisy), params_const, budget)
        )
        monotone_ok = all(
            all(later <= earlier for earlier, later in zip(r.trace, r.trace[1:]))
            and len(r.trace) >= 2
            for r in runs
        )

        potentials = []
        for k in range(4, 9):
            eps_k = 2.0 ** -k
            grid_k = default_grid(UNIT, eps_k)
            params_k = GLParameters(eps_k, eps_k, cb, grid_k)
            v = recovery_field(mu, params_k)
            potentials.append(gl_energy(v, params_k).potential_term)
        spread = (max(potentials) - min(potentials)) / min(potentials)
        bounded_ok = max(potentials) <= 4.0 and spread <= 0.05
        out["ok"] = monotone_ok and bounded_ok
        out["detail"] = (
            f"energy trace non-increasing on all {len(runs)} runs: "
            f"{monotone_ok}; recovery potential term for k=4..8 stays "
            f"{min(potentials):.5f}..{max(potentials):.5f} "
            f"(spread {spread:.2%}, eps-independent)"
        )
