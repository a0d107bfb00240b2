"""Degrees, Jacobians, vortex detection, and the flat distance."""

import math

import numpy as np
import pytest
from scipy import ndimage

from vortexlab.fields import CartesianGrid, VectorField2D
from vortexlab.vortex_analysis import (
    DegreeResult,
    Rectangle,
    VortexMeasure,
    boundary_degree,
    degree,
    detect_vortices,
    flat_distance,
    jacobian,
)

UNIT = Rectangle((0.0, 0.0), (1.0, 1.0))


def _phase_field(grid, atoms, modulus=None):
    xx, yy = grid.node_mesh()
    theta = np.zeros(grid.node_shape)
    for (ax, ay), z in atoms:
        theta += z * np.arctan2(yy - ay, xx - ax)
    m = np.ones(grid.node_shape) if modulus is None else modulus(xx, yy)
    return VectorField2D(grid, np.stack([m * np.cos(theta),
                                         m * np.sin(theta)], axis=-1))


# -- domains and measures ---------------------------------------------------------


def test_rectangle_contains_and_distances():
    r = Rectangle((0.0, 0.0), (2.0, 1.0))
    assert r.contains((1.0, 0.5))
    assert not r.contains((2.0, 0.5))  # boundary is not interior
    assert r.boundary_distance((0.3, 0.5)) == pytest.approx(0.3)
    assert r.diameter == pytest.approx(math.hypot(2.0, 1.0))


def test_measure_validation():
    with pytest.raises(ValueError):
        VortexMeasure((((0.5, 0.5), 0),), UNIT)  # zero charge
    with pytest.raises(ValueError):
        VortexMeasure((((1.5, 0.5), 1),), UNIT)  # outside
    mu = VortexMeasure((((0.25, 0.5), 2), ((0.75, 0.5), -1)), UNIT)
    assert mu.total_charge == 1
    assert mu.total_variation == 3


def test_measure_separation():
    mu = VortexMeasure((((0.4, 0.5), 1), ((0.6, 0.5), -1)), UNIT)
    assert mu.separation() == pytest.approx(0.1)  # half the pair distance
    assert mu.is_separated(0.049)   # needs separation >= 2 eps
    assert not mu.is_separated(0.051)
    single = VortexMeasure((((0.1, 0.5), 1),), UNIT)
    assert single.separation() == pytest.approx(0.1)  # boundary distance


def test_measure_csv_roundtrip(tmp_path):
    mu = VortexMeasure((((0.25, 0.125), 2), ((0.5, 0.75), -1)), UNIT)
    path = tmp_path / "mu.csv"
    mu.to_csv(str(path))
    back = VortexMeasure.from_csv(str(path), UNIT)
    assert back.atoms == mu.atoms


# -- degree ----------------------------------------------------------------------


def test_degree_of_single_vortex():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (64, 64))
    v = _phase_field(grid, (((0.5, 0.5), 1),))
    res = degree(v, (0.5, 0.5), 0.3)
    assert res.value == 1
    assert res.residual < 0.05
    assert degree(v, (0.1, 0.1), 0.05).value == 0


def test_degree_of_double_vortex():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (64, 64))
    v = _phase_field(grid, (((0.5, 0.5), -2),))
    assert degree(v, (0.5, 0.5), 0.25).value == -2


def test_degree_residual_thresholds():
    # the unclosed sweep leaves a residual near |z| / n_samples, so the
    # thresholds fire exactly when the samples-per-turn count gets low
    grid = CartesianGrid((-1.0, -1.0), (2.0, 2.0), (128, 128))
    v8 = _phase_field(grid, (((0.0, 0.0), 8),))
    with pytest.warns(UserWarning, match="under-resolved"):
        res = degree(v8, (0.0, 0.0), 0.7, n_samples=24)
    assert res.value == 8
    assert res.residual == pytest.approx(8.0 / 24.0, abs=0.02)
    # eleven turns over 24 samples: residual past 0.45, rejected
    v11 = _phase_field(grid, (((0.0, 0.0), 11),))
    with pytest.raises(ValueError, match="under-resolved"):
        degree(v11, (0.0, 0.0), 0.7, n_samples=24)
    # plenty of samples: silent and nearly exact
    res = degree(v8, (0.0, 0.0), 0.7)
    assert res.value == 8
    assert res.residual == pytest.approx(8.0 / 256.0, abs=0.03)


def test_degree_rejects_vanishing_modulus():
    grid = CartesianGrid((-1.0, -1.0), (2.0, 2.0), (128, 128))
    # modulus |x| vanishes at the node (0, 0), which the circle centred at
    # (0.25, 0) with radius 0.25 hits exactly at its leftmost sample
    v = _phase_field(grid, (((0.0, 0.0), 1),),
                     modulus=lambda x, y: np.hypot(x, y))
    with pytest.raises(ValueError, match="degree undefined"):
        degree(v, (0.25, 0.0), 0.25, n_samples=16)


def test_boundary_degree_sums_charges():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (96, 96))
    atoms = (((0.3, 0.4), 1), ((0.7, 0.6), -2), ((0.5, 0.2), 1))
    v = _phase_field(grid, atoms)
    res = boundary_degree(v)
    assert res.value == 0
    assert res.residual < 0.05
    v2 = _phase_field(grid, (((0.5, 0.5), 2),))
    assert boundary_degree(v2).value == 2


# -- jacobians ---------------------------------------------------------------------


def test_jacobian_of_identity_map():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (16, 16))
    xx, yy = grid.node_mesh()
    v = VectorField2D(grid, np.stack([xx - 0.3, yy - 0.6], axis=-1))
    j = jacobian(v)
    assert np.allclose(j.values, 1.0, atol=1e-12)


@pytest.mark.parametrize("z", [1, -1, 2])
def test_jacobian_of_a_vortex_has_mass_pi_times_its_degree(z):
    # v = rho(r) e^{i z theta} has det grad v = z rho rho' / r, whose
    # integral is pi z rho(R)^2 = pi z once rho reaches 1; the mass sits in
    # the core where rho < 1
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (64, 64))
    v = _phase_field(grid, (((0.5, 0.5), z),),
                     modulus=lambda x, y: np.minimum(
                         np.hypot(x - 0.5, y - 0.5) / 0.1, 1.0))
    j = jacobian(v)
    h2 = grid.h ** 2
    assert float(j.values.sum()) * h2 == pytest.approx(math.pi * z, rel=1e-2)
    px, py = j.grid.node_mesh()
    core = np.hypot(px - 0.5, py - 0.5) <= 0.15
    assert float(j.values[core].sum()) * h2 == pytest.approx(math.pi * z,
                                                             rel=1e-2)


# -- detection ---------------------------------------------------------------------


def test_detect_vortices_roundtrip():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (128, 128))
    atoms = (((0.31, 0.42), 1), ((0.71, 0.62), -2), ((0.21, 0.81), 1))
    v = _phase_field(grid, atoms)
    mu = detect_vortices(v)
    assert len(mu.atoms) == 3
    found = sorted(mu.atoms, key=lambda a: a[0])
    want = sorted(atoms, key=lambda a: a[0])
    for (p, z), (q, w) in zip(found, want):
        assert z == w
        assert math.dist(p, q) <= grid.h * math.sqrt(2.0)


def test_detect_vortices_modulus_invariance():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (96, 96))
    atoms = (((0.4, 0.35), 1), ((0.65, 0.7), -1))

    def bumpy(xx, yy):
        return 0.5 + 0.4 * np.sin(7.0 * xx) * np.cos(5.0 * yy)

    plain = detect_vortices(_phase_field(grid, atoms))
    scaled = detect_vortices(_phase_field(grid, atoms, modulus=bumpy))
    assert plain.atoms == scaled.atoms


def _loop_detect(v):
    """Reference detection: one full-array pass per cluster, centroid
    weighted by the signed winding.  Returns (position, charge, single_sign)
    per cluster with nonzero charge, without building a VortexMeasure."""
    w = v.values
    ang = np.arctan2(w[..., 1], w[..., 0])
    ex = np.angle(np.exp(1j * (ang[1:, :] - ang[:-1, :])))
    ey = np.angle(np.exp(1j * (ang[:, 1:] - ang[:, :-1])))
    loop = ex[:, :-1] + ey[1:, :] - ex[:, 1:] - ey[:-1, :]
    winding = np.rint(loop / (2.0 * np.pi)).astype(int)
    labels, n_lab = ndimage.label(winding != 0, structure=np.ones((3, 3)))
    h = v.grid.h
    found = []
    for lab in range(1, n_lab + 1):
        sel = labels == lab
        total = int(winding[sel].sum())
        if total == 0:
            continue
        idx = np.argwhere(sel)
        weights = winding[sel].astype(float)
        cx = v.grid.origin[0] + (idx[:, 0] + 0.5) * h
        cy = v.grid.origin[1] + (idx[:, 1] + 0.5) * h
        found.append(((float(np.sum(weights * cx) / weights.sum()),
                       float(np.sum(weights * cy) / weights.sum())),
                      total, bool(np.all(weights * total > 0))))
    return found


def test_detect_vortices_agrees_with_loop_on_single_sign_clusters():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (128, 128))
    rng = np.random.default_rng(12)
    atoms = []
    while len(atoms) < 12:
        p = tuple(rng.uniform(0.05, 0.95, 2))
        if all(math.dist(p, q) > 0.1 for q, _ in atoms):
            atoms.append((p, int(rng.choice([-2, -1, 1, 2]))))
    v = _phase_field(grid, atoms)
    reference = _loop_detect(v)
    assert len(reference) == len(atoms)
    assert all(single for _, _, single in reference)
    found = detect_vortices(v).atoms
    assert [z for _, z in found] == [z for _, z, _ in reference]
    for (p, _), (q, _, _) in zip(found, reference):
        assert p == pytest.approx(q, rel=0.0, abs=1e-12)


def test_detect_vortices_mixed_sign_cluster_stays_inside():
    # windings +1, +1 on two plaquettes of the first column and -1 between
    # them in the second: the signed centroid lands half a cell outside the
    # left edge, the |winding|-weighted one at x = (0.5 + 0.5 + 1.5) h / 3
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (32, 32))
    h = grid.h
    y = 15.5 * h
    v = _phase_field(grid, (((0.5 * h, y - h), 1), ((0.5 * h, y + h), 1),
                            ((1.5 * h, y), -1)))
    (signed_pos, charge, single), = _loop_detect(v)
    assert (charge, single) == (1, False)
    assert not UNIT.contains(signed_pos)
    mu = detect_vortices(v)
    assert len(mu.atoms) == 1
    (pos, z), = mu.atoms
    assert z == 1
    assert pos == pytest.approx((2.5 * h / 3.0, y), abs=1e-12)


def test_detect_vortices_raw_quench_charge_matches_boundary():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (64, 64))
    boundary = _phase_field(grid, (((0.5, 0.5), 1),)).values
    phases = np.random.default_rng(13).uniform(0.0, 2.0 * np.pi, grid.node_shape)
    w = np.stack([np.cos(phases), np.sin(phases)], axis=-1)
    w[0], w[-1], w[:, 0], w[:, -1] = (boundary[0], boundary[-1],
                                      boundary[:, 0], boundary[:, -1])
    v = VectorField2D(grid, w)
    mu = detect_vortices(v)
    assert len(mu.atoms) > 10
    assert mu.total_charge == boundary_degree(v).value == 1


def test_detect_vortices_empty():
    grid = CartesianGrid((0.0, 0.0), (1.0, 1.0), (32, 32))
    xx, yy = grid.node_mesh()
    v = VectorField2D(grid, np.stack([np.cos(xx), np.sin(xx)], axis=-1))
    assert detect_vortices(v).atoms == ()


# -- flat distance ------------------------------------------------------------------


def test_flat_distance_dipole_closed_form():
    p, q = (0.3, 0.4), (0.45, 0.4)
    mu1 = VortexMeasure(((p, 1),), UNIT)
    mu2 = VortexMeasure(((q, 1),), UNIT)
    # transport beats double discharge here
    assert flat_distance(mu1, mu2).value == pytest.approx(0.15, abs=1e-9)
    # and the other way around for far-apart atoms near the boundary
    p2, q2 = (0.05, 0.5), (0.95, 0.5)
    d = flat_distance(VortexMeasure(((p2, 1),), UNIT),
                      VortexMeasure(((q2, 1),), UNIT))
    assert d.value == pytest.approx(0.1, abs=1e-9)  # 0.05 + 0.05 discharge


def test_flat_distance_single_atom_discharge():
    mu = VortexMeasure((((0.2, 0.45), 1),), UNIT)
    empty = VortexMeasure((), UNIT)
    assert flat_distance(mu, empty).value == pytest.approx(0.2, abs=1e-9)
    assert flat_distance(empty, mu).value == pytest.approx(0.2, abs=1e-9)


def test_flat_distance_identical_measures():
    mu = VortexMeasure((((0.3, 0.3), 2), ((0.6, 0.7), -1)), UNIT)
    assert flat_distance(mu, mu).value == pytest.approx(0.0, abs=1e-12)


def test_flat_distance_multiplicity_splits_to_units():
    mu1 = VortexMeasure((((0.5, 0.5), 2),), UNIT)
    mu2 = VortexMeasure((((0.5, 0.6), 1),), UNIT)
    # one unit moves 0.1, the other discharges at cost 0.5
    d = flat_distance(mu1, mu2)
    assert d.value == pytest.approx(0.6, abs=1e-9)
    assert d.breakdown["matched_units"] == 1
    assert d.breakdown["discharged_units"] == 1


def test_flat_distance_plan_accounts_for_value():
    rng = np.random.default_rng(123)
    for _ in range(10):
        def rand():
            k = rng.integers(1, 4)
            atoms = tuple(
                ((float(x), float(y)), int(z))
                for (x, y), z in zip(rng.uniform(0.1, 0.9, (k, 2)),
                                     rng.choice([-2, -1, 1, 2], k))
            )
            return VortexMeasure(atoms, UNIT)

        m1, m2 = rand(), rand()
        res = flat_distance(m1, m2)
        assert res.value == pytest.approx(
            res.breakdown["transport_cost"] + res.breakdown["discharge_cost"],
            abs=1e-12,
        )
        assert res.value == pytest.approx(flat_distance(m2, m1).value,
                                          abs=1e-12)


def test_flat_distance_triangle_inequality():
    rng = np.random.default_rng(20240817)
    for _ in range(100):
        def rand():
            k = rng.integers(1, 4)
            atoms = tuple(
                ((float(x), float(y)), int(z))
                for (x, y), z in zip(rng.uniform(0.05, 0.95, (k, 2)),
                                     rng.choice([-2, -1, 1, 2], k))
            )
            return VortexMeasure(atoms, UNIT)

        a, b, c = rand(), rand(), rand()
        dab = flat_distance(a, b).value
        dbc = flat_distance(b, c).value
        dac = flat_distance(a, c).value
        assert dac <= dab + dbc + 1e-10


def test_flat_distance_against_lp_oracle_spot_checks():
    from lp_oracle import grid_lp_flat_norm

    rng = np.random.default_rng(99)
    for _ in range(3):
        def rand():
            k = rng.integers(1, 3)
            atoms = tuple(
                ((float(x), float(y)), int(z))
                for (x, y), z in zip(rng.uniform(0.1, 0.9, (k, 2)),
                                     rng.choice([-1, 1], k))
            )
            return VortexMeasure(atoms, UNIT)

        m1, m2 = rand(), rand()
        ours = flat_distance(m1, m2).value
        lp = grid_lp_flat_norm(m1, m2)
        assert ours == pytest.approx(lp, rel=0.05)


def test_flat_distance_requires_same_domain():
    other = Rectangle((0.0, 0.0), (2.0, 2.0))
    mu1 = VortexMeasure((((0.5, 0.5), 1),), UNIT)
    mu2 = VortexMeasure((((0.5, 0.5), 1),), other)
    with pytest.raises(ValueError):
        flat_distance(mu1, mu2)
