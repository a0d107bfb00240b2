"""Weighted ball growth, merging, and the certified lower bound."""

import csv
import math

import numpy as np
import pytest

from vortexlab.vortex_analysis import Rectangle
from vortexlab.ball_construction import (
    BallTimeline,
    MergeEvent,
    WeightedBall,
    evolve,
    lower_bound,
    merge_cluster,
)


def _random_disjoint_family(rng, k=4, span=10.0):
    """Jittered k x k grid of balls; construction guarantees disjointness."""
    cell = span / k
    balls = []
    for i in range(k):
        for j in range(k):
            cx = (i + 0.5) * cell + rng.uniform(-0.2, 0.2) * cell
            cy = (j + 0.5) * cell + rng.uniform(-0.2, 0.2) * cell
            r = rng.uniform(0.02, 0.12) * cell
            w = int(rng.integers(-3, 4))
            if w == 0:
                w = 1
            balls.append(WeightedBall((cx, cy), r, w))
    return balls


# -- merging closed forms -----------------------------------------------------------


def test_merge_pair_closed_form():
    # tangent balls at distance d: enclosing radius (d + r1 + r2)/2, center
    # on the segment at distance radius - r1 from the first center
    b1 = WeightedBall((0.0, 0.0), 1.5, 1)
    b2 = WeightedBall((2.0, 0.0), 0.5, 2)
    m = merge_cluster([b1, b2])
    assert m.radius == pytest.approx(2.0)
    assert m.center[0] == pytest.approx(0.5)
    assert m.center[1] == pytest.approx(0.0)
    assert m.weight == 3


def test_merge_contained_ball_is_absorbed():
    big = WeightedBall((0.0, 0.0), 2.0, 1)
    small = WeightedBall((0.5, 0.0), 0.25, -2)
    m = merge_cluster([big, small])
    assert m.center == big.center
    assert m.radius == pytest.approx(2.0)
    assert m.weight == -1


def test_merge_cluster_encloses_inputs_and_bounds_radius():
    rng = np.random.default_rng(7)
    # chain of touching balls: each next ball tangent to the previous
    balls = [WeightedBall((0.0, 0.0), 0.5, 1)]
    for _ in range(5):
        prev = balls[-1]
        r = rng.uniform(0.1, 0.6)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = prev.radius + r
        c = (prev.center[0] + d * math.cos(ang), prev.center[1] + d * math.sin(ang))
        balls.append(WeightedBall(c, r, 1))
    m = merge_cluster(balls)
    for b in balls:
        assert math.dist(m.center, b.center) + b.radius <= m.radius + 1e-9
    assert m.radius <= sum(b.radius for b in balls) + 1e-9
    assert m.weight == 6


def test_merge_cluster_rejects_disconnected_and_empty():
    with pytest.raises(ValueError):
        merge_cluster([])
    far = [WeightedBall((0.0, 0.0), 0.1, 1), WeightedBall((5.0, 0.0), 0.1, 1)]
    with pytest.raises(ValueError, match="connected"):
        merge_cluster(far)


# -- evolution -----------------------------------------------------------------------


def test_two_ball_collision_time_and_merge():
    b1 = WeightedBall((0.0, 0.0), 0.1, 1)
    b2 = WeightedBall((1.0, 0.0), 0.1, -2)
    tl = evolve([b1, b2], 10.0)
    # radii grow by (1+t); tangency at (1+t) = d / (r1+r2) = 5, i.e. t = 4
    assert len(tl.events) == 1
    ev = tl.events[0]
    assert ev.time == pytest.approx(4.0)
    assert ev.merged_indices == (0, 1)
    assert ev.result.radius == pytest.approx(1.0)  # (d + 0.5 + 0.5)/2
    assert ev.result.center[0] == pytest.approx(0.5)
    assert ev.result.weight == -1
    # before the event: two balls with radius 0.1 (1+t)
    fam = tl.family_at(2.0)
    assert len(fam) == 2
    assert fam[0].radius == pytest.approx(0.3)
    # after: the merged ball keeps growing
    fam = tl.family_at(9.0)
    assert len(fam) == 1
    assert fam[0].radius == pytest.approx(1.0 * (1.0 + 9.0) / (1.0 + 4.0))


def test_cascading_merges_conserve_weight():
    balls = [
        WeightedBall((0.0, 0.0), 0.1, 1),
        WeightedBall((1.0, 0.0), 0.1, 2),
        WeightedBall((2.2, 0.0), 0.1, -1),
    ]
    tl = evolve(balls, 50.0)
    assert len(tl.events) == 2
    assert tl.events[0].time == pytest.approx(4.0)
    assert tl.events[1].time > tl.events[0].time
    assert tl.total_weight() == 2
    assert len(tl.family_at(50.0)) == 1


def test_cascade_events_index_the_epoch_family():
    # balls 0 and 2 touch at t = 0.1; their enclosing ball then overlaps
    # ball 3, so the cascade's second event merges balls 0, 2 and 3 of the
    # epoch's family (it used to read (0, 2), indices into the family
    # renumbered by the first merge)
    balls = [
        WeightedBall((0.0, 0.0), 1.0, 1),
        WeightedBall((5.0, 5.0), 0.5, 1),
        WeightedBall((2.2, 0.0), 1.0, 1),
        WeightedBall((1.1, 2.6), 0.5, 1),
    ]
    tl = evolve(balls, 0.5)
    assert [ev.merged_indices for ev in tl.events] == [(0, 2), (0, 2, 3)]
    assert tl.events[0].time == tl.events[1].time == pytest.approx(0.1)
    assert [ev.result.weight for ev in tl.events] == [2, 3]
    assert len(tl.epochs[-1][1]) == 2


def test_evolve_validates_inputs():
    with pytest.raises(ValueError):
        WeightedBall((0.0, 0.0), 0.0, 1)
    overlapping = [
        WeightedBall((0.0, 0.0), 0.5, 1),
        WeightedBall((0.4, 0.0), 0.5, 1),
    ]
    with pytest.raises(ValueError, match="overlap"):
        evolve(overlapping, 1.0)
    with pytest.raises(ValueError):
        evolve([WeightedBall((0.0, 0.0), 0.1, 1)], -1.0)
    tl = evolve([WeightedBall((0.0, 0.0), 0.1, 1)], 1.0)
    with pytest.raises(ValueError):
        tl.family_at(2.0)


def test_random_families_stay_disjoint_and_conserve_weight():
    rng = np.random.default_rng(20240817)
    for _ in range(5):
        balls = _random_disjoint_family(rng)
        tl = evolve(balls, 200.0)
        assert tl.total_weight() == sum(b.weight for b in balls)
        for t_start, family in tl.epochs:
            for i in range(len(family)):
                for j in range(i + 1, len(family)):
                    d = math.dist(family[i].center, family[j].center)
                    assert d >= family[i].radius + family[j].radius - 1e-7
        # within an epoch the total radius grows exactly linearly in (1+t)
        t0 = tl.epochs[-1][0]
        r0 = tl.total_radius_at(t0)
        assert tl.total_radius_at(2.0 * t0 + 1.0) == pytest.approx(2.0 * r0)
        # merged radii never exceed the sum of their parents' radii
        for k, ev in enumerate(tl.events):
            assert ev.result.radius <= tl.total_radius_at(ev.time) + 1e-7


# -- lower bound and windows ---------------------------------------------------------


def test_lower_bound_matches_annulus_formula():
    u = Rectangle((-5.0, -5.0), (10.0, 10.0))
    tl = evolve([WeightedBall((0.0, 0.0), 0.1, -3)], 40.0)
    val = lower_bound(tl, 1.7, 1.0, math.e * 2.0 - 1.0, u)
    assert val == pytest.approx(2.0 * math.pi * 1.7 * 3 * 1.0, rel=1e-12)
    # a ball sticking out of U contributes nothing
    tiny = Rectangle((-0.05, -0.05), (0.1, 0.1))
    assert lower_bound(tl, 1.7, 1.0, 3.0, tiny) == 0.0
    with pytest.raises(ValueError):
        lower_bound(tl, 1.7, 3.0, 1.0, u)


def test_lower_bound_counts_the_family_after_a_merge():
    # weights 1 and -2 merge at t = 4 into weight -1: an event-free window
    # before the merge counts |1| + |-2|, one after it only |-1|
    b1 = WeightedBall((0.0, 0.0), 0.1, 1)
    b2 = WeightedBall((1.0, 0.0), 0.1, -2)
    tl = evolve([b1, b2], 10.0)
    assert [ev.time for ev in tl.events] == [pytest.approx(4.0)]
    u = Rectangle((-5.0, -5.0), (10.0, 10.0))
    unit = 2.0 * math.pi * 1.7 * math.log(1.5)
    assert lower_bound(tl, 1.7, 0.0, 0.5, u) == pytest.approx(3 * unit)
    assert lower_bound(tl, 1.7, 4.0, 6.5, u) == pytest.approx(1 * unit)
    # a window across the merge counts the family at its end
    assert lower_bound(tl, 1.7, 3.0, 5.0, u) == pytest.approx(
        2.0 * math.pi * 1.7 * math.log(6.0 / 4.0))


def test_events_csv_export(tmp_path):
    b1 = WeightedBall((0.0, 0.0), 0.1, 1)
    b2 = WeightedBall((1.0, 0.0), 0.1, -2)
    tl = evolve([b1, b2], 10.0)
    path = tmp_path / "balls.csv"
    tl.export_events_csv(str(path))
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert float(rows[0]["time"]) == pytest.approx(4.0)
    assert rows[0]["merged_indices"] == "0;1"
    assert float(rows[0]["radius"]) == pytest.approx(1.0)
    assert int(rows[0]["weight"]) == -1
