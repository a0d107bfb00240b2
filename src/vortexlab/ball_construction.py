"""Growing and merging weighted balls, with the energy lower bound they certify.

A family of pairwise-disjoint weighted balls grows all radii by a common
factor (1+t); whenever two or more balls touch, the touching connectivity
component is replaced by a single enclosing ball carrying the summed
weight, and growth resumes.  Between merge events the dynamics is exact
(radii scale linearly in the growth factor), so collision times solve in
closed form and the simulation is event-driven with no time stepping.

The family certifies the lower bound

    2 pi alpha * sum over balls B in B(t2), B inside U, of
                 |weight(B)| * log((1+t2)/(1+t1))

for the weighted Dirichlet energy of any unit-modulus field whose winding
on each ball matches the ball's weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .vortex_analysis import Rectangle

__all__ = [
    "WeightedBall",
    "MergeEvent",
    "BallTimeline",
    "evolve",
    "merge_cluster",
    "lower_bound",
]

_TOUCH_TOL = 1e-12


@dataclass(frozen=True)
class WeightedBall:
    center: tuple[float, float]
    radius: float
    weight: int

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError(f"radius must be positive, got {self.radius}")


@dataclass(frozen=True)
class MergeEvent:
    time: float
    merged_indices: tuple[int, ...]  # indices into the previous epoch family
    result: WeightedBall


@dataclass
class BallTimeline:
    """Piecewise-exact evolution: epochs between merge events.

    `epochs` holds (start time T_k, family at T_k); within an epoch every
    radius is the stored radius times (1+t)/(1+T_k).
    """

    initial: list[WeightedBall]
    t_final: float
    events: list[MergeEvent] = field(default_factory=list)
    epochs: list[tuple[float, list[WeightedBall]]] = field(default_factory=list)

    def family_at(self, t: float) -> list[WeightedBall]:
        if t < 0 or t > self.t_final * (1 + 1e-12):
            raise ValueError(f"time {t} outside simulated range [0, {self.t_final}]")
        start, family = self.epochs[0]
        for s, fam in self.epochs:
            if s <= t * (1 + 1e-15):
                start, family = s, fam
            else:
                break
        factor = (1.0 + t) / (1.0 + start)
        return [
            WeightedBall(b.center, b.radius * factor, b.weight) for b in family
        ]

    def total_radius_at(self, t: float) -> float:
        return sum(b.radius for b in self.family_at(t))

    def total_weight(self) -> int:
        return sum(b.weight for b in self.epochs[-1][1])

    def export_events_csv(self, path: str) -> None:
        """Event rows: time, merged indices (';'-separated), new ball."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("time,merged_indices,center_x,center_y,radius,weight\n")
            for ev in self.events:
                idx = ";".join(str(i) for i in ev.merged_indices)
                b = ev.result
                fh.write(
                    f"{ev.time!r},{idx},{b.center[0]!r},{b.center[1]!r},"
                    f"{b.radius!r},{b.weight}\n"
                )


def _merge_pair(b1: WeightedBall, b2: WeightedBall) -> WeightedBall:
    """Smallest ball enclosing two balls; weight adds."""
    d = math.dist(b1.center, b2.center)
    if d <= abs(b1.radius - b2.radius):
        big = b1 if b1.radius >= b2.radius else b2
        return WeightedBall(big.center, big.radius, b1.weight + b2.weight)
    radius = 0.5 * (d + b1.radius + b2.radius)
    # center sits on the segment, radius - r1 away from center 1
    t = (radius - b1.radius) / d
    center = (
        b1.center[0] + t * (b2.center[0] - b1.center[0]),
        b1.center[1] + t * (b2.center[1] - b1.center[1]),
    )
    return WeightedBall(center, radius, b1.weight + b2.weight)


def _touching_components(balls: list[WeightedBall]) -> list[list[int]]:
    n = len(balls)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            d = math.dist(balls[i].center, balls[j].center)
            if d <= balls[i].radius + balls[j].radius + _TOUCH_TOL:
                parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    return list(comps.values())


def merge_cluster(balls: list[WeightedBall]) -> WeightedBall:
    """Enclosing ball of a touching (connected-union) subfamily.

    Pairwise merges in decreasing-radius order; the result's radius never
    exceeds the sum of the input radii.  Raises if the union is not
    connected under tangency.
    """
    if not balls:
        raise ValueError("cannot merge an empty subfamily")
    comps = _touching_components(list(balls))
    if len(comps) != 1:
        raise ValueError("merge_cluster requires a connected (touching) subfamily")
    ordered = sorted(balls, key=lambda b: -b.radius)
    merged = ordered[0]
    for b in ordered[1:]:
        merged = _merge_pair(merged, b)
    return merged


def evolve(initial: list[WeightedBall], t_final: float) -> BallTimeline:
    """Event-driven growth/merging from a pairwise-disjoint family.

    Every radius grows by the common factor (1+t)/(1+T) within an epoch;
    the next collision solves (1+t) = (1+T) * |x_i-x_j| / (r_i+r_j) in
    closed form.  At a collision, every touching connectivity component
    merges into its enclosing ball, cascading until the family is again
    pairwise disjoint.  Simultaneous multi-ball collisions merge as one
    cluster (one of several valid evolutions).
    """
    if t_final < 0:
        raise ValueError(f"t_final must be >= 0, got {t_final}")
    for i in range(len(initial)):
        for j in range(i + 1, len(initial)):
            d = math.dist(initial[i].center, initial[j].center)
            if d < initial[i].radius + initial[j].radius - _TOUCH_TOL:
                raise ValueError(
                    f"initial balls {i} and {j} overlap: "
                    f"distance {d} < radii sum "
                    f"{initial[i].radius + initial[j].radius}"
                )

    timeline = BallTimeline(list(initial), t_final)
    t_now = 0.0
    family = list(initial)
    timeline.epochs.append((0.0, family))

    while len(family) > 1:
        # earliest collision growth factor within this epoch
        best = math.inf
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                d = math.dist(family[i].center, family[j].center)
                f = d / (family[i].radius + family[j].radius)
                best = min(best, f)
        t_next = (1.0 + t_now) * best - 1.0
        if t_next > t_final:
            break

        family = [
            WeightedBall(b.center, b.radius * best, b.weight) for b in family
        ]
        # merge the touching components, cascading while enclosing balls
        # newly overlap other balls; `origins` holds each ball's indices
        # into the epoch's family, so every event names the balls it merged
        origins = [(i,) for i in range(len(family))]
        while True:
            comps = _touching_components(family)
            if all(len(c) == 1 for c in comps):
                break
            merged: list[WeightedBall] = []
            merged_origins: list[tuple[int, ...]] = []
            for comp in comps:
                members = tuple(sorted(i for k in comp for i in origins[k]))
                if len(comp) == 1:
                    merged.append(family[comp[0]])
                else:
                    cluster = merge_cluster([family[k] for k in comp])
                    timeline.events.append(
                        MergeEvent(t_next, members, cluster)
                    )
                    merged.append(cluster)
                merged_origins.append(members)
            family, origins = merged, merged_origins

        t_now = t_next
        timeline.epochs.append((t_now, family))

    return timeline


def lower_bound(
    timeline: BallTimeline,
    alpha: float,
    t1: float,
    t2: float,
    u: Rectangle,
) -> float:
    """Certified energy lower bound accumulated between times t1 < t2:
    2 pi alpha sum over balls at t2 inside U of |weight| log((1+t2)/(1+t1))."""
    if not t1 < t2:
        raise ValueError(f"need t1 < t2, got {t1}, {t2}")
    total = 0.0
    for b in timeline.family_at(t2):
        cx, cy = b.center
        inside = (
            u.origin[0] <= cx - b.radius
            and cx + b.radius <= u.origin[0] + u.extent[0]
            and u.origin[1] <= cy - b.radius
            and cy + b.radius <= u.origin[1] + u.extent[1]
        )
        if inside:
            total += abs(b.weight)
    return 2.0 * math.pi * alpha * total * math.log((1.0 + t2) / (1.0 + t1))

