"""Edge-cost models: unit, planner-traffic estimates, and decayed wait stats.

All models return costs >= 1 for every edge, so unit cost is the common
lower bound and flow networks never see costs below 1. The callables here
are the scalar reference formulas; consumers evaluate them once per edge
into an array with :meth:`mapdflow.grid_map.GridMap.edge_costs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class TrafficState:
    """Congestion statistics derived from delivering agents' guide paths.

    ``entries[v]`` counts agents entering cell ``v`` along their planned
    path (one count per entry event, so revisits count again);
    ``traversals[(u, v)]`` counts planned directed traversals of edge
    ``(u, v)``. Rebuilt from scratch each planning cycle.
    """

    entries: dict[int, int] = field(default_factory=dict)
    traversals: dict[tuple[int, int], int] = field(default_factory=dict)

    @classmethod
    def from_guide_paths(cls, paths: Iterable[list[int]]) -> "TrafficState":
        entries: dict[int, int] = {}
        traversals: dict[tuple[int, int], int] = {}
        for path in paths:
            for i in range(1, len(path)):
                v = path[i]
                entries[v] = entries.get(v, 0) + 1
                e = (path[i - 1], v)
                traversals[e] = traversals.get(e, 0) + 1
        return cls(entries=entries, traversals=traversals)


def vertex_congestion(v: int, ts: TrafficState) -> float:
    """Expected delay entering ``v``: ceil((n_v - 1) / 2), clamped at 0."""
    n_v = ts.entries.get(v, 0)
    if n_v <= 1:
        return 0.0
    return float(math.ceil((n_v - 1) / 2))


def contraflow(e: tuple[int, int], ts: TrafficState) -> float:
    """Opposing-traffic penalty: product of the two directional counts."""
    u, v = e
    return float(ts.traversals.get((u, v), 0) * ts.traversals.get((v, u), 0))


def fcost(e: tuple[int, int], ts: TrafficState) -> float:
    """Planner-estimate edge cost: 1 + vertex congestion at the head + contraflow."""
    return 1.0 + vertex_congestion(e[1], ts) + contraflow(e, ts)


def unit_cost(e: tuple[int, int]) -> float:
    return 1.0


@dataclass
class EdgeWaitStats:
    """Per-edge decayed waiting statistics observed during execution.

    ``W[e]`` is the decayed total waiting time before traversing ``e`` and
    ``N[e]`` the decayed traversal count. The decay factor gamma is applied
    once per planning window to every edge; storage is lazy (per-edge epoch
    stamps) since decay cancels in the W/N ratio and only matters when new
    events are mixed in.
    """

    gamma: float = 0.9
    _w: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)
    _n: dict[tuple[int, int], tuple[float, int]] = field(default_factory=dict)
    epoch: int = 0

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")

    def _current(self, table: dict, e: tuple[int, int]) -> float:
        stored = table.get(e)
        if stored is None:
            return 0.0
        value, stamp = stored
        if stamp == self.epoch:
            return value
        return value * self.gamma ** (self.epoch - stamp)

    def wait_total(self, e: tuple[int, int]) -> float:
        return self._current(self._w, e)

    def traversal_count(self, e: tuple[int, int]) -> float:
        return self._current(self._n, e)

    def apply_window(self, events: Iterable[tuple[tuple[int, int], int]]) -> None:
        """Advance one planning window: decay everything, add this window's events.

        Each event is ``(edge, wait_steps)`` for one traversal of ``edge``
        after ``wait_steps`` consecutive waits at its tail. Events on the
        same edge are aggregated before the decayed update, so their order
        is irrelevant.
        """
        per_edge: dict[tuple[int, int], tuple[int, int]] = {}
        for e, t in events:
            if t < 0:
                raise ValueError("wait time must be nonnegative")
            total_t, count = per_edge.get(e, (0, 0))
            per_edge[e] = (total_t + t, count + 1)
        self.epoch += 1
        for e, (total_t, count) in per_edge.items():
            self._w[e] = (self._current(self._w, e) + total_t, self.epoch)
            self._n[e] = (self._current(self._n, e) + count, self.epoch)


def update_wait_stats(stats: EdgeWaitStats,
                      events: Iterable[tuple[tuple[int, int], int]]) -> EdgeWaitStats:
    """One planning-window update of the decayed wait statistics."""
    stats.apply_window(events)
    return stats


def pcost(e: tuple[int, int], stats: EdgeWaitStats) -> float:
    """Historical average-traversal-time edge cost: 1 + W_e/N_e (1 if unseen)."""
    n = stats.traversal_count(e)
    if n <= 0.0:
        return 1.0
    return 1.0 + stats.wait_total(e) / n


class UnitCost:
    """Edge cost of exactly 1 everywhere."""

    def __call__(self, u: int, v: int) -> float:
        return 1.0


class TrafficCost:
    """Congestion-estimate edge cost (:func:`fcost`) over a fixed snapshot."""

    def __init__(self, ts: TrafficState):
        self.ts = ts

    def __call__(self, u: int, v: int) -> float:
        return fcost((u, v), self.ts)


class AvgWaitCost:
    """Average-observed-waiting edge cost (:func:`pcost`).

    Each call reads the statistics as they are at that moment; the
    simulator evaluates the model once per scheduling round into a cost
    array, so a round plans on a snapshot.
    """

    def __init__(self, stats: EdgeWaitStats):
        self.stats = stats

    def __call__(self, u: int, v: int) -> float:
        return pcost((u, v), self.stats)
