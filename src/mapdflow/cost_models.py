"""Edge-cost models: unit, planner-traffic estimates, and decayed wait stats.

All models return costs >= 1 for every edge, so unit cost is the common
lower bound and flow networks never see costs below 1. The functions
(:func:`fcost`, :func:`pcost` and the terms they add up) are the scalar
reference formulas. The model classes :class:`UnitCost`,
:class:`TrafficCost` and :class:`AvgWaitCost` take either one edge
``(tail, head)`` as ints, giving a float, or equal-length int arrays of
tails and heads, giving a float64 array equal to the scalar formula on
every edge, bit for bit. :meth:`mapdflow.grid_map.GridMap.edge_costs`
evaluates a model over all of a map's edges in that one array call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable

import numpy as np


def _edge_keys(tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """One int64 per directed edge, ordered by tail, then head.

    Cells are row-major grid indices, so nonnegative and below 2**32.
    """
    return (np.asarray(tails, dtype=np.int64) << 32) | np.asarray(heads, dtype=np.int64)


def _lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray,
            missing) -> np.ndarray:
    """``values`` at each ``query`` key found in the sorted ``keys``, else ``missing``."""
    if len(keys) == 0:
        return np.full(len(query), missing, dtype=values.dtype)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[at] == query, values[at], missing)


class TrafficState:
    """Congestion statistics derived from delivering agents' guide paths.

    ``entries[v]`` counts agents entering cell ``v`` along their planned
    path (one count per entry event, so revisits count again);
    ``traversals[(u, v)]`` counts planned directed traversals of edge
    ``(u, v)``. Rebuilt from scratch each planning cycle.

    A state is either given as these two dicts or counted from guide paths
    by :meth:`from_guide_paths`. The latter keeps sorted count arrays and
    builds the dicts only when they are first read, as read-only views.
    """

    def __init__(self, entries: dict[int, int] | None = None,
                 traversals: dict[tuple[int, int], int] | None = None):
        self._entries = {} if entries is None else entries
        self._traversals = {} if traversals is None else traversals
        self._counted: tuple[np.ndarray, ...] | None = None

    @classmethod
    def from_guide_paths(cls, paths: Iterable[list[int]]) -> "TrafficState":
        # A path's second and later cells are entries, each entered from
        # the cell before it in the same path.
        paths = [p for p in paths if len(p) > 1]
        lengths = np.fromiter(map(len, paths), dtype=np.int64, count=len(paths))
        flat = np.fromiter(chain.from_iterable(paths), dtype=np.int64,
                           count=int(lengths.sum()))
        entered = np.ones(len(flat), dtype=bool)
        entered[np.cumsum(lengths) - lengths] = False
        at = np.flatnonzero(entered)
        ts = cls()
        ts._entries = ts._traversals = None
        ts._counted = (*np.unique(flat[at], return_counts=True),
                       *np.unique(_edge_keys(flat[at - 1], flat[at]),
                                  return_counts=True))
        return ts

    @property
    def entries(self) -> dict[int, int]:
        if self._entries is None:
            cells, counts = self._counted[:2]
            self._entries = dict(zip(cells.tolist(), counts.tolist()))
        return self._entries

    @property
    def traversals(self) -> dict[tuple[int, int], int]:
        if self._traversals is None:
            keys, counts = self._counted[2:]
            edges = zip((keys >> 32).tolist(), (keys & 0xFFFFFFFF).tolist())
            self._traversals = dict(zip(edges, counts.tolist()))
        return self._traversals

    def _count_arrays(self) -> tuple[np.ndarray, ...]:
        """``(cells, entry counts, edge keys, traversal counts)``: the
        counts as arrays, each pair sorted by its first array."""
        if self._counted is not None:
            return self._counted
        # Given as dicts: count from them as they are now.
        n = len(self._traversals)
        ends = np.fromiter(chain.from_iterable(self._traversals),
                           dtype=np.int64, count=2 * n)
        keys = _edge_keys(ends[0::2], ends[1::2])
        cells = np.fromiter(self._entries, dtype=np.int64, count=len(self._entries))
        by_cell, by_key = np.argsort(cells), np.argsort(keys)
        entry_counts = np.fromiter(self._entries.values(), dtype=np.int64,
                                   count=len(cells))
        traversal_counts = np.fromiter(self._traversals.values(),
                                       dtype=np.int64, count=n)
        return (cells[by_cell], entry_counts[by_cell],
                keys[by_key], traversal_counts[by_key])


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

    def __call__(self, u, v):
        if isinstance(u, np.ndarray):
            return np.ones(len(u))
        return 1.0


class TrafficCost:
    """Congestion-estimate edge cost (:func:`fcost`) over a fixed snapshot."""

    def __init__(self, ts: TrafficState):
        self.ts = ts

    def __call__(self, u, v):
        if not isinstance(u, np.ndarray):
            return fcost((u, v), self.ts)
        cells, entry_counts, keys, traversal_counts = self.ts._count_arrays()
        n_v = _lookup(cells, entry_counts, np.asarray(v, dtype=np.int64), 0)
        vc = np.where(n_v > 1, np.ceil((n_v - 1) / 2), 0.0)
        # Contraflow is nonzero only on traversed edges: take it per
        # traversed edge, then look the queried edges up once.
        reverse = ((keys & 0xFFFFFFFF) << 32) | (keys >> 32)
        both_ways = traversal_counts * _lookup(keys, traversal_counts, reverse, 0)
        cf = _lookup(keys, both_ways, _edge_keys(u, v), 0).astype(np.float64)
        return 1.0 + vc + cf


class AvgWaitCost:
    """Average-observed-waiting edge cost (:func:`pcost`).

    Each call reads the statistics as they are at that moment. Called with
    arrays it reads every stored ``(value, stamp)`` pair once and decays
    each by ``gamma ** age``, one power per distinct age, as
    :meth:`EdgeWaitStats._current` does per edge. The simulator evaluates
    the model once per scheduling round into a cost array, so a round
    plans on a snapshot.
    """

    def __init__(self, stats: EdgeWaitStats):
        self.stats = stats

    def __call__(self, u, v):
        if not isinstance(u, np.ndarray):
            return pcost((u, v), self.stats)
        query = _edge_keys(u, v)
        n = self._current(self.stats._n, query)
        w = self._current(self.stats._w, query)
        cost = np.ones(len(query))
        seen = ~(n <= 0.0)
        cost[seen] = 1.0 + w[seen] / n[seen]
        return cost

    def _current(self, table: dict, query: np.ndarray) -> np.ndarray:
        """:meth:`EdgeWaitStats._current` at every queried edge key."""
        size = len(table)
        ends = np.fromiter(chain.from_iterable(table), dtype=np.int64, count=2 * size)
        stored = np.fromiter(chain.from_iterable(table.values()), dtype=np.float64,
                             count=2 * size)
        keys = _edge_keys(ends[0::2], ends[1::2])
        value, stamp = stored[0::2], stored[1::2].astype(np.int64)
        ages, age_at = np.unique(self.stats.epoch - stamp, return_inverse=True)
        gamma = self.stats.gamma
        factor = np.array([gamma ** k for k in ages.tolist()], dtype=np.float64)
        order = np.argsort(keys)
        return _lookup(keys[order], (value * factor[age_at])[order], query, 0.0)
