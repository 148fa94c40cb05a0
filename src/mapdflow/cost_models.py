"""Edge-cost models: planner-traffic estimates and decayed wait stats.

Every model returns costs >= 1 on every edge, so unit cost (no model at
all) is the common lower bound and flow networks never see costs below
1. The functions (:func:`fcost`, :func:`pcost` and the terms they add up)
are the scalar reference formulas, read edge by edge from a state's dict
form, the form a state has without a grid.

On a grid, as the simulator builds them, the states hold arrays over the
grid's cells and edge ids instead, updated only where something changes.
The models :class:`TrafficCost` and :class:`AvgWaitCost` price only such
states: called once with the grid's own edge arrays (what
:meth:`mapdflow.grid_map.GridMap.edge_costs` passes), they return a
float64 array equal to the scalar formula on every edge, bit for bit.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .grid_map import GridMap


def _check_own_edges(grid: GridMap | None, tails, heads) -> None:
    if grid is None or tails is not grid.tails or heads is not grid.heads:
        raise ValueError("a model prices a state kept on a grid, over that "
                         "grid's edge arrays only")


class TrafficState:
    """Congestion statistics derived from delivering agents' guide paths.

    ``entries[v]`` counts agents entering cell ``v`` along their planned
    path (one count per entry event, so revisits count again);
    ``traversals[(u, v)]`` counts planned directed traversals of edge
    ``(u, v)``. A path's second and later cells are entries, each entered
    from the cell before it.

    A state is given as these two dicts, or counted from paths by
    :meth:`from_guide_paths`. :meth:`on_grid` instead starts an empty state
    that keeps the counts as ``entry_counts`` by cell and
    ``traversal_counts`` by edge id, in place of the dicts, kept current by
    :meth:`set_paths`.
    """

    def __init__(self, entries: dict[int, int] | None = None,
                 traversals: dict[tuple[int, int], int] | None = None):
        self.entries = {} if entries is None else entries
        self.traversals = {} if traversals is None else traversals
        self.grid: GridMap | None = None

    @classmethod
    def from_guide_paths(cls, paths: Iterable[list[int]]) -> "TrafficState":
        entries, traversals = Counter(), Counter()
        for path in paths:
            entries.update(path[1:])
            traversals.update(zip(path, path[1:]))
        return cls(dict(entries), dict(traversals))

    @classmethod
    def on_grid(cls, grid: GridMap) -> "TrafficState":
        ts = cls()
        ts.entries = ts.traversals = None
        ts.grid = grid
        ts.entry_counts = np.zeros(grid.width * grid.height, dtype=np.int64)
        ts.traversal_counts = np.zeros(grid.num_directed_edges(), dtype=np.int64)
        ts._counted: list[list[int] | None] = []   # per slot, the path counted
        return ts

    def set_paths(self, paths: list[list[int] | None]) -> None:
        """Make the counts those of ``paths``, one slot each (None for no path).

        For states from :meth:`on_grid`. Only a slot that holds another
        list object than at the last call is recounted (slots past the end
        of ``paths`` hold None), so a counted path must not change in
        place. A step between non-adjacent cells counts as an entry only.
        A path that steps from or to a cell off the map raises
        ``ValueError`` and changes nothing.
        """
        counted = self._counted
        paths = list(paths) + [None] * (len(counted) - len(paths))
        old = counted + [None] * (len(paths) - len(counted))
        changed = [(path, was) for path, was in zip(paths, old) if path is not was]
        # New paths first: a cell off the map raises before any count changes.
        self._add([path for path, _ in changed if path], 1)
        self._add([was for _, was in changed if was], -1)
        self._counted = paths

    def _add(self, paths: list[list[int]], sign: int) -> None:
        paths = [p for p in paths if len(p) > 1]
        if not paths:
            return
        tails = np.fromiter(chain.from_iterable(p[:-1] for p in paths), dtype=np.int64)
        heads = np.fromiter(chain.from_iterable(p[1:] for p in paths), dtype=np.int64)
        size = len(self.entry_counts)
        if min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= size:
            raise ValueError("path cell off the map")
        np.add.at(self.entry_counts, heads, sign)
        ids = self.grid.edge_ids(tails, heads)
        np.add.at(self.traversal_counts, ids[ids >= 0], sign)


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


class EdgeWaitStats:
    """Per-edge decayed waiting statistics observed during execution.

    ``W[e]`` is the decayed total waiting time before traversing ``e`` and
    ``N[e]`` the decayed traversal count. Each :meth:`apply_window` call
    decays every edge by gamma once; the simulator makes that call once
    per step, off-round and timed-out steps included. Storage is lazy: a
    stored value carries the epoch it was written at (its stamp) and is
    decayed by ``gamma ** age`` when read, since decay cancels in the W/N
    ratio and only matters when new events are mixed in.

    Without a grid, ``_w`` and ``_n`` map an edge ``(tail, head)`` to a
    ``(value, stamp)`` pair. With one, ``w``, ``n`` and their common
    ``stamp`` are arrays over the grid's edge ids instead, read whole by
    :class:`AvgWaitCost`.
    """

    def __init__(self, gamma: float = 0.9, grid: GridMap | None = None):
        if not (0.0 < gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        self.gamma = gamma
        self.epoch = 0
        self.grid = grid
        self._w: dict[tuple[int, int], tuple[float, int]] | None = {}
        self._n: dict[tuple[int, int], tuple[float, int]] | None = {}
        if grid is not None:
            self._w = self._n = None
            m = grid.num_directed_edges()
            self.w, self.n = np.zeros(m), np.zeros(m)
            self.stamp = np.zeros(m, dtype=np.int64)
            # gamma ** k for k = 0, 1, ...; once it holds a power that no
            # later one differs from (1.0 at gamma 1, else the first 0.0),
            # it is final and older ages read that last entry.
            self._powers = np.ones(1)
            self._final = gamma == 1.0

    def decay(self, ages: np.ndarray) -> np.ndarray:
        """``gamma ** age`` at each age in ``[0, epoch]``: one Python power
        per age, cached, so equal bit for bit to the per-edge reads."""
        if not self._final and len(self._powers) <= self.epoch:
            gamma = self.gamma
            powers = []
            for k in range(2 * self.epoch + 1):
                powers.append(gamma ** k)
                if powers[-1] == 0.0:
                    self._final = True
                    break
            self._powers = np.array(powers)
        if self._final:
            ages = np.minimum(ages, len(self._powers) - 1)
        return self._powers[ages]

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
        """Advance one epoch: decay everything, add this epoch's events.

        Each event is ``(edge, wait_steps)`` for one traversal of ``edge``
        after ``wait_steps`` consecutive waits at its tail. Events on the
        same edge are aggregated before the decayed update, so their order
        is irrelevant.

        Raises:
            ValueError: On a negative wait, or, with a grid, on an event
                whose pair of cells is not one of the grid's edges.
        """
        events = list(events)
        if any(t < 0 for _, t in events):
            raise ValueError("wait time must be nonnegative")
        if self.grid is None:
            per_edge: dict[tuple[int, int], tuple[int, int]] = {}
            for e, t in events:
                total_t, count = per_edge.get(e, (0, 0))
                per_edge[e] = (total_t + t, count + 1)
            self.epoch += 1
            for e, (total_t, count) in per_edge.items():
                self._w[e] = (self._current(self._w, e) + total_t, self.epoch)
                self._n[e] = (self._current(self._n, e) + count, self.epoch)
            return
        edges, waits = zip(*events) if events else ((), ())
        ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64,
                           count=2 * len(edges))
        ids = self.grid.edge_ids(ends[0::2], ends[1::2])
        if (ids < 0).any():
            raise ValueError("wait event on a pair of cells that is not an edge")
        self.epoch += 1
        # Integer sums per edge, then one decayed update of each touched edge.
        count = np.bincount(ids, minlength=len(self.n))
        total = np.bincount(ids, weights=np.array(waits, dtype=np.float64),
                            minlength=len(self.w))
        at = np.flatnonzero(count)
        factor = self.decay(self.epoch - self.stamp[at])
        self.w[at] = self.w[at] * factor + total[at]
        self.n[at] = self.n[at] * factor + count[at]
        self.stamp[at] = self.epoch


def update_wait_stats(stats: EdgeWaitStats,
                      events: Iterable[tuple[tuple[int, int], int]]) -> EdgeWaitStats:
    """One step's update of the decayed wait statistics."""
    stats.apply_window(events)
    return stats


def pcost(e: tuple[int, int], stats: EdgeWaitStats) -> float:
    """Historical average-traversal-time edge cost: 1 + W_e/N_e (1 if unseen)."""
    n = stats.traversal_count(e)
    if n <= 0.0:
        return 1.0
    return 1.0 + stats.wait_total(e) / n


class TrafficCost:
    """Congestion-estimate edge cost (:func:`fcost`) over a traffic state
    kept on a grid, read as it is at the call."""

    def __init__(self, ts: TrafficState):
        self.ts = ts

    def __call__(self, u, v):
        grid = self.ts.grid
        _check_own_edges(grid, u, v)
        n = self.ts.entry_counts
        congestion = np.where(n > 1, np.ceil((n - 1) / 2), 0.0)
        t = self.ts.traversal_counts
        return 1.0 + congestion[v] + t * t[grid.reverse]


class AvgWaitCost:
    """Average-observed-waiting edge cost (:func:`pcost`) over wait
    statistics kept on a grid.

    Each call reads the statistics as they are at that moment. The
    simulator evaluates the model once per scheduling round into a cost
    array, so a round plans on a snapshot.
    """

    def __init__(self, stats: EdgeWaitStats):
        self.stats = stats

    def __call__(self, u, v):
        stats = self.stats
        _check_own_edges(stats.grid, u, v)
        factor = stats.decay(stats.epoch - stats.stamp)
        n, w = stats.n * factor, stats.w * factor
        cost = np.ones(len(n))
        seen = ~(n <= 0.0)
        cost[seen] = 1.0 + w[seen] / n[seen]
        return cost
