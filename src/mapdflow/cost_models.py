"""Edge-cost models: planner-traffic estimates and decayed wait stats.

Every model returns costs >= 1 on every edge, so unit cost (no model at
all) is the common lower bound and flow networks never see costs below 1.

Both states hold arrays over a grid's cells and edge ids, updated only
where something changes. A model, :class:`TrafficCost` or
:class:`AvgWaitCost`, is called once with the grid's own edge arrays (as
:meth:`mapdflow.grid_map.GridMap.edge_costs` does) and returns one float64
array over the edge ids: a state's costs exist only in that form.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .grid_map import GridMap


def _check_own_edges(grid: GridMap, tails, heads) -> None:
    if tails is not grid.tails or heads is not grid.heads:
        raise ValueError("a model prices a state over its grid's edge "
                         "arrays only")


class TrafficState:
    """Congestion statistics counted from delivering agents' guide paths.

    ``entry_counts[v]`` counts agents entering cell ``v`` along a counted
    path (one count per entry event, so revisits count again);
    ``traversal_counts[i]`` counts planned traversals of the grid's edge
    ``i``. A path's second and later cells are entries, each entered from
    the cell before it; a step between non-adjacent cells counts as an
    entry only. A state starts empty. :meth:`add` counts paths and
    :meth:`remove` takes them out again, so a holder of paths changes the
    counts where it sets or clears one.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid
        self.entry_counts = np.zeros(grid.width * grid.height, dtype=np.int64)
        self.traversal_counts = np.zeros(grid.num_directed_edges(), dtype=np.int64)

    def add(self, paths: Iterable[list[int]]) -> None:
        """Count ``paths``. A path that steps from or to a cell off the map
        raises ``ValueError`` and changes nothing."""
        self._update(paths, 1)

    def remove(self, paths: Iterable[list[int]]) -> None:
        """Take counted ``paths`` out again. A cell off the map, or a count
        that would fall below zero, raises ``ValueError`` and changes
        nothing."""
        self._update(paths, -1)

    def _update(self, paths: Iterable[list[int]], sign: int) -> None:
        paths = [p for p in paths if len(p) > 1]
        if not paths:
            return
        tails = np.fromiter(chain.from_iterable(p[:-1] for p in paths), dtype=np.int64)
        heads = np.fromiter(chain.from_iterable(p[1:] for p in paths), dtype=np.int64)
        size = len(self.entry_counts)
        if min(tails.min(), heads.min()) < 0 or max(tails.max(), heads.max()) >= size:
            raise ValueError("path cell off the map")
        ids = self.grid.edge_ids(tails, heads)
        ids = ids[ids >= 0]
        entries, traversals = self.entry_counts, self.traversal_counts
        np.add.at(entries, heads, sign)
        np.add.at(traversals, ids, sign)
        if sign < 0 and (entries[heads].min() < 0
                         or (len(ids) and traversals[ids].min() < 0)):
            np.add.at(entries, heads, 1)
            np.add.at(traversals, ids, 1)
            raise ValueError("removing a path that was never counted")


class EdgeWaitStats:
    """Per-edge decayed waiting statistics observed during execution.

    ``w[i]`` is the decayed total waiting time before traversing the
    grid's edge ``i`` and ``n[i]`` its decayed traversal count. Each
    :meth:`apply_window` call decays every edge by gamma once; the
    simulator makes that call once per step, off-round and timed-out steps
    included. Storage is lazy: ``stamp[i]`` is the epoch edge ``i`` was
    last written at, and its values are decayed by ``gamma ** age`` when
    read, since decay cancels in the W/N ratio and only matters when new
    events are mixed in.
    """

    def __init__(self, grid: GridMap, gamma: float = 0.9):
        if not (0.0 < gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        self.gamma = gamma
        self.epoch = 0
        self.grid = grid
        m = grid.num_directed_edges()
        self.w, self.n = np.zeros(m), np.zeros(m)
        self.stamp = np.zeros(m, dtype=np.int64)
        # gamma ** k for k = 0, 1, ...; once it holds a power that no later
        # one differs from (1.0 at gamma 1, else the first 0.0), it is
        # final and older ages read that last entry.
        self._powers = np.ones(1)
        self._final = gamma == 1.0

    def decay(self, ages: np.ndarray) -> np.ndarray:
        """``gamma ** age`` at each age in ``[0, epoch]``: one Python power
        per age, cached, so equal bit for bit to ``self.gamma ** age``."""
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

    def apply_window(self, events: Iterable[tuple[tuple[int, int], int]]) -> None:
        """Advance one epoch: decay everything, add this epoch's events.

        Each event is ``(edge, wait_steps)`` for one traversal of ``edge``
        after ``wait_steps`` consecutive waits at its tail. Events on the
        same edge are aggregated before the decayed update, so their order
        is irrelevant.

        Raises:
            ValueError: On a negative wait, or on an event whose pair of
                cells is not one of the grid's edges.
        """
        events = list(events)
        if any(t < 0 for _, t in events):
            raise ValueError("wait time must be nonnegative")
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


class TrafficCost:
    """Congestion-estimate edge cost over a traffic state, read as it is at
    the call: 1, plus the vertex congestion ``ceil((n_v - 1) / 2)`` of the
    head ``v`` (0 for ``n_v <= 1``), computed as ``n_v // 2``, plus the
    contraflow product of the edge's traversal count and its reverse's."""

    def __init__(self, ts: TrafficState):
        self.ts = ts

    def __call__(self, u, v):
        grid = self.ts.grid
        _check_own_edges(grid, u, v)
        # Equal to the formula above for every count n >= 0, and counts
        # never go negative.
        congestion = self.ts.entry_counts // 2
        t = self.ts.traversal_counts
        return 1.0 + congestion[v] + t * t[grid.reverse]


class AvgWaitCost:
    """Average-observed-waiting edge cost over wait statistics: 1 + W/N on
    an edge with decayed traversals N > 0, else 1.

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
