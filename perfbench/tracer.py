"""Span tracer that instruments mapdflow from outside the package.

A span covers one call into a layer. Spans nest on a single stack (the
simulation is single-threaded), and each span's self time is its duration
minus the durations of its direct children. Spans are aggregated per name
as they close (calls, total seconds, self seconds), so memory stays flat
however many calls a run makes; counters are plain integers keyed by name.

:func:`instrument` swaps each wrapped name where the simulator looks it up
(module globals of ``mapdflow.simulator`` and ``mapdflow.assignment``, and
methods on the classes), and puts every original back on exit, also when
the traced code raised.
"""

from __future__ import annotations

import time
import weakref
from contextlib import contextmanager
from typing import Callable, Iterator


class Tracer:
    """Aggregating span recorder with an injectable clock."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, list] = {}    # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []        # [name, start, child_s]

    def reset(self) -> None:
        """Forget everything recorded so far (call between spans)."""
        self.spans.clear()
        self.counts.clear()

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def calls(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1] * 1000.0

    def self_ms(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2] * 1000.0


def _timed(tracer: Tracer, name: str, fn: Callable,
           after: Callable | None = None) -> Callable:
    """``fn`` inside a span; ``after(result)`` records counters from the result."""
    def wrapper(*args, **kwargs):
        tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if after is not None:
            after(result)
        return result
    return wrapper


def _patches(tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every instrumented lookup site."""
    from mapdflow import assignment, cost_models, grid_map, simulator

    def counted_edge_cost(fn):
        counts = tracer.counts

        def wrapper(self, u, v):
            counts["cost_models.edge_cost.calls"] = (
                counts.get("cost_models.edge_cost.calls", 0) + 1)
            return fn(self, u, v)
        return wrapper

    # A table miss is the first lookup of a goal on one provider instance.
    # Providers are keyed weakly so a recycled id() never reads as a hit.
    goals_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
    table = grid_map.DistanceProvider.table

    def traced_table(self, goal):
        seen = goals_seen.get(self)
        if seen is None:
            seen = goals_seen[self] = set()
        if goal not in seen:
            seen.add(goal)
            tracer.count("grid_map.table.misses")
        tracer.enter("grid_map.table")
        try:
            return table(self, goal)
        finally:
            tracer.exit()

    base_heuristic = simulator.GuideHeuristic

    class TracedGuideHeuristic(base_heuristic):
        def __init__(self, grid, path):
            tracer.enter("planner.guide_heuristic")
            try:
                super().__init__(grid, path)
            finally:
                tracer.exit()

        def value(self, cell):
            tracer.enter("planner.heuristic_value")
            try:
                return super().value(cell)
            finally:
                tracer.exit()

    return [
        (simulator, "flow_assign",
         _timed(tracer, "assignment.flow_assign", simulator.flow_assign)),
        (simulator, "pibt_step",
         _timed(tracer, "planner.pibt_step", simulator.pibt_step)),
        (simulator, "update_wait_stats",
         _timed(tracer, "cost_models.wait_stats", simulator.update_wait_stats)),
        (simulator, "GuideHeuristic", TracedGuideHeuristic),
        (simulator.Simulation, "_round_cost_model",
         _timed(tracer, "cost_models.snapshot",
                simulator.Simulation._round_cost_model)),
        (assignment, "solve_min_cost_flow",
         _timed(tracer, "mincost_flow.solve", assignment.solve_min_cost_flow,
                lambda sol: tracer.count("mincost_flow.solve.units", sol.value))),
        (assignment, "retrieve_assignments",
         _timed(tracer, "assignment.retrieve", assignment.retrieve_assignments,
                lambda aset: tracer.count(
                    "assignment.retrieve.path_cells",
                    sum(len(p) for p in aset.guide_paths.values())))),
        (assignment.FlowNetworkBuilder, "build",
         _timed(tracer, "assignment.build", assignment.FlowNetworkBuilder.build,
                lambda gnet: tracer.count("assignment.build.arcs",
                                          gnet.network.num_edges))),
        (cost_models.TrafficCost, "__call__",
         counted_edge_cost(cost_models.TrafficCost.__call__)),
        (cost_models.AvgWaitCost, "__call__",
         counted_edge_cost(cost_models.AvgWaitCost.__call__)),
        (grid_map.DistanceProvider, "shortest_path",
         _timed(tracer, "grid_map.shortest_path",
                grid_map.DistanceProvider.shortest_path)),
        (grid_map.DistanceProvider, "table", traced_table),
    ]


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Route the simulator's layer calls through ``tracer`` for the block."""
    patches = _patches(tracer)
    saved = []
    try:
        for owner, attr, replacement in patches:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
