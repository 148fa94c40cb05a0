"""One benchmark run, executed in its own process by ``run.py``.

Drives ``mapdflow.Simulation`` step by step in logical mode. A run repeats
fixed-length episodes (a fresh simulation from the same seed, so every
episode does identical work). Another episode starts only if, at the mean
episode time so far, it would end within half an episode of the measuring
window; there is always at least one. An episode's first ``WARMUP_STEPS``
steps, where the whole team is assigned from scratch and caches are cold,
are executed and validated but not timed. Every step is checked by
:class:`StepValidator`, which knows nothing of the planner.

    python3 perfbench/measure.py --workload NAME --seed N --seconds S --trace 0|1

prints one JSON object with the raw samples; ``run.py`` turns it into
metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mapdflow  # noqa: E402
import numpy  # noqa: E402
import scipy  # noqa: E402
from mapdflow import SimConfig, Simulation, parse_map  # noqa: E402

from tracer import Tracer, instrument  # noqa: E402

# One extra timed set-up after every this many timed steps, so set-up
# samples spread over the whole run rather than one noisy moment.
SETUP_EVERY = 10
# Untimed steps at the start of every episode (the start-up transient).
WARMUP_STEPS = 20


@dataclass(frozen=True)
class Workload:
    map_file: str
    num_agents: int
    cost_model: str
    task_distribution: str
    steps: int          # timed steps per episode, after the warm-up
    trace_steps: int    # traced steps (and untraced baseline), after the warm-up

    def config(self, seed: int) -> SimConfig:
        return SimConfig(num_agents=self.num_agents, strategy="flow",
                         cost_model=self.cost_model, schedule_period=1,
                         task_distribution=self.task_distribution,
                         horizon=WARMUP_STEPS + self.steps,
                         step_budget=None, seed=seed)


WORKLOADS = {
    "random64-flow-unit": Workload("random64.map", 200, "unit", "uniform",
                                   steps=200, trace_steps=200),
    "random64-flow-traffic": Workload("random64.map", 200, "traffic", "uniform",
                                      steps=300, trace_steps=100),
    "warehouse-flow-avgwait-dense": Workload("warehouse_21x35.map", 150,
                                             "avg-wait", "labeled-es",
                                             steps=600, trace_steps=600),
}


class StepValidator:
    """Checks one executed step from agent locations alone.

    Every agent must stay put or move to a free 4-neighbour cell, no two
    agents may end on one cell, and no two agents may swap cells.
    """

    def __init__(self, grid):
        self.width = grid.width
        self.size = grid.width * grid.height
        self.free = list(grid.free)

    def _adjacent(self, a: int, b: int) -> bool:
        ay, ax = divmod(a, self.width)
        by, bx = divmod(b, self.width)
        return abs(ay - by) + abs(ax - bx) == 1

    def check(self, old: list[int], new: list[int]) -> list[str]:
        """Every violation in the step ``old -> new`` (empty when valid)."""
        if len(old) != len(new):
            return [f"agent count changed from {len(old)} to {len(new)}"]
        problems = []
        for i, (a, b) in enumerate(zip(old, new)):
            if a == b:
                continue
            if not (0 <= b < self.size and self.free[b]):
                problems.append(f"agent {i} moved onto non-free cell {b}")
            elif not self._adjacent(a, b):
                problems.append(f"agent {i} jumped from {a} to {b}")
        owner_new: dict[int, int] = {}
        for i, b in enumerate(new):
            if b in owner_new:
                problems.append(f"agents {owner_new[b]} and {i} collide on {b}")
            owner_new[b] = i
        owner_old = {a: i for i, a in enumerate(old)}
        for i, (a, b) in enumerate(zip(old, new)):
            j = owner_old.get(b)
            if a != b and j is not None and j > i and new[j] == a:
                problems.append(f"agents {i} and {j} swap {a} <-> {b}")
        return problems


@dataclass
class Episode:
    setup_s: list[float]
    step_s: list[float] = field(default_factory=list)
    plan_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    deliveries: int = 0
    digest: str = ""
    errors: list[str] = field(default_factory=list)

    @property
    def stepping_s(self) -> float:
        return sum(self.step_s)


def build(map_text: str, config: SimConfig) -> tuple[Simulation, float]:
    t0 = time.perf_counter()
    sim = Simulation(parse_map(map_text), config)
    return sim, time.perf_counter() - t0


def run_episode(map_text: str, config: SimConfig, steps: int,
                tracer: Tracer | None = None, warmup: int = WARMUP_STEPS,
                setup_every: int = 0) -> Episode:
    """Build a simulation and execute ``warmup + steps`` validated steps,
    timing the last ``steps``.

    With ``setup_every``, a throwaway simulation is built and timed after
    every that many timed steps. With a tracer, each ``step()`` call is a
    ``simulator.step`` span and the tracer is reset after the warm-up; the
    caller must have the tracer installed with :func:`instrument`.
    """
    sim, setup_s = build(map_text, config)
    ep = Episode(setup_s=[setup_s])
    validator = StepValidator(sim.grid)
    clock = time.perf_counter
    for k in range(warmup + steps):
        if k == warmup and tracer is not None:
            tracer.reset()
        old = [a.location for a in sim.agents]
        ep.attempted += 1
        t0 = clock()
        try:
            if tracer is None:
                record = sim.step()
            else:
                with tracer.span("simulator.step"):
                    record = sim.step()
        except Exception as exc:  # a raising step leaves no usable state
            ep.failed += 1
            ep.errors.append(f"step {sim.step_idx + 1} raised {exc!r}")
            break
        if k >= warmup:
            ep.step_s.append(clock() - t0)
            ep.plan_s.append(record.solver_time)
            if setup_every and len(ep.step_s) % setup_every == 0:
                ep.setup_s.append(build(map_text, config)[1])
        problems = validator.check(old, [a.location for a in sim.agents])
        if problems:
            ep.failed += 1
            ep.errors.append(f"step {record.step}: {'; '.join(problems[:3])}")
    try:
        sim.check_invariants()
    except AssertionError as exc:
        ep.errors.append(f"invariants violated after the episode: {exc}")
    ep.deliveries = sim.delivered
    ep.digest = hashlib.sha256(
        sim.metrics.csv_text(logical=True).encode()).hexdigest()
    return ep


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer totals over one traced episode (times in ms)."""
    c = tracer.counts
    table_calls = tracer.calls("grid_map.table")
    misses = c.get("grid_map.table.misses", 0)
    return {
        "simulator.step.ms": tracer.total_ms("simulator.step"),
        "simulator.step.self_ms": tracer.self_ms("simulator.step"),
        "assignment.flow_assign.ms": tracer.total_ms("assignment.flow_assign"),
        "assignment.build.ms": tracer.total_ms("assignment.build"),
        "assignment.build.arcs": c.get("assignment.build.arcs", 0),
        "cost_models.edge_cost.calls": c.get("cost_models.edge_cost.calls", 0),
        "cost_models.snapshot.ms": tracer.total_ms("cost_models.snapshot"),
        "cost_models.wait_stats.ms": tracer.total_ms("cost_models.wait_stats"),
        "mincost_flow.solve.ms": tracer.total_ms("mincost_flow.solve"),
        "mincost_flow.solve.calls": tracer.calls("mincost_flow.solve"),
        "mincost_flow.solve.units": c.get("mincost_flow.solve.units", 0),
        "assignment.retrieve.ms": tracer.total_ms("assignment.retrieve"),
        "assignment.retrieve.path_cells": c.get("assignment.retrieve.path_cells", 0),
        "grid_map.shortest_path.ms": tracer.total_ms("grid_map.shortest_path"),
        "grid_map.shortest_path.calls": tracer.calls("grid_map.shortest_path"),
        "grid_map.table.ms": tracer.total_ms("grid_map.table"),
        "grid_map.table.calls": table_calls,
        "grid_map.table.misses": misses,
        "grid_map.table.hit_ratio":
            (table_calls - misses) / table_calls if table_calls else 0.0,
        "planner.pibt_step.ms": tracer.total_ms("planner.pibt_step"),
        "planner.pibt_step.self_ms": tracer.self_ms("planner.pibt_step"),
        "planner.heuristic_value.calls": tracer.calls("planner.heuristic_value"),
        "planner.heuristic_value.ms": tracer.total_ms("planner.heuristic_value"),
        "planner.guide_heuristic.calls": tracer.calls("planner.guide_heuristic"),
        "planner.guide_heuristic.ms": tracer.total_ms("planner.guide_heuristic"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    config = wl.config(seed)
    map_text = (ROOT / "maps" / wl.map_file).read_text()
    out: dict = {"workload": workload, "seed": seed, "config": vars(config),
                 "warmup": WARMUP_STEPS}

    if trace:
        # Same steps untraced, then traced: the difference is the overhead.
        base = run_episode(map_text, config, wl.trace_steps)
        gc.collect()
        tracer = Tracer()
        with instrument(tracer):
            traced = run_episode(map_text, config, wl.trace_steps, tracer)
        layers = layer_metrics(tracer)
        layers["trace.overhead_s"] = traced.stepping_s - base.stepping_s
        out.update(steps=wl.trace_steps, episodes=[asdict(base), asdict(traced)],
                   layers=layers)
    else:
        episodes: list[Episode] = []
        start = time.perf_counter()
        while True:
            ep = run_episode(map_text, config, wl.steps,
                             setup_every=SETUP_EVERY)
            episodes.append(ep)
            gc.collect()
            elapsed = time.perf_counter() - start
            mean = elapsed / len(episodes)
            if ep.failed or elapsed + mean / 2 > seconds:
                break
        out.update(steps=wl.steps, episodes=[asdict(ep) for ep in episodes])

    out["versions"] = {"python": sys.version.split()[0],
                       "numpy": numpy.__version__, "scipy": scipy.__version__}
    out["mapdflow_file"] = mapdflow.__file__
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    print(json.dumps(measure(args.workload, args.seed, args.seconds,
                             bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
