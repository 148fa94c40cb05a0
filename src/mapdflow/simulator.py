"""Lifelong MAPD simulation: task release, periodic assignment, PIBT
execution, congestion statistics, and metrics.

Each step runs a fixed phase order: (1) on scheduling rounds, rebuild the
traffic snapshot, evaluate the cost model into one per-edge cost array, and
solve the configured assignment strategy; (2) compute guide paths for new
pickup legs and for delivery legs; (3) execute one PIBT step; (4) detect
pickups/deliveries; (5) update decayed wait statistics; (6) release tasks;
(7) record metrics.

Edge costs are a per-round snapshot: the solver and every guide path
staged until the next round use the array evaluated at the round, even
when the wait statistics behind the avg-wait model change in between.

Two time modes exist: logical mode ignores the per-step budget entirely
(fully deterministic), wall-clock mode discards the step's fresh plans and
makes every agent wait whenever phases 1-2 exceed the budget.
"""

from __future__ import annotations

import io
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .assignment import (Agent, AssignmentSet, FlowNetworkBuilder, Task,
                         TaskState, flow_assign, greedy_assign,
                         linear_assignment)
from .cost_models import (AvgWaitCost, EdgeWaitStats, TrafficCost,
                          TrafficState, update_wait_stats)
from .grid_map import DistanceProvider, GridMap
from .planner import GuideHeuristic, pibt_step, update_priorities

STRATEGIES = ("greedy", "linear", "flow")
COST_MODELS = ("unit", "traffic", "avg-wait")
POOL_POLICIES = ("constant-ratio", "per-step")
TASK_DISTRIBUTIONS = ("uniform", "labeled-es")


@dataclass
class SimConfig:
    num_agents: int = 10
    strategy: str = "flow"
    cost_model: str = "unit"
    gamma: float = 0.9
    pool_policy: str = "constant-ratio"
    pool_ratio: float = 1.5
    release_per_step: int = 2
    task_budget: int | None = None
    schedule_period: int = 1
    horizon: int = 1000
    step_budget: float | None = None   # seconds; None = logical mode
    seed: int = 0
    task_distribution: str = "uniform"

    def validate(self) -> None:
        if self.num_agents < 1:
            raise ValueError("num_agents must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.cost_model not in COST_MODELS:
            raise ValueError(f"unknown cost model {self.cost_model!r}")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        if self.pool_policy not in POOL_POLICIES:
            raise ValueError(f"unknown pool policy {self.pool_policy!r}")
        if self.pool_policy == "constant-ratio" and self.pool_ratio <= 0:
            raise ValueError("pool_ratio must be positive")
        if self.pool_policy == "per-step" and self.release_per_step < 1:
            raise ValueError("release_per_step must be >= 1")
        if self.schedule_period < 1:
            raise ValueError("schedule_period must be >= 1")
        if self.horizon < 0:
            raise ValueError("horizon must be nonnegative")
        if self.step_budget is not None and self.step_budget < 0:
            raise ValueError("step budget must be positive when enabled")
        if self.task_distribution not in TASK_DISTRIBUTIONS:
            raise ValueError(f"unknown task distribution {self.task_distribution!r}")


@dataclass
class StepRecord:
    step: int                 # 1-based executed step number
    throughput: int           # cumulative deliveries
    assignment_cost: float    # cost of this step's assignment round (0 off-round)
    solver_time: float        # seconds spent in phases 1-2
    timeouts: int             # cumulative over-budget steps


@dataclass
class SimMetrics:
    throughput: int = 0
    makespan: int | None = None
    timeout_count: int = 0
    vertex_collisions: int = 0
    edge_swaps: int = 0
    total_assignment_cost: float = 0.0
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def solver_times(self) -> list[float]:
        return [r.solver_time for r in self.steps]

    def write_csv(self, out: io.TextIOBase, logical: bool = True) -> None:
        """Per-step CSV. In logical mode the solver-time column is written
        as zero so identical runs stay byte-identical."""
        out.write("step,throughput,assignment_cost,solver_ms,timeouts\n")
        for r in self.steps:
            ms = 0.0 if logical else r.solver_time * 1000.0
            out.write(f"{r.step},{r.throughput},{r.assignment_cost:.6f},"
                      f"{ms:.3f},{r.timeouts}\n")

    def csv_text(self, logical: bool = True) -> str:
        buf = io.StringIO()
        self.write_csv(buf, logical)
        return buf.getvalue()


class Simulation:
    """One lifelong MAPD run on a fixed grid.

    ``preset_starts`` and ``preset_tasks`` pin agent start cells and the
    first task endpoints instead of sampling them; handy for scripted
    scenarios and tests.
    """

    def __init__(self, grid: GridMap, config: SimConfig, trace: bool = False,
                 preset_starts: list[int] | None = None,
                 preset_tasks: list[tuple[int, int]] | None = None):
        config.validate()
        self.grid = grid
        self.config = config
        self.trace_enabled = trace
        self.trace_rows: list[tuple[int, int, int, int, str]] = []
        self.rng = np.random.default_rng(config.seed)
        self._preset_tasks = list(preset_tasks or [])

        if config.num_agents > grid.num_free:
            raise ValueError("more agents than free cells")
        # Tasks must be completable: delivery sampled in the pickup's
        # connected component. Plain ints: task sampling compares labels
        # in a Python loop.
        self._component = grid.component.tolist()
        self._comp_sizes = np.bincount(grid.component[grid.component >= 0]).tolist()
        if config.task_distribution == "labeled-es":
            self._s_cells = grid.cells_with_label("S")
            self._e_cells = grid.cells_with_label("E")
            if not self._s_cells or not self._e_cells:
                raise ValueError("labeled-es task distribution needs 'S' and 'E' cells")
            s_comps = {self._component[c] for c in self._s_cells}
            e_comps = {self._component[c] for c in self._e_cells}
            if not (s_comps & e_comps):
                raise ValueError("no 'S' cell can reach any 'E' cell")
            self._s_weights = self._station_weights()
        elif max(self._comp_sizes, default=0) < 2:
            raise ValueError(
                "uniform task sampling needs at least 2 mutually reachable free cells")

        if preset_starts is not None:
            if len(preset_starts) != config.num_agents:
                raise ValueError("preset_starts must cover every agent")
            if len(set(preset_starts)) != len(preset_starts):
                raise ValueError("preset_starts must be distinct")
            for c in preset_starts:
                if not grid.is_free(c):
                    raise ValueError(f"preset start {c} is not a free cell")
            start_cells = list(preset_starts)
        else:
            picks = self.rng.choice(grid.num_free, size=config.num_agents,
                                    replace=False)
            start_cells = [grid.free_cells[int(c)] for c in picks]
        self.agents = [Agent(id=i, location=c) for i, c in enumerate(start_cells)]
        n = config.num_agents
        self.heuristics: list[GuideHeuristic | None] = [None] * n
        self.priorities = update_priorities([0.0] * n, [False] * n, [False] * n)
        self.wait_counters = [0] * n

        self.tasks: dict[int, Task] = {}
        self.active_ids: list[int] = []   # released, not yet delivered
        self.next_task_id = 0
        self.released = 0
        self.delivered = 0

        self.traffic = TrafficState()
        self.wait_stats = EdgeWaitStats(gamma=config.gamma)
        self.edge_cost = None   # per-edge cost array, evaluated each round
        self._unit_provider = DistanceProvider(grid)
        self.provider = self._unit_provider
        self.builder = FlowNetworkBuilder(grid) if config.strategy == "flow" else None

        self.step_idx = 0
        self.rounds_run = 0
        self.metrics = SimMetrics()
        self._release_tasks()   # initial pool

    # -- task generation ----------------------------------------------------

    def _station_weights(self) -> np.ndarray:
        # Unit distance to the nearest workstation; weight ~ 1 / (1 + distance).
        dist = dijkstra(self.grid.adjacency(), indices=self._e_cells,
                        unweighted=True, min_only=True)[self._s_cells]
        dist[np.isinf(dist)] = self.grid.num_free
        w = 1.0 / (1.0 + dist)
        return w / w.sum()

    def _spawn_task(self) -> Task:
        if self._preset_tasks:
            pickup, delivery = self._preset_tasks.pop(0)
        elif self.config.task_distribution == "labeled-es":
            while True:
                s = self._s_cells[int(self.rng.choice(len(self._s_cells),
                                                      p=self._s_weights))]
                e = self._e_cells[int(self.rng.choice(len(self._e_cells)))]
                if self._component[s] == self._component[e]:
                    break
            # Alternate shelf->station and station->shelf traffic.
            pickup, delivery = (s, e) if self.next_task_id % 2 == 0 else (e, s)
        else:
            cells = self.grid.free_cells
            while True:
                pickup = cells[int(self.rng.choice(len(cells)))]
                if self._comp_sizes[self._component[pickup]] >= 2:
                    break
            delivery = pickup
            while delivery == pickup or self._component[delivery] != self._component[pickup]:
                delivery = cells[int(self.rng.choice(len(cells)))]
        task = Task(id=self.next_task_id, pickup=pickup, delivery=delivery,
                    release_step=self.step_idx)
        self.next_task_id += 1
        self.released += 1
        self.tasks[task.id] = task
        self.active_ids.append(task.id)
        return task

    def _pool_size(self) -> int:
        # Task pool = released tasks not yet picked up.
        return sum(1 for tid in self.active_ids
                   if self.tasks[tid].state in (TaskState.POOLED, TaskState.ASSIGNED))

    def _release_tasks(self) -> None:
        cfg = self.config
        if cfg.pool_policy == "constant-ratio":
            target = math.ceil(cfg.pool_ratio * cfg.num_agents)
            for _ in range(target - self._pool_size()):
                self._spawn_task()
        else:
            budget = cfg.task_budget if cfg.task_budget is not None else 1 << 60
            for _ in range(min(cfg.release_per_step, budget - self.released)):
                self._spawn_task()

    # -- assignment round ----------------------------------------------------

    def _round_cost_model(self):
        cfg = self.config
        if cfg.cost_model == "unit":
            return None
        if cfg.cost_model == "traffic":
            paths = [a.guide_path for a in self.agents
                     if a.is_delivering and a.guide_path]
            self.traffic = TrafficState.from_guide_paths(paths)
            return TrafficCost(self.traffic)
        return AvgWaitCost(self.wait_stats)

    def _plan_round(self) -> tuple[AssignmentSet, list[Agent]]:
        cfg = self.config
        self.rounds_run += 1
        self.edge_cost = self.grid.edge_costs(self._round_cost_model())
        if cfg.cost_model == "unit":
            self.provider = self._unit_provider
        else:
            self.provider = DistanceProvider(self.grid, self.edge_cost)

        if cfg.strategy == "greedy":
            available = [a for a in self.agents if a.is_free]
            pool = [self.tasks[tid] for tid in self.active_ids
                    if self.tasks[tid].state == TaskState.POOLED]
            return greedy_assign(available, pool, self.provider), available
        available = [a for a in self.agents if not a.is_delivering]
        pool = [self.tasks[tid] for tid in self.active_ids
                if self.tasks[tid].state in (TaskState.POOLED, TaskState.ASSIGNED)]
        if cfg.strategy == "linear":
            return linear_assignment(available, pool, self.grid, self.edge_cost), available
        return (flow_assign(self.grid, available, pool, self.edge_cost,
                            builder=self.builder), available)

    def _stage_guide_paths(self, aset: AssignmentSet | None,
                           available: list[Agent] | None) -> dict[int, list[int]]:
        """Phase 2: pickup-leg paths for changed assignments (non-flow) and
        delivery-leg paths for agents that picked up since last step."""
        staged: dict[int, list[int]] = {}
        if aset is not None:
            for agent in available:
                tid = aset.pairs.get(agent.id)
                if tid is None:
                    continue
                if agent.id in aset.guide_paths:        # flow: path comes with it
                    staged[agent.id] = aset.guide_paths[agent.id]
                elif agent.assigned_task != tid or agent.guide_path is None:
                    path = self.provider.shortest_path(
                        agent.location, self.tasks[tid].pickup)
                    if path is None:
                        raise RuntimeError(
                            f"assigned unreachable pickup for agent {agent.id}")
                    staged[agent.id] = path
        for agent in self.agents:
            if agent.is_delivering and agent.guide_path is None:
                task = self.tasks[agent.carried_task]
                path = self.provider.shortest_path(agent.location, task.delivery)
                if path is None:
                    raise RuntimeError(
                        f"agent {agent.id} cannot reach delivery cell")
                staged[agent.id] = path
        return staged

    def _commit_round(self, aset: AssignmentSet, available: list[Agent]) -> None:
        # Release every changed assignment first: a task dropped by one agent
        # may be re-assigned to another agent in the same round.
        for agent in available:
            new_tid = aset.pairs.get(agent.id)
            if agent.assigned_task is not None and agent.assigned_task != new_tid:
                self.tasks[agent.assigned_task].state = TaskState.POOLED
                agent.guide_path = None
                self.heuristics[agent.id] = None
            if new_tid is None:
                agent.assigned_task = None
        for agent in available:
            new_tid = aset.pairs.get(agent.id)
            if new_tid is not None:
                agent.assigned_task = new_tid
                self.tasks[new_tid].state = TaskState.ASSIGNED

    def _commit_paths(self, staged: dict[int, list[int]]) -> None:
        for agent_id, path in staged.items():
            agent = self.agents[agent_id]
            agent.guide_path = path
            self.heuristics[agent_id] = GuideHeuristic(self.grid, path)

    # -- step ----------------------------------------------------------------

    def _goal_of(self, agent: Agent) -> int | None:
        if agent.is_delivering:
            return self.tasks[agent.carried_task].delivery
        if agent.assigned_task is not None:
            return self.tasks[agent.assigned_task].pickup
        return None

    def _verify_step(self, old: list[int], new: list[int]) -> None:
        if len(set(new)) != len(new):
            self.metrics.vertex_collisions += 1
            raise RuntimeError(f"vertex collision at step {self.step_idx}: {new}")
        cell_owner = {c: i for i, c in enumerate(old)}
        for i, (a, b) in enumerate(zip(old, new)):
            if a == b:
                continue
            j = cell_owner.get(b)
            if j is not None and j != i and new[j] == a:
                self.metrics.edge_swaps += 1
                raise RuntimeError(
                    f"edge swap between agents {i} and {j} at step {self.step_idx}")

    def step(self) -> StepRecord:
        cfg = self.config
        t0 = time.perf_counter()
        aset: AssignmentSet | None = None
        available: list[Agent] | None = None
        if self.step_idx % cfg.schedule_period == 0:
            aset, available = self._plan_round()
        staged_paths = self._stage_guide_paths(aset, available)
        solver_time = time.perf_counter() - t0

        timed_out = cfg.step_budget is not None and solver_time > cfg.step_budget
        round_cost = 0.0
        events: list[tuple[tuple[int, int], int]] = []
        reached = [False] * cfg.num_agents

        if timed_out:
            self.metrics.timeout_count += 1
            for i in range(cfg.num_agents):
                self.wait_counters[i] += 1
            if self.trace_enabled:
                for a in self.agents:
                    self.trace_rows.append(
                        (self.step_idx + 1, a.id, a.location, a.location, "timeout"))
        else:
            if aset is not None:
                self._commit_round(aset, available)
                round_cost = aset.total_cost
                self.metrics.total_assignment_cost += round_cost
            self._commit_paths(staged_paths)

            old = [a.location for a in self.agents]
            action = pibt_step(self.grid, old, self.heuristics, self.priorities)
            self._verify_step(old, action.locations)
            for i, agent in enumerate(self.agents):
                agent.location = action.locations[i]
                if action.moved[i]:
                    events.append(((old[i], agent.location), self.wait_counters[i]))
                    self.wait_counters[i] = 0
                else:
                    self.wait_counters[i] += 1
                if self.trace_enabled:
                    kind = "move" if action.moved[i] else "wait"
                    self.trace_rows.append(
                        (self.step_idx + 1, i, old[i], agent.location, kind))

            # Phase 4: pickups and deliveries at the new locations.
            for agent in self.agents:
                if agent.is_delivering:
                    task = self.tasks[agent.carried_task]
                    if agent.location == task.delivery:
                        task.state = TaskState.DELIVERED
                        self.active_ids.remove(task.id)
                        self.delivered += 1
                        agent.carried_task = None
                        agent.assigned_task = None
                        agent.guide_path = None
                        self.heuristics[agent.id] = None
                        reached[agent.id] = True
                elif agent.assigned_task is not None:
                    task = self.tasks[agent.assigned_task]
                    if agent.location == task.pickup:
                        task.state = TaskState.PICKED_UP
                        agent.carried_task = task.id
                        agent.guide_path = None   # delivery leg planned next step
                        self.heuristics[agent.id] = None
                        reached[agent.id] = True

        update_wait_stats(self.wait_stats, events)
        self._release_tasks()

        has_goal = [self._goal_of(a) is not None for a in self.agents]
        self.priorities = update_priorities(self.priorities, reached, has_goal)

        self.step_idx += 1
        record = StepRecord(
            step=self.step_idx, throughput=self.delivered,
            assignment_cost=round_cost, solver_time=solver_time,
            timeouts=self.metrics.timeout_count)
        self.metrics.steps.append(record)
        self.metrics.throughput = self.delivered
        if (cfg.task_budget is not None and self.metrics.makespan is None
                and self.delivered >= cfg.task_budget):
            self.metrics.makespan = self.step_idx
        return record

    def run(self) -> SimMetrics:
        cfg = self.config
        while self.step_idx < cfg.horizon:
            self.step()
            if cfg.task_budget is not None and self.delivered >= cfg.task_budget:
                break
        return self.metrics

    # -- invariants (used heavily by tests) ----------------------------------

    def check_invariants(self) -> None:
        locs = [a.location for a in self.agents]
        assert len(set(locs)) == len(locs), "agents overlap"
        counts = {s: 0 for s in TaskState}
        for t in self.tasks.values():
            counts[t.state] += 1
        assert counts[TaskState.DELIVERED] == self.delivered
        assert len(self.tasks) == self.released
        for agent in self.agents:
            if agent.carried_task is not None:
                assert agent.assigned_task == agent.carried_task
                assert self.tasks[agent.carried_task].state == TaskState.PICKED_UP


def run(grid: GridMap, config: SimConfig, trace: bool = False) -> SimMetrics:
    """Run one simulation to completion and return its metrics."""
    return Simulation(grid, config, trace=trace).run()
