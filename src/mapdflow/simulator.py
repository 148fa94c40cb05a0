"""Lifelong MAPD simulation: task release, periodic assignment, PIBT
execution, congestion statistics, and metrics.

Each step runs a fixed phase order: (1) on scheduling rounds, evaluate
the cost model into one per-edge cost array and solve the configured
assignment strategy; (2) under the traffic model only, stage the
delivery-leg path of each agent that picked up since the last step, the
one path a later phase reads (the next round's traffic counts); (3)
execute one PIBT step, which steers by one unit-distance field per goal;
(4) detect pickups/deliveries; (5) under the avg-wait model only, update
the decayed wait statistics; (6) release tasks; (7) record metrics.

``Simulation.tasks`` holds the tasks in play (released, not yet
delivered) in release order. Cost-model state exists only under the model
that reads it: traffic counts under traffic, which change where a step
sets an agent's guide path and where a delivery clears it, and wait
statistics under avg-wait.

Edge costs are a per-round snapshot: the solver and every delivery leg
staged until the next round use the array evaluated at the round.

Two time modes exist: logical mode ignores the per-step budget entirely
(fully deterministic), wall-clock mode discards the step's fresh plans
whenever phases 1-2 exceed the budget. Such a step commits nothing and
skips PIBT; every agent waits, through the same move, trace and
pickup/delivery code as a planned step.
"""

from __future__ import annotations

import io
import math
import time
from bisect import bisect_right
from collections import Counter
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
            raise ValueError("step budget must be nonnegative when enabled")
        if self.task_budget is not None and self.task_budget < 0:
            raise ValueError("task_budget must be nonnegative")
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
            self._s_cdf = self._station_cdf()
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
        for pickup, delivery in self._preset_tasks:
            if not (grid.is_free(pickup) and grid.is_free(delivery)
                    and pickup != delivery
                    and self._component[pickup] == self._component[delivery]):
                raise ValueError(f"preset task ({pickup}, {delivery}) needs two "
                                 "free cells in one connected component")
        self.agents = [Agent(id=i, location=c) for i, c in enumerate(start_cells)]
        n = config.num_agents
        self._fields: dict[int, GuideHeuristic] = {}   # goal -> its heuristic
        self.priorities = update_priorities([0.0] * n, [False] * n, [False] * n)

        # The tasks in play: released, not yet delivered, in release order.
        # The pool is those not picked up.
        self.tasks: dict[int, Task] = {}
        self.next_task_id = 0
        self.released = 0
        self.picked_up = 0
        self.delivered = 0

        # Each state exists only under the configuration that reads it:
        # wait statistics, and each agent's count of steps waited since it
        # last moved, under avg-wait; the counts of the agents' guide paths,
        # changed where a path is set or cleared, under traffic.
        avg_wait = config.cost_model == "avg-wait"
        self.wait_stats = EdgeWaitStats(grid, gamma=config.gamma) if avg_wait else None
        self.wait_counters = [0] * n if avg_wait else None
        self.traffic = TrafficState(grid) if config.cost_model == "traffic" else None
        self.edge_cost = None   # per-edge cost array, evaluated each round
        # Distance tables have two readers: greedy's pickup costs and the
        # traffic model's delivery legs. Only greedy under unit cost keeps
        # tables across rounds; every other reader gets a costed provider
        # each round.
        self.provider = (DistanceProvider(grid) if config.strategy == "greedy"
                         and config.cost_model == "unit" else None)
        self.builder = FlowNetworkBuilder(grid) if config.strategy == "flow" else None

        self.step_idx = 0
        self.rounds_run = 0
        self.metrics = SimMetrics()
        self._release_tasks()   # initial pool

    # -- task generation ----------------------------------------------------

    def _station_cdf(self) -> list[float]:
        # Unit distance to the nearest workstation; weight ~ 1 / (1 + distance).
        dist = dijkstra(self.grid.unit_graph, indices=self._e_cells,
                        unweighted=True, min_only=True)[self._s_cells]
        dist[np.isinf(dist)] = self.grid.num_free
        w = 1.0 / (1.0 + dist)
        # The table rng.choice(len(w), p=w / w.sum()) builds on every call;
        # bisect_right over it on rng.random() draws the same index.
        cdf = (w / w.sum()).cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

    def _spawn_task(self) -> Task:
        if self._preset_tasks:
            pickup, delivery = self._preset_tasks.pop(0)
        elif self.config.task_distribution == "labeled-es":
            while True:
                s = self._s_cells[bisect_right(self._s_cdf, self.rng.random())]
                e = self._e_cells[int(self.rng.integers(0, len(self._e_cells)))]
                if self._component[s] == self._component[e]:
                    break
            # Alternate shelf->station and station->shelf traffic.
            pickup, delivery = (s, e) if self.next_task_id % 2 == 0 else (e, s)
        else:
            cells = self.grid.free_cells
            while True:
                pickup = cells[int(self.rng.integers(0, len(cells)))]
                if self._comp_sizes[self._component[pickup]] >= 2:
                    break
            delivery = pickup
            while delivery == pickup or self._component[delivery] != self._component[pickup]:
                delivery = cells[int(self.rng.integers(0, len(cells)))]
        task = Task(id=self.next_task_id, pickup=pickup, delivery=delivery,
                    release_step=self.step_idx)
        self.next_task_id += 1
        self.released += 1
        self.tasks[task.id] = task
        return task

    def _release_tasks(self) -> None:
        cfg = self.config
        if cfg.pool_policy == "constant-ratio":
            target = math.ceil(cfg.pool_ratio * cfg.num_agents)
            for _ in range(target - (self.released - self.picked_up)):
                self._spawn_task()
        else:
            budget = cfg.task_budget if cfg.task_budget is not None else 1 << 60
            for _ in range(min(cfg.release_per_step, budget - self.released)):
                self._spawn_task()

    # -- assignment round ----------------------------------------------------

    def _round_cost_model(self) -> np.ndarray:
        """The round's edge costs: the cost model evaluated over every edge."""
        cfg = self.config
        if cfg.cost_model == "unit":
            model = None
        elif cfg.cost_model == "traffic":
            model = TrafficCost(self.traffic)
        else:
            model = AvgWaitCost(self.wait_stats)
        return self.grid.edge_costs(model)

    def _plan_round(self) -> tuple[AssignmentSet, list[Agent]]:
        cfg = self.config
        self.rounds_run += 1
        self.edge_cost = self._round_cost_model()
        if cfg.strategy == "greedy" and cfg.cost_model == "unit":
            # Unit tables outlive the round only for goals still in play.
            self.provider.retain({c for t in self.tasks.values()
                                  for c in (t.pickup, t.delivery)})
        elif cfg.strategy == "greedy" or cfg.cost_model == "traffic":
            self.provider = DistanceProvider(self.grid, self.edge_cost)

        # Enum members bound to locals: reading one off the class in the
        # loop costs more than the loop's own test.
        pooled, picked_up = TaskState.POOLED, TaskState.PICKED_UP
        if cfg.strategy == "greedy":
            available = [a for a in self.agents if a.is_free]
            pool = [t for t in self.tasks.values() if t.state is pooled]
            return greedy_assign(available, pool, self.provider), available
        available = [a for a in self.agents if not a.is_delivering]
        pool = [t for t in self.tasks.values() if t.state is not picked_up]
        if cfg.strategy == "linear":
            return linear_assignment(available, pool, self.grid, self.edge_cost), available
        return (flow_assign(self.grid, available, pool, self.edge_cost,
                            builder=self.builder), available)

    def _stage_guide_paths(self) -> dict[int, list[int]]:
        """Phase 2: the delivery-leg path of each agent that picked up since
        the last step, descended from the round's costed tables.

        Staged paths have one reader, the next traffic round's counts of
        the delivering agents' paths, so no other model stages any. PIBT
        steers by the goal alone, and pickup legs are never counted.
        """
        if self.config.cost_model != "traffic":
            return {}
        return {agent.id: self.provider.shortest_path(
                    agent.location, self.tasks[agent.carried_task].delivery)
                for agent in self.agents
                if agent.is_delivering and agent.guide_path is None}

    def _commit_round(self, aset: AssignmentSet, available: list[Agent]) -> None:
        # Release every changed assignment first: a task dropped by one agent
        # may be re-assigned to another agent in the same round.
        for agent in available:
            new_tid = aset.pairs.get(agent.id)
            if agent.assigned_task is not None and agent.assigned_task != new_tid:
                self.tasks[agent.assigned_task].state = TaskState.POOLED
            if new_tid is None:
                agent.assigned_task = None
        component = self._component
        for agent in available:
            new_tid = aset.pairs.get(agent.id)
            if new_tid is not None:
                if component[self.tasks[new_tid].pickup] != component[agent.location]:
                    raise RuntimeError(
                        f"assigned unreachable pickup for agent {agent.id}")
                agent.assigned_task = new_tid
                self.tasks[new_tid].state = TaskState.ASSIGNED

    # -- step ----------------------------------------------------------------

    def _goal_of(self, agent: Agent) -> int | None:
        if agent.is_delivering:
            return self.tasks[agent.carried_task].delivery
        if agent.assigned_task is not None:
            return self.tasks[agent.assigned_task].pickup
        return None

    def _verify_step(self, old: list[int], new: list[int]) -> None:
        for i, (a, b) in enumerate(zip(old, new)):
            if a != b and b not in self.grid.neighbors(a):
                raise RuntimeError(
                    f"illegal move of agent {i} from {a} to {b} at step {self.step_idx}")
        if len(set(new)) != len(new):
            raise RuntimeError(f"vertex collision at step {self.step_idx}: {new}")
        cell_owner = {c: i for i, c in enumerate(old)}
        for i, (a, b) in enumerate(zip(old, new)):
            if a == b:
                continue
            j = cell_owner.get(b)
            if j is not None and j != i and new[j] == a:
                raise RuntimeError(
                    f"edge swap between agents {i} and {j} at step {self.step_idx}")

    def step(self) -> StepRecord:
        cfg = self.config
        t0 = time.perf_counter()
        aset: AssignmentSet | None = None
        available: list[Agent] | None = None
        if self.step_idx % cfg.schedule_period == 0:
            aset, available = self._plan_round()
        staged_paths = self._stage_guide_paths()
        solver_time = time.perf_counter() - t0

        timed_out = cfg.step_budget is not None and solver_time > cfg.step_budget
        round_cost = 0.0
        old = [a.location for a in self.agents]
        if timed_out:
            # The fresh plans are dropped and every agent waits.
            self.metrics.timeout_count += 1
            goals = [self._goal_of(a) for a in self.agents]
            new, moved = old, [False] * cfg.num_agents
        else:
            if aset is not None:
                self._commit_round(aset, available)
                round_cost = aset.total_cost
                self.metrics.total_assignment_cost += round_cost
            for agent_id, path in staged_paths.items():
                self.agents[agent_id].guide_path = path
            if staged_paths:
                self.traffic.add(staged_paths.values())

            # One heuristic per goal: kept while some agent heads there.
            goals = [self._goal_of(a) for a in self.agents]
            kept = self._fields
            self._fields = {g: kept[g] if g in kept else GuideHeuristic(self.grid, g)
                            for g in set(goals) - {None}}
            heuristics = [self._fields.get(g) for g in goals]
            action = pibt_step(self.grid, old, heuristics, self.priorities)
            self._verify_step(old, action.locations)
            new, moved = action.locations, action.moved

        waits = self.wait_counters
        if waits is not None:
            events = [((old[i], new[i]), waits[i])
                      for i in range(cfg.num_agents) if moved[i]]
            for i in range(cfg.num_agents):
                waits[i] = 0 if moved[i] else waits[i] + 1
        for i, agent in enumerate(self.agents):
            agent.location = new[i]
            if self.trace_enabled:
                kind = "timeout" if timed_out else "move" if moved[i] else "wait"
                self.trace_rows.append((self.step_idx + 1, i, old[i], new[i], kind))

        # Phase 4: pickups and deliveries at the new locations. A pickup
        # swaps the goal for the delivery cell; a delivery clears it. After
        # a timed-out step nothing is found: no location or assignment
        # changed since the last pass.
        reached = [False] * cfg.num_agents
        has_goal = [g is not None for g in goals]
        cleared = []
        for agent in self.agents:
            if agent.is_delivering:
                task = self.tasks[agent.carried_task]
                if agent.location == task.delivery:
                    task.state = TaskState.DELIVERED
                    del self.tasks[task.id]
                    self.delivered += 1
                    if agent.guide_path is not None:
                        cleared.append(agent.guide_path)
                    agent.carried_task = None
                    agent.assigned_task = None
                    agent.guide_path = None
                    reached[agent.id] = True
                    has_goal[agent.id] = False
            elif agent.assigned_task is not None:
                task = self.tasks[agent.assigned_task]
                if agent.location == task.pickup:
                    if self._component[task.delivery] != self._component[task.pickup]:
                        raise RuntimeError(
                            f"agent {agent.id} cannot reach delivery cell")
                    task.state = TaskState.PICKED_UP
                    self.picked_up += 1
                    agent.carried_task = task.id
                    reached[agent.id] = True
        if cleared:
            self.traffic.remove(cleared)

        if cfg.cost_model == "avg-wait":
            update_wait_stats(self.wait_stats, events)
        self._release_tasks()

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
        """Assert that the task table, the counters, the agents' tasks and
        the traffic counts agree, in time linear in the agents and the
        tasks in play. Each held task is in the table, held once, and
        picked up exactly when its agent carries it. With no traffic state
        no agent holds a guide path."""
        locs = [a.location for a in self.agents]
        assert len(set(locs)) == len(locs), "agents overlap"
        tasks = self.tasks
        assert len(tasks) == self.released - self.delivered
        holders: dict[int, int] = {}
        for agent in self.agents:
            tid = agent.assigned_task
            assert agent.carried_task in (None, tid)
            assert agent.guide_path is None or agent.is_delivering
            if tid is not None:
                assert holders.setdefault(tid, agent.id) == agent.id, "task held twice"
                assert tasks[tid].state is (TaskState.PICKED_UP if agent.is_delivering
                                            else TaskState.ASSIGNED)
        states = Counter(t.state for t in tasks.values())
        assert states[TaskState.DELIVERED] == 0
        assert states[TaskState.ASSIGNED] + states[TaskState.PICKED_UP] == len(holders)
        assert len(tasks) - states[TaskState.PICKED_UP] == self.released - self.picked_up
        if self.traffic is None:
            assert all(a.guide_path is None for a in self.agents), \
                "guide path held with no traffic state"
            return
        fresh = TrafficState(self.grid)
        fresh.add(a.guide_path for a in self.agents if a.guide_path)
        assert np.array_equal(fresh.entry_counts, self.traffic.entry_counts)
        assert np.array_equal(fresh.traversal_counts, self.traffic.traversal_counts)
