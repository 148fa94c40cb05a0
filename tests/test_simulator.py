import copy
import math
from pathlib import Path

import numpy as np
import pytest

from mapdflow import simulator
from mapdflow.assignment import AssignmentSet, TaskState
from mapdflow.grid_map import DistanceProvider, GridMap, parse_map
from mapdflow.mapgen import random_map, warehouse_map
from mapdflow.planner import ActionStep
from mapdflow.simulator import SimConfig, Simulation

from conftest import (WaitOracle, bfs_distances, directed_edges, fcost_oracle,
                      traffic_oracle)

MAPS = Path(__file__).resolve().parent.parent / "maps"


def line_grid(n):
    return GridMap(n, 1, [True] * n)


def step_and_collect(sim, steps):
    """Step ``sim`` and return every task it held in play at construction
    or after any step, by id. ``sim.tasks`` drops delivered tasks, so this
    is how a test sees every task the run released."""
    seen = dict(sim.tasks)
    for _ in range(steps):
        sim.step()
        seen.update(sim.tasks)
    return seen


def test_config_validation():
    SimConfig().validate()
    for bad in (
        SimConfig(num_agents=0),
        SimConfig(strategy="magic"),
        SimConfig(cost_model="psychic"),
        SimConfig(gamma=0.0),
        SimConfig(pool_policy="sometimes"),
        SimConfig(pool_ratio=0.0),
        SimConfig(pool_policy="per-step", release_per_step=0),
        SimConfig(schedule_period=0),
        SimConfig(horizon=-1),
        SimConfig(task_distribution="everywhere"),
    ):
        with pytest.raises(ValueError):
            bad.validate()


def test_step_budget_must_be_nonnegative():
    # A zero budget is valid: every step with any planning times out.
    SimConfig(step_budget=0.0).validate()
    with pytest.raises(ValueError, match="nonnegative"):
        SimConfig(step_budget=-0.5).validate()


def test_task_budget_must_be_nonnegative():
    # A zero budget is valid: the run ends after its first step.
    SimConfig(pool_policy="per-step", task_budget=0).validate()
    with pytest.raises(ValueError, match="task_budget must be nonnegative"):
        SimConfig(pool_policy="per-step", task_budget=-1).validate()


def test_two_step_pickup_delivery():
    # agent next to the pickup, delivery next to the pickup: delivered at
    # the end of the second step
    grid = line_grid(5)
    cfg = SimConfig(num_agents=1, strategy="flow", pool_ratio=1.0,
                    horizon=2, seed=0)
    sim = Simulation(grid, cfg,
                     preset_starts=[1], preset_tasks=[(2, 3), (4, 3)])
    first = sim.step()
    assert first.throughput == 0
    assert sim.agents[0].location == 2
    second = sim.step()
    assert second.throughput == 1
    assert sim.agents[0].location == 3
    sim.check_invariants()


def test_constant_ratio_pool_topped_up():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=4, pool_ratio=1.5, strategy="greedy", horizon=30, seed=3)
    sim = Simulation(grid, cfg)

    def pool_size():
        return sum(t.state is not TaskState.PICKED_UP for t in sim.tasks.values())

    assert pool_size() == 6  # ceil(1.5 * 4)
    seen = dict(sim.tasks)
    for _ in range(30):
        sim.step()
        seen.update(sim.tasks)
        assert pool_size() == 6
    sim.check_invariants()
    assert len(seen) == sim.released and sim.delivered > 0


def test_per_step_release_respects_budget():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=2, pool_policy="per-step", release_per_step=2,
                    task_budget=5, horizon=10, strategy="greedy", seed=0)
    sim = Simulation(grid, cfg)
    assert sim.released == 2
    sim.step()
    assert sim.released == 4
    sim.step()
    assert sim.released == 5  # clamped by the budget
    sim.step()
    assert sim.released == 5


def test_release_task_sequence_deterministic():
    grid = random_map(10, 10, 0.2, seed=2)
    def endpoints(seed):
        cfg = SimConfig(num_agents=3, horizon=5, strategy="greedy", seed=seed)
        seen = step_and_collect(Simulation(grid, cfg), 5)
        return [(t.pickup, t.delivery) for t in seen.values()]
    assert endpoints(9) == endpoints(9)
    assert endpoints(9) != endpoints(10)


def test_schedule_period_counts_rounds():
    grid = random_map(8, 8, 0.1, seed=1)
    for horizon, k in ((40, 10), (35, 10), (20, 1)):
        cfg = SimConfig(num_agents=3, schedule_period=k, horizon=horizon,
                        strategy="greedy", seed=0)
        sim = Simulation(grid, cfg)
        sim.run()
        assert sim.rounds_run == math.ceil(horizon / k)


def test_logical_mode_no_timeouts():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=3, horizon=50, strategy="flow", seed=0)
    metrics = Simulation(grid, cfg).run()
    assert metrics.timeout_count == 0


def test_zero_budget_times_out_every_step():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=3, horizon=20, strategy="flow", seed=0,
                    step_budget=0.0)
    sim = Simulation(grid, cfg)
    starts = [a.location for a in sim.agents]
    metrics = sim.run()
    assert metrics.timeout_count == 20
    assert metrics.throughput == 0
    assert [a.location for a in sim.agents] == starts  # everyone paused


@pytest.mark.parametrize("cost_model", ["unit", "avg-wait"])
def test_timed_out_steps_trace_every_agent_in_place(cost_model):
    # Wait counts are kept only for the avg-wait model, their one reader.
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=3, horizon=20, strategy="flow", seed=0,
                    cost_model=cost_model, step_budget=0.0)
    sim = Simulation(grid, cfg, trace=True)
    starts = [a.location for a in sim.agents]
    sim.run()
    assert sim.trace_rows == [(step, i, c, c, "timeout")
                              for step in range(1, 21)
                              for i, c in enumerate(starts)]
    assert sim.wait_counters == ([20] * 3 if cost_model == "avg-wait" else None)
    sim.check_invariants()


@pytest.mark.parametrize("cost_model", ["unit", "traffic"])
def test_task_table_stays_bounded_over_a_long_run(cost_model):
    # Delivered tasks leave the table: it holds at most the constant-ratio
    # pool plus one carried task per agent, however many were delivered.
    grid = random_map(10, 10, 0.15, seed=2)
    cfg = SimConfig(num_agents=6, strategy="flow", cost_model=cost_model,
                    pool_ratio=1.5, horizon=300, seed=3)
    sim = Simulation(grid, cfg)
    bound = math.ceil(cfg.pool_ratio * cfg.num_agents) + cfg.num_agents
    for _ in range(cfg.horizon):
        sim.step()
        assert len(sim.tasks) <= bound
    sim.check_invariants()
    assert sim.delivered > 4 * bound


def test_generous_budget_never_times_out():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=3, horizon=20, strategy="flow", seed=0,
                    step_budget=60.0)
    metrics = Simulation(grid, cfg).run()
    assert metrics.timeout_count == 0
    assert metrics.throughput > 0


def test_horizon_zero_throughput_zero():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=2, horizon=0, strategy="flow", seed=0)
    metrics = Simulation(grid, cfg).run()
    assert metrics.throughput == 0
    assert metrics.steps == []


def test_task_conservation_every_step():
    grid = random_map(10, 10, 0.2, seed=5)
    cfg = SimConfig(num_agents=6, strategy="flow", horizon=60, seed=4)
    sim = Simulation(grid, cfg)
    seen = dict(sim.tasks)   # every task released so far
    for _ in range(60):
        sim.step()
        sim.check_invariants()
        seen.update(sim.tasks)
        states = [t.state for t in seen.values()]
        delivered = sum(s == TaskState.DELIVERED for s in states)
        picked = sum(s == TaskState.PICKED_UP for s in states)
        assigned = sum(s == TaskState.ASSIGNED for s in states)
        pooled = sum(s == TaskState.POOLED for s in states)
        assert delivered + picked + assigned + pooled == sim.released
        assert delivered == sim.delivered
        # a task is picked up only while assigned to the carrying agent
        carrying = {a.carried_task for a in sim.agents if a.carried_task is not None}
        assert len(carrying) == picked


def test_flow_round_cost_never_exceeds_greedy_view():
    # per-round optimality: on the same availability view, the flow
    # matching can never cost more than the greedy one
    from mapdflow.assignment import flow_assign, greedy_assign
    from mapdflow.grid_map import DistanceProvider

    grid = random_map(8, 8, 0.15, seed=21)
    cfg = SimConfig(num_agents=5, strategy="flow", horizon=40, seed=3)
    sim = Simulation(grid, cfg)
    provider = DistanceProvider(grid)
    for _ in range(40):
        available = [a for a in sim.agents if not a.is_delivering]
        pool = [t for t in sim.tasks.values()
                if t.state in (TaskState.POOLED, TaskState.ASSIGNED)]
        fa = flow_assign(grid, available, pool)
        ga = greedy_assign(available, pool, provider)
        if len(fa.pairs) == len(ga.pairs):
            assert fa.total_cost <= ga.total_cost + 1e-9
        sim.step()


def test_determinism_byte_identical_csv():
    grid = random_map(10, 10, 0.2, seed=5)
    cfg = SimConfig(num_agents=5, strategy="flow", horizon=40, seed=12)
    a = Simulation(grid, cfg).run().csv_text(logical=True)
    b = Simulation(grid, cfg).run().csv_text(logical=True)
    assert a == b
    assert a.startswith("step,throughput,assignment_cost,solver_ms,timeouts\n")


def test_strategies_complete_tasks_on_warehouse():
    grid = warehouse_map()
    for strategy in ("greedy", "linear", "flow"):
        cfg = SimConfig(num_agents=6, strategy=strategy, horizon=120, seed=2,
                        task_distribution="labeled-es")
        metrics = Simulation(grid, cfg).run()
        assert metrics.throughput > 0, strategy


def test_makespan_mode_release_schedule_lower_bound():
    # 500 tasks at 2 per step cannot finish before step 250
    grid = warehouse_map()
    cfg = SimConfig(num_agents=20, strategy="flow", pool_policy="per-step",
                    release_per_step=2, task_budget=500, horizon=4000, seed=1)
    metrics = Simulation(grid, cfg).run()
    assert metrics.makespan is not None
    assert metrics.makespan >= 250
    assert metrics.throughput == 500


def test_makespan_none_when_unfinished():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=1, strategy="greedy", pool_policy="per-step",
                    release_per_step=5, task_budget=400, horizon=30, seed=0)
    metrics = Simulation(grid, cfg).run()
    assert metrics.makespan is None
    assert len(metrics.steps) == 30


def test_traffic_cost_model_runs_and_uses_guides():
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, strategy="flow", cost_model="traffic",
                    horizon=50, seed=6)
    sim = Simulation(grid, cfg)
    sim.run()
    sim.check_invariants()


def test_avg_wait_cost_model_decays():
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, strategy="flow", cost_model="avg-wait",
                    gamma=0.8, horizon=50, seed=6)
    sim = Simulation(grid, cfg)
    sim.run()
    assert sim.wait_stats.epoch == 50  # one decayed window per step
    sim.check_invariants()


@pytest.mark.parametrize("step_budget", [None, 0.0], ids=["logical", "timeouts"])
def test_wait_stats_decay_once_per_step_off_rounds_included(step_budget):
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, strategy="flow", cost_model="avg-wait",
                    gamma=0.8, schedule_period=3, horizon=50, seed=6,
                    step_budget=step_budget)
    sim = Simulation(grid, cfg)
    sim.run()
    assert sim.rounds_run == 17
    assert sim.wait_stats.epoch == sim.step_idx == 50


@pytest.mark.parametrize("period", [1, 3])
@pytest.mark.parametrize("cost_model", ["traffic", "avg-wait"])
def test_round_costs_equal_a_from_scratch_reference(monkeypatch, cost_model, period):
    # The simulator keeps traffic counts and wait statistics as arrays and
    # updates them only where they change. Each round's cost array must
    # equal the oracle formula on counts built from scratch: traffic
    # counted from the delivering agents' paths at the round, avg-wait from
    # a WaitOracle fed the same events.
    if cost_model == "traffic":
        grid = parse_map(MAPS.joinpath("random32.map").read_text())
        cfg = SimConfig(num_agents=40, cost_model="traffic", horizon=90,
                        schedule_period=period, seed=4)
    else:
        grid = parse_map(MAPS.joinpath("warehouse_21x35.map").read_text())
        cfg = SimConfig(num_agents=60, cost_model="avg-wait", horizon=90,
                        task_distribution="labeled-es", schedule_period=period,
                        seed=4)
    sim = Simulation(grid, cfg)
    reference = WaitOracle(cfg.gamma)
    update = simulator.update_wait_stats

    def update_both(stats, events):
        reference.apply_window(events)
        return update(stats, events)

    monkeypatch.setattr(simulator, "update_wait_stats", update_both)
    edges = directed_edges(grid)
    round_costs = sim._round_cost_model
    highest = []

    def checked_round_costs():
        costs = round_costs()
        if cost_model == "traffic":
            entries, traversals = traffic_oracle(
                a.guide_path for a in sim.agents if a.is_delivering and a.guide_path)
            want = [fcost_oracle(e, entries, traversals) for e in edges]
        else:
            want = [reference.pcost(e) for e in edges]
        assert costs.tolist() == want, f"round at step {sim.step_idx + 1}"
        highest.append(max(want))
        return costs

    monkeypatch.setattr(sim, "_round_cost_model", checked_round_costs)
    sim.run()
    assert len(highest) == sim.rounds_run == -(-90 // period)
    assert sim.delivered > 0 and max(highest) > 1.0


def test_reassignment_only_at_schedule_boundaries():
    grid = random_map(10, 10, 0.1, seed=7)
    cfg = SimConfig(num_agents=4, strategy="flow", schedule_period=5,
                    horizon=40, seed=3)
    sim = Simulation(grid, cfg)
    for step in range(40):
        before = {a.id: a.assigned_task for a in sim.agents}
        sim.step()
        after = {a.id: a.assigned_task for a in sim.agents}
        if step % 5 != 0:
            # between rounds tasks may complete or be picked up, but no
            # agent acquires a different task
            for aid in before:
                if after[aid] is not None and before[aid] is not None:
                    assert after[aid] == before[aid]
                elif before[aid] is None:
                    assert after[aid] is None


def test_labeled_es_requires_labels():
    grid = random_map(8, 8, 0.1, seed=1)  # no labels
    cfg = SimConfig(num_agents=2, task_distribution="labeled-es")
    with pytest.raises(ValueError, match="labeled-es"):
        Simulation(grid, cfg)


def test_labeled_es_alternates_directions():
    grid = warehouse_map()
    s_cells = set(grid.cells_with_label("S"))
    e_cells = set(grid.cells_with_label("E"))
    cfg = SimConfig(num_agents=4, strategy="greedy", horizon=1, seed=8,
                    task_distribution="labeled-es")
    sim = Simulation(grid, cfg)
    for task in sim.tasks.values():
        if task.id % 2 == 0:
            assert task.pickup in s_cells and task.delivery in e_cells
        else:
            assert task.pickup in e_cells and task.delivery in s_cells


def test_labeled_task_draws_match_rng_choice():
    # The shelf of each labeled task is drawn as rng.choice(len(S), p=w)
    # would draw it, with w ~ 1 / (1 + distance to the nearest station):
    # on a copy of the generator, the same tasks come out and both
    # generators end in the same state.
    grid = warehouse_map()
    s_cells, e_cells = grid.cells_with_label("S"), grid.cells_with_label("E")
    tables = [bfs_distances(grid, e) for e in e_cells]
    w = np.array([1.0 / (1.0 + min(t.get(s, grid.num_free) for t in tables))
                  for s in s_cells])
    p = w / w.sum()
    cfg = SimConfig(num_agents=4, strategy="greedy", seed=8,
                    task_distribution="labeled-es")
    sim = Simulation(grid, cfg)
    ref = copy.deepcopy(sim.rng)
    for _ in range(5000):
        task = sim._spawn_task()
        while True:
            s = s_cells[int(ref.choice(len(s_cells), p=p))]
            e = e_cells[int(ref.integers(0, len(e_cells)))]
            if grid.component[s] == grid.component[e]:
                break
        expected = (s, e) if task.id % 2 == 0 else (e, s)
        assert (task.pickup, task.delivery) == expected
    assert ref.bit_generator.state == sim.rng.bit_generator.state


def test_too_many_agents_rejected():
    grid = line_grid(3)
    with pytest.raises(ValueError, match="free cells"):
        Simulation(grid, SimConfig(num_agents=5))


def test_disconnected_map_tasks_stay_within_components():
    # two islands; every sampled task must be completable, and agents on
    # both islands keep working without ever crossing
    grid = GridMap(7, 1, [True, True, True, False, True, True, True])
    cfg = SimConfig(num_agents=2, strategy="flow", horizon=40, seed=2)
    sim = Simulation(grid, cfg, preset_starts=[0, 4])
    comp = sim._component
    seen = step_and_collect(sim, 40)
    for task in seen.values():
        assert comp[task.pickup] == comp[task.delivery]
    assert sim.metrics.throughput > 0
    sim.check_invariants()


def test_single_free_cell_uniform_sampling_rejected():
    grid = GridMap(3, 1, [True, False, True])  # two isolated cells
    with pytest.raises(ValueError, match="mutually reachable"):
        Simulation(grid, SimConfig(num_agents=1))


def test_preset_tasks_consumed_in_order():
    grid = line_grid(6)
    cfg = SimConfig(num_agents=1, pool_ratio=2.0, horizon=1, seed=0)
    sim = Simulation(grid, cfg, preset_starts=[0],
                     preset_tasks=[(1, 2), (3, 4)])
    assert [(t.pickup, t.delivery) for t in sim.tasks.values()] == [(1, 2), (3, 4)]


@pytest.mark.parametrize("preset", [(0, 4), (2, 0), (0, 2), (3, 3)],
                         ids=["other-component", "blocked-pickup",
                              "blocked-delivery", "one-cell"])
def test_preset_task_validated_at_construction(preset):
    grid = parse_map("type octile\nheight 1\nwidth 5\nmap\n..@..\n")
    cfg = SimConfig(num_agents=1, pool_ratio=1.0, horizon=5, seed=0)
    with pytest.raises(ValueError, match="preset task"):
        Simulation(grid, cfg, preset_starts=[1], preset_tasks=[preset])


@pytest.mark.parametrize("strategy", ["flow", "greedy", "linear"])
def test_avg_wait_costs_are_a_round_snapshot(monkeypatch, strategy):
    # A delivery leg staged between rounds must descend the table it was
    # computed from: with live avg-wait costs this setup failed at step 4
    # ("distance table descent did not terminate"). Only the traffic model
    # stages delivery legs, so that is the model run here.
    grid = parse_map(MAPS.joinpath("warehouse_21x35.map").read_text())
    cfg = SimConfig(num_agents=150, strategy=strategy, cost_model="traffic",
                    task_distribution="labeled-es", schedule_period=4,
                    horizon=10, seed=2)
    sim = Simulation(grid, cfg)
    real_stage = Simulation._stage_guide_paths
    off_round_legs = 0

    def counted_stage(self):
        nonlocal off_round_legs
        staged = real_stage(self)
        if self.step_idx % cfg.schedule_period:
            off_round_legs += len(staged)
        return staged

    monkeypatch.setattr(Simulation, "_stage_guide_paths", counted_stage)
    sim.run()
    assert sim.step_idx == 10
    assert off_round_legs > 0
    sim.check_invariants()


@pytest.mark.parametrize("starts, targets, match", [
    ([2], [7], "illegal move"),
    ([2], [3], "illegal move"),
    ([1, 2], [2, 2], "vertex collision"),
    ([1, 2], [2, 1], "edge swap"),
], ids=["teleport", "into-wall", "vertex-collision", "edge-swap"])
def test_verify_step_rejects_illegal_move(monkeypatch, starts, targets, match):
    # ...@      The agent at cell 2 may only reach 1 or 6 in one step:
    # ....      7 is free but not adjacent, 3 is adjacent but blocked.
    #           Two agents at 1 and 2 make legal single moves that end on
    #           one cell or swap the two cells.
    grid = parse_map("type octile\nheight 2\nwidth 4\nmap\n...@\n....\n")
    cfg = SimConfig(num_agents=len(starts), pool_ratio=1.0, horizon=1, seed=0)
    sim = Simulation(grid, cfg, preset_starts=starts,
                     preset_tasks=[(5, 4), (4, 5)][:len(starts)])

    def illegal_step(grid, locations, heuristics, priorities):
        return ActionStep(locations=list(targets),
                          moved=[a != b for a, b in zip(starts, targets)])

    monkeypatch.setattr(simulator, "pibt_step", illegal_step)
    with pytest.raises(RuntimeError, match=match):
        sim.step()


@pytest.mark.parametrize("strategy", ["flow", "greedy", "linear"])
@pytest.mark.parametrize("pool_policy", ["constant-ratio", "per-step"])
def test_pool_counter_matches_task_states(strategy, pool_policy):
    # check_invariants compares the task table with the release, pickup
    # and delivery counters and with the agents' tasks after each step.
    grid = random_map(10, 10, 0.2, seed=7)
    cfg = SimConfig(num_agents=5, strategy=strategy, pool_policy=pool_policy,
                    schedule_period=2, horizon=40, seed=1)
    sim = Simulation(grid, cfg)
    sim.check_invariants()
    for _ in range(40):
        sim.step()
        sim.check_invariants()
    assert sim.delivered > 0


@pytest.mark.parametrize("fault", ["traffic-count", "pickup-counter",
                                   "delivered-in-table", "held-but-pooled",
                                   "held-twice", "path-without-load"])
def test_check_invariants_catches_a_broken_fact(fault):
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, strategy="greedy", cost_model="traffic",
                    pool_ratio=2.0, horizon=12, seed=6)
    sim = Simulation(grid, cfg)
    sim.run()
    sim.check_invariants()
    carrier = next(a for a in sim.agents if a.guide_path)
    walker = next(a for a in sim.agents
                  if a.assigned_task is not None and not a.is_delivering)
    if fault == "traffic-count":
        sim.traffic.entry_counts[carrier.guide_path[-1]] += 1
    elif fault == "pickup-counter":
        sim.picked_up += 1
    elif fault == "delivered-in-table":
        next(t for t in sim.tasks.values()
             if t.state is TaskState.POOLED).state = TaskState.DELIVERED
    elif fault == "held-but-pooled":
        sim.tasks[walker.assigned_task].state = TaskState.POOLED
    elif fault == "held-twice":
        next(a for a in sim.agents if a.is_free).assigned_task = walker.assigned_task
    else:
        walker.guide_path = [walker.location]
    with pytest.raises(AssertionError):
        sim.check_invariants()


def test_check_invariants_rejects_a_guide_path_without_traffic_state():
    # Only the traffic model stages guide paths, so under any other model
    # a held path has no counts to agree with, even a one-cell path that
    # counts would not see.
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, pool_ratio=2.0, horizon=12, seed=6)
    sim = Simulation(grid, cfg)
    sim.run()
    sim.check_invariants()
    carrier = next(a for a in sim.agents if a.is_delivering)
    carrier.guide_path = [carrier.location]
    with pytest.raises(AssertionError):
        sim.check_invariants()


@pytest.mark.parametrize("cost_model", simulator.COST_MODELS)
@pytest.mark.parametrize("strategy", simulator.STRATEGIES)
def test_each_configuration_holds_only_the_state_it_reads(strategy, cost_model):
    # Wait statistics and wait counts have one reader, the avg-wait model;
    # traffic counts one, the traffic model; the flow builder one, the flow
    # strategy. A distance provider lives across rounds only under greedy
    # and unit cost; greedy under a cost model and the traffic model's
    # staging get a costed one each round.
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, strategy=strategy, cost_model=cost_model,
                    horizon=10, seed=6)
    sim = Simulation(grid, cfg)
    assert (sim.wait_stats is not None) == (cost_model == "avg-wait")
    assert (sim.wait_counters is not None) == (cost_model == "avg-wait")
    assert (sim.traffic is not None) == (cost_model == "traffic")
    assert (sim.builder is not None) == (strategy == "flow")
    assert (sim.provider is not None) == (strategy == "greedy" and cost_model == "unit")
    sim.run()
    sim.check_invariants()
    assert (sim.provider is not None) == (strategy == "greedy" or cost_model == "traffic")


def test_agents_with_one_goal_share_one_heuristic(monkeypatch):
    grid = parse_map(MAPS.joinpath("warehouse_21x35.map").read_text())
    cfg = SimConfig(num_agents=60, cost_model="avg-wait",
                    task_distribution="labeled-es", horizon=40, seed=5)
    sim = Simulation(grid, cfg)
    shared_steps = 0
    last_step = {}   # goal -> heuristic at the previous step
    real_step = simulator.pibt_step

    def checked_step(grid, locations, heuristics, priorities):
        nonlocal shared_steps, last_step
        by_goal = {}
        for agent, h in zip(sim.agents, heuristics):
            goal = sim._goal_of(agent)
            assert (h is None) == (goal is None)
            if h is not None:
                assert h.goal == goal
                assert by_goal.setdefault(goal, h) is h
                assert last_step.get(goal, h) is h   # kept while still a goal
        assert set(sim._fields) == set(by_goal)   # no field outlives its goal
        if len(by_goal) < sum(h is not None for h in heuristics):
            shared_steps += 1
        last_step = by_goal
        return real_step(grid, locations, heuristics, priorities)

    monkeypatch.setattr(simulator, "pibt_step", checked_step)
    sim.run()
    assert sim.step_idx == 40
    assert shared_steps > 0


@pytest.mark.parametrize("period", [1, 3])
@pytest.mark.parametrize("strategy", ["flow", "greedy"])
def test_unit_tables_cached_only_for_active_task_endpoints(monkeypatch, strategy,
                                                           period):
    # A greedy round drops the unit tables of goals no released, undelivered
    # task has, and its pickup costs add only such goals. Under flow no
    # table has a reader, so there is no provider to cache one.
    grid = random_map(24, 24, 0.2, seed=3)
    cfg = SimConfig(num_agents=20, strategy=strategy, schedule_period=period,
                    horizon=60, seed=4)
    sim = Simulation(grid, cfg)
    rounds = 0
    real_stage = Simulation._stage_guide_paths

    def checked_stage(self):
        nonlocal rounds
        staged = real_stage(self)
        if self.step_idx % period == 0:   # this step ran a round
            rounds += 1
            if strategy == "flow":
                assert self.provider is None
            else:
                endpoints = {c for t in self.tasks.values()
                             for c in (t.pickup, t.delivery)}
                assert set(self.provider._tables) <= endpoints
        return staged

    monkeypatch.setattr(Simulation, "_stage_guide_paths", checked_stage)
    sim.run()
    assert rounds == sim.rounds_run == math.ceil(60 / period)
    assert sim.delivered > 0


@pytest.mark.parametrize("cost_model", ["unit", "traffic", "avg-wait"])
@pytest.mark.parametrize("strategy", ["flow", "greedy", "linear"])
def test_paths_staged_only_where_read(monkeypatch, strategy, cost_model):
    # Staged paths have one reader, the traffic model's counts of delivery
    # legs. Under traffic each path is one delivery leg, descended the step
    # after the pickup from the pickup cell; no other model descends any.
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, strategy=strategy, cost_model=cost_model,
                    horizon=40, seed=6)
    sim = Simulation(grid, cfg)
    calls = []
    real_path = DistanceProvider.shortest_path

    def counted_path(self, source, goal):
        calls.append((source, goal))
        return real_path(self, source, goal)

    monkeypatch.setattr(DistanceProvider, "shortest_path", counted_path)
    seen = step_and_collect(sim, 40)
    sim._stage_guide_paths()   # the legs of the last step's pickups
    picked = [(t.pickup, t.delivery) for t in seen.values()
              if t.state in (TaskState.PICKED_UP, TaskState.DELIVERED)]
    assert picked
    if cost_model == "traffic":
        assert sorted(calls) == sorted(picked)
    else:
        assert calls == []


@pytest.mark.parametrize("cost_model", ["unit", "traffic"])
def test_wait_stats_untouched_without_avg_wait(cost_model):
    grid = random_map(12, 12, 0.15, seed=3)
    cfg = SimConfig(num_agents=8, cost_model=cost_model, horizon=30, seed=6)
    sim = Simulation(grid, cfg)
    sim.run()
    assert sim.delivered > 0
    assert sim.wait_stats is None


@pytest.mark.parametrize("strategy", ["flow", "greedy", "linear"])
def test_assignment_across_components_raises(monkeypatch, strategy):
    # ...@...   The agent on the left island is paired with the pickup on
    #           the right one, which no path reaches.
    grid = GridMap(7, 1, [True, True, True, False, True, True, True])
    cfg = SimConfig(num_agents=1, strategy=strategy, pool_ratio=1.0,
                    horizon=5, seed=0)
    sim = Simulation(grid, cfg, preset_starts=[0], preset_tasks=[(4, 6)])
    assign = {"flow": "flow_assign", "greedy": "greedy_assign",
              "linear": "linear_assignment"}[strategy]
    monkeypatch.setattr(simulator, assign,
                        lambda *args, **kwargs: AssignmentSet(pairs={0: 0}))
    with pytest.raises(RuntimeError, match="assigned unreachable pickup for agent 0"):
        sim.step()


def test_pickup_with_unreachable_delivery_raises():
    grid = GridMap(7, 1, [True, True, True, False, True, True, True])
    cfg = SimConfig(num_agents=1, pool_ratio=1.0, horizon=5, seed=0)
    sim = Simulation(grid, cfg, preset_starts=[0], preset_tasks=[(1, 2)])
    sim.tasks[0].delivery = 5   # on the other island
    with pytest.raises(RuntimeError, match="agent 0 cannot reach delivery cell"):
        sim.run()
    assert sim.step_idx == 0
