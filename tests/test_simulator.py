import math
from pathlib import Path

import pytest

from mapdflow.assignment import TaskState
from mapdflow.grid_map import GridMap, parse_map
from mapdflow.mapgen import random_map, warehouse_map
from mapdflow.simulator import SimConfig, Simulation, run

MAPS = Path(__file__).resolve().parent.parent / "maps"


def line_grid(n):
    return GridMap(n, 1, [True] * n)


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
    assert sim._pool_size() == 6  # ceil(1.5 * 4)
    for _ in range(30):
        sim.step()
        assert sim._pool_size() == 6
    sim.check_invariants()


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
        sim = Simulation(grid, cfg)
        for _ in range(5):
            sim.step()
        return [(t.pickup, t.delivery) for t in sim.tasks.values()]
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
    metrics = run(grid, cfg)
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


def test_generous_budget_never_times_out():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=3, horizon=20, strategy="flow", seed=0,
                    step_budget=60.0)
    metrics = run(grid, cfg)
    assert metrics.timeout_count == 0
    assert metrics.throughput > 0


def test_horizon_zero_throughput_zero():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=2, horizon=0, strategy="flow", seed=0)
    metrics = run(grid, cfg)
    assert metrics.throughput == 0
    assert metrics.steps == []


def test_task_conservation_every_step():
    grid = random_map(10, 10, 0.2, seed=5)
    cfg = SimConfig(num_agents=6, strategy="flow", horizon=60, seed=4)
    sim = Simulation(grid, cfg)
    for _ in range(60):
        sim.step()
        sim.check_invariants()
        states = [t.state for t in sim.tasks.values()]
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
        pool = [sim.tasks[t] for t in sim.active_ids
                if sim.tasks[t].state in (TaskState.POOLED, TaskState.ASSIGNED)]
        fa = flow_assign(grid, available, pool)
        ga = greedy_assign(available, pool, provider)
        if len(fa.pairs) == len(ga.pairs):
            assert fa.total_cost <= ga.total_cost + 1e-9
        sim.step()


def test_determinism_byte_identical_csv():
    grid = random_map(10, 10, 0.2, seed=5)
    cfg = SimConfig(num_agents=5, strategy="flow", horizon=40, seed=12)
    a = run(grid, cfg).csv_text(logical=True)
    b = run(grid, cfg).csv_text(logical=True)
    assert a == b
    assert a.startswith("step,throughput,assignment_cost,solver_ms,timeouts\n")


def test_strategies_complete_tasks_on_warehouse():
    grid = warehouse_map()
    for strategy in ("greedy", "linear", "flow"):
        cfg = SimConfig(num_agents=6, strategy=strategy, horizon=120, seed=2,
                        task_distribution="labeled-es")
        metrics = run(grid, cfg)
        assert metrics.throughput > 0, strategy
        assert metrics.vertex_collisions == 0
        assert metrics.edge_swaps == 0


def test_makespan_mode_release_schedule_lower_bound():
    # 500 tasks at 2 per step cannot finish before step 250
    grid = warehouse_map()
    cfg = SimConfig(num_agents=20, strategy="flow", pool_policy="per-step",
                    release_per_step=2, task_budget=500, horizon=4000, seed=1)
    metrics = run(grid, cfg)
    assert metrics.makespan is not None
    assert metrics.makespan >= 250
    assert metrics.throughput == 500


def test_makespan_none_when_unfinished():
    grid = random_map(8, 8, 0.1, seed=1)
    cfg = SimConfig(num_agents=1, strategy="greedy", pool_policy="per-step",
                    release_per_step=5, task_budget=400, horizon=30, seed=0)
    metrics = run(grid, cfg)
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
    metrics = sim.run()
    for task in sim.tasks.values():
        assert comp[task.pickup] == comp[task.delivery]
    assert metrics.throughput > 0
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


@pytest.mark.parametrize("strategy", ["flow", "greedy", "linear"])
def test_avg_wait_costs_are_a_round_snapshot(strategy):
    # Wait statistics change every step, but a delivery leg staged between
    # rounds must descend the table it was computed from: with live costs
    # this setup failed at step 4 ("distance table descent did not terminate").
    grid = parse_map(MAPS.joinpath("warehouse_21x35.map").read_text())
    cfg = SimConfig(num_agents=150, strategy=strategy, cost_model="avg-wait",
                    task_distribution="labeled-es", schedule_period=4,
                    horizon=10, seed=2)
    sim = Simulation(grid, cfg)
    sim.run()
    assert sim.step_idx == 10
    sim.check_invariants()
