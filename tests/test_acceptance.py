"""Acceptance suite: every criterion runs at its stated tolerance and
prints one PASS/FAIL line.

Heavy simulation batches fan out over worker processes (each simulation is
internally sequential and deterministic, so results are independent of
worker scheduling).
"""

import concurrent.futures
import math
import os
import random
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mapdflow.assignment import Agent, Task, flow_assign, linear_assignment
from mapdflow.cli import bench_scaling, run_cli
from mapdflow.mapgen import random_map, warehouse_map
from mapdflow.mincost_flow import FlowInfeasibleError, solve_min_cost_flow
from mapdflow.simulator import SimConfig, Simulation

from conftest import (assignment_oracle, bfs_distances, directed_edges,
                      flow_cost_oracle, max_flow_oracle, random_flow_network,
                      residual_has_negative_cycle)

WORKERS = min(12, os.cpu_count() or 1)


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} ({name}): PASS")


def _random_instance(rng, real_costs=False):
    while True:
        grid = random_map(rng.randint(4, 10), rng.randint(4, 10),
                          obstacle_density=0.2, seed=rng.randint(0, 10 ** 9))
        if grid.num_free >= 8:
            break
    cells = grid.free_cells
    n = rng.randint(1, 6)
    m = rng.randint(1, 8)
    agents = [Agent(id=i, location=c)
              for i, c in enumerate(rng.sample(cells, min(n, len(cells))))]
    tasks = []
    for j in range(m):
        pickup = rng.choice(cells)
        delivery = rng.choice([c for c in cells if c != pickup])
        tasks.append(Task(id=j, pickup=pickup, delivery=delivery))
    costs = None
    if real_costs:
        costs = {(u, v): 1.0 + 4.0 * rng.random() for u, v in directed_edges(grid)}
    return grid, agents, tasks, costs


def _cost_array(grid, costs):
    """The ``(tail, head) -> cost`` dict as the library takes it: one array
    over the grid's edge ids."""
    return np.array([costs[e] for e in directed_edges(grid)])


def _oracle_distance_fn(grid, agents, tasks):
    tables = {a.id: bfs_distances(grid, a.location) for a in agents}
    pickups = {t.id: t.pickup for t in tasks}
    return lambda aid, tid: tables[aid].get(pickups[tid], math.inf)


@pytest.fixture(scope="module")
def equivalence_instances():
    """Solved instances shared by criteria 1-3."""
    rng = random.Random(20240817)
    unit_cases = []
    for _ in range(200):
        grid, agents, tasks, _ = _random_instance(rng)
        fa = flow_assign(grid, agents, tasks)
        unit_cases.append((grid, agents, tasks, None, fa))
    real_cases = []
    for _ in range(100):
        grid, agents, tasks, costs = _random_instance(rng, real_costs=True)
        fa = flow_assign(grid, agents, tasks, _cost_array(grid, costs))
        real_cases.append((grid, agents, tasks, costs, fa))
    return unit_cases, real_cases


def test_criterion_1_unit_cost_equivalence(equivalence_instances):
    unit_cases, _ = equivalence_instances
    with criterion(1, "optimal-matching equivalence, unit cost"):
        t0 = time.perf_counter()
        assert len(unit_cases) >= 200
        for grid, agents, tasks, _, fa in unit_cases:
            la = linear_assignment(agents, tasks, grid)
            want, size = assignment_oracle(
                _oracle_distance_fn(grid, agents, tasks),
                [a.id for a in agents], [t.id for t in tasks])
            assert fa.total_cost == la.total_cost == want  # integer-exact
            assert len(fa.pairs) == len(la.pairs) == size
        assert time.perf_counter() - t0 < 10.0


def test_criterion_2_real_cost_equivalence(equivalence_instances):
    _, real_cases = equivalence_instances
    with criterion(2, "matching equivalence, non-integer costs"):
        assert len(real_cases) >= 100
        for grid, agents, tasks, costs, fa in real_cases:
            la = linear_assignment(agents, tasks, grid, _cost_array(grid, costs))
            rel = abs(fa.total_cost - la.total_cost) / (1.0 + abs(la.total_cost))
            assert rel <= 1e-6


def test_criterion_3_retrieval_soundness(equivalence_instances):
    unit_cases, real_cases = equivalence_instances
    with criterion(3, "flow-decomposition soundness"):
        for grid, agents, tasks, costs, fa in unit_cases + real_cases:
            assert len(set(fa.pairs.values())) == len(fa.pairs)  # injective
            path_costs = []
            for aid, path in fa.guide_paths.items():
                agent = next(a for a in agents if a.id == aid)
                task = next(t for t in tasks if t.id == fa.pairs[aid])
                assert path[0] == agent.location
                assert path[-1] == task.pickup
                for u, v in zip(path, path[1:]):
                    assert v in grid.neighbors(u)
                    path_costs.append(1.0 if costs is None else costs[(u, v)])
            total = math.fsum(path_costs)
            if costs is None:
                assert total == fa.total_cost  # integer-exact
            else:
                assert abs(total - fa.total_cost) <= 1e-9 * (1.0 + abs(fa.total_cost))


def test_criterion_4_cost_formulas():
    from mapdflow.cost_models import (AvgWaitCost, EdgeWaitStats, TrafficCost,
                                      TrafficState, update_wait_stats)
    from mapdflow.grid_map import GridMap
    with criterion(4, "congestion cost formulas"):
        grid = GridMap(3, 1, [True] * 3)
        edges = directed_edges(grid)
        forward, backward = edges.index((1, 2)), edges.index((2, 1))
        ts = TrafficState(grid)
        ts.entry_counts[2] = 3
        ts.traversal_counts[forward], ts.traversal_counts[backward] = 1, 2
        assert TrafficCost(ts)(grid.tails, grid.heads)[forward] == 4.0
        stats = EdgeWaitStats(grid, gamma=0.9)
        stats.w[forward], stats.n[forward] = 4.0, 2.0   # written at epoch 0
        assert AvgWaitCost(stats)(grid.tails, grid.heads)[forward] == 3.0
        stats = EdgeWaitStats(grid, gamma=0.9)
        stats.w[forward], stats.n[forward] = 10.0, 2.0
        update_wait_stats(stats, [((1, 2), 2)])
        # written at the current epoch, so read without decay
        assert stats.w[forward] == pytest.approx(11.0, abs=1e-12)
        assert stats.n[forward] == pytest.approx(2.8, abs=1e-12)


def _sim_worker(args):
    kind, seed, n, strategy, extra = args
    if kind == "random32":
        grid = random_map(32, 32, 0.2, seed=320)
        cfg = SimConfig(num_agents=n, strategy=strategy, horizon=1000,
                        seed=seed, pool_ratio=1.5)
    else:  # warehouse makespan
        f, budget = extra
        grid = warehouse_map()
        horizon = math.ceil(budget / f) + 500
        cfg = SimConfig(num_agents=n, strategy=strategy, pool_policy="per-step",
                        release_per_step=f, task_budget=budget,
                        horizon=horizon, seed=seed)
    sim = Simulation(grid, cfg)
    metrics = sim.run()
    sim.check_invariants()
    return metrics.throughput, metrics.makespan, len(metrics.steps)


def _fan_out(jobs):
    with concurrent.futures.ProcessPoolExecutor(WORKERS) as pool:
        return list(pool.map(_sim_worker, jobs))


def test_criterion_5_collision_freedom():
    with criterion(5, "collision freedom, 20 seeds x 3 strategies"):
        jobs = [("random32", seed, 100, strategy, None)
                for strategy in ("greedy", "linear", "flow")
                for seed in range(20)]
        # Every step passes _verify_step, which raises on a vertex collision
        # or an edge swap, so a run that returns all its steps had none.
        for _, _, steps in _fan_out(jobs):
            assert steps == 1000


def test_criterion_6_throughput_direction():
    with criterion(6, "flow-unit throughput >= greedy"):
        for n in (50, 100):
            jobs = [("random32", seed, n, strategy, None)
                    for strategy in ("greedy", "flow")
                    for seed in range(10)]
            results = _fan_out(jobs)
            greedy_mean = np.mean([r[0] for r in results[:10]])
            flow_mean = np.mean([r[0] for r in results[10:]])
            assert flow_mean >= greedy_mean, (n, flow_mean, greedy_mean)


def test_criterion_7_runtime_scaling_trend():
    with criterion(7, "solver runtime scaling trend"):
        grid = random_map(64, 64, 0.2, seed=64)
        flow_rows = bench_scaling(grid, [50, 200, 800], ["flow"], rounds=12,
                                  base=SimConfig(seed=7))
        p50s = [r["p50_ms"] for r in flow_rows]
        assert max(p50s) < 3.0 * min(p50s), p50s
        linear_rows = bench_scaling(grid, [50, 800], ["linear"], rounds=12,
                                    base=SimConfig(seed=7))
        small, big = (r["p50_ms"] for r in linear_rows)
        assert big > 4.0 * small, (small, big)


def test_criterion_8_makespan_mode():
    with criterion(8, "per-step release makespan"):
        budget = 100
        for f in (2, 5):
            for n in (10, 20):
                bound = math.ceil(budget / f)
                jobs = [("warehouse", seed, n, strategy, (f, budget))
                        for strategy in ("greedy", "flow")
                        for seed in range(10)]
                results = _fan_out(jobs)
                greedy = results[:10]
                flow = results[10:]
                for throughput, makespan, steps in flow:
                    assert makespan is not None, (f, n)
                    assert makespan <= bound + 500
                    assert throughput == budget
                flow_mean = np.mean([r[1] for r in flow])
                greedy_mean = np.mean(
                    [r[1] if r[1] is not None else r[2] for r in greedy])
                assert flow_mean <= greedy_mean, (f, n, flow_mean, greedy_mean)


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "byte-identical logical-mode CSV"):
        grid = random_map(16, 16, 0.2, seed=16)
        map_file = tmp_path / "det.map"
        map_file.write_text(grid.to_text())
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            rc = run_cli(["--map", str(map_file), "--agents", "10",
                          "--strategy", "flow", "--cost", "unit",
                          "--steps", "200", "--logical", "--seed", "3",
                          "--out", str(out)])
            assert rc == 0
            outs.append(out)
        a = (outs[0] / "steps_flow_unit_n10_s3.csv").read_bytes()
        b = (outs[1] / "steps_flow_unit_n10_s3.csv").read_bytes()
        assert a == b


def test_criterion_10_solver_validity():
    with criterion(10, "min-cost-flow certificates vs oracle"):
        rng = random.Random(1010)
        solved = 0
        while solved < 500:
            real = solved % 2 == 1
            net = random_flow_network(rng, real_costs=real)
            if net.num_edges == 0:
                continue
            net.required_flow = rng.randint(0, 3)
            feasible = max_flow_oracle(net)
            if net.required_flow > feasible:
                with pytest.raises(FlowInfeasibleError) as err:
                    solve_min_cost_flow(net)
                assert err.value.max_feasible == feasible
                continue
            sol = solve_min_cost_flow(net)
            expected = flow_cost_oracle(net, net.required_flow)
            assert sol.total_cost == pytest.approx(expected, rel=1e-9, abs=1e-9)
            assert not residual_has_negative_cycle(net, sol.flow, tol=1e-7)
            solved += 1
