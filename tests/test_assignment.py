import math
import random

import numpy as np
import pytest

from mapdflow.assignment import (Agent, FlowNetworkBuilder, Task, flow_assign,
                                 greedy_assign, linear_assignment,
                                 retrieve_assignments)
from mapdflow.grid_map import DistanceProvider, GridMap
from mapdflow.mapgen import random_map
from mapdflow.mincost_flow import FlowSolution, solve_min_cost_flow

from conftest import assignment_oracle, bfs_distances, directed_edges, random_grid


class StubProvider:
    """Distance provider backed by a fixed (agent cell, goal) table."""

    def __init__(self, size, table):
        self.size = size
        self.by_goal = table

    def table(self, goal):
        arr = np.full(self.size, np.inf)
        for cell, d in self.by_goal[goal].items():
            arr[cell] = d
        return arr


def make_instance(rng, grid, n_agents, n_tasks):
    cells = grid.free_cells
    agents = [Agent(id=i, location=c)
              for i, c in enumerate(rng.sample(cells, n_agents))]
    tasks = [Task(id=j, pickup=rng.choice(cells), delivery=rng.choice(cells))
             for j in range(n_tasks)]
    return agents, tasks


def dist_fn(grid, agents, tasks):
    cache = {}
    def of(agent_id, task_id):
        if agent_id not in cache:
            agent = next(a for a in agents if a.id == agent_id)
            cache[agent_id] = bfs_distances(grid, agent.location)
        task = next(t for t in tasks if t.id == task_id)
        return cache[agent_id].get(task.pickup, math.inf)
    return of


# -- greedy -----------------------------------------------------------------

def test_greedy_single_pair():
    provider = StubProvider(4, {2: {0: 3.0}})
    aset = greedy_assign([Agent(id=0, location=0)],
                         [Task(id=0, pickup=2, delivery=3)], provider)
    assert aset.pairs == {0: 0}
    assert aset.total_cost == 3.0


def test_greedy_hand_traced_example():
    # distances: A1->T1:2, A1->T2:3, A2->T1:1, A2->T2:5
    provider = StubProvider(2, {10: {0: 2.0, 1: 1.0}, 11: {0: 3.0, 1: 5.0}})
    agents = [Agent(id=1, location=0), Agent(id=2, location=1)]
    tasks = [Task(id=1, pickup=10, delivery=12), Task(id=2, pickup=11, delivery=13)]
    aset = greedy_assign(agents, tasks, provider)
    assert aset.pairs == {2: 1, 1: 2}
    assert aset.total_cost == 4.0


def test_greedy_two_agents_one_task_takes_closer():
    provider = StubProvider(2, {5: {0: 4.0, 1: 2.0}})
    agents = [Agent(id=0, location=0), Agent(id=1, location=1)]
    aset = greedy_assign(agents, [Task(id=7, pickup=5, delivery=6)], provider)
    assert aset.pairs == {1: 7}


def test_greedy_empty_sides():
    provider = StubProvider(1, {})
    assert greedy_assign([], [], provider).pairs == {}
    assert greedy_assign([Agent(id=0, location=0)], [], provider).pairs == {}


def test_greedy_tie_breaks_by_agent_then_task():
    provider = StubProvider(2, {8: {0: 1.0, 1: 1.0}, 9: {0: 1.0, 1: 1.0}})
    agents = [Agent(id=0, location=0), Agent(id=1, location=1)]
    tasks = [Task(id=0, pickup=8, delivery=5), Task(id=1, pickup=9, delivery=5)]
    aset = greedy_assign(agents, tasks, provider)
    assert aset.pairs == {0: 0, 1: 1}


def test_greedy_skips_unreachable():
    provider = StubProvider(2, {5: {0: math.inf, 1: math.inf}})
    agents = [Agent(id=0, location=0), Agent(id=1, location=1)]
    aset = greedy_assign(agents, [Task(id=0, pickup=5, delivery=6)], provider)
    assert aset.pairs == {}


# -- linear assignment --------------------------------------------------------

def test_linear_single_pair(open3x3):
    agents = [Agent(id=0, location=0)]
    tasks = [Task(id=0, pickup=8, delivery=0)]
    aset = linear_assignment(agents, tasks, open3x3)
    assert aset.pairs == {0: 0}
    assert aset.total_cost == 4.0


def test_linear_optimal_on_crossed_instance():
    # line: T0 . . A0 . . T1 with A1 at the left end; the cheap matching
    # crosses the agents over
    grid = GridMap(7, 1, [True] * 7)
    agents = [Agent(id=0, location=3), Agent(id=1, location=0)]
    tasks = [Task(id=0, pickup=1, delivery=0), Task(id=1, pickup=6, delivery=0)]
    aset = linear_assignment(agents, tasks, grid)
    oracle_cost, size = assignment_oracle(
        dist_fn(grid, agents, tasks), [0, 1], [0, 1])
    assert aset.total_cost == pytest.approx(oracle_cost)
    assert len(aset.pairs) == size


def test_linear_matches_permutation_oracle_5x5():
    rng = random.Random(123)
    grid = random_grid(rng, 8, 8)
    agents, tasks = make_instance(rng, grid, 5, 5)
    aset = linear_assignment(agents, tasks, grid)
    want, size = assignment_oracle(
        dist_fn(grid, agents, tasks), [a.id for a in agents], [t.id for t in tasks])
    assert aset.total_cost == pytest.approx(want)
    assert len(aset.pairs) == size


def test_linear_handles_unreachable_with_max_matching():
    # two islands: agents on one, one task on each
    grid = GridMap(5, 1, [True, True, False, True, True])
    agents = [Agent(id=0, location=0), Agent(id=1, location=1)]
    tasks = [Task(id=0, pickup=3, delivery=4), Task(id=1, pickup=4, delivery=3)]
    aset = linear_assignment(agents, tasks, grid)
    assert aset.pairs == {}  # nothing reachable
    tasks.append(Task(id=2, pickup=0, delivery=1))
    aset = linear_assignment(agents, tasks, grid)
    assert len(aset.pairs) == 1 and aset.pairs[0] == 2


# -- flow network construction -------------------------------------------------

def test_build_flow_network_node_edge_counts(open3x3):
    agents = [Agent(id=0, location=0)]
    tasks = [Task(id=0, pickup=8, delivery=0)]
    gnet = FlowNetworkBuilder(open3x3).build(agents, tasks)
    net = gnet.network
    assert net.num_nodes == 9 + 2
    assert net.num_edges == 24 + 9 + 1
    assert net.required_flow == 1
    # source edge capacity 1, cost 0; interior edges unbounded; each cell's
    # sink edge, cost 0, carries as many units as its cell has tasks
    src_edge = gnet.source_edges[0]
    assert net.capacities[src_edge] == 1 and net.costs[src_edge] == 0.0
    assert net.capacities[0] is None
    assert net.capacities[24:33] == [0] * 8 + [1]
    assert net.costs[24:33] == [0.0] * 9


def test_build_flow_required_is_min_of_agents_tasks():
    rng = random.Random(2)
    grid = random_grid(rng, 6, 6, obstacle=0.0)
    agents, tasks = make_instance(rng, grid, 2, 3)
    gnet = FlowNetworkBuilder(grid).build(agents, tasks)
    assert gnet.network.required_flow == 2


def test_build_flow_zero_agents_required_zero(open3x3):
    gnet = FlowNetworkBuilder(open3x3).build([], [Task(id=0, pickup=1, delivery=2)])
    assert gnet.network.required_flow == 0
    sol = solve_min_cost_flow(gnet.network)
    assert sol.value == 0 and sol.total_cost == 0.0


def test_build_flow_reduces_required_when_disconnected():
    grid = GridMap(5, 1, [True, True, False, True, True])
    agents = [Agent(id=0, location=0), Agent(id=1, location=1)]
    tasks = [Task(id=0, pickup=3, delivery=4), Task(id=1, pickup=0, delivery=1)]
    gnet = FlowNetworkBuilder(grid).build(agents, tasks)
    assert gnet.network.required_flow == 1  # only task 1 is on the agents' island


def test_build_flow_rejects_shared_agent_cell(open3x3):
    agents = [Agent(id=0, location=0), Agent(id=1, location=0)]
    with pytest.raises(ValueError, match="share cell"):
        FlowNetworkBuilder(open3x3).build(agents, [Task(id=0, pickup=1, delivery=2)])


def test_build_flow_rejects_delivering_agent(open3x3):
    agents = [Agent(id=0, location=0, carried_task=5, assigned_task=5)]
    with pytest.raises(ValueError, match="delivering"):
        FlowNetworkBuilder(open3x3).build(agents, [Task(id=0, pickup=1, delivery=2)])


@pytest.mark.parametrize("agents, tasks, message", [
    ([Agent(id=0, location=0), Agent(id=0, location=1)],
     [Task(id=0, pickup=8, delivery=0)], "agent id 0 appears twice"),
    ([Agent(id=0, location=0), Agent(id=1, location=1)],
     [Task(id=3, pickup=2, delivery=0), Task(id=3, pickup=5, delivery=0)],
     "task id 3 appears twice"),
], ids=["agent", "task"])
def test_build_flow_rejects_repeated_ids(open3x3, agents, tasks, message):
    with pytest.raises(ValueError, match=message):
        flow_assign(open3x3, agents, tasks)


@pytest.mark.parametrize("n_tasks", [1, 50, 300])
def test_round_edges_do_not_grow_with_the_pool(n_tasks):
    rng = random.Random(n_tasks)
    grid = random_grid(rng, 12, 12)
    builder = FlowNetworkBuilder(grid)
    agents, tasks = make_instance(rng, grid, 20, n_tasks)
    net = builder.build(agents, tasks).network
    assert net.num_edges == builder.layout.num_edges + len(agents)


# -- Algorithm 1 retrieval ------------------------------------------------------

def test_retrieve_single_agent_unique_path():
    grid = GridMap(4, 1, [True] * 4)
    agents = [Agent(id=0, location=0)]
    tasks = [Task(id=0, pickup=3, delivery=0)]
    gnet = FlowNetworkBuilder(grid).build(agents, tasks)
    sol = solve_min_cost_flow(gnet.network)
    aset = retrieve_assignments(sol, gnet, agents)
    assert aset.pairs == {0: 0}
    assert aset.guide_paths[0] == [0, 1, 2, 3]
    assert aset.total_cost == 3.0


def test_retrieve_agent_standing_on_pickup():
    grid = GridMap(3, 1, [True] * 3)
    agents = [Agent(id=0, location=1)]
    tasks = [Task(id=0, pickup=1, delivery=2)]
    aset = flow_assign(grid, agents, tasks)
    assert aset.pairs == {0: 0}
    assert aset.guide_paths[0] == [1]


def test_retrieve_two_agents_line_matches_hungarian():
    # line: A1 at 0, A2 at 1, T1 at 2, T2 at 4
    grid = GridMap(5, 1, [True] * 5)
    agents = [Agent(id=0, location=0), Agent(id=1, location=1)]
    tasks = [Task(id=0, pickup=2, delivery=0), Task(id=1, pickup=4, delivery=0)]
    aset = flow_assign(grid, agents, tasks)
    want, _ = assignment_oracle(dist_fn(grid, agents, tasks), [0, 1], [0, 1])
    assert aset.total_cost == pytest.approx(want)
    assert len(aset.pairs) == 2
    assert sum(len(p) - 1 for p in aset.guide_paths.values()) == want


def test_retrieve_crossing_flows_consume_everything():
    # two agents whose shortest paths overlap on a shared middle corridor
    grid = GridMap(5, 3, [True] * 15)
    agents = [Agent(id=0, location=grid.index(0, 1)),
              Agent(id=1, location=grid.index(1, 1))]
    tasks = [Task(id=0, pickup=grid.index(4, 1), delivery=0),
             Task(id=1, pickup=grid.index(3, 1), delivery=0)]
    gnet = FlowNetworkBuilder(grid).build(agents, tasks)
    sol = solve_min_cost_flow(gnet.network)
    aset = retrieve_assignments(sol, gnet, agents)
    assert sorted(aset.pairs) == [0, 1]
    # conservation: interior traversals across paths equal the edge flows
    used = {}
    for path in aset.guide_paths.values():
        for u, v in zip(path, path[1:]):
            used[(u, v)] = used.get((u, v), 0) + 1
    interior = {}
    for e in range(gnet.network.num_edges):
        u, v = gnet.network.tails[e], gnet.network.heads[e]
        if u < grid.width * grid.height and v < grid.width * grid.height:
            interior[(u, v)] = interior.get((u, v), 0) + sol.flow[e]
    assert used == {k: v for k, v in interior.items() if v}


def test_tasks_sharing_a_pickup_go_out_by_id_in_agent_order():
    # Three tasks wait at cell 4 and two agents come for them: the two
    # lowest task ids go out, the lowest to the lowest agent id.
    grid = GridMap(5, 1, [True] * 5)
    agents = [Agent(id=3, location=0), Agent(id=1, location=1)]
    tasks = [Task(id=7, pickup=4, delivery=0), Task(id=2, pickup=4, delivery=0),
             Task(id=5, pickup=4, delivery=0)]
    aset = flow_assign(grid, agents, tasks)
    assert aset.pairs == {1: 2, 3: 5}
    assert aset.guide_paths == {1: [1, 2, 3, 4], 3: [0, 1, 2, 3, 4]}
    assert aset.total_cost == 7.0


WALK_MAPS = {
    "random-1": lambda: random_map(12, 12, 0.2, seed=1),
    "random-2": lambda: random_map(9, 14, 0.3, seed=2),
    "width-1": lambda: GridMap(1, 6, [True, True, False, True, True, True]),
    "width-2": lambda: GridMap(2, 5, [True, True, True, False, True, True,
                                      True, True, False, True]),
    "height-1": lambda: GridMap(7, 1, [True, True, True, False, True, True, True]),
}


@pytest.mark.parametrize("name", list(WALK_MAPS))
def test_walks_leave_a_cell_by_ascending_head(name):
    # One unit leaves the agent's cell along every edge, each to a task,
    # and the edge a walk takes is emptied before the next walk: the edges
    # taken, in turn, are the order retrieval reads them in. The reference
    # is each cell's edges sorted by head cell.
    grid = WALK_MAPS[name]()
    size = grid.width * grid.height
    tails, heads = grid.tails.astype(np.int64), grid.heads.astype(np.int64)
    order = np.argsort(tails * size + heads).tolist()
    builder = FlowNetworkBuilder(grid)
    tasks = [Task(id=j, pickup=c, delivery=c) for j, c in enumerate(grid.free_cells)]
    for v in grid.free_cells:
        first, last = int(grid.indptr[v]), int(grid.indptr[v + 1])
        agents = [Agent(id=0, location=v)]
        gnet = builder.build(agents, tasks)
        flow = [0] * gnet.network.num_edges
        flow[gnet.source_edges[0]] = 1
        for e in range(first, last):
            flow[e] = flow[gnet.sink_edges[int(grid.heads[e])]] = 1
        taken = []
        for _ in range(first, last):
            path = retrieve_assignments(FlowSolution(flow, 1, 0.0), gnet,
                                        agents).guide_paths[0]
            taken.append(int(grid.edge_ids([v], [path[1]])[0]))
            flow[taken[-1]] = 0
        assert taken == order[first:last]


def test_retrieval_unassigned_agents_stay_unassigned():
    grid = GridMap(4, 1, [True] * 4)
    agents = [Agent(id=0, location=0), Agent(id=1, location=3)]
    tasks = [Task(id=0, pickup=2, delivery=0)]
    aset = flow_assign(grid, agents, tasks)
    assert len(aset.pairs) == 1


# -- cross-strategy properties ---------------------------------------------------

def test_flow_equals_linear_and_oracle_small_instances():
    rng = random.Random(77)
    for _ in range(40):
        grid = random_grid(rng, rng.randint(3, 6), rng.randint(3, 6))
        n = rng.randint(1, min(5, grid.num_free))
        m = rng.randint(1, 7)
        agents, tasks = make_instance(rng, grid, n, m)
        fa = flow_assign(grid, agents, tasks)
        la = linear_assignment(agents, tasks, grid)
        want, size = assignment_oracle(
            dist_fn(grid, agents, tasks),
            [a.id for a in agents], [t.id for t in tasks])
        assert fa.total_cost == pytest.approx(la.total_cost, abs=1e-9)
        assert fa.total_cost == pytest.approx(want, abs=1e-9)
        assert len(fa.pairs) == len(la.pairs) == size
        # injectivity
        assert len(set(fa.pairs.values())) == len(fa.pairs)
        assert len(set(la.pairs.values())) == len(la.pairs)
        # guide paths valid and no shorter than the point distance
        for aid, path in fa.guide_paths.items():
            agent = next(a for a in agents if a.id == aid)
            task = next(t for t in tasks if t.id == fa.pairs[aid])
            assert path[0] == agent.location and path[-1] == task.pickup
            for x, y in zip(path, path[1:]):
                assert y in grid.neighbors(x)
            d = bfs_distances(grid, agent.location).get(task.pickup)
            assert len(path) - 1 >= d


def test_greedy_never_beats_flow():
    rng = random.Random(31)
    for _ in range(20):
        grid = random_grid(rng, 6, 6)
        n = rng.randint(1, 4)
        m = rng.randint(1, 6)
        agents, tasks = make_instance(rng, grid, n, m)
        fa = flow_assign(grid, agents, tasks)
        ga = greedy_assign(agents, tasks, DistanceProvider(grid))
        if len(ga.pairs) == len(fa.pairs):
            assert ga.total_cost >= fa.total_cost - 1e-9


def test_flow_equivalence_under_directed_random_costs():
    rng = random.Random(5150)
    for _ in range(15):
        grid = random_grid(rng, 5, 5)
        agents, tasks = make_instance(
            rng, grid, rng.randint(1, 3), rng.randint(1, 4))
        costs = {(u, v): 1.0 + 4.0 * rng.random() for u, v in directed_edges(grid)}
        arr = np.array([costs[e] for e in directed_edges(grid)])
        fa = flow_assign(grid, agents, tasks, arr)
        la = linear_assignment(agents, tasks, grid, arr)
        assert fa.total_cost == pytest.approx(la.total_cost, rel=1e-6)

