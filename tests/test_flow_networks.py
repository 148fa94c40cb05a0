"""The min-cost flow solver on the assignment networks the engine builds.

- Full-size builder networks (random64 and the warehouse map, 50 to 800
  agents, unit and integer traffic costs, and a map split into components)
  against ``networkx.network_simplex`` for the cost and
  ``networkx.maximum_flow_value`` for the value, as independent oracles.
- The builder's shared per-map layout against the same edges added one by
  one to a plain network, on rounds recorded from real simulations.
- Property tests of ``flow_assign`` on small random grids, and a fuzz of
  real-valued, avg-wait-like costs against the residual certificate.
- The residual workspace a layout lends its solves: a run of rounds on one
  builder against fresh builders, an infeasible solve, and solves that
  overlap; the per-node scratch left clear, and the float slack derived
  from the costs kept with the layout equal to one derived from scratch.
"""

import math
import random
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapdflow import SimConfig, Simulation, mincost_flow, parse_map, simulator
from mapdflow.assignment import Agent, FlowNetworkBuilder, Task, flow_assign
from mapdflow.cost_models import (AvgWaitCost, EdgeWaitStats, TrafficCost,
                                  TrafficState, update_wait_stats)
from mapdflow.grid_map import GridMap
from mapdflow.mapgen import random_map
from mapdflow.mincost_flow import (UNBOUNDED, ArcLayout, FlowInfeasibleError,
                                   FlowNetwork, solve_min_cost_flow)

from conftest import directed_edges, max_flow_oracle, residual_has_negative_cycle
from flow_oracle import FullSettleSolver

MAPS = Path(__file__).resolve().parent.parent / "maps"


def load_map(name):
    return parse_map((MAPS / name).read_text())


def random_instance(rng, grid, n_agents, n_tasks):
    """Agents on distinct cells; pickups drawn with replacement, so some
    tasks share a pickup cell and the network has parallel sink edges."""
    cells = grid.free_cells
    agents = [Agent(id=i, location=c)
              for i, c in enumerate(rng.sample(cells, n_agents))]
    tasks = [Task(id=j, pickup=rng.choice(cells), delivery=rng.choice(cells))
             for j in range(n_tasks)]
    return agents, tasks


def random_walk_traffic(rng, grid, walks, length):
    """Traffic costs from random-walk guide paths; integer valued."""
    paths = []
    for _ in range(walks):
        path = [rng.choice(grid.free_cells)]
        for _ in range(length):
            path.append(rng.choice(grid.neighbors(path[-1]) or [path[-1]]))
        paths.append(path)
    ts = TrafficState(grid)
    ts.add(paths)
    return TrafficCost(ts)


def network_simplex_cost(net):
    """Optimal cost by networkx on a MultiDiGraph, which keeps parallel
    edges (a DiGraph would merge the sink edges of tasks sharing a pickup)."""
    g = nx.MultiDiGraph()
    g.add_nodes_from(range(net.num_nodes), demand=0)
    g.nodes[net.source]["demand"] = -net.required_flow
    g.nodes[net.sink]["demand"] = net.required_flow
    for u, v, cap, cost in zip(net.tails, net.heads, net.capacities, net.costs):
        assert cost.is_integer()
        g.add_edge(u, v, capacity=net.required_flow if cap is None else cap,
                   weight=int(cost))
    assert g.number_of_edges() == net.num_edges
    return nx.network_simplex(g)[0]


def assert_feasible_flow(net, sol):
    """Capacities respected and flow conserved at every inner node."""
    flow = np.array(sol.flow)
    caps = np.array([net.required_flow if c is None else c
                     for c in net.capacities])
    assert len(flow) == net.num_edges
    assert ((flow >= 0) & (flow <= caps)).all()
    excess = (np.bincount(net.tails, flow, minlength=net.num_nodes)
              - np.bincount(net.heads, flow, minlength=net.num_nodes))
    want = np.zeros(net.num_nodes)
    want[net.source], want[net.sink] = sol.value, -sol.value
    assert (excess == want).all()


def split_map():
    """A 12x6 map cut in two by a wall, with one walled-in cell at (6, 3)."""
    rows = ["......@.....",
            "......@.....",
            "......@.....",
            ".....@.@....",
            "......@.....",
            "......@....."]
    return GridMap(12, 6, [ch == "." for row in rows for ch in row])


def split_instance():
    grid = split_map()
    left = [c for c in grid.free_cells if c % 12 < 5]
    right = [c for c in grid.free_cells if c % 12 > 7]
    island = 3 * 12 + 6
    rng = random.Random(3)
    agent_cells = rng.sample(left, 8) + rng.sample(right, 2) + [island]
    agents = [Agent(id=i, location=c) for i, c in enumerate(agent_cells)]
    pickups = [rng.choice(left) for _ in range(3)] + [rng.choice(right) for _ in range(6)]
    tasks = [Task(id=j, pickup=p, delivery=p) for j, p in enumerate(pickups)]
    return grid, agents, tasks


# -- full-size networks against networkx ----------------------------------------

CASES = [("random64.map", 50, "unit"), ("random64.map", 200, "unit"),
         ("random64.map", 800, "unit"), ("random64.map", 50, "traffic"),
         ("random64.map", 200, "traffic"), ("random64.map", 800, "traffic"),
         ("warehouse_21x35.map", 150, "unit"),
         ("warehouse_21x35.map", 150, "traffic")]


@pytest.mark.parametrize("case", CASES, ids=lambda c: f"{c[0][:-4]}-{c[1]}-{c[2]}")
def test_builder_network_matches_network_simplex(case):
    map_file, n_agents, cost = case
    grid = load_map(map_file)
    rng = random.Random(n_agents)
    agents, tasks = random_instance(rng, grid, n_agents, n_agents * 3 // 2)
    model = random_walk_traffic(rng, grid, n_agents, 30) if cost == "traffic" else None
    net = FlowNetworkBuilder(grid).build(agents, tasks, model).network
    sol = solve_min_cost_flow(net)
    assert sol.value == net.required_flow == max_flow_oracle(net) == n_agents
    assert_feasible_flow(net, sol)
    assert sol.total_cost == network_simplex_cost(net)


def test_split_map_required_flow_is_max_flow():
    grid, agents, tasks = split_instance()
    assert int(grid.component.max()) + 1 == 3
    net = FlowNetworkBuilder(grid).build(agents, tasks).network
    # min(8, 3) on the left plus min(2, 6) on the right; the island has no task
    assert net.required_flow == 5 < min(len(agents), len(tasks))
    sol = solve_min_cost_flow(net)
    assert sol.value == net.required_flow == max_flow_oracle(net)
    assert_feasible_flow(net, sol)
    assert sol.total_cost == network_simplex_cost(net)
    aset = flow_assign(grid, agents, tasks)
    assert len(aset.pairs) == 5


def test_arcs_freed_during_a_phase_wait_for_the_next_phase():
    """Among equal-cost flows the solver returns a fixed one, and logical
    mode depends on which. An arc that gains residual capacity during a
    phase (the reverse of an arc just pushed along) is not admissible
    until the next phase; on this instance, letting the augmenting search
    take it at once yields another optimum with other pairs."""
    rows = [".......@",
            "...@....",
            ".....@..",
            ".@.....@",
            "........",
            "@@......"]
    grid = GridMap(8, 6, [ch == "." for row in rows for ch in row])
    agents = [Agent(id=i, location=c)
              for i, c in enumerate([42, 37, 46, 10, 29, 35, 3, 8, 39])]
    tasks = [Task(id=j, pickup=p, delivery=p)
             for j, p in enumerate([35, 27, 32, 27, 3, 5, 47])]
    aset = flow_assign(grid, agents, tasks)
    assert aset.total_cost == 13.0
    assert aset.pairs == {0: 1, 2: 6, 3: 4, 4: 3, 5: 0, 6: 5, 7: 2}


# -- the shared layout is the same network as one built edge by edge -------------

def recorded_rounds(monkeypatch, map_file, agents, cost_model, tasks, steps):
    """(agents, tasks, edge costs) of every flow round of a short run."""
    rounds = []
    real = simulator.flow_assign

    def record(grid, available, pool, edge_cost=None, builder=None):
        rounds.append(([Agent(id=a.id, location=a.location) for a in available],
                       [Task(id=t.id, pickup=t.pickup, delivery=t.delivery)
                        for t in pool],
                       edge_cost.copy()))
        return real(grid, available, pool, edge_cost, builder=builder)

    monkeypatch.setattr(simulator, "flow_assign", record)
    config = SimConfig(num_agents=agents, strategy="flow", cost_model=cost_model,
                       task_distribution=tasks, horizon=steps, seed=11)
    grid = load_map(map_file)
    Simulation(grid, config).run()
    monkeypatch.undo()
    return grid, rounds


def plain_copy(net):
    """The same network with every edge added by ``add_edge``."""
    plain = FlowNetwork(num_nodes=net.num_nodes, source=net.source,
                        sink=net.sink, required_flow=net.required_flow)
    for u, v, cap, cost in zip(net.tails, net.heads, net.capacities, net.costs):
        plain.add_edge(u, v, cap, cost)
    return plain


def solved(net):
    sol = solve_min_cost_flow(net)
    return sol.flow, sol.value, sol.total_cost


@pytest.mark.parametrize("cost_model", ["unit", "traffic", "avg-wait"])
@pytest.mark.parametrize("setup", [("random64.map", 120, "uniform"),
                                   ("warehouse_21x35.map", 100, "labeled-es")],
                         ids=["random64", "warehouse"])
def test_shared_layout_solves_like_a_plain_network(monkeypatch, setup, cost_model):
    map_file, agents, tasks = setup
    grid, rounds = recorded_rounds(monkeypatch, map_file, agents, cost_model,
                                   tasks, steps=12)
    assert len(rounds) >= 9
    if cost_model == "avg-wait":
        assert not np.equal(np.floor(rounds[-1][2]), rounds[-1][2]).all()
    builder = FlowNetworkBuilder(grid)
    results = []
    for agents_now, tasks_now, costs in rounds[::4] + rounds[:1]:
        net = builder.build(agents_now, tasks_now, costs).network
        assert net.layout is builder.layout
        results.append(solved(net))
        assert results[-1] == solved(plain_copy(net))
    # Rounds A, B, C, then A again from one builder: a solve leaves the
    # layout as it found it, so A's flow comes out the same both times.
    assert results[-1] == results[0]


def benchmark_unit_round(monkeypatch, step):
    """Map, agents, tasks and edge costs of the flow round at ``step``
    (counted from 1) of the random64-flow-unit benchmark run at seed 1:
    200 agents, unit cost, uniform tasks, a round every step."""
    grid = load_map("random64.map")
    config = SimConfig(num_agents=200, strategy="flow", cost_model="unit",
                       schedule_period=1, task_distribution="uniform",
                       horizon=220, step_budget=None, seed=1)
    sim = Simulation(grid, config)
    for _ in range(step - 1):
        sim.step()
    rounds = []
    real = simulator.flow_assign

    def record(grid, available, pool, edge_cost=None, builder=None):
        rounds.append(([Agent(id=a.id, location=a.location) for a in available],
                       [Task(id=t.id, pickup=t.pickup, delivery=t.delivery)
                        for t in pool],
                       edge_cost.copy()))
        return real(grid, available, pool, edge_cost, builder=builder)

    monkeypatch.setattr(simulator, "flow_assign", record)
    sim.step()
    monkeypatch.undo()
    return (grid, *rounds[0])


def test_searches_stop_at_the_sink_on_a_benchmark_round(monkeypatch):
    # A count in place of a clock: on this round every phase's search
    # settles fewer nodes than one that also settles the nodes tied with
    # the sink, and the flow comes out the same.
    grid, agents, tasks, costs = benchmark_unit_round(monkeypatch, 21)
    net = FlowNetworkBuilder(grid).build(agents, tasks, costs).network

    def solve_counting(solver_class):
        settled = []

        class Counting(solver_class):
            def _dijkstra(self):
                result = super()._dijkstra()
                settled.append(len(result[0]))
                return result

        sol = Counting(net).solve()
        return (sol.flow, sol.value, repr(sol.total_cost), sol.phases,
                sol.paths), sum(settled)

    shipped, fewer = solve_counting(mincost_flow._PrimalDualSolver)
    oracle, more = solve_counting(FullSettleSolver)
    assert shipped == oracle
    assert shipped[1] == net.required_flow > 0
    assert fewer < more


def test_cells_without_arcs_share_one_empty_list():
    # The wall of the split map, and the layout's source and sink nodes,
    # which have no arcs of the layout's own. A solve changes a scan list
    # only in its own copy, so the shared list stays empty and shared.
    grid, agents, tasks = split_instance()
    wall = [v for v in range(len(grid.free)) if not grid.free[v]]
    assert len(wall) >= 2
    assert all(grid._neighbors[v] is grid._neighbors[wall[0]] for v in wall)
    assert grid._neighbors[wall[0]] == []
    builder = FlowNetworkBuilder(grid)
    layout = builder.layout
    source, sink = layout.num_nodes - 2, layout.num_nodes - 1
    empty = layout._adj[wall[0]]
    net = builder.build(agents, tasks).network
    assert solve_min_cost_flow(net).value == net.required_flow > 0
    for v in wall + [source, sink]:
        assert layout._adj[v] is empty
    assert empty == [] and grid._neighbors[wall[0]] == []
    assert_workspace_as_built(layout, net)


# -- flow_assign on small random grids --------------------------------------------

def draw_grid(draw):
    """A grid of up to 7x7 cells with at least one free cell."""
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    free = draw(st.lists(st.booleans(), min_size=width * height,
                         max_size=width * height))
    free[draw(st.integers(0, width * height - 1))] = True
    return GridMap(width, height, free)


def draw_agents_and_tasks(draw, cells):
    """Agents on distinct cells and tasks whose pickups may repeat."""
    agent_cells = draw(st.lists(st.sampled_from(cells), min_size=1,
                                max_size=min(len(cells), 6), unique=True))
    pickups = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=8))
    agents = [Agent(id=i, location=c) for i, c in enumerate(agent_cells)]
    tasks = [Task(id=j, pickup=p, delivery=p) for j, p in enumerate(pickups)]
    return agents, tasks


def draw_wait_costs(draw, grid):
    """Decayed average waits, as AvgWaitCost computes them each round."""
    stats = EdgeWaitStats(grid, gamma=draw(st.floats(0.05, 1.0)))
    edges = directed_edges(grid)
    for _ in range(draw(st.integers(0, 5))):
        events = draw(st.lists(st.tuples(st.sampled_from(edges),
                                         st.integers(0, 9)), max_size=12)
                      if edges else st.just([]))
        update_wait_stats(stats, events)
    return grid.edge_costs(AvgWaitCost(stats))


@st.composite
def grid_instances(draw, real_costs=False):
    """A small grid, agents on distinct free cells, tasks (pickups may
    repeat) and per-edge costs >= 1."""
    grid = draw_grid(draw)
    agents, tasks = draw_agents_and_tasks(draw, grid.free_cells)
    m = len(grid.tails)
    if real_costs:
        costs = draw_wait_costs(draw, grid)
    else:
        # Multiples of 1/4: every product and sum below is exact.
        quarters = draw(st.lists(st.integers(0, 12), min_size=m, max_size=m))
        costs = 1.0 + np.array(quarters, dtype=np.float64) / 4.0
    return grid, agents, tasks, costs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(grid_instances())
def test_flow_assign_guide_paths_match_the_solution(instance):
    grid, agents, tasks, costs = instance
    required = FlowNetworkBuilder(grid).build(agents, tasks, costs).network.required_flow
    aset = flow_assign(grid, agents, tasks, costs)
    assert len(aset.pairs) == required
    assert len(set(aset.pairs.values())) == len(aset.pairs)
    cost_of = {(u, v): c for u, v, c in zip(grid.tails.tolist(),
                                            grid.heads.tolist(), costs.tolist())}
    location = {a.id: a.location for a in agents}
    pickup = {t.id: t.pickup for t in tasks}
    steps = []
    for agent_id, task_id in aset.pairs.items():
        path = aset.guide_paths[agent_id]
        assert path[0] == location[agent_id]
        assert path[-1] == pickup[task_id]
        for u, v in zip(path, path[1:]):
            assert (u, v) in cost_of    # a grid edge
            steps.append(cost_of[(u, v)])
    assert aset.total_cost == math.fsum(steps)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grid_instances(real_costs=True))
def test_real_costs_solve_to_a_certified_optimum(instance):
    grid, agents, tasks, costs = instance
    net = FlowNetworkBuilder(grid).build(agents, tasks, costs).network
    sol = solve_min_cost_flow(net)   # raises "augmentation stalled" if stuck
    assert sol.value == net.required_flow
    assert_feasible_flow(net, sol)
    assert not residual_has_negative_cycle(net, sol.flow, tol=1e-9)


# -- the residual workspace a layout lends its solves ------------------------------

def outcome(net):
    """Flow, value and the exact repr of the cost of solving ``net``."""
    sol = solve_min_cost_flow(net)
    return sol.flow, sol.value, repr(sol.total_cost)


def loaded_scan_lists(layout, caps):
    """Each node's scan list in a layout loaded with ``caps`` and holding no
    flow: its forward arcs of nonzero capacity, by arc id."""
    lists = [[] for _ in range(layout.num_nodes)]
    for e in range(layout.num_edges):
        if caps[e]:
            lists[layout.arc_head[2 * e + 1]].append(2 * e)   # the tail's list
    return lists


def assert_workspace_as_built(layout, net=None):
    """The workspace of ``layout`` holds no flow and, bit for bit, the arc
    costs and capacities of ``net`` (of none if None), as a fresh layout
    loaded with them would."""
    fresh = ArcLayout(layout.num_nodes, layout.arc_head[1::2], layout.arc_head[0::2])
    m = layout.num_edges
    if net is None:
        costs, caps = np.zeros(m), [UNBOUNDED] * m
    else:
        costs, caps = net.layout_costs, net.layout_caps.tolist()
    assert layout._head == fresh._head == layout.arc_head
    assert layout._res == [x for c in caps for x in (c, 0)]
    arc_costs = [x for c in costs.tolist() for x in (c, -c)]
    assert list(map(repr, layout._cost)) == list(map(repr, arc_costs))
    assert layout._adj[:fresh.num_nodes] == loaded_scan_lists(fresh, caps)
    assert not any(layout._adj[fresh.num_nodes:])
    assert not layout._busy.locked()


@st.composite
def builder_rounds(draw):
    """A small grid and 2 to 5 rounds on it. Each round has its own agents
    and tasks, and edge costs that are new multiples of 1/4 (zeros
    included), new avg-wait costs, the previous round's array again, or
    that array with the sign of every zero flipped."""
    grid = draw_grid(draw)
    m = len(grid.tails)
    costs = np.ones(m)
    rounds = []
    for _ in range(draw(st.integers(2, 5))):
        agents, tasks = draw_agents_and_tasks(draw, grid.free_cells)
        kind = draw(st.sampled_from(["quarters", "avg-wait", "same", "flip-zeros"]))
        if kind == "quarters":
            quarters = draw(st.lists(st.integers(0, 8), min_size=m, max_size=m))
            costs = np.array(quarters, dtype=np.float64) / 4.0
        elif kind == "avg-wait":
            costs = draw_wait_costs(draw, grid)
        elif kind == "flip-zeros":
            costs = np.where(costs == 0.0, -costs, costs)
        rounds.append((agents, tasks, costs))
    return grid, rounds


@settings(max_examples=150, deadline=None, derandomize=True)
@given(builder_rounds())
def test_rounds_on_one_builder_solve_like_fresh_builders(instance):
    grid, rounds = instance
    builder = FlowNetworkBuilder(grid)
    loaded = None
    for agents, tasks, costs in rounds:
        net = builder.build(agents, tasks, costs).network
        fresh = FlowNetworkBuilder(grid).build(agents, tasks, costs).network
        assert outcome(net) == outcome(fresh)
        if net.required_flow:    # a solve of no flow never loads the costs
            loaded = net
        assert_workspace_as_built(builder.layout, loaded)


def test_infeasible_solve_leaves_the_layout_as_built():
    grid, agents, tasks = split_instance()
    builder = FlowNetworkBuilder(grid)
    costs = np.arange(len(grid.tails), dtype=np.float64) % 3 + 1.0
    net = builder.build(agents, tasks, costs).network
    net.required_flow += 1
    with pytest.raises(FlowInfeasibleError) as err:
        solve_min_cost_flow(net)
    assert err.value.max_feasible == net.required_flow - 1
    assert_workspace_as_built(builder.layout, net)
    again = builder.build(agents, tasks, costs).network
    fresh = FlowNetworkBuilder(grid).build(agents, tasks, costs).network
    assert outcome(again) == outcome(fresh)


def solve_with_a_nested_solve(monkeypatch, outer, inner):
    """Solve ``outer``; in its first Dijkstra phase, solve ``inner``.
    Returns the outer outcome and the inner one or the error it raised."""
    nested = []
    real = mincost_flow._PrimalDualSolver._dijkstra

    def dijkstra(self):
        if self.net is outer and not nested:
            try:
                nested.append(outcome(inner))
            except RuntimeError as exc:
                nested.append(exc)
        return real(self)

    monkeypatch.setattr(mincost_flow._PrimalDualSolver, "_dijkstra", dijkstra)
    result = outcome(outer)
    monkeypatch.undo()
    return result, nested[0]


def test_plain_networks_share_no_workspace(monkeypatch):
    def diamond():
        net = FlowNetwork(num_nodes=5, source=0, sink=4, required_flow=2)
        net.add_edge(0, 1, 2, 0.0)
        net.add_edge(1, 2, None, 1.0)
        net.add_edge(1, 3, None, 3.0)
        net.add_edge(2, 4, 1, 0.0)
        net.add_edge(3, 4, 1, 0.0)
        return net

    a, b = diamond(), diamond()
    assert a.layout is not b.layout
    alone = outcome(diamond())
    assert alone == ([2, 1, 1, 1, 1], 2, "4.0")
    assert solve_with_a_nested_solve(monkeypatch, a, b) == (alone, alone)


def test_a_solve_on_a_held_layout_raises(monkeypatch):
    grid, agents, tasks = split_instance()
    builder = FlowNetworkBuilder(grid)
    outer = builder.build(agents, tasks).network
    inner = builder.build(agents[:3], tasks[:3]).network
    expected = outcome(FlowNetworkBuilder(grid).build(agents, tasks).network)
    result, error = solve_with_a_nested_solve(monkeypatch, outer, inner)
    assert isinstance(error, RuntimeError)
    assert "holds this layout's workspace" in str(error)
    assert result == expected     # the refused solve left the outer one alone
    assert_workspace_as_built(builder.layout, outer)


def assert_scratch_clear(layout):
    """The per-node lists of ``layout``'s workspace hold no solve's marks:
    every node scans its loaded arcs alone, and the scratch is as new."""
    n = layout.num_nodes
    assert layout._adj[:n] == loaded_scan_lists(layout, layout._edge_caps.tolist())
    assert not any(layout._adj[n:])
    assert all(p == 0.0 for p in layout._pi)
    assert all(d == math.inf for d in layout._dist)
    assert not any(layout._done + layout._it + layout._dead + layout._on_path)


def floor_rule_eps(net):
    """The solver's float slack, derived from every edge cost at once."""
    costs = np.array(net.costs, dtype=np.float64)
    if np.equal(np.floor(costs), costs).all():
        return 0.0
    return 1e-10 * (1.0 + float(costs.max()))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(builder_rounds())
def test_solver_slack_and_scratch_across_rounds(instance):
    # A layout keeps the largest cost and the integrality of its costs from
    # round to round; the slack a solve derives from them and the network's
    # own costs must equal, bit for bit, the slack of all costs at once. A
    # plain network (own edges only) checks the own-cost half.
    grid, rounds = instance
    builder = FlowNetworkBuilder(grid)
    for agents, tasks, costs in rounds:
        net = builder.build(agents, tasks, costs).network
        for network in (net, plain_copy(net)):
            solver = mincost_flow._PrimalDualSolver(network)
            solver.solve()
            assert repr(solver.eps) == repr(floor_rule_eps(network))
            assert_scratch_clear(network.layout)


def test_a_failed_solve_drops_the_scratch():
    grid, agents, tasks = split_instance()
    builder = FlowNetworkBuilder(grid)
    net = builder.build(agents, tasks).network
    solve_min_cost_flow(net)
    assert len(builder.layout._pi) == net.num_nodes
    assert_scratch_clear(builder.layout)
    net.required_flow += 1
    with pytest.raises(FlowInfeasibleError):
        solve_min_cost_flow(net)
    assert builder.layout._pi == []
    assert_scratch_clear(builder.layout)
    again = builder.build(agents, tasks).network
    assert outcome(again) == outcome(FlowNetworkBuilder(grid).build(agents, tasks).network)


def test_layout_tables_hold_one_object_per_node_id_and_cost():
    # The arc heads share one int object per node id. The loaded costs
    # share one float object per distinct cost and one for its negation:
    # after a unit-cost solve, 1.0 and -1.0 on the map's edges and the
    # built 0.0 and -0.0 on the sink edges. A map past 256 cells, since
    # Python shares the ints up to 256 by itself.
    grid = random_map(32, 32, 0.2, seed=2)
    builder = FlowNetworkBuilder(grid)
    layout = builder.layout
    assert len({id(h) for h in layout.arc_head}) <= layout.num_nodes
    agents, tasks = random_instance(random.Random(3), grid, 20, 30)
    solve_min_cost_flow(builder.build(agents, tasks).network)
    assert len({id(c) for c in layout._cost}) <= 4
    quarters = np.random.default_rng(4).integers(0, 9, len(grid.tails)) / 4.0
    net = builder.build(agents, tasks, quarters).network
    solve_min_cost_flow(net)
    assert len({id(c) for c in layout._cost}) <= 2 * 9 + 2
    assert_workspace_as_built(layout, net)
