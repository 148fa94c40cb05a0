import math
import random

import numpy as np
import pytest

from mapdflow.mincost_flow import (ArcLayout, FlowInfeasibleError, FlowNetwork,
                                   solve_min_cost_flow, to_dimacs)

from conftest import (flow_cost_oracle, max_flow_oracle, random_flow_network,
                      residual_has_negative_cycle)


def chain_network():
    net = FlowNetwork(num_nodes=3, source=0, sink=2, required_flow=1)
    net.add_edge(0, 1, 1, 0.0)
    net.add_edge(1, 2, 1, 0.0)
    return net


def isolated_source_network():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    net.add_edge(1, 2, 5, 0.0)
    return net


def two_agents_one_task_network():
    # two source edges, one unit-capacity sink edge
    net = FlowNetwork(num_nodes=5, source=0, sink=4)
    net.add_edge(0, 1, 1, 0.0)
    net.add_edge(0, 2, 1, 0.0)
    net.add_edge(1, 3, None, 1.0)
    net.add_edge(2, 3, None, 1.0)
    net.add_edge(3, 4, 1, 0.0)
    return net


def test_solve_diamond_prefers_cheap_branch():
    net = FlowNetwork(num_nodes=5, source=0, sink=4, required_flow=1)
    net.add_edge(0, 1, 1, 0.0)
    net.add_edge(1, 2, None, 1.0)
    net.add_edge(1, 3, None, 3.0)
    net.add_edge(2, 4, 1, 0.0)
    net.add_edge(3, 4, 1, 0.0)
    sol = solve_min_cost_flow(net)
    assert sol.total_cost == 1.0
    assert sol.flow == [1, 1, 0, 1, 0]
    assert sol.value == 1


def test_solve_required_zero_is_noop():
    net = chain_network()
    net.required_flow = 0
    sol = solve_min_cost_flow(net)
    assert sol.flow == [0, 0]
    assert sol.total_cost == 0.0
    assert sol.value == 0


def test_max_flow_chain():
    net = chain_network()
    assert solve_min_cost_flow(net).value == 1
    net.required_flow = 2
    with pytest.raises(FlowInfeasibleError) as err:
        solve_min_cost_flow(net)
    assert err.value.max_feasible == 1 == max_flow_oracle(net)


def test_infeasible_reports_max_feasible():
    net = chain_network()
    net.required_flow = 3
    with pytest.raises(FlowInfeasibleError) as err:
        solve_min_cost_flow(net)
    assert err.value.max_feasible == 1
    assert err.value.required == 3


@pytest.mark.parametrize("make_net, required, maximum", [
    (isolated_source_network, 1, 0),
    (two_agents_one_task_network, 2, 1),
], ids=["isolated-source", "two-agents-one-task"])
def test_max_feasible_matches_oracle(make_net, required, maximum):
    net = make_net()
    net.required_flow = required
    with pytest.raises(FlowInfeasibleError) as err:
        solve_min_cost_flow(net)
    assert err.value.max_feasible == maximum == max_flow_oracle(net)
    assert err.value.required == required


def _check_solution(net, sol):
    caps = [c if c is not None else net.required_flow for c in net.capacities]
    inflow = [0] * net.num_nodes
    outflow = [0] * net.num_nodes
    for e, f in enumerate(sol.flow):
        assert isinstance(f, int)
        assert 0 <= f <= caps[e]
        outflow[net.tails[e]] += f
        inflow[net.heads[e]] += f
    for v in range(net.num_nodes):
        if v == net.source:
            assert outflow[v] - inflow[v] == sol.value
        elif v == net.sink:
            assert inflow[v] - outflow[v] == sol.value
        else:
            assert inflow[v] == outflow[v]
    assert sol.total_cost == pytest.approx(
        math.fsum(f * c for f, c in zip(sol.flow, net.costs)), abs=1e-9)


def test_random_networks_match_exhaustive_oracle():
    rng = random.Random(99)
    checked = 0
    while checked < 120:
        net = random_flow_network(rng)
        if net.num_edges == 0:
            continue
        net.required_flow = rng.randint(0, 3)
        feasible = max_flow_oracle(net)
        if net.required_flow > feasible:
            with pytest.raises(FlowInfeasibleError) as err:
                solve_min_cost_flow(net)
            assert err.value.max_feasible == feasible
            checked += 1
            continue
        sol = solve_min_cost_flow(net)
        _check_solution(net, sol)
        expected = flow_cost_oracle(net, net.required_flow)
        assert sol.total_cost == pytest.approx(expected, abs=1e-9)
        assert not residual_has_negative_cycle(net, sol.flow)
        checked += 1


def test_random_real_cost_networks_certificate():
    rng = random.Random(4242)
    checked = 0
    while checked < 60:
        net = random_flow_network(rng, real_costs=True)
        if net.num_edges == 0:
            continue
        feasible = max_flow_oracle(net)
        if feasible == 0:
            continue
        net.required_flow = rng.randint(1, feasible)
        sol = solve_min_cost_flow(net)
        _check_solution(net, sol)
        expected = flow_cost_oracle(net, net.required_flow)
        assert sol.total_cost == pytest.approx(expected, rel=1e-9)
        assert not residual_has_negative_cycle(net, sol.flow, tol=1e-7)
        checked += 1


def test_determinism_same_insertion_order():
    rng = random.Random(17)
    for _ in range(20):
        net = random_flow_network(rng)
        net.required_flow = min(2, max_flow_oracle(net))
        first = solve_min_cost_flow(net).flow
        second = solve_min_cost_flow(net).flow
        assert first == second


def test_unbounded_capacity_bounded_by_required_flow():
    net = FlowNetwork(num_nodes=3, source=0, sink=2, required_flow=4)
    net.add_edge(0, 1, 4, 1.0)
    net.add_edge(1, 2, None, 1.0)
    sol = solve_min_cost_flow(net)
    assert sol.flow == [4, 4]
    assert sol.total_cost == 8.0
    # An unbounded edge reads as None, and the dump bounds it by the
    # required flow.
    assert net.capacities == [4, None]
    assert "a 2 3 0 4 1" in to_dimacs(net).splitlines()


def test_edge_validation():
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    with pytest.raises(ValueError):
        net.add_edge(0, 5, 1, 1.0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, -1, 1.0)
    with pytest.raises(ValueError):
        net.add_edge(0, 1, 1, -2.0)
    with pytest.raises(ValueError):
        FlowNetwork(num_nodes=3, source=1, sink=1)


@pytest.mark.parametrize("tails, heads, costs", [
    ([0, 0, 1, 2], [1, 2, 3, 3], [5.0, 1.0, -10.0, 1.0]),
    ([0, 1], [1, 2], [math.nan, 1.0]),
    ([0, 1], [1, 2], [math.inf, 1.0]),
], ids=["negative", "nan", "inf"])
def test_layout_costs_validated_like_added_edges(tails, heads, costs):
    # A negative layout cost once gave cost 2.0 where the path 0-1-3 costs
    # -5, and a NaN or infinite one reported a maximum flow of 0, not 1.
    layout = ArcLayout(max(heads) + 1, tails, heads)
    with pytest.raises(ValueError, match="edge cost must be finite and nonnegative"):
        FlowNetwork(num_nodes=layout.num_nodes, source=0, sink=max(heads),
                    required_flow=1, layout=layout, layout_costs=np.array(costs))
    net = FlowNetwork(num_nodes=3, source=0, sink=2)
    with pytest.raises(ValueError, match="edge cost must be finite and nonnegative"):
        net.add_edge(0, 1, 1, costs[-2])


def test_dimacs_dump():
    net = chain_network()
    sol = solve_min_cost_flow(net)
    text = to_dimacs(net, sol)
    lines = text.strip().splitlines()
    assert lines[0] == "p min 3 2"
    assert "n 1 1" in lines and "n 3 -1" in lines
    assert "a 1 2 0 1 0" in lines
    assert any(line.startswith("c flow") for line in lines)
