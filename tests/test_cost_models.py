import random

import pytest

from mapdflow.cost_models import (AvgWaitCost, EdgeWaitStats, TrafficCost,
                                  TrafficState, UnitCost, contraflow, fcost,
                                  pcost, unit_cost, update_wait_stats,
                                  vertex_congestion)


def traffic(entries=None, traversals=None):
    return TrafficState(entries=entries or {}, traversals=traversals or {})


def test_unit_cost_is_one():
    assert unit_cost((3, 4)) == 1.0
    assert sum(unit_cost((i, i + 1)) for i in range(7)) == 7.0
    assert UnitCost()(10, 11) == 1.0


def test_vertex_congestion_formula():
    assert vertex_congestion(5, traffic({5: 1})) == 0.0
    assert vertex_congestion(5, traffic({5: 4})) == 2.0
    assert vertex_congestion(5, traffic()) == 0.0
    assert vertex_congestion(5, traffic({5: 2})) == 1.0
    assert vertex_congestion(5, traffic({5: 3})) == 1.0


def test_contraflow_formula():
    ts = traffic(traversals={(1, 2): 2, (2, 1): 3})
    assert contraflow((1, 2), ts) == 6.0
    assert contraflow((2, 1), ts) == 6.0  # symmetric
    assert contraflow((1, 2), traffic(traversals={(1, 2): 4})) == 0.0
    assert contraflow((1, 2), traffic(traversals={(1, 2): 1, (2, 1): 1})) == 1.0


def test_fcost_formula():
    assert fcost((1, 2), traffic()) == 1.0
    ts = traffic(entries={2: 3}, traversals={(1, 2): 1, (2, 1): 2})
    assert fcost((1, 2), ts) == 4.0
    assert fcost((1, 2), traffic(entries={2: 1})) == 1.0


def test_pcost_formula():
    stats = EdgeWaitStats()
    assert pcost((1, 2), stats) == 1.0
    stats._w[(1, 2)] = (4.0, 0)
    stats._n[(1, 2)] = (2.0, 0)
    assert pcost((1, 2), stats) == 3.0
    stats._w[(3, 4)] = (0.0, 0)
    stats._n[(3, 4)] = (5.0, 0)
    assert pcost((3, 4), stats) == 1.0


def test_decay_update_matches_closed_form():
    stats = EdgeWaitStats(gamma=0.9)
    stats._w[(1, 2)] = (10.0, 0)
    stats._n[(1, 2)] = (2.0, 0)
    update_wait_stats(stats, [((1, 2), 2)])
    assert stats.wait_total((1, 2)) == pytest.approx(11.0)
    assert stats.traversal_count((1, 2)) == pytest.approx(2.8)


def test_decay_without_events():
    stats = EdgeWaitStats(gamma=0.9)
    update_wait_stats(stats, [((0, 1), 3)])
    w0, n0 = stats.wait_total((0, 1)), stats.traversal_count((0, 1))
    update_wait_stats(stats, [])
    assert stats.wait_total((0, 1)) == pytest.approx(0.9 * w0)
    assert stats.traversal_count((0, 1)) == pytest.approx(0.9 * n0)


def test_decay_k_windows_geometric():
    # closed form gamma^k * (W0, N0), cross-checked by iterating the update
    for gamma in (0.5, 0.9, 1.0):
        stats = EdgeWaitStats(gamma=gamma)
        update_wait_stats(stats, [((2, 3), 4)])
        w0, n0 = stats.wait_total((2, 3)), stats.traversal_count((2, 3))
        k = 7
        for _ in range(k):
            update_wait_stats(stats, [])
        assert stats.wait_total((2, 3)) == pytest.approx(gamma ** k * w0)
        assert stats.traversal_count((2, 3)) == pytest.approx(gamma ** k * n0)


def test_update_rejects_negative_wait():
    stats = EdgeWaitStats()
    with pytest.raises(ValueError):
        update_wait_stats(stats, [((1, 2), -1)])


def test_gamma_validation():
    with pytest.raises(ValueError):
        EdgeWaitStats(gamma=0.0)
    with pytest.raises(ValueError):
        EdgeWaitStats(gamma=1.5)
    EdgeWaitStats(gamma=1.0)


def test_order_independence_within_window():
    events = [((1, 2), 3), ((2, 3), 1), ((1, 2), 0), ((1, 2), 5), ((2, 3), 2)]
    a = EdgeWaitStats(gamma=0.8)
    update_wait_stats(a, events)
    b = EdgeWaitStats(gamma=0.8)
    rng = random.Random(0)
    shuffled = list(events)
    rng.shuffle(shuffled)
    update_wait_stats(b, shuffled)
    for e in {(1, 2), (2, 3)}:
        assert a.wait_total(e) == pytest.approx(b.wait_total(e))
        assert a.traversal_count(e) == pytest.approx(b.traversal_count(e))


def test_traffic_state_from_guide_paths():
    paths = [[0, 1, 2], [3, 1, 2], [2, 1]]
    ts = TrafficState.from_guide_paths(paths)
    assert ts.entries[1] == 3  # two forward entries plus the reverse pass
    assert ts.entries[2] == 2
    assert ts.traversals[(1, 2)] == 2
    assert ts.traversals[(2, 1)] == 1
    assert contraflow((1, 2), ts) == 2.0


def test_traffic_state_revisits_count_again():
    ts = TrafficState.from_guide_paths([[0, 1, 0, 1]])
    assert ts.entries[1] == 2
    assert ts.entries[0] == 1


def test_traffic_rebuild_idempotent():
    paths = [[0, 1, 2, 3], [5, 1, 2]]
    a = TrafficState.from_guide_paths(paths)
    b = TrafficState.from_guide_paths(paths)
    assert a.entries == b.entries and a.traversals == b.traversals


def test_cost_functions_lower_bound_one():
    rng = random.Random(1)
    ts = traffic(
        entries={v: rng.randint(0, 5) for v in range(10)},
        traversals={(u, v): rng.randint(0, 3) for u in range(5) for v in range(5)})
    stats = EdgeWaitStats()
    update_wait_stats(stats, [((1, 2), 4), ((0, 1), 0)])
    for u in range(5):
        for v in range(5):
            assert fcost((u, v), ts) >= 1.0
            assert pcost((u, v), stats) >= 1.0
            assert unit_cost((u, v)) >= 1.0


def test_fcost_empty_traffic_equals_unit_everywhere():
    ts = traffic()
    model = TrafficCost(ts)
    for u in range(12):
        assert model(u, u + 1) == 1.0


def test_avg_wait_cost_fresh_equals_unit():
    model = AvgWaitCost(EdgeWaitStats())
    for u in range(12):
        assert model(u, u + 1) == 1.0


def test_cost_arrays_equal_scalar_formulas_edge_by_edge():
    from conftest import random_grid
    rng = random.Random(9)
    for _ in range(5):
        grid = random_grid(rng, 7, 6, 0.15)
        edges = list(grid.directed_edges())
        # Random walks over the map give overlapping, opposing traffic.
        paths = []
        for _ in range(8):
            path = [rng.choice(grid.free_cells)]
            for _ in range(rng.randint(1, 12)):
                path.append(rng.choice(grid.neighbors(path[-1]) or [path[-1]]))
            paths.append(path)
        ts = TrafficState.from_guide_paths(paths)
        stats = EdgeWaitStats(gamma=0.8)
        for _ in range(3):
            update_wait_stats(stats, [(rng.choice(edges), rng.randint(0, 4))
                                      for _ in range(10)])
        traffic_arr = grid.edge_costs(TrafficCost(ts))
        wait_arr = grid.edge_costs(AvgWaitCost(stats))
        assert (grid.edge_costs(UnitCost()) == 1.0).all()
        for e, edge in enumerate(edges):
            assert traffic_arr[e] == fcost(edge, ts)
            assert wait_arr[e] == pcost(edge, stats)
        assert (traffic_arr > 1.0).any() and (wait_arr > 1.0).any()
