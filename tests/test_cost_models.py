import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapdflow.cost_models import (AvgWaitCost, EdgeWaitStats, TrafficCost,
                                  TrafficState, update_wait_stats)
from mapdflow.grid_map import GridMap

from conftest import (WaitOracle, directed_edges, fcost_oracle, random_grid,
                      traffic_oracle)

# Two rows of six open cells: the pairs the formula tests name, such as
# (1, 2) and (2, 3), are edges of the top row.
GRID = GridMap(6, 2, [True] * 12)


def edge_id(grid, e):
    return directed_edges(grid).index(e)


def traffic(entries=(), traversals=()):
    """A traffic state on ``GRID`` holding the given counts."""
    ts = TrafficState(GRID)
    for v, count in dict(entries).items():
        ts.entry_counts[v] = count
    for e, count in dict(traversals).items():
        ts.traversal_counts[edge_id(GRID, e)] = count
    return ts


def set_waits(stats, e, w, n, stamp=0):
    i = edge_id(stats.grid, e)
    stats.w[i], stats.n[i], stats.stamp[i] = w, n, stamp


def traffic_from_paths(grid, paths):
    ts = TrafficState(grid)
    ts.add(paths)
    return ts


def fcost_at(ts, e):
    """The traffic model's cost array, read at edge ``e``."""
    grid = ts.grid
    return TrafficCost(ts)(grid.tails, grid.heads)[edge_id(grid, e)]


def pcost_at(stats, e):
    """The avg-wait model's cost array, read at edge ``e``."""
    grid = stats.grid
    return AvgWaitCost(stats)(grid.tails, grid.heads)[edge_id(grid, e)]


def current(stats, e):
    """The decayed wait total and traversal count of edge ``e``."""
    i = edge_id(stats.grid, e)
    factor = stats.decay(stats.epoch - stats.stamp[i])
    return float(stats.w[i] * factor), float(stats.n[i] * factor)


def test_unit_cost_is_one():
    # Unit cost is no model at all: every edge costs 1.
    grid = GridMap(4, 2, [True] * 8)
    assert grid.edge_costs(None).tolist() == [1.0] * grid.num_directed_edges()


def test_vertex_congestion_formula():
    # With no traversals, an edge into cell 5 costs 1 plus the vertex
    # congestion at 5.
    for n_v, congestion in ((1, 0.0), (4, 2.0), (0, 0.0), (2, 1.0), (3, 1.0)):
        assert fcost_at(traffic({5: n_v}), (4, 5)) == 1.0 + congestion


def test_contraflow_formula():
    # With no entries, an edge costs 1 plus its contraflow.
    ts = traffic(traversals={(1, 2): 2, (2, 1): 3})
    assert fcost_at(ts, (1, 2)) == 1.0 + 6.0
    assert fcost_at(ts, (2, 1)) == 1.0 + 6.0  # symmetric
    assert fcost_at(traffic(traversals={(1, 2): 4}), (1, 2)) == 1.0 + 0.0
    assert fcost_at(traffic(traversals={(1, 2): 1, (2, 1): 1}), (1, 2)) == 1.0 + 1.0


def test_fcost_formula():
    assert fcost_at(traffic(), (1, 2)) == 1.0
    ts = traffic(entries={2: 3}, traversals={(1, 2): 1, (2, 1): 2})
    assert fcost_at(ts, (1, 2)) == 4.0
    assert fcost_at(traffic(entries={2: 1}), (1, 2)) == 1.0


def test_pcost_formula():
    stats = EdgeWaitStats(GRID)
    assert pcost_at(stats, (1, 2)) == 1.0
    set_waits(stats, (1, 2), 4.0, 2.0)
    assert pcost_at(stats, (1, 2)) == 3.0
    set_waits(stats, (3, 4), 0.0, 5.0)
    assert pcost_at(stats, (3, 4)) == 1.0


def test_pairs_that_are_no_edge_carry_no_traffic():
    # A jump, a pair off the map and a cell to itself have no edge id, so
    # no cost of their own; a jump in a path is an entry but no traversal.
    # The last edge, (11, 10), is busy too: id -1 must not wrap round to it.
    pairs = ((0, 2), (0, 3), (2, 2), (-1, 0), (5, 6), (11, 12), (1, -1))
    assert GRID.edge_ids(*zip(*pairs)).tolist() == [-1] * len(pairs)
    paths = [[0, 1, 2, 8, 7], [7, 8, 2, 1, 0], [0, 3], [10, 11, 10]]
    ts = traffic_from_paths(GRID, paths)
    assert ts.traversal_counts.sum() == 10 and ts.entry_counts.sum() == 11
    entries, traversals = traffic_oracle(paths)
    assert TrafficCost(ts)(GRID.tails, GRID.heads).tolist() == [
        fcost_oracle(e, entries, traversals) for e in directed_edges(GRID)]
    assert fcost_at(ts, (1, 2)) == 1.0 + 1.0 + 1.0   # congestion at 2, contraflow
    assert fcost_at(ts, (11, 10)) == 1.0 + 0.0 + 1.0
    stats = EdgeWaitStats(GRID)
    stats.apply_window([((1, 2), 4), ((2, 1), 1), ((0, 1), 2), ((11, 10), 3)])
    busy = {(1, 2): 5.0, (2, 1): 2.0, (0, 1): 3.0, (11, 10): 4.0}
    assert AvgWaitCost(stats)(GRID.tails, GRID.heads).tolist() == [
        busy.get(e, 1.0) for e in directed_edges(GRID)]


def test_decay_update_matches_closed_form():
    stats = EdgeWaitStats(GRID, gamma=0.9)
    set_waits(stats, (1, 2), 10.0, 2.0)
    update_wait_stats(stats, [((1, 2), 2)])
    w, n = current(stats, (1, 2))
    assert w == pytest.approx(11.0)
    assert n == pytest.approx(2.8)


def test_decay_without_events():
    stats = EdgeWaitStats(GRID, gamma=0.9)
    update_wait_stats(stats, [((0, 1), 3)])
    w0, n0 = current(stats, (0, 1))
    update_wait_stats(stats, [])
    w, n = current(stats, (0, 1))
    assert w == pytest.approx(0.9 * w0)
    assert n == pytest.approx(0.9 * n0)


def test_decay_k_windows_geometric():
    # closed form gamma^k * (W0, N0), cross-checked by iterating the update
    for gamma in (0.5, 0.9, 1.0):
        stats = EdgeWaitStats(GRID, gamma=gamma)
        update_wait_stats(stats, [((2, 3), 4)])
        w0, n0 = current(stats, (2, 3))
        k = 7
        for _ in range(k):
            update_wait_stats(stats, [])
        w, n = current(stats, (2, 3))
        assert w == pytest.approx(gamma ** k * w0)
        assert n == pytest.approx(gamma ** k * n0)


@pytest.mark.parametrize("gamma", [0.9, 0.99, 1.0])
def test_decay_table_stays_bounded_and_exact(gamma):
    # gamma ** k is exactly 0.0 from some k on (at gamma < 1), and 1.0
    # always at gamma 1, so the table of powers stops growing there.
    cap = 0
    while gamma < 1.0 and gamma ** cap != 0.0:
        cap += 1
    stats = EdgeWaitStats(GridMap(3, 1, [True] * 3), gamma=gamma)
    for epoch in (1, 10, cap // 2, cap + 1, 2 * cap + 5, 3 * cap + 100):
        stats.epoch = epoch
        ages = np.arange(epoch + 1)
        assert stats.decay(ages).tolist() == [gamma ** k for k in range(epoch + 1)]
        assert len(stats._powers) <= cap + 1
    # a real update past the table's end decays by the same power
    stats.w[0], stats.stamp[0] = 5.0, stats.epoch - cap - 3
    stats.apply_window([((0, 1), 2)])
    assert stats.w[0] == 5.0 * gamma ** (cap + 4) + 2.0
    assert len(stats._powers) <= cap + 1


def test_update_rejects_negative_wait():
    stats = EdgeWaitStats(GRID)
    with pytest.raises(ValueError):
        update_wait_stats(stats, [((1, 2), -1)])


def test_gamma_validation():
    with pytest.raises(ValueError):
        EdgeWaitStats(GRID, gamma=0.0)
    with pytest.raises(ValueError):
        EdgeWaitStats(GRID, gamma=1.5)
    EdgeWaitStats(GRID, gamma=1.0)


def test_order_independence_within_window():
    events = [((1, 2), 3), ((2, 3), 1), ((1, 2), 0), ((1, 2), 5), ((2, 3), 2)]
    a = EdgeWaitStats(GRID, gamma=0.8)
    update_wait_stats(a, events)
    b = EdgeWaitStats(GRID, gamma=0.8)
    rng = random.Random(0)
    shuffled = list(events)
    rng.shuffle(shuffled)
    update_wait_stats(b, shuffled)
    for e in {(1, 2), (2, 3)}:
        assert current(a, e) == pytest.approx(current(b, e))


def test_traffic_state_from_guide_paths():
    paths = [[0, 1, 2], [7, 1, 2], [2, 1]]
    ts = traffic_from_paths(GRID, paths)
    assert ts.entry_counts[1] == 3  # two forward entries plus the reverse pass
    assert ts.entry_counts[2] == 2
    assert ts.traversal_counts[edge_id(GRID, (1, 2))] == 2
    assert ts.traversal_counts[edge_id(GRID, (2, 1))] == 1
    assert fcost_at(ts, (1, 2)) == 1.0 + 1.0 + 2.0   # congestion at 2, contraflow


def test_traffic_state_revisits_count_again():
    ts = traffic_from_paths(GRID, [[0, 1, 0, 1]])
    assert ts.entry_counts[1] == 2
    assert ts.entry_counts[0] == 1


def test_traffic_rebuild_idempotent():
    paths = [[0, 1, 2, 3], [5, 4, 3, 2]]
    a = traffic_from_paths(GRID, paths)
    b = traffic_from_paths(GRID, paths)
    assert a.entry_counts.tolist() == b.entry_counts.tolist()
    assert a.traversal_counts.tolist() == b.traversal_counts.tolist()
    # Adding equal copies of the paths and removing the originals, one
    # call each, leaves the counts as they were.
    a.add([list(p) for p in paths])
    a.remove(paths)
    assert a.entry_counts.tolist() == b.entry_counts.tolist()
    assert a.traversal_counts.tolist() == b.traversal_counts.tolist()
    a.remove([paths[1], paths[0]])
    assert not a.entry_counts.any() and not a.traversal_counts.any()


def test_traffic_remove_below_zero_raises_and_changes_nothing():
    ts = traffic_from_paths(GRID, [[0, 1, 2], [3, 2]])
    entries, traversals = ts.entry_counts.tolist(), ts.traversal_counts.tolist()
    # Cell 1 is entered once, so two removals of [0, 1] take its entry
    # count below zero; [2, 1] enters it once too, but edge (2, 1) was
    # never traversed; [0, 1] is counted, but the second path is not.
    for bad in ([[0, 1], [0, 1]], [[2, 1]], [[0, 1], [4, 5]]):
        with pytest.raises(ValueError, match="never counted"):
            ts.remove(bad)
        assert ts.entry_counts.tolist() == entries
        assert ts.traversal_counts.tolist() == traversals
    ts.remove([[3, 2], [0, 1, 2]])
    assert not ts.entry_counts.any() and not ts.traversal_counts.any()


def test_cost_functions_lower_bound_one():
    rng = random.Random(1)
    edges = set(directed_edges(GRID))
    ts = traffic(
        entries={v: rng.randint(0, 5) for v in range(10)},
        traversals={(u, v): rng.randint(0, 3) for u in range(5) for v in range(5)
                    if (u, v) in edges})
    stats = EdgeWaitStats(GRID)
    update_wait_stats(stats, [((1, 2), 4), ((0, 1), 0)])
    assert (TrafficCost(ts)(GRID.tails, GRID.heads) >= 1.0).all()
    assert (AvgWaitCost(stats)(GRID.tails, GRID.heads) >= 1.0).all()


def test_fcost_empty_traffic_equals_unit_everywhere():
    grid = GridMap(4, 3, [True] * 12)
    ts = TrafficState(grid)
    assert (grid.edge_costs(TrafficCost(ts)) == 1.0).all()


def test_avg_wait_cost_fresh_equals_unit():
    grid = GridMap(4, 3, [True] * 12)
    stats = EdgeWaitStats(grid)
    assert (grid.edge_costs(AvgWaitCost(stats)) == 1.0).all()


def test_cost_arrays_equal_scalar_formulas_edge_by_edge():
    rng = random.Random(9)
    for _ in range(5):
        grid = random_grid(rng, 7, 6, 0.15)
        edges = directed_edges(grid)
        # Random walks over the map give overlapping, opposing traffic.
        paths = []
        for _ in range(8):
            path = [rng.choice(grid.free_cells)]
            for _ in range(rng.randint(1, 12)):
                path.append(rng.choice(grid.neighbors(path[-1]) or [path[-1]]))
            paths.append(path)
        entries, traversals = traffic_oracle(paths)
        oracle, stats = WaitOracle(0.8), EdgeWaitStats(grid, gamma=0.8)
        for _ in range(3):
            events = [(rng.choice(edges), rng.randint(0, 4)) for _ in range(10)]
            oracle.apply_window(events)
            update_wait_stats(stats, events)
        ts = traffic_from_paths(grid, paths)
        traffic_arr = grid.edge_costs(TrafficCost(ts))
        wait_arr = grid.edge_costs(AvgWaitCost(stats))
        for e, edge in enumerate(edges):
            assert traffic_arr[e] == fcost_oracle(edge, entries, traversals)
            assert wait_arr[e] == oracle.pcost(edge)
        assert (traffic_arr > 1.0).any() and (wait_arr > 1.0).any()


# -- one array call over a map's edges equals the oracles' formulas -----------

@st.composite
def grids(draw):
    width, height = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    free = draw(st.lists(st.booleans(), min_size=width * height,
                         max_size=width * height))
    free[draw(st.integers(0, width * height - 1))] = True
    return GridMap(width, height, free)


@st.composite
def guide_paths(draw, grid):
    """Walks over the free cells: mostly neighbour steps (revisits and, with
    reversed copies, opposing traffic), sometimes jumps to any free cell,
    which count as entries but match no edge; some paths empty or one cell."""
    cells = grid.free_cells
    paths = []
    for _ in range(draw(st.integers(0, 8))):
        path = draw(st.lists(st.sampled_from(cells), max_size=1))
        for _ in range(draw(st.integers(0, 12)) if path else 0):
            jump = draw(st.integers(0, 5)) == 0 or not grid.neighbors(path[-1])
            options = cells if jump else grid.neighbors(path[-1])
            path.append(draw(st.sampled_from(options)))
        paths.append(path)
        if draw(st.booleans()):
            paths.append(path[::-1])
    return paths


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_traffic_array_equals_fcost_edge_by_edge(data):
    grid = data.draw(grids())
    paths = data.draw(guide_paths(grid))
    entries, traversals = traffic_oracle(paths)
    edges = directed_edges(grid)
    ts = traffic_from_paths(grid, paths)
    # The counts are those of a plain loop over the paths.
    assert ts.entry_counts.tolist() == [entries[c]
                                        for c in range(grid.width * grid.height)]
    assert ts.traversal_counts.tolist() == [traversals[e] for e in edges]
    want = [fcost_oracle(e, entries, traversals) for e in edges]
    arr = grid.edge_costs(TrafficCost(ts))
    assert arr.dtype == np.float64
    assert arr.tolist() == want


GRID3 = GridMap(3, 3, [True] * 9)


@pytest.mark.parametrize("model", [
    TrafficCost(TrafficState(GRID3)),
    TrafficCost(traffic_from_paths(GRID3, [[0, 1, 2, 5], [5, 2, 1]])),
    AvgWaitCost(update_wait_stats(EdgeWaitStats(GRID3),
                                  [((0, 1), 3), ((1, 0), 0)])),
])
def test_edge_costs_calls_a_library_model_once(model, monkeypatch):
    grid = GRID3
    want = model(grid.tails, grid.heads).tolist()
    calls = []
    call = type(model).__call__

    def counted(self, u, v):
        calls.append((u, v))
        return call(self, u, v)

    monkeypatch.setattr(type(model), "__call__", counted)
    arr = grid.edge_costs(model)
    assert len(calls) == 1
    assert calls[0][0] is grid.tails and calls[0][1] is grid.heads
    assert arr.tolist() == want


# -- states kept as arrays over a grid equal states built from scratch ---------

@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_grid_traffic_counts_follow_added_and_removed_paths(data):
    grid = data.draw(grids())
    pool = data.draw(guide_paths(grid))
    edges = directed_edges(grid)
    ts = TrafficState(grid)
    counted = []   # every path added and not removed since
    # Each call adds some paths of the pool (stagings; a path may be added
    # more than once) or removes some counted ones (deliveries), passed as
    # equal copies or as the very lists that were added.
    for _ in range(data.draw(st.integers(1, 8))):
        if counted and data.draw(st.booleans()):
            gone = data.draw(st.lists(st.integers(0, len(counted) - 1), unique=True))
            copies = data.draw(st.booleans())
            ts.remove([list(counted[i]) if copies else counted[i] for i in gone])
            counted = [p for i, p in enumerate(counted) if i not in gone]
        else:
            added = data.draw(st.lists(st.sampled_from(pool), max_size=4)) if pool else []
            ts.add(added)
            counted += added
        entries, traversals = traffic_oracle(counted)
        assert ts.entry_counts.tolist() == [
            entries[c] for c in range(grid.width * grid.height)]
        # Steps between non-adjacent cells match no edge, so the grid
        # state has no count for them.
        assert ts.traversal_counts.tolist() == [traversals[e] for e in edges]
        want = [fcost_oracle(e, entries, traversals) for e in edges]
        arr = TrafficCost(ts)(grid.tails, grid.heads)
        assert arr.dtype == np.float64
        assert arr.tolist() == want
        assert grid.edge_costs(TrafficCost(ts)).tolist() == want


def draw_wait_stats(data, grid):
    """Wait statistics on ``grid`` and a :class:`WaitOracle`, fed the same
    events and then the same hand-written entries."""
    edges = directed_edges(grid)
    gamma = data.draw(st.one_of(st.just(1.0),
                                st.floats(0.0, 1.0, exclude_min=True)))
    on_grid, plain = EdgeWaitStats(grid, gamma=gamma), WaitOracle(gamma)
    # Some epochs have no events, and an edge's entry ages while others change.
    for _ in range(data.draw(st.integers(0, 6))):
        events = data.draw(st.lists(st.tuples(st.sampled_from(edges),
                                              st.integers(0, 9)), max_size=8)
                           if edges and data.draw(st.booleans()) else st.just([]))
        update_wait_stats(on_grid, events)
        plain.apply_window(events)
    assert on_grid.epoch == plain.epoch
    # Hand-written entries on both, stale stamps included: W without N
    # (N = 0) and N = 0 with W = 0 among them.
    for i in data.draw(st.lists(st.integers(0, len(edges) - 1), max_size=6)
                       if edges else st.just([])):
        stamp = data.draw(st.integers(0, on_grid.epoch))
        w = data.draw(st.floats(0.0, 50.0))
        n = data.draw(st.one_of(st.just(0.0), st.floats(0.0, 50.0)))
        on_grid.w[i], on_grid.n[i], on_grid.stamp[i] = w, n, stamp
        plain.w[edges[i]], plain.n[edges[i]] = (w, stamp), (n, stamp)
    return on_grid, plain


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_grid_wait_stats_equal_dict_stats_edge_by_edge(data):
    grid = data.draw(grids())
    on_grid, plain = draw_wait_stats(data, grid)
    edges = directed_edges(grid)
    want_w = [plain.read(plain.w, e) for e in edges]
    want_n = [plain.read(plain.n, e) for e in edges]
    factor = on_grid.decay(on_grid.epoch - on_grid.stamp)
    assert (on_grid.w * factor).tolist() == want_w
    assert (on_grid.n * factor).tolist() == want_n


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_avg_wait_array_equals_pcost_edge_by_edge(data):
    grid = data.draw(grids())
    on_grid, plain = draw_wait_stats(data, grid)
    want = [plain.pcost(e) for e in directed_edges(grid)]
    with np.errstate(over="ignore"):   # W / N may overflow, as in the oracle
        arr = AvgWaitCost(on_grid)(grid.tails, grid.heads)
    assert arr.dtype == np.float64
    assert arr.tolist() == want
    if all(map(math.isfinite, want)):
        assert grid.edge_costs(AvgWaitCost(on_grid)).tolist() == want


def test_grid_states_reject_events_and_edges_off_the_grid():
    grid = GridMap(3, 1, [True, True, False])
    stats = EdgeWaitStats(grid)
    update_wait_stats(stats, [((0, 1), 2), ((1, 0), 0)])
    for bad in ([((1, 2), 0)], [((0, 2), 0)], [((0, 1), -1)], [((-1, 1), 0)],
                [((3, 2), 0)]):
        with pytest.raises(ValueError):
            update_wait_stats(stats, bad)
    assert stats.epoch == 1
    model = AvgWaitCost(stats)
    assert model(grid.tails, grid.heads).tolist() == [3.0, 1.0]
    for model in (model, TrafficCost(TrafficState(grid))):
        with pytest.raises(ValueError):
            model(grid.tails.copy(), grid.heads)
    # On an open row, tail -1 would wrap round to the last cell, the tail
    # of edge (2, 1); it is no cell, so it matches no edge.
    row = GridMap(3, 1, [True] * 3)
    with pytest.raises(ValueError):
        update_wait_stats(EdgeWaitStats(row), [((-1, 1), 5)])
    # A path with a cell off the map raises, added or removed, before it
    # changes the counts: head -1 would wrap round to cell 2, head 3 is past
    # the end, and tail -1 is no cell either.
    ts = traffic_from_paths(row, [[0, 1]])
    entries, traversals = ts.entry_counts.copy(), ts.traversal_counts.copy()
    for bad in ([[1, -1]], [[1, 3]], [[0, 1], [-1, 1]]):
        for update in (ts.add, ts.remove):
            with pytest.raises(ValueError, match="off the map"):
                update(bad)
            assert ts.entry_counts.tolist() == entries.tolist() == [0, 1, 0]
            assert ts.traversal_counts.tolist() == traversals.tolist()
    ts.remove([[0, 1]])
    assert not ts.entry_counts.any() and not ts.traversal_counts.any()
