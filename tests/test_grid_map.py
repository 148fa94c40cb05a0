import math
import pickle
import random

import numpy as np
import pytest

from mapdflow.grid_map import DistanceProvider, GridMap, MapParseError, parse_map

from conftest import (bfs_components, bfs_distances, dijkstra_oracle, directed_edges,
                      random_grid)

MAP_3X3_RING = "type octile\nheight 3\nwidth 3\nmap\n...\n.@.\n...\n"


def test_parse_3x3_ring():
    grid = parse_map(MAP_3X3_RING)
    assert grid.width == 3 and grid.height == 3
    assert grid.num_free == 8
    # 8 bidirectional edge pairs around the ring
    assert grid.num_directed_edges() == 16


def test_parse_1x1():
    grid = parse_map("type octile\nheight 1\nwidth 1\nmap\n.\n")
    assert grid.num_free == 1
    assert grid.num_directed_edges() == 0


def test_parse_2x2_open():
    grid = parse_map("type octile\nheight 2\nwidth 2\nmap\n..\n..\n")
    assert grid.num_free == 4
    assert grid.num_directed_edges() == 8  # 4 bidirectional pairs


def test_parse_labels_kept():
    grid = parse_map("type octile\nheight 1\nwidth 4\nmap\n.ES.\n")
    assert grid.labels == {1: "E", 2: "S"}
    assert grid.num_free == 4
    assert grid.cells_with_label("E") == [1]
    assert grid.cells_with_label("S") == [2]


@pytest.mark.parametrize("labels", [{2: "S"}, {5: "E"}, {99: "E"}, {-1: "S"},
                                    {0: "Q"}, {0: "."}, {2: "S", 5: "E", 99: "Q"}],
                         ids=["blocked-S", "blocked-E", "past-end", "negative",
                              "Q", "dot", "all"])
def test_labels_only_E_or_S_on_free_cells(labels):
    # A label on a blocked cell would spawn tasks there; one other than E
    # or S would write a map that parse_map rejects.
    free = [True, True, False, True, True, False]
    with pytest.raises(ValueError):
        GridMap(3, 2, free, labels=labels)
    assert GridMap(3, 2, free, labels={0: "S", 4: "E"}).labels == {0: "S", 4: "E"}


def test_parse_blocked_characters():
    grid = parse_map("type octile\nheight 1\nwidth 4\nmap\n.@T.\n")
    assert grid.num_free == 2


@pytest.mark.parametrize("text,line", [
    ("height 3\nwidth 3\nmap\n...\n...\n...\n", 1),
    ("type octile\nheight x\nwidth 3\nmap\n...\n", 2),
    ("type octile\nheight 1\nwidth nah\nmap\n...\n", 3),
    ("type octile\nheight 1\nwidth 3\nrows\n...\n", 4),
])
def test_parse_header_errors(text, line):
    with pytest.raises(MapParseError) as err:
        parse_map(text)
    assert err.value.line == line


def test_parse_row_length_mismatch():
    with pytest.raises(MapParseError, match="expected 3"):
        parse_map("type octile\nheight 2\nwidth 3\nmap\n...\n..\n")


def test_parse_unknown_character_names_position():
    with pytest.raises(MapParseError) as err:
        parse_map("type octile\nheight 2\nwidth 3\nmap\n...\n.x.\n")
    assert err.value.line == 6
    assert err.value.column == 2


def test_parse_missing_rows():
    with pytest.raises(MapParseError, match="rows"):
        parse_map("type octile\nheight 3\nwidth 3\nmap\n...\n...\n")


def test_free_cells_and_labels_cannot_be_written():
    # Every derived array (neighbours, edges, components) is built from
    # ``free`` at construction, so a write after it would leave them stale.
    grid = GridMap(3, 1, [True, False, True], labels={0: "E"})
    with pytest.raises(TypeError):
        grid.free[1] = True
    with pytest.raises(TypeError):
        grid.labels[2] = "S"
    with pytest.raises(TypeError):
        del grid.labels[0]
    assert not grid.is_free(1) and grid.neighbors(0) == []
    assert grid.labels == {0: "E"} and grid.cells_with_label("E") == [0]
    back = pickle.loads(pickle.dumps(grid))
    assert (back.free, back.labels) == (grid.free, grid.labels)


def test_cell_lists_share_one_int_per_cell():
    # Past 256 cells Python makes a new int object for each id it converts,
    # so each list would hold its own copy of every id; the map's lists
    # share one object per cell instead.
    from mapdflow.mapgen import random_map
    grid = random_map(32, 32, 0.2, seed=2)
    free_ids = {id(v) for v in grid.free_cells}
    neighbor_ids = {id(u) for v in grid.free_cells for u in grid.neighbors(v)}
    assert len(neighbor_ids) <= grid.num_free
    assert neighbor_ids <= free_ids


def test_round_trip_preserves_occupancy_and_labels():
    rng = random.Random(5)
    for _ in range(20):
        grid = random_grid(rng, rng.randint(1, 8), rng.randint(1, 8))
        labels = {v: rng.choice("ES")
                  for v in grid.free_cells[: len(grid.free_cells) // 3]}
        grid = GridMap(grid.width, grid.height, grid.free, labels)
        back = parse_map(grid.to_text())
        assert back.free == grid.free
        assert back.labels == grid.labels


def test_neighbors_order_is_north_east_south_west(open3x3):
    # center of an open 3x3: N=1, E=5, S=7, W=3
    assert open3x3.neighbors(4) == [1, 5, 7, 3]


def test_neighbors_corner_open2x2():
    grid = GridMap(2, 2, [True] * 4)
    assert len(grid.neighbors(0)) == 2


def test_neighbors_interior_open3x3(open3x3):
    assert len(open3x3.neighbors(4)) == 4


def test_neighbors_fully_surrounded():
    free = [False] * 9
    free[4] = True
    grid = GridMap(3, 3, free)
    assert grid.neighbors(4) == []


def test_neighbors_blocked_cell_is_usage_error(ring3x3):
    with pytest.raises(ValueError):
        ring3x3.neighbors(4)
    with pytest.raises(ValueError):
        ring3x3.neighbors(99)


def cost_array(grid, costs):
    """The ``(tail, head) -> cost`` dict ``costs`` as one array over edge ids."""
    return np.array([costs[e] for e in directed_edges(grid)])


def test_shortest_distances_open_grid_corner(open3x3):
    provider = DistanceProvider(open3x3)
    assert provider.distance(0, 8) == 4.0
    assert provider.distance(0, 0) == 0.0


def test_shortest_distances_detour_matches_bfs_oracle():
    # 4x4 with a wall through the middle forcing a detour
    text = "type octile\nheight 4\nwidth 4\nmap\n....\n@@@.\n....\n....\n"
    grid = parse_map(text)
    table = DistanceProvider(grid).table(0).tolist()
    oracle = bfs_distances(grid, 0)
    assert {v: d for v, d in enumerate(table) if d < math.inf} == oracle
    assert table[12] == 9.0  # across the top, down the right side, and back


def test_shortest_distances_unreachable_absent():
    # An unreachable cell has no finite distance and no path.
    grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
    provider = DistanceProvider(grid)
    assert provider.distance(2, 0) == math.inf
    assert provider.shortest_path(2, 0) is None


@pytest.mark.parametrize("cost", [0.0, 1e-13, 1e-6, 0.999])
def test_distance_provider_rejects_costs_below_one(cost):
    # The path descent compares sums with a fixed 1e-12 tolerance: at cost
    # 0 or 1e-13 it never reached the goal, though the distance read 0.
    grid = GridMap(4, 3, [True] * 12)
    costs = np.ones(grid.num_directed_edges())
    costs[5] = cost
    with pytest.raises(ValueError, match="at least 1"):
        DistanceProvider(grid, costs)
    with pytest.raises(ValueError, match="at least 1"):
        DistanceProvider(grid, lambda tails, heads: np.full(len(tails), cost))
    costs[5] = 1.0
    assert DistanceProvider(grid, costs).shortest_path(0, 11) == [0, 1, 2, 3, 7, 11]


def test_shortest_distances_weighted_matches_oracle():
    rng = random.Random(11)
    for _ in range(15):
        grid = random_grid(rng, 6, 6)
        costs = {(u, v): 1.0 + 3.0 * rng.random() for u, v in directed_edges(grid)}
        provider = DistanceProvider(grid, cost_array(grid, costs))
        src = rng.choice(grid.free_cells)
        want = dijkstra_oracle(grid, src, lambda u, v: costs[(u, v)])
        for v in grid.free_cells:
            assert provider.distance(src, v) == pytest.approx(
                want.get(v, math.inf), abs=1e-12)


def test_unit_distance_symmetry_and_triangle():
    rng = random.Random(3)
    for _ in range(10):
        grid = random_grid(rng, 7, 7)
        cells = grid.free_cells
        a, b, c = (rng.choice(cells) for _ in range(3))
        d = DistanceProvider(grid).distance
        if d(a, b) < math.inf:
            assert d(a, b) == d(b, a)
            if d(a, c) < math.inf:
                assert d(a, c) <= d(a, b) + d(b, c) + 1e-12


def test_open_map_unit_distance_is_manhattan():
    grid = GridMap(8, 6, [True] * 48)
    table = DistanceProvider(grid).table(grid.index(2, 3))
    for v, d in enumerate(table.tolist()):
        x, y = grid.coords(v)
        assert d == abs(x - 2) + abs(y - 3)


def test_distance_provider_matches_forward_search_with_directed_costs():
    rng = random.Random(21)
    grid = random_grid(rng, 6, 6)
    costs = {(u, v): float(rng.randint(1, 4)) for u, v in directed_edges(grid)}
    provider = DistanceProvider(grid, cost_array(grid, costs))
    cells = grid.free_cells
    for _ in range(10):
        goal = rng.choice(cells)
        src = rng.choice(cells)
        fwd = dijkstra_oracle(grid, src, lambda u, v: costs[(u, v)])
        assert provider.distance(src, goal) == pytest.approx(
            fwd.get(goal, math.inf), abs=1e-12)


def test_distance_provider_path_descends_table():
    rng = random.Random(8)
    for _ in range(10):
        grid = random_grid(rng, 6, 6)
        cells = grid.free_cells
        provider = DistanceProvider(grid)
        src, goal = rng.choice(cells), rng.choice(cells)
        path = provider.shortest_path(src, goal)
        if path is None:
            assert goal not in bfs_distances(grid, src)
            continue
        assert path[0] == src and path[-1] == goal
        assert len(path) - 1 == provider.distance(src, goal)
        for x, y in zip(path, path[1:]):
            assert y in grid.neighbors(x)


# -- edge-indexed graph -------------------------------------------------------

def edge_order_oracle(grid):
    """Directed edges by tail cell, then N, E, S, W, from coordinates alone."""
    edges = []
    for v in range(grid.width * grid.height):
        if not grid.free[v]:
            continue
        y, x = divmod(v, grid.width)
        for dy, dx in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < grid.height and 0 <= nx < grid.width:
                u = ny * grid.width + nx
                if grid.free[u]:
                    edges.append((v, u))
    return edges


def test_edge_ids_follow_directed_edges_order():
    rng = random.Random(40)
    for obstacle in (0.0, 0.2, 0.5):
        grid = random_grid(rng, 7, 5, obstacle)
        want = edge_order_oracle(grid)
        assert directed_edges(grid) == want
        assert grid.num_directed_edges() == len(want)
        assert grid.indptr[0] == 0 and grid.indptr[-1] == len(want)
        assert [want[r] for r in grid.reverse.tolist()] == [(u, v) for v, u in want]


def test_edge_ids_of_cell_pairs_match_edge_order():
    # Every ordered pair of cells, on maps one column or one row wide too,
    # where a step of +-1 is vertical or wraps to the next row. The cells
    # -1 and width * height just off the map are paired too: on the open
    # row, tail -1 would wrap round to edge (2, 1).
    rng = random.Random(42)
    for width, height, obstacle in ((7, 5, 0.2), (1, 6, 0.2), (6, 1, 0.2),
                                    (2, 3, 0.2), (3, 1, 0.0)):
        grid = random_grid(rng, width, height, obstacle)
        want = {e: i for i, e in enumerate(edge_order_oracle(grid))}
        cells = np.arange(-1, width * height + 1)
        tails, heads = np.repeat(cells, len(cells)), np.tile(cells, len(cells))
        ids = grid.edge_ids(tails, heads)
        assert ids.tolist() == [want.get((u, v), -1) for u, v in
                                zip(tails.tolist(), heads.tolist())]


def test_neighbors_equal_csr_slice():
    rng = random.Random(41)
    for _ in range(10):
        grid = random_grid(rng, 6, 8, 0.3)
        for v in grid.free_cells:
            lo, hi = grid.indptr[v], grid.indptr[v + 1]
            assert grid.neighbors(v) == grid.heads[lo:hi].tolist()
            assert (grid.tails[lo:hi] == v).all()


def test_component_labels_match_bfs_oracle():
    rng = random.Random(42)
    disconnected = 0
    for obstacle in (0.1, 0.3, 0.45, 0.6):
        for _ in range(15):
            grid = random_grid(rng, rng.randint(1, 9), rng.randint(1, 9), obstacle)
            want = bfs_components(grid)
            assert grid.component.tolist() == want
            disconnected += max(want) > 0
    assert disconnected > 10  # the cases include split maps


def test_edge_costs_unit_callable_and_array():
    rng = random.Random(43)
    grid = random_grid(rng, 5, 5)
    m = grid.num_directed_edges()
    assert (grid.edge_costs(None) == 1.0).all() and grid.edge_costs().shape == (m,)
    costs = {e: 1.0 + rng.random() for e in directed_edges(grid)}
    arr = grid.edge_costs(lambda tails, heads: [
        costs[e] for e in zip(tails.tolist(), heads.tolist())])
    assert arr.dtype == np.float64
    assert arr.tolist() == [costs[e] for e in directed_edges(grid)]
    assert grid.edge_costs(arr) is arr


def test_edge_costs_evaluates_callable_once_per_edge():
    # One call prices every edge once, in edge-id order, over the map's
    # own edge arrays.
    grid = GridMap(3, 3, [True] * 9)
    calls = []

    def model(tails, heads):
        calls.append((tails, heads))
        return np.ones(len(tails))

    grid.edge_costs(model)
    assert len(calls) == 1
    assert calls[0][0] is grid.tails and calls[0][1] is grid.heads
    assert list(zip(*(a.tolist() for a in calls[0]))) == list(directed_edges(grid))


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_edge_costs_rejects_negative_or_non_finite(bad):
    grid = GridMap(3, 3, [True] * 9)
    last_bad = np.ones(grid.num_directed_edges())
    last_bad[-1] = bad
    with pytest.raises(ValueError):
        grid.edge_costs(lambda tails, heads: last_bad)
    with pytest.raises(ValueError):
        DistanceProvider(grid, last_bad)
    arr = np.ones(grid.num_directed_edges())
    arr[3] = bad
    with pytest.raises(ValueError):
        grid.edge_costs(arr)


def test_edge_costs_rejects_wrong_length():
    grid = GridMap(3, 3, [True] * 9)
    with pytest.raises(ValueError):
        grid.edge_costs(np.ones(grid.num_directed_edges() + 1))


def test_distance_provider_array_costs_match_callable():
    rng = random.Random(44)
    for _ in range(5):
        grid = random_grid(rng, 6, 6)
        costs = {e: 1.0 + 3.0 * rng.random() for e in directed_edges(grid)}
        cost_fn = lambda v, u: costs[(v, u)]
        by_fn = DistanceProvider(grid, lambda tails, heads: cost_array(grid, costs))
        by_arr = DistanceProvider(grid, cost_array(grid, costs))
        for goal in rng.sample(grid.free_cells, 3):
            assert (by_fn.table(goal) == by_arr.table(goal)).all()
            for src in grid.free_cells:
                want = dijkstra_oracle(grid, src, cost_fn).get(goal, math.inf)
                assert by_arr.distance(src, goal) == pytest.approx(want, abs=1e-12)
                path = by_arr.shortest_path(src, goal)
                assert (path is None) == (want == math.inf)


def test_random_map_keeps_exactly_one_largest_component():
    from mapdflow.mapgen import random_map
    kept_split = 0
    for seed in range(40):
        for density in (0.3, 0.45):
            raw = GridMap(9, 7, (np.random.default_rng(seed).random(63)
                                 >= density).tolist())
            comp = bfs_components(raw)
            sizes = [comp.count(c) for c in range(max(comp) + 1)]
            if not sizes:
                continue
            best = sizes.index(max(sizes))  # first in cell order on ties
            grid = random_map(9, 7, density, seed)
            assert list(grid.free) == [c == best for c in comp]
            assert grid.component.max() == 0
            kept_split += len(sizes) > 1
    assert kept_split > 20
