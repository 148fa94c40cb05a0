import math
import random

import numpy as np
import pytest

from mapdflow.grid_map import (DistanceProvider, GridMap, MapParseError,
                               parse_map, shortest_distances)

from conftest import bfs_components, bfs_distances, random_grid

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


def test_round_trip_preserves_occupancy_and_labels():
    rng = random.Random(5)
    for _ in range(20):
        grid = random_grid(rng, rng.randint(1, 8), rng.randint(1, 8))
        for v in grid.free_cells[: len(grid.free_cells) // 3]:
            grid.labels[v] = rng.choice("ES")
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


def test_shortest_distances_open_grid_corner(open3x3):
    dist = shortest_distances(open3x3, 0)
    assert dist[8] == 4.0
    assert dist[0] == 0.0


def test_shortest_distances_detour_matches_bfs_oracle():
    # 4x4 with a wall through the middle forcing a detour
    text = "type octile\nheight 4\nwidth 4\nmap\n....\n@@@.\n....\n....\n"
    grid = parse_map(text)
    dist = shortest_distances(grid, 0)
    oracle = bfs_distances(grid, 0)
    assert dist == {v: float(d) for v, d in oracle.items()}
    assert dist[12] == 9.0  # across the top, down the right side, and back


def test_shortest_distances_targets_early_exit(open3x3):
    dist = shortest_distances(open3x3, 0, targets={1, 3})
    assert dist[1] == 1.0 and dist[3] == 1.0


def test_shortest_distances_unreachable_absent():
    grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
    dist = shortest_distances(grid, 0)
    assert 2 not in dist


def test_shortest_distances_weighted_matches_oracle():
    from conftest import dijkstra_oracle
    rng = random.Random(11)
    for _ in range(15):
        grid = random_grid(rng, 6, 6)
        costs = {(u, v): 1.0 + 3.0 * rng.random() for u, v in grid.directed_edges()}
        cost_fn = lambda u, v: costs[(u, v)]
        src = rng.choice(grid.free_cells)
        got = shortest_distances(grid, src, cost_fn)
        want = dijkstra_oracle(grid, src, cost_fn)
        assert got.keys() == want.keys()
        for v in got:
            assert got[v] == pytest.approx(want[v], abs=1e-12)


def test_unit_distance_symmetry_and_triangle():
    rng = random.Random(3)
    for _ in range(10):
        grid = random_grid(rng, 7, 7)
        cells = grid.free_cells
        a, b, c = (rng.choice(cells) for _ in range(3))
        da = shortest_distances(grid, a)
        db = shortest_distances(grid, b)
        if b in da:
            assert da[b] == db[a]
            if c in da and c in db:
                assert da[c] <= da[b] + db[c] + 1e-12


def test_open_map_unit_distance_is_manhattan():
    grid = GridMap(8, 6, [True] * 48)
    dist = shortest_distances(grid, grid.index(2, 3))
    for v, d in dist.items():
        x, y = grid.coords(v)
        assert d == abs(x - 2) + abs(y - 3)


def test_distance_provider_matches_forward_search_with_directed_costs():
    rng = random.Random(21)
    grid = random_grid(rng, 6, 6)
    costs = {(u, v): float(rng.randint(1, 4)) for u, v in grid.directed_edges()}
    cost_fn = lambda u, v: costs[(u, v)]
    provider = DistanceProvider(grid, cost_fn)
    cells = grid.free_cells
    for _ in range(10):
        goal = rng.choice(cells)
        src = rng.choice(cells)
        fwd = shortest_distances(grid, src, cost_fn)
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
            assert goal not in shortest_distances(grid, src)
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
        assert list(zip(grid.tails.tolist(), grid.heads.tolist())) == want
        assert list(grid.directed_edges()) == want
        assert grid.num_directed_edges() == len(want)
        assert grid.indptr[0] == 0 and grid.indptr[-1] == len(want)
        assert [want[r] for r in grid.reverse.tolist()] == [(u, v) for v, u in want]


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
    from mapdflow.cost_models import UnitCost
    rng = random.Random(43)
    grid = random_grid(rng, 5, 5)
    m = grid.num_directed_edges()
    assert (grid.edge_costs(None) == 1.0).all() and grid.edge_costs().shape == (m,)
    assert (grid.edge_costs(UnitCost()) == 1.0).all()
    costs = {e: 1.0 + rng.random() for e in grid.directed_edges()}
    arr = grid.edge_costs(lambda v, u: costs[(v, u)])
    assert arr.dtype == np.float64
    assert arr.tolist() == [costs[e] for e in grid.directed_edges()]
    assert grid.edge_costs(arr) is arr


def test_edge_costs_evaluates_callable_once_per_edge():
    grid = GridMap(3, 3, [True] * 9)
    calls = []
    grid.edge_costs(lambda v, u: calls.append((v, u)) or 1.0)
    assert calls == list(grid.directed_edges())


@pytest.mark.parametrize("bad", [-1.0, math.inf, math.nan])
def test_edge_costs_rejects_negative_or_non_finite(bad):
    grid = GridMap(3, 3, [True] * 9)
    last = list(grid.directed_edges())[-1]
    cost_fn = lambda v, u: bad if (v, u) == last else 1.0
    with pytest.raises(ValueError):
        grid.edge_costs(cost_fn)
    with pytest.raises(ValueError):
        DistanceProvider(grid, cost_fn)
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
        costs = {e: 1.0 + 3.0 * rng.random() for e in grid.directed_edges()}
        cost_fn = lambda v, u: costs[(v, u)]
        by_fn = DistanceProvider(grid, cost_fn)
        by_arr = DistanceProvider(grid, grid.edge_costs(cost_fn))
        for goal in rng.sample(grid.free_cells, 3):
            assert (by_fn.table(goal) == by_arr.table(goal)).all()
            for src in grid.free_cells:
                want = shortest_distances(grid, src, cost_fn).get(goal, math.inf)
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
            assert grid.free == [c == best for c in comp]
            assert grid.component.max() == 0
            kept_split += len(sizes) > 1
    assert kept_split > 20
