import gc
import random
import sys
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mapdflow.grid_map import GridMap, parse_map
from mapdflow.mapgen import random_map, warehouse_map
from mapdflow.planner import GuideHeuristic, pibt_step, update_priorities
from mapdflow.simulator import SimConfig, Simulation

from conftest import bfs_distances, random_grid
from pibt_oracle import pibt_step as oracle_pibt_step


def verify_step(old, new, grid):
    assert len(set(new)) == len(new), "vertex collision"
    where = {c: i for i, c in enumerate(old)}
    for i, (a, b) in enumerate(zip(old, new)):
        if a == b:
            continue
        assert b in grid.neighbors(a), "illegal move"
        j = where.get(b)
        if j is not None and j != i:
            assert new[j] != a, "edge swap"


# -- guide heuristic -----------------------------------------------------------

def test_heuristic_goal_is_zero(open3x3):
    h = GuideHeuristic(open3x3, 2)
    assert h.value(2) == 0


def test_heuristic_on_path_remaining_length():
    grid = GridMap(4, 1, [True] * 4)
    h = GuideHeuristic(grid, 3)   # the goal of path [0, 1, 2, 3]
    assert h.value(0) == 3
    assert h.value(1) == 2
    assert h.value(3) == 0


def test_heuristic_off_path_detour(open3x3):
    # goal at the end of the top row [0, 1, 2]; the cell below the middle
    # is 1 + value(middle)
    h = GuideHeuristic(open3x3, 2)
    assert h.value(4) == 1 + h.value(1)
    assert h.value(6) == 2 + h.value(0)


def test_heuristic_unreachable_cell_inf():
    grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n.@.\n")
    h = GuideHeuristic(grid, 0)
    assert h.value(2) == float("inf")


@pytest.mark.parametrize("cell", [-1, 9], ids=["before", "after"])
def test_heuristic_off_map_cell_inf(open3x3, cell):
    # Cells -1 and width * height lie just outside the map's cell range.
    h = GuideHeuristic(open3x3, 4)
    assert h.value(cell) == float("inf")
    assert h.value(0) == 2


@pytest.mark.parametrize("goal", [-1, 9, 4], ids=["before", "after", "blocked"])
def test_heuristic_rejects_goal_off_map_or_blocked(goal):
    # Cells -1 and width * height lie just outside the map; cell 4 is the
    # blocked centre of a 3x3 ring.
    grid = parse_map("type octile\nheight 3\nwidth 3\nmap\n...\n.@.\n...\n")
    with pytest.raises(ValueError, match="goal"):
        GuideHeuristic(grid, goal)


def test_heuristic_value_types_around_goal():
    # Columns 0-2 and column 4 are two components; column 3 is blocked.
    grid = parse_map("type octile\nheight 2\nwidth 5\nmap\n...@.\n...@.\n")
    h = GuideHeuristic(grid, 0)
    reachable = {0: 0.0, 1: 1.0, 2: 2.0, 5: 1.0, 6: 2.0, 7: 3.0}
    unreachable = [3, 8, 4, 9, -1, 10]   # blocked, other component, off map

    def check_unreachable():
        for c in unreachable:
            got = h.value(c)
            assert type(got) is float and got == float("inf"), c

    check_unreachable()                  # before any distance is resolved
    for c in (7, 2, 6, 1, 5, 0, 7):      # far cells first, then repeats
        got = h.value(c)
        assert type(got) is float and got == reachable[c], c
    check_unreachable()


def test_fields_leave_the_unit_graph_unchanged(monkeypatch):
    grids = [random_map(12, 9, 0.3, seed=3), warehouse_map()]
    for grid in grids:
        csr = grid.unit_graph
        before = [a.copy() for a in (csr.data, csr.indices, csr.indptr)]

        def no_second_graph(costs=None, _real=grid.adjacency):
            assert costs is not None, "the unit graph is built once per map"
            return _real(costs)

        monkeypatch.setattr(grid, "adjacency", no_second_graph)
        for goal in grid.free_cells:
            h = GuideHeuristic(grid, goal)
            for c in range(-1, grid.width * grid.height + 1):
                h.value(c)
        if grid.labels:   # station weights read the unit graph too
            cfg = SimConfig(num_agents=20, task_distribution="labeled-es",
                            horizon=15, seed=4)
            Simulation(grid, cfg).run()
        assert grid.unit_graph is csr
        for part, old in zip((csr.data, csr.indices, csr.indptr), before):
            assert not part.flags.writeable
            assert part.dtype == old.dtype and (part == old).all()


@st.composite
def random_grids(draw):
    """A random grid of up to 8 x 8 cells, sometimes cut in two by a
    blocked column, with at least one free cell."""
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    free = draw(st.lists(st.booleans(), min_size=width * height,
                         max_size=width * height))
    if width >= 3 and draw(st.booleans()):
        wall = draw(st.integers(1, width - 2))
        for y in range(height):
            free[y * width + wall] = False
    free[0] = True
    return GridMap(width, height, free)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(random_grids())
def test_candidates_equal_moves_sorted_by_value(grid):
    # Per goal, one field answers the orders and another the values, so
    # each read resumes from a different resolution state.
    for goal in grid.free_cells:
        ordered, valued = GuideHeuristic(grid, goal), GuideHeuristic(grid, goal)
        for cell in grid.free_cells:
            moves = grid.neighbors(cell) + [cell]
            assert ordered.candidates(cell) == sorted(moves, key=valued.value)


@st.composite
def grids_paths_and_query_orders(draw):
    """A random grid (sometimes cut in two by a blocked column), a random
    walk on it that may revisit cells or stay a single cell, and two
    query orders over every cell of the grid."""
    width = draw(st.integers(1, 8))
    height = draw(st.integers(1, 8))
    n = width * height
    free = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    if width >= 3 and draw(st.booleans()):
        wall = draw(st.integers(1, width - 2))
        for y in range(height):
            free[y * width + wall] = False
    free[0] = True
    grid = GridMap(width, height, free)
    path = [draw(st.sampled_from(grid.free_cells))]
    for k in draw(st.lists(st.integers(0, 3), max_size=25)):
        options = grid.neighbors(path[-1])
        if options:
            path.append(options[k % len(options)])
    order_a = draw(st.permutations(range(n)))
    order_b = draw(st.permutations(range(n)))
    return grid, path, order_a, order_b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grids_paths_and_query_orders())
def test_heuristic_matches_multi_source_oracle(case):
    grid, path, order_a, order_b = case
    last = len(path) - 1
    tables = {c: bfs_distances(grid, c) for c in set(path)}
    expected = {}
    for c in range(grid.width * grid.height):
        expected[c] = min((tables[p][c] + last - i for i, p in enumerate(path)
                           if c in tables[p]), default=float("inf"))
    # Two heuristics on one path, queried in different orders with the
    # queries interleaved, so each resumes its search from a different
    # point; both must give exactly the oracle's values.
    h_a = GuideHeuristic(grid, path[-1])
    h_b = GuideHeuristic(grid, path[-1])
    for ca, cb in zip(order_a, order_b):
        assert h_a.value(ca) == expected[ca]
        assert h_b.value(cb) == expected[cb]
    for c in order_a:
        assert h_a.value(c) == h_b.value(c) == expected[c]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(grids_paths_and_query_orders())
def test_heuristic_is_unit_distance_to_goal(case):
    # Along a path of stays and unit moves, no path cell is closer to the
    # goal by detour than its remaining path length, so only the goal counts.
    grid, path, order_a, _ = case
    goal_dist = bfs_distances(grid, path[-1])
    h = GuideHeuristic(grid, path[-1])
    for c in order_a:
        assert h.value(c) == goal_dist.get(c, float("inf"))


# -- priorities ------------------------------------------------------------------

def test_priority_reset_on_goal():
    prev = update_priorities([0.0, 0.0], [False, False], [True, True])
    grown = update_priorities(prev, [False, False], [True, True])
    assert grown[0] > prev[0]
    reset = update_priorities(grown, [True, False], [True, True])
    assert reset[0] < grown[0]
    assert reset[1] > grown[0]


def test_priority_strict_total_order():
    n = 5
    pr = update_priorities([0.0] * n, [False] * n, [True] * n)
    for _ in range(3):
        pr = update_priorities(pr, [False] * n, [True] * n)
    assert len(set(pr)) == n
    # same elapsed: lower agent id wins
    assert pr[0] > pr[1] > pr[2] > pr[3] > pr[4]


def test_priority_longer_wait_wins():
    pr = update_priorities([0.0, 0.0], [False, False], [True, True])
    pr = update_priorities(pr, [False, True], [True, True])
    pr = update_priorities(pr, [False, False], [True, True])
    assert pr[0] > pr[1]  # waited 3 steps vs 1


def test_idle_agents_lowest_priority():
    pr = update_priorities([0.0, 0.0], [False, False], [True, False])
    assert pr[0] > pr[1]


# -- pibt -------------------------------------------------------------------------

def step_agents(grid, locations, heuristics, priorities):
    action = pibt_step(grid, locations, heuristics, priorities)
    verify_step(locations, action.locations, grid)
    return action.locations


def test_single_agent_walks_guide_path():
    grid = GridMap(5, 1, [True] * 5)
    h = GuideHeuristic(grid, 4)
    locs = [0]
    pr = update_priorities([0.0], [False], [True])
    locs = step_agents(grid, locs, [h], pr)
    assert locs == [1]


def test_single_agent_reaches_goal_in_heuristic_steps():
    rng = random.Random(9)
    for _ in range(10):
        grid = random_grid(rng, 6, 6)
        cells = grid.free_cells
        start, goal = rng.choice(cells), rng.choice(cells)
        if goal not in bfs_distances(grid, start):
            continue
        h = GuideHeuristic(grid, goal)
        expected = h.value(start)
        locs = [start]
        pr = update_priorities([0.0], [False], [True])
        steps = 0
        while locs[0] != goal:
            locs = step_agents(grid, locs, [h], pr)
            steps += 1
            assert steps <= expected
        assert steps == expected


def test_fully_blocked_agent_waits():
    grid = parse_map("type octile\nheight 1\nwidth 3\nmap\n...\n")
    # agent 0 wants to move right but agents occupy every exit and have
    # conflicting goals; the boxed-in middle agent with lowest priority waits
    h0 = GuideHeuristic(grid, 0)
    h1 = GuideHeuristic(grid, 1)
    h2 = GuideHeuristic(grid, 1)
    locs = [1, 0, 2]
    new = step_agents(grid, locs, [h0, h1, h2], [3.0, 2.0, 1.0])
    assert new[0] == 1  # everyone wants its neighbors' cells; no swap allowed


def test_agent_at_goal_stays(open3x3):
    h = GuideHeuristic(open3x3, 4)
    new = step_agents(open3x3, [4], [h], [1.0])
    assert new == [4]


def test_idle_agent_prefers_wait(open3x3):
    new = step_agents(open3x3, [4], [None], [0.5])
    assert new == [4]


def test_idle_agent_is_pushed_out_of_the_way():
    grid = GridMap(3, 1, [True] * 3)
    # active agent at 0 heads to 2; idle agent sits at 1 and must be pushed
    h = GuideHeuristic(grid, 2)
    locs = [0, 1]
    pr = [2.0, 0.1]
    locs = step_agents(grid, locs, [h, None], pr)
    assert locs[0] == 1 and locs[1] == 2


def test_step_frees_its_heuristics_without_the_cyclic_collector():
    # Nothing of a step outlives it in a reference cycle: with the collector
    # off, the heuristics die as soon as the caller drops them.
    grid = GridMap(4, 2, [True] * 8)
    heuristics = [GuideHeuristic(grid, goal) for goal in (3, 4, 7)]
    refs = [weakref.ref(h) for h in heuristics]
    gc.disable()
    try:
        pibt_step(grid, [0, 1, 2], heuristics, [3.0, 2.0, 1.0])
        del heuristics
        assert [r() for r in refs] == [None] * 3
    finally:
        gc.enable()


class RecordingHeuristic(GuideHeuristic):
    """A goal's field whose every candidate order records the recursion
    limit, and raises once ``fail`` is set."""

    def __init__(self, grid, goal, fail=False):
        super().__init__(grid, goal)
        self.fail, self.limits = fail, []

    def candidates(self, cell):
        self.limits.append(sys.getrecursionlimit())
        if self.fail:
            raise RuntimeError("heuristic failed")
        return super().candidates(cell)


def test_step_leaves_the_recursion_limit_alone():
    # The inheritance chain is a loop, so a step neither raises the
    # interpreter's recursion limit nor needs it, on return or on raise.
    grid = GridMap(4, 1, [True] * 4)
    saved = sys.getrecursionlimit()
    try:
        sys.setrecursionlimit(1000)
        for fail in (False, True):
            h = RecordingHeuristic(grid, 3, fail)
            if fail:
                with pytest.raises(RuntimeError, match="heuristic failed"):
                    pibt_step(grid, [0, 1], [h, None], [2.0, 1.0])
            else:
                pibt_step(grid, [0, 1], [h, None], [2.0, 1.0])
            assert h.limits == [1000]
            assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_head_on_corridor_with_pocket_no_swap():
    # width-1 corridor with one side pocket; the exhaustive per-step checks
    # in step_agents cover the swap and collision rules, and over the run
    # one agent must yield (sidestep into the pocket or wait in place)
    text = "type octile\nheight 2\nwidth 5\nmap\n.....\n@@.@@\n"
    grid = parse_map(text)
    a_path = [grid.index(x, 0) for x in range(5)]
    b_path = list(reversed(a_path))
    ha = GuideHeuristic(grid, a_path[-1])
    hb = GuideHeuristic(grid, b_path[-1])
    locs = [a_path[0], b_path[0]]
    goals = [a_path[-1], b_path[-1]]
    pocket = grid.index(2, 1)
    pr = update_priorities([0.0, 0.0], [False, False], [True, True])
    yielded = False
    for _ in range(30):
        new = step_agents(grid, locs, [ha, hb], pr)
        if pocket in new or (new[0] == locs[0]) != (new[1] == locs[1]):
            yielded = True
        locs = new
        pr = update_priorities(
            pr, [locs[i] == goals[i] for i in range(2)], [True, True])
    assert yielded


def test_head_on_ring_both_reach_goals(ring3x3):
    # on a biconnected map, PIBT resolves the head-on pair completely
    ha = GuideHeuristic(ring3x3, 8)
    hb = GuideHeuristic(ring3x3, 0)
    locs = [0, 8]
    goals = [8, 0]
    pr = update_priorities([0.0, 0.0], [False, False], [True, True])
    for _ in range(30):
        locs = step_agents(ring3x3, locs, [ha, hb], pr)
        pr = update_priorities(
            pr, [locs[i] == goals[i] for i in range(2)], [True, True])
        if locs == goals:
            break
    assert locs == goals


def test_pibt_determinism():
    rng = random.Random(13)
    grid = random_grid(rng, 8, 8, obstacle=0.1)
    cells = grid.free_cells
    n = 12
    starts = rng.sample(cells, n)
    goals = rng.sample(cells, n)
    heuristics = [GuideHeuristic(grid, g)
                  if grid.component[s] == grid.component[g] else None
                  for s, g in zip(starts, goals)]
    pr = update_priorities([0.0] * n, [False] * n,
                           [h is not None for h in heuristics])
    a = pibt_step(grid, list(starts), heuristics, pr)
    b = pibt_step(grid, list(starts), heuristics, pr)
    assert a.locations == b.locations


@st.composite
def crowded_runs(draw):
    """A random grid packed with agents whose goals are none, reachable,
    or in another component (where the grid is cut in two)."""
    grid = draw(random_grids())
    cells = grid.free_cells
    n = draw(st.integers(1, len(cells)))
    starts = draw(st.permutations(cells))[:n]
    goals = [draw(st.none() | st.sampled_from(cells)) for _ in range(n)]
    return grid, starts, goals


@settings(max_examples=300, deadline=None, derandomize=True)
@given(crowded_runs())
# A push chain of 2,999 agents, deeper than the default recursion limit:
# agent 0 heads to the far end of a corridor and every other agent is idle.
@example((GridMap(3000, 1, [True] * 3000), list(range(2999)),
          [2999] + [None] * 2998))
def test_pibt_steps_equal_the_sorting_oracle(case):
    # Whole steps, over a few steps of a run, match the step that sorted
    # every candidate list by value. Each side reads its own fields.
    grid, locs, goals = case
    n = len(locs)
    fields = [[None if g is None else GuideHeuristic(grid, g) for g in goals]
              for _ in range(2)]
    has_goal = [g is not None for g in goals]
    pr = update_priorities([0.0] * n, [False] * n, has_goal)
    for _ in range(4):
        got = pibt_step(grid, locs, fields[0], pr)
        want = oracle_pibt_step(grid, locs, fields[1], pr)
        assert got.locations == want.locations
        assert got.moved == want.moved
        locs = got.locations
        pr = update_priorities(pr, [a == g for a, g in zip(locs, goals)],
                               has_goal)


def test_pibt_rejects_duplicate_locations(open3x3):
    with pytest.raises(ValueError):
        pibt_step(open3x3, [0, 0], [None, None], [1.0, 0.5])


@pytest.fixture
def split_corridor():
    # 0 . 2, with cell 1 blocked
    return GridMap(3, 1, [True, False, True])


@pytest.mark.parametrize("cell", [1, 7, -1])
def test_pibt_rejects_a_location_blocked_or_off_the_map(split_corridor, cell):
    with pytest.raises(ValueError, match="blocked or off the map"):
        pibt_step(split_corridor, [cell], [GuideHeuristic(split_corridor, 2)],
                  [1.0])


@pytest.mark.parametrize("heuristics, priorities", [
    ([], [1.0, 0.5]), ([None] * 3, [1.0, 0.5]),
    ([None] * 2, [1.0]), ([None] * 2, [1.0, 0.5, 0.2])])
def test_pibt_rejects_inputs_of_other_lengths(split_corridor, heuristics,
                                              priorities):
    with pytest.raises(ValueError, match="one heuristic and one priority"):
        pibt_step(split_corridor, [0, 2], heuristics, priorities)


def test_crowded_map_many_steps_no_collisions():
    rng = random.Random(4)
    grid = random_grid(rng, 10, 10, obstacle=0.15)
    cells = grid.free_cells
    n = min(30, len(cells) // 2)
    locs = rng.sample(cells, n)
    heuristics = [None] * n
    goals = [None] * n
    pr = update_priorities([0.0] * n, [False] * n, [False] * n)
    for step in range(60):
        for i in range(n):
            if goals[i] is None or locs[i] == goals[i]:
                goals[i] = rng.choice(cells)
                reachable = grid.component[locs[i]] == grid.component[goals[i]]
                heuristics[i] = GuideHeuristic(grid, goals[i]) if reachable else None
        locs = step_agents(grid, locs, heuristics, pr)
        pr = update_priorities(
            pr, [locs[i] == goals[i] for i in range(n)],
            [heuristics[i] is not None for i in range(n)])
