"""PIBT step oracle: the recursive ``pibt_step`` as it stood when every
agent's candidate order was a stable sort of its moves by
``GuideHeuristic.value``. Kept verbatim so tests can check that the
library's sort-free candidate order plans exactly the same steps."""

from __future__ import annotations

import sys

from mapdflow.grid_map import GridMap
from mapdflow.planner import ActionStep, GuideHeuristic


def pibt_step(grid: GridMap, locations: list[int],
              heuristics: list[GuideHeuristic | None],
              priorities: list[float]) -> ActionStep:
    """Plan one collision-free step for all agents.

    Agents with a heuristic prefer cells with lower heuristic value, ties
    resolved by the map's canonical neighbor order with waiting last;
    agents without one prefer to wait. Output locations are guaranteed
    vertex-collision-free and edge-swap-free. The interpreter's recursion
    limit is raised for the step and restored before it returns or raises.
    """
    n = len(locations)
    occupied_now: dict[int, int] = {}
    for i, cell in enumerate(locations):
        if cell in occupied_now:
            raise ValueError(f"agents {occupied_now[cell]} and {i} share cell {cell}")
        occupied_now[cell] = i
    reserved: dict[int, int] = {}
    next_loc: list[int | None] = [None] * n

    def candidates(i: int) -> list[int]:
        cur = locations[i]
        h = heuristics[i]
        if h is None:
            return [cur] + grid.neighbors(cur)
        # Stable: ties keep neighbour order, with waiting last.
        return sorted(grid.neighbors(cur) + [cur], key=h.value)

    def plan(i: int, pusher: int | None) -> bool:
        for cell in candidates(i):
            if cell in reserved:
                continue
            if pusher is not None and cell == locations[pusher]:
                continue  # would swap with the agent that pushed us
            occupant = occupied_now.get(cell)
            if occupant is not None and occupant != i:
                if next_loc[occupant] == locations[i]:
                    continue  # taking its old cell would be a swap
                reserved[cell] = i
                next_loc[i] = cell
                if next_loc[occupant] is None and not plan(occupant, i):
                    # The blocked occupant reclaimed this cell; move on.
                    next_loc[i] = None
                    continue
                return True
            reserved[cell] = i
            next_loc[i] = cell
            return True
        # Fully blocked: stay put, reclaiming our own cell even if a pusher
        # reserved it (the pusher sees False and tries another candidate).
        reserved[locations[i]] = i
        next_loc[i] = locations[i]
        return False

    order = sorted(range(n), key=lambda i: -priorities[i])
    old_limit = sys.getrecursionlimit()
    # inheritance chains can span the whole team
    sys.setrecursionlimit(max(old_limit, 5 * n + 1000))
    try:
        for i in order:
            if next_loc[i] is None:
                plan(i, None)
    finally:
        sys.setrecursionlimit(old_limit)
        # ``plan`` refers to itself through its closure; emptying that cell
        # frees the step's heuristics now rather than at the next collection.
        del plan

    new_locations = [next_loc[i] if next_loc[i] is not None else locations[i]
                     for i in range(n)]
    moved = [new_locations[i] != locations[i] for i in range(n)]
    return ActionStep(locations=new_locations, moved=moved)
