"""Collision-free per-step action selection with PIBT.

Agents move one cell per step. PIBT plans the whole team in descending
priority order; when a preferred cell is occupied, the occupant inherits
the priority and plans first, backtracking if it cannot make room. The
resulting step never contains a vertex collision or an edge swap.

Movement preferences come from a guide-path heuristic, which for a path
of unit moves is the unit distance to the path's last cell.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import inf

from .grid_map import GridMap


class GuideHeuristic:
    """Distance-to-goal estimates for an agent following a guide path.

    The detour-to-path estimate a path defines is the least, over path
    cells ``path[i]``, of ``dist(c, path[i]) + len(path) - 1 - i``. Every
    path step is a stay or a 4-neighbour move, so the remaining length
    ``len(path) - 1 - i`` is at least ``dist(path[i], goal)``; by the
    triangle inequality the goal term is always least, and ``value(c)`` is
    the unit distance from ``c`` to the path's last cell. It comes from a
    lazy breadth-first search from the goal: a query expands whole levels
    until its cell is settled and the next query resumes from there, in one
    float32 array over the map's cells that reads inf until a cell settles.
    """

    def __init__(self, grid: GridMap, path: list[int]):
        if not path:
            raise ValueError("guide path must contain at least one cell")
        if any(a != b and b not in grid.neighbors(a) for a, b in zip(path, path[1:])):
            raise ValueError("guide path steps must be stays or 4-neighbour moves")
        self.grid = grid
        self.goal = path[-1]
        self._dist = array("f", [inf]) * (grid.width * grid.height)
        self._dist[self.goal] = 0.0
        self._level: list[int] = [self.goal]   # cells settled at _depth - 1
        self._depth = 1

    def value(self, cell: int) -> float:
        """Heuristic value at ``cell`` (inf if unreachable or off the map)."""
        dist = self._dist
        if not 0 <= cell < len(dist):
            return inf
        got = dist[cell]
        if got != inf:
            return got
        neighbors = self.grid._neighbors
        level, d = self._level, self._depth
        while got == inf and level:
            nxt = []
            for v in level:
                for u in neighbors[v]:
                    if dist[u] == inf:
                        dist[u] = d
                        nxt.append(u)
            level = nxt
            d += 1
            got = dist[cell]
        self._level, self._depth = level, d
        return got


def build_guide_heuristic(grid: GridMap, path: list[int]) -> GuideHeuristic:
    return GuideHeuristic(grid, path)


@dataclass
class ActionStep:
    """Result of one planning step: the new location of every agent."""

    locations: list[int]
    moved: list[bool]


def update_priorities(prev: list[float], reached_goal: list[bool],
                      has_goal: list[bool]) -> list[float]:
    """Advance the dynamic PIBT priorities by one step.

    An agent's priority grows by 1 for every step it has a goal and fails
    to reach it, and resets to its base value on arrival. Agents without a
    goal sit one tier below every goal-directed agent. The fractional base
    (n - id) / (n + 1) makes the ordering a strict total order with lower
    ids winning ties.
    """
    n = len(prev)
    out = []
    for i in range(n):
        base = (n - i) / (n + 1)
        if not has_goal[i]:
            out.append(base - 1.0)
        elif reached_goal[i]:
            out.append(base)
        else:
            elapsed = int(prev[i]) if prev[i] >= 0 else 0
            out.append(elapsed + 1 + base)
    return out


def pibt_step(grid: GridMap, locations: list[int],
              heuristics: list[GuideHeuristic | None],
              priorities: list[float]) -> ActionStep:
    """Plan one collision-free step for all agents.

    Agents with a heuristic prefer cells with lower heuristic value, ties
    resolved by the map's canonical neighbor order with waiting last;
    agents without one prefer to wait. Output locations are guaranteed
    vertex-collision-free and edge-swap-free.
    """
    n = len(locations)
    occupied_now: dict[int, int] = {}
    for i, cell in enumerate(locations):
        if cell in occupied_now:
            raise ValueError(f"agents {occupied_now[cell]} and {i} share cell {cell}")
        occupied_now[cell] = i
    reserved: dict[int, int] = {}
    next_loc: list[int | None] = [None] * n

    limit = 5 * n + 1000  # inheritance chains can span the whole team
    if sys.getrecursionlimit() < limit:
        sys.setrecursionlimit(limit)

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
    for i in order:
        if next_loc[i] is None:
            plan(i, None)

    new_locations = [next_loc[i] if next_loc[i] is not None else locations[i]
                     for i in range(n)]
    moved = [new_locations[i] != locations[i] for i in range(n)]
    return ActionStep(locations=new_locations, moved=moved)
