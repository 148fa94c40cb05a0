"""Collision-free per-step action selection with PIBT.

Agents move one cell per step. PIBT plans the whole team in descending
priority order; when a preferred cell is occupied, the occupant inherits
the priority and plans first, backtracking if it cannot make room. The
resulting step never contains a vertex collision or an edge swap.

Movement preferences come from a guide-path heuristic, which for a path
of unit moves is the unit distance to the path's last cell, so it is
built from that goal alone. Each goal's field is one breadth-first
search from the goal in C, kept as its tree of predecessors; a query
reads a cell's depth off that tree.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from math import inf

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .grid_map import GridMap


class GuideHeuristic:
    """Unit distance to an agent's goal, the last cell of its guide path.

    The detour-to-path estimate a guide path defines is the least, over
    path cells ``path[i]``, of ``dist(c, path[i]) + len(path) - 1 - i``.
    Every path step is a stay or a 4-neighbour move, so the remaining
    length ``len(path) - 1 - i`` is at least ``dist(path[i], goal)``; by
    the triangle inequality the goal term is always least. So the
    heuristic takes only the goal, and ``value(c)`` is the unit distance
    from ``c`` to it.

    Construction runs one breadth-first search from the goal over the
    map's unit graph (every edge has its reverse, so distances from the
    goal are distances to it). The field is one ``array('i')`` over the
    map's cells, 4 bytes a cell, and each entry is one of: the cell's
    predecessor in the search tree (>= 0); -1 for a blocked cell or one
    the goal cannot reach; or ``-2 - d`` once the cell's distance ``d`` is
    known, which the goal is from the start. A tree depth is the exact
    unit distance, so ``value(c)`` follows predecessors up to the first
    known distance and writes the distances back along the way.

    Raises:
        ValueError: On a goal that is blocked or off the map.
    """

    def __init__(self, grid: GridMap, goal: int):
        if not grid.is_free(goal):
            raise ValueError(f"goal {goal} is blocked or off the map")
        self.goal = goal
        _, pred = breadth_first_order(grid.unit_graph, goal, directed=True,
                                      return_predecessors=True)
        # scipy marks unreached cells, and the goal itself, with -9999.
        np.maximum(pred, -1, out=pred)
        pred[goal] = -2
        self._field = array("i", pred.astype("intc", copy=False).tobytes())

    def value(self, cell: int) -> float:
        """Heuristic value at ``cell`` (inf if unreachable or off the map)."""
        if cell < 0:
            return inf
        field = self._field
        try:
            got = field[cell]
        except IndexError:
            return inf
        if got <= -2:
            return -2.0 - got
        if got == -1:
            return inf
        chain = []
        while got >= 0:
            chain.append(cell)
            cell = got
            got = field[cell]
        d = -2 - got
        for c in reversed(chain):
            d += 1
            field[c] = -2 - d
        return float(d)


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
