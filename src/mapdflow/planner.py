"""Collision-free per-step action selection with PIBT.

Agents move one cell per step. PIBT plans the whole team in descending
priority order; when a preferred cell is occupied, the occupant inherits
the priority and plans first, backtracking if it cannot make room. The
resulting step never contains a vertex collision or an edge swap. A root
agent's inheritance chain is planned in one loop over an explicit stack,
each frame an agent with the candidates it has not tried yet, in the
order the recursive formulation visits them: a chain as long as the team
needs no recursion and no change to the interpreter's state.

Movement preferences come from a guide-path heuristic, which for a path
of unit moves is the unit distance to the path's last cell, so it is
built from that goal alone. Each goal's field is one breadth-first
search from the goal in C, kept at one byte a cell: a cell's direction
to its search-tree predecessor until a read resolves it to its distance
mod 3. On a 4-connected grid every neighbour is one step nearer or one
step farther (the +-1 rule), so that residue orders an agent's moves,
and PIBT reads "which neighbours are nearer" with no sort and no
distance.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from math import inf

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .grid_map import GridMap

# Field codes below 5 are directions to the search-tree predecessor; 5 + d % 3
# is a resolved cell at unit distance d.
_RESOLVED = 5


@lru_cache(maxsize=4)
def _cell_ids_less_two(size: int) -> np.ndarray:
    """``arange(size) - 2``, read-only; kept, as each field of a map needs
    it and building it is a measurable share of a small map's field."""
    ids = np.arange(-2, size - 2, dtype=np.int32)
    ids.flags.writeable = False
    return ids


class GuideHeuristic:
    """Unit distance to an agent's goal, the last cell of its guide path.

    The detour-to-path estimate a guide path defines is the least, over
    path cells ``path[i]``, of ``dist(c, path[i]) + len(path) - 1 - i``.
    Every path step is a stay or a 4-neighbour move, so the remaining
    length ``len(path) - 1 - i`` is at least ``dist(path[i], goal)``; by
    the triangle inequality the goal term is always least. So the
    heuristic takes only the goal, and ``value(c)`` is the unit distance
    from ``c`` to it.

    A 4-connected grid is bipartite, so a neighbour of ``c`` is exactly
    one step nearer the goal or one step farther from it (the +-1 rule),
    and ``d % 3`` tells the two apart. The field keeps only that: one
    ``bytearray`` over the map's cells, a byte a cell. Construction runs
    one breadth-first search from the goal over the map's unit graph
    (every edge has its reverse, so distances from the goal are distances
    to it) and stores each reached cell's direction to its predecessor in
    the search tree as its offset plus 2, clamped to 0..4 (N, W, -, E, S);
    the goal holds its resolved code ``5 + 0``. A read follows directions
    up to the first resolved code and writes ``5 + d % 3`` back along the
    way. Blocked cells and cells the goal cannot reach are never read:
    reachability comes from ``grid.component``.

    :meth:`candidates` gives PIBT a cell's moves nearest first without a
    sort. :meth:`value` stays exact, walking downhill to the goal at O(d)
    per read; only tests and demos read it.

    Raises:
        ValueError: On a goal that is blocked or off the map.
    """

    def __init__(self, grid: GridMap, goal: int):
        if not grid.is_free(goal):
            raise ValueError(f"goal {goal} is blocked or off the map")
        self.goal = goal
        self._neighbors = grid._neighbors
        self._component = grid.component
        self._goal_component = int(grid.component[goal])
        # Offsets of the direction codes; decoding by offset keeps a
        # width-1 map, where -W == -1, correct.
        self._step = (-grid.width, -1, 0, 1, grid.width)
        _, pred = breadth_first_order(grid.unit_graph, goal, directed=True,
                                      return_predecessors=True)
        # Offset to the predecessor plus 2, clamped to 0..4: 0 is -W (N),
        # 1 is -1 (W), 3 is +1 (E) and 4 is +W (S). Unreached cells clamp
        # to 0; they are never read.
        t = np.subtract(pred, _cell_ids_less_two(len(pred)), out=pred)
        np.maximum(t, 0, out=t)
        np.minimum(t, 4, out=t)
        self._field = bytearray(t.astype(np.uint8))
        self._field[goal] = _RESOLVED

    def _resolve(self, cell: int) -> int:
        """Resolved code ``5 + d % 3`` of a reachable ``cell``, written
        back along the predecessor chain the read follows."""
        field, step = self._field, self._step
        chain = []
        code = field[cell]
        while code < _RESOLVED:
            chain.append(cell)
            cell += step[code]
            code = field[cell]
        for c in reversed(chain):
            code = code + 1 if code < _RESOLVED + 2 else _RESOLVED
            field[c] = code
        return code

    def candidates(self, cell: int) -> list[int]:
        """``cell``'s neighbours and ``cell`` itself, nearest the goal
        first: the nearer neighbours in N, E, S, W order, then ``cell``,
        then the rest. That is ``sorted(neighbors + [cell], key=value)``.
        Off the goal's component every value is inf, and the order is
        ``neighbors + [cell]``."""
        neighbors = self._neighbors[cell]
        field = self._field
        code = field[cell]
        if code < _RESOLVED:
            if self._component[cell] != self._goal_component:
                return neighbors + [cell]
            code = self._resolve(cell)
        nearer_code = code - 1 if code > _RESOLVED else _RESOLVED + 2
        nearer, farther = [], []
        for u in neighbors:
            c = field[u]
            if c < _RESOLVED:
                c = self._resolve(u)
            (nearer if c == nearer_code else farther).append(u)
        nearer.append(cell)
        return nearer + farther

    def value(self, cell: int) -> float:
        """Heuristic value at ``cell`` (inf if unreachable or off the map)."""
        if not (0 <= cell < len(self._field)
                and self._component[cell] == self._goal_component):
            return inf
        d = 0
        while cell != self.goal:
            cell = self.candidates(cell)[0]
            d += 1
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

    Agents with a heuristic try cells in ``GuideHeuristic.candidates``
    order: lower heuristic value first, ties resolved by the map's
    canonical neighbor order with waiting last; agents without one prefer
    to wait. Output locations are guaranteed vertex-collision-free and
    edge-swap-free.

    Raises:
        ValueError: If ``heuristics`` or ``priorities`` differs in length
            from ``locations``, or a location is off the map, blocked or
            shared by two agents.
    """
    n = len(locations)
    if len(heuristics) != n or len(priorities) != n:
        raise ValueError("need one heuristic and one priority per location")
    size, free, neighbors = len(grid.free), grid.free, grid._neighbors
    occupied_now: dict[int, int] = {}
    for i, cell in enumerate(locations):
        if not (0 <= cell < size and free[cell]):
            raise ValueError(f"agent {i} is on cell {cell}, blocked or off the map")
        if cell in occupied_now:
            raise ValueError(f"agents {occupied_now[cell]} and {i} share cell {cell}")
        occupied_now[cell] = i
    reserved: dict[int, int] = {}
    next_loc: list[int | None] = [None] * n

    def candidates(i: int) -> Iterator[int]:
        cur = locations[i]
        h = heuristics[i]
        return iter([cur] + neighbors[cur] if h is None else h.candidates(cur))

    # The inheritance chain: each frame is an agent, its pusher's cell (-1
    # for the root) and the candidates it has not tried yet.
    chain: list[tuple[int, int, Iterator[int]]] = []
    # Roots by descending priority; a stable sort keeps ties in id order.
    for root in sorted(range(n), key=priorities.__getitem__, reverse=True):
        if next_loc[root] is not None:
            continue
        chain.append((root, -1, candidates(root)))
        while chain:
            i, pusher_cell, untried = chain[-1]
            here = locations[i]
            for cell in untried:
                if cell in reserved or cell == pusher_cell:
                    continue  # taken, or a swap with the agent that pushed us
                occupant = occupied_now.get(cell)
                if occupant is not None and occupant != i:
                    if next_loc[occupant] == here:
                        continue  # taking its old cell would be a swap
                    reserved[cell] = i
                    next_loc[i] = cell
                    if next_loc[occupant] is None:
                        # The occupant inherits our priority and plans first.
                        chain.append((occupant, here, candidates(occupant)))
                        break
                reserved[cell] = i
                next_loc[i] = cell
                # A win ends the chain: every agent on it keeps its cell.
                chain.clear()
                break
            else:
                # Fully blocked: stay put, reclaiming our own cell even if
                # the pusher reserved it. The pusher resumes with its next
                # candidate, and every way out of that loop sets its cell
                # before anything reads it.
                reserved[here] = i
                next_loc[i] = here
                chain.pop()

    # Every agent is planned now: a win or a block sets each one's cell.
    moved = [new != old for new, old in zip(next_loc, locations)]
    return ActionStep(locations=next_loc, moved=moved)
