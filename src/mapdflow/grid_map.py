"""Grid maps, traversability, and shortest-path queries.

Maps are 4-connected grids parsed from the MovingAI benchmark text format.
Cells are addressed by a single row-major integer index. All downstream
modules (flow networks, planners, the simulator) work on these indices, so
the neighbor ordering defined here (north, east, south, west) is the
canonical tie-breaking order for the whole package.

Each map holds its traversability graph once, in CSR form: directed edges
are numbered by tail cell, then N, E, S, W, and every per-edge quantity
(costs above all) is a float64 array aligned to those edge ids.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush, heappop
from typing import Callable, Iterable, Iterator, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from .cost_models import UnitCost

# A cost per directed edge: a function of (tail, head), or an array
# aligned to the grid's edge ids.
EdgeCost = Union[Callable[[int, int], float], np.ndarray]

FREE_CHARS = {".", "E", "S"}
BLOCKED_CHARS = {"@", "T"}


class MapParseError(ValueError):
    """Raised when map text does not conform to the benchmark format."""

    def __init__(self, message: str, line: int, column: int | None = None):
        loc = f"line {line}" if column is None else f"line {line}, column {column}"
        super().__init__(f"{message} ({loc})")
        self.line = line
        self.column = column


class GridMap:
    """Immutable 4-connected occupancy grid.

    Attributes:
        width: Number of columns.
        height: Number of rows.
        free: Per-cell traversability, indexed row-major (``y * width + x``).
        labels: Sparse map of cell index to label character ('E' or 'S').
        indptr: CSR row pointers; the out-edges of cell ``v`` have the ids
            ``indptr[v]:indptr[v + 1]``.
        heads, tails: Head and tail cell of every directed edge, by edge id.
        reverse: Id of the same edge traversed the other way, by edge id.
        component: Connected-component label per cell, numbered in order
            of each component's first cell; -1 on blocked cells.
    """

    def __init__(self, width: int, height: int, free: list[bool],
                 labels: dict[int, str] | None = None):
        if width <= 0 or height <= 0:
            raise ValueError("map dimensions must be positive")
        if len(free) != width * height:
            raise ValueError("cell count does not match width x height")
        self.width = width
        self.height = height
        self.free = list(free)
        self.labels = dict(labels or {})
        size = width * height
        mask = np.array(self.free, dtype=bool)
        self._free_cells = np.flatnonzero(mask).tolist()

        # has[y, x, d]: cell (x, y) has a free neighbor in direction d,
        # with d = N, E, S, W; downstream tie-breaking relies on that order.
        grid = mask.reshape(height, width)
        has = np.zeros((height, width, 4), dtype=bool)
        has[1:, :, 0] = grid[1:] & grid[:-1]
        has[:, :-1, 1] = grid[:, :-1] & grid[:, 1:]
        has[:-1, :, 2] = grid[:-1] & grid[1:]
        has[:, 1:, 3] = grid[:, 1:] & grid[:, :-1]
        has = has.reshape(size, 4)
        tails, direction = np.nonzero(has)
        self.tails = tails.astype(np.int32)
        self.heads = (tails + np.array([-width, 1, width, -1])[direction]
                      ).astype(np.int32)
        self.indptr = np.zeros(size + 1, dtype=np.int32)
        np.cumsum(has.sum(axis=1), out=self.indptr[1:])
        edge_id = np.zeros((size, 4), dtype=np.int32)
        edge_id[tails, direction] = np.arange(len(tails))
        self.reverse = edge_id[self.heads, (direction + 2) % 4]

        # The planner's hot loops read plain lists, one slice per cell.
        heads_list, ptr = self.heads.tolist(), self.indptr.tolist()
        self._neighbors = [heads_list[a:b] for a, b in zip(ptr, ptr[1:])]

        # Every edge has its reverse, so strong components are the
        # connected components, and csgraph finds them without a transpose.
        _, labels_all = connected_components(self.adjacency(), connection="strong")
        _, first, inverse = np.unique(labels_all[mask], return_index=True,
                                      return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        self.component = np.full(size, -1, dtype=np.int64)
        self.component[mask] = rank[inverse]

    # -- basic queries ----------------------------------------------------

    def index(self, x: int, y: int) -> int:
        return y * self.width + x

    def coords(self, v: int) -> tuple[int, int]:
        y, x = divmod(v, self.width)
        return x, y

    def in_bounds(self, v: int) -> bool:
        return 0 <= v < self.width * self.height

    def is_free(self, v: int) -> bool:
        return self.in_bounds(v) and self.free[v]

    @property
    def free_cells(self) -> list[int]:
        return self._free_cells

    @property
    def num_free(self) -> int:
        return len(self._free_cells)

    def cells_with_label(self, label: str) -> list[int]:
        return [v for v, c in sorted(self.labels.items()) if c == label]

    def neighbors(self, v: int) -> list[int]:
        """Free orthogonal neighbors of ``v`` in N, E, S, W order."""
        if not self.is_free(v):
            raise ValueError(f"cell {v} is blocked or out of range")
        return self._neighbors[v]

    def directed_edges(self) -> Iterator[tuple[int, int]]:
        """All traversable directed edges ``(tail, head)`` in edge-id order."""
        return zip(self.tails.tolist(), self.heads.tolist())

    def num_directed_edges(self) -> int:
        return len(self.heads)

    def edge_costs(self, edge_cost: EdgeCost | None = None) -> np.ndarray:
        """Per-edge costs as a float64 array aligned to the edge ids.

        ``None`` and :class:`UnitCost` give ones, a callable is evaluated
        once per edge as ``edge_cost(tail, head)``, and an array passes
        through.

        Raises:
            ValueError: On a wrongly sized array, or on any negative or
                non-finite cost.
        """
        if edge_cost is None or isinstance(edge_cost, UnitCost):
            return np.ones(len(self.heads))
        if callable(edge_cost):
            costs = np.array([edge_cost(v, u) for v, u in self.directed_edges()],
                             dtype=np.float64)
        else:
            costs = np.asarray(edge_cost, dtype=np.float64)
        if costs.shape != self.heads.shape:
            raise ValueError(f"expected {len(self.heads)} edge costs, "
                             f"got shape {costs.shape}")
        if not np.isfinite(costs).all() or (costs < 0).any():
            raise ValueError("edge costs must be finite and nonnegative")
        return costs

    def adjacency(self, costs: np.ndarray | None = None) -> csr_matrix:
        """The edge graph as a sparse matrix, weighted by ``costs`` (default 1)."""
        size = self.width * self.height
        data = np.ones(len(self.heads)) if costs is None else costs
        return csr_matrix((data, self.heads, self.indptr), shape=(size, size))

    # -- serialization ----------------------------------------------------

    def to_text(self) -> str:
        rows = []
        for y in range(self.height):
            row = []
            for x in range(self.width):
                v = self.index(x, y)
                if not self.free[v]:
                    row.append("@")
                else:
                    row.append(self.labels.get(v, "."))
            rows.append("".join(row))
        header = f"type octile\nheight {self.height}\nwidth {self.width}\nmap\n"
        return header + "\n".join(rows) + "\n"


def parse_map(text: str) -> GridMap:
    """Parse MovingAI-style map text into a :class:`GridMap`.

    The format is four header lines (``type ...``, ``height H``, ``width W``,
    ``map``) followed by ``H`` rows of ``W`` characters. ``.``, ``E`` and
    ``S`` are free (labels kept for the latter two); ``@`` and ``T`` are
    blocked.

    Raises:
        MapParseError: On malformed headers, wrong row counts/lengths, or
            unknown cell characters; the error names the offending position.
    """
    lines = text.splitlines()
    if len(lines) < 4:
        raise MapParseError("map text has fewer than 4 header lines", len(lines) + 1)
    if not lines[0].startswith("type"):
        raise MapParseError("expected 'type' header", 1)
    try:
        key, value = lines[1].split()
        if key != "height":
            raise ValueError
        height = int(value)
    except ValueError:
        raise MapParseError("expected 'height <int>' header", 2) from None
    try:
        key, value = lines[2].split()
        if key != "width":
            raise ValueError
        width = int(value)
    except ValueError:
        raise MapParseError("expected 'width <int>' header", 3) from None
    if lines[3].strip() != "map":
        raise MapParseError("expected 'map' header", 4)
    if height <= 0 or width <= 0:
        raise MapParseError("map dimensions must be positive", 2)

    grid_rows = lines[4:]
    # Trailing blank lines are tolerated; missing rows are not.
    while grid_rows and not grid_rows[-1].strip():
        grid_rows.pop()
    if len(grid_rows) != height:
        raise MapParseError(
            f"expected {height} map rows, found {len(grid_rows)}", 5 + len(grid_rows))

    free = [False] * (width * height)
    labels: dict[int, str] = {}
    for y, row in enumerate(grid_rows):
        if len(row) != width:
            raise MapParseError(
                f"row has {len(row)} cells, expected {width}", 5 + y)
        for x, ch in enumerate(row):
            v = y * width + x
            if ch in BLOCKED_CHARS:
                continue
            if ch not in FREE_CHARS:
                raise MapParseError(f"unknown cell character {ch!r}", 5 + y, x + 1)
            free[v] = True
            if ch != ".":
                labels[v] = ch
    return GridMap(width, height, free, labels)


def shortest_distances(grid: GridMap, source: int,
                       edge_cost: Callable[[int, int], float] | None = None,
                       targets: Iterable[int] | None = None) -> dict[int, float]:
    """Exact shortest-path costs from ``source`` under a nonnegative edge cost.

    With ``edge_cost=None`` every edge costs 1 and a plain BFS is used.
    When ``targets`` is given the search stops once every reachable target
    is settled. Unreachable cells are absent from the result.
    """
    if not grid.is_free(source):
        raise ValueError(f"source cell {source} is blocked or out of range")
    remaining = set(targets) if targets is not None else None
    if remaining is not None:
        remaining.discard(source)

    dist: dict[int, float] = {source: 0.0}
    if edge_cost is None:
        queue = deque([source])
        while queue:
            if remaining is not None and not remaining:
                break
            v = queue.popleft()
            d = dist[v] + 1.0
            for u in grid._neighbors[v]:
                if u not in dist:
                    dist[u] = d
                    if remaining is not None:
                        remaining.discard(u)
                    queue.append(u)
        return dist

    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    best = {source: 0.0}
    dist = {}
    while heap:
        d, v = heappop(heap)
        if v in settled:
            continue
        settled.add(v)
        dist[v] = d
        if remaining is not None:
            remaining.discard(v)
            if not remaining:
                break
        for u in grid._neighbors[v]:
            if u in settled:
                continue
            c = edge_cost(v, u)
            if c < 0:
                raise ValueError(f"negative edge cost on ({v}, {u})")
            nd = d + c
            if nd < best.get(u, float("inf")):
                best[u] = nd
                heappush(heap, (nd, u))
    return dist


class DistanceProvider:
    """Cached distance-to-goal tables under fixed edge costs.

    The costs are taken once, at construction, as an array aligned to the
    grid's edge ids (see :meth:`GridMap.edge_costs`). Each goal's table is
    one Dijkstra from the goal over the transposed graph, so arc costs stay
    in the forward travel direction, and is cached per goal cell. Also
    extracts concrete shortest paths by greedy descent over a table.
    """

    def __init__(self, grid: GridMap, edge_cost: EdgeCost | None = None):
        self.grid = grid
        self.costs = grid.edge_costs(edge_cost)
        # The transposed graph has the same layout, since every edge has
        # its reverse; edge v -> u carries the cost of travelling u -> v.
        self._backward = grid.adjacency(self.costs[grid.reverse])
        self._tables: dict[int, np.ndarray] = {}

    def table(self, goal: int) -> np.ndarray:
        """Cost of the cheapest path from each cell to ``goal`` (inf if none)."""
        cached = self._tables.get(goal)
        if cached is None:
            if not self.grid.is_free(goal):
                raise ValueError(f"goal cell {goal} is blocked or out of range")
            cached = self._tables[goal] = dijkstra(self._backward, indices=goal)
        return cached

    def table_array(self, goal: int) -> np.ndarray:
        """The table as :func:`~mapdflow.assignment.greedy_assign` reads it."""
        return self.table(goal)

    def distance(self, source: int, goal: int) -> float:
        if not self.grid.in_bounds(source):
            return float("inf")
        return float(self.table(goal)[source])

    def shortest_path(self, source: int, goal: int) -> list[int] | None:
        """Cheapest source->goal cell sequence, or None if unreachable."""
        grid = self.grid
        tbl = self.table(goal)
        if not (grid.in_bounds(source) and tbl[source] < float("inf")):
            return None
        ptr, cost = grid.indptr, self.costs
        path = [source]
        v = source
        guard = grid.num_free + 1
        while v != goal:
            best_u, best_val = -1, float("inf")
            for e, u in enumerate(grid._neighbors[v], int(ptr[v])):
                val = cost[e] + tbl[u]
                if val < best_val - 1e-12:
                    best_u, best_val = u, val
            if best_u < 0:
                raise RuntimeError("distance table descent failed")
            v = best_u
            path.append(v)
            guard -= 1
            if guard < 0:
                raise RuntimeError("distance table descent did not terminate")
        return path
