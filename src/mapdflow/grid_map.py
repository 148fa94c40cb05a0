"""Grid maps, traversability, and distance-to-goal tables.

Maps are 4-connected grids parsed from the MovingAI benchmark text format.
Cells are addressed by a single row-major integer index. All downstream
modules (flow networks, planners, the simulator) work on these indices, so
the neighbor ordering defined here (north, east, south, west) is the
canonical tie-breaking order for the whole package.

Each map holds its traversability graph once, in CSR form: directed edges
are numbered by tail cell, then N, E, S, W, and every per-edge quantity
(costs above all) is a float64 array aligned to those edge ids. Costed
distances come from one engine, ``scipy.sparse.csgraph.dijkstra`` over
such an array (see :class:`DistanceProvider`).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Container, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

# A cost per directed edge: an array aligned to the grid's edge ids, or a
# model that prices the grid's tail and head arrays in one call.
EdgeCost = Union[np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]

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
        free: Per-cell traversability, a tuple indexed row-major
            (``y * width + x``).
        labels: Map of free cell index to label character ('E'
            or 'S'); any other cell or character raises ``ValueError``.
            Both are read-only, as everything below is derived from them
            at construction: writing either raises ``TypeError``.
        indptr: CSR row pointers; the out-edges of cell ``v`` have the ids
            ``indptr[v]:indptr[v + 1]``.
        heads, tails: Head and tail cell of every directed edge, by edge id.
        reverse: Id of the same edge traversed the other way, by edge id.
        unit_graph: The edge graph as a CSR matrix with unit weights, built
            once. Its arrays are read-only, and its ``indptr`` is the one above.
        component: Connected-component label per cell, numbered in order
            of each component's first cell; -1 on blocked cells.

    ``free_cells`` and the neighbour lists share one int object per cell
    id, so a large map holds each id once.
    """

    def __init__(self, width: int, height: int, free: list[bool],
                 labels: dict[int, str] | None = None):
        if width <= 0 or height <= 0:
            raise ValueError("map dimensions must be positive")
        if len(free) != width * height:
            raise ValueError("cell count does not match width x height")
        self.width = width
        self.height = height
        self.free = tuple(free)
        self.labels = MappingProxyType(dict(labels or {}))
        size = width * height
        for v, label in self.labels.items():
            if label not in ("E", "S"):
                raise ValueError(f"cell {v} has label {label!r}, not 'E' or 'S'")
            if not (0 <= v < size and self.free[v]):
                raise ValueError(f"label on cell {v}, which is blocked or off the map")
        mask = np.array(self.free, dtype=bool)
        # One int object per cell id, which every list of cells below
        # shares instead of holding its own copy of each id.
        cell_ids = np.arange(size).astype(object)
        self._free_cells = cell_ids[mask].tolist()

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
        # Id and head of the edge leaving cell v in direction d, else -1.
        self._edge_at = np.full((size, 4), -1, dtype=np.int32)
        self._edge_at[tails, direction] = np.arange(len(tails))
        self._head_at = np.full((size, 4), -1, dtype=np.int32)
        self._head_at[tails, direction] = self.heads
        self.reverse = self._edge_at[self.heads, (direction + 2) % 4]

        # The planner's hot loops read plain lists, one slice per cell. Every
        # cell without edges shares one empty list, which nothing mutates.
        heads_list, ptr = cell_ids[self.heads].tolist(), self.indptr.tolist()
        none: list[int] = []
        self._neighbors = [heads_list[a:b] if a < b else none
                           for a, b in zip(ptr, ptr[1:])]

        # The unit-weight edge graph, kept read-only for whole-map searches.
        self.unit_graph = self.adjacency()
        for part in (self.unit_graph.data, self.unit_graph.indices,
                     self.unit_graph.indptr):
            part.flags.writeable = False

        # Every edge has its reverse, so strong components are the
        # connected components, and csgraph finds them without a transpose.
        _, labels_all = connected_components(self.unit_graph, connection="strong")
        _, first, inverse = np.unique(labels_all[mask], return_index=True,
                                      return_inverse=True)
        rank = np.empty(len(first), dtype=np.int64)
        rank[np.argsort(first)] = np.arange(len(first))
        self.component = np.full(size, -1, dtype=np.int64)
        self.component[mask] = rank[inverse]

    def __reduce__(self):
        # A mapping proxy does not pickle; the map rebuilds from its cells.
        return GridMap, (self.width, self.height, self.free, dict(self.labels))

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

    def num_directed_edges(self) -> int:
        return len(self.heads)

    def edge_ids(self, tails, heads) -> np.ndarray:
        """Id of each directed edge ``(tails[i], heads[i])``, or -1 where
        the pair is not an edge, a tail off the map included."""
        tails = np.asarray(tails, dtype=np.int64)
        on_map = (tails >= 0) & (tails < len(self._edge_at))
        tails = np.where(on_map, tails, 0)
        match = (self._head_at[tails] == np.asarray(heads)[:, None]) & on_map[:, None]
        return np.where(match, self._edge_at[tails], -1).max(axis=1, initial=-1)

    def edge_costs(self, edge_cost: EdgeCost | None = None) -> np.ndarray:
        """Per-edge costs as a float64 array aligned to the edge ids.

        ``None`` gives ones and an array passes through. A model (see
        :mod:`mapdflow.cost_models`) is called once, as
        ``edge_cost(tails, heads)`` over the grid's edge arrays.

        Raises:
            ValueError: On a wrongly sized array, or on any negative or
                non-finite cost.
        """
        if edge_cost is None:
            return np.ones(len(self.heads))
        if callable(edge_cost):
            edge_cost = edge_cost(self.tails, self.heads)
        costs = np.asarray(edge_cost, dtype=np.float64)
        if costs.shape != self.heads.shape:
            raise ValueError(f"expected {len(self.heads)} edge costs, "
                             f"got shape {costs.shape}")
        # min and max are nan if any cost is
        if costs.size and not (0 <= costs.min() and costs.max() < np.inf):
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


class DistanceProvider:
    """Cached distance-to-goal tables under fixed edge costs.

    The costs are taken once, at construction, as an array aligned to the
    grid's edge ids (see :meth:`GridMap.edge_costs`). Each is at least 1,
    as every cost model's is: the path descent compares sums with a fixed
    tolerance, so it must not meet a cost near 0. Each goal's table is
    one Dijkstra from the goal over the transposed graph, so arc costs stay
    in the forward travel direction, and is cached per goal cell until
    :meth:`retain` drops it. Also extracts concrete shortest paths by
    greedy descent over a table.
    """

    def __init__(self, grid: GridMap, edge_cost: EdgeCost | None = None):
        self.grid = grid
        self.costs = grid.edge_costs(edge_cost)
        if (self.costs < 1).any():
            raise ValueError("distance tables need edge costs of at least 1")
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

    def retain(self, goals: Container[int]) -> None:
        """Drop the cached tables of every goal not in ``goals``."""
        self._tables = {g: t for g, t in self._tables.items() if g in goals}

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
