"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: grid
distances come from a plain BFS, assignment optima from permutation
enumeration, flow optima from brute force over multisets of simple
source-sink paths, maximum flow values from networkx, and congestion
costs from dicts counted straight from guide paths and wait events.
"""

import itertools
import math
import random
from collections import Counter, deque

import pytest

from mapdflow.grid_map import GridMap
from mapdflow.mincost_flow import FlowNetwork


def bfs_distances(grid, source):
    """Unit-cost distances by plain BFS, independent of the library."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        y, x = divmod(v, grid.width)
        for dy, dx in ((-1, 0), (0, 1), (1, 0), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < grid.height and 0 <= nx < grid.width:
                u = ny * grid.width + nx
                if grid.free[u] and u not in dist:
                    dist[u] = dist[v] + 1
                    queue.append(u)
    return dist


def bfs_components(grid):
    """Component label per cell by plain BFS over free cells, numbered in
    order of each component's first cell; -1 on blocked cells."""
    comp = [-1] * (grid.width * grid.height)
    label = 0
    for start in range(grid.width * grid.height):
        if not grid.free[start] or comp[start] >= 0:
            continue
        for v in bfs_distances(grid, start):
            comp[v] = label
        label += 1
    return comp


def directed_edges(grid):
    """The map's directed edges as ``(tail, head)`` pairs, by edge id."""
    return list(zip(grid.tails.tolist(), grid.heads.tolist()))


def random_grid(rng, width, height, obstacle=0.2):
    free = [rng.random() > obstacle for _ in range(width * height)]
    if not any(free):
        free[0] = True
    return GridMap(width, height, free)


def dijkstra_oracle(grid, source, edge_cost):
    """Textbook Dijkstra with no early exit, used to cross-check costs."""
    import heapq
    dist = {}
    heap = [(0.0, source)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = d
        for u in grid.neighbors(v):
            if u not in dist:
                heapq.heappush(heap, (d + edge_cost(v, u), u))
    return dist


def assignment_oracle(dist_of, agent_ids, task_ids):
    """Best injective matching by brute force.

    Prefers maximum cardinality over finite-cost pairs, then minimum total
    cost. Returns (total_cost, size).
    """
    k = min(len(agent_ids), len(task_ids))
    for size in range(k, -1, -1):
        best = None
        for combo in itertools.combinations(agent_ids, size):
            for perm in itertools.permutations(task_ids, size):
                total = 0.0
                ok = True
                for a, t in zip(combo, perm):
                    d = dist_of(a, t)
                    if not math.isfinite(d):
                        ok = False
                        break
                    total += d
                if ok and (best is None or total < best):
                    best = total
        if best is not None:
            return best, size
    return 0.0, 0


def enumerate_simple_paths(net: FlowNetwork):
    adj = {}
    for e in range(net.num_edges):
        adj.setdefault(net.tails[e], []).append((e, net.heads[e]))
    paths = []

    def dfs(v, used, arcs):
        if v == net.sink:
            paths.append(list(arcs))
            return
        for e, u in adj.get(v, ()):
            if u not in used:
                used.add(u)
                arcs.append(e)
                dfs(u, used, arcs)
                arcs.pop()
                used.remove(u)

    dfs(net.source, {net.source}, [])
    return paths


def flow_cost_oracle(net: FlowNetwork, required: int):
    """Minimum cost of an integral flow of value ``required``, or None.

    Enumerates multisets of simple source-sink paths; with nonnegative
    costs some optimal flow is acyclic, so path multisets cover the
    optimum.
    """
    if required == 0:
        return 0.0
    caps = [c if c is not None else required for c in net.capacities]
    paths = enumerate_simple_paths(net)
    best = None
    for combo in itertools.combinations_with_replacement(range(len(paths)), required):
        load = [0] * net.num_edges
        for p in combo:
            for e in paths[p]:
                load[e] += 1
        if all(load[e] <= caps[e] for e in range(net.num_edges)):
            cost = sum(load[e] * net.costs[e] for e in range(net.num_edges))
            if best is None or cost < best:
                best = cost
    return best


def max_flow_oracle(net: FlowNetwork) -> int:
    """Maximum flow value by networkx, with the capacities of parallel edges
    summed and an unbounded edge read as carrying ``required_flow``."""
    import networkx as nx
    g = nx.DiGraph()
    g.add_nodes_from(range(net.num_nodes))
    for u, v, cap in zip(net.tails, net.heads, net.capacities):
        cap = net.required_flow if cap is None else cap
        if g.has_edge(u, v):
            g[u][v]["capacity"] += cap
        else:
            g.add_edge(u, v, capacity=cap)
    return nx.maximum_flow_value(g, net.source, net.sink)


def residual_has_negative_cycle(net: FlowNetwork, flow, tol=1e-9):
    """Bellman-Ford certificate over the residual network."""
    caps = [c if c is not None else net.required_flow for c in net.capacities]
    arcs = []
    for f, cap, u, v, c in zip(flow, caps, net.tails, net.heads, net.costs):
        if f < cap:
            arcs.append((u, v, c))
        if f > 0:
            arcs.append((v, u, -c))
    dist = [0.0] * net.num_nodes
    for _ in range(net.num_nodes):
        changed = False
        for u, v, c in arcs:
            if dist[u] + c < dist[v] - tol:
                dist[v] = dist[u] + c
                changed = True
        if not changed:
            return False
    return changed


def random_flow_network(rng: random.Random, max_nodes=8, max_edges=14,
                        max_cap=3, real_costs=False):
    n = rng.randint(3, max_nodes)
    net = FlowNetwork(num_nodes=n, source=0, sink=n - 1)
    for _ in range(rng.randint(2, max_edges)):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or v == net.source or u == net.sink:
            continue
        cap = rng.randint(1, max_cap)
        cost = 1.0 + 4.0 * rng.random() if real_costs else float(rng.randint(0, 6))
        net.add_edge(u, v, cap, cost)
    return net


def traffic_oracle(paths):
    """Entry counts by cell and traversal counts by ``(tail, head)`` pair,
    counted by a plain loop over ``paths`` (a jump between non-adjacent
    cells counts as a pair too)."""
    entries, traversals = Counter(), Counter()
    for path in paths:
        entries.update(path[1:])
        traversals.update(zip(path, path[1:]))
    return entries, traversals


def fcost_oracle(e, entries, traversals):
    """Planner-estimate cost of ``e`` from :func:`traffic_oracle` counts:
    1 + ceil((n_v - 1) / 2) at the head (0 for n_v <= 1) + contraflow."""
    u, v = e
    n_v = entries.get(v, 0)
    congestion = float(math.ceil((n_v - 1) / 2)) if n_v > 1 else 0.0
    return (1.0 + congestion
            + float(traversals.get((u, v), 0) * traversals.get((v, u), 0)))


class WaitOracle:
    """Decayed wait statistics as a lazy table: ``w`` and ``n`` map an edge
    ``(tail, head)`` to a ``(value, stamp)`` pair, read as
    ``value * gamma ** (epoch - stamp)``; an edge never stored reads 0."""

    def __init__(self, gamma):
        self.gamma, self.epoch = gamma, 0
        self.w, self.n = {}, {}

    def read(self, table, e):
        value, stamp = table.get(e, (0.0, self.epoch))
        return value * self.gamma ** (self.epoch - stamp)

    def apply_window(self, events):
        per_edge = {}
        for e, t in events:
            total, count = per_edge.get(e, (0, 0))
            per_edge[e] = (total + t, count + 1)
        self.epoch += 1
        for e, (total, count) in per_edge.items():
            self.w[e] = (self.read(self.w, e) + total, self.epoch)
            self.n[e] = (self.read(self.n, e) + count, self.epoch)

    def pcost(self, e):
        n = self.read(self.n, e)
        return 1.0 if n <= 0.0 else 1.0 + self.read(self.w, e) / n


@pytest.fixture
def open3x3():
    return GridMap(3, 3, [True] * 9)


@pytest.fixture
def ring3x3():
    free = [True] * 9
    free[4] = False
    return GridMap(3, 3, free)
