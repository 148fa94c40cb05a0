"""Integral minimum-cost flow on sparse directed networks with real costs.

The solver is a primal-dual successive-shortest-paths method: each phase
runs one Dijkstra over the residual network using reduced costs (node
potentials keep all residual arcs nonnegative), then saturates as many
shortest augmenting paths as possible along zero-reduced-cost arcs before
re-running Dijkstra. Phase count is governed by the number of distinct
shortest-path lengths rather than the flow value, which keeps solve times
dominated by network size on spatial networks with many unit supplies.

A network may share a prefix of uncapacitated edges, an :class:`ArcLayout`,
with other networks: the residual arcs of those edges (heads, and each
node's arcs in the order the solver scans them) are laid out once, and a
network only adds the costs of the prefix and its own edges. The
assignment builder lays a map's interior out once and adds each round's
source and sink edges; a network built only with ``add_edge`` has an
empty prefix. The solver copies what it mutates, so one layout serves any
number of solves.

Costs may be arbitrary nonnegative reals; no cost scaling is used. Flow
amounts are exact integers whenever all capacities are integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappush, heappop

import numpy as np

_INF = float("inf")


class FlowInfeasibleError(RuntimeError):
    """Required flow value exceeds the maximum feasible flow."""

    def __init__(self, required: int, max_feasible: int):
        super().__init__(
            f"required flow {required} infeasible; maximum feasible is {max_feasible}")
        self.required = required
        self.max_feasible = max_feasible


class ArcLayout:
    """Residual arcs of a fixed set of uncapacitated edges, laid out once.

    Edge ``e`` has forward arc ``2e`` (tail to head) and reverse arc
    ``2e + 1``. ``arc_head[a]`` is the head of arc ``a``, and ``adj[v]``
    lists the arcs leaving node ``v`` by ascending arc id, the order in
    which the solver scans them. Both are read-only once built.
    """

    def __init__(self, num_nodes: int, tails, heads):
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.shape != heads.shape or tails.ndim != 1:
            raise ValueError("tails and heads must be equal-length 1-d arrays")
        m = len(tails)
        arc_tail = np.empty(2 * m, dtype=np.int64)
        arc_tail[0::2] = tails
        arc_tail[1::2] = heads
        if m and not (0 <= arc_tail.min() and arc_tail.max() < num_nodes):
            raise ValueError("layout edge endpoint out of range")
        arc_head = np.empty(2 * m, dtype=np.int64)
        arc_head[0::2] = heads
        arc_head[1::2] = tails
        # by tail, then arc id; the keys are unique, so any sort is stable
        order = np.argsort(arc_tail * (2 * m) + np.arange(2 * m)).tolist()
        ptr = [0] + np.cumsum(np.bincount(arc_tail, minlength=num_nodes)).tolist()
        self.num_nodes = num_nodes
        self.num_edges = m
        self.arc_head: list[int] = arc_head.tolist()
        self.adj: list[list[int]] = [order[ptr[v]:ptr[v + 1]] for v in range(num_nodes)]


_EMPTY_LAYOUT = ArcLayout(0, [], [])


@dataclass(eq=False)
class FlowNetwork:
    """Directed network with integer capacities and nonnegative real costs.

    ``capacity=None`` marks an effectively unbounded edge; it is bounded at
    solve time by the largest amount the network could be asked to carry
    (the required flow value), which no single edge ever needs to exceed.

    Edges ``0 .. layout.num_edges - 1`` are the shared prefix: unbounded,
    with costs ``layout_costs``. Edges added with :meth:`add_edge` follow.
    ``tails``, ``heads``, ``capacities`` and ``costs`` read every edge as
    a new list.
    """

    num_nodes: int
    source: int
    sink: int
    required_flow: int = 0
    layout: ArcLayout = _EMPTY_LAYOUT
    layout_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    _tails: list[int] = field(default_factory=list, init=False, repr=False)
    _heads: list[int] = field(default_factory=list, init=False, repr=False)
    _caps: list[int | None] = field(default_factory=list, init=False, repr=False)
    _costs: list[float] = field(default_factory=list, init=False, repr=False)

    def __post_init__(self):
        if not (0 <= self.source < self.num_nodes and 0 <= self.sink < self.num_nodes):
            raise ValueError("source/sink node ids out of range")
        if self.source == self.sink:
            raise ValueError("source and sink must differ")
        if self.required_flow < 0:
            raise ValueError("required flow must be nonnegative")
        if self.layout.num_nodes > self.num_nodes:
            raise ValueError("layout has more nodes than the network")
        self.layout_costs = np.asarray(self.layout_costs, dtype=np.float64)
        if self.layout_costs.shape != (self.layout.num_edges,):
            raise ValueError("layout costs must give one cost per layout edge")

    @property
    def num_edges(self) -> int:
        return self.layout.num_edges + len(self._tails)

    @property
    def tails(self) -> list[int]:
        return self.layout.arc_head[1::2] + self._tails

    @property
    def heads(self) -> list[int]:
        return self.layout.arc_head[0::2] + self._heads

    @property
    def capacities(self) -> list[int | None]:
        return [None] * self.layout.num_edges + self._caps

    @property
    def costs(self) -> list[float]:
        return self.layout_costs.tolist() + self._costs

    def add_edge(self, u: int, v: int, capacity: int | None, cost: float) -> int:
        if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
            raise ValueError(f"edge endpoint out of range: ({u}, {v})")
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be nonnegative")
        if not (cost >= 0 and math.isfinite(cost)):
            raise ValueError("edge cost must be finite and nonnegative")
        self._tails.append(u)
        self._heads.append(v)
        self._caps.append(capacity)
        self._costs.append(float(cost))
        return self.num_edges - 1


@dataclass
class FlowSolution:
    """An integral flow: per-edge amounts, achieved value, and total cost."""

    flow: list[int]
    value: int
    total_cost: float


def _effective_caps(net: FlowNetwork) -> list[int]:
    bound = net.required_flow
    return [cap if cap is not None else bound for cap in net.capacities]


def max_flow_value(net: FlowNetwork) -> int:
    """Maximum feasible source-to-sink flow value (Dinic's algorithm)."""
    n = net.num_nodes
    caps = _effective_caps(net)
    to: list[int] = []
    res: list[int] = []
    adj: list[list[int]] = [[] for _ in range(n)]
    for e, (u, v) in enumerate(zip(net.tails, net.heads)):
        adj[u].append(len(to))
        to.append(v)
        res.append(caps[e])
        adj[v].append(len(to))
        to.append(u)
        res.append(0)

    s, t = net.source, net.sink
    total = 0
    while True:
        level = [-1] * n
        level[s] = 0
        queue = [s]
        for v in queue:
            for a in adj[v]:
                u = to[a]
                if res[a] > 0 and level[u] < 0:
                    level[u] = level[v] + 1
                    queue.append(u)
        if level[t] < 0:
            return total
        it = [0] * n
        # Blocking-flow DFS with current-arc pointers.
        path: list[int] = []
        v = s
        while True:
            if v == t:
                pushed = min(res[a] for a in path)
                for a in path:
                    res[a] -= pushed
                    res[a ^ 1] += pushed
                total += pushed
                v = s
                path = []
                continue
            advanced = False
            while it[v] < len(adj[v]):
                a = adj[v][it[v]]
                u = to[a]
                if res[a] > 0 and level[u] == level[v] + 1:
                    path.append(a)
                    v = u
                    advanced = True
                    break
                it[v] += 1
            if not advanced:
                if v == s:
                    break
                level[v] = -1  # dead end for this blocking flow
                a = path.pop()
                v = to[a ^ 1]
                it[v] += 1


class _PrimalDualSolver:
    """One-shot solver state over a paired-arc residual representation.

    Arc ``2e`` is edge ``e`` forward, arc ``2e + 1`` its reverse. The
    shared layout's lists are only read; the network's own edges are
    appended to copies, each after the layout arcs of its tail node, which
    keeps every node's arcs in ascending arc id order.
    """

    def __init__(self, net: FlowNetwork):
        self.net = net
        layout = net.layout
        m0 = layout.num_edges
        n = net.num_nodes
        self.n = n
        bound = net.required_flow

        adj = layout.adj + [[] for _ in range(n - layout.num_nodes)]
        own_heads: list[int] = []
        own_res: list[int] = []
        own_arcs: dict[int, list[int]] = {}
        a = 2 * m0
        for u, v, cap in zip(net._tails, net._heads, net._caps):
            own_heads += (v, u)
            own_res += (bound if cap is None else cap, 0)
            own_arcs.setdefault(u, []).append(a)
            own_arcs.setdefault(v, []).append(a + 1)
            a += 2
        for v, arcs in own_arcs.items():
            adj[v] = adj[v] + arcs
        self.adj = adj
        self.head = layout.arc_head + own_heads
        # residual of arc 2e + 1 is the flow on edge e
        self.res = [bound, 0] * m0 + own_res
        self.edge_costs = costs = np.concatenate((net.layout_costs, net._costs))
        arc_cost = np.empty(2 * len(costs), dtype=np.float64)
        arc_cost[0::2] = costs
        arc_cost[1::2] = -costs
        self.cost = arc_cost.tolist()

        # The same potentials twice: a list for the Python loops to index,
        # an array for the one-call update per phase.
        self.pi = [0.0] * n
        self.pi_np = np.zeros(n)
        max_cost = float(costs.max()) if len(costs) else 0.0
        int_mode = bool(np.equal(np.floor(costs), costs).all())
        self.eps = 0.0 if int_mode else 1e-10 * (1.0 + max_cost)

    def _dijkstra(self) -> tuple[list[int], list[float], float]:
        """The nodes finalized up to the sink (the sink last), their
        reduced-cost distances from the source, and the sink's distance."""
        n, s, t = self.n, self.net.source, self.net.sink
        dist = [_INF] * n
        done = [False] * n
        finalized: list[int] = []
        final_dist: list[float] = []
        dist[s] = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        pi, head, res, cost, adj = self.pi, self.head, self.res, self.cost, self.adj
        d_sink = _INF
        while heap:
            d, v = heappop(heap)
            if done[v]:
                continue
            done[v] = True
            finalized.append(v)
            final_dist.append(d)
            if v == t:
                d_sink = d
                break
            pv = pi[v] + d
            for a in adj[v]:
                if res[a] <= 0:
                    continue
                u = head[a]
                if done[u]:
                    continue
                nd = cost[a] + pv - pi[u]
                if nd < d:
                    nd = d  # float slack; exact reduced costs are >= 0
                if nd < dist[u]:
                    dist[u] = nd
                    heappush(heap, (nd, u))
        return finalized, final_dist, d_sink

    def _update_potentials(self, finalized: list[int], final_dist: list[float],
                           d_sink: float):
        # pi += where(done, dist, d_sink), one IEEE add per node
        step = np.full(self.n, d_sink)
        step[finalized] = final_dist
        self.pi_np += step
        self.pi = self.pi_np.tolist()

    def _augment_phase(self, limit: int) -> int:
        """Push up to ``limit`` units along zero-reduced-cost residual paths.

        An arc is admissible when its reduced cost is at most ``eps`` and it
        had residual capacity at the start of the phase; arcs that gain
        capacity during the phase wait for the next one.
        """
        n, s, t, eps = self.n, self.net.source, self.net.sink, self.eps
        head, res, cost, adj, pi = self.head, self.res, self.cost, self.adj, self.pi
        start_res: dict[int, int] = {}   # phase-start residual of changed arcs
        it = [0] * n
        dead = [False] * n
        on_path = [False] * n
        sent = 0
        while sent < limit:
            path_nodes = [s]
            path_arcs: list[int] = []
            on_path[s] = True
            found = False
            while path_nodes:
                v = path_nodes[-1]
                if v == t:
                    pushed = min(res[a] for a in path_arcs)
                    pushed = min(pushed, limit - sent)
                    for a in path_arcs:
                        r = a ^ 1
                        start_res.setdefault(a, res[a])
                        start_res.setdefault(r, res[r])
                        res[a] -= pushed
                        res[r] += pushed
                    sent += pushed
                    for node in path_nodes:
                        on_path[node] = False
                    found = True
                    break
                advanced = False
                arcs = adj[v]
                end = len(arcs)
                i = it[v]
                pv = pi[v]
                while i < end:
                    a = arcs[i]
                    u = head[a]
                    if (res[a] > 0 and cost[a] + pv - pi[u] <= eps
                            and not on_path[u] and not dead[u]
                            and start_res.get(a, 1) > 0):
                        path_nodes.append(u)
                        path_arcs.append(a)
                        on_path[u] = True
                        advanced = True
                        break
                    i += 1
                it[v] = i
                if not advanced:
                    dead[v] = True
                    on_path[v] = False
                    path_nodes.pop()
                    if path_arcs:
                        path_arcs.pop()
                    if path_nodes:
                        it[path_nodes[-1]] += 1
            if not found:
                break
        return sent

    def solve(self) -> FlowSolution:
        required = self.net.required_flow
        sent = 0
        while sent < required:
            finalized, final_dist, d_sink = self._dijkstra()
            if d_sink == _INF:
                raise FlowInfeasibleError(required, max_flow_value(self.net))
            self._update_potentials(finalized, final_dist, d_sink)
            pushed = self._augment_phase(required - sent)
            if pushed == 0:
                # A reachable sink with no admissible path means the float
                # slack hid a shortest arc; widening eps is unsound, so fail
                # loudly rather than loop at the same distance forever.
                raise RuntimeError("augmentation stalled with reachable sink")
            sent += pushed
        flow = self.res[1::2]
        amounts = np.array(flow, dtype=np.int64)
        used = np.flatnonzero(amounts)
        # fsum rounds the exact sum once, so the summation order is free
        total = math.fsum((amounts[used] * self.edge_costs[used]).tolist())
        return FlowSolution(flow=flow, value=sent, total_cost=total)


def solve_min_cost_flow(net: FlowNetwork) -> FlowSolution:
    """Minimum-cost integral flow of exactly ``net.required_flow`` units.

    Raises:
        FlowInfeasibleError: If the required value exceeds the maximum
            feasible flow; the error carries the feasible maximum.
    """
    if net.required_flow == 0:
        return FlowSolution(flow=[0] * net.num_edges, value=0, total_cost=0.0)
    return _PrimalDualSolver(net).solve()


def to_dimacs(net: FlowNetwork, solution: FlowSolution | None = None) -> str:
    """DIMACS min-cost-flow dump for cross-checking with external solvers.

    Real-valued costs are written verbatim (the DIMACS format allows only
    integers; this is a debugging aid, not an interchange guarantee).
    Flow values are appended as comment lines when a solution is given.
    """
    caps = _effective_caps(net)
    lines = [f"p min {net.num_nodes} {net.num_edges}"]
    lines.append(f"n {net.source + 1} {net.required_flow}")
    lines.append(f"n {net.sink + 1} {-net.required_flow}")
    tails, heads = net.tails, net.heads
    for u, v, cap, cost in zip(tails, heads, caps, net.costs):
        cost_str = str(int(cost)) if cost.is_integer() else repr(cost)
        lines.append(f"a {u + 1} {v + 1} 0 {cap} {cost_str}")
    if solution is not None:
        for e, f in enumerate(solution.flow):
            if f:
                lines.append(f"c flow {tails[e] + 1} {heads[e] + 1} {f}")
    return "\n".join(lines) + "\n"
