"""Integral minimum-cost flow on sparse directed networks with real costs.

The solver is a primal-dual successive-shortest-paths method: each phase
runs one Dijkstra over the residual network using reduced costs (node
potentials keep all residual arcs nonnegative), then saturates as many
shortest augmenting paths as possible along zero-reduced-cost arcs before
re-running Dijkstra. Phase count is governed by the number of distinct
shortest-path lengths rather than the flow value, which keeps solve times
dominated by network size on spatial networks with many unit supplies.
When a phase's Dijkstra no longer reaches the sink, no augmenting path is
left, so the flow sent so far is a maximum flow (max-flow/min-cut); if it
falls short of the required value, :class:`FlowInfeasibleError` reports it.

A network may share a prefix of uncapacitated edges, an :class:`ArcLayout`,
with other networks: the residual arcs of those edges (heads, and each
node's arcs in the order the solver scans them) are laid out once, and a
network only adds the costs of the prefix and its own edges. The
assignment builder lays a map's interior out once and adds each round's
source and sink edges; a network built only with ``add_edge`` gets an
empty layout of its own.

A solve borrows its layout's residual workspace and restores what it
changed before it returns or raises: it rewrites arc costs only where they
differ from the last solve's, and resets only the arcs it pushed flow
along and the arc lists of the nodes its own edges touch. The per-node
scratch (potentials and each phase's arrays) lives in the workspace too
and is reset only where a solve touched it, and the largest layout cost,
which sets the float slack, is kept with the layout costs. So after the
layout is built, a round costs what its searches touch, not the size of
the map. Solves on one layout run one at a time; a second solve while
one holds the workspace raises.

Costs may be arbitrary nonnegative reals; no cost scaling is used. Flow
amounts are exact integers whenever all capacities are integers.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass, field
from heapq import heappush, heappop

import numpy as np

_INF = float("inf")
# Residual of an uncapacitated layout arc. It never binds: flow on an edge
# is at most what was sent, so a push, capped at what is still to send,
# never exhausts it.
_UNBOUNDED = sys.maxsize


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

    The layout also owns the residual workspace that every solve of a
    network on it borrows: arc heads, residuals and costs of the layout
    arcs, as lists, each node's arc list, and per-node solver scratch. A
    solve appends its network's own arcs, updates the costs only where they
    differ from the last solve's, and before it returns or raises truncates
    its own arcs and resets the residuals, arc lists and scratch it
    changed. So one layout serves any number of solves, one at a time.
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
        # The workspace, as no solve has changed it: no flow, zero costs.
        self._head = list(self.arc_head)
        self._res = [_UNBOUNDED, 0] * m
        self._edge_costs = np.zeros(m)      # the costs ``_cost`` holds
        self._cost = [0.0, -0.0] * m
        # The largest of ``_edge_costs`` (-inf if there are none) and
        # whether all are integers.
        self._max_cost = 0.0 if m else -_INF
        self._integral = True
        # Each node's arcs as a solve scans them: ``adj`` with the network's
        # own arcs appended. Nodes past the layout's (a network's source
        # and sink) are added by the first solve that has them.
        self._adj = list(self.adj)
        self._drop_scratch()
        self._busy = threading.Lock()      # held by the solve using the workspace

    def _drop_scratch(self) -> None:
        """Forget the per-node scratch; the next solve allocates it anew."""
        self._pi: list[float] = []
        self._dist: list[float] = []
        self._done: list[bool] = []
        self._it: list[int] = []
        self._dead: list[bool] = []
        self._on_path: list[bool] = []

    def _grow(self, n: int) -> None:
        """Extend the per-node lists to ``n`` nodes, clear."""
        if len(self._adj) < n:
            self._adj += [[] for _ in range(n - len(self._adj))]
        extra = n - len(self._pi)
        if extra > 0:
            self._pi += [0.0] * extra
            self._dist += [_INF] * extra
            self._done += [False] * extra
            self._it += [0] * extra
            self._dead += [False] * extra
            self._on_path += [False] * extra


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
    layout: ArcLayout = field(default_factory=lambda: ArcLayout(0, [], []))
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


class _PrimalDualSolver:
    """One-shot solver state over a paired-arc residual representation.

    Arc ``2e`` is edge ``e`` forward, arc ``2e + 1`` its reverse. The
    arc lists are the layout's workspace, with the network's own edges
    appended, each after the layout arcs of its tail node, which keeps
    every node's arcs in ascending arc id order. So are the per-node
    scratch lists, which a solve finds clear and leaves clear.
    """

    def __init__(self, net: FlowNetwork):
        self.net = net
        self.layout = net.layout
        self.n = net.num_nodes
        # Arcs whose residual a push changed in earlier phases, and the
        # phase-start residuals of those the current phase changed.
        self.touched: set[int] = set()
        self.phase_res: dict[int, int] = {}
        self.priced: set[int] = set()   # nodes whose potential a phase moved
        self.own_arcs: dict[int, list[int]] = {}   # node -> its own arcs

    def _borrow(self):
        """Load the network into the layout's workspace."""
        net, layout = self.net, self.layout
        cost = layout._cost
        new, old = net.layout_costs, layout._edge_costs
        # bit patterns, so that a flip between 0.0 and -0.0 counts too
        changed = np.flatnonzero(new.view(np.int64) != old.view(np.int64))
        if len(changed):
            for e, c in zip(changed.tolist(), new[changed].tolist()):
                cost[2 * e] = c
                cost[2 * e + 1] = -c
            old[changed] = new[changed]
            layout._max_cost = float(old.max())
            layout._integral = bool(np.equal(np.floor(old), old).all())
        # Integer costs need no float slack; otherwise it scales with the
        # largest cost of the network.
        own = net._costs
        if layout._integral and all(map(float.is_integer, own)):
            self.eps = 0.0
        else:
            top = max(layout._max_cost, max(own, default=-_INF))
            self.eps = 1e-10 * (1.0 + top)

        layout._grow(self.n)
        self.pi, self.dist, self.done = layout._pi, layout._dist, layout._done
        self.it, self.dead, self.on_path = layout._it, layout._dead, layout._on_path
        adj, head, res = layout._adj, layout._head, layout._res
        tails, heads, k = net._tails, net._heads, len(own)
        a = len(head)
        pair = [0] * (2 * k)    # own edge i as its arcs a + 2i and a + 2i + 1
        pair[0::2], pair[1::2] = heads, tails
        head += pair
        bound = net.required_flow
        pair[0::2] = [bound if cap is None else cap for cap in net._caps]
        pair[1::2] = [0] * k
        res += pair
        pair[0::2], pair[1::2] = own, [-c for c in own]
        cost += pair
        own_arcs = self.own_arcs
        for u, v in zip(tails, heads):
            own_arcs.setdefault(u, []).append(a)
            own_arcs.setdefault(v, []).append(a + 1)
            a += 2
        for v, arcs in own_arcs.items():
            adj[v] = adj[v] + arcs
        self.adj, self.head, self.res, self.cost = adj, head, res, cost

    def _restore(self, clean: bool):
        """Leave the workspace as :meth:`_borrow` found it. After a solve
        cut short (``clean`` false) the per-node scratch is dropped."""
        layout = self.layout
        base = 2 * layout.num_edges
        del layout._head[base:], layout._res[base:], layout._cost[base:]
        res = layout._res
        self.touched.update(self.phase_res)    # a phase cut short by an error
        for a in self.touched:
            if a < base:
                res[a] = 0 if a & 1 else _UNBOUNDED
        adj, n_layout = layout._adj, layout.num_nodes
        for v in self.own_arcs:
            adj[v] = layout.adj[v] if v < n_layout else []
        if not clean:
            layout._drop_scratch()
            return
        pi = layout._pi
        for v in self.priced:
            pi[v] = 0.0

    def _dijkstra(self) -> tuple[list[int], list[float], float]:
        """The nodes finalized up to the sink (the sink last), their
        reduced-cost distances from the source, and the sink's distance."""
        s, t = self.net.source, self.net.sink
        dist, done = self.dist, self.done
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
        # Every node given a distance was finalized or is still queued.
        for v in finalized:
            done[v] = False
            dist[v] = _INF
        for _, v in heap:
            dist[v] = _INF
        return finalized, final_dist, d_sink

    def _update_potentials(self, finalized: list[int], final_dist: list[float],
                           d_sink: float):
        # pi += where(done, dist, d_sink) - d_sink: a shift of every
        # potential by one constant leaves all reduced costs as they are,
        # so only the finalized nodes change.
        pi = self.pi
        self.priced.update(finalized)
        for v, d in zip(finalized, final_dist):
            pi[v] += d - d_sink

    def _augment_phase(self, limit: int) -> int:
        """Push up to ``limit`` units along zero-reduced-cost residual paths.

        An arc is admissible when its reduced cost is at most ``eps`` and it
        had residual capacity at the start of the phase; arcs that gain
        capacity during the phase wait for the next one.
        """
        s, t, eps = self.net.source, self.net.sink, self.eps
        head, res, cost, adj, pi = self.head, self.res, self.cost, self.adj, self.pi
        it, dead, on_path = self.it, self.dead, self.on_path
        start_res = self.phase_res = {}   # phase-start residual of changed arcs
        visited = [s]
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
                        visited.append(u)
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
        # on_path is clear again; it and dead changed only where visited
        for v in visited:
            it[v] = 0
            dead[v] = False
        self.touched.update(start_res)
        return sent

    def solve(self) -> FlowSolution:
        busy = self.layout._busy
        if not busy.acquire(blocking=False):
            raise RuntimeError("another solve holds this layout's workspace")
        clean = False
        try:
            self._borrow()
            solution = self._solve()
            clean = True
            return solution
        finally:
            self._restore(clean)
            busy.release()

    def _solve(self) -> FlowSolution:
        required = self.net.required_flow
        sent = 0
        while sent < required:
            finalized, final_dist, d_sink = self._dijkstra()
            if d_sink == _INF:
                raise FlowInfeasibleError(required, sent)
            self._update_potentials(finalized, final_dist, d_sink)
            pushed = self._augment_phase(required - sent)
            if pushed == 0:
                # A reachable sink with no admissible path means the float
                # slack hid a shortest arc; widening eps is unsound, so fail
                # loudly rather than loop at the same distance forever.
                raise RuntimeError("augmentation stalled with reachable sink")
            sent += pushed
        res, cost = self.res, self.cost
        flow = [0] * self.net.num_edges
        terms: list[float] = []
        for e in {a >> 1 for a in self.touched}:
            f = res[2 * e + 1]   # residual of the reverse arc is the flow
            if f:
                flow[e] = f
                terms.append(f * cost[2 * e])
        # fsum rounds the exact sum once, so the summation order is free
        return FlowSolution(flow=flow, value=sent, total_cost=math.fsum(terms))


def solve_min_cost_flow(net: FlowNetwork) -> FlowSolution:
    """Minimum-cost integral flow of exactly ``net.required_flow`` units.

    Raises:
        FlowInfeasibleError: If the required value exceeds the maximum
            feasible flow; the error carries that maximum, the flow sent
            when no augmenting path was left.
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
