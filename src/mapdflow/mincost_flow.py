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

A network may share a prefix of edges, an :class:`ArcLayout`, with other
networks: the residual arcs of those edges (heads, and each node's arcs by
arc id) are laid out once, and a network only adds the costs and
capacities of the prefix and its own edges. The assignment builder lays
out a map's interior and one edge from each free cell into the sink once,
and adds each round's source edges; a network built only with
``add_edge`` gets an empty layout of its own.

A solve borrows its layout's residual workspace and restores what it
changed before it returns or raises: it rewrites arc costs and residuals
only where the costs and capacities differ from the last solve's, and
resets only the arcs it pushed flow along and the scan lists it changed.
A node's scan list holds the arcs both searches read: its forward arcs
that have capacity, and the reverse arcs that ended a phase of this solve
with residual capacity, inserted in arc-id order. So an arc that can carry
no flow, such as a zero-capacity sink edge, costs nothing to scan. The
per-node scratch (potentials and each phase's arrays) lives in the
workspace too and is reset only where a solve touched it, and the largest
layout cost, which sets the float slack, is kept with the layout costs.
So after the layout is built, a round's Python loops run over what its
searches touch. Its numpy passes are still over every edge: a network
checks its cost and capacity arrays, a solve compares them with the
loaded ones, and the flow it returns is a list over all edges. Solves on
one layout run one at a time; a second solve while one holds the
workspace raises.

Costs may be arbitrary nonnegative reals; no cost scaling is used. Flow
amounts are exact integers whenever all capacities are integers.
"""

from __future__ import annotations

import math
import sys
import threading
from bisect import insort
from dataclasses import dataclass, field
from heapq import heappush, heappop

import numpy as np

_INF = float("inf")
# The layout capacity of an unbounded edge, and the residual of its forward
# arc. It never binds: flow on an edge is at most what was sent, so a push,
# capped at what is still to send, never exhausts it.
UNBOUNDED = sys.maxsize


class FlowInfeasibleError(RuntimeError):
    """Required flow value exceeds the maximum feasible flow."""

    def __init__(self, required: int, max_feasible: int):
        super().__init__(
            f"required flow {required} infeasible; maximum feasible is {max_feasible}")
        self.required = required
        self.max_feasible = max_feasible


class ArcLayout:
    """Residual arcs of a fixed set of edges, laid out once.

    Edge ``e`` has forward arc ``2e`` (tail to head) and reverse arc
    ``2e + 1``. ``arc_head[a]`` is the head of arc ``a``, read-only once
    built. The arc-head lists hold one int object per node id, and the
    loaded arc costs one float object per distinct cost and one for its
    negation, so a large layout holds each value once.

    The layout also owns the residual workspace that every solve of a
    network on it borrows: arc heads, residuals and costs of the layout
    arcs, as lists, the capacities and costs they were loaded with, each
    node's scan list, and per-node solver scratch. A scan list holds the
    node's forward arcs of nonzero loaded capacity, by arc id; a solve
    inserts reverse arcs as they gain residual capacity. A solve
    loads costs and capacities only where they differ from the last
    solve's and appends its network's own arcs. Before it returns or
    raises it truncates its own arcs and resets the residuals, scan lists
    and scratch it changed. So one layout serves any number of solves, one
    at a time.
    """

    def __init__(self, num_nodes: int, tails, heads):
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.shape != heads.shape or tails.ndim != 1:
            raise ValueError("tails and heads must be equal-length 1-d arrays")
        m = len(tails)
        if m and not (0 <= min(tails.min(), heads.min())
                      and max(tails.max(), heads.max()) < num_nodes):
            raise ValueError("layout edge endpoint out of range")
        arc_head = np.empty(2 * m, dtype=np.int64)
        arc_head[0::2] = heads
        arc_head[1::2] = tails
        self.num_nodes = num_nodes
        self.num_edges = m
        # One int object per node id, shared by every arc with that head.
        self.arc_head: list[int] = (
            np.arange(num_nodes).astype(object)[arc_head].tolist())
        # The workspace, as no solve has changed it: no flow, zero costs,
        # every edge unbounded.
        self._head = list(self.arc_head)
        self._res = [UNBOUNDED, 0] * m
        self._edge_costs = np.zeros(m)      # the costs ``_cost`` holds
        self._cost = [0.0, -0.0] * m
        # the capacities the forward residuals of ``_res`` were loaded with
        self._edge_caps = np.full(m, UNBOUNDED, dtype=np.int64)
        # The largest of ``_edge_costs`` (-inf if there are none) and
        # whether all are integers.
        self._max_cost = 0.0 if m else -_INF
        self._integral = True
        # Each node's scan list, as loaded: its forward arcs by arc id.
        # Nodes past the layout's are added by the first solve that has them.
        forward = (2 * np.argsort(tails, kind="stable")).tolist()
        ptr = [0] + np.cumsum(np.bincount(tails, minlength=num_nodes)).tolist()
        self._adj = [forward[ptr[v]:ptr[v + 1]] for v in range(num_nodes)]
        self._drop_scratch()
        self._busy = threading.Lock()      # held by the solve using the workspace

    def _load(self, costs: np.ndarray, caps: np.ndarray) -> None:
        """Load edge costs and capacities where they differ from the loaded
        ones. The workspace must hold no flow."""
        cost = self._cost
        old = self._edge_costs
        # bit patterns, so that a flip between 0.0 and -0.0 counts too
        changed = np.flatnonzero(costs.view(np.int64) != old.view(np.int64))
        if len(changed):
            # One float object per distinct bit pattern, and one for its
            # negation, shared by every arc that carries it.
            bits, which = np.unique(costs[changed].view(np.int64),
                                    return_inverse=True)
            forward = bits.view(np.float64).tolist()
            reverse = [-c for c in forward]
            for e, i in zip(changed.tolist(), which.tolist()):
                cost[2 * e] = forward[i]
                cost[2 * e + 1] = reverse[i]
            old[changed] = costs[changed]
            self._max_cost = float(old.max())
            self._integral = bool(np.equal(np.floor(old), old).all())
        old = self._edge_caps
        changed = np.flatnonzero(caps != old)
        if len(changed):
            res, adj, head = self._res, self._adj, self.arc_head
            for e, c, was in zip(changed.tolist(), caps[changed].tolist(),
                                 old[changed].tolist()):
                a = 2 * e
                res[a] = c
                if not c:       # the arc leaves its tail's scan list
                    adj[head[a + 1]].remove(a)
                elif not was:   # or enters it
                    insort(adj[head[a + 1]], a)
            old[changed] = caps[changed]

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

    Edges ``0 .. layout.num_edges - 1`` are the shared prefix, with costs
    ``layout_costs`` and capacities ``layout_caps``: one int64 array over
    the layout edges; by default every layout edge is unbounded. Edges
    added with :meth:`add_edge` follow, where ``capacity=None`` marks an
    unbounded edge. Either way an unbounded edge is stored as
    :data:`UNBOUNDED`, which no flow of at most the required value binds.
    ``tails``, ``heads``, ``capacities`` and ``costs`` read every edge as
    a new list, with ``None`` for an unbounded capacity.
    """

    num_nodes: int
    source: int
    sink: int
    required_flow: int = 0
    layout: ArcLayout = field(default_factory=lambda: ArcLayout(0, [], []))
    layout_costs: np.ndarray = field(default_factory=lambda: np.zeros(0))
    layout_caps: np.ndarray | None = None
    _tails: list[int] = field(default_factory=list, init=False, repr=False)
    _heads: list[int] = field(default_factory=list, init=False, repr=False)
    _caps: list[int] = field(default_factory=list, init=False, repr=False)
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
        m = self.layout.num_edges
        self.layout_costs = np.asarray(self.layout_costs, dtype=np.float64)
        if self.layout_costs.shape != (m,):
            raise ValueError("layout costs must give one cost per layout edge")
        if not (np.isfinite(self.layout_costs).all() and (self.layout_costs >= 0).all()):
            raise ValueError("edge cost must be finite and nonnegative")
        if self.layout_caps is None:
            self.layout_caps = np.full(m, UNBOUNDED, dtype=np.int64)
        caps = np.asarray(self.layout_caps)
        if caps.shape != (m,) or (m and caps.dtype.kind not in "iu"):
            raise ValueError("layout capacities must give one integer per layout edge")
        if m and caps.min() < 0:
            raise ValueError("capacity must be nonnegative")
        self.layout_caps = caps.astype(np.int64, copy=False)

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
        return [None if c == UNBOUNDED else c
                for c in self.layout_caps.tolist() + self._caps]

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
        self._caps.append(UNBOUNDED if capacity is None else capacity)
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
    arcs are the layout's workspace, with the network's own edges appended.
    So are the scan lists, each in ascending arc id order, and the per-node
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
        # The loaded scan list of each node whose list this solve copied,
        # and the reverse arcs it inserted into the copies.
        self.saved: dict[int, list[int]] = {}
        self.listed: set[int] = set()

    def _copied_list(self, v: int) -> list[int]:
        """Node ``v``'s scan list, copied at this solve's first change to it."""
        if v in self.saved:
            return self.adj[v]
        self.saved[v] = self.adj[v]
        arcs = self.adj[v] = list(self.adj[v])
        return arcs

    def _borrow(self):
        """Load the network into the layout's workspace."""
        net, layout = self.net, self.layout
        layout._load(net.layout_costs, net.layout_caps)
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
        self.adj, self.head, self.res, self.cost = (
            layout._adj, layout._head, layout._res, layout._cost)
        tails, heads, caps, k = net._tails, net._heads, net._caps, len(own)
        a = len(self.head)
        pair = [0] * (2 * k)    # own edge i as its arcs a + 2i and a + 2i + 1
        pair[0::2], pair[1::2] = heads, tails
        self.head += pair
        pair[0::2], pair[1::2] = caps, [0] * k
        self.res += pair
        pair[0::2], pair[1::2] = own, [-c for c in own]
        self.cost += pair
        for u, cap in zip(tails, caps):
            if cap:
                self._copied_list(u).append(a)
            a += 2

    def _restore(self, clean: bool):
        """Leave the workspace as :meth:`_borrow` found it. After a solve
        cut short (``clean`` false) the per-node scratch is dropped."""
        layout = self.layout
        base = 2 * layout.num_edges
        del layout._head[base:], layout._res[base:], layout._cost[base:]
        res = layout._res
        self.touched.update(self.phase_res)    # a phase cut short by an error
        # A push changes both arcs of an edge, so each touched edge's reverse
        # arc is touched; its residual is the flow to hand back.
        for a in self.touched:
            if a & 1 and a < base:
                f = res[a]
                if f:
                    res[a - 1] += f
                    res[a] = 0
        adj = layout._adj
        for v, arcs in self.saved.items():
            adj[v] = arcs
        if not clean:
            layout._drop_scratch()
            return
        pi = layout._pi
        for v in self.priced:
            pi[v] = 0.0

    def _dijkstra(self) -> tuple[list[int], list[float], float]:
        """The nodes at distance at most the sink's, their reduced-cost
        distances from the source, and the sink's distance.

        A node reached at no extra reduced cost from one being finalized is
        final at the same distance, so it is expanded from a stack rather
        than queued. The sink is finalized but never expanded.
        """
        s, t = self.net.source, self.net.sink
        dist, done = self.dist, self.done
        finalized: list[int] = [s]
        final_dist: list[float] = [0.0]
        done[s] = True
        heap: list[tuple[float, int]] = []
        stack = [s]
        d = 0.0
        pi, head, res, cost, adj = self.pi, self.head, self.res, self.cost, self.adj
        d_sink = _INF
        while True:
            if stack:
                v = stack.pop()
            else:
                while heap and done[heap[0][1]]:
                    heappop(heap)
                if not heap or heap[0][0] > d_sink:
                    break
                d, v = heappop(heap)
                done[v] = True
                finalized.append(v)
                final_dist.append(d)
                if v == t:
                    d_sink = d
                    continue
            pv = pi[v] + d
            for a in adj[v]:
                if res[a] <= 0:
                    continue
                u = head[a]
                if done[u]:
                    continue
                nd = cost[a] + pv - pi[u]
                if nd <= d:   # float slack; exact reduced costs are >= 0
                    done[u] = True
                    finalized.append(u)
                    final_dist.append(d)
                    if u == t:
                        d_sink = d
                    else:
                        stack.append(u)
                elif nd < dist[u]:
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
        # A reverse arc that ends the phase with residual joins its tail's
        # scan list; within the phase it was barred by its start residual.
        listed = self.listed
        for a in start_res:
            if a & 1 and res[a] > 0 and a not in listed:
                listed.add(a)
                insort(self._copied_list(head[a ^ 1]), a)
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
