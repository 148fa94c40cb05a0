"""Min-cost flow oracle: the primal-dual solver with its Dijkstra as it
stood when every phase settled each node at most as far as the sink, the
nodes tied with the sink included. Kept verbatim so tests can check that
the library's search, which stops as soon as the sink is final, solves
exactly the same flows in exactly the same phases and paths."""

from __future__ import annotations

from heapq import heappop, heappush

from mapdflow.mincost_flow import FlowNetwork, FlowSolution, _PrimalDualSolver

_INF = float("inf")


class FullSettleSolver(_PrimalDualSolver):
    """The library's solver, but each phase's search settles every node at
    distance at most the sink's before it returns."""

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


def solve_full_settle(net: FlowNetwork) -> FlowSolution:
    """What :func:`mapdflow.mincost_flow.solve_min_cost_flow` returns (or
    raises) on ``net``, computed with full-settle searches."""
    if net.required_flow == 0:
        return FlowSolution(flow=[0] * net.num_edges, value=0, total_cost=0.0)
    return FullSettleSolver(net).solve()
