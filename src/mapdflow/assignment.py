"""Task assignment strategies: greedy, bipartite linear assignment, and
min-cost flow solved directly over the map with guide-path retrieval.

All three strategies consume the same agent/task views and return an
:class:`AssignmentSet`; only the flow strategy also yields guide paths,
extracted from the solved flow by tracing unit flows from each agent's
cell to a task cell.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from .grid_map import DistanceProvider, EdgeCost, GridMap
from .mincost_flow import (FlowInfeasibleError, FlowNetwork, FlowSolution,
                           solve_min_cost_flow)


class TaskState(enum.Enum):
    POOLED = "pooled"
    ASSIGNED = "assigned"
    PICKED_UP = "picked_up"
    DELIVERED = "delivered"


@dataclass
class Task:
    """One pickup-and-delivery job; state moves monotonically forward,
    except that an assigned-but-not-picked-up task may return to the pool
    on a task swap."""

    id: int
    pickup: int
    delivery: int
    state: TaskState = TaskState.POOLED
    release_step: int = 0


@dataclass
class Agent:
    id: int
    location: int
    carried_task: int | None = None
    assigned_task: int | None = None
    guide_path: list[int] | None = None

    @property
    def is_delivering(self) -> bool:
        return self.carried_task is not None

    @property
    def is_free(self) -> bool:
        return self.assigned_task is None and self.carried_task is None


@dataclass
class AssignmentSet:
    """An injective agent-to-task matching, with guide paths for the flow
    strategy and the strategy's own notion of total cost."""

    pairs: dict[int, int] = field(default_factory=dict)
    guide_paths: dict[int, list[int]] = field(default_factory=dict)
    total_cost: float = 0.0

    def to_json(self) -> dict:
        return {
            "total_cost": self.total_cost,
            "assignments": [
                {"agent": a, "task": t, "path": self.guide_paths.get(a)}
                for a, t in sorted(self.pairs.items())
            ],
        }


# ---------------------------------------------------------------------------
# Greedy baseline
# ---------------------------------------------------------------------------

def greedy_assign(agents: list[Agent], tasks: list[Task],
                  dist: DistanceProvider) -> AssignmentSet:
    """Fix (agent, task) pairs in ascending distance order, no swaps.

    Ties break on (distance, agent id, task id). Unreachable pairs are
    never assigned; leftover agents/tasks stay unmatched.
    """
    if not agents or not tasks:
        return AssignmentSet()
    agents = sorted(agents, key=lambda a: a.id)
    tasks = sorted(tasks, key=lambda t: t.id)
    agent_cells = np.array([a.location for a in agents])
    cost = np.empty((len(agents), len(tasks)))
    for j, task in enumerate(tasks):
        cost[:, j] = dist.table_array(task.pickup)[agent_cells]

    order = np.argsort(cost, axis=None, kind="stable")
    n, m = cost.shape
    agent_used = [False] * n
    task_used = [False] * m
    pairs: dict[int, int] = {}
    picked: list[float] = []
    want = min(n, m)
    for flat in order:
        i, j = divmod(int(flat), m)
        if agent_used[i] or task_used[j] or not np.isfinite(cost[i, j]):
            continue
        agent_used[i] = True
        task_used[j] = True
        pairs[agents[i].id] = tasks[j].id
        picked.append(float(cost[i, j]))
        if len(pairs) == want:
            break
    return AssignmentSet(pairs=pairs, total_cost=math.fsum(picked))


# ---------------------------------------------------------------------------
# Linear assignment baseline (Dijkstra stage + optimal matching)
# ---------------------------------------------------------------------------

def agent_task_distances(grid: GridMap, agents: list[Agent], tasks: list[Task],
                         edge_cost: EdgeCost | None = None) -> np.ndarray:
    """Stage-1 distance matrix: rows are agents (id order), columns tasks.

    Equivalent to one ``shortest_distances`` call per agent; computed as a
    single batched sparse-graph Dijkstra for speed.
    """
    csr = grid.adjacency(grid.edge_costs(edge_cost))
    agent_cells = [a.location for a in sorted(agents, key=lambda a: a.id)]
    pickup_cells = [t.pickup for t in sorted(tasks, key=lambda t: t.id)]
    dist = csgraph_dijkstra(csr, directed=True, indices=agent_cells)
    return dist[:, pickup_cells]


def linear_assignment(agents: list[Agent], tasks: list[Task], grid: GridMap,
                      edge_cost: EdgeCost | None = None) -> AssignmentSet:
    """Optimal min-cost bipartite matching on shortest-path distances.

    Unreachable pairs are excluded; when no full matching of size
    min(n, m) exists the maximum matching over reachable pairs is
    returned (still at minimum cost).
    """
    if not agents or not tasks:
        return AssignmentSet()
    agents = sorted(agents, key=lambda a: a.id)
    tasks = sorted(tasks, key=lambda t: t.id)
    cost = agent_task_distances(grid, agents, tasks, edge_cost)

    finite = np.isfinite(cost)
    big = None
    solver_cost = cost
    if not finite.all():
        max_finite = float(cost[finite].max()) if finite.any() else 1.0
        big = (max_finite + 1.0) * (min(cost.shape) + 1)
        solver_cost = np.where(finite, cost, big)
    rows, cols = linear_sum_assignment(solver_cost)

    pairs: dict[int, int] = {}
    picked: list[float] = []
    for i, j in zip(rows, cols):
        if big is not None and not finite[i, j]:
            continue
        pairs[agents[i].id] = tasks[j].id
        picked.append(float(cost[i, j]))
    return AssignmentSet(pairs=pairs, total_cost=math.fsum(picked))


# ---------------------------------------------------------------------------
# Flow-based strategy
# ---------------------------------------------------------------------------

@dataclass
class GridFlowNetwork:
    """A flow network embedded in a grid map, with the bookkeeping needed
    to trace unit flows back into per-agent guide paths."""

    network: FlowNetwork
    grid: GridMap
    node_of_cell: list[int]
    cell_of_node: list[int]
    source_edges: dict[int, int]                    # agent id -> edge id
    sink_edges: dict[int, list[tuple[int, int]]]    # node -> [(task id, edge id)]
    walk_adj: list[list[tuple[int, int, int]]]      # node -> [(head cell, edge, head node)]


class FlowNetworkBuilder:
    """Reusable per-map constructor for assignment flow networks.

    The interior of the network (one node per free cell, one arc per
    traversable directed edge, arc ids equal to the grid's edge ids) is
    fixed by the map, so it is prepared once; each build only takes the
    edge costs and appends the per-instance source and sink arcs.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid
        node = np.full(grid.width * grid.height, -1)
        node[grid.free_cells] = np.arange(grid.num_free)
        self.node_of_cell = node.tolist()
        self.cell_of_node = list(grid.free_cells)
        self._tails = node[grid.tails].tolist()
        self._heads = node[grid.heads].tolist()
        # Retrieval walks each node's arcs by ascending head cell.
        order = np.lexsort((grid.heads, grid.tails))
        heads = grid.heads[order]
        arcs = list(zip(heads.tolist(), order.tolist(), node[heads].tolist()))
        ptr = grid.indptr.tolist()
        self.walk_adj = [arcs[ptr[v]:ptr[v + 1]] for v in self.cell_of_node]
        self.num_interior = len(self._tails)

    def build(self, agents: list[Agent], tasks: list[Task],
              edge_cost: EdgeCost | None = None) -> GridFlowNetwork:
        grid = self.grid
        seen_cells: set[int] = set()
        for agent in agents:
            if agent.is_delivering:
                raise ValueError(f"agent {agent.id} is delivering and not assignable")
            if agent.location in seen_cells:
                raise ValueError(f"two agents share cell {agent.location}")
            seen_cells.add(agent.location)
            if not grid.is_free(agent.location):
                raise ValueError(f"agent {agent.id} is on a blocked cell")
        for task in tasks:
            if not grid.is_free(task.pickup):
                raise ValueError(f"task {task.id} pickup cell is blocked")

        costs = grid.edge_costs(edge_cost).tolist()

        n_free = len(self.cell_of_node)
        source, sink = n_free, n_free + 1
        net = FlowNetwork(num_nodes=n_free + 2, source=source, sink=sink)
        net.tails = list(self._tails)
        net.heads = list(self._heads)
        net.capacities = [None] * self.num_interior
        net.costs = costs

        source_edges: dict[int, int] = {}
        for agent in sorted(agents, key=lambda a: a.id):
            e = net.add_edge(source, self.node_of_cell[agent.location], 1, 0.0)
            source_edges[agent.id] = e
        sink_edges: dict[int, list[tuple[int, int]]] = {}
        for task in sorted(tasks, key=lambda t: t.id):
            node = self.node_of_cell[task.pickup]
            e = net.add_edge(node, sink, 1, 0.0)
            sink_edges.setdefault(node, []).append((task.id, e))

        # The max feasible flow is min(agents, tasks) summed per connected
        # component: inside a component every agent reaches every pickup.
        comp, n_comp = grid.component, int(grid.component.max()) + 1
        per_comp_agents = np.bincount(
            comp[[a.location for a in agents]], minlength=n_comp)
        per_comp_tasks = np.bincount(
            comp[[t.pickup for t in tasks]], minlength=n_comp)
        net.required_flow = int(np.minimum(per_comp_agents, per_comp_tasks).sum())
        return GridFlowNetwork(
            network=net, grid=grid, node_of_cell=self.node_of_cell,
            cell_of_node=self.cell_of_node, source_edges=source_edges,
            sink_edges=sink_edges, walk_adj=self.walk_adj)


def build_flow_network(grid: GridMap, agents: list[Agent], tasks: list[Task],
                       edge_cost: EdgeCost | None = None) -> GridFlowNetwork:
    """One-shot flow-network construction (see :class:`FlowNetworkBuilder`)."""
    return FlowNetworkBuilder(grid).build(agents, tasks, edge_cost)


def retrieve_assignments(solution: FlowSolution, net: GridFlowNetwork,
                         agents: list[Agent]) -> AssignmentSet:
    """Decompose a solved flow into per-agent tasks and guide paths.

    Agents are processed in ascending id order. Each walk starts at the
    agent's cell, consumes one unit of flow per traversed edge, and stops
    at the first node whose sink edge still carries flow; that task (and
    its sink-edge unit) is assigned to the agent. Agents whose source edge
    carries no flow stay unassigned.
    """
    flow = list(solution.flow)
    pairs: dict[int, int] = {}
    guide_paths: dict[int, list[int]] = {}
    max_steps = net.network.num_nodes + 1
    for agent in sorted(agents, key=lambda a: a.id):
        src_edge = net.source_edges[agent.id]
        if flow[src_edge] <= 0:
            continue
        flow[src_edge] -= 1
        v = net.node_of_cell[agent.location]
        path = [agent.location]
        for _ in range(max_steps):
            task_here = None
            for task_id, e in net.sink_edges.get(v, ()):
                if flow[e] > 0:
                    task_here = (task_id, e)
                    break
            if task_here is not None:
                flow[task_here[1]] -= 1
                pairs[agent.id] = task_here[0]
                guide_paths[agent.id] = path
                break
            moved = False
            for head_cell, e, head_node in net.walk_adj[v]:
                if flow[e] > 0:
                    flow[e] -= 1
                    path.append(head_cell)
                    v = head_node
                    moved = True
                    break
            if not moved:
                raise RuntimeError(
                    f"flow walk for agent {agent.id} stranded at node {v}; "
                    "solution violates flow conservation")
        else:
            raise RuntimeError(
                f"flow walk for agent {agent.id} exceeded {max_steps} steps; "
                "solution contains a cycle")
    return AssignmentSet(pairs=pairs, guide_paths=guide_paths,
                         total_cost=solution.total_cost)


def flow_assign(grid: GridMap, agents: list[Agent], tasks: list[Task],
                edge_cost: EdgeCost | None = None,
                builder: FlowNetworkBuilder | None = None) -> AssignmentSet:
    """Build, solve, and decompose the assignment flow in one call.

    Disconnected instances are handled by the builder, which lowers the
    required flow to the feasible maximum; the infeasible retry here is a
    guard against that accounting ever disagreeing with the solver.
    """
    if not agents or not tasks:
        return AssignmentSet()
    if builder is None:
        builder = FlowNetworkBuilder(grid)
    gnet = builder.build(agents, tasks, edge_cost)
    try:
        solution = solve_min_cost_flow(gnet.network)
    except FlowInfeasibleError as exc:
        gnet.network.required_flow = exc.max_feasible
        solution = solve_min_cost_flow(gnet.network)
    return retrieve_assignments(solution, gnet, agents)
