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
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from .grid_map import DistanceProvider, EdgeCost, GridMap
from .mincost_flow import (UNBOUNDED, ArcLayout, FlowNetwork, FlowSolution,
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
    # Set only under the traffic model, for a delivering agent: its
    # delivery leg, which the round's traffic counts read.
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
        cost[:, j] = dist.table(task.pickup)[agent_cells]

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

    Each entry is the cheapest agent-to-pickup path cost (inf when
    unreachable), from one batched sparse-graph Dijkstra over the costs.
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
    returned (still at minimum cost). ``scipy.optimize`` loads on the
    first call, so flow and greedy runs never import it.
    """
    from scipy.optimize import linear_sum_assignment

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
    """A flow network over a grid map, with the bookkeeping needed to trace
    unit flows back into per-agent guide paths.

    Node ``c`` is the map's cell ``c``, blocked cells included (they have no
    arcs); the source and sink are nodes ``width * height`` and the next.
    Each free cell has one edge into the sink, whose capacity is the number
    of pooled tasks picked up there; the network's own edges are the source
    edges, one per agent.
    """

    network: FlowNetwork
    source_edges: dict[int, int]    # agent id -> edge id
    sink_edges: list[int]           # cell -> its sink edge id (-1 if blocked)
    task_cells: list[int]           # the tasks' pickup cells, ascending
    task_ids: list[int]             # their ids, by pickup cell, then id
    edge_at: np.ndarray             # the grid's edge ids by cell and N, E, S, W


def _first_repeat(ids: list[int]) -> int | None:
    """The first id of ``ids`` seen before, or None if all are distinct."""
    if len(set(ids)) == len(ids):
        return None
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            return i
        seen.add(i)


class FlowNetworkBuilder:
    """Reusable per-map constructor for assignment flow networks.

    The interior of the network (one node per cell, numbered by cell id,
    one arc per traversable directed edge, arc ids equal to the grid's edge
    ids) and one zero-cost edge from each free cell into the sink, in cell
    order, are fixed by the map. So their residual arcs are laid out once,
    as the shared prefix of every network built. Each build only takes the
    edge costs, sets each sink edge's capacity to the number of tasks
    picked up at its cell, and appends one source edge per agent.
    """

    def __init__(self, grid: GridMap):
        self.grid = grid
        size = grid.width * grid.height
        free = np.asarray(grid.free_cells, dtype=np.int64)
        m = len(grid.tails)
        self.layout = ArcLayout(
            size + 2, np.concatenate([grid.tails, free]),
            np.concatenate([grid.heads, np.full(len(free), size + 1)]))
        self._free = free
        self._free_mask = np.zeros(size, dtype=bool)
        self._free_mask[free] = True
        self._grid_caps = np.full(m, UNBOUNDED, dtype=np.int64)
        self._sink_costs = np.zeros(len(free))
        sink_edges = np.full(size, -1, dtype=np.int64)
        sink_edges[free] = m + np.arange(len(free))
        self.sink_edges = sink_edges.tolist()

    def build(self, agents: list[Agent], tasks: list[Task],
              edge_cost: EdgeCost | None = None) -> GridFlowNetwork:
        grid = self.grid
        task_ids = [t.id for t in tasks]
        for kind, ids in (("agent", [a.id for a in agents]), ("task", task_ids)):
            repeat = _first_repeat(ids)
            if repeat is not None:
                raise ValueError(f"{kind} id {repeat} appears twice")
        seen_cells: set[int] = set()
        for agent in agents:
            if agent.is_delivering:
                raise ValueError(f"agent {agent.id} is delivering and not assignable")
            if agent.location in seen_cells:
                raise ValueError(f"two agents share cell {agent.location}")
            seen_cells.add(agent.location)
            if not grid.is_free(agent.location):
                raise ValueError(f"agent {agent.id} is on a blocked cell")
        size = grid.width * grid.height
        pickups = np.array([t.pickup for t in tasks], dtype=np.int64)
        on_map = (pickups >= 0) & (pickups < size)
        blocked = ~on_map
        blocked[on_map] = ~self._free_mask[pickups[on_map]]
        if blocked.any():
            raise ValueError(
                f"task {tasks[int(np.argmax(blocked))].id} pickup cell is blocked")

        source, sink = size, size + 1
        counts = np.bincount(pickups, minlength=size)
        net = FlowNetwork(
            num_nodes=sink + 1, source=source, sink=sink, layout=self.layout,
            layout_costs=np.concatenate([grid.edge_costs(edge_cost), self._sink_costs]),
            layout_caps=np.concatenate([self._grid_caps, counts[self._free]]))
        source_edges: dict[int, int] = {}
        for agent in sorted(agents, key=lambda a: a.id):
            source_edges[agent.id] = net.add_edge(source, agent.location, 1, 0.0)
        # Retrieval hands out a cell's tasks by id.
        ids = np.array(task_ids, dtype=np.int64)
        order = np.lexsort((ids, pickups))

        # The max feasible flow is min(agents, tasks) summed per connected
        # component: inside a component every agent reaches every pickup.
        comp, n_comp = grid.component, int(grid.component.max()) + 1
        per_comp_agents = np.bincount(
            comp[[a.location for a in agents]], minlength=n_comp)
        per_comp_tasks = np.bincount(comp[pickups], minlength=n_comp)
        net.required_flow = int(np.minimum(per_comp_agents, per_comp_tasks).sum())
        return GridFlowNetwork(
            network=net, source_edges=source_edges, sink_edges=self.sink_edges,
            task_cells=pickups[order].tolist(), task_ids=ids[order].tolist(),
            edge_at=grid._edge_at)


def retrieve_assignments(solution: FlowSolution, net: GridFlowNetwork,
                         agents: list[Agent]) -> AssignmentSet:
    """Decompose a solved flow into per-agent tasks and guide paths.

    Agents are processed in ascending id order. Each walk starts at the
    agent's cell, takes one unit of flow per traversed edge, and stops at
    the first cell whose sink edge still carries a unit no walk has taken.
    The ``k`` units on a cell's sink edge stand for its ``k`` lowest task
    ids, handed out in that order. Agents whose source edge carries no flow
    stay unassigned. A walk leaves a cell by its edges in ascending order
    of head cell, which is N, W, E, S.
    """
    flow = solution.flow
    used: dict[int, int] = {}    # edge id -> units the walks have taken
    arc_head = net.network.layout.arc_head
    sink_edges, edge_at = net.sink_edges, net.edge_at
    task_cells, task_ids = net.task_cells, net.task_ids
    pairs: dict[int, int] = {}
    guide_paths: dict[int, list[int]] = {}
    max_steps = net.network.num_nodes + 1
    for agent in sorted(agents, key=lambda a: a.id):
        if flow[net.source_edges[agent.id]] <= 0:
            continue
        v = agent.location
        path = [v]
        for _ in range(max_steps):
            e = sink_edges[v]
            k = used.get(e, 0)
            if flow[e] > k:
                used[e] = k + 1
                pairs[agent.id] = task_ids[bisect_left(task_cells, v) + k]
                guide_paths[agent.id] = path
                break
            north, east, south, west = edge_at[v].tolist()
            for e in (north, west, east, south):
                if e < 0:
                    continue
                k = used.get(e, 0)
                if flow[e] > k:
                    used[e] = k + 1
                    v = arc_head[2 * e]
                    path.append(v)
                    break
            else:
                raise RuntimeError(
                    f"flow walk for agent {agent.id} stranded at cell {v}; "
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

    The builder sets the required flow to the maximum feasible flow,
    ``min(agents, tasks)`` summed over connected components, so
    disconnected instances solve directly and every solve is feasible.
    """
    if not agents or not tasks:
        return AssignmentSet()
    if builder is None:
        builder = FlowNetworkBuilder(grid)
    gnet = builder.build(agents, tasks, edge_cost)
    solution = solve_min_cost_flow(gnet.network)
    return retrieve_assignments(solution, gnet, agents)
