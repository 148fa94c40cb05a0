"""Flow-based task assignment and collision-free execution for lifelong
multi-agent pickup and delivery on grid maps."""

from .assignment import (Agent, AssignmentSet, FlowNetworkBuilder, Task,
                         TaskState, flow_assign, greedy_assign,
                         linear_assignment, retrieve_assignments)
from .cost_models import (AvgWaitCost, EdgeWaitStats, TrafficCost,
                          TrafficState, update_wait_stats)
from .grid_map import DistanceProvider, GridMap, MapParseError, parse_map
from .mapgen import random_map, warehouse_map
from .mincost_flow import (FlowInfeasibleError, FlowNetwork, FlowSolution,
                           solve_min_cost_flow, to_dimacs)
from .planner import ActionStep, GuideHeuristic, pibt_step, update_priorities
from .simulator import SimConfig, SimMetrics, Simulation, StepRecord

__version__ = "0.1.0"

__all__ = [
    "Agent", "AssignmentSet", "FlowNetworkBuilder", "Task", "TaskState",
    "flow_assign", "greedy_assign", "linear_assignment", "retrieve_assignments",
    "AvgWaitCost", "EdgeWaitStats", "TrafficCost", "TrafficState",
    "update_wait_stats",
    "DistanceProvider", "GridMap", "MapParseError", "parse_map",
    "random_map", "warehouse_map",
    "FlowInfeasibleError", "FlowNetwork", "FlowSolution",
    "solve_min_cost_flow", "to_dimacs",
    "ActionStep", "GuideHeuristic", "pibt_step", "update_priorities",
    "SimConfig", "SimMetrics", "Simulation", "StepRecord",
]
