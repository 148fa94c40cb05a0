"""Congestion-aware edge costs: planner estimates and execution history.

The traffic model reads delivering agents' guide paths: entering a busy
cell costs extra (vertex congestion), and edges planned in both directions
cost extra still (contraflow). The avg-wait model instead learns from
observed waiting, with exponential decay favoring recent congestion.
Each model prices every edge in one call, as an array over the edge ids.
"""

import math

from mapdflow import (AvgWaitCost, EdgeWaitStats, GridMap, TrafficCost,
                      TrafficState, update_wait_stats)

grid = GridMap(8, 5, [True] * 40)   # open 8x5 map: cell = 8 * row + column


def edge_id(tail, head):
    return int(grid.edge_ids([tail], [head])[0])


# Three delivering agents; all three enter cell 12, and one drives against
# the flow on edge (11, 12).
guide_paths = [
    [10, 11, 12, 13],
    [20, 12, 11],
    [28, 20, 12, 13],
]
ts = TrafficState(grid)
ts.add(guide_paths)

fcost = TrafficCost(ts)(grid.tails, grid.heads)
print("edge            unit  p_v2  c_e  fcost")
for e in ((11, 12), (12, 11), (12, 13), (10, 11)):
    i, n_v = edge_id(*e), ts.entry_counts[e[1]]
    p_v2 = math.ceil((n_v - 1) / 2) if n_v > 1 else 0   # vertex congestion
    c_e = ts.traversal_counts[i] * ts.traversal_counts[grid.reverse[i]]
    print(f"{str(e):<15} {1:>4} {p_v2:>5.0f} {c_e:>4.0f} {fcost[i]:>6.0f}")

print("\nexecution history with decay gamma = 0.9:")
stats = EdgeWaitStats(grid, gamma=0.9)
wait_model = AvgWaitCost(stats)   # reads the statistics as they are at a call
watched = edge_id(11, 12)


def pcost():
    return wait_model(grid.tails, grid.heads)[watched]


update_wait_stats(stats, [((11, 12), 4), ((11, 12), 2), ((12, 13), 0)])
print(f"  after a congested window: pcost(11->12) = {pcost():.3f}")
for window in range(10):
    update_wait_stats(stats, [])
print(f"  after 10 quiet windows:   pcost(11->12) = {pcost():.3f}")
print("  (the W/N ratio survives decay; fresh observations dominate mixes)")

update_wait_stats(stats, [((11, 12), 0)])
print(f"  after one wait-free pass: pcost(11->12) = {pcost():.3f}")
