"""Congestion-aware edge costs: planner estimates and execution history.

The traffic model reads delivering agents' guide paths: entering a busy
cell costs extra (vertex congestion), and edges planned in both directions
cost extra still (contraflow). The avg-wait model instead learns from
observed waiting, with exponential decay favoring recent congestion.
"""

from mapdflow import (EdgeWaitStats, GridMap, TrafficState, contraflow, fcost,
                      pcost, update_wait_stats, vertex_congestion)

grid = GridMap(8, 5, [True] * 40)   # open 8x5 map: cell = 8 * row + column

# Three delivering agents; all three enter cell 12, and one drives against
# the flow on edge (11, 12).
guide_paths = [
    [10, 11, 12, 13],
    [20, 12, 11],
    [28, 20, 12, 13],
]
ts = TrafficState(grid)
ts.add(guide_paths)

print("edge            unit  p_v2  c_e  fcost")
for e in ((11, 12), (12, 11), (12, 13), (10, 11)):
    print(f"{str(e):<15} {1:>4} "
          f"{vertex_congestion(e[1], ts):>5.0f} {contraflow(e, ts):>4.0f} "
          f"{fcost(e, ts):>6.0f}")

print("\nexecution history with decay gamma = 0.9:")
stats = EdgeWaitStats(grid, gamma=0.9)
update_wait_stats(stats, [((11, 12), 4), ((11, 12), 2), ((12, 13), 0)])
print(f"  after a congested window: pcost(11->12) = {pcost((11, 12), stats):.3f}")
for window in range(10):
    update_wait_stats(stats, [])
print(f"  after 10 quiet windows:   pcost(11->12) = {pcost((11, 12), stats):.3f}")
print("  (the W/N ratio survives decay; fresh observations dominate mixes)")

update_wait_stats(stats, [((11, 12), 0)])
print(f"  after one wait-free pass: pcost(11->12) = {pcost((11, 12), stats):.3f}")
