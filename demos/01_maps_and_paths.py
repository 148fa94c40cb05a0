"""Grid maps and shortest-path queries.

Parses a small benchmark-format map, inspects the traversability graph,
and runs distance queries under unit and non-unit edge costs. Costs are
one float64 array over the map's directed edges, or a model that prices
the edges' tail and head arrays in one call.
"""

import numpy as np

from mapdflow import DistanceProvider, parse_map

MAP_TEXT = """\
type octile
height 5
width 9
map
.........
.@@@.@@@.
.@S..E@..
.@@@@@@..
.........
"""

grid = parse_map(MAP_TEXT)
print(f"{grid.width}x{grid.height} map, {grid.num_free} free cells, "
      f"{grid.num_directed_edges()} directed edges")
print("shelf cells:", grid.cells_with_label("S"),
      " workstations:", grid.cells_with_label("E"))

shelf = grid.cells_with_label("S")[0]
station = grid.cells_with_label("E")[0]

# A provider caches distance-to-goal tables and extracts concrete paths.
provider = DistanceProvider(grid)
dist = provider.distance(shelf, station)
print(f"\nunit-cost distance shelf -> station: {dist:.0f}")

path = provider.shortest_path(shelf, station)
print("\npath from shelf to station:")
marks = {c: "*" for c in path}
marks[shelf] = "P"
marks[station] = "D"
for y in range(grid.height):
    row = ""
    for x in range(grid.width):
        v = grid.index(x, y)
        row += marks.get(v, "." if grid.is_free(v) else "#")
    print("  " + row)

# Direction-dependent costs: moving east is five times as expensive.
def east_is_slow(tails, heads):
    return np.where(heads == tails + 1, 5.0, 1.0)

weighted = DistanceProvider(grid, east_is_slow).distance(shelf, station)
print(f"\nwith east-penalized costs the same trip costs {weighted:.0f} "
      f"(was {dist:.0f})")
