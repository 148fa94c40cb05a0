"""Synthetic benchmark maps: random-obstacle grids and warehouse layouts.

These mirror the two map families used throughout the experiments: MAPF-style
random grids with a fixed obstacle density, and aisle-structured warehouse
floors with labeled workstation ('E') and shelf ('S') cells.
"""

from __future__ import annotations

import numpy as np

from .grid_map import GridMap


def random_map(width: int, height: int, obstacle_density: float = 0.2,
               seed: int = 0) -> GridMap:
    """Random grid with the given obstacle density.

    Only the largest connected free region is kept traversable, so agents
    and tasks sampled on free cells can always reach each other.
    """
    rng = np.random.default_rng(seed)
    free = (rng.random(width * height) >= obstacle_density).tolist()
    if not any(free):
        free[0] = True
    grid = GridMap(width, height, free)
    # Components are numbered in cell order, so argmax keeps the first of
    # equally large ones.
    sizes = np.bincount(grid.component[grid.component >= 0])
    if sizes.max() < grid.num_free:
        grid = GridMap(width, height,
                       (grid.component == sizes.argmax()).tolist())
    return grid


def warehouse_map(width: int = 35, height: int = 21,
                  block_width: int = 5, block_height: int = 2,
                  aisle: int = 1) -> GridMap:
    """Aisle-and-shelf warehouse layout.

    Shelf blocks of ``block_width x block_height`` are separated by aisles;
    cells adjacent to shelf blocks are labeled 'S' (item locations) and the
    left/right border columns are labeled 'E' (workstations). A clear ring
    around the floor keeps everything connected.
    """
    free = [True] * (width * height)
    labels: dict[int, str] = {}
    margin = 2  # clear ring: border lane plus one aisle
    y = margin
    while y + block_height <= height - margin:
        x = margin
        while x + block_width <= width - margin:
            for by in range(y, y + block_height):
                for bx in range(x, x + block_width):
                    free[by * width + bx] = False
            x += block_width + aisle
        y += block_height + aisle

    grid = GridMap(width, height, free)
    for v in grid.free_cells:
        x, y = grid.coords(v)
        if x == 0 or x == width - 1:
            labels[v] = "E"
            continue
        # shelf-adjacent free cells hold items
        for dx, dy in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height and not free[ny * width + nx]:
                labels[v] = "S"
                break
    return GridMap(width, height, free, labels)
