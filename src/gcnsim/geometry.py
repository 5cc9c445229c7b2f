"""Who is within the radius, decided here and nowhere else, by one rule:
`dx*dx + dy*dy <= r*r`.  The cell list answers it for one node (a mobile
run's neighbour rows), `unit_disk_adjacency` for every pair (a static run's
rows and the flood oracle's graph), and `reached_count` along a depth-first
connectivity search that builds no graph.
"""

from __future__ import annotations

import math
from collections import defaultdict

# cells a hair wider than the radius, so rounding in x / width skips no cell
_WIDEN = 1.0 + 1e-6


class CellList:
    """Node positions bucketed on square cells at least one radius wide, so
    every pair in range lies in one 3×3 block of cells."""

    def __init__(self, positions: dict, radius: float):
        self.positions = positions
        self.width = radius * _WIDEN
        self.r2 = radius * radius
        self.cells = defaultdict(list)
        for nid, p in positions.items():
            self.cells[self._cell(p)].append((nid, p.x, p.y))

    def _cell(self, p) -> tuple:
        return math.floor(p.x / self.width), math.floor(p.y / self.width)

    def in_range(self, nid: int) -> list:
        """The ids in range of node `nid`, sorted."""
        p = self.positions[nid]
        x, y, r2 = p.x, p.y, self.r2
        cx, cy = self._cell(p)
        found = [j for i in (cx - 1, cx, cx + 1) for k in (cy - 1, cy, cy + 1)
                 for j, qx, qy in self.cells.get((i, k), ())
                 if j != nid and (x - qx) * (x - qx) + (y - qy) * (y - qy) <= r2]
        found.sort()
        return found


def unit_disk_adjacency(positions: dict, tx_radius: float) -> dict:
    """positions: NodeId -> Position.  Returns NodeId -> neighbours by id.

    Each candidate pair is tested once: a cell against itself and against
    its four forward neighbours, so that every pair of adjacent cells meets
    exactly once."""
    adj = {i: [] for i in sorted(positions)}
    grid = CellList(positions, tx_radius)
    cells, r2 = grid.cells, grid.r2
    for (cx, cy), here in cells.items():
        for key in ((cx, cy), (cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1),
                    (cx, cy + 1)):
            there = cells.get(key)
            if there is None:
                continue
            for n, (i, x, y) in enumerate(here, 1):
                row = adj[i]
                for j, qx, qy in (here[n:] if there is here else there):
                    if (x - qx) * (x - qx) + (y - qy) * (y - qy) <= r2:
                        row.append(j)
                        adj[j].append(i)
    for row in adj.values():
        row.sort()
    return adj


def bfs_hops(adj: dict, start) -> dict:
    dist = {start: 0}
    queue = [start]
    for u in queue:
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reached_count(positions: dict, radius: float, active: set, source,
                  targets: set) -> int:
    """How many of `targets` a depth-first search from `source` reaches on the
    unit-disk graph of `active` plus the source (nodes without a position left
    out).  No graph is built: each step drops the pending nodes it reaches,
    and the search stops once every target is reached.  The visiting order
    cannot change the count; depth first reaches the far side of the group
    sooner, so the search stops after fewer rescans of the pending nodes."""
    if source not in positions:
        return 0
    pending = [(p.x, p.y, v in targets) for v in active
               if v != source and (p := positions.get(v)) is not None]
    wanted = sum(t[2] for t in pending)
    r2 = radius * radius
    found = 0
    stack = [(positions[source].x, positions[source].y, False)]
    while stack and found != wanted:
        px, py, _ = stack.pop()
        far = []
        for t in pending:
            dx, dy = px - t[0], py - t[1]
            if dx * dx + dy * dy <= r2:
                stack.append(t)
                found += t[2]
            else:
                far.append(t)
        pending = far
    return found
