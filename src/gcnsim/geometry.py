"""Who is within the radius: the cell list behind the channel's neighbour
rows and the unit-disk graph, the graph's BFS, and the connectivity reach.

Two range rules are in use: the channel keeps a pair with
`per_at(spec, r, math.hypot(dx, dy)) < 1` (certain loss once `hypot > r`),
the unit-disk graph links a pair with `dx*dx + dy*dy <= r*r`.  Rounding
makes them disagree on about one pair in six placed exactly `r` apart.
"""

from __future__ import annotations

import math
from collections import defaultdict

# cells a hair wider than the radius, so rounding in x / width skips no cell
_WIDEN = 1.0 + 1e-6


class CellList:
    """Node ids bucketed on square cells at least one radius wide, so every
    pair within the radius (by either rule) lies in one 3×3 block of cells."""

    def __init__(self, positions: dict, radius: float):
        self.width = radius * _WIDEN
        self.cells = defaultdict(list)
        for nid, p in positions.items():
            self.cells[self._cell(p)].append(nid)

    def _cell(self, p) -> tuple:
        return math.floor(p.x / self.width), math.floor(p.y / self.width)

    def near(self, p) -> list:
        """Every id in the 3×3 block around `p`, sorted: those in range and more."""
        cx, cy = self._cell(p)
        return sorted([nid for i in (cx - 1, cx, cx + 1) for j in (cy - 1, cy, cy + 1)
                       for nid in self.cells.get((i, j), ())])


def unit_disk_adjacency(positions: dict, tx_radius: float) -> dict:
    """positions: NodeId -> Position.  Returns NodeId -> neighbours by id."""
    adj = {i: [] for i in sorted(positions)}
    grid = CellList(positions, tx_radius)
    r2 = tx_radius * tx_radius
    for i, row in adj.items():
        pi = positions[i]
        for j in grid.near(pi):
            if j > i:
                dx, dy = pi.x - positions[j].x, pi.y - positions[j].y
                if dx * dx + dy * dy <= r2:
                    row.append(j)
                    adj[j].append(i)
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
    """How many of `targets` a BFS from `source` reaches on the unit-disk
    graph of `active` plus the source (nodes without a position left out).
    No graph is built: each step drops the pending nodes it reaches, and the
    search stops once every target is reached."""
    if source not in positions:
        return 0
    pending = [(p.x, p.y, v in targets) for v in active
               if v != source and (p := positions.get(v)) is not None]
    wanted = sum(t[2] for t in pending)
    r2 = radius * radius
    found = 0
    queue = [(positions[source].x, positions[source].y, False)]
    for px, py, _ in queue:
        if found == wanted:
            break
        far = []
        for t in pending:
            dx, dy = px - t[0], py - t[1]
            if dx * dx + dy * dy <= r2:
                queue.append(t)
                found += t[2]
            else:
                far.append(t)
        pending = far
    return found
