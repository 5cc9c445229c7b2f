"""Who is within the radius, decided here and nowhere else, by one rule:
`dx*dx + dy*dy <= r*r`.  `unit_disk_adjacency` answers it for every pair,
testing only pairs in one radius-wide cell or in adjacent ones (the graph whose
rows the channel samples, static or mobile, and the flood oracle's hop counts),
and `reached_count` along a depth-first connectivity search that builds no graph.
"""

from __future__ import annotations

import math
from collections import defaultdict

# cells a hair wider than the radius, so rounding in x / width skips no cell
_WIDEN = 1.0 + 1e-6


def unit_disk_adjacency(positions: dict, tx_radius: float) -> dict:
    """positions: NodeId -> Position.  Returns NodeId -> neighbours by id,
    with keys and rows in id order.

    Nodes are bucketed on square cells at least one radius wide, so every
    pair in range lies in one cell or in two adjacent ones.  Each candidate
    pair is tested once: first a cell's own pairs, by index, then the cell
    against its four forward neighbours, so that every pair of adjacent
    cells meets exactly once."""
    adj = {i: [] for i in sorted(positions)}
    width, r2 = tx_radius * _WIDEN, tx_radius * tx_radius
    floor = math.floor
    cells = defaultdict(list)
    for i, (x, y) in positions.items():
        cells[floor(x / width), floor(y / width)].append((i, x, y))
    get = cells.get
    for (cx, cy), here in cells.items():
        last = len(here)
        for a in range(last - 1):
            i, x, y = here[a]
            row = adj[i]
            for b in range(a + 1, last):
                j, qx, qy = here[b]
                if (x - qx) * (x - qx) + (y - qy) * (y - qy) <= r2:
                    row.append(j)
                    adj[j].append(i)
        for key in ((cx + 1, cy - 1), (cx + 1, cy), (cx + 1, cy + 1), (cx, cy + 1)):
            there = get(key)
            if there is None:
                continue
            for i, x, y in here:
                row = adj[i]
                for j, qx, qy in there:
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
