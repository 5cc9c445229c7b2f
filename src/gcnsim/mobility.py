"""Random-waypoint motion inside a disk; a static run builds no fleet."""

from __future__ import annotations

import random

from .model import MobilitySpec, Position, uniform_disk_point


def init_motion(spec: MobilitySpec, nid: int, position: Position, now: float,
                rng: random.Random, region_radius: float) -> list:
    """One node's motion record, `[node id, x, y, waypoint x, waypoint y,
    speed, pause until, rng]`, which `advance` mutates in place.  The node
    draws its first pause end, waypoint and speed at `now`, in that order."""
    x, y = position
    pause_until = now + rng.uniform(spec.pause_min, spec.pause_max)
    wx, wy = uniform_disk_point(rng, region_radius)
    return [nid, x, y, wx, wy, rng.uniform(spec.speed_min, spec.speed_max),
            pause_until, rng]


def advance(spec: MobilitySpec, fleet: list, start: float, span: float,
            region_radius: float, positions: dict) -> None:
    """Move every record in `fleet` over `[start, start + span]` of
    piecewise-linear motion toward its waypoint, in one call, and write the
    new `Position` of each node not pausing through the whole span into
    `positions`.  A node pauses on arrival, then draws a fresh uniform-disk
    waypoint and a fresh speed."""
    pause_min, pause_max = spec.pause_min, spec.pause_max
    speed_min, speed_max = spec.speed_min, spec.speed_max
    new = tuple.__new__  # a cheaper Position(x, y): skips NamedTuple's __new__
    for record in fleet:
        nid, x, y, wx, wy, speed, pause_until, rng = record
        if span <= pause_until - start:
            continue  # pausing through the whole span: it would only wait
        t, remaining = start, span
        while remaining > 1e-12:
            if t < pause_until:
                wait = min(remaining, pause_until - t)
                t += wait
                remaining -= wait
                continue
            if speed <= 0.0:
                break  # a zero-speed draw never reaches its waypoint
            dx, dy = wx - x, wy - y
            dist = (dx * dx + dy * dy) ** 0.5
            if dist > 1e-12:
                travel_time = dist / speed
                if travel_time > remaining:
                    frac = (speed * remaining) / dist
                    x, y = x + dx * frac, y + dy * frac
                    break
                t += travel_time
                remaining -= travel_time
            # arrived: pause, then a new waypoint, then a new speed
            x, y = wx, wy
            pause_until = t + rng.uniform(pause_min, pause_max)
            wx, wy = uniform_disk_point(rng, region_radius)
            speed = rng.uniform(speed_min, speed_max)
            record[3:7] = wx, wy, speed, pause_until
        record[1] = x
        record[2] = y
        positions[nid] = new(Position, (x, y))
