"""Random-waypoint motion: containment, speed bounds, pausing, center bias,
and the fleet step against the per-node reference it replaced."""

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import one_to_all_flow, small_scenario
from gcnsim.engine import TICKS_PER_S, Run
from gcnsim.mobility import advance, init_motion
from gcnsim.model import MobilitySpec, Position, TrafficSpec, uniform_disk_point


RADIUS = 100.0


def _rwp(speed_min=1.0, speed_max=5.0, pause_min=0.0, pause_max=0.0):
    return MobilitySpec(kind="random_waypoint", speed_min=speed_min,
                        speed_max=speed_max, pause_min=pause_min,
                        pause_max=pause_max)


def _one(spec, start, rng, now=0.0):
    """A one-node fleet (node 0) and the positions dict `advance` writes."""
    return [init_motion(spec, 0, start, now, rng, RADIUS)], {0: start}


def test_static_nodes_never_move():
    # a static run builds no motion records: its placement holds to the end
    run = Run(small_scenario(traffic=TrafficSpec(flows=[one_to_all_flow()])), 0)
    placed = dict(run.positions)
    run.run()
    assert not hasattr(run, "_fleet")
    assert run.positions == placed


def test_zero_speed_degenerate_is_static():
    spec = _rwp(speed_min=0.0, speed_max=0.0)
    start = Position(10.0, 0.0)
    fleet, positions = _one(spec, start, random.Random(1))
    for k in range(100):
        advance(spec, fleet, k * 0.1, 0.1, RADIUS, positions)
    assert positions[0] == start


def test_waypoints_stay_inside_region():
    spec = _rwp()
    fleet, positions = _one(spec, Position(0.0, 0.0), random.Random(2))
    t = 0.0
    for _ in range(5000):
        advance(spec, fleet, t, 0.5, RADIUS, positions)
        t += 0.5
        r = math.hypot(positions[0].x, positions[0].y)
        assert r <= RADIUS + 1e-9


def test_speed_bound_per_tick():
    spec = _rwp(speed_min=1.0, speed_max=5.0)
    fleet, positions = _one(spec, Position(0.0, 0.0), random.Random(3))
    t, dt = 0.0, 0.25
    prev = positions[0]
    for _ in range(2000):
        advance(spec, fleet, t, dt, RADIUS, positions)
        t += dt
        moved = prev.distance_to(positions[0])
        assert moved <= 5.0 * dt + 1e-9
        prev = positions[0]


def test_pause_holds_position():
    spec = _rwp(speed_min=5.0, speed_max=5.0, pause_min=10.0, pause_max=10.0)
    start = Position(1.0, 2.0)
    fleet, positions = _one(spec, start, random.Random(4))
    advance(spec, fleet, 0.0, 5.0, RADIUS, positions)  # still inside the pause
    assert positions[0] == start
    advance(spec, fleet, 5.0, 10.0, RADIUS, positions)  # pause expires mid-tick
    assert positions[0] != start


def test_long_run_center_bias():
    # the waypoint model concentrates time near the center: the long-run mean
    # distance from the center falls below the uniform-disk mean (2/3) R
    spec = _rwp(speed_min=1.0, speed_max=5.0)
    fleet, positions = _one(spec, Position(50.0, 0.0), random.Random(5))
    t, dt = 0.0, 1.0
    rs = []
    for _ in range(20000):
        advance(spec, fleet, t, dt, RADIUS, positions)
        t += dt
        rs.append(math.hypot(positions[0].x, positions[0].y))
    assert sum(rs) / len(rs) < (2.0 / 3.0) * RADIUS


def test_advance_is_deterministic():
    def trajectory(seed):
        spec = _rwp(pause_min=0.0, pause_max=1.0)
        fleet, positions = _one(spec, Position(0.0, 0.0), random.Random(seed))
        out = []
        t = 0.0
        for _ in range(200):
            advance(spec, fleet, t, 0.1, RADIUS, positions)
            t += 0.1
            out.append((positions[0].x, positions[0].y))
        return out

    assert trajectory(7) == trajectory(7)
    assert trajectory(7) != trajectory(8)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 16), start=st.integers(0, 10_000),
       n=st.integers(1, 50), speed_max=st.floats(0.0, 50.0),
       speed_frac=st.floats(0.0, 1.0), pause_max=st.floats(0.0, 2.0),
       pause_frac=st.floats(0.0, 1.0))
def test_one_call_over_n_ticks_matches_n_single_ticks(seed, start, n, speed_max,
                                                      speed_frac, pause_max,
                                                      pause_frac):
    """The engine moves a node over every tick since it last read positions in
    one call; that must agree with stepping tick by tick on the same grid."""
    spec = _rwp(speed_min=speed_max * speed_frac, speed_max=speed_max,
                pause_min=pause_max * pause_frac, pause_max=pause_max)
    ticks = 10
    fleets = [_one(spec, Position(20.0, -30.0), random.Random(seed), start / ticks)
              for _ in range(2)]
    (whole, whole_at), (stepped, stepped_at) = fleets
    advance(spec, whole, start / ticks, n / ticks, RADIUS, whole_at)
    for k in range(start, start + n):
        advance(spec, stepped, k / ticks, 1 / ticks, RADIUS, stepped_at)
    _, _, _, whole_wx, whole_wy, whole_speed, whole_pause, whole_rng = whole[0]
    _, _, _, step_wx, step_wy, step_speed, step_pause, step_rng = stepped[0]
    assert whole_at[0].distance_to(stepped_at[0]) <= 1e-9
    assert (whole_wx, whole_wy) == (step_wx, step_wy)
    assert whole_speed == step_speed
    assert whole_pause == pytest.approx(step_pause, abs=1e-9)
    assert whole_rng.getstate() == step_rng.getstate()


# --- the per-node motion the fleet step replaced, kept as its reference ----

@dataclass
class MotionState:
    position: Position
    waypoint: Position
    speed: float = 0.0
    pause_until: float = 0.0


def reference_init_motion(spec, position, now, rng, region_radius):
    state = MotionState(position=position, waypoint=position)
    if spec.kind == "random_waypoint":
        _pick_waypoint(spec, state, now, rng, region_radius)
    return state


def _pick_waypoint(spec, state, now, rng, region_radius):
    state.pause_until = now + rng.uniform(spec.pause_min, spec.pause_max)
    state.waypoint = uniform_disk_point(rng, region_radius)
    state.speed = rng.uniform(spec.speed_min, spec.speed_max)


def reference_advance(spec, state, now, dt, rng, region_radius):
    if spec.kind != "random_waypoint":
        return state
    remaining = dt
    t = now
    while remaining > 1e-12:
        if t < state.pause_until:
            wait = min(remaining, state.pause_until - t)
            t += wait
            remaining -= wait
            continue
        if state.speed <= 0.0:
            # degenerate zero-speed draw: the node never reaches its waypoint
            return state
        dx = state.waypoint.x - state.position.x
        dy = state.waypoint.y - state.position.y
        dist = (dx * dx + dy * dy) ** 0.5
        if dist <= 1e-12:
            state.position = state.waypoint
            _pick_waypoint(spec, state, t, rng, region_radius)
            continue
        travel_time = dist / state.speed
        if travel_time <= remaining:
            state.position = state.waypoint
            t += travel_time
            remaining -= travel_time
            _pick_waypoint(spec, state, t, rng, region_radius)
        else:
            frac = (state.speed * remaining) / dist
            state.position = Position(state.position.x + dx * frac,
                                      state.position.y + dy * frac)
            remaining = 0.0
    return state


def reference_sync(spec, movers, start, span, region_radius, positions):
    """The engine's per-node sync loop over the reference motion."""
    for nid, state, rng in movers:
        if span <= state.pause_until - start:
            continue  # pausing through the whole span: advance would only wait
        positions[nid] = reference_advance(spec, state, start, span, rng,
                                           region_radius).position


def _bits(*values):
    return [float(v).hex() for v in values]


_SPEEDS = st.one_of(st.just(0.0), st.floats(0.0, 50.0))
_PAUSES = st.one_of(st.just(0.0), st.sampled_from([0.1, 0.5, 1.0, 2.3]),
                    st.floats(0.0, 3.0))
_FRACS = st.one_of(st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(nodes=st.integers(1, 20), seed=st.integers(0, 2 ** 16),
       start=st.integers(0, 10_000), steps=st.lists(st.integers(1, 20),
                                                    min_size=1, max_size=30),
       speed_max=_SPEEDS, speed_frac=_FRACS, pause_max=_PAUSES,
       pause_frac=_FRACS)
# a span ending exactly where the first pause ends, then single ticks
@example(nodes=5, seed=3, start=0, steps=[5, 1, 1, 4, 5], speed_max=5.0,
         speed_frac=1.0, pause_max=0.5, pause_frac=1.0)
# zero speed: every node stays where it was placed
@example(nodes=20, seed=4, start=7, steps=[1, 20, 3], speed_max=0.0,
         speed_frac=1.0, pause_max=1.0, pause_frac=0.0)
# no pauses: nodes turn at each waypoint within the span
@example(nodes=20, seed=5, start=12, steps=[1, 1, 20, 20, 7], speed_max=50.0,
         speed_frac=0.5, pause_max=0.0, pause_frac=1.0)
def test_fleet_step_matches_the_per_node_reference(nodes, seed, start, steps,
                                                   speed_max, speed_frac,
                                                   pause_max, pause_frac):
    """Over span sequences drawn as the engine draws them, one fleet call
    leaves every node's position, waypoint, speed, pause end and rng state
    bit-for-bit where the per-node calls leave them."""
    spec = _rwp(speed_min=speed_max * speed_frac, speed_max=speed_max,
                pause_min=pause_max * pause_frac, pause_max=pause_max)
    place = random.Random(seed)
    placed = [uniform_disk_point(place, RADIUS) for _ in range(nodes)]
    now = start / TICKS_PER_S
    movers, fleet = [], []
    for nid, pos in enumerate(placed):
        rng = random.Random(f"{seed}/{nid}")
        movers.append((nid, reference_init_motion(spec, pos, now, rng, RADIUS), rng))
        fleet.append(init_motion(spec, nid, pos, now, random.Random(f"{seed}/{nid}"),
                                 RADIUS))
    expected, positions = dict(enumerate(placed)), dict(enumerate(placed))
    tick = start
    for step in steps:
        due = tick + step
        span_start, span = tick / TICKS_PER_S, (due - tick) / TICKS_PER_S
        reference_sync(spec, movers, span_start, span, RADIUS, expected)
        advance(spec, fleet, span_start, span, RADIUS, positions)
        tick = due
        for (nid, state, rng), record in zip(movers, fleet):
            got_nid, x, y, wx, wy, speed, pause_until, got_rng = record
            assert got_nid == nid
            assert _bits(x, y) == _bits(*state.position)
            assert _bits(*positions[nid]) == _bits(*expected[nid])
            assert _bits(wx, wy) == _bits(*state.waypoint)
            assert _bits(speed, pause_until) == _bits(state.speed, state.pause_until)
            assert got_rng.getstate() == rng.getstate()
        assert sorted(positions) == sorted(expected)
