"""Random-waypoint motion: containment, speed bounds, pausing, center bias."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnsim.mobility import advance, init_motion
from gcnsim.model import MobilitySpec, Position


RADIUS = 100.0


def _rwp(speed_min=1.0, speed_max=5.0, pause_min=0.0, pause_max=0.0):
    return MobilitySpec(kind="random_waypoint", speed_min=speed_min,
                        speed_max=speed_max, pause_min=pause_min,
                        pause_max=pause_max)


def test_static_nodes_never_move():
    spec = MobilitySpec(kind="static")
    state = init_motion(spec, Position(3.0, 4.0), 0.0, random.Random(0), RADIUS)
    for k in range(50):
        advance(spec, state, k * 0.1, 0.1, random.Random(0), RADIUS)
    assert state.position == Position(3.0, 4.0)


def test_zero_speed_degenerate_is_static():
    spec = _rwp(speed_min=0.0, speed_max=0.0)
    start = Position(10.0, 0.0)
    state = init_motion(spec, start, 0.0, random.Random(1), RADIUS)
    for k in range(100):
        advance(spec, state, k * 0.1, 0.1, random.Random(1), RADIUS)
    assert state.position == start


def test_waypoints_stay_inside_region():
    spec = _rwp()
    rng = random.Random(2)
    state = init_motion(spec, Position(0.0, 0.0), 0.0, rng, RADIUS)
    t = 0.0
    for _ in range(5000):
        advance(spec, state, t, 0.5, rng, RADIUS)
        t += 0.5
        r = math.hypot(state.position.x, state.position.y)
        assert r <= RADIUS + 1e-9


def test_speed_bound_per_tick():
    spec = _rwp(speed_min=1.0, speed_max=5.0)
    rng = random.Random(3)
    state = init_motion(spec, Position(0.0, 0.0), 0.0, rng, RADIUS)
    t, dt = 0.0, 0.25
    prev = state.position
    for _ in range(2000):
        advance(spec, state, t, dt, rng, RADIUS)
        t += dt
        moved = prev.distance_to(state.position)
        assert moved <= 5.0 * dt + 1e-9
        prev = state.position


def test_pause_holds_position():
    spec = _rwp(speed_min=5.0, speed_max=5.0, pause_min=10.0, pause_max=10.0)
    rng = random.Random(4)
    start = Position(1.0, 2.0)
    state = init_motion(spec, start, 0.0, rng, RADIUS)
    advance(spec, state, 0.0, 5.0, rng, RADIUS)  # still inside the pause
    assert state.position == start
    advance(spec, state, 5.0, 10.0, rng, RADIUS)  # pause expires mid-tick
    assert state.position != start


def test_long_run_center_bias():
    # the waypoint model concentrates time near the center: the long-run mean
    # distance from the center falls below the uniform-disk mean (2/3) R
    spec = _rwp(speed_min=1.0, speed_max=5.0)
    rng = random.Random(5)
    state = init_motion(spec, Position(50.0, 0.0), 0.0, rng, RADIUS)
    t, dt = 0.0, 1.0
    rs = []
    for _ in range(20000):
        advance(spec, state, t, dt, rng, RADIUS)
        t += dt
        rs.append(math.hypot(state.position.x, state.position.y))
    assert sum(rs) / len(rs) < (2.0 / 3.0) * RADIUS


def test_advance_is_deterministic():
    def trajectory(seed):
        spec = _rwp(pause_min=0.0, pause_max=1.0)
        rng = random.Random(seed)
        state = init_motion(spec, Position(0.0, 0.0), 0.0, rng, RADIUS)
        out = []
        t = 0.0
        for _ in range(200):
            advance(spec, state, t, 0.1, rng, RADIUS)
            t += 0.1
            out.append((state.position.x, state.position.y))
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
    states, rngs = [], []
    for _ in range(2):
        rng = random.Random(seed)
        states.append(init_motion(spec, Position(20.0, -30.0), start / ticks,
                                  rng, RADIUS))
        rngs.append(rng)
    whole, stepped = states
    advance(spec, whole, start / ticks, n / ticks, rngs[0], RADIUS)
    for k in range(start, start + n):
        advance(spec, stepped, k / ticks, 1 / ticks, rngs[1], RADIUS)
    assert whole.position.distance_to(stepped.position) <= 1e-9
    assert whole.waypoint == stepped.waypoint
    assert whole.speed == stepped.speed
    assert whole.pause_until == pytest.approx(stepped.pause_until, abs=1e-9)
    assert rngs[0].getstate() == rngs[1].getstate()
