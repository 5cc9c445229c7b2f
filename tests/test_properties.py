"""Always-on property suites: discovery confinement and oracle agreement,
corridor-forwarding equivalence on the engine against a brute-force oracle,
duplicate transmission bounds, and the trace's written times."""

import math
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import run_on, small_scenario, trace_of
from gcnsim.analytics import discovery_reach_set
from gcnsim.channel import default_curve_points
from gcnsim.engine import Run, trace_lines
from gcnsim.geometry import bfs_hops, unit_disk_adjacency
from gcnsim.model import (STREAM_PLACEMENT, ChannelSpec, ConfigurationError,
                          MobilitySpec, Position, Scenario, TimingParams,
                          TrafficFlow, TrafficSpec, make_rng,
                          uniform_disk_point, validate_scenario)


# --- discovery: engine vs oracle, and TTL confinement ---------------------

def _heard_set(run: Run) -> set:
    heard = {nid for nid, node in run.nodes.items()
             if node.first_discovery_time is not None}
    heard.add(run.source)
    return heard


def test_engine_discovery_equals_budget_oracle_per_seed():
    sc = small_scenario(num_users=60, group_prob=0.2, source_ttl=2,
                        region_radius=100.0, duration=1.0)
    for seed in range(30):
        run = Run(sc, seed, collect_trace=False)
        run.run()
        oracle = discovery_reach_set(run.positions, run.members, run.source,
                                     sc.source_ttl, sc.tx_radius)
        assert _heard_set(run) == oracle, f"seed {seed}"


def test_discovery_confined_to_ttl_ball_around_members():
    sc = small_scenario(num_users=60, group_prob=0.2, source_ttl=2,
                        region_radius=100.0, duration=1.0)
    for seed in range(15):
        run = Run(sc, seed, collect_trace=False)
        run.run()
        adj = unit_disk_adjacency(run.positions, sc.tx_radius)
        for nid in _heard_set(run):
            hops = min((bfs_hops(adj, m).get(nid, 10 ** 9)
                        for m in run.members), default=0)
            # the last transmitter in any chain sits at most T hops from a
            # member, so hearers are confined to the (T+1)-hop ball
            assert hops <= sc.source_ttl + 1, f"seed {seed} node {nid}"


def test_discovered_fraction_matches_oracle_fraction():
    from gcnsim.analytics import discovered_member_fraction
    sc = small_scenario(num_users=80, group_prob=0.15, source_ttl=3,
                        region_radius=100.0, duration=1.0)
    for seed in range(15):
        run = Run(sc, seed, collect_trace=False)
        _, report = run.run()
        assert report.discovered_fraction == discovered_member_fraction(sc, seed)


# --- every accepted scenario runs -----------------------------------------

_unit = st.floats(0.0, 1.0)


@st.composite
def _flows(draw, num_users: int, duration: float) -> list:
    flows = []
    for _ in range(draw(st.integers(0, 2))):
        start = draw(st.floats(0.0, duration - 0.1))
        stop = draw(st.floats(start + 0.05, duration))
        senders = draw(st.sampled_from(["source", "all_members"]))
        if draw(st.booleans()):
            pattern, dests = "one_to_all", "all"
        else:
            pattern = "targeted"
            # the source never addresses itself, so a source-to-source flow
            # is rejected, and so is a list that repeats an id
            named = ["all"] if senders == "source" else ["all", "source"]
            dests = draw(st.one_of(
                st.sampled_from(named),
                st.lists(st.integers(0, num_users - 1), min_size=1, max_size=4,
                         unique=True)))
        flows.append(TrafficFlow(
            pattern=pattern, dests=dests, senders=senders,
            rate=draw(st.floats(0.5, 20.0)),
            payload_bytes=draw(st.integers(0, 1500)), start=start, stop=stop))
    return flows


@st.composite
def _small_worlds(draw) -> Scenario:
    num_users = draw(st.integers(1, 30))
    region = draw(st.floats(5.0, 150.0))
    duration = draw(st.floats(0.2, 5.0))
    if draw(st.booleans()):
        channel = ChannelSpec(flat_per=draw(_unit), base_loss=draw(_unit))
    else:
        channel = ChannelSpec(flat_per=None, curve_points=default_curve_points(),
                              base_loss=draw(_unit))
    if draw(st.booleans()):
        speed_max, pause_max = draw(st.floats(0.0, 10.0)), draw(st.floats(0.0, 2.0))
        mobility = MobilitySpec(kind="random_waypoint", speed_max=speed_max,
                                speed_min=draw(st.floats(0.0, speed_max)),
                                pause_max=pause_max,
                                pause_min=draw(st.floats(0.0, pause_max)))
    else:
        mobility = MobilitySpec()
    period = st.one_of(st.none(), st.floats(0.1, 5.0))
    return Scenario(
        region_radius=region,
        outer_radius=draw(st.one_of(st.none(), st.floats(region, 2.0 * region))),
        num_users=num_users,
        group_prob=draw(st.floats(1e-6, 1.0)),
        tx_radius=draw(st.floats(1.0, 120.0)),
        source_ttl=draw(st.integers(1, 4)),
        desired_relays=draw(st.integers(1, 3)),
        mrd_offset=draw(st.sampled_from([-1, 0, 1])),
        channel=channel, mobility=mobility,
        traffic=TrafficSpec(flows=draw(_flows(num_users, duration))),
        duration=duration,
        protocol=draw(st.sampled_from(["gcn", "smf"])),
        timing=TimingParams(rediscovery_period=draw(period),
                            distance_refresh_period=draw(period)))


@settings(max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(sc=_small_worlds(), seed=st.integers(0, 2 ** 16))
def test_every_accepted_scenario_runs(sc, seed):
    assert validate_scenario(sc) == []
    try:
        Run(sc, seed, collect_trace=False).run()
    except ConfigurationError as exc:
        if "membership draws" in str(exc):
            # the other seed-dependent refusal: every membership redraw came
            # up empty, which at group_prob >= 1e-2 has odds below 1e-43
            assert sc.group_prob < 1e-2
            return
        # placement put no node inside the member disk, so no group can be drawn
        assert "no node can ever be a group member" in str(exc)
        rng = make_rng(seed, STREAM_PLACEMENT)
        placement = sc.outer_radius if sc.outer_radius is not None else sc.region_radius
        positions = [uniform_disk_point(rng, placement) for _ in range(sc.num_users)]
        assert all(p.distance_to(Position(0.0, 0.0)) > sc.region_radius
                   for p in positions)


# --- corridor forwarding vs brute-force oracle ----------------------------

def _corridor_oracle(adj, delta, origin, dest, offset):
    """Fixed point of the MRD rule on a loss-free graph.

    Returns (transmitters, delivered): a non-origin node retransmits once
    with MRD = delta - 1 when any in-range transmitter's outgoing MRD covers
    its own distance; the destination only listens.
    """
    out_mrd = {origin: max(0, delta[origin] + offset)}
    frontier = [origin]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v in out_mrd or v == dest or v not in delta:
                    continue
                if out_mrd[u] >= delta[v]:
                    out_mrd[v] = delta[v] - 1
                    nxt.append(v)
        frontier = nxt
    delivered = any(dest in adj[u] for u in out_mrd)
    return set(out_mrd), delivered


def corridor_mismatches(monkeypatch, seed: int, count: int,
                        jitter: float = TimingParams.forward_jitter_max) -> list:
    """The cases, of `count` random instances drawn from `seed`, where one
    targeted send on a loss-free static engine run disagrees with the oracle.

    Every node is a member.  Each node's distance to the destination is
    injected under a sequence number no message reaches, so the discovery
    the run starts at t = 0 (and its ACKs) must leave it alone; the send is
    pushed before the run starts.  A node transmitted the message when it is
    in its duplicate cache, and delivery is read from the destination."""
    mismatches = []
    master = random.Random(seed)
    for case in range(count):
        n = master.randrange(5, 31)
        positions = {i: Position(master.uniform(0, 100), master.uniform(0, 100))
                     for i in range(n)}
        adj = unit_disk_adjacency(positions, 35.0)
        dest = master.randrange(n)
        delta = bfs_hops(adj, dest)
        del delta[dest]
        if not delta:
            continue  # isolated destination: nothing to compare
        origin = master.choice(sorted(delta))
        offset = master.choice((-1, 0, 1))

        run = run_on(monkeypatch, positions, tx_radius=35.0,
                     timing=TimingParams(forward_jitter_max=jitter))
        injected = {i: (1_000_000, d) for i, d in delta.items()}
        for i, entry in injected.items():
            run.nodes[i].distance[dest] = entry
        send = run.nodes[origin].send_targeted([dest], offset, 100)
        msg_id = send[0].packet.msg_id
        run._apply_actions(origin, send)
        run.run()
        assert {i: run.nodes[i].distance[dest] for i in delta} == injected
        engine_tx = {i for i, node in run.nodes.items() if msg_id in node.dup_cache}
        engine_delivered = msg_id in run.nodes[dest].delivered

        oracle_tx, oracle_delivered = _corridor_oracle(adj, delta, origin,
                                                       dest, offset)
        if engine_tx != oracle_tx or engine_delivered != oracle_delivered:
            mismatches.append(case)
    return mismatches


def test_corridor_equivalence_thousand_instances(monkeypatch):
    assert corridor_mismatches(monkeypatch, 2024, 1000) == []


@pytest.mark.parametrize("jitter", [0.0, 0.010])
def test_corridor_equivalence_at_zero_and_long_jitter(monkeypatch, jitter):
    # the outgoing MRD field (distance - 1) does not depend on which copy
    # arrives first, so the corridor cannot depend on the arrival order
    assert corridor_mismatches(monkeypatch, 2024, 200, jitter) == []


def test_corridor_offset_monotonicity():
    # a larger resiliency offset can only widen the corridor
    master = random.Random(7)
    for _ in range(100):
        n = master.randrange(6, 25)
        positions = {i: Position(master.uniform(0, 90), master.uniform(0, 90))
                     for i in range(n)}
        adj = unit_disk_adjacency(positions, 35.0)
        dest = 0
        delta = bfs_hops(adj, dest)
        del delta[dest]
        if not delta:
            continue
        origin = max(delta)
        prev = None
        for offset in (-1, 0, 1):
            tx, delivered = _corridor_oracle(adj, delta, origin, dest, offset)
            if prev is not None:
                assert prev[0] <= tx
                assert prev[1] <= delivered
            prev = (tx, delivered)


# --- duplicate-transmission bounds ----------------------------------------

def test_dup_cache_transmission_bounds():
    from conftest import one_to_all_flow
    from gcnsim.model import TrafficSpec
    sc = small_scenario(num_users=40, group_prob=0.25, source_ttl=3,
                        traffic=TrafficSpec(flows=[one_to_all_flow()]))
    for seed in range(5):
        trace, _ = Run(sc, seed).run()
        data_counts: dict = {}
        disc_counts: dict = {}
        for _t, node, event, msg_id, _info, _b in trace:
            if event == "tx:data":
                key = (node, msg_id)
                data_counts[key] = data_counts.get(key, 0) + 1
            elif event == "tx:discovery":
                key = (node, msg_id)
                disc_counts[key] = disc_counts.get(key, 0) + 1
        assert all(c == 1 for c in data_counts.values())
        # budget improvement rebroadcasts strictly increase the sent TTL, so
        # a node sends one discovery message at most source_ttl times
        assert all(c <= sc.source_ttl for c in disc_counts.values())


# --- trace times: written and read rounded to 9 decimals --------------------

# the edges of `trace_lines`' fixed-point path, [1e-4, 1e6), a double either
# side of each, and times that round onto an edge or just short of one; the
# second float strategy weights the decades either side of the path
_EDGE_TIMES = [x for edge in (1e-4, 1e6)
               for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]
_EDGE_TIMES += [0.0, 9.99994e-05, 9.9999999951e-05, 999999.9999999994,
                999999.9999999995]


@settings(max_examples=1000, deadline=None)
@given(st.one_of(st.floats(0.0, 1e8, exclude_max=True), st.floats(1e-5, 1e7),
                 st.sampled_from(_EDGE_TIMES)))
def test_trace_writes_and_reads_each_time_rounded_to_9_decimals(t):
    trace = trace_of([(t, 3, "deliver", None, None, 0)])
    [line] = trace_lines(trace)
    assert line.startswith(f'{{"time": {round(t, 9)!r}, "node": 3, ')
    [(time, *_)] = trace
    assert time == round(t, 9)
