"""Geometry: the unit-disk graph's cell search, the graph-free connectivity
search and the channel's neighbour rows, each against a brute-force
reference."""

import math
import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import channel_row, run_on, small_scenario
from gcnsim.analytics import build_world, connectivity_sample
from gcnsim.channel import default_curve_points, per_at
from gcnsim.engine import Run
from gcnsim.geometry import unit_disk_adjacency
from gcnsim.model import ChannelSpec, MobilitySpec, Position, uniform_disk_point
from gcnsim.presets import PRESETS


# --- brute-force references -----------------------------------------------

def pairwise_adjacency(positions: dict, tx_radius: float) -> dict:
    """The O(n²) loop the cell search replaced, kept as the reference."""
    ids = sorted(positions)
    adj = {i: [] for i in ids}
    r2 = tx_radius * tx_radius
    for idx, i in enumerate(ids):
        pi = positions[i]
        for j in ids[idx + 1:]:
            pj = positions[j]
            dx = pi.x - pj.x
            dy = pi.y - pj.y
            if dx * dx + dy * dy <= r2:
                adj[i].append(j)
                adj[j].append(i)
    return adj


def graph_connectivity(positions, tx_radius, active, source, members) -> float:
    """Connectivity as it was computed before: unit-disk graph, then BFS."""
    others = members - {source}
    if not others:
        return 1.0
    sub = {v: positions[v] for v in set(active) | {source} if v in positions}
    adj = pairwise_adjacency(sub, tx_radius)
    reach = {source}
    queue = deque([source] if source in adj else [])
    while queue:
        for v in adj[queue.popleft()]:
            if v not in reach:
                reach.add(v)
                queue.append(v)
    return sum(1 for m in others if m in reach) / len(others)


def brute_row(run: Run, sender: int) -> list:
    spec, r, pos = run.sc.channel, run.sc.tx_radius, run.positions
    row = []
    for other in run.node_ids:
        dx, dy = pos[sender].x - pos[other].x, pos[sender].y - pos[other].y
        if other != sender and dx * dx + dy * dy <= r * r:
            per = per_at(spec, pos[sender].distance_to(pos[other]))
            if per < 1.0:
                row.append((other, per))
    return row


# --- placements that probe the cell boundaries -----------------------------

@st.composite
def placements(draw, max_points=40):
    """(positions, radius): free points at a drawn spread, points on cell
    edges (multiples of the radius), coincident points, and points moved by
    exactly the radius along an axis."""
    r = draw(st.sampled_from([1e-3, 0.5, 1.0, 3.0, 40.0, 750.0])
             | st.floats(1e-3, 1e3))
    # a radius wider than the whole region, comparable, or far smaller
    spread = r * draw(st.sampled_from([1e-3, 0.3, 1.0, 4.0, 1e3]))
    coord = st.floats(-spread, spread)
    pts = []
    for _ in range(draw(st.integers(0, max_points))):
        kind = draw(st.sampled_from(["free", "edge", "copy", "apart"]))
        if kind == "free" or (kind != "edge" and not pts):
            p = Position(draw(coord), draw(coord))
        elif kind == "edge":
            p = Position(r * draw(st.integers(-4, 4)), r * draw(st.integers(-4, 4)))
        else:
            q = draw(st.sampled_from(pts))
            if kind == "copy":
                p = q
            else:
                dx, dy = draw(st.sampled_from([(r, 0.0), (-r, 0.0), (0.0, r),
                                               (0.0, -r)]))
                p = Position(q.x + dx, q.y + dy)
        pts.append(p)
    return dict(enumerate(pts)), r


@settings(max_examples=400, deadline=None)
@given(world=placements())
def test_cell_list_adjacency_equals_pairwise_loop(world):
    positions, r = world
    adj = unit_disk_adjacency(positions, r)
    want = pairwise_adjacency(positions, r)
    assert adj == want
    assert list(adj) == list(want)  # keys in id order, as before


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_cell_list_adjacency_equals_pairwise_loop_at_preset_density(name):
    # `placements` draws at most 40 points; byte_comparison places 400, about
    # five to a cell, so each cell has many pairs of its own
    sc = PRESETS[name].scenario
    for seed in range(5):
        nodes, _ = build_world(sc, seed)
        positions = {i: pos for i, pos, _ in nodes}
        adj = unit_disk_adjacency(positions, sc.tx_radius)
        want = pairwise_adjacency(positions, sc.tx_radius)
        assert adj == want
        assert list(adj) == list(want)


@st.composite
def sparse_samples(draw):
    """(positions, radius, active, source, members) over `placements`, with a
    few ids that have no position."""
    positions, r = draw(placements(max_points=30))
    ids = st.integers(0, len(positions) + 2)
    active = draw(st.sets(ids))
    members = draw(st.sets(ids))
    source = draw(st.one_of(ids, st.sampled_from(sorted(members) or [0])))
    return positions, r, active, source, members


@st.composite
def dense_samples(draw):
    """Samples shaped like the mobile connectivity preset: 100 nodes on a
    100 m disk, r = 40, a quarter of them members and about 70 % active
    (members and relays); in some worlds one member stands out of reach."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    positions = {i: uniform_disk_point(rng, 100.0) for i in range(100)}
    members = set(rng.sample(range(100), 25))
    active = members | {i for i in range(100) if rng.random() < 0.6}
    source = rng.choice(sorted(members))
    if draw(st.booleans()):  # one member just over a radius off the disk
        cut = rng.choice(sorted(members - {source}))
        theta = rng.uniform(0.0, 2 * math.pi)
        positions[cut] = Position(140.001 * math.cos(theta), 140.001 * math.sin(theta))
    return positions, 40.0, active, source, members


@settings(max_examples=400, deadline=None)
@given(sample=sparse_samples() | dense_samples())
def test_connectivity_sample_equals_graph_and_bfs(sample):
    assert connectivity_sample(*sample) == graph_connectivity(*sample)


def test_connectivity_sample_edge_cases():
    positions = {0: Position(0.0, 0.0), 1: Position(1.0, 0.0), 2: Position(2.0, 0.0)}
    # the source relays even when it is not in the active set
    assert connectivity_sample(positions, 1.0, {1, 2}, 0, {0, 2}) == 1.0
    assert connectivity_sample(positions, 1.0, {2}, 0, {0, 2}) == 0.0
    # a source with no position reaches nobody
    assert connectivity_sample(positions, 1.0, {0, 1, 2}, 9, {9, 2}) == 0.0
    # a group with no other member is trivially connected
    assert connectivity_sample(positions, 1.0, set(), 9, {9}) == 1.0
    assert connectivity_sample(positions, 1.0, set(), 0, set()) == 1.0


# --- the channel's neighbour rows ------------------------------------------

_CHANNELS = st.sampled_from([
    ChannelSpec(flat_per=0.0),
    ChannelSpec(flat_per=0.3),
    ChannelSpec(flat_per=1.0),
    ChannelSpec(flat_per=None, curve_points=default_curve_points()),
    ChannelSpec(flat_per=0.1, base_loss=0.5),
    ChannelSpec(flat_per=None, curve_points=default_curve_points(), base_loss=0.25),
])


@settings(max_examples=60, deadline=None)
@given(channel=_CHANNELS, seed=st.integers(0, 2 ** 16),
       radius=st.sampled_from([5.0, 25.0, 40.0, 70.0, 500.0]),
       users=st.integers(1, 60))
def test_static_table_equals_brute_force_rows(channel, seed, radius, users):
    sc = small_scenario(num_users=users, group_prob=1.0, tx_radius=radius,
                        channel=channel)
    run = Run(sc, seed, collect_trace=False)
    assert {s: channel_row(run, s) for s in run.node_ids} == {
        s: brute_row(run, s) for s in run.node_ids}


@settings(max_examples=30, deadline=None)
@given(channel=_CHANNELS, seed=st.integers(0, 2 ** 16),
       radius=st.sampled_from([10.0, 40.0, 70.0]))
def test_mobile_rows_equal_brute_force_rows(channel, seed, radius):
    sc = small_scenario(num_users=40, group_prob=1.0, tx_radius=radius,
                        channel=channel, duration=4.0,
                        mobility=MobilitySpec(kind="random_waypoint",
                                              speed_min=5.0, speed_max=20.0,
                                              pause_min=0.0, pause_max=0.5))
    run = Run(sc, seed, collect_trace=False)
    for now in (0.0, 0.35, 1.0, 3.95):
        run.now = now
        run._sync_positions()
        for s in run.node_ids:
            assert channel_row(run, s) == brute_row(run, s)


@pytest.mark.parametrize("channel", [
    ChannelSpec(flat_per=0.3),
    ChannelSpec(flat_per=None, curve_points=default_curve_points()),
    ChannelSpec(flat_per=0.1, base_loss=0.5),
])
def test_pairs_one_radius_apart_are_heard_exactly_when_linked(channel, monkeypatch):
    # q = p + r·(cos θ, sin θ) lands on either side of dx²+dy² <= r² by
    # rounding; the channel row and the graph must agree on every pair
    r, rng, positions = 40.0, random.Random(8), {}
    for k in range(200):  # pairs 6r apart, so no two pairs are in range
        p = Position(6 * r * k + rng.uniform(-r, r), rng.uniform(-r, r))
        theta = rng.uniform(0.0, 2 * math.pi)
        positions[2 * k] = p
        positions[2 * k + 1] = Position(p.x + r * math.cos(theta),
                                        p.y + r * math.sin(theta))
    run = run_on(monkeypatch, positions, tx_radius=r, channel=channel)
    adj = unit_disk_adjacency(positions, r)
    assert 0 < sum(bool(adj[2 * k]) for k in range(200)) < 200  # both sides occur
    assert run._graph() == adj
    for a in positions:
        assert [b for b, _ in channel_row(run, a)] == adj[a]
