"""Flooding baseline node behavior and the flood-TTL oracle."""

import random
import warnings
from functools import partial

import networkx as nx
import pytest

import gcnsim.engine as engine_mod
from conftest import line_positions, one_to_all_flow, run_on
from gcnsim.geometry import bfs_hops, unit_disk_adjacency
from gcnsim.model import Position, TrafficSpec
from gcnsim.packets import Packet
from gcnsim.protocol import Deliver, Transmit
from gcnsim.smf import SmfNode, min_ttl_oracle


def make_smf(node_id=0, is_member=False, seed=0):
    return SmfNode(node_id, is_member, partial(random.Random, seed))


def flood_pkt(ttl, seq=1, dests=()):
    return Packet(kind="data", hop_counter=0, msg_id=(9, seq), ttl=ttl,
                  destinations=[(d, 0) for d in dests], payload_bytes=100)


def transmits(actions):
    return [a for a in actions if isinstance(a, Transmit)]


def test_forwards_first_copy_and_decrements_ttl():
    node = make_smf(1)
    out = transmits(node.on_data(flood_pkt(ttl=3), 2, 0.0))
    assert len(out) == 1
    assert out[0].packet.ttl == 2
    assert out[0].packet.hop_counter == 1


def test_duplicates_are_dropped():
    node = make_smf(1)
    assert transmits(node.on_data(flood_pkt(ttl=3), 2, 0.0))
    # even a higher-TTL copy of the same message stays suppressed
    assert node.on_data(flood_pkt(ttl=5), 3, 0.1) == []


def test_ttl_zero_not_forwarded_but_delivered():
    node = make_smf(1, is_member=True)
    out = node.on_data(flood_pkt(ttl=0), 2, 0.0)
    assert transmits(out) == []
    assert any(isinstance(a, Deliver) for a in out)


def test_delivery_rules():
    member = make_smf(1, is_member=True)
    assert any(isinstance(a, Deliver) for a in member.on_data(flood_pkt(3), 2, 0.0))
    bystander = make_smf(2, is_member=False)
    assert not any(isinstance(a, Deliver)
                   for a in bystander.on_data(flood_pkt(3), 2, 0.0))
    # with explicit destinations only the addressee delivers
    target = make_smf(3, is_member=False)
    assert any(isinstance(a, Deliver)
               for a in target.on_data(flood_pkt(3, seq=2, dests=[3]), 2, 0.0))
    member2 = make_smf(4, is_member=True)
    assert not any(isinstance(a, Deliver)
                   for a in member2.on_data(flood_pkt(3, seq=2, dests=[3]), 2, 0.0))


def test_send_flood_carries_ttl_and_suppresses_echo():
    node = make_smf(1)
    out = transmits(node.send_flood(4, 100))
    assert out[0].packet.ttl == 4
    assert node.on_data(out[0].packet, 2, 0.0) == []


# --- adjacency / BFS ------------------------------------------------------

def test_unit_disk_adjacency_matches_pairwise_distances():
    rng = random.Random(0)
    positions = {i: Position(rng.uniform(0, 100), rng.uniform(0, 100))
                 for i in range(20)}
    adj = unit_disk_adjacency(positions, 30.0)
    for i in positions:
        for j in positions:
            if i == j:
                continue
            linked = j in adj[i]
            assert linked == (positions[i].distance_to(positions[j]) <= 30.0)
            assert linked == (i in adj[j])


def test_bfs_hops_on_a_line():
    positions = line_positions(5, spacing=30.0)
    adj = unit_disk_adjacency(positions, 30.0)
    assert bfs_hops(adj, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}


# --- minimum-TTL oracle ---------------------------------------------------

def test_min_ttl_on_a_line():
    positions = line_positions(6, spacing=30.0)
    group = {0, 5}
    adj = unit_disk_adjacency(positions, 30.0)
    assert min_ttl_oracle(adj, group, source=0) == 5
    assert min_ttl_oracle(adj, group, source=2) == 3


def test_min_ttl_matches_independent_shortest_paths():
    # cross-check against networkx eccentricity on random instances
    for seed in range(30):
        rng = random.Random(seed)
        n = rng.randrange(5, 16)
        positions = {i: Position(rng.uniform(0, 80), rng.uniform(0, 80))
                     for i in range(n)}
        group = set(rng.sample(range(n), rng.randrange(2, n)))
        g = nx.Graph()
        g.add_nodes_from(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if positions[i].distance_to(positions[j]) <= 35.0:
                    g.add_edge(i, j)
        source = min(group)
        lengths = nx.single_source_shortest_path_length(g, source)
        reachable = [lengths[m] for m in group if m in lengths]
        want = max(reachable)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = min_ttl_oracle(unit_disk_adjacency(positions, 35.0), group,
                                 source=source)
        assert got == want, f"seed {seed}"


def test_min_ttl_flood_actually_reaches_group(monkeypatch):
    # flood at the oracle TTL on a loss-free static engine run with the
    # default jitter: every member hears; with a smaller budget someone is
    # missed for at least one instance
    missed_at_lower = 0
    for seed in range(20):
        rng = random.Random(1000 + seed)
        n = 12
        positions = {i: Position(rng.uniform(0, 70), rng.uniform(0, 70))
                     for i in range(n)}
        adj = unit_disk_adjacency(positions, 30.0)
        group = set(rng.sample(range(n), 4))
        source = min(group)
        dist = bfs_hops(adj, source)
        if not all(m in dist for m in group):
            continue
        ttl = min_ttl_oracle(adj, group, source=source)

        def flood(t):
            """The nodes that heard a flood of budget `t` (and its source)."""
            run = run_on(monkeypatch, positions, members=group, protocol="smf",
                         tx_radius=30.0)
            send = run.nodes[source].send_flood(t, 10)
            msg_id = send[0].packet.msg_id
            run._apply_actions(source, send)
            run.run()
            return {i for i, node in run.nodes.items() if msg_id in node.dup_cache}

        assert group <= flood(ttl)
        # hearers extend one hop beyond the last forwarder, so the tight
        # lower check drops the budget by two
        if ttl >= 2 and not group <= flood(ttl - 2):
            missed_at_lower += 1
    assert missed_at_lower > 0  # the oracle tracks the group eccentricity


@pytest.mark.parametrize("ttl, delivered", [(None, 2), (4, 2), (3, 0)],
                         ids=["oracle", "oracle_minus_1", "oracle_minus_2"])
def test_a_flood_of_ttl_t_reaches_t_plus_one_hops_on_the_engine(
        monkeypatch, ttl, delivered):
    """On a 6-node line the oracle gives member 5 its distance, 5, but the
    hearers of the last forwarded copy deliver too: TTL 4 already reaches it
    on the engine, and TTL 3 does not."""
    if ttl is not None:
        monkeypatch.setattr(engine_mod, "min_ttl_oracle", lambda *args: ttl)
    run = run_on(monkeypatch, line_positions(6), members={0, 5}, protocol="smf",
                 tx_radius=30.0, traffic=TrafficSpec(flows=[one_to_all_flow()]))
    _, report = run.run()
    assert report.smf_ttl == (5 if ttl is None else ttl)
    assert report.delivery_per_flow == [(delivered, 2)]


def test_min_ttl_disconnected_group_warns():
    positions = {0: Position(0, 0), 1: Position(10, 0), 2: Position(500, 0)}
    with pytest.warns(UserWarning, match="not connected"):
        ttl = min_ttl_oracle(unit_disk_adjacency(positions, 30.0), {0, 2},
                             source=0)
    assert ttl == 0  # largest reachable subset is just the source itself


def test_min_ttl_empty_group_raises():
    with pytest.raises(ValueError):
        min_ttl_oracle({0: []}, set(), source=0)
