"""Shared helpers for the test suite: compact scenario builders, hand-built
topologies, and a tiny synchronous pump for driving protocol nodes without
the event engine.
"""

import random

import pytest

import gcnsim.engine as engine_mod
from gcnsim.model import (ChannelSpec, MobilitySpec, Position, Scenario,
                          TimingParams, TrafficFlow, TrafficSpec)
from gcnsim.protocol import GcnNode, SendAck, Transmit


def small_scenario(**overrides) -> Scenario:
    """A quick loss-free static scenario that still elects relays."""
    base = dict(
        region_radius=60.0, num_users=30, group_prob=0.3, tx_radius=40.0,
        source_ttl=2, desired_relays=2,
        channel=ChannelSpec(flat_per=0.0),
        duration=3.0, seeds=[0],
    )
    base.update(overrides)
    return Scenario(**base)


def one_to_all_flow(**overrides) -> TrafficFlow:
    base = dict(pattern="one_to_all", senders="source", dests="all",
                rate=2.0, payload_bytes=100, start=1.0, stop=2.0)
    base.update(overrides)
    return TrafficFlow(**base)


def line_positions(n: int, spacing: float = 30.0) -> dict:
    """n nodes on a line, each within radio range only of its neighbors
    when tx_radius is in [spacing, 2*spacing)."""
    return {i: Position(i * spacing, 0.0) for i in range(n)}


def run_on(monkeypatch, positions: dict, **overrides) -> engine_mod.Run:
    """A static Run placed on `positions`: every node a member, the lowest id
    the source."""
    nodes = [(nid, p, True) for nid, p in sorted(positions.items())]
    monkeypatch.setattr(engine_mod, "build_world",
                        lambda sc, seed: (nodes, min(positions)))
    sc = small_scenario(num_users=len(positions), group_prob=1.0, **overrides)
    return engine_mod.Run(sc, 0, collect_trace=False)


def make_node(node_id=0, is_member=False, source_ttl=3, desired_relays=1,
              seed=0, **kwargs) -> GcnNode:
    return GcnNode(node_id, is_member, 0, source_ttl, desired_relays,
                   random.Random(seed), **kwargs)


class Pump:
    """Synchronous loss-free broadcast pump for GcnNode graphs.

    Delivers every Transmit to all neighbors immediately (breadth-first),
    ignoring the requested jitter; SendAck actions are collected so relay
    election can be driven explicitly.
    """

    def __init__(self, nodes: dict, adj: dict):
        self.nodes = nodes
        self.adj = adj
        self.pending_acks: list = []
        self.transmissions: list = []  # (sender, packet)

    def run(self, initial_actions: list, origin) -> None:
        queue = [(origin, act) for act in initial_actions]
        while queue:
            node_id, act = queue.pop(0)
            if isinstance(act, SendAck):
                self.pending_acks.append(node_id)
                continue
            if not isinstance(act, Transmit):
                continue
            self.transmissions.append((node_id, act.packet))
            for other in self.adj[node_id]:
                out = self.nodes[other].handle(act.packet, node_id, 0.0)
                queue.extend((other, a) for a in out)

    def fire_acks(self) -> None:
        """Issue every pending ACK, including ones triggered by cascades."""
        while self.pending_acks:
            node_id = self.pending_acks.pop(0)
            self.run(self.nodes[node_id].make_ack(), node_id)


@pytest.fixture
def rng():
    return random.Random(12345)
