"""Shared helpers for the test suite: compact scenario builders, hand-built
topologies, and static engine runs placed on them.  A protocol property is
checked on such a run: the test builds a send with the node's own method,
pushes it through `Run._apply_actions` before `run()`, and reads node state
after the run.
"""

import random
from functools import partial

import pytest

import gcnsim.engine as engine_mod
from gcnsim.model import (ChannelSpec, MobilitySpec, Position, Scenario,
                          TimingParams, TrafficFlow, TrafficSpec)
from gcnsim.protocol import GcnNode


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


def run_on(monkeypatch, positions: dict, members=None,
           **overrides) -> engine_mod.Run:
    """A static Run placed on `positions`: `members` the group (every node
    when None), the lowest member id the source."""
    members = set(positions if members is None else members)
    nodes = [(nid, p, nid in members) for nid, p in sorted(positions.items())]
    monkeypatch.setattr(engine_mod, "build_world",
                        lambda sc, seed: (nodes, min(members)))
    sc = small_scenario(num_users=len(positions), group_prob=1.0, **overrides)
    return engine_mod.Run(sc, 0, collect_trace=False)


def channel_row(run: engine_mod.Run, sender: int) -> list:
    """[(id, per)] in id order for every node that can hear `sender` at the
    run's current positions: a flat channel's unit-disk row at its one PER
    (none at certain loss), or a curve's row priced pair by pair."""
    per = run._flat_per
    if per is None:
        return run._neighbor_row(sender)
    return [] if per >= 1.0 else [(nid, per) for nid in run._graph()[sender]]


def make_node(node_id=0, is_member=False, source_ttl=3, desired_relays=1,
              seed=0, **kwargs) -> GcnNode:
    return GcnNode(node_id, is_member, source_ttl, desired_relays,
                   partial(random.Random, seed), **kwargs)


@pytest.fixture
def rng():
    return random.Random(12345)
