"""Flooding baseline: TTL-scoped rebroadcast with duplicate detection, and
the oracle that picks the fair minimum TTL for group-wide reach.
"""

from __future__ import annotations

import random
import warnings

from .geometry import bfs_hops, unit_disk_adjacency
from .model import NodeId
from .packets import Packet
from .protocol import Deliver, Transmit


class SmfNode:
    """Every node floods: first copy of a message is rebroadcast if its TTL
    permits; duplicates are dropped.  Members (or explicit destinations)
    deliver on first reception."""

    def __init__(self, node_id: NodeId, is_member: bool, rng: random.Random,
                 forward_jitter_max: float = 0.001):
        self.node_id = node_id
        self.is_member = is_member
        self.rng = rng
        self.forward_jitter_max = forward_jitter_max
        self.seq = 0
        self.dup_cache: set = set()

    def _next_msg_id(self):
        self.seq += 1
        return (self.node_id, self.seq)

    def send_flood(self, ttl: int, payload_bytes: int, destinations=()) -> list:
        pkt = Packet(kind="data", group=0, origin=self.node_id, hop_counter=0,
                     msg_id=self._next_msg_id(),
                     destinations=[(d, 0) for d in destinations],
                     payload_bytes=payload_bytes, smf_ttl=ttl)
        self.dup_cache.add(pkt.msg_id)
        return [Transmit(pkt, self.rng.uniform(0.0, self.forward_jitter_max))]

    def on_data(self, pkt: Packet, sender: NodeId, now: float) -> list:
        if pkt.msg_id in self.dup_cache:
            return []  # duplicate
        self.dup_cache.add(pkt.msg_id)
        dests = pkt.destinations
        # a copy without a destination list is for every member
        is_dest = any(d == self.node_id for d, _ in dests) if dests else self.is_member
        actions = [Deliver(pkt.msg_id)] if is_dest else []
        if pkt.smf_ttl > 0:  # else TTL spent
            out = Packet(kind="data", group=pkt.group, origin=pkt.origin,
                         hop_counter=pkt.hop_counter + 1, msg_id=pkt.msg_id,
                         destinations=dests,
                         payload_bytes=pkt.payload_bytes, smf_ttl=pkt.smf_ttl - 1)
            actions.append(Transmit(out, self.rng.uniform(0.0, self.forward_jitter_max)))
        return actions


# --- fair-TTL oracle ------------------------------------------------------

def min_ttl_oracle(positions: dict, tx_radius: float, group: set,
                   source: NodeId, adj: dict = None) -> int:
    """Smallest TTL letting a flood from `source` reach every group member.

    If part of the group is unreachable, the TTL covering the reachable
    members is returned with a warning.  `adj` is the unit-disk graph of
    `positions` when the caller already has it; it is built here when None.
    """
    if not group:
        raise ValueError("empty group")
    if adj is None:
        adj = unit_disk_adjacency(positions, tx_radius)
    dist = bfs_hops(adj, source)
    reachable = [dist[m] for m in group if m in dist]
    if len(reachable) < len(group):
        warnings.warn("group is not connected on the unit-disk graph; "
                      "returning TTL for the largest reachable subset")
    return max(reachable, default=0)
