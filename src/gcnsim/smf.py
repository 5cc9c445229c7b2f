"""Flooding baseline: TTL-scoped rebroadcast with duplicate detection, and
the oracle that gives each flood its TTL, the group's hop eccentricity.

A node takes, delivers and forwards a message at its first copy only, so
`on_data` returns [] for a copy it holds in `dup_cache` and changes nothing.
The engine drops such a copy before the handler, and `on_data` keeps its own
check for direct callers.
"""

from __future__ import annotations

import warnings

# unit_disk_adjacency stays importable here: the benchmark's layer timers wrap it
from .geometry import bfs_hops, unit_disk_adjacency  # noqa: F401
from .model import NodeId
from .packets import Packet
from .protocol import Deliver, ProtocolNode, Transmit


class SmfNode(ProtocolNode):
    """Every node floods: first copy of a message is rebroadcast if its TTL
    permits; duplicates are dropped.  Members (or explicit destinations)
    deliver on first reception."""

    def send_flood(self, ttl: int, payload_bytes: int, destinations=()) -> list:
        pkt = Packet(kind="data", hop_counter=0, msg_id=self._next_msg_id(),
                     ttl=ttl, destinations=[(d, 0) for d in destinations],
                     payload_bytes=payload_bytes)
        self.dup_cache.add(pkt.msg_id)
        return [Transmit(pkt, self._jitter())]

    def on_data(self, pkt: Packet, sender: NodeId, now: float) -> list:
        if pkt.msg_id in self.dup_cache:
            return []  # duplicate
        self.dup_cache.add(pkt.msg_id)
        dests = pkt.destinations
        # a copy without a destination list is for every member
        is_dest = any(d == self.node_id for d, _ in dests) if dests else self.is_member
        actions = [Deliver(pkt.msg_id)] if is_dest else []
        if pkt.ttl > 0:  # else TTL spent
            out = Packet("data", pkt.hop_counter + 1, pkt.msg_id, 0, pkt.ttl - 1,
                         dests, pkt.payload_bytes)
            actions.append(Transmit(out, self._jitter()))
        return actions


# --- flood-TTL oracle -----------------------------------------------------

def min_ttl_oracle(adj: dict, group: set, source: NodeId) -> int:
    """The group's hop eccentricity from `source` on the unit-disk graph
    `adj`.  A flood sent with TTL `t` reaches `t + 1` hops, since the last
    forwarded copy's hearers deliver without forwarding, so this TTL carries
    one ring of rebroadcasts beyond a lossless cover of the group.  With
    forwarding jitter, a copy that came the long way can still arrive first,
    with less TTL left, and starve a member.  If part of the group is
    unreachable, the eccentricity of the reachable members is returned with a
    warning.
    """
    if not group:
        raise ValueError("empty group")
    dist = bfs_hops(adj, source)
    reachable = [dist[m] for m in group if m in dist]
    if len(reachable) < len(group):
        warnings.warn("group is not connected on the unit-disk graph; "
                      "returning TTL for the largest reachable subset")
    return max(reachable, default=0)
