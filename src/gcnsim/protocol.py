"""Per-node group-centric protocol state machine.

Handlers are pure state transitions: given a received packet (and the node's
own RNG stream for stochastic choices) they update node state and return a
list of Actions for the event engine to execute.  The engine owns all timing;
handlers only ever request relative delays.

The mechanism in brief: a group member initiates discovery with a small
source TTL; members regenerate the TTL, non-members decrement it, which
confines discovery to the group's neighborhood.  Delayed ACKs then elect
relays: the first-heard discovery sender is named the obligate relay
(activated unconditionally) and every other eligible hearer self-selects
with probability (R-1)/(N-1), where N is its locally counted neighbor count
and R the desired relay density.  Data forwarding is either one-to-all over
the elected relays, or corridor-confined toward specific destinations using
per-destination hop-count gradients and a maximum-retransmit-distance field.

Each handler records the hop distance to the packet's origin
(`update_distance`, the one distance rule), then returns at the first test
that settles a copy.  `on_data` delivers once (to listed destinations; for
one-to-all, to members), then drops a duplicate, a copy at a non-forwarder
and a pruned corridor; `on_discovery` drops a spent TTL or a duplicate at a
non-member, a duplicate at a member; `on_ack` drops a stale epoch, a relay's
copy and an unelected hearer's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from .model import GroupId, NodeId
from .packets import Packet


class ProtocolError(RuntimeError):
    pass


class NoRouteError(ProtocolError):
    """Raised when a targeted send has no recorded distance for a destination."""


# --- Actions returned by handlers -----------------------------------------

@dataclass
class Transmit:
    packet: Packet
    delay: float = 0.0


@dataclass
class SendAck:
    delay: float


@dataclass
class BecomeRelay:
    pass


@dataclass
class Deliver:
    msg_id: tuple


@dataclass
class AckFields:
    obligate: NodeId
    acp: float


def compute_ack_fields(upstream: Optional[NodeId], neighbor_count: int,
                       desired_relays: int) -> AckFields:
    """Obligate = first-heard discovery sender; ACP = (R-1)/(N-1), clamped.

    With R = 1 or a single counted neighbor, probabilistic self-selection is
    off (ACP 0) and only the obligate is activated.
    """
    if upstream is None:
        raise ProtocolError("ACK without a heard discovery (no upstream)")
    if desired_relays <= 1 or neighbor_count <= 1:
        acp = 0.0
    else:
        acp = (desired_relays - 1) / (neighbor_count - 1)
        acp = min(1.0, max(0.0, acp))
    return AckFields(obligate=upstream, acp=acp)


class GcnNode:
    """Protocol state for one node in one group."""

    def __init__(self, node_id: NodeId, is_member: bool, group: GroupId,
                 source_ttl: int, desired_relays: int, rng: random.Random,
                 ack_delay_max: float = 0.100,
                 neighbor_count_window: float = 0.050,
                 forward_jitter_max: float = 0.001,
                 members_forward_data: bool = True):
        self.node_id = node_id
        self.is_member = is_member
        self.group = group
        self.source_ttl = source_ttl
        self.desired_relays = desired_relays
        self.rng = rng
        self.ack_delay_max = ack_delay_max
        self.neighbor_count_window = neighbor_count_window
        self.forward_jitter_max = forward_jitter_max
        self.members_forward_data = members_forward_data

        # persistent state
        self.seq = 0                      # per-origin message sequence
        self.dup_cache: set = set()       # data msg_ids this node already forwarded
        self.disc_sent: dict = {}         # discovery msg_id -> best ttl transmitted
        self.delivered: set = set()       # msg_ids already delivered locally
        self.distance: dict = {}          # origin -> (seq, hops)

        # per-epoch state
        self.epoch = -1
        self._reset_epoch(0)

    # -- epoch bookkeeping -------------------------------------------------

    def _reset_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        if epoch <= 0:
            # relays persist across rediscovery rounds: there is no teardown
            # message, a new round only ever activates additional relays
            self.is_relay = False
        self.upstream: Optional[NodeId] = None
        self.neighbor_senders: set = set()
        self.first_discovery_time: Optional[float] = None
        self.neighbor_count_frozen: Optional[int] = None
        self.self_select_attempted = False
        self.acked = False
        self.transmitted_discovery = False

    def _maybe_enter_epoch(self, epoch: int) -> None:
        if epoch > self.epoch:
            self._reset_epoch(epoch)

    def _next_msg_id(self) -> tuple:
        self.seq += 1
        return (self.node_id, self.seq)

    def _jitter(self) -> float:
        return self.rng.uniform(0.0, self.forward_jitter_max)

    def _ack_delay(self) -> float:
        return self.rng.uniform(0.5 * self.ack_delay_max, self.ack_delay_max)

    # -- distance table ----------------------------------------------------

    def update_distance(self, pkt: Packet) -> None:
        """Record hop distance to pkt.origin from the (origin, hop) tag.

        Per message the minimum heard distance wins; a fresher message from
        the same origin overwrites outright so mobility is tracked.
        """
        if pkt.origin == self.node_id:
            return
        d = pkt.hop_counter + 1
        origin, seq = pkt.msg_id
        stored = self.distance.get(origin)
        if stored is None or seq > stored[0]:
            self.distance[origin] = (seq, d)
        elif seq == stored[0] and d < stored[1]:
            self.distance[origin] = (seq, d)

    def distance_to(self, origin: NodeId) -> Optional[int]:
        entry = self.distance.get(origin)
        return entry[1] if entry is not None else None

    # -- discovery ---------------------------------------------------------

    def initiate_discovery(self, epoch: int) -> list:
        """Originate one discovery message for the given epoch."""
        if not self.is_member:
            raise ProtocolError("only group members initiate discovery")
        if self.source_ttl < 1:
            raise ProtocolError("source_ttl must be >= 1")
        self._maybe_enter_epoch(epoch)
        if epoch == self.epoch and self.transmitted_discovery:
            return []  # one initiation per epoch
        pkt = Packet(kind="discovery", group=self.group, origin=self.node_id,
                     hop_counter=0, msg_id=self._next_msg_id(), epoch=epoch,
                     ttl=self.source_ttl)
        self.disc_sent[pkt.msg_id] = self.source_ttl
        self.transmitted_discovery = True
        return [Transmit(pkt, self._jitter())]

    def on_discovery(self, pkt: Packet, sender: NodeId, now: float) -> list:
        self._maybe_enter_epoch(pkt.epoch)
        self.update_distance(pkt)
        if self.first_discovery_time is None:
            self.first_discovery_time = now
        if (self.neighbor_count_frozen is None
                and now <= self.first_discovery_time + self.neighbor_count_window):
            self.neighbor_senders.add(sender)
        if self.upstream is None:
            self.upstream = sender
        best_sent = self.disc_sent.get(pkt.msg_id, -1)
        if not self.is_member:
            if pkt.ttl < 1 or pkt.ttl - 1 <= best_sent:
                return []  # TTL spent, or duplicate: no larger budget than a copy sent
            # forward with the decremented budget; a copy arriving later with
            # a larger budget than anything sent so far is forwarded again,
            # so the reachable set does not depend on arrival order
            out = Packet(kind="discovery", group=self.group, origin=pkt.origin,
                         hop_counter=pkt.hop_counter + 1, msg_id=pkt.msg_id,
                         epoch=pkt.epoch, ttl=pkt.ttl - 1)
            self.disc_sent[pkt.msg_id] = pkt.ttl - 1
            self.transmitted_discovery = True
            return [Transmit(out, self._jitter())]
        if best_sent >= 0 and self.acked:
            return []  # duplicate: regenerated and acknowledged already
        actions = []
        if best_sent < 0:
            # regenerate at the full source TTL (once; it cannot improve)
            out = Packet(kind="discovery", group=self.group,
                         origin=pkt.origin, hop_counter=pkt.hop_counter + 1,
                         msg_id=pkt.msg_id, epoch=pkt.epoch,
                         ttl=self.source_ttl)
            self.disc_sent[pkt.msg_id] = self.source_ttl
            actions.append(Transmit(out, self._jitter()))
            self.transmitted_discovery = True
        if not self.acked:
            self.acked = True
            actions.append(SendAck(self._ack_delay()))
        return actions

    # -- relay election ----------------------------------------------------

    def make_ack(self) -> list:
        """Build this node's ACK once its delay fires (freezes the N count)."""
        if self.upstream is None:
            return []  # initiator that never heard an echo: nothing to ack
        if self.neighbor_count_frozen is None:
            self.neighbor_count_frozen = len(self.neighbor_senders)
        fields = compute_ack_fields(self.upstream, self.neighbor_count_frozen,
                                    self.desired_relays)
        pkt = Packet(kind="ack", group=self.group, origin=self.node_id,
                     hop_counter=0, msg_id=self._next_msg_id(), epoch=self.epoch,
                     obligate=fields.obligate, acp=fields.acp)
        return [Transmit(pkt, 0.0)]

    def on_ack(self, pkt: Packet, sender: NodeId, now: float) -> list:
        self.update_distance(pkt)
        if pkt.epoch != self.epoch:
            return []
        if self.is_relay:
            return []
        became_relay = False
        if pkt.obligate == self.node_id:
            if self.transmitted_discovery:
                became_relay = True
        elif (self.transmitted_discovery and not self.self_select_attempted
              and pkt.acp > 0.0):
            self.self_select_attempted = True
            if self.rng.random() < pkt.acp:
                became_relay = True
        if not became_relay:
            return []
        self.is_relay = True
        actions = [BecomeRelay()]
        if not self.acked:
            # cascade: a fresh relay continues discovery with its own ACK
            self.acked = True
            actions.append(SendAck(self._ack_delay()))
        return actions

    # -- data --------------------------------------------------------------

    def send_one_to_all(self, payload_bytes: int) -> list:
        pkt = Packet(kind="data", group=self.group, origin=self.node_id,
                     hop_counter=0, msg_id=self._next_msg_id(), epoch=self.epoch,
                     destinations=[], payload_bytes=payload_bytes)
        self.dup_cache.add(pkt.msg_id)
        self.delivered.add(pkt.msg_id)
        return [Transmit(pkt, self._jitter())]

    def send_targeted(self, dests: list, mrd_offset: int, payload_bytes: int) -> list:
        """Originate a data packet confined toward specific destinations.

        The per-destination maximum retransmit distance is this node's
        recorded distance plus the resiliency offset (-1 low, 0 medium,
        +1 high), floored at zero.
        """
        pairs = []
        for dest in dests:
            d = self.distance_to(dest)
            if d is None:
                raise NoRouteError(f"node {self.node_id}: no recorded distance to {dest}")
            pairs.append((dest, max(0, d + mrd_offset)))
        pkt = Packet(kind="data", group=self.group, origin=self.node_id,
                     hop_counter=0, msg_id=self._next_msg_id(), epoch=self.epoch,
                     destinations=pairs, payload_bytes=payload_bytes)
        self.dup_cache.add(pkt.msg_id)
        self.delivered.add(pkt.msg_id)
        return [Transmit(pkt, self._jitter())]

    def on_data(self, pkt: Packet, sender: NodeId, now: float) -> list:
        self.update_distance(pkt)
        msg_id = pkt.msg_id
        pairs = pkt.destinations
        if pairs:
            node_id = self.node_id
            deliver = False
            for dest, _ in pairs:
                if dest == node_id:
                    # a destination drops itself before any retransmission
                    deliver = True
                    pairs = [(dest, mrd) for dest, mrd in pairs if dest != node_id]
                    break
            # corridor forwarding is done by relays and group members
            forward = msg_id not in self.dup_cache and (self.is_relay or self.is_member)
        else:
            # one-to-all: members deliver, the elected relay set forwards
            deliver = self.is_member
            forward = msg_id not in self.dup_cache and (
                self.is_relay or (deliver and self.members_forward_data))
        if deliver and msg_id not in self.delivered:
            self.delivered.add(msg_id)
            actions = [Deliver(msg_id)]
        else:
            actions = []
        if not forward:
            return actions  # duplicate, or not a forwarder
        out_pairs = []
        if pkt.destinations:  # targeted, even when this node was the only pair
            for dest, mrd in pairs:
                d = self.distance_to(dest)
                if d is not None and mrd >= d:
                    out_pairs.append((dest, d - 1))
            if not out_pairs:
                # corridor pruned: a later copy may still qualify, so the
                # duplicate cache is left untouched
                return actions
        out = Packet(kind="data", group=self.group, origin=pkt.origin,
                     hop_counter=pkt.hop_counter + 1, msg_id=msg_id,
                     epoch=pkt.epoch, destinations=out_pairs,
                     payload_bytes=pkt.payload_bytes)
        self.dup_cache.add(msg_id)
        actions.append(Transmit(out, self._jitter()))
        return actions

    def handle(self, pkt: Packet, sender: NodeId, now: float) -> list:
        if pkt.kind == "discovery":
            return self.on_discovery(pkt, sender, now)
        if pkt.kind == "ack":
            return self.on_ack(pkt, sender, now)
        if pkt.kind == "data":
            return self.on_data(pkt, sender, now)
        raise ProtocolError(f"unknown packet kind {pkt.kind!r}")
