"""Per-node group-centric protocol state machine.

Handlers are pure state transitions: given a received packet (and the node's
own RNG stream for stochastic choices, seeded at its first draw) they update
node state and return a list of Actions for the event engine to execute.
The engine owns all timing; handlers only ever request relative delays.

The mechanism in brief: a group member initiates discovery with a small
source TTL; members regenerate the TTL, non-members decrement it, which
confines discovery to the group's neighborhood.  Delayed ACKs then elect
relays: the first-heard discovery sender is named the obligate relay
(activated unconditionally) and every other eligible hearer self-selects
with probability (R-1)/(N-1), where N is its locally counted neighbor count
and R the desired relay density.  The elected relays and the group members
forward each data message once: one-to-all always, targeted only inside the
corridor toward its destinations, built from per-destination hop-count
gradients and a maximum-retransmit-distance field.

Each handler records the distance to an origin in the node's `learns_from`
(`update_distance`, the one distance rule): the engine passes the nodes the
run addresses, as only targeted sends and their corridors read distances,
and only to those; a node built without the set learns none.  Each handler
then returns at the first test that settles a copy.  `on_data` delivers
once (to listed destinations; for one-to-all, to members), then drops a
duplicate, a copy at a node neither relay nor member and a pruned corridor;
`on_discovery` drops a spent TTL or a duplicate at a non-member, a duplicate
at a member; `on_ack` drops a stale epoch, a relay's copy and an unelected
hearer's.

The engine drops a data copy before `on_data` when all three hold, since
`on_data` would then return [] and change no state: its origin is not in
`learns_from`, so no distance is learned; the node holds it in `dup_cache`
or is neither relay nor member, so it does not forward; the node delivered
it already, or is not in `learns_from` (a targeted copy) or no member (a
one-to-all copy), so it does not deliver.  The targeted test holds because
the engine passes every node a targeted send names in `learns_from`, so no
other node is ever a targeted copy's destination.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from .model import NodeId, TimingParams
from .packets import Packet


class ProtocolError(RuntimeError):
    pass


class NoRouteError(ProtocolError):
    """Raised when a targeted send has no recorded distance for a destination."""


# --- Actions returned by handlers -----------------------------------------

@dataclass(slots=True)
class Transmit:
    packet: Packet
    delay: float = 0.0


@dataclass(slots=True)
class SendAck:
    delay: float


@dataclass(slots=True)
class BecomeRelay:
    pass


@dataclass(slots=True)
class Deliver:
    msg_id: tuple


ACK_DELAY_MAX = 0.100          # s; an ACK is due uniform(max / 2, max) after its cause
NEIGHBOR_COUNT_WINDOW = 0.050  # s from the first discovery heard; its senders are N


def ack_probability(neighbor_count: int, desired_relays: int) -> float:
    """The ACP an ACK carries: (R-1)/(N-1), clamped at 1.

    With R = 1 or a single counted neighbor, probabilistic self-selection is
    off (ACP 0) and only the obligate relay the ACK names is activated.
    """
    if desired_relays <= 1 or neighbor_count <= 1:
        return 0.0
    return min(1.0, (desired_relays - 1) / (neighbor_count - 1))


class ProtocolNode:
    """What a GCN node and a flooding node share: an id, membership, a
    message sequence, a duplicate cache and a protocol stream, which
    `make_stream` builds at the node's first draw and never before."""

    def __init__(self, node_id: NodeId, is_member: bool,
                 make_stream: Callable[[], random.Random],
                 forward_jitter_max: float = TimingParams.forward_jitter_max):
        self.node_id = node_id
        self.is_member = is_member
        self.rng: Optional[random.Random] = None  # every draw reads `rng or _seed()`
        self._make_stream = make_stream
        self.forward_jitter_max = forward_jitter_max
        self.seq = 0                   # per-origin message sequence
        self.dup_cache: set = set()    # data msg_ids this node forwards no more

    def _seed(self) -> random.Random:
        self.rng = self._make_stream()
        return self.rng

    def _jitter(self) -> float:
        # uniform(0.0, m) in one multiply: the same bits for m >= 0
        return self.forward_jitter_max * (self.rng or self._seed()).random()

    def _next_msg_id(self) -> tuple:
        self.seq += 1
        return (self.node_id, self.seq)


class GcnNode(ProtocolNode):
    """Protocol state for one node; a run simulates one group."""

    def __init__(self, node_id: NodeId, is_member: bool, source_ttl: int,
                 desired_relays: int, make_stream: Callable[[], random.Random],
                 forward_jitter_max: float = TimingParams.forward_jitter_max,
                 learns_from: frozenset = frozenset()):
        super().__init__(node_id, is_member, make_stream, forward_jitter_max)
        self.source_ttl = source_ttl
        self.desired_relays = desired_relays
        self.learns_from = learns_from  # the origins whose distance is read

        # persistent state
        self.disc_sent: dict = {}         # discovery msg_id -> best ttl transmitted
        self.delivered: set = set()       # msg_ids already delivered locally
        self.distance: dict = {}          # origin -> (seq, hops)
        # relays persist across rediscovery rounds: there is no teardown
        # message, a new round only ever activates additional relays
        self.is_relay = False

        # per-epoch state
        self._reset_epoch(0)

    # -- epoch bookkeeping -------------------------------------------------

    def _reset_epoch(self, epoch: int) -> None:
        self.epoch = epoch
        self.upstream: Optional[NodeId] = None
        self.neighbor_senders: set = set()
        self.first_discovery_time: Optional[float] = None
        self.neighbor_count_frozen: Optional[int] = None
        self.self_select_attempted = False
        self.acked = False
        self.transmitted_discovery = False

    def _ack_delay(self) -> float:
        return (self.rng or self._seed()).uniform(0.5 * ACK_DELAY_MAX,
                                                  ACK_DELAY_MAX)

    # -- distance table ----------------------------------------------------

    def update_distance(self, pkt: Packet) -> None:
        """Record the hop distance to the packet's origin, `msg_id[0]`.

        Per message the minimum heard distance wins; a fresher message from
        the same origin overwrites outright so mobility is tracked.
        """
        origin, seq = pkt.msg_id
        if origin == self.node_id:
            return
        d = pkt.hop_counter + 1
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
        if epoch > self.epoch:
            self._reset_epoch(epoch)
        if epoch == self.epoch and self.transmitted_discovery:
            return []  # one initiation per epoch
        pkt = Packet(kind="discovery", hop_counter=0, msg_id=self._next_msg_id(),
                     epoch=epoch, ttl=self.source_ttl)
        self.disc_sent[pkt.msg_id] = self.source_ttl
        self.transmitted_discovery = True
        return [Transmit(pkt, self._jitter())]

    def on_discovery(self, pkt: Packet, sender: NodeId, now: float) -> list:
        if pkt.epoch > self.epoch:
            self._reset_epoch(pkt.epoch)
        learns = self.learns_from
        if learns and pkt.msg_id[0] in learns:
            self.update_distance(pkt)
        if self.first_discovery_time is None:
            self.first_discovery_time = now
        if (self.neighbor_count_frozen is None
                and now <= self.first_discovery_time + NEIGHBOR_COUNT_WINDOW):
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
            return [self._relay_discovery(pkt, pkt.ttl - 1)]
        if best_sent >= 0 and self.acked:
            return []  # duplicate: regenerated and acknowledged already
        # regenerate at the full source TTL (once; it cannot improve)
        actions = [self._relay_discovery(pkt, self.source_ttl)] if best_sent < 0 else []
        if not self.acked:
            self.acked = True
            actions.append(SendAck(self._ack_delay()))
        return actions

    def _relay_discovery(self, pkt: Packet, ttl: int) -> Transmit:
        """Retransmit a heard discovery one hop further with budget `ttl`."""
        out = Packet("discovery", pkt.hop_counter + 1, pkt.msg_id, pkt.epoch, ttl)
        self.disc_sent[pkt.msg_id] = ttl
        self.transmitted_discovery = True
        return Transmit(out, self._jitter())

    # -- relay election ----------------------------------------------------

    def make_ack(self) -> list:
        """Build this node's ACK once its delay fires (freezes the N count).

        It names the first-heard discovery sender as the obligate relay."""
        if self.upstream is None:
            return []  # initiator that never heard an echo: nothing to ack
        if self.neighbor_count_frozen is None:
            self.neighbor_count_frozen = len(self.neighbor_senders)
        pkt = Packet(kind="ack", hop_counter=0, msg_id=self._next_msg_id(),
                     epoch=self.epoch, obligate=self.upstream,
                     acp=ack_probability(self.neighbor_count_frozen,
                                         self.desired_relays))
        return [Transmit(pkt, 0.0)]

    def on_ack(self, pkt: Packet, sender: NodeId, now: float) -> list:
        learns = self.learns_from
        if learns and pkt.msg_id[0] in learns:
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
            if (self.rng or self._seed()).random() < pkt.acp:
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
        return self._originate([], payload_bytes)

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
        return self._originate(pairs, payload_bytes)

    def _originate(self, pairs: list, payload_bytes: int) -> list:
        """Send a new data message: `pairs` [(dest, mrd)], or [] for one-to-all."""
        pkt = Packet(kind="data", hop_counter=0, msg_id=self._next_msg_id(),
                     destinations=pairs, payload_bytes=payload_bytes)
        self.dup_cache.add(pkt.msg_id)
        self.delivered.add(pkt.msg_id)
        return [Transmit(pkt, self._jitter())]

    def on_data(self, pkt: Packet, sender: NodeId, now: float) -> list:
        learns = self.learns_from
        if learns and pkt.msg_id[0] in learns:
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
        else:
            deliver = self.is_member  # one-to-all: every member
        if deliver and msg_id not in self.delivered:
            self.delivered.add(msg_id)
            actions = [Deliver(msg_id)]
        else:
            actions = []
        # relays and members forward both kinds of data, one rule
        if msg_id in self.dup_cache or not (self.is_relay or self.is_member):
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
        # epoch 0 and no TTL: a GCN data copy carries neither
        out = Packet("data", pkt.hop_counter + 1, msg_id, 0, None, out_pairs,
                     pkt.payload_bytes)
        self.dup_cache.add(msg_id)
        actions.append(Transmit(out, self._jitter()))
        return actions
