"""Protocol state machine: discovery regeneration, relay election, ACP math,
distance tables, and MRD corridor forwarding."""

import random
from functools import partial

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import make_node
from gcnsim.packets import Packet
from gcnsim.protocol import (NEIGHBOR_COUNT_WINDOW, BecomeRelay, Deliver,
                             GcnNode, NoRouteError, ProtocolError, SendAck,
                             Transmit, ack_probability)
from gcnsim.smf import SmfNode


def disc(ttl, origin=99, seq=1, hops=0, epoch=0):
    return Packet(kind="discovery", hop_counter=hops, msg_id=(origin, seq),
                  epoch=epoch, ttl=ttl)


def ack(obligate, acp, origin=50, seq=1, epoch=0):
    return Packet(kind="ack", hop_counter=0, msg_id=(origin, seq), epoch=epoch,
                  obligate=obligate, acp=acp)


def data(origin=7, seq=1, dests=(), hops=0, payload=100):
    return Packet(kind="data", hop_counter=hops, msg_id=(origin, seq),
                  destinations=list(dests), payload_bytes=payload)


def transmits(actions):
    return [a for a in actions if isinstance(a, Transmit)]


# --- ACP arithmetic -------------------------------------------------------

def test_acp_examples():
    assert ack_probability(5, 3) == pytest.approx(0.5)
    assert ack_probability(9, 5) == pytest.approx(0.5)
    assert ack_probability(3, 2) == pytest.approx(0.5)


def test_acp_r1_disables_self_selection():
    assert ack_probability(10, 1) == 0.0


def test_acp_single_neighbor_disables_self_selection():
    assert ack_probability(1, 5) == 0.0
    assert ack_probability(0, 5) == 0.0


def test_acp_clamped_to_one():
    assert ack_probability(3, 9) == 1.0


def test_no_ack_without_upstream():
    # an initiator that never heard a discovery has no obligate relay to name
    assert make_node().make_ack() == []


# --- discovery ------------------------------------------------------------

def test_initiate_requires_member():
    with pytest.raises(ProtocolError):
        make_node(is_member=False).initiate_discovery(0)


def test_initiate_uses_source_ttl_once_per_epoch():
    node = make_node(is_member=True, source_ttl=3)
    out = transmits(node.initiate_discovery(0))
    assert len(out) == 1 and out[0].packet.ttl == 3
    assert node.initiate_discovery(0) == []


def test_member_regenerates_full_ttl_once():
    node = make_node(node_id=5, is_member=True, source_ttl=3)
    out = node.on_discovery(disc(ttl=1, hops=4), sender=2, now=0.0)
    txs = transmits(out)
    assert len(txs) == 1
    assert txs[0].packet.ttl == 3            # regenerated, not decremented
    assert txs[0].packet.hop_counter == 5    # hop counter still advances
    assert any(isinstance(a, SendAck) for a in out)
    # a second copy triggers neither a retransmission nor another ACK
    again = node.on_discovery(disc(ttl=2), sender=3, now=0.01)
    assert transmits(again) == [] and not any(isinstance(a, SendAck) for a in again)


def test_nonmember_decrements_ttl():
    node = make_node(node_id=5, is_member=False)
    txs = transmits(node.on_discovery(disc(ttl=2), sender=2, now=0.0))
    assert len(txs) == 1 and txs[0].packet.ttl == 1


def test_nonmember_drops_ttl_zero():
    node = make_node(node_id=5, is_member=False)
    assert transmits(node.on_discovery(disc(ttl=0), sender=2, now=0.0)) == []
    # it still learned its upstream from the zero-TTL copy
    assert node.upstream == 2


def test_nonmember_budget_improvement_refires():
    node = make_node(node_id=5, is_member=False)
    first = transmits(node.on_discovery(disc(ttl=1), sender=2, now=0.0))
    assert first[0].packet.ttl == 0
    # a later copy of the same message with a bigger budget goes out again
    better = transmits(node.on_discovery(disc(ttl=3), sender=3, now=0.1))
    assert better[0].packet.ttl == 2
    # an equal-or-worse budget does not
    assert transmits(node.on_discovery(disc(ttl=3), sender=4, now=0.2)) == []
    assert transmits(node.on_discovery(disc(ttl=2), sender=4, now=0.2)) == []


def test_upstream_is_first_sender_and_neighbor_window():
    node = make_node(node_id=5, is_member=False)  # the window is 0.05 s
    node.on_discovery(disc(ttl=2, seq=1), 2, now=1.00)
    node.on_discovery(disc(ttl=2, seq=2, origin=98), 3, now=1.04)
    node.on_discovery(disc(ttl=2, seq=3, origin=97), 4, now=1.10)  # late
    assert node.upstream == 2
    assert node.neighbor_senders == {2, 3}


# --- relay election -------------------------------------------------------

def activated(node, pkt):
    return any(isinstance(a, BecomeRelay) for a in node.on_ack(pkt, 50, 0.0))


def test_obligate_becomes_relay_only_if_it_transmitted():
    node = make_node(node_id=5, is_member=False)
    assert not activated(node, ack(obligate=5, acp=0.0))
    node.on_discovery(disc(ttl=2), 2, now=0.0)   # now it has transmitted
    assert activated(node, ack(obligate=5, acp=0.0, seq=2))
    assert node.is_relay


def test_member_obligate_becomes_relay_too():
    node = make_node(node_id=5, is_member=True, source_ttl=2)
    node.on_discovery(disc(ttl=2), 2, now=0.0)
    assert activated(node, ack(obligate=5, acp=0.0))
    assert node.is_relay


def test_new_relay_cascades_one_ack():
    node = make_node(node_id=5, is_member=False)
    node.on_discovery(disc(ttl=2), 2, now=0.0)
    out = node.on_ack(ack(obligate=5, acp=0.0), 50, 0.0)
    assert any(isinstance(a, SendAck) for a in out)
    # an already-acked node (e.g. a member) does not ack again on activation
    member = make_node(node_id=6, is_member=True)
    member.on_discovery(disc(ttl=2), 2, now=0.0)  # ACK scheduled here
    out = member.on_ack(ack(obligate=6, acp=0.0), 50, 0.0)
    assert not any(isinstance(a, SendAck) for a in out)


def test_relay_ignores_further_acks():
    node = make_node(node_id=5, is_member=False)
    node.on_discovery(disc(ttl=2), 2, now=0.0)
    assert activated(node, ack(obligate=5, acp=0.0, seq=1))
    assert node.on_ack(ack(obligate=5, acp=1.0, seq=2), 51, 0.1) == []


def test_self_selection_attempted_once_per_epoch():
    hits = 0
    for seed in range(400):
        node = make_node(node_id=5, is_member=False, seed=seed)
        node.on_discovery(disc(ttl=2), 2, now=0.0)
        if activated(node, ack(obligate=1, acp=0.5, seq=1)):
            hits += 1
        else:
            # the coin is flipped at most once: a second ACK cannot activate
            assert not activated(node, ack(obligate=1, acp=1.0, seq=2))
    # binomial(400, 0.5) within 3 sigma (= 30)
    assert abs(hits - 200) <= 30


def test_self_selection_requires_positive_acp_and_transmission():
    node = make_node(node_id=5, is_member=False, seed=0)
    node.on_discovery(disc(ttl=2), 2, now=0.0)
    assert not activated(node, ack(obligate=1, acp=0.0))
    silent = make_node(node_id=6, is_member=False, seed=0)
    silent.on_discovery(disc(ttl=0), 2, now=0.0)  # heard but never transmitted
    assert not activated(silent, ack(obligate=1, acp=1.0))


def test_acp_relay_count_within_three_sigma():
    # 2000 independent hearers of one ACK with ACP 0.3
    p, n = 0.3, 2000
    count = 0
    for i in range(n):
        node = make_node(node_id=5, is_member=False, seed=i)
        node.on_discovery(disc(ttl=2), 2, now=0.0)
        if activated(node, ack(obligate=1, acp=p)):
            count += 1
    sigma = (n * p * (1 - p)) ** 0.5
    assert abs(count - n * p) <= 3 * sigma


def test_stale_epoch_ack_is_ignored():
    node = make_node(node_id=5, is_member=False)
    node.on_discovery(disc(ttl=2, epoch=1), 2, now=0.0)
    assert node.on_ack(ack(obligate=5, acp=0.0, epoch=0), 50, 0.0) == []


def test_relay_persists_across_epochs_but_election_state_resets():
    node = make_node(node_id=5, is_member=False)
    node.on_discovery(disc(ttl=2, epoch=0), 2, now=0.0)
    assert activated(node, ack(obligate=5, acp=0.0, epoch=0))
    node.on_discovery(disc(ttl=2, seq=2, epoch=1), 3, now=100.0)
    assert node.is_relay                  # no teardown between rounds
    assert node.upstream == 3             # per-epoch fields started fresh
    assert not node.acked


# --- distance table -------------------------------------------------------

def test_distance_minimum_within_message():
    node = make_node(node_id=5)
    node.update_distance(data(origin=7, seq=1, hops=4))
    node.update_distance(data(origin=7, seq=1, hops=2))
    node.update_distance(data(origin=7, seq=1, hops=3))
    assert node.distance_to(7) == 3  # hops+1, minimum over copies of seq 1


def test_distance_fresher_message_overwrites():
    node = make_node(node_id=5)
    node.update_distance(data(origin=7, seq=1, hops=1))
    node.update_distance(data(origin=7, seq=2, hops=6))
    assert node.distance_to(7) == 7  # newer sequence wins even if farther
    node.update_distance(data(origin=7, seq=1, hops=0))
    assert node.distance_to(7) == 7  # stale sequence ignored


def test_distance_ignores_own_packets():
    node = make_node(node_id=7)
    node.update_distance(data(origin=7, seq=1, hops=3))
    assert node.distance_to(7) is None


@pytest.mark.parametrize("m", [0.0, 0.001, 0.37])
def test_forward_jitter_draws_the_bits_of_uniform_from_zero(m):
    """GCN's `_jitter` and SMF's `send_flood` draw the delays of
    `uniform(0.0, m)`, bit for bit, and leave the stream where it would."""
    for seed in range(5):
        ref = random.Random(seed)
        want = [ref.uniform(0.0, m) for _ in range(20)]
        gcn = make_node(seed=seed, forward_jitter_max=m)
        smf = SmfNode(0, False, partial(random.Random, seed), forward_jitter_max=m)
        assert [gcn._jitter() for _ in range(20)] == want
        assert [smf.send_flood(2, 100)[0].delay for _ in range(20)] == want
        assert gcn.rng.getstate() == smf.rng.getstate() == ref.getstate()


def test_a_node_builds_its_stream_once_at_its_first_draw():
    """Handling a copy that draws nothing builds no stream; the first draw
    builds it, later draws reuse it, and the numbers are the stream's own."""
    built = []

    def make_stream():
        built.append(random.Random(11))
        return built[-1]

    gcn = GcnNode(0, False, 3, 2, make_stream, forward_jitter_max=0.01)
    smf = SmfNode(0, False, make_stream, forward_jitter_max=0.01)
    # a non-forwarder's copy, and a flood copy with its TTL spent
    assert gcn.on_data(Packet(kind="data", hop_counter=0, msg_id=(9, 1)), 9, 0.0) == []
    spent = Packet(kind="data", hop_counter=0, msg_id=(9, 1), ttl=0, payload_bytes=1)
    assert smf.on_data(spent, 9, 0.0) == []
    assert gcn.rng is None and smf.rng is None and built == []
    ref = random.Random(11)
    want = [0.01 * ref.random(), ref.uniform(0.05, 0.1), 0.01 * ref.random()]
    assert [gcn._jitter(), gcn._ack_delay(), gcn._jitter()] == want
    assert built == [gcn.rng] and gcn.rng.getstate() == ref.getstate()
    ref = random.Random(11)
    want = [0.01 * ref.random(), 0.01 * ref.random()]
    heard = Packet(kind="data", hop_counter=0, msg_id=(9, 2), ttl=2, payload_bytes=1)
    assert [smf.send_flood(2, 100)[0].delay, smf.on_data(heard, 9, 0.0)[-1].delay] == want
    assert built == [gcn.rng, smf.rng] and smf.rng.getstate() == ref.getstate()


# --- targeted sends and MRD forwarding ------------------------------------

def test_send_targeted_sets_mrd_from_distance():
    node = make_node(node_id=1, is_member=True)
    node.distance[9] = (1, 3)
    for offset, want in ((-1, 2), (0, 3), (1, 4)):
        pkt = transmits(node.send_targeted([9], offset, 100))[0].packet
        assert pkt.destinations == [(9, want)]


def test_send_targeted_mrd_floored_at_zero():
    node = make_node(node_id=1, is_member=True)
    node.distance[9] = (1, 1)
    pkt = transmits(node.send_targeted([9], -1, 100))[0].packet
    assert pkt.destinations == [(9, 0)]


def test_send_targeted_without_route_raises():
    node = make_node(node_id=1, is_member=True)
    with pytest.raises(NoRouteError):
        node.send_targeted([9], 0, 100)


def test_mrd_forward_rewrites_to_distance_minus_one():
    node = make_node(node_id=5, is_member=True)
    node.distance[9] = (10, 2)
    out = node.on_data(data(dests=[(9, 2)]), 2, 0.0)
    assert transmits(out)[0].packet.destinations == [(9, 1)]


def test_mrd_below_distance_drops_without_poisoning_dup_cache():
    node = make_node(node_id=5, is_member=True)
    node.distance[9] = (10, 4)
    assert transmits(node.on_data(data(dests=[(9, 2)]), 2, 0.0)) == []
    # a later, better copy of the same message still goes out
    out = transmits(node.on_data(data(dests=[(9, 4)]), 3, 0.1))
    assert out and out[0].packet.destinations == [(9, 3)]
    # ... and only once
    assert transmits(node.on_data(data(dests=[(9, 4)]), 4, 0.2)) == []


def test_mrd_multi_destination_chain():
    # pairs (j:1, k:2) forwarded as (j:0, k:1); next hop keeps only k
    a = make_node(node_id=5, is_member=True)
    a.distance.update({8: (10, 1), 9: (10, 2)})
    out_a = transmits(a.on_data(data(dests=[(8, 1), (9, 2)]), 2, 0.0))[0].packet
    assert out_a.destinations == [(8, 0), (9, 1)]
    b = make_node(node_id=6, is_member=True)
    b.distance.update({8: (10, 1), 9: (10, 1)})
    out_b = transmits(b.on_data(out_a, 5, 0.1))[0].packet
    assert out_b.destinations == [(9, 0)]


def test_targeted_forwarding_needs_relay_or_member():
    plain = make_node(node_id=5, is_member=False)
    plain.distance[9] = (10, 1)
    assert transmits(plain.on_data(data(dests=[(9, 3)]), 2, 0.0)) == []
    relay = make_node(node_id=6, is_member=False)
    relay.is_relay = True
    relay.distance[9] = (10, 1)
    assert transmits(relay.on_data(data(dests=[(9, 3)]), 2, 0.0))


def test_destination_delivers_and_does_not_retransmit_own_pair():
    node = make_node(node_id=9, is_member=True)
    out = node.on_data(data(dests=[(9, 1)]), 2, 0.0)
    assert any(isinstance(a, Deliver) for a in out)
    assert transmits(out) == []
    # delivery is counted once even if more copies arrive
    again = node.on_data(data(dests=[(9, 1)]), 3, 0.1)
    assert not any(isinstance(a, Deliver) for a in again)


def test_destination_forwards_remaining_pairs():
    node = make_node(node_id=9, is_member=True)
    node.distance[8] = (10, 2)
    out = node.on_data(data(dests=[(9, 1), (8, 2)]), 2, 0.0)
    assert any(isinstance(a, Deliver) for a in out)
    assert transmits(out)[0].packet.destinations == [(8, 1)]


# --- one-to-all data ------------------------------------------------------

def test_one_to_all_member_delivers_once():
    node = make_node(node_id=5, is_member=True)
    out = node.on_data(data(), 2, 0.0)
    assert any(isinstance(a, Deliver) for a in out)
    assert not any(isinstance(a, Deliver) for a in node.on_data(data(), 3, 0.1))


def test_one_to_all_forwarders():
    plain = make_node(node_id=5, is_member=False)
    assert transmits(plain.on_data(data(), 2, 0.0)) == []
    relay = make_node(node_id=6, is_member=False)
    relay.is_relay = True
    assert transmits(relay.on_data(data(), 2, 0.0))
    member = make_node(node_id=7, is_member=True)
    assert transmits(member.on_data(data(), 2, 0.0))


def test_one_to_all_forwarded_at_most_once():
    relay = make_node(node_id=6, is_member=False)
    relay.is_relay = True
    assert transmits(relay.on_data(data(), 2, 0.0))
    assert transmits(relay.on_data(data(), 3, 0.1)) == []


def test_a_member_forwards_the_first_copy_of_either_kind_of_data_once():
    # one rule for both kinds: relays and members forward, once per message
    member = make_node(node_id=5, is_member=True)
    member.distance[9] = (10, 1)
    for pkt in (data(seq=1), data(seq=2, dests=[(9, 3)])):
        assert len(transmits(member.on_data(pkt, 2, 0.0))) == 1
        assert transmits(member.on_data(pkt, 3, 0.1)) == []


def test_sender_does_not_echo_its_own_message():
    node = make_node(node_id=5, is_member=True)
    pkt = transmits(node.send_one_to_all(100))[0].packet
    assert transmits(node.on_data(pkt, 2, 0.0)) == []


# --- differential check against the reference handler bodies ---------------
#
# RefGcnNode and RefSmfNode keep the straightforward form of the reception
# handlers: build the action list, decide delivery, then test the duplicate
# cache and the forwarder role.  The shipped handlers return as early as they
# can; over random reception sequences both must give equal actions, equal
# node state and the same RNG position after every step.

class RefGcnNode(GcnNode):
    def on_discovery(self, pkt, sender, now):
        if pkt.epoch > self.epoch:
            self._reset_epoch(pkt.epoch)
        self.update_distance(pkt)
        if self.first_discovery_time is None:
            self.first_discovery_time = now
        if (self.neighbor_count_frozen is None
                and now <= self.first_discovery_time + NEIGHBOR_COUNT_WINDOW):
            self.neighbor_senders.add(sender)
        if self.upstream is None:
            self.upstream = sender
        actions = []
        best_sent = self.disc_sent.get(pkt.msg_id, -1)
        if self.is_member:
            if best_sent < 0:
                out = Packet(kind="discovery", hop_counter=pkt.hop_counter + 1,
                             msg_id=pkt.msg_id, epoch=pkt.epoch,
                             ttl=self.source_ttl)
                self.disc_sent[pkt.msg_id] = self.source_ttl
                actions.append(Transmit(out, self._jitter()))
                self.transmitted_discovery = True
            if not self.acked:
                self.acked = True
                actions.append(SendAck(self._ack_delay()))
        elif pkt.ttl >= 1 and pkt.ttl - 1 > best_sent:
            out = Packet(kind="discovery", hop_counter=pkt.hop_counter + 1,
                         msg_id=pkt.msg_id, epoch=pkt.epoch, ttl=pkt.ttl - 1)
            self.disc_sent[pkt.msg_id] = pkt.ttl - 1
            actions.append(Transmit(out, self._jitter()))
            self.transmitted_discovery = True
        return actions

    def on_ack(self, pkt, sender, now):
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
            self.acked = True
            actions.append(SendAck(self._ack_delay()))
        return actions

    def on_data(self, pkt, sender, now):
        self.update_distance(pkt)
        actions = []
        pairs = pkt.destinations
        one_to_all = not pairs
        is_dest = not one_to_all and any(dest == self.node_id for dest, _ in pairs)
        if pkt.msg_id not in self.delivered:
            if is_dest or (one_to_all and self.is_member):
                self.delivered.add(pkt.msg_id)
                actions.append(Deliver(pkt.msg_id))
        if is_dest:
            pairs = [(dest, mrd) for dest, mrd in pairs if dest != self.node_id]
        if pkt.msg_id in self.dup_cache:
            return actions
        if not (self.is_relay or self.is_member):
            return actions
        out_pairs = []
        if not one_to_all:
            for dest, mrd in pairs:
                d = self.distance_to(dest)
                if d is not None and mrd >= d:
                    out_pairs.append((dest, d - 1))
            if not out_pairs:
                return actions
        out = Packet(kind="data", hop_counter=pkt.hop_counter + 1,
                     msg_id=pkt.msg_id, destinations=out_pairs,
                     payload_bytes=pkt.payload_bytes)
        self.dup_cache.add(pkt.msg_id)
        actions.append(Transmit(out, self._jitter()))
        return actions


class RefSmfNode(SmfNode):
    def on_data(self, pkt, sender, now):
        if pkt.msg_id in self.dup_cache:
            return []
        self.dup_cache.add(pkt.msg_id)
        actions = []
        is_dest = any(d == self.node_id for d, _ in pkt.destinations)
        if is_dest or (not pkt.destinations and self.is_member):
            actions.append(Deliver(pkt.msg_id))
        if pkt.ttl > 0:
            out = Packet(kind="data", hop_counter=pkt.hop_counter + 1,
                         msg_id=pkt.msg_id, ttl=pkt.ttl - 1,
                         destinations=pkt.destinations,
                         payload_bytes=pkt.payload_bytes)
            jitter = (self.rng or self._seed()).uniform(0.0, self.forward_jitter_max)
            actions.append(Transmit(out, jitter))
        return actions


SELF = 3                       # the node under test; origins and dests mix it in
IDS = st.integers(0, 5)
EVERY_ID = frozenset(range(6))  # every origin IDS draws: a node learning from all
MSG = st.tuples(IDS, st.integers(1, 3))
DESTS = st.lists(st.tuples(IDS, st.integers(0, 4)), max_size=3)


def _packets(dests):
    discovery = st.builds(
        lambda m, hops, epoch, ttl: Packet(kind="discovery", hop_counter=hops,
                                           msg_id=m, epoch=epoch, ttl=ttl),
        MSG, st.integers(0, 4), st.integers(0, 2), st.integers(0, 3))
    acks = st.builds(
        lambda m, epoch, obligate, acp: Packet(kind="ack", hop_counter=0,
                                               msg_id=m, epoch=epoch,
                                               obligate=obligate, acp=acp),
        # biased toward election: half name the node under test as
        # obligate, and the ACPs cover off, rarely and always
        MSG, st.integers(0, 2), st.one_of(st.just(SELF), IDS),
        st.sampled_from([0.0, 0.1, 1.0]))
    datas = st.builds(
        lambda m, hops, dests: Packet(kind="data", hop_counter=hops, msg_id=m,
                                      destinations=dests, payload_bytes=100),
        MSG, st.integers(0, 4), dests)
    return st.one_of(discovery, acks, datas)


def _steps(dests):
    """Lists of steps: a reception (packet, sender, time), data carrying
    destination pairs drawn from `dests`, or one of the node's own calls.
    Ten steps or more leave room for discovery, an ACK and an election."""
    return st.lists(st.one_of(
        st.tuples(_packets(dests), IDS, st.floats(0.0, 0.2)),
        st.sampled_from(["make_ack", "initiate", "one_to_all"])),
        min_size=10, max_size=40)


STEPS = _steps(DESTS)


def _apply(node, step):
    if step == "make_ack":
        return node.make_ack()
    if step == "initiate":
        return node.initiate_discovery(node.epoch)
    if step == "one_to_all":
        return node.send_one_to_all(100)
    pkt, sender, now = step
    return getattr(node, "on_" + pkt.kind)(pkt, sender, now)


def _state(node):
    """The node's attributes and its stream's position, None while unseeded:
    the stream factories differ by identity alone, so they are left out."""
    state = {k: v for k, v in vars(node).items() if k not in ("rng", "_make_stream")}
    return state, None if node.rng is None else node.rng.getstate()


def _replay(node, ref, steps, is_member):
    """Apply each step to both nodes; yield the two results and note whether
    the reference was elected a relay, which few random lists reach."""
    elected = False
    for step in steps:
        if step == "initiate" and not is_member:
            continue
        results = _apply(node, step), _apply(ref, step)
        elected = elected or any(isinstance(a, BecomeRelay) for a in results[1])
        yield step, results
    event(f"relay elected: {elected}")


@settings(max_examples=300, deadline=None)
@given(steps=STEPS, is_member=st.booleans(), is_relay=st.booleans(),
       relays=st.integers(1, 3), source_ttl=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_gcn_handlers_match_reference(steps, is_member, is_relay, relays,
                                      source_ttl, seed):
    nodes = [cls(SELF, is_member, source_ttl, relays, partial(random.Random, seed),
                 learns_from=EVERY_ID)
             for cls in (GcnNode, RefGcnNode)]
    for node in nodes:
        node.is_relay = is_relay
    for step, results in _replay(*nodes, steps, is_member):
        assert results[0] == results[1], step
        assert type(results[0]) is list
        assert _state(nodes[0]) == _state(nodes[1]), step


def _without_distances(node):
    state, rng_state = _state(node)
    del state["distance"], state["learns_from"]
    return state, rng_state


def _scoped_steps(learns_from):
    """Step lists whose data names destinations only in `learns_from`."""
    ids = sorted(learns_from)
    dests = (st.lists(st.tuples(st.sampled_from(ids), st.integers(0, 4)), max_size=3)
             if ids else st.just([]))
    return st.tuples(st.just(frozenset(ids)), _steps(dests))


@settings(max_examples=300, deadline=None)
@given(scoped=st.one_of(st.just(set()), st.sets(IDS)).flatmap(_scoped_steps),
       is_member=st.booleans(), is_relay=st.booleans(),
       relays=st.integers(1, 3), source_ttl=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_a_node_that_learns_only_addressed_distances_acts_as_one_that_learns_all(
        scoped, is_member, is_relay, relays, source_ttl, seed):
    """Data names destinations only from the addressed set, and no handler
    reads any other distance: learning only those leaves every action and the
    rest of the state as the reference's, whose table, restricted to the
    set, is the node's.  The empty set, drawn half the time, is a run
    without targeted data."""
    learns_from, steps = scoped
    node = GcnNode(SELF, is_member, source_ttl, relays, partial(random.Random, seed),
                   learns_from=learns_from)
    ref = RefGcnNode(SELF, is_member, source_ttl, relays, partial(random.Random, seed),
                     learns_from=EVERY_ID)
    node.is_relay = ref.is_relay = is_relay
    for step, results in _replay(node, ref, steps, is_member):
        assert results[0] == results[1], step
        assert node.distance == {origin: entry for origin, entry in ref.distance.items()
                                 if origin in learns_from}, step
        assert _without_distances(node) == _without_distances(ref), step


@settings(max_examples=300, deadline=None)
@given(pkts=st.lists(st.builds(
           lambda m, hops, dests, ttl: Packet(kind="data", hop_counter=hops,
                                              msg_id=m, ttl=ttl,
                                              destinations=[(d, 0) for d, _ in dests],
                                              payload_bytes=100),
           MSG, st.integers(0, 4), DESTS, st.integers(0, 3)), max_size=30),
       is_member=st.booleans(), seed=st.integers(0, 2**16))
def test_smf_on_data_matches_reference(pkts, is_member, seed):
    nodes = [cls(SELF, is_member, partial(random.Random, seed))
             for cls in (SmfNode, RefSmfNode)]
    for pkt in pkts:
        results = [node.on_data(pkt, 0, 0.0) for node in nodes]
        assert results[0] == results[1]
        assert type(results[0]) is list
        assert _state(nodes[0]) == _state(nodes[1])
