"""Event engine: determinism, byte accounting, scheduling, and reporting."""

import json
import pickle
import tracemalloc
import warnings
from array import array
from collections import Counter
from dataclasses import replace

import networkx as nx
import pytest

import gcnsim.engine as engine_mod
import gcnsim.smf as smf_mod
from conftest import one_to_all_flow, small_scenario
from gcnsim.analytics import build_world, connectivity_sample
from gcnsim.engine import Run, trace_hash
from gcnsim.channel import default_curve_points
from gcnsim.mobility import advance, init_motion
from gcnsim.model import (STREAM_MOBILITY, STREAM_PROTOCOL, ChannelSpec,
                          ConfigurationError, MobilitySpec, Scenario,
                          TimingParams, TrafficFlow, TrafficSpec, make_rng)
from gcnsim.packets import Packet
from gcnsim.presets import PRESETS
from gcnsim.protocol import (BecomeRelay, Deliver, GcnNode, ProtocolError,
                             SendAck, Transmit)
from test_cli import every_event_scenario
from test_golden import CASES, GOLDEN


def flows(*fl):
    return TrafficSpec(flows=list(fl))


def tx_records(trace, kind):
    return [rec for rec in trace if rec[2] == "tx:" + kind]


# --- determinism ----------------------------------------------------------

def test_identical_runs_have_identical_traces():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    t1, r1 = Run(sc, 3).run()
    t2, r2 = Run(sc, 3).run()
    assert trace_hash(t1) == trace_hash(t2)
    assert r1.to_scalars() == r2.to_scalars()


def test_different_seeds_differ():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    t1, _ = Run(sc, 3).run()
    t2, _ = Run(sc, 4).run()
    assert trace_hash(t1) != trace_hash(t2)


def test_run_object_is_single_use():
    run = Run(small_scenario(), 0)
    run.run()
    with pytest.raises(RuntimeError):
        run.run()


def test_invalid_scenario_rejected_at_construction():
    with pytest.raises(ConfigurationError):
        Run(small_scenario(source_ttl=0), 0)


# --- byte accounting ------------------------------------------------------

def test_wire_byte_constants_in_trace():
    sc = small_scenario(traffic=flows(one_to_all_flow(payload_bytes=1400)))
    trace, report = Run(sc, 0).run()
    disc = tx_records(trace, "discovery")
    acks = tx_records(trace, "ack")
    datas = tx_records(trace, "data")
    assert disc and all(rec[5] == 14 for rec in disc)
    assert acks and all(rec[5] == 20 for rec in acks)
    assert datas and all(rec[5] == 1404 for rec in datas)  # payload + header


def test_targeted_pair_bytes():
    sc = small_scenario(traffic=flows(TrafficFlow(
        pattern="targeted", senders="all_members", dests="source",
        rate=1.0, payload_bytes=1400, start=1.0, stop=2.0)))
    trace, _ = Run(sc, 0).run()
    datas = tx_records(trace, "data")
    assert datas
    # payload + base header + one (dest, mrd) pair
    assert all(rec[5] == 1407 for rec in datas)


def test_smf_data_bytes():
    sc = small_scenario(protocol="smf",
                        traffic=flows(one_to_all_flow(payload_bytes=1400)))
    trace, report = Run(sc, 0).run()
    datas = tx_records(trace, "data")
    assert datas and all(rec[5] == 1402 for rec in datas)  # payload + TTL header
    assert report.bytes_control == 0
    assert report.smf_ttl >= 1


def test_trace_bytes_match_report_totals():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    trace, report = Run(sc, 1).run()
    control = sum(rec[5] for rec in trace
                  if rec[2] in ("tx:discovery", "tx:ack"))
    data = sum(rec[5] for rec in trace if rec[2] == "tx:data")
    assert control == report.bytes_control
    assert data == report.bytes_data
    assert report.bytes_total == control + data


@pytest.mark.parametrize("key", [
    "targeted_collection/gcn/0", "targeted_mobile/gcn/0",
    "byte_comparison/smf/1", "resiliency_sweep/smf/0"])
def test_trace_records_share_their_event_and_keep_numbers_in_arrays(key):
    # a trace holds one object per event name, not a copy per transmission,
    # one per distinct MRD tuple of its GCN records, and its times, nodes and
    # byte counts as machine numbers, no int or float object per record; the
    # records' values, and so the hash, are the pinned ones
    sc, seed = CASES[key]
    trace, _ = Run(sc, seed).run()
    assert len({id(rec[2]) for rec in trace}) == len({rec[2] for rec in trace})
    mrds = [rec[4] for rec in trace if type(rec[4]) is tuple and rec[2] != "noroute"]
    assert len(set(map(id, mrds))) == len(set(mrds))
    assert [(type(col), col.typecode) for col in (trace.time, trace.node, trace.nbytes)] \
        == [(array, "d"), (array, "q"), (array, "q")]
    assert trace_hash(trace) == json.loads(GOLDEN.read_text())[key]["trace"]


def _immutable(value) -> bool:
    return (value is None or type(value) in (int, float, str)
            or type(value) is tuple and all(map(_immutable, value)))


@pytest.mark.parametrize("case, noroutes", [
    ((every_event_scenario(), 0), 13), (CASES["targeted_collection/gcn/0"], 0),
    (CASES["byte_comparison/smf/1"], 0)],
    ids=["every_event", "targeted_collection_gcn", "byte_comparison_smf"])
def test_every_trace_record_is_a_tuple_of_immutable_values(case, noroutes):
    # no record shares a container the run still holds: a `noroute` record's
    # recipients and a GCN record's MRDs are tuples
    sc, seed = case
    records = list(Run(sc, seed).run()[0])
    assert records
    for rec in records:
        assert type(rec) is tuple and all(map(_immutable, rec)), rec
    infos = [rec[4] for rec in records if rec[2] == "noroute"]
    assert len(infos) == noroutes and all(type(info) is tuple and info for info in infos)


@pytest.mark.parametrize("key,bound", [
    ("resiliency_sweep/smf/0", 85), ("resiliency_sweep/gcn/0", 120),
    ("full_matrix/gcn/0", 125)])
def test_a_kept_trace_record_costs_its_fields_not_a_tuple(key, bound):
    # memory held by a finished run's trace, per record, measured in a fresh
    # process: about 54 B (flood) and 55 B (GCN) kept by field, against
    # 124 B and 158 B as one tuple and one float object per record; the
    # targeted `full_matrix` GCN run's records hold about 72 B with one
    # `info` tuple per distinct MRD list, 103 B with one per transmission and
    # 148 B with a list
    sc, seed = CASES[key]
    tracemalloc.start()
    try:
        trace, _ = Run(sc, seed).run()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held / len(trace) < bound
    assert trace_hash(trace) == json.loads(GOLDEN.read_text())[key]["trace"]


class TupleRun(Run):
    """Also keeps each record as the tuple `_record` was given, in a list."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.tuples = []

    def _record(self, node, event, msg_id=None, info=None, nbytes=0):
        super()._record(node, event, msg_id, info, nbytes)
        self.tuples.append((round(self.now, 9), node, event, msg_id, info, nbytes))


def test_an_untraced_run_keeps_an_empty_trace():
    sc, seed = CASES["targeted_collection/gcn/0"]
    trace, _ = Run(sc, seed, collect_trace=False).run()
    assert len(trace) == 0 and not trace and list(trace) == []


@pytest.mark.parametrize("key", ["targeted_collection/gcn/0", "byte_comparison/smf/1"])
def test_a_trace_yields_its_records_as_tuples_and_pickles_whole(key):
    sc, seed = CASES[key]
    run = TupleRun(sc, seed)
    trace, _ = run.run()
    records = list(trace)
    assert all(type(rec) is tuple for rec in records)
    assert records == run.tuples and len(trace) == len(run.tuples)
    copy = pickle.loads(pickle.dumps(trace))
    assert len(copy) == len(trace)
    assert trace_hash(copy) == trace_hash(trace) == json.loads(GOLDEN.read_text())[key]["trace"]


# --- clock and scheduling -------------------------------------------------

def test_trace_times_are_monotone_and_bounded():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    trace, _ = Run(sc, 2).run()
    times = [rec[0] for rec in trace]
    assert times == sorted(times)
    assert times[-1] <= sc.duration


def test_rediscovery_produces_epochs():
    sc = small_scenario(duration=3.5,
                        timing=TimingParams(rediscovery_period=1.0))
    trace, report = Run(sc, 0).run()
    discovers = [rec for rec in trace if rec[2] == "discover"]
    assert [rec[4] for rec in discovers] == [0, 1, 2, 3]
    assert sorted(report.relays_per_epoch) == [0, 1, 2, 3]


def test_relay_count_never_decreases_across_epochs():
    sc = small_scenario(duration=5.0, desired_relays=3,
                        timing=TimingParams(rediscovery_period=1.0))
    _, report = Run(sc, 0).run()
    counts = [report.relays_per_epoch[e] for e in sorted(report.relays_per_epoch)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# --- delivery accounting --------------------------------------------------

def test_lossfree_one_to_all_delivers_everything():
    sc = small_scenario(source_ttl=3, traffic=flows(one_to_all_flow()))
    _, report = Run(sc, 0).run()
    assert report.delivery_per_flow and report.delivery_rate == 1.0


def test_delivery_counts_only_intended_recipients():
    sc = small_scenario(traffic=flows(one_to_all_flow(rate=1.0, start=1.0,
                                                      stop=2.0)))
    _, report = Run(sc, 0).run()
    done, want = report.delivery_per_flow[0]
    assert want == report.num_members - 1  # one packet, all other members
    assert done <= want


def test_targeted_send_before_discovery_counts_noroute():
    sc = small_scenario(duration=2.0, traffic=flows(TrafficFlow(
        pattern="targeted", senders="all_members", dests="source",
        rate=1.0, payload_bytes=100, start=0.0, stop=0.5)))
    trace, report = Run(sc, 0).run()
    assert report.no_route_drops >= 1
    assert any(rec[2] == "noroute" for rec in trace)
    # the drop still counts against the flow's expected deliveries
    done, want = report.delivery_per_flow[0]
    assert want >= report.no_route_drops


def test_a_member_listed_in_its_own_dests_never_addresses_itself():
    targeted = TrafficFlow(pattern="targeted", senders="all_members",
                           dests="source", rate=2.0, payload_bytes=100,
                           start=1.0, stop=2.0)
    by_name = small_scenario(traffic=flows(targeted))
    _, source = build_world(by_name, 0)
    by_id = replace(by_name, traffic=flows(replace(targeted, dests=[source])))
    trace, report = Run(by_id, 0).run()
    ref_trace, ref_report = Run(by_name, 0).run()
    # the source sends nothing, so it causes no drop and expects nothing
    assert report.no_route_drops == 0
    assert report.delivery_per_flow[0][1] == 2 * (report.num_members - 1)
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()


@pytest.mark.parametrize("protocol", ["gcn", "smf"])
def test_a_lone_member_sends_no_targeted_data(protocol):
    # an empty destination list would reach receivers as one-to-all
    sc = Scenario(num_users=30, group_prob=0.04, region_radius=60.0,
                  protocol=protocol, traffic=flows(TrafficFlow(
                      pattern="targeted", senders="all_members", dests="all",
                      rate=1.0, payload_bytes=100, start=1.0, stop=4.0)))
    trace, report = Run(sc, 2).run()
    assert report.num_members == 1
    assert tx_records(trace, "data") == []
    assert report.delivery_per_flow == [(0, 0)]


def test_discovered_fraction_reported():
    _, report = Run(small_scenario(), 0).run()
    assert 0.0 < report.discovered_fraction <= 1.0


# --- connectivity sampling and mobility ----------------------------------

def test_gcn_connectivity_series_sampled_every_second():
    sc = small_scenario(duration=5.0)
    _, report = Run(sc, 0).run()
    times = [t for t, _ in report.connectivity_series]
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(0.0 <= f <= 1.0 for _, f in report.connectivity_series)


def test_mobile_run_smoke():
    sc = small_scenario(
        duration=5.0,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=0.0,
                              speed_max=5.0, pause_min=0.0, pause_max=1.0),
        traffic=flows(one_to_all_flow(start=1.0, stop=4.0)))
    trace, report = Run(sc, 0).run()
    assert report.delivery_per_flow
    assert len(report.connectivity_series) == 5


def test_refresh_packets_counted_as_data():
    base = small_scenario(duration=4.0)
    _, quiet = Run(base, 0).run()
    sc = small_scenario(duration=4.0,
                        timing=TimingParams(distance_refresh_period=1.0))
    trace, report = Run(sc, 0).run()
    assert report.bytes_data > quiet.bytes_data
    # refresh packets are unmetered: they never inflate delivery accounting
    assert report.delivery_per_flow == quiet.delivery_per_flow == []


def test_static_flood_builds_the_unit_disk_graph_once(monkeypatch):
    # a static run of either protocol builds one graph at set-up: its rows
    # are the flat channel's rows, and it gives the flood's TTL oracle its
    # hop counts
    built = []
    real = engine_mod.unit_disk_adjacency

    def counting(positions, tx_radius):
        built.append(len(positions))
        return real(positions, tx_radius)

    monkeypatch.setattr(engine_mod, "unit_disk_adjacency", counting)
    for protocol in ("gcn", "smf"):
        built.clear()
        sc = small_scenario(protocol=protocol, traffic=flows(
            one_to_all_flow(senders="all_members")))
        trace, report = Run(sc, 0).run()
        assert report.num_members > 1
        assert any(rec[2] == "deliver" for rec in trace)
        assert built == [sc.num_users]
    assert report.smf_ttl >= 1


def test_mobile_flood_builds_one_graph_per_tick(monkeypatch):
    # the flood-TTL oracle and the channel rows of one tick share one graph,
    # built by the first send or transmission after a move; a flood run
    # takes no connectivity sample
    sc = small_scenario(
        protocol="smf", duration=4.0,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=1.0,
                              speed_max=5.0, pause_min=0.0, pause_max=0.5),
        traffic=flows(one_to_all_flow(senders="all_members", start=1.0, stop=3.0)))
    run = Run(sc, 0)
    real, ticks, built_at = engine_mod.unit_disk_adjacency, [], set()

    def counting(positions, tx_radius):
        ticks.append(run._tick)
        built_at.add(run.now)
        return real(positions, tx_radius)

    def no_sample(*args):
        raise AssertionError("a flood run sampled connectivity")

    monkeypatch.setattr(engine_mod, "unit_disk_adjacency", counting)
    monkeypatch.setattr(engine_mod, "connectivity_sample", no_sample)
    trace, report = run.run()
    assert report.smf_ttl >= 1 and report.connectivity_series == []
    assert ticks == sorted(set(ticks))  # no tick builds two graphs
    # each send's oracle builds its tick's graph, and the transmissions of
    # the floods, all within that tick, reuse it
    assert ticks == [10, 15, 20, 25]
    assert built_at == {1.0, 1.5, 2.0, 2.5}
    assert len(tx_records(trace, "data")) > len(ticks)


def test_every_mobile_flood_send_carries_the_hop_eccentricity_at_that_instant(
        monkeypatch):
    """Each send's TTL is the hop count from its sender to the farthest
    member it reaches, on the unit-disk graph of the positions at the send's
    instant: positions stepped tick by tick here, hops counted by networkx."""
    sc = small_scenario(
        protocol="smf", duration=8.0, region_radius=90.0, tx_radius=30.0,
        num_users=40,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=5.0,
                              speed_max=15.0, pause_min=0.0, pause_max=0.5),
        traffic=flows(one_to_all_flow(senders="all_members", rate=4.0,
                                      start=0.5, stop=7.5)))
    sends = []
    send_flood = smf_mod.SmfNode.send_flood

    def recording_send(node, ttl, *args, **kwargs):
        sends.append((run.now, node.node_id, ttl))
        return send_flood(node, ttl, *args, **kwargs)

    monkeypatch.setattr(smf_mod.SmfNode, "send_flood", recording_send)
    run = Run(sc, 0)
    members = set(run.members)
    fleet = [init_motion(sc.mobility, nid, run.positions[nid], 0.0,
                         make_rng(0, STREAM_MOBILITY, nid), sc.region_radius)
             for nid in run.node_ids]
    positions = dict(run.positions)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the oracle warns on a split group
        run.run()
    assert len(members) > 2 and len(sends) > 100
    tick, changed, split = 0, set(), 0
    for now, sender, ttl in sends:
        while (tick + 1) / engine_mod.TICKS_PER_S <= now:
            advance(sc.mobility, fleet, tick / engine_mod.TICKS_PER_S,
                    1 / engine_mod.TICKS_PER_S, sc.region_radius, positions)
            tick += 1
        graph = nx.Graph()
        graph.add_nodes_from(positions)
        graph.add_edges_from(
            (a, b) for a in positions for b in positions
            if a < b and positions[a].distance_to(positions[b]) <= sc.tx_radius)
        hops = nx.single_source_shortest_path_length(graph, sender)
        assert ttl == max(hops[m] for m in members if m in hops), (now, sender)
        changed.add((sender, ttl))
        split += not members <= hops.keys()
    # the eccentricities moved under the fleet, so a first-send value fails,
    # and at some sends the group was split: the TTL covered those reached
    assert len(changed) > len(members) and split > 0


# --- inline delivery -----------------------------------------------------

class CountingRun(Run):
    """A Run that counts its heap pushes by kind, the pushes a transmission
    makes outside its receptions' handlers, and the transmissions made while
    another event is due at `now`."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushes = Counter()
        self.tx_pushes = 0
        self.tied = 0
        self._transmitting = False

    def _push(self, time, kind, a=None, b=None, key=None):
        self.pushes[kind] += 1
        self.tx_pushes += self._transmitting
        super()._push(time, kind, a, b, key)

    def _transmit(self, sender, pkt):
        heap = self._heap
        self.tied += bool(heap) and heap[0][0] <= self.now
        self._transmitting = True
        super()._transmit(sender, pkt)
        self._transmitting = False

    def _receive(self, node_id, pkt, sender):
        self._transmitting = False
        super()._receive(node_id, pkt, sender)
        self._transmitting = True


class CollectingRun(Run):
    """The reference: a transmission collects all its hearers first, then
    runs their receptions in order, before anything else due at `now`."""

    def _transmit(self, sender, pkt):
        heard = []
        self._receive = lambda node, _pkt, _sender: heard.append(node)
        super()._transmit(sender, pkt)
        del self._receive  # the class's own reception again
        for node in heard:
            self._receive(node, pkt, sender)


def _lossy_static_flood(**overrides):
    return small_scenario(protocol="smf", channel=ChannelSpec(flat_per=0.25),
                          traffic=flows(one_to_all_flow(senders="all_members")),
                          **overrides)


@pytest.mark.parametrize("case, ties", [
    (CASES["resiliency_no_jitter/gcn/0"], True),
    (CASES["resiliency_no_jitter/smf/1"], True),
    ((_lossy_static_flood(), 0), False),
    (CASES["targeted_mobile/gcn/1"], False),
    # GCN handlers run between the draws of a lossy flat channel
    (CASES["resiliency_r5_loss50/gcn/1"], False),
    # curve rows
    (CASES["full_matrix/smf/0"], False)],
    ids=["no_jitter_gcn", "no_jitter_smf", "static_flood", "mobile_gcn",
         "lossy_gcn", "curve_smf"])
def test_inline_delivery_matches_collecting_every_hearer_first(case, ties):
    sc, seed = case
    inline, collecting = CountingRun(sc, seed), CollectingRun(sc, seed)
    trace, report = inline.run()
    ref_trace, ref_report = collecting.run()
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()
    assert inline.channel_rng.getstate() == collecting.channel_rng.getstate()
    if ties:
        # without jitter most transmissions share an instant with another
        # event, and their receptions still run before it
        assert inline.tied > 0


def test_a_transmission_pushes_nothing_with_or_without_jitter():
    """A transmission pushes nothing, with the default jitter and without."""
    for jitter in (0.001, 0.0):
        run = CountingRun(_lossy_static_flood(
            timing=TimingParams(forward_jitter_max=jitter)), 0)
        trace, _ = run.run()
        transmissions = sum(1 for rec in trace if rec[2].startswith("tx:"))
        assert transmissions > 100
        assert run.tx_pushes == 0
        assert run._seq == sum(run.pushes.values())


@pytest.mark.parametrize("protocol", ["gcn", "smf"])
def test_a_transmissions_receptions_run_before_anything_else_due_at_its_instant(
        protocol):
    """Without jitter every forward shares its instant with other events, and
    a delivery still follows the transmission of its own message: no other
    transmission comes between a copy's send and its receptions."""
    run = CountingRun(small_scenario(
        protocol=protocol, timing=TimingParams(forward_jitter_max=0.0),
        traffic=flows(one_to_all_flow(senders="all_members"))), 0)
    trace, _ = run.run()
    assert run.tied > 0
    last_sent, delivered = None, 0
    for rec in trace:
        if rec[2] == "tx:data":
            last_sent = rec[3]
        elif rec[2] == "deliver":
            assert rec[3] == last_sent, rec
            delivered += 1
    assert delivered > 100


# --- periodic series -------------------------------------------------------

class PreScheduledRun(Run):
    """The reference: every periodic event is pushed at set-up, each under a
    sequence number of its own, and no event pushes a successor."""

    def _schedule_all(self):
        sc = self.sc
        if sc.protocol == "gcn":
            self._push(0.0, engine_mod._DISCOVER, 0)
            period, epoch = sc.timing.rediscovery_period, 1
            while period and epoch * period < sc.duration:
                self._push(epoch * period, engine_mod._DISCOVER, epoch)
                epoch += 1
            refresh, k = sc.timing.distance_refresh_period, 1
            while refresh and k * refresh < sc.duration:
                self._push(k * refresh, engine_mod._REFRESH, k)
                k += 1
        for flow_idx, sender, dests in self._sends:
            flow = sc.traffic.flows[flow_idx]
            if not dests and flow.pattern == "targeted":
                continue
            k = 0
            while True:
                t = flow.start + k / flow.rate
                if t >= flow.stop:
                    break
                self._push(t, engine_mod._TRAFFIC, k, (flow_idx, sender, dests))
                k += 1
        if sc.protocol == "gcn":  # a flood run samples nothing
            for k in range(1, int(sc.duration // engine_mod.SAMPLE_PERIOD) + 1):
                self._push(k * engine_mod.SAMPLE_PERIOD, engine_mod._SAMPLE, k)

    def _schedule(self, kind, k, b=None, key=None):
        pass  # every periodic event is on the heap already


def _tie_case(timing, flow):
    """`full_matrix` cut to 30 s with one flow: an earlier series with a
    shorter period than a later one ties with it at some instants after
    both have run, which only the series' set-up key orders as the
    reference does."""
    sc = PRESETS["full_matrix"].scenario
    return replace(sc, duration=30.0, timing=timing,
                   traffic=flows(replace(flow, start=1.0, stop=29.0)))


_REFRESH_BEFORE_TRAFFIC = _tie_case(  # refresh at 1, 2, ...; data at 1, 3, ...
    TimingParams(distance_refresh_period=1.0),
    TrafficFlow(pattern="one_to_all", senders="source", dests="all", rate=0.5))
_DISCOVERY_BEFORE_REFRESH = _tie_case(  # discovery at 2, 4, ...; refresh at 4, 8, ...
    TimingParams(rediscovery_period=2.0, distance_refresh_period=4.0),
    TrafficFlow(pattern="targeted", senders="all_members", dests="source", rate=1.0))


@pytest.mark.parametrize("sc, seed", [
    CASES["resiliency_no_jitter/gcn/0"],
    CASES["resiliency_no_jitter/smf/1"],
    CASES["targeted_collection/gcn/0"],
    CASES["targeted_mobile/gcn/1"],
    CASES["mobile_connectivity/smf/0"],
    (_REFRESH_BEFORE_TRAFFIC, 0), (_REFRESH_BEFORE_TRAFFIC, 1),
    (_DISCOVERY_BEFORE_REFRESH, 0), (_DISCOVERY_BEFORE_REFRESH, 1)],
    ids=["no_jitter_gcn", "no_jitter_smf", "targeted_gcn", "mobile_targeted_gcn",
         "mobile_smf", "refresh_ties_data/0", "refresh_ties_data/1",
         "discovery_ties_refresh/0", "discovery_ties_refresh/1"])
def test_each_series_pushing_its_successor_matches_pushing_all_at_set_up(sc, seed):
    lazy, eager = Run(sc, seed), PreScheduledRun(sc, seed)
    trace, report = lazy.run()
    ref_trace, ref_report = eager.run()
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()
    assert lazy._seq == eager._seq  # the count of heap pushes
    assert lazy.channel_rng.getstate() == eager.channel_rng.getstate()


# --- channel rows --------------------------------------------------------

def test_pairwise_table_matches_rows_priced_one_sender_at_a_time():
    # a curve prices each sender's row when it first transmits; after the run
    # every row held equals the row priced afresh for that sender alone
    curve = default_curve_points()
    for channel, radius in [
            (ChannelSpec(flat_per=None, base_loss=0.1, curve_points=curve), 40.0),
            # past the curve's certain-loss point at 60 m: in-range pairs
            # that can never hear are left out of the rows
            (ChannelSpec(flat_per=None, curve_points=curve), 75.0)]:
        run = Run(small_scenario(channel=channel, tx_radius=radius,
                                 traffic=flows(one_to_all_flow())), 0)
        run.run()
        assert len(run._priced_rows) > 1
        assert run._priced_rows == {s: run._neighbor_row(s) for s in run._priced_rows}
        pers = [per for row in run._priced_rows.values() for _, per in row]
        assert any(0.0 < per < 1.0 for per in pers)
        linked = sum(len(run._unit_disk[s]) for s in run._priced_rows)
        if radius > curve[-1][0]:
            assert len(pers) < linked
        else:
            assert len(pers) == linked


_STATIC_AND_MOBILE = pytest.mark.parametrize("mobility", [
    MobilitySpec(),
    MobilitySpec(kind="random_waypoint", speed_min=1.0, speed_max=5.0,
                 pause_min=0.0, pause_max=0.5)], ids=["static", "mobile"])


@_STATIC_AND_MOBILE
def test_a_flat_channel_prices_no_pair(mobility, monkeypatch):
    # its one PER is priced at set-up, and every transmission samples the
    # unit-disk graph's row with it
    priced = []
    real = engine_mod.channel_mod.per_at

    def counting(spec, d):
        priced.append(d)
        return real(spec, d)

    monkeypatch.setattr(engine_mod.channel_mod, "per_at", counting)
    sc = small_scenario(channel=ChannelSpec(flat_per=0.2, base_loss=0.3),
                        mobility=mobility, traffic=flows(one_to_all_flow()))
    run = Run(sc, 0)
    assert priced == [0.0]
    assert run._flat_per == pytest.approx(1.0 - 0.7 * 0.8)
    trace, _ = run.run()
    assert len(tx_records(trace, "data")) > 10
    assert priced == [0.0]
    assert run._priced_rows == {}


_PER_CASES = [(p, base_loss) for p in (0.0, 0.3, 1.0) for base_loss in (0.0, 0.25)]


@pytest.mark.parametrize("protocol", ["gcn", "smf"])
@_STATIC_AND_MOBILE
@pytest.mark.parametrize("per, base_loss", _PER_CASES,
                         ids=[f"per{p}-base{b}" for p, b in _PER_CASES])
def test_flat_channel_runs_as_a_constant_curve(per, base_loss, mobility, protocol):
    # a constant curve takes the priced path: the flat path must hear, draw
    # and trace exactly as it does
    targeted = TrafficFlow(pattern="targeted", senders="all_members",
                           dests="source", rate=2.0, payload_bytes=100,
                           start=1.0, stop=2.5)
    runs = [Run(small_scenario(protocol=protocol, mobility=mobility,
                               channel=channel,
                               traffic=flows(one_to_all_flow(), targeted)), 1)
            for channel in (
                ChannelSpec(flat_per=per, base_loss=base_loss),
                ChannelSpec(flat_per=None, base_loss=base_loss,
                            curve_points=[(0.0, per), (1000.0, per)]))]
    (trace, report), (ref_trace, ref_report) = (run.run() for run in runs)
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()
    assert runs[0].channel_rng.getstate() == runs[1].channel_rng.getstate()
    assert runs[0]._priced_rows == {} and runs[1]._flat_per is None


def test_mobile_table_holds_only_rows_priced_since_the_last_move():
    sc = small_scenario(
        duration=5.0,
        channel=ChannelSpec(flat_per=None, curve_points=default_curve_points()),
        mobility=MobilitySpec(kind="random_waypoint", speed_min=1.0,
                              speed_max=5.0, pause_min=0.0, pause_max=0.5),
        traffic=flows(one_to_all_flow(start=1.0, stop=4.0, rate=10.0)))
    run = Run(sc, 0)
    assert run._priced_rows == {}
    sync = run._sync_positions
    checked = []

    def checking_sync():
        # just before the next move, every cached row is the one the
        # current positions give
        tick, cached = run._tick, len(run._priced_rows)
        for sender, row in run._priced_rows.items():
            assert row == run._neighbor_row(sender)
        sync()
        if run._tick != tick:
            checked.append(cached)
            assert run._priced_rows == {}

    run._sync_positions = checking_sync
    run.run()
    assert sum(checked) > 0


# --- mobility ticks -------------------------------------------------------

def _rwp_scenario(duration):
    return small_scenario(
        duration=duration,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=1.0,
                              speed_max=5.0, pause_min=0.0, pause_max=0.5))


def test_long_mobile_run_ends_synced_to_its_last_tick():
    # a running sum of 0.1 s steps passes 1000 s after 9,999 of them
    run = Run(_rwp_scenario(1000.0), 0, collect_trace=False)
    run.run()
    assert run._tick == 10_000


def test_sample_at_second_j_sees_tick_10j_stepped_one_tick_at_a_time(monkeypatch):
    sc = _rwp_scenario(6.0)
    run = Run(sc, 1)
    # the same motion stepped tick by tick on the grid k / TICKS_PER_S
    reference = [init_motion(sc.mobility, nid, run.positions[nid], 0.0,
                             make_rng(1, STREAM_MOBILITY, nid), sc.region_radius)
                 for nid in run.node_ids]
    reference_at = dict(run.positions)
    stepped = [0]
    seen = []

    def checking_sample(positions, tx_radius, active, source, members):
        assert run._tick == round(run.now * engine_mod.TICKS_PER_S)
        while stepped[0] < run._tick:
            advance(sc.mobility, reference, stepped[0] / engine_mod.TICKS_PER_S,
                    1 / engine_mod.TICKS_PER_S, sc.region_radius, reference_at)
            stepped[0] += 1
        for nid in run.node_ids:
            assert positions[nid].distance_to(reference_at[nid]) <= 1e-9
        seen.append(run._tick)
        return connectivity_sample(positions, tx_radius, active, source, members)

    monkeypatch.setattr(engine_mod, "connectivity_sample", checking_sample)
    run.run()
    assert seen == [10, 20, 30, 40, 50, 60]


# --- distance learning -----------------------------------------------------

GCN_KEYS = sorted(key for key in CASES if "/gcn/" in key)


def _learning_node(origins):
    """A GcnNode class whose nodes learn the distance to every one of
    `origins`, whatever the engine passes."""

    class LearningNode(GcnNode):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **{**kwargs, "learns_from": origins})

    return LearningNode


def _addressed(run):
    """Every node that some targeted send of the run names, read from the
    scenario: a sender never addresses itself."""
    addressed = set()
    for flow in run.sc.traffic.flows:
        if flow.pattern != "targeted":
            continue
        senders = [run.source] if flow.senders == "source" else run.members
        dests = ({run.source} if flow.dests == "source"
                 else run.members if flow.dests == "all" else flow.dests)
        addressed |= {d for s in senders for d in dests if d != s}
    return addressed


def _observed(run):
    trace, report = run.run()
    return (trace_hash(trace), report.to_scalars(),
            [None if node.rng is None else node.rng.getstate()
             for node in run.nodes.values()])


def _check_learning_only_addressed_distances(key, monkeypatch):
    """Nodes learn only distances to the recipients of targeted flows, the
    only ones read; a run whose nodes learn every origin matches it in trace,
    scalars and every protocol RNG, and its tables restricted to those
    recipients are the shipped tables.  Returns the shipped run and the
    addressed set."""
    sc, seed = CASES[key]
    shipped = Run(sc, seed)
    addressed = _addressed(shipped)
    assert all(node.learns_from == addressed for node in shipped.nodes.values())
    observed = _observed(shipped)
    monkeypatch.setattr(engine_mod, "GcnNode", _learning_node(frozenset(shipped.node_ids)))
    learning = Run(sc, seed)
    assert _observed(learning) == observed
    assert any(node.distance for node in learning.nodes.values())
    for nid, node in shipped.nodes.items():
        assert node.distance == {
            origin: entry for origin, entry in learning.nodes[nid].distance.items()
            if origin in addressed}
    return shipped, addressed


def _gcn_keys(targeted):
    return [key for key in GCN_KEYS
            if any(f.pattern == "targeted"
                   for f in CASES[key][0].traffic.flows) == targeted]


@pytest.mark.parametrize("key", _gcn_keys(targeted=False))
def test_a_run_without_a_targeted_flow_skips_learning_and_nothing_changes(
        key, monkeypatch):
    shipped, addressed = _check_learning_only_addressed_distances(key, monkeypatch)
    assert not addressed
    assert not any(node.distance for node in shipped.nodes.values())


@pytest.mark.parametrize("key", _gcn_keys(targeted=True))
def test_a_run_with_a_targeted_flow_learns_at_every_node(key, monkeypatch):
    """Each targeted flow of these cases is sent to the source, so every
    other node learns the distance to it."""
    shipped, addressed = _check_learning_only_addressed_distances(key, monkeypatch)
    source = shipped.source
    assert source in addressed
    assert all(source in node.distance
               for nid, node in shipped.nodes.items() if nid != source)


# --- facts read from the nodes ---------------------------------------------

class ShadowRun(Run):
    """The reference: the engine keeps its own copies of node state.  A
    metered message keeps its recipients and those counted so far, and a
    Deliver counts only from a recipient not yet counted; discovery reach is
    the set of members that heard an epoch-0 discovery, tallied at
    reception; the epoch is the one the engine last started.  `delivers`
    holds (intended, first) for every metered Deliver."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.recipients = {}  # msg_id -> (flow index, recipients, counted)
        self.heard = set()
        self.epoch = 0
        self.delivers = []
        self._sending = None  # (flow index, dests) while a message is sent

    def _do_traffic(self, flow_idx, sender, dests):
        self._sending = (flow_idx, dests)
        super()._do_traffic(flow_idx, sender, dests)
        self._sending = None

    def _apply_actions(self, node_id, actions):
        if self._sending is not None:  # the new message's own actions
            flow_idx, dests = self._sending
            self.recipients[actions[0].packet.msg_id] = (flow_idx, set(dests), set())
            self._sending = None
        super()._apply_actions(node_id, [
            act for act in actions if isinstance(act, (Transmit, SendAck))])
        for act in actions:
            if isinstance(act, BecomeRelay):
                self._record(node_id, "relay", info=self.epoch)
            elif isinstance(act, Deliver) and act.msg_id in self.recipients:
                flow_idx, intended, counted = self.recipients[act.msg_id]
                first = node_id not in counted
                self.delivers.append((node_id in intended, first))
                if node_id in intended and first:
                    counted.add(node_id)
                    self._flow_counts[flow_idx][0] += 1
                    self._record(node_id, "deliver", act.msg_id)

    def _receive(self, node_id, pkt, sender):
        if pkt.kind == "discovery" and pkt.epoch == 0 and node_id in self.members:
            self.heard.add(node_id)
        super()._receive(node_id, pkt, sender)

    def _do_discover(self, epoch):
        super()._do_discover(epoch)  # closes the last epoch under self.epoch
        self.epoch = epoch

    def _close_epoch(self):
        self.report.relays_per_epoch[self.epoch] = sum(
            n.is_relay for n in self.nodes.values())

    def run(self):
        trace, report = super().run()
        if self.sc.protocol == "gcn":
            report.discovered_fraction = len(self.heard | {self.source}) / len(self.members)
        return trace, report


@pytest.mark.parametrize("key", sorted(CASES))
def test_deliveries_discovery_reach_and_the_epoch_read_from_the_nodes_match_copies(key):
    """Every metered Deliver comes from a recipient, once, so counting each
    one is the recipient bookkeeping; the members whose `disc_sent` holds
    epoch 0's discovery are those that heard it; the source's epoch is the
    one the engine started.  The shadowed run reports and traces the same."""
    sc, seed = CASES[key]
    trace, report = Run(sc, seed).run()
    shadow = ShadowRun(sc, seed)
    ref_trace, ref_report = shadow.run()
    assert all(intended and first for intended, first in shadow.delivers)
    assert report.delivery_per_flow == ref_report.delivery_per_flow
    assert sum(done for done, _ in report.delivery_per_flow) == len(shadow.delivers)
    assert report.discovered_fraction == ref_report.discovered_fraction
    assert report.relays_per_epoch == ref_report.relays_per_epoch
    assert trace_hash(trace) == trace_hash(ref_trace)


# --- dispatch --------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["gcn", "smf"])
def test_unknown_packet_kind_is_a_protocol_error(protocol):
    run = Run(small_scenario(protocol=protocol), 0)
    beacon = Packet(kind="beacon", hop_counter=0, msg_id=(1, 1))
    with pytest.raises(ProtocolError, match="beacon"):
        run._receive(0, beacon, 1)


class UndroppedRun(Run):
    """A run whose every data copy reaches its node's `on_data`, held flood
    copies and GCN copies that cannot act too: the dispatch without the
    engine's drops."""

    def _receive(self, node_id, pkt, sender):
        if pkt.kind != "data":
            super()._receive(node_id, pkt, sender)
            return
        actions = self.nodes[node_id].on_data(pkt, sender, self.now)
        if actions:
            self._apply_actions(node_id, actions)


def test_a_held_flood_copy_reaches_no_handler_and_dropping_it_changes_nothing(
        monkeypatch):
    sc = replace(PRESETS["byte_comparison"].scenario, protocol="smf")
    calls = Counter()
    on_data = smf_mod.SmfNode.on_data

    def counting_on_data(node, pkt, sender, now):
        calls["on_data"] += 1
        return on_data(node, pkt, sender, now)

    monkeypatch.setattr(smf_mod.SmfNode, "on_data", counting_on_data)
    run = Run(sc, 1)
    receive = run._receive

    def counting_receive(node_id, pkt, sender):
        calls["receive"] += 1
        calls["held"] += pkt.msg_id in run.nodes[node_id].dup_cache
        receive(node_id, pkt, sender)

    run._receive = counting_receive
    trace, report = run.run()
    assert 0 < calls["held"] < calls["receive"]
    assert calls["on_data"] == calls["receive"] - calls["held"]
    receptions = calls["receive"]
    calls.clear()
    ref_trace, ref_report = UndroppedRun(sc, 1).run()
    assert calls["on_data"] == receptions
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()


def _r5_loss50_with_targeted_from_source():
    """The R=5 @ 50 % static cell, the source also sending targeted data to
    every member: a member can then forward a copy that no longer names it
    and later hear one that does, a copy only the drop rule's delivery test
    keeps."""
    sc, _ = CASES["resiliency_r5_loss50/gcn/0"]
    flow = sc.traffic.flows[0]
    targeted = replace(flow, pattern="targeted", senders="source")
    return replace(sc, traffic=flows(flow, targeted)), 0


@pytest.mark.parametrize("case", [
    CASES["resiliency_r5_loss50/gcn/1"], CASES["targeted_mobile/gcn/1"],
    _r5_loss50_with_targeted_from_source()],
    ids=["static_r5_loss50", "mobile_targeted", "static_targeted_from_source"])
def test_a_gcn_copy_that_cannot_act_reaches_no_handler_and_dropping_it_changes_nothing(
        case, monkeypatch):
    """Every GCN data copy the engine drops, handed to `on_data` where it
    fell, returns no action and changes neither the duplicate cache, the
    deliveries nor the distance table; a run that hands every copy to
    `on_data` traces and reports the same."""
    sc, seed = case
    calls = Counter()
    on_data = GcnNode.on_data

    def counting_on_data(node, pkt, sender, now):
        calls["on_data"] += 1
        return on_data(node, pkt, sender, now)

    monkeypatch.setattr(GcnNode, "on_data", counting_on_data)
    run = Run(sc, seed)
    receive = run._receive

    def checking_receive(node_id, pkt, sender):
        if pkt.kind != "data":
            receive(node_id, pkt, sender)
            return
        calls["receive"] += 1
        reached = calls["on_data"]
        receive(node_id, pkt, sender)
        if calls["on_data"] == reached:  # the engine dropped it
            calls["dropped"] += 1
            node = run.nodes[node_id]
            state = (set(node.dup_cache), set(node.delivered), dict(node.distance))
            assert on_data(node, pkt, sender, run.now) == [], (node_id, pkt)
            assert (node.dup_cache, node.delivered, node.distance) == state, (
                node_id, pkt)

    run._receive = checking_receive
    trace, report = run.run()
    assert 0 < calls["dropped"] < calls["receive"]
    receptions = calls["receive"]
    calls.clear()
    ref_trace, ref_report = UndroppedRun(sc, seed).run()
    assert calls["on_data"] == receptions
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()


# --- protocol streams ------------------------------------------------------

@pytest.mark.parametrize("protocol", ["gcn", "smf"])
def test_seeding_every_protocol_stream_before_the_run_changes_nothing(protocol):
    """A node builds its stream at its first draw.  Seeding every stream at
    set-up gives the same trace and report; a stream left unbuilt would never
    have drawn, and a built one stands where the eagerly seeded one does."""
    sc = replace(PRESETS["byte_comparison"].scenario, protocol=protocol)
    lazy, eager = Run(sc, 1), Run(sc, 1)
    assert all(node.rng is None for node in lazy.nodes.values())
    for node in eager.nodes.values():
        node._seed()
    (trace, report), (eager_trace, eager_report) = lazy.run(), eager.run()
    assert trace_hash(trace) == trace_hash(eager_trace)
    assert report.to_scalars() == eager_report.to_scalars()
    unseeded = 0
    for nid, node in lazy.nodes.items():
        state = eager.nodes[nid].rng.getstate()
        if node.rng is None:
            unseeded += 1
            assert state == make_rng(1, STREAM_PROTOCOL, nid).getstate(), nid
        else:
            assert node.rng.getstate() == state, nid
    assert 0 < unseeded < len(lazy.nodes)
