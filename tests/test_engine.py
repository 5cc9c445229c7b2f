"""Event engine: determinism, byte accounting, scheduling, and reporting."""

from collections import Counter
from dataclasses import replace

import pytest

import gcnsim.engine as engine_mod
import gcnsim.smf as smf_mod
from conftest import one_to_all_flow, small_scenario
from gcnsim.analytics import connectivity_sample
from gcnsim.engine import Run, run_scenario, trace_hash
from gcnsim.channel import default_curve_points
from gcnsim.mobility import advance, init_motion
from gcnsim.model import (STREAM_MOBILITY, ChannelSpec, ConfigurationError,
                          MobilitySpec, Scenario, TimingParams, TrafficFlow,
                          TrafficSpec, make_rng)
from gcnsim.packets import Packet
from gcnsim.presets import PRESETS
from gcnsim.protocol import ProtocolError
from test_golden import CASES


def flows(*fl):
    return TrafficSpec(flows=list(fl))


def tx_records(trace, kind):
    return [rec for rec in trace if rec[2] == "tx:" + kind]


# --- determinism ----------------------------------------------------------

def test_identical_runs_have_identical_traces():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    t1, r1 = run_scenario(sc, 3)
    t2, r2 = run_scenario(sc, 3)
    assert trace_hash(t1) == trace_hash(t2)
    assert r1.to_scalars() == r2.to_scalars()


def test_different_seeds_differ():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    t1, _ = run_scenario(sc, 3)
    t2, _ = run_scenario(sc, 4)
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
    trace, report = run_scenario(sc, 0)
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
    trace, _ = run_scenario(sc, 0)
    datas = tx_records(trace, "data")
    assert datas
    # payload + base header + one (dest, mrd) pair
    assert all(rec[5] == 1407 for rec in datas)


def test_smf_data_bytes():
    sc = small_scenario(protocol="smf",
                        traffic=flows(one_to_all_flow(payload_bytes=1400)))
    trace, report = run_scenario(sc, 0)
    datas = tx_records(trace, "data")
    assert datas and all(rec[5] == 1402 for rec in datas)  # payload + TTL header
    assert report.bytes_control == 0
    assert report.smf_ttl >= 1


def test_trace_bytes_match_report_totals():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    trace, report = run_scenario(sc, 1)
    control = sum(rec[5] for rec in trace
                  if rec[2] in ("tx:discovery", "tx:ack"))
    data = sum(rec[5] for rec in trace if rec[2] == "tx:data")
    assert control == report.bytes_control
    assert data == report.bytes_data
    assert report.bytes_total == control + data


# --- clock and scheduling -------------------------------------------------

def test_trace_times_are_monotone_and_bounded():
    sc = small_scenario(traffic=flows(one_to_all_flow()))
    trace, _ = run_scenario(sc, 2)
    times = [rec[0] for rec in trace]
    assert times == sorted(times)
    assert times[-1] <= sc.duration


def test_rediscovery_produces_epochs():
    sc = small_scenario(duration=3.5,
                        timing=TimingParams(rediscovery_period=1.0))
    trace, report = run_scenario(sc, 0)
    discovers = [rec for rec in trace if rec[2] == "discover"]
    assert [rec[4] for rec in discovers] == [0, 1, 2, 3]
    assert sorted(report.relays_per_epoch) == [0, 1, 2, 3]


def test_relay_count_never_decreases_across_epochs():
    sc = small_scenario(duration=5.0, desired_relays=3,
                        timing=TimingParams(rediscovery_period=1.0))
    _, report = run_scenario(sc, 0)
    counts = [report.relays_per_epoch[e] for e in sorted(report.relays_per_epoch)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


# --- delivery accounting --------------------------------------------------

def test_lossfree_one_to_all_delivers_everything():
    sc = small_scenario(source_ttl=3, traffic=flows(one_to_all_flow()))
    _, report = run_scenario(sc, 0)
    assert report.delivery_per_flow and report.delivery_rate == 1.0


def test_delivery_counts_only_intended_recipients():
    sc = small_scenario(traffic=flows(one_to_all_flow(rate=1.0, start=1.0,
                                                      stop=2.0)))
    _, report = run_scenario(sc, 0)
    done, want = report.delivery_per_flow[0]
    assert want == report.num_members - 1  # one packet, all other members
    assert done <= want


def test_targeted_send_before_discovery_counts_noroute():
    sc = small_scenario(duration=2.0, traffic=flows(TrafficFlow(
        pattern="targeted", senders="all_members", dests="source",
        rate=1.0, payload_bytes=100, start=0.0, stop=0.5)))
    trace, report = run_scenario(sc, 0)
    assert report.no_route_drops >= 1
    assert any(rec[2] == "noroute" for rec in trace)
    # the drop still counts against the flow's expected deliveries
    done, want = report.delivery_per_flow[0]
    assert want >= report.no_route_drops


def test_discovered_fraction_reported():
    _, report = run_scenario(small_scenario(), 0)
    assert 0.0 < report.discovered_fraction <= 1.0


# --- connectivity sampling and mobility ----------------------------------

def test_gcn_connectivity_series_sampled_every_second():
    sc = small_scenario(duration=5.0)
    _, report = run_scenario(sc, 0)
    times = [t for t, _ in report.connectivity_series]
    assert times == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert all(0.0 <= f <= 1.0 for _, f in report.connectivity_series)


def test_mobile_run_smoke():
    sc = small_scenario(
        duration=5.0,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=0.0,
                              speed_max=5.0, pause_min=0.0, pause_max=1.0),
        traffic=flows(one_to_all_flow(start=1.0, stop=4.0)))
    trace, report = run_scenario(sc, 0)
    assert report.delivery_per_flow
    assert len(report.connectivity_series) == 5


def test_refresh_packets_counted_as_data():
    base = small_scenario(duration=4.0)
    _, quiet = run_scenario(base, 0)
    sc = small_scenario(duration=4.0,
                        timing=TimingParams(distance_refresh_period=1.0))
    trace, report = run_scenario(sc, 0)
    assert report.bytes_data > quiet.bytes_data
    # refresh packets are unmetered: they never inflate delivery accounting
    assert report.delivery_per_flow == quiet.delivery_per_flow == []


def test_static_flood_builds_the_unit_disk_graph_once(monkeypatch):
    # a static run of either protocol builds one graph at set-up: it prices
    # the channel rows and gives the flood's TTL oracle its hop counts
    built = []
    real = smf_mod.unit_disk_adjacency

    def counting(positions, tx_radius):
        built.append(len(positions))
        return real(positions, tx_radius)

    monkeypatch.setattr(engine_mod, "unit_disk_adjacency", counting)
    monkeypatch.setattr(smf_mod, "unit_disk_adjacency", counting)
    for protocol in ("gcn", "smf"):
        built.clear()
        sc = small_scenario(protocol=protocol, traffic=flows(
            one_to_all_flow(senders="all_members")))
        trace, report = run_scenario(sc, 0)
        assert report.num_members > 1
        assert any(rec[2] == "deliver" for rec in trace)
        assert built == [sc.num_users]
    assert report.smf_ttl >= 1


def test_mobile_flood_builds_one_graph_per_tick(monkeypatch):
    # the channel rows, the flood-TTL oracle and the sample of one tick
    # share one graph, built on the first read after a move
    sc = small_scenario(
        protocol="smf", duration=4.0,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=1.0,
                              speed_max=5.0, pause_min=0.0, pause_max=0.5),
        traffic=flows(one_to_all_flow(senders="all_members", start=1.0, stop=3.0)))
    run = Run(sc, 0)
    real, ticks = smf_mod.unit_disk_adjacency, []

    def counting(positions, tx_radius):
        ticks.append(run._tick)
        return real(positions, tx_radius)

    monkeypatch.setattr(engine_mod, "unit_disk_adjacency", counting)
    monkeypatch.setattr(smf_mod, "unit_disk_adjacency", counting)
    run.run()
    assert run.report.smf_ttl >= 1
    assert ticks == sorted(set(ticks))  # no tick builds two graphs
    assert {10, 20, 30, 40} <= set(ticks)  # every sample reads one
    assert len(ticks) > 4  # transmissions between samples build them too


# --- inline delivery -----------------------------------------------------

class CountingRun(Run):
    """A Run that counts its heap pushes by kind and the transmissions whose
    receptions it ran (consecutive receptions of one packet from one sender)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pushes = Counter()
        self.heard = 0
        self._last = None

    def _push(self, time, kind, a=None, b=None, key=None):
        self.pushes[kind] += 1
        super()._push(time, kind, a, b, key)

    def _receive(self, node_id, pkt, sender):
        if self._last is None or self._last[0] is not pkt or self._last[1] != sender:
            self._last = (pkt, sender)
            self.heard += 1
        super()._receive(node_id, pkt, sender)


class PushingRun(Run):
    """The reference: every transmission heard by anyone pushes one `_RX`
    entry at `now`, which `run` pops and delivers."""

    def _transmit(self, sender, pkt):
        nbytes = pkt.wire_bytes()
        if pkt.kind in ("discovery", "ack"):
            self.report.bytes_control += nbytes
        else:
            self.report.bytes_data += nbytes
        if self.collect_trace:
            info = pkt.ttl if pkt.kind == "discovery" else (
                pkt.smf_ttl if pkt.smf_ttl is not None else
                [m for _, m in pkt.destinations])
            self._record(sender, "tx:" + pkt.kind, pkt.msg_id, info, nbytes)
        if self._mobile:
            self._sync_positions()
        row = self._neighbor_cache.get(sender)
        if row is None:
            row = self._neighbor_cache[sender] = self._neighbor_row(sender)
        hearers = engine_mod.channel_mod.hearers(row, self.channel_rng)
        if hearers:
            self._push(self.now, engine_mod._RX, (pkt, sender), hearers)


def _lossy_static_flood():
    return small_scenario(protocol="smf", channel=ChannelSpec(flat_per=0.25),
                          traffic=flows(one_to_all_flow(senders="all_members")))


@pytest.mark.parametrize("case, both_branches", [
    (CASES["resiliency_no_jitter/gcn/0"], True),
    (CASES["resiliency_no_jitter/smf/1"], False),
    ((_lossy_static_flood(), 0), False),
    (CASES["targeted_mobile/gcn/1"], False)],
    ids=["no_jitter_gcn", "no_jitter_smf", "static_flood", "mobile_gcn"])
def test_inline_delivery_matches_pushing_every_reception(case, both_branches):
    sc, seed = case
    inline, pushing = CountingRun(sc, seed), PushingRun(sc, seed)
    trace, report = inline.run()
    ref_trace, ref_report = pushing.run()
    assert trace_hash(trace) == trace_hash(ref_trace)
    assert report.to_scalars() == ref_report.to_scalars()
    assert inline.channel_rng.getstate() == pushing.channel_rng.getstate()
    if both_branches:
        # without jitter most transmissions share an instant with another
        # event and take the pushed branch; a few still run inline
        assert 0 < inline.pushes[engine_mod._RX] < inline.heard


def test_rx_pushes_are_rare_with_the_default_jitter():
    run = CountingRun(_lossy_static_flood(), 0)
    trace, _ = run.run()
    transmissions = sum(1 for rec in trace if rec[2].startswith("tx:"))
    assert transmissions > 100
    assert run.pushes[engine_mod._RX] <= 0.05 * transmissions
    assert run._seq == sum(run.pushes.values())


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
        for flow_idx, flow in enumerate(sc.traffic.flows):
            senders = ([self.source] if flow.senders == "source"
                       else sorted(self.members))
            if flow.dests == "source":
                senders = [s for s in senders if s != self.source]
            for sender in senders:
                k = 0
                while True:
                    t = flow.start + k / flow.rate
                    if t >= flow.stop:
                        break
                    self._push(t, engine_mod._TRAFFIC, k, (flow_idx, sender))
                    k += 1
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


# --- channel neighbour table ----------------------------------------------

def test_pairwise_table_matches_rows_priced_one_sender_at_a_time():
    curve = default_curve_points()
    for channel, radius in [
            (ChannelSpec(flat_per=None, base_loss=0.1, curve_points=curve), 40.0),
            # past the curve's certain-loss point at 60 m: in-range pairs
            # that can never hear are left out of the rows
            (ChannelSpec(flat_per=None, curve_points=curve), 75.0),
            (ChannelSpec(flat_per=0.2, base_loss=0.3), 40.0)]:
        run = Run(small_scenario(channel=channel, tx_radius=radius), 0)
        assert run._neighbor_cache == {s: run._neighbor_row(s) for s in run.node_ids}
        pers = [per for row in run._neighbor_cache.values() for _, per in row]
        assert any(0.0 < per < 1.0 for per in pers)
        linked = sum(map(len, run._unit_disk.values()))
        if radius > curve[-1][0]:
            assert len(pers) < linked
        else:
            assert len(pers) == linked


def test_mobile_table_holds_only_rows_priced_since_the_last_move():
    sc = small_scenario(
        duration=5.0,
        mobility=MobilitySpec(kind="random_waypoint", speed_min=1.0,
                              speed_max=5.0, pause_min=0.0, pause_max=0.5),
        traffic=flows(one_to_all_flow(start=1.0, stop=4.0, rate=10.0)))
    run = Run(sc, 0)
    assert run._neighbor_cache == {}
    sync = run._sync_positions
    checked = []

    def checking_sync():
        # just before the next move, every cached row is the one the
        # current positions give
        tick, cached = run._tick, len(run._neighbor_cache)
        for sender, row in run._neighbor_cache.items():
            assert row == run._neighbor_row(sender)
        sync()
        if run._tick != tick:
            checked.append(cached)
            assert run._neighbor_cache == {}

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


# --- dispatch --------------------------------------------------------------

@pytest.mark.parametrize("protocol", ["gcn", "smf"])
def test_unknown_packet_kind_is_a_protocol_error(protocol):
    run = Run(small_scenario(protocol=protocol), 0)
    beacon = Packet(kind="beacon", group=0, origin=1, hop_counter=0,
                    msg_id=(1, 1))
    with pytest.raises(ProtocolError, match="beacon"):
        run._receive(0, beacon, 1)
