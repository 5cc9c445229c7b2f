"""Scenario configuration, placement statistics, and RNG stream hygiene."""

import hashlib
import json
import math
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnsim.engine import Run
from gcnsim.model import (STREAM_CHANNEL, STREAM_PLACEMENT,
                          ChannelSpec,
                          ConfigurationError, MobilitySpec, Position, Scenario,
                          TimingParams, TrafficFlow, TrafficSpec, make_rng,
                          place_nodes, save_scenario, scenario_from_dict,
                          scenario_to_dict, load_scenario, uniform_disk_point,
                          validate_scenario)
from gcnsim.presets import PRESETS


# --- rng streams ----------------------------------------------------------

def test_make_rng_is_deterministic():
    a = [make_rng(7, STREAM_PLACEMENT).random() for _ in range(5)]
    b = [make_rng(7, STREAM_PLACEMENT).random() for _ in range(5)]
    assert a == b


def test_make_rng_streams_are_distinct():
    assert (make_rng(7, STREAM_PLACEMENT).random()
            != make_rng(7, STREAM_CHANNEL).random())
    assert (make_rng(7, STREAM_PLACEMENT, 0).random()
            != make_rng(7, STREAM_PLACEMENT, 1).random())
    assert (make_rng(7, STREAM_PLACEMENT).random()
            != make_rng(8, STREAM_PLACEMENT).random())


# --- geometry -------------------------------------------------------------

def test_position_distance():
    assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)
    for a, b in [((1.5, -2.25), (-7.0, 0.125)), ((1e3, 1e-3), (-1e3, 3.0))]:
        assert (Position(*a).distance_to(Position(*b))
                == math.hypot(a[0] - b[0], a[1] - b[1]))


def test_position_is_an_immutable_value():
    p = Position(3.0, 4.0)
    with pytest.raises(AttributeError):
        p.x = 1.0
    assert (p.x, p.y) == (3.0, 4.0)
    assert p == Position(3.0, 4.0) and p != Position(4.0, 3.0)
    assert hash(p) == hash(Position(3.0, 4.0))
    assert len({p, Position(3.0, 4.0), Position(0.0, 0.0)}) == 2
    assert repr(p) == "Position(x=3.0, y=4.0)"


def test_uniform_disk_containment_and_mean_radius():
    rng = random.Random(1)
    radius = 50.0
    pts = [uniform_disk_point(rng, radius) for _ in range(20000)]
    center = Position(0.0, 0.0)
    rs = [p.distance_to(center) for p in pts]
    assert max(rs) <= radius
    # E[r] for a uniform disk is (2/3) * radius
    assert sum(rs) / len(rs) == pytest.approx(2.0 / 3.0 * radius, rel=0.01)


def test_uniform_disk_is_radially_uniform():
    # chi-square over 10 equal-area annuli
    rng = random.Random(2)
    n = 20000
    counts = [0] * 10
    for _ in range(n):
        r = uniform_disk_point(rng, 1.0).distance_to(Position(0, 0))
        counts[min(9, int(r * r * 10))] += 1
    expected = n / 10
    chi2 = sum((c - expected) ** 2 / expected for c in counts)
    # 9 dof, 0.999 quantile ~ 27.9
    assert chi2 < 27.9


# --- placement ------------------------------------------------------------

def test_placement_membership_binomial():
    sc = Scenario(num_users=100, group_prob=0.25)
    totals = []
    for seed in range(1000):
        nodes = place_nodes(sc, make_rng(seed, STREAM_PLACEMENT))
        totals.append(sum(1 for _, _, f in nodes if f))
    mean = sum(totals) / len(totals)
    # mean 25, sigma of the mean = sqrt(100*0.25*0.75/1000) ~ 0.137
    assert abs(mean - 25.0) < 1.5


def test_placement_flags_independent_of_radius():
    # membership flag must not correlate with distance from the center
    sc = Scenario(num_users=100, group_prob=0.25)
    pairs = []
    for seed in range(300):
        for _, pos, flag in place_nodes(sc, make_rng(seed, STREAM_PLACEMENT)):
            pairs.append((pos.distance_to(Position(0, 0)), 1.0 if flag else 0.0))
    n = len(pairs)
    mr = sum(r for r, _ in pairs) / n
    mf = sum(f for _, f in pairs) / n
    cov = sum((r - mr) * (f - mf) for r, f in pairs) / n
    sr = math.sqrt(sum((r - mr) ** 2 for r, _ in pairs) / n)
    sf = math.sqrt(sum((f - mf) ** 2 for _, f in pairs) / n)
    assert abs(cov / (sr * sf)) < 0.02


def test_placement_two_disk_members_inner_only():
    sc = Scenario(region_radius=100.0, outer_radius=200.0, num_users=400,
                  group_prob=0.5)
    nodes = place_nodes(sc, make_rng(0, STREAM_PLACEMENT))
    center = Position(0, 0)
    assert any(pos.distance_to(center) > 100.0 for _, pos, _ in nodes)
    for _, pos, flag in nodes:
        if flag:
            assert pos.distance_to(center) <= 100.0


def test_placement_redraws_until_some_member():
    sc = Scenario(num_users=3, group_prob=0.01)
    nodes = place_nodes(sc, make_rng(0, STREAM_PLACEMENT))
    assert any(f for _, _, f in nodes)


def test_placement_zero_prob_raises():
    sc = Scenario(num_users=3, group_prob=0.0)
    with pytest.raises(ConfigurationError):
        place_nodes(sc, make_rng(0, STREAM_PLACEMENT))


# --- validation -----------------------------------------------------------

def test_default_scenario_is_valid():
    assert validate_scenario(Scenario()) == []
    for preset in PRESETS.values():
        assert validate_scenario(preset.scenario) == []


@pytest.mark.parametrize("patch,fragment", [
    (dict(num_users=0), "num_users"),
    (dict(group_prob=1.5), "group_prob"),
    (dict(tx_radius=-1.0), "tx_radius"),
    (dict(source_ttl=0), "source_ttl"),
    (dict(desired_relays=0), "desired_relays"),
    (dict(mrd_offset=2), "mrd_offset"),
    (dict(duration=0.0), "duration"),
    (dict(seeds=[]), "seeds"),
    (dict(protocol="carrier-pigeon"), "protocol"),
    (dict(outer_radius=10.0), "outer_radius"),
    (dict(group_prob=0.0), "group_prob"),
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests="foo", stop=5.0)])), "flows[0].dests"),
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests=[0, 100], stop=5.0)])), "flows[0].dests"),
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        payload_bytes=-5, stop=5.0)])), "flows[0].payload_bytes"),
    (dict(tx_radius=float("nan")), "tx_radius"),
    # a curve beside the default flat_per 0.0, which would win: a loss-free run
    (dict(channel=ChannelSpec(curve_points=[(0.0, 0.5), (40.0, 0.9)])),
     "channel.flat_per"),
    # a targeted flow to nobody would send data and count no recipient
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests=[], stop=5.0)])), "flows[0].dests"),
    # one_to_all goes to every member: other dests would be ignored, and
    # "source" would silently drop the source from the senders
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="one_to_all", dests=[3], stop=5.0)])), "flows[0].dests"),
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="one_to_all", dests="source", stop=5.0)])), "flows[0].dests"),
    # the source never addresses itself, so this flow would send nothing
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", senders="source", dests="source", stop=5.0)])),
     "flows[0].dests"),
    # a repeated id would price a second pair on every copy
    (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", senders="all_members", dests=[0, 0], stop=5.0)])),
     "flows[0].dests"),
    # a channel with no loss model would run loss-free apart from base_loss
    (dict(channel=ChannelSpec(flat_per=None, curve_points=[])),
     "channel.curve_points: must be non-empty"),
    (dict(channel=ChannelSpec(flat_per=None, curve_points=None)),
     "channel.curve_points: must be non-empty"),
])
def test_validate_flags_bad_fields(patch, fragment):
    sc = Scenario(**patch)
    problems = validate_scenario(sc)
    assert any(fragment in p for p in problems)


NAN, INF = float("nan"), float("inf")


def _flow(**kw):
    return TrafficSpec(flows=[TrafficFlow(stop=5.0, **kw)])


@pytest.mark.parametrize("patch,path", [
    (dict(traffic=_flow(rate=INF)), "traffic.flows[0].rate"),
    (dict(traffic=_flow(rate=NAN)), "traffic.flows[0].rate"),
    (dict(traffic=_flow(start=-INF)), "traffic.flows[0].start"),
    (dict(timing=TimingParams(forward_jitter_max=NAN)), "timing.forward_jitter_max"),
    (dict(timing=TimingParams(rediscovery_period=NAN)), "timing.rediscovery_period"),
    (dict(timing=TimingParams(distance_refresh_period=INF)),
     "timing.distance_refresh_period"),
    (dict(duration=NAN), "duration"),
    (dict(duration=INF), "duration"),
    (dict(region_radius=NAN), "region_radius"),
    (dict(region_radius=INF), "region_radius"),
    (dict(outer_radius=NAN), "outer_radius"),
    (dict(outer_radius=INF), "outer_radius"),
    (dict(tx_radius=NAN), "tx_radius"),
    (dict(tx_radius=INF), "tx_radius"),
    (dict(channel=ChannelSpec(base_loss=NAN)), "channel.base_loss"),
    (dict(channel=ChannelSpec(flat_per=None, curve_points=[(10.0, 0.1), (INF, 0.5)])),
     "channel.curve_points[1][0]"),
    (dict(mobility=MobilitySpec(speed_max=INF)), "mobility.speed_max"),
])
def test_validate_rejects_every_non_finite_number(patch, path):
    # validation alone: a scenario like these is never run
    assert f"{path}: must be finite" in validate_scenario(Scenario(**patch))


def test_validate_nested_specs():
    sc = Scenario(channel=ChannelSpec(flat_per=2.0, base_loss=-0.1))
    problems = validate_scenario(sc)
    assert any("flat_per" in p for p in problems)
    assert any("base_loss" in p for p in problems)
    sc = Scenario(channel=ChannelSpec(
        flat_per=None, curve_points=[(10.0, 0.5), (5.0, 0.2)]))
    assert any("curve_points" in p for p in validate_scenario(sc))


def test_validate_traffic_flow_bounds():
    from conftest import one_to_all_flow
    from gcnsim.model import TrafficSpec
    sc = Scenario(duration=5.0, traffic=TrafficSpec(
        flows=[one_to_all_flow(start=4.0, stop=9.0)]))
    assert any("flows[0]" in p for p in validate_scenario(sc))


def test_schedule_holds_one_entry_per_periodic_series():
    # each series pushes its next event when one runs, so set-up pushes one
    # entry per series however many events the run will have
    sc = Scenario(num_users=40, duration=10.0, timing=TimingParams(
        rediscovery_period=0.01, distance_refresh_period=0.01),
        traffic=TrafficSpec(flows=[
            TrafficFlow(senders="source", rate=100.0, start=0.0, stop=10.0),
            TrafficFlow(pattern="targeted", senders="all_members", dests="source",
                        rate=100.0, start=0.0, stop=10.0)]))
    run = Run(sc, 0)
    run._schedule_all()
    # discovery, refresh, the source's flow, every other member's, the sample
    assert len(run.members) > 1
    assert len(run._heap) == run._seq == 3 + len(run.members)
    # so nothing bounds a flow's rate beyond it being finite and positive
    fast = replace(sc, traffic=TrafficSpec(flows=[TrafficFlow(
        senders="all_members", rate=1e9, start=0.0, stop=10.0)]))
    run = Run(fast, 0)
    run._schedule_all()
    assert len(run._heap) == 3 + len(run.members)


# --- serialization --------------------------------------------------------

def test_scenario_round_trip(tmp_path):
    from conftest import one_to_all_flow
    from gcnsim.model import TrafficSpec
    sc = Scenario(num_users=42, group_prob=0.2,
                  channel=ChannelSpec(flat_per=None,
                                      curve_points=[(10.0, 0.0), (20.0, 1.0)]),
                  traffic=TrafficSpec(flows=[one_to_all_flow()]),
                  seeds=[3, 4])
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    loaded = load_scenario(str(path))
    assert loaded == sc


# sha256 of each preset's `scenario_to_dict` as sorted-key JSON; a changed
# digest means the exported scenario files changed
PRESET_DICT_DIGESTS = {
    "byte_comparison": "28745a79cf1f3eec",
    "discovery_reach": "7355932d5f357867",
    "full_matrix": "6cfec6f746b12dcf",
    "mobile_connectivity": "52b457bb1fdaec9b",
    "resiliency_sweep": "161f0a8e12b2aeb5",
    "targeted_collection": "786be0deb8ab36d7",
}


def test_preset_scenario_dicts_are_pinned():
    digests = {name: hashlib.sha256(json.dumps(
        scenario_to_dict(preset.scenario), sort_keys=True).encode()).hexdigest()[:16]
        for name, preset in PRESETS.items()}
    assert digests == PRESET_DICT_DIGESTS


def test_scenario_rejects_unknown_keys():
    data = scenario_to_dict(Scenario())
    data["not_a_field"] = 1
    with pytest.raises(ConfigurationError, match="not_a_field"):
        scenario_from_dict(data)
    data = scenario_to_dict(Scenario())
    data["channel"]["frobnicate"] = 1
    with pytest.raises(ConfigurationError, match="frobnicate"):
        scenario_from_dict(data)


@pytest.mark.parametrize("top_level, channel", [
    (60.0, 60.0),   # equal to the scenario's radius
    (None, 55.0),   # with no top-level radius
    (40.0, 80.0),   # differing from the scenario's radius
], ids=["equal", "alone", "differing"])
def test_a_channel_radius_is_an_unknown_key(top_level, channel):
    # the transmit radius is the scenario's alone
    data = scenario_to_dict(Scenario(tx_radius=top_level or Scenario().tx_radius))
    if top_level is None:
        del data["tx_radius"]
    data["channel"]["tx_radius"] = channel
    with pytest.raises(ConfigurationError,
                       match=re.escape("channel: unknown keys ['tx_radius']")):
        scenario_from_dict(data)


@pytest.mark.parametrize("section, key, value", [
    (None, "members_forward_data", True),
    ("timing", "ack_delay_max", 0.1),
    ("timing", "neighbor_count_window", 0.05),
    ("timing", "refresh_bytes", 20),
], ids=["members_forward_data", "timing.ack_delay_max",
        "timing.neighbor_count_window", "timing.refresh_bytes"])
def test_a_retired_key_is_an_unknown_key(section, key, value):
    # each held one value in every preset, so each is now a constant of the
    # program; a file that still sets one, at its old default, is refused
    data = scenario_to_dict(Scenario())
    (data[section] if section else data)[key] = value
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{section or 'Scenario'}: unknown keys ['{key}']")):
        scenario_from_dict(data)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError, match="invalid JSON"):
        load_scenario(str(path))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 50), pg=st.floats(0.0, 1.0), ttl=st.integers(1, 6))
def test_serialization_round_trip_property(n, pg, ttl):
    sc = Scenario(num_users=n, group_prob=pg, source_ttl=ttl)
    assert scenario_from_dict(json.loads(
        json.dumps(scenario_to_dict(sc)))) == sc
