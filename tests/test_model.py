"""Scenario configuration, placement statistics, and RNG stream hygiene."""

import copy
import hashlib
import json
import math
import random
import re
from dataclasses import asdict, fields, is_dataclass, replace
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcnsim.engine import Run
from gcnsim.model import (STREAM_CHANNEL, STREAM_PLACEMENT,
                          ChannelSpec,
                          ConfigurationError, MobilitySpec, Position, Scenario,
                          TimingParams, TrafficFlow, TrafficSpec, make_rng,
                          place_nodes, save_scenario, scenario_from_dict,
                          load_scenario, uniform_disk_point,
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


def test_uniform_disk_point_is_a_position_of_the_drawn_coordinates():
    for seed in range(20):
        p = uniform_disk_point(random.Random(seed), 50.0)
        rng = random.Random(seed)
        r = 50.0 * math.sqrt(rng.random())
        theta = rng.random() * 2.0 * math.pi
        assert type(p) is Position
        assert p == Position(p.x, p.y)
        assert repr(p) == f"Position(x={p.x!r}, y={p.y!r})"
        assert (p.x, p.y) == (r * math.cos(theta), r * math.sin(theta))


# --- placement ------------------------------------------------------------

def reference_place_nodes(sc: Scenario, rng: random.Random):
    """`place_nodes` as it was before its points skipped NamedTuple's
    constructor and its inner-disk test built no origin `Position`, kept as
    the reference."""
    radius = sc.outer_radius if sc.outer_radius is not None else sc.region_radius
    positions = []
    for _ in range(sc.num_users):
        r = radius * math.sqrt(rng.random())
        theta = rng.random() * 2.0 * math.pi
        positions.append(Position(r * math.cos(theta), r * math.sin(theta)))
    inner = [p.distance_to(Position(0.0, 0.0)) <= sc.region_radius for p in positions]
    while True:
        flags = [inner[i] and rng.random() < sc.group_prob for i in range(sc.num_users)]
        if any(flags):
            return [(i, positions[i], flags[i]) for i in range(sc.num_users)]


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_placement_equals_reference(name):
    sc = PRESETS[name].scenario
    for seed in range(20):
        nodes = place_nodes(sc, make_rng(seed, STREAM_PLACEMENT))
        assert nodes == reference_place_nodes(sc, make_rng(seed, STREAM_PLACEMENT))
        assert all(type(pos) is Position for _, pos, _ in nodes)


def test_placement_node_on_the_inner_radius_can_be_a_member():
    # draws 0.25 and 0.0 put the node at r = 200 * sqrt(0.25) = 100, theta = 0
    sc = Scenario(region_radius=100.0, outer_radius=200.0, num_users=1,
                  group_prob=0.5)
    draws = SimpleNamespace(random=iter([0.25, 0.0, 0.0]).__next__)
    [(_, pos, flag)] = place_nodes(sc, draws)
    assert pos == Position(100.0, 0.0)
    assert flag


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


BAD_FIELDS = {
    "num_users_zero": (dict(num_users=0), "num_users"),
    "group_prob_above_one": (dict(group_prob=1.5), "group_prob"),
    "tx_radius_negative": (dict(tx_radius=-1.0), "tx_radius"),
    "source_ttl_zero": (dict(source_ttl=0), "source_ttl"),
    "desired_relays_zero": (dict(desired_relays=0), "desired_relays"),
    "mrd_offset_two": (dict(mrd_offset=2), "mrd_offset"),
    "duration_zero": (dict(duration=0.0), "duration"),
    "seeds_empty": (dict(seeds=[]), "seeds"),
    "seeds_repeated": (dict(seeds=[0, 0]), "seeds: must be distinct"),
    "protocol_unknown": (dict(protocol="carrier-pigeon"), "protocol"),
    "outer_radius_inside_region": (dict(outer_radius=10.0), "outer_radius"),
    "group_prob_zero": (dict(group_prob=0.0), "group_prob"),
    "dests_a_string": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests="foo", stop=5.0)])), "flows[0].dests"),
    "dests_out_of_range": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests=[0, 100], stop=5.0)])), "flows[0].dests"),
    "payload_negative": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        payload_bytes=-5, stop=5.0)])), "flows[0].payload_bytes"),
    # the first packet would fall before the clock starts at 0
    "start_negative": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        start=-0.5, stop=5.0)])), "traffic.flows[0].start: must be >= 0"),
    "tx_radius_nan": (dict(tx_radius=float("nan")), "tx_radius"),
    # a curve beside the default flat_per 0.0, which would win: a loss-free run
    "curve_beside_flat_per": (
        dict(channel=ChannelSpec(curve_points=[(0.0, 0.5), (40.0, 0.9)])),
        "channel.flat_per"),
    # a targeted flow to nobody would send data and count no recipient
    "targeted_dests_empty": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests=[], stop=5.0)])), "flows[0].dests"),
    # one_to_all goes to every member: other dests would be ignored, and
    # "source" would silently drop the source from the senders
    "one_to_all_dests_listed": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="one_to_all", dests=[3], stop=5.0)])), "flows[0].dests"),
    "one_to_all_dests_source": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="one_to_all", dests="source", stop=5.0)])), "flows[0].dests"),
    # the source never addresses itself, so this flow would send nothing
    "source_addresses_itself": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", senders="source", dests="source", stop=5.0)])),
        "flows[0].dests"),
    # a repeated id would price a second pair on every copy
    "dests_repeated": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", senders="all_members", dests=[0, 0], stop=5.0)])),
        "flows[0].dests"),
    # a channel with no loss model would run loss-free apart from base_loss
    "curve_points_empty": (dict(channel=ChannelSpec(flat_per=None, curve_points=[])),
                           "channel.curve_points: must be non-empty"),
    "curve_points_none": (dict(channel=ChannelSpec(flat_per=None, curve_points=None)),
                          "channel.curve_points: must be non-empty"),
    # a float count or size would run, or fail only later, in `range()`
    "num_users_float": (dict(num_users=30.0), "num_users: must be an integer"),
    "num_users_bool": (dict(num_users=True), "num_users: must be an integer"),
    "source_ttl_float": (dict(source_ttl=2.5), "source_ttl: must be an integer"),
    "source_ttl_bool": (dict(source_ttl=True), "source_ttl: must be an integer"),
    "desired_relays_float": (dict(desired_relays=2.0),
                             "desired_relays: must be an integer"),
    "desired_relays_bool": (dict(desired_relays=True),
                            "desired_relays: must be an integer"),
    "mrd_offset_float": (dict(mrd_offset=0.0), "mrd_offset: must be an integer"),
    "mrd_offset_bool": (dict(mrd_offset=False), "mrd_offset: must be an integer"),
    "seed_float": (dict(seeds=[0.5]), "seeds[0]: must be an integer"),
    "seed_bool": (dict(seeds=[0, True]), "seeds[1]: must be an integer"),
    "payload_float": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        payload_bytes=100.5, stop=5.0)])),
        "traffic.flows[0].payload_bytes: must be an integer"),
    "payload_bool": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        payload_bytes=True, stop=5.0)])),
        "traffic.flows[0].payload_bytes: must be an integer"),
    # a value of the wrong kind is listed, not compared by the range checks
    "num_users_string": (dict(num_users="30"), "num_users: must be an integer"),
    "group_prob_string": (dict(group_prob="0.1"), "group_prob: must be a number"),
    "group_prob_bool": (dict(group_prob=True), "group_prob: must be a number"),
    "seeds_an_int": (dict(seeds=5), "seeds: must be a list of integers"),
    "tx_radius_none": (dict(tx_radius=None), "tx_radius: must be a number"),
    "outer_radius_string": (dict(outer_radius="200"),
                            "outer_radius: must be a number or null"),
    "rate_string": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        rate="2", stop=5.0)])), "traffic.flows[0].rate: must be a number"),
    "speed_max_none": (dict(mobility=MobilitySpec(speed_max=None)),
                       "mobility.speed_max: must be a number"),
    "curve_point_string": (dict(channel=ChannelSpec(
        flat_per=None, curve_points=[("10", 0.5)])),
        "channel.curve_points: must be a list of (distance, per) pairs"),
    # a bool is no node id: the run would address node 1
    "dests_a_bool": (dict(traffic=TrafficSpec(flows=[TrafficFlow(
        pattern="targeted", dests=[True, 3], stop=5.0)])), "flows[0].dests"),
    # flows built in code are listed, not raised on
    "flows_not_a_list": (dict(traffic=TrafficSpec(flows=5)),
                         "traffic.flows: must be a list of flows"),
    "flow_not_a_flow": (dict(traffic=TrafficSpec(flows=[5])),
                        "traffic.flows[0]: must be a flow"),
    # a nested spec built in code as None or a number is listed, not read
    "channel_none": (dict(channel=None), "channel: must be an object"),
    "channel_an_int": (dict(channel=5), "channel: must be an object"),
    "timing_none": (dict(timing=None), "timing: must be an object"),
    "mobility_none": (dict(mobility=None), "mobility: must be an object"),
    "traffic_none": (dict(traffic=None), "traffic: must be an object"),
}


@pytest.mark.parametrize("patch,fragment", BAD_FIELDS.values(), ids=BAD_FIELDS)
def test_validate_flags_bad_fields(patch, fragment):
    sc = Scenario(**patch)
    problems = validate_scenario(sc)
    assert any(fragment in p for p in problems)


NAN, INF = float("nan"), float("inf")


def _flow(**kw):
    return TrafficSpec(flows=[TrafficFlow(stop=5.0, **kw)])


NON_FINITE = {
    "rate_inf": (dict(traffic=_flow(rate=INF)), "traffic.flows[0].rate"),
    "rate_nan": (dict(traffic=_flow(rate=NAN)), "traffic.flows[0].rate"),
    "start_minus_inf": (dict(traffic=_flow(start=-INF)), "traffic.flows[0].start"),
    "forward_jitter_max_nan": (dict(timing=TimingParams(forward_jitter_max=NAN)),
                               "timing.forward_jitter_max"),
    "rediscovery_period_nan": (dict(timing=TimingParams(rediscovery_period=NAN)),
                               "timing.rediscovery_period"),
    "distance_refresh_period_inf": (dict(timing=TimingParams(distance_refresh_period=INF)),
                                    "timing.distance_refresh_period"),
    "duration_nan": (dict(duration=NAN), "duration"),
    "duration_inf": (dict(duration=INF), "duration"),
    "region_radius_nan": (dict(region_radius=NAN), "region_radius"),
    "region_radius_inf": (dict(region_radius=INF), "region_radius"),
    "outer_radius_nan": (dict(outer_radius=NAN), "outer_radius"),
    "outer_radius_inf": (dict(outer_radius=INF), "outer_radius"),
    "tx_radius_nan": (dict(tx_radius=NAN), "tx_radius"),
    "tx_radius_inf": (dict(tx_radius=INF), "tx_radius"),
    "base_loss_nan": (dict(channel=ChannelSpec(base_loss=NAN)), "channel.base_loss"),
    "curve_point_distance_inf": (
        dict(channel=ChannelSpec(flat_per=None, curve_points=[(10.0, 0.1), (INF, 0.5)])),
        "channel.curve_points[1][0]"),
    "speed_max_inf": (dict(mobility=MobilitySpec(speed_max=INF)), "mobility.speed_max"),
}


@pytest.mark.parametrize("patch,path", NON_FINITE.values(), ids=NON_FINITE)
def test_validate_rejects_every_non_finite_number(patch, path):
    # validation alone: a scenario like these is never run
    assert f"{path}: must be finite" in validate_scenario(Scenario(**patch))


# a scenario with one flow; the two tests below set each field of it in turn
ONE_FLOW = Scenario(traffic=TrafficSpec(flows=[TrafficFlow(stop=5.0)]))


def _leaf_fields(spec, path=""):
    """(path, owner, name, annotation) of each field under `spec` that holds
    neither a nested spec nor the flows, walked into field by field."""
    for f in fields(spec):
        value, sub = getattr(spec, f.name), path + f.name
        if is_dataclass(value):
            yield from _leaf_fields(value, sub + ".")
        elif f.name == "flows":
            for i, flow in enumerate(value):
                yield from _leaf_fields(flow, f"{sub}[{i}].")
        else:
            yield sub, spec, f.name, f.type


def _set(path, value):
    """A copy of ONE_FLOW with the field at `path` set to `value`."""
    sc = copy.deepcopy(ONE_FLOW)
    [(owner, name)] = [(o, n) for p, o, n, _ in _leaf_fields(sc) if p == path]
    setattr(owner, name, value)
    return sc


NUMBER_FIELDS = [p for p, _, _, a in _leaf_fields(ONE_FLOW)
                 if a in ("int", "float", "Optional[float]")]
FLOAT_FIELDS = [p for p, _, _, a in _leaf_fields(ONE_FLOW)
                if a in ("float", "Optional[float]")]


def test_every_number_field_is_walked():
    # a field added later is checked with no new row; these had no row
    assert {"mobility.pause_min", "timing.distance_refresh_period",
            "traffic.flows[0].payload_bytes"} <= set(NUMBER_FIELDS)
    assert validate_scenario(ONE_FLOW) == []


@pytest.mark.parametrize("path", NUMBER_FIELDS)
def test_a_string_in_any_number_field_is_listed_at_its_path(path):
    assert [p.split(": ")[0] for p in validate_scenario(_set(path, "1"))] == [path]


@pytest.mark.parametrize("path", FLOAT_FIELDS)
def test_a_nan_in_any_float_field_is_listed_at_its_path(path):
    assert f"{path}: must be finite" in validate_scenario(_set(path, NAN))


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


# sha256 of each preset's `asdict` as sorted-key JSON; a changed
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
        asdict(preset.scenario), sort_keys=True).encode()).hexdigest()[:16]
        for name, preset in PRESETS.items()}
    assert digests == PRESET_DICT_DIGESTS


def test_scenario_rejects_unknown_keys():
    data = asdict(Scenario())
    data["not_a_field"] = 1
    with pytest.raises(ConfigurationError, match="not_a_field"):
        scenario_from_dict(data)
    data = asdict(Scenario())
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
    data = asdict(Scenario(tx_radius=top_level or Scenario().tx_radius))
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
    data = asdict(Scenario())
    (data[section] if section else data)[key] = value
    with pytest.raises(ConfigurationError, match=re.escape(
            f"{section or 'Scenario'}: unknown keys ['{key}']")):
        scenario_from_dict(data)


@pytest.mark.parametrize("section, key, value", [
    ("traffic", "flows", 5),
], ids=["flows_an_int"])
def test_a_misshapen_list_is_a_configuration_error(section, key, value):
    # flows must be built, so a file whose flows are no list does not load
    data = asdict(Scenario())
    data[section][key] = value
    with pytest.raises(ConfigurationError, match=re.escape(f"{section}.{key}: expected")):
        scenario_from_dict(data)


MISSHAPEN_CURVES = {
    "curve_points_an_int": 5,
    "curve_point_a_string": [["a", 0.5]],
    "curve_point_a_triple": [[10.0, 0.5, 0.9]],
    "curve_point_a_bool": [[True, 0.5]],
    "curve_point_a_string_number": [["10", 0.5]],
}


@pytest.mark.parametrize("value", MISSHAPEN_CURVES.values(), ids=MISSHAPEN_CURVES)
def test_a_misshapen_curve_loads_and_is_listed(value):
    # the loader keeps the points as written, and validation judges them
    data = asdict(Scenario(channel=ChannelSpec(flat_per=None)))
    data["channel"]["curve_points"] = value
    assert validate_scenario(scenario_from_dict(data)) == [
        "channel.curve_points: must be a list of (distance, per) pairs"]


def test_a_curve_loads_as_written():
    data = asdict(Scenario(channel=ChannelSpec(flat_per=None)))
    data["channel"]["curve_points"] = [[10, 0.0], [20.5, 1]]
    sc = scenario_from_dict(data)
    assert sc.channel.curve_points == [(10, 0.0), (20.5, 1)]
    assert [type(v) for pt in sc.channel.curve_points for v in pt] == [int, float, float, int]
    assert validate_scenario(sc) == []


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
        json.dumps(asdict(sc)))) == sc
