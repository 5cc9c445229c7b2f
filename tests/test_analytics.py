"""Analytic reach predictor, brute-force discovery oracle, connectivity
sampling, and cross-seed aggregation."""

import math

import pytest

from conftest import line_positions, small_scenario
from gcnsim.analytics import (MetricsReport, aggregate, build_world,
                              connectivity_sample, discovered_member_fraction,
                              discovery_reach_set, mc_discovery_oracle,
                              predict_discovery_fraction)

DENSITY = 100.0 / (math.pi * 100.0 ** 2)  # 100 users on a 100 m disk


# --- predictor ------------------------------------------------------------

def test_predictor_frozen_reference_value():
    # independently derived: lambda = 1/(100 pi), correction 1/(2 sqrt(lambda))
    # = 8.8623, r_eff = 31.1377, magnitude = 0.05 * lambda * pi * (3 r_eff)^2
    got = predict_discovery_fraction(0.05, DENSITY, 40.0, 3)
    assert got == pytest.approx(0.9872600460303115, abs=1e-12)


def test_predictor_zero_ttl_limit():
    assert predict_discovery_fraction(0.05, DENSITY, 40.0, 0) == 0.0


def test_predictor_monotone_in_ttl_and_group_prob():
    vals = [predict_discovery_fraction(0.1, DENSITY, 40.0, t)
            for t in range(1, 6)]
    assert vals == sorted(vals)
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert (predict_discovery_fraction(0.25, DENSITY, 40.0, 2)
            > predict_discovery_fraction(0.05, DENSITY, 40.0, 2))


# --- discovery oracle on crafted graphs -----------------------------------

def test_reach_on_line_single_member():
    # budget walk: source T=2 -> 1 -> 0 -> (one last hop heard, not forwarded)
    positions = line_positions(7, spacing=30.0)
    heard = discovery_reach_set(positions, {0}, 0, 2, tx_radius=30.0)
    assert heard == {0, 1, 2, 3}


def test_reach_on_line_regeneration_extends():
    # a member at hop 3 regenerates the full budget, pushing three hops further
    positions = line_positions(8, spacing=30.0)
    heard = discovery_reach_set(positions, {0, 3}, 0, 2, tx_radius=30.0)
    assert heard == {0, 1, 2, 3, 4, 5, 6}


def test_reach_is_order_free_max_budget():
    # node 2 can be reached with budget 0 (via 1) or regenerated budget via 3;
    # the bigger budget must win regardless of exploration order
    positions = line_positions(6, spacing=30.0)
    heard = discovery_reach_set(positions, {0, 2}, 0, 1, tx_radius=30.0)
    # 0(T=1) -> 1 hears (out 0) -> 2 hears; member 2 regenerates (out 1)
    # -> 3 hears (out 0) -> 4 hears; 5 is out of reach
    assert heard == {0, 1, 2, 3, 4}


def test_oracle_fraction_deterministic_and_bounded():
    sc = small_scenario(num_users=60, group_prob=0.25, source_ttl=2,
                        region_radius=100.0)
    a = discovered_member_fraction(sc, 11)
    assert a == discovered_member_fraction(sc, 11)
    assert 0.0 < a <= 1.0
    mean = mc_discovery_oracle(sc, 10)
    assert 0.0 < mean <= 1.0


def test_build_world_source_is_member_and_stable():
    sc = small_scenario()
    nodes1, source1 = build_world(sc, 5)
    nodes2, source2 = build_world(sc, 5)
    assert nodes1 == nodes2 and source1 == source2
    members = {nid for nid, _, flag in nodes1 if flag}
    assert source1 in members


# --- connectivity sampling ------------------------------------------------

def test_connectivity_full_chain():
    # the active set is relays plus members, as the engine samples it
    positions = line_positions(5, spacing=30.0)
    frac = connectivity_sample(positions, 30.0, active={1, 2, 3, 4},
                               source=0, members={0, 4})
    assert frac == 1.0


def test_connectivity_broken_chain():
    positions = line_positions(5, spacing=30.0)
    frac = connectivity_sample(positions, 30.0, active={1, 3, 4},  # hole at 2
                               source=0, members={0, 4})
    assert frac == 0.0


def test_connectivity_partial():
    # two members: one adjacent to the source, one behind a missing relay
    positions = line_positions(5, spacing=30.0)
    frac = connectivity_sample(positions, 30.0, active={1, 4},
                               source=0, members={0, 1, 4})
    assert frac == pytest.approx(0.5)


def test_connectivity_lone_member_is_trivially_connected():
    positions = line_positions(3, spacing=30.0)
    assert connectivity_sample(positions, 30.0, set(), 0, {0}) == 1.0


# --- aggregation ----------------------------------------------------------

def test_aggregate_mean_std_ci():
    reports = []
    for seed, (done, want) in enumerate([(8, 10), (9, 10), (10, 10)]):
        reports.append(MetricsReport(seed=seed, delivery_per_flow=[(done, want)],
                                     bytes_control=100, bytes_data=seed * 100))
    out = aggregate(reports)
    assert out["delivery_rate"]["mean"] == pytest.approx(0.9)
    assert out["delivery_rate"]["std"] == pytest.approx(0.1)
    assert out["delivery_rate"]["n"] == 3
    assert out["delivery_rate"]["ci95_half"] == pytest.approx(
        1.96 * 0.1 / math.sqrt(3))
    assert out["bytes_total"]["mean"] == pytest.approx(200.0)


def test_aggregate_empty_raises():
    with pytest.raises(ValueError):
        aggregate([])


def test_report_scalar_views():
    r = MetricsReport(delivery_per_flow=[], bytes_control=7, bytes_data=13)
    assert r.delivery_rate == 1.0  # no metered traffic counts as clean
    assert r.bytes_total == 20
    r2 = MetricsReport(connectivity_series=[(1.0, 0.5), (2.0, 1.0)])
    assert r2.connectivity_mean == pytest.approx(0.75)
    assert "connectivity_mean" in r2.to_scalars()
    assert "connectivity_mean" not in r.to_scalars()
