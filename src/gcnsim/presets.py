"""Shipped experiment presets with expected-value regression checks.

Each preset bundles a ready-to-run Scenario and, where a reference value
exists for that configuration, an expected-value list used by the CLI
regression check (metric, expected, tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .channel import default_curve_points
from .model import (ChannelSpec, MobilitySpec, Scenario, TimingParams,
                    TrafficFlow, TrafficSpec)


@dataclass
class Expected:
    metric: str
    value: float
    tolerance: float   # absolute, same units as the metric


@dataclass
class Preset:
    name: str
    description: str
    scenario: Scenario
    expected: list = field(default_factory=list)


def _rwp(speed_max=5.0, pause_max=2.0) -> MobilitySpec:
    return MobilitySpec(kind="random_waypoint", speed_min=0.0, speed_max=speed_max,
                        pause_min=0.0, pause_max=pause_max)


def _build() -> dict:
    presets = {}

    presets["discovery_reach"] = Preset(
        name="discovery_reach",
        description="Discovery reach: 100 static users on a 100 m disk, "
                    "loss-free channel, sparse group (5%), source TTL 3.",
        scenario=Scenario(
            region_radius=100.0, num_users=100, group_prob=0.05,
            tx_radius=40.0, source_ttl=3, desired_relays=1,
            channel=ChannelSpec(flat_per=0.0),
            duration=2.0, seeds=list(range(50)),
        ),
        # reference mean over 50 seeds for P_g=0.05, TTL=3
        expected=[Expected("discovered_fraction", 0.986, 0.03)],
    )

    presets["byte_comparison"] = Preset(
        name="byte_comparison",
        description="Over-the-air byte comparison: 400 users on a 200 m disk, "
                    "members only inside the inner 100 m, 10 x 1400 B "
                    "one-to-all packets from one source.",
        scenario=Scenario(
            region_radius=100.0, outer_radius=200.0, num_users=400,
            group_prob=0.10, tx_radius=40.0, source_ttl=3, desired_relays=1,
            channel=ChannelSpec(flat_per=0.0),
            traffic=TrafficSpec(flows=[TrafficFlow(
                pattern="one_to_all", senders="source", dests="all",
                rate=1.0, payload_bytes=1400, start=1.0, stop=11.0)]),
            duration=12.0, seeds=list(range(50)),
        ),
        expected=[
            # reference total and control-byte share for the relay-based
            # protocol
            Expected("bytes_total", 220_000.0, 88_000.0),
            Expected("bytes_control", 6_500.0, 3_250.0),
        ],
    )

    presets["mobile_connectivity"] = Preset(
        name="mobile_connectivity",
        description="Group connectivity under mobility: 100 users, 25% "
                    "membership, R=2, random waypoint 0-5 m/s with 0-2 s "
                    "pauses, rediscovery every 100 s, sampled every second "
                    "for 1000 s.",
        scenario=Scenario(
            region_radius=100.0, num_users=100, group_prob=0.25,
            tx_radius=40.0, source_ttl=3, desired_relays=2,
            channel=ChannelSpec(flat_per=0.0),
            mobility=_rwp(),
            timing=TimingParams(rediscovery_period=100.0),
            duration=1000.0, seeds=list(range(50)),
        ),
        # reference time-average connectivity with periodic rediscovery
        expected=[Expected("connectivity_mean", 0.99, 0.02)],
    )

    presets["resiliency_sweep"] = Preset(
        name="resiliency_sweep",
        description="Tunable resiliency: 100 static users, 25% membership, "
                    "every member sends 1400 B one-to-all at 1 pkt/s for "
                    "100 s.  Sweep desired_relays and channel.base_loss to "
                    "span the resilience/error grid.",
        scenario=Scenario(
            region_radius=100.0, num_users=100, group_prob=0.25,
            tx_radius=40.0, source_ttl=3, desired_relays=1,
            channel=ChannelSpec(flat_per=0.0, base_loss=0.0),
            traffic=TrafficSpec(flows=[TrafficFlow(
                pattern="one_to_all", senders="all_members", dests="all",
                rate=1.0, payload_bytes=1400, start=1.0, stop=101.0)]),
            duration=102.0, seeds=list(range(50)),
        ),
        # loss-free static baseline, R=1
        expected=[Expected("delivery_rate", 1.0, 0.07)],
    )

    presets["targeted_collection"] = Preset(
        name="targeted_collection",
        description="Targeted flooding: 100 static users, 25% membership, "
                    "R=5, every member sends a 1400 B one-to-one message to "
                    "the source at 1 pkt/s for 100 s under 25% flat loss; "
                    "the source refreshes distances every 2 s.",
        scenario=Scenario(
            region_radius=100.0, num_users=100, group_prob=0.25,
            tx_radius=40.0, source_ttl=3, desired_relays=5, mrd_offset=0,
            channel=ChannelSpec(flat_per=0.0, base_loss=0.25),
            traffic=TrafficSpec(flows=[TrafficFlow(
                pattern="targeted", senders="all_members", dests="source",
                rate=1.0, payload_bytes=1400, start=1.0, stop=101.0)]),
            timing=TimingParams(distance_refresh_period=2.0),
            duration=102.0, seeds=list(range(50)),
        ),
        # regression mean over 50 seeds, medium resiliency at 25% loss
        expected=[Expected("delivery_rate", 0.90, 0.06)],
    )

    presets["full_matrix"] = Preset(
        name="full_matrix",
        description="Full-protocol matrix cell: distance-dependent error "
                    "curve, high resiliency (R=9, MRD offset +1), source "
                    "one-to-all plus member-to-source return traffic.  Sweep "
                    "num_users, group_prob, desired_relays, and "
                    "channel.base_loss for the full matrix.",
        scenario=Scenario(
            region_radius=100.0, num_users=100, group_prob=0.25,
            tx_radius=60.0, source_ttl=3, desired_relays=9, mrd_offset=1,
            channel=ChannelSpec(flat_per=None,
                                curve_points=default_curve_points(),
                                base_loss=0.0),
            traffic=TrafficSpec(flows=[
                TrafficFlow(pattern="one_to_all", senders="source", dests="all",
                            rate=1.0, payload_bytes=1400, start=1.0, stop=101.0),
                TrafficFlow(pattern="targeted", senders="all_members",
                            dests="source", rate=1.0, payload_bytes=1400,
                            start=1.0, stop=101.0),
            ]),
            timing=TimingParams(distance_refresh_period=2.0),
            duration=102.0, seeds=list(range(50)),
        ),
        expected=[],
    )

    return presets


PRESETS = _build()


def get_preset(name: str) -> Preset:
    try:
        return PRESETS[name]
    except KeyError:
        raise KeyError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
