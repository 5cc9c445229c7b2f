"""Closed-form discovery-reach predictor, brute-force discovery oracle,
connectivity sampling, and cross-seed metric aggregation.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

# bfs_hops is re-exported: the benchmark's layer timers wrap it here
from .geometry import bfs_hops, reached_count, unit_disk_adjacency  # noqa: F401
from .model import STREAM_PLACEMENT, NodeId, Scenario, make_rng, place_nodes


@dataclass
class MetricsReport:
    """Per-run results; scalar views feed the cross-seed aggregator."""
    seed: int = 0
    num_members: int = 0
    delivery_per_flow: list = field(default_factory=list)  # [(delivered, expected)]
    bytes_control: int = 0
    bytes_data: int = 0
    connectivity_series: list = field(default_factory=list)  # [(t, fraction)]
    relays_per_epoch: dict = field(default_factory=dict)
    discovered_fraction: float = 0.0
    no_route_drops: int = 0
    smf_ttl: int = 0

    @property
    def bytes_total(self) -> int:
        return self.bytes_control + self.bytes_data

    @property
    def delivery_rate(self) -> float:
        done = sum(d for d, _ in self.delivery_per_flow)
        want = sum(e for _, e in self.delivery_per_flow)
        return done / want if want else 1.0

    @property
    def connectivity_mean(self) -> float:
        if not self.connectivity_series:
            return 0.0
        return sum(f for _, f in self.connectivity_series) / len(self.connectivity_series)

    def to_scalars(self) -> dict:
        out = {
            "delivery_rate": self.delivery_rate,
            "bytes_control": float(self.bytes_control),
            "bytes_data": float(self.bytes_data),
            "bytes_total": float(self.bytes_total),
            "discovered_fraction": self.discovered_fraction,
            "num_members": float(self.num_members),
        }
        for i, (done, want) in enumerate(self.delivery_per_flow):
            out[f"flow{i}_delivery"] = done / want if want else 1.0
        if self.connectivity_series:
            out["connectivity_mean"] = self.connectivity_mean
        if self.relays_per_epoch:
            out["relays_mean"] = (sum(self.relays_per_epoch.values())
                                  / len(self.relays_per_epoch))
        return out


# --- analytic discovery-reach predictor -----------------------------------

def predict_discovery_fraction(group_prob: float, density: float, tx_radius: float,
                               source_ttl: int) -> float:
    """First-order estimate of the fraction of members found by discovery.

    The estimate is 1 - exp(-P_g * density * pi * (r_eff * T)^2) where
    r_eff is the transmit radius minus the mean-spacing correction
    1/(2*sqrt(density)), a length, floored at zero.  The paper prints the
    correction as 1/(2*density), which at the paper's densities exceeds the
    radius and so would floor r_eff at zero, predicting no reach at all.
    The paper also prints the exponent with a positive sign, which would
    give a value below zero, not a probability.
    """
    r_eff = max(0.0, tx_radius - 1.0 / (2.0 * math.sqrt(density)))
    return 1.0 - math.exp(-group_prob * density * math.pi * (r_eff * source_ttl) ** 2)


# --- brute-force discovery oracle -----------------------------------------

def build_world(sc: Scenario, seed: int):
    """Placement plus source selection for one seed; shared by the engine and
    the oracle so their discovered sets are comparable per seed."""
    rng = make_rng(seed, STREAM_PLACEMENT)
    nodes = place_nodes(sc, rng)
    members = [nid for nid, _, flag in nodes if flag]
    source = rng.choice(members)
    return nodes, source


def discovery_reach_set(positions: dict, members: set, source: NodeId,
                        source_ttl: int, tx_radius: float) -> set:
    """Nodes that hear a loss-free discovery started by `source`.

    Budget propagation on the unit-disk graph, independent of the event
    engine: a member always regenerates at the full budget T; a non-member
    retransmits with one less than the best positive budget it heard.
    """
    adj = unit_disk_adjacency(positions, tx_radius)
    best_out = {source: source_ttl}
    heard = {source}
    heap = [(-source_ttl, source)]
    while heap:
        neg, u = heapq.heappop(heap)
        t = -neg
        if best_out.get(u, -1) != t:
            continue
        for v in adj[u]:
            heard.add(v)
            if v in members:
                out = source_ttl
            elif t > 0:
                out = t - 1
            else:
                continue
            if out > best_out.get(v, -1):
                best_out[v] = out
                heapq.heappush(heap, (-out, v))
    return heard


def discovered_member_fraction(sc: Scenario, seed: int) -> float:
    nodes, source = build_world(sc, seed)
    positions = {nid: pos for nid, pos, _ in nodes}
    members = {nid for nid, _, flag in nodes if flag}
    heard = discovery_reach_set(positions, members, source, sc.source_ttl, sc.tx_radius)
    return len(members & heard) / len(members)


def mc_discovery_oracle(sc: Scenario, trials: int) -> float:
    """Mean discovered-member fraction over `trials` independent placements."""
    return sum(discovered_member_fraction(sc, seed) for seed in range(trials)) / trials


# --- connectivity ---------------------------------------------------------

def connectivity_sample(positions: dict, tx_radius: float, active: set,
                        source: NodeId, members: set) -> float:
    """Fraction of other members reachable from the source through active nodes."""
    others = members - {source}
    if not others:
        return 1.0
    return reached_count(positions, tx_radius, active, source, others) / len(others)


# --- cross-seed aggregation ----------------------------------------------

def aggregate(reports: list) -> dict:
    """Per-metric mean, sample std, and 95% normal-approximation CI."""
    if not reports:
        raise ValueError("no reports to aggregate")
    rows = [r.to_scalars() for r in reports]
    metrics = sorted(set().union(*rows))
    out = {}
    for m in metrics:
        vals = [row[m] for row in rows if m in row]
        n = len(vals)
        mean = sum(vals) / n
        if n > 1:
            var = sum((v - mean) ** 2 for v in vals) / (n - 1)
            std = math.sqrt(var)
        else:
            std = 0.0
        half = 1.96 * std / math.sqrt(n) if n else 0.0
        out[m] = {"mean": mean, "std": std, "ci95_half": half, "n": n}
    return out
