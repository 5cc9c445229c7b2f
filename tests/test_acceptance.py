"""End-to-end acceptance criteria.

Each test evaluates one numbered criterion and prints exactly one
"CRITERION n: PASS/FAIL" line with the measured values at the stated
tolerances.  A FAIL here is a real simulator result — the bands are asserted
as given, never loosened.  The README documents the analysis for the cells
this implementation cannot attain.

Reference batches use 50 seeds.  By default the heavier criteria run a
reduced seed batch (noted per test) so the suite stays tractable; set
GCNSIM_FULL=1 to run every criterion at the full 50 seeds.
"""

import math
import os
import time
from dataclasses import replace

import pytest

from gcnsim.analytics import (discovered_member_fraction,
                              discovery_reach_set, mc_discovery_oracle,
                              predict_discovery_fraction)
from gcnsim.cli import run_batch
from gcnsim.engine import Run, run_scenario, trace_hash
from gcnsim.geometry import bfs_hops, unit_disk_adjacency
from gcnsim.model import MobilitySpec, TimingParams
from gcnsim.presets import get_preset
from gcnsim.protocol import BecomeRelay

FULL = os.environ.get("GCNSIM_FULL") == "1"


def seeds(fast_count: int) -> list:
    return list(range(50 if FULL else fast_count))


def batch(scenario, seed_list):
    """Reports in `seed_list` order, run as the CLI runs a job list."""
    return [report for _, _, report in run_batch(
        [(scenario, seed, False) for seed in seed_list])]


def mean(values):
    return sum(values) / len(values)


def cell_means(cells: dict, seed_list: list) -> dict:
    """Each cell's (mean delivery, mean bytes) over `seed_list`, for a dict of
    cell -> scenario.  Every run of every cell is a job of one `run_batch`
    call, so no worker idles while another finishes a cell's last seed."""
    results = iter(run_batch([(sc, seed, False) for sc in cells.values()
                              for seed in seed_list]))
    out = {}
    for key in cells:
        reports = [next(results)[2] for _ in seed_list]
        out[key] = (mean([r.delivery_rate for r in reports]),
                    mean([r.bytes_total for r in reports]))
    return out


def finish(n: int, checks: list) -> None:
    """checks: list of (label, ok, detail).  Prints the one-line verdict."""
    ok = all(c[1] for c in checks)
    print(f"CRITERION {n}: {'PASS' if ok else 'FAIL'} "
          f"({sum(1 for c in checks if c[1])}/{len(checks)} checks)")
    for label, good, detail in checks:
        print(f"  [{'ok' if good else 'MISS'}] {label}: {detail}")
    assert ok, f"criterion {n}: " + "; ".join(
        f"{label} ({detail})" for label, good, detail in checks if not good)


def test_criterion_1_discovery_reach():
    # 100 users / 100 m / X=40 m, engine runs, always the full 50 seeds
    t0 = time.time()
    base = get_preset("discovery_reach").scenario
    checks = []
    for pg, ttl, want, tol in ((0.05, 3, 0.986, 0.03), (0.25, 2, 0.998, 0.015)):
        sc = replace(base, group_prob=pg, source_ttl=ttl)
        got = mean([r.discovered_fraction for r in batch(sc, list(range(50)))])
        checks.append((f"P_g={pg} T={ttl}", abs(got - want) <= tol,
                       f"mean {got:.4f} vs {want}±{tol}"))
    elapsed = time.time() - t0
    checks.append(("runtime", elapsed < 60.0, f"{elapsed:.1f} s (< 60 s)"))
    finish(1, checks)


def test_criterion_2_predictor_fit():
    # analytic estimate vs Monte-Carlo oracle over the reach grid,
    # negative-exponent reading, 300 oracle placements per cell
    base = get_preset("discovery_reach").scenario
    density = base.num_users / (math.pi * base.region_radius ** 2)
    trials = 300
    checks = []
    for pg in (0.05, 0.10, 0.25):
        for ttl in (1, 2, 3, 4):
            sc = replace(base, group_prob=pg, source_ttl=ttl)
            oracle = mc_discovery_oracle(sc, trials)
            pred = predict_discovery_fraction(pg, density, base.tx_radius, ttl)
            gap = abs(oracle - pred)
            checks.append((f"P_g={pg} T={ttl}", gap <= 0.07,
                           f"oracle {oracle:.3f} pred {pred:.3f} gap {gap:.3f}"))
    finish(2, checks)


def test_criterion_3_byte_comparison():
    # 400 users, two-disk layout, 10 x 1400 B one-to-all packets.
    # The relay protocol runs the full 50 seeds (its total sits near the
    # window edge); the flood baseline batch is reduced by default.
    sc = get_preset("byte_comparison").scenario
    gcn_seeds = list(range(50))
    smf_seeds = seeds(10)
    gcn = batch(sc, gcn_seeds)
    smf = batch(replace(sc, protocol="smf"), smf_seeds)
    gcn_total = mean([r.bytes_total for r in gcn])
    gcn_control = mean([r.bytes_control for r in gcn])
    smf_total = mean([r.bytes_total for r in smf])
    by_seed = {r.seed: r.bytes_total for r in gcn}
    ratio = mean([r.bytes_total / by_seed[r.seed] for r in smf])
    checks = [
        ("relay total", abs(gcn_total - 220e3) <= 0.40 * 220e3,
         f"{gcn_total / 1e3:.1f} KB vs 220 KB ±40%"),
        ("relay control", abs(gcn_control - 6.5e3) <= 0.50 * 6.5e3,
         f"{gcn_control / 1e3:.2f} KB vs 6.5 KB ±50%"),
        ("flood total", abs(smf_total - 2001e3) <= 0.40 * 2001e3,
         f"{smf_total / 1e3:.0f} KB vs 2001 KB ±40%"),
        ("flood/relay ratio", ratio >= 5.0, f"{ratio:.2f} (>= 5)"),
    ]
    finish(3, checks)


def test_criterion_4_connectivity():
    # RWP 0-5 m/s, 1000 s; reduced batch is 6 seeds
    sc = get_preset("mobile_connectivity").scenario
    ss = seeds(6)
    periodic = mean([r.connectivity_mean for r in batch(sc, ss)])
    single = mean([r.connectivity_mean for r in batch(
        replace(sc, timing=TimingParams()), ss)])
    checks = [
        ("periodic rediscovery", periodic >= 0.97,
         f"time-average {periodic:.4f} (>= 0.99 - 2pp)"),
        ("single discovery", single >= 0.88,
         f"time-average {single:.4f} (>= 0.92 - 4pp)"),
    ]
    finish(4, checks)


def test_criterion_5_tunable_resiliency():
    # flat-PER grid over R x PER; reduced batch is 3 seeds per cell
    base = get_preset("resiliency_sweep").scenario
    ss = seeds(3)
    pers = (0.0, 0.25, 0.50)
    rwp = MobilitySpec(kind="random_waypoint", speed_min=0.0, speed_max=5.0,
                       pause_min=0.0, pause_max=2.0)

    def scenario(R, per, mobile=False, protocol="gcn"):
        return replace(base, desired_relays=R, protocol=protocol,
                       channel=replace(base.channel, base_loss=per),
                       mobility=rwp if mobile else base.mobility)

    cells = cell_means(
        {**{("gcn", R, per): scenario(R, per) for R in (1, 3, 5) for per in pers},
         **{("mobile", per): scenario(5, per, mobile=True) for per in pers},
         **{("smf", per): scenario(1, per, protocol="smf") for per in pers}}, ss)
    gcn = {(R, per): cells["gcn", R, per] for R in (1, 3, 5) for per in pers}
    mob = {per: cells["mobile", per] for per in pers}
    smf = {per: cells["smf", per] for per in pers}

    checks = []
    for per, want in zip(pers, (1.00, 0.71, 0.41)):
        d = gcn[(1, per)][0]
        checks.append((f"R=1 PER={per:.0%}", abs(d - want) <= 0.07,
                       f"delivery {d:.3f} vs {want}±0.07"))
    for per, want in zip((0.25, 0.50), (0.97, 0.92)):
        d = gcn[(3, per)][0]
        checks.append((f"R=3 PER={per:.0%}", abs(d - want) <= 0.05,
                       f"delivery {d:.3f} vs {want}±0.05"))
    worst_static = min(gcn[(5, per)][0] for per in pers)
    checks.append(("R=5 static", worst_static >= 0.98,
                   f"worst delivery {worst_static:.3f} (>= 0.98)"))
    worst_mobile = min(mob[per][0] for per in pers)
    checks.append(("R=5 mobile", worst_mobile >= 0.95,
                   f"worst delivery {worst_mobile:.3f} (>= 0.95)"))
    worst_ratio = max(gcn[(1, per)][1] / smf[per][1] for per in pers)
    checks.append(("R=1 bytes <= flood/10", worst_ratio <= 0.10,
                   f"worst relay/flood byte ratio {worst_ratio:.3f}"))
    r5 = gcn[(5, 0.50)][1]
    cap = (smf[0.50][1] / 3.0) * 1.30
    checks.append(("R=5 bytes @50% <= flood/3 +30%", r5 <= cap,
                   f"{r5 / 1e6:.1f} MB vs cap {cap / 1e6:.1f} MB"))
    for R in (1, 3, 5):
        vals = [gcn[(R, per)][1] for per in pers]
        spread = max(vals) / min(vals)
        checks.append((f"R={R} byte constancy", spread <= 1.30,
                       f"max/min {spread:.2f} (<= 1.3)"))
    finish(5, checks)


def test_criterion_6_targeted_flooding():
    # member -> source collection under the MRD rule; reduced batch 3 seeds
    base = get_preset("targeted_collection").scenario
    ss = seeds(3)
    rwp = MobilitySpec(kind="random_waypoint", speed_min=0.0, speed_max=5.0,
                       pause_min=0.0, pause_max=2.0)

    def scenario(offset, loss, mobile=False, protocol="gcn"):
        return replace(base, mrd_offset=offset, protocol=protocol,
                       channel=replace(base.channel, base_loss=loss),
                       mobility=rwp if mobile else base.mobility)

    cells = cell_means(
        {"med25": scenario(0, 0.25), "high50": scenario(1, 0.50),
         "low25": scenario(-1, 0.25), "high25": scenario(1, 0.25),
         **{("mobile", loss): scenario(1, loss, mobile=True)
            for loss in (0.0, 0.25, 0.50)},
         "smf25": scenario(0, 0.25, protocol="smf")}, ss)
    med25, high50, low25, high25, smf25 = (
        cells[k] for k in ("med25", "high50", "low25", "high25", "smf25"))
    mob = {loss: cells["mobile", loss] for loss in (0.0, 0.25, 0.50)}

    checks = [
        ("static medium @25%", abs(med25[0] - 0.99) <= 0.03,
         f"delivery {med25[0]:.3f} vs 0.99±0.03"),
        ("static high @50%", abs(high50[0] - 0.95) <= 0.04,
         f"delivery {high50[0]:.3f} vs 0.95±0.04"),
    ]
    for loss, want in zip((0.0, 0.25, 0.50), (0.99, 0.96, 0.87)):
        d = mob[loss][0]
        checks.append((f"mobile high @{loss:.0%}", abs(d - want) <= 0.05,
                       f"delivery {d:.3f} vs {want}±0.05"))
    eighth, fifth = smf25[1] / 8.0, smf25[1] / 5.0
    checks.append(("low bytes <= flood/8", low25[1] <= eighth,
                   f"{low25[1] / 1e6:.1f} MB vs {eighth / 1e6:.1f} MB"))
    for name, val in (("medium", med25[1]), ("high", high25[1])):
        checks.append((f"{name} bytes in [flood/8, flood/5]",
                       eighth <= val <= fifth,
                       f"{val / 1e6:.1f} MB vs "
                       f"[{eighth / 1e6:.1f}, {fifth / 1e6:.1f}] MB"))
    finish(6, checks)


def test_criterion_7_full_matrix():
    # synthetic-curve matrix, qualitative checks only; reduced batch 3 seeds
    base = get_preset("full_matrix").scenario
    ss = seeds(3)
    losses = (0.0, 0.25, 0.50)
    sparse = replace(base, num_users=50, group_prob=0.10,
                     channel=replace(base.channel, base_loss=0.25),
                     mobility=MobilitySpec(kind="random_waypoint",
                                           speed_min=0.0, speed_max=5.0,
                                           pause_min=0.0, pause_max=2.0))
    cells = cell_means(
        {**{(R, loss): replace(base, desired_relays=R,
                               channel=replace(base.channel, base_loss=loss))
            for R in (3, 6, 9) for loss in losses},
         **{("smf", loss): replace(base, protocol="smf",
                                   channel=replace(base.channel, base_loss=loss))
            for loss in losses},
         "sparse3": replace(sparse, desired_relays=3),
         "sparse6": replace(sparse, desired_relays=6)}, ss)
    gcn = {(R, loss): cells[R, loss] for R in (3, 6, 9) for loss in losses}
    smf = {loss: cells["smf", loss] for loss in losses}

    checks = []
    worst = min(gcn[(9, loss)][0] for loss in losses)
    checks.append(("(a) R=9 static delivery", worst >= 0.95,
                   f"worst over curves {worst:.3f} (>= 0.95)"))
    monotone = all(gcn[(3, loss)][0] <= gcn[(6, loss)][0] <= gcn[(9, loss)][0]
                   for loss in losses)
    detail = "; ".join(
        f"@{loss:.0%}: " + "/".join(f"{gcn[(R, loss)][0]:.3f}" for R in (3, 6, 9))
        for loss in losses)
    checks.append(("(b) delivery non-decreasing in R", monotone, detail))
    worst_ratio = max(gcn[(R, loss)][1] / smf[loss][1]
                      for R in (3, 6, 9) for loss in losses)
    checks.append(("(c) bytes <= flood/5 everywhere", worst_ratio <= 0.20,
                   f"worst relay/flood byte ratio {worst_ratio:.3f}"))
    d3, d6 = cells["sparse3"][0], cells["sparse6"][0]
    checks.append(("(d) sparse mobile low-R degradation", d3 < d6,
                   f"R=3 {d3:.3f} < R=6 {d6:.3f} (50 users, P_g=0.10, @25%)"))
    finish(7, checks)


def test_criterion_8_property_suites():
    # compact always-on re-run of the property suites
    checks = []

    sc = get_preset("discovery_reach").scenario
    t1, r1 = run_scenario(sc, 0)
    t2, r2 = run_scenario(sc, 0)
    checks.append(("determinism", trace_hash(t1) == trace_hash(t2)
                   and r1.to_scalars() == r2.to_scalars(),
                   "identical trace hash and metrics on rerun"))

    agree = 0
    sample = 10
    for seed in range(sample):
        run = Run(sc, seed, collect_trace=False)
        _, report = run.run()
        oracle = discovery_reach_set(run.positions, run.members, run.source,
                                     sc.source_ttl, sc.tx_radius)
        heard = {nid for nid, node in run.nodes.items()
                 if node.first_discovery_time is not None} | {run.source}
        if heard == oracle and (report.discovered_fraction
                                == discovered_member_fraction(sc, seed)):
            agree += 1
    checks.append(("engine/oracle discovery agreement", agree == sample,
                   f"{agree}/{sample} seeds identical"))

    adj_ok = True
    for seed in range(sample):
        run = Run(sc, seed, collect_trace=False)
        run.run()
        adj = unit_disk_adjacency(run.positions, sc.tx_radius)
        for nid, node in run.nodes.items():
            if node.first_discovery_time is None:
                continue
            hops = min(bfs_hops(adj, m).get(nid, 10 ** 9) for m in run.members)
            if hops > sc.source_ttl + 1:
                adj_ok = False
    checks.append(("TTL confinement", adj_ok,
                   "all hearers within the (T+1)-hop ball of the group"))

    from test_protocol import ack, disc, make_node
    p, n = 0.4, 1500
    count = 0
    for i in range(n):
        node = make_node(node_id=5, is_member=False, seed=i)
        node.on_discovery(disc(ttl=2), 2, now=0.0)
        if any(isinstance(a, BecomeRelay)
               for a in node.on_ack(ack(obligate=1, acp=p), 50, 0.0)):
            count += 1
    sigma = math.sqrt(n * p * (1 - p))
    checks.append(("ACP relay-count expectation", abs(count - n * p) <= 3 * sigma,
                   f"{count} activations vs {n * p:.0f} ± {3 * sigma:.0f}"))

    from test_properties import corridor_mismatches
    with pytest.MonkeyPatch.context() as mp:  # placed runs, undone before the preset run
        mismatches = len(corridor_mismatches(mp, 99, 200))
    checks.append(("corridor equivalence", mismatches == 0,
                   f"{mismatches} mismatches over 200 sampled instances "
                   "(the full 1000-instance suite runs in the property tests)"))

    trace, _ = run_scenario(get_preset("byte_comparison").scenario, 0)
    tx_counts: dict = {}
    for _t, node, event, msg_id, _info, _b in trace:
        if event == "tx:data":
            tx_counts[(node, msg_id)] = tx_counts.get((node, msg_id), 0) + 1
    checks.append(("duplicate-cache bound", all(c == 1 for c in tx_counts.values()),
                   "each node transmits each data message at most once"))

    finish(8, checks)
