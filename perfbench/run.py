"""gcnsim benchmark: four workloads, each a batch of seeded simulations.

    python3 perfbench/run.py --workload static_lossy --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A run first executes every operation of its batch once with the engine's
trace on and checks the outputs (checks.py).  It then repeats the batch
untraced, timing it on the scaled clock (clock.py), until `--seconds` have
passed, and reports the end-to-end metrics.  With `--trace 1` the checking
pass also times each layer (layers.py), one untraced pass gives the tracing
overhead, and the run reports the per-layer metrics instead.  One operation
is one (scenario, protocol, seed) simulation with its checks.  The last line
of standard output is one JSON object; README.md describes the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 3
SETUP_MIN_S = 0.5

if not (SRC / "gcnsim" / "__init__.py").is_file():
    sys.exit(f"perfbench: no gcnsim sources under {SRC}")
sys.path[:0] = [str(SRC), str(HERE)]

from gcnsim import analytics, cli, engine  # noqa: E402
from gcnsim.analytics import build_world  # noqa: E402
from gcnsim.model import MobilitySpec  # noqa: E402
from gcnsim.presets import get_preset  # noqa: E402
from gcnsim.protocol import Deliver  # noqa: E402

import checks  # noqa: E402
from clock import ScaledClock  # noqa: E402
from layers import Layers  # noqa: E402


# --- workloads -------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    gcn: object                    # Scenario run under the relay protocol
    flood: bool                    # also run the flood baseline on the same seeds
    seeds_per_run: int
    write_outputs: bool = False    # timed passes keep traces and write outputs
    reach_seeds: tuple = ()        # fixed worlds for the flood-reach check


def _cut_traffic(sc, seconds: float):
    """Keep `seconds` of each flow's sending window, then one drain second."""
    flows = [replace(f, stop=f.start + seconds) for f in sc.traffic.flows]
    return replace(sc, traffic=replace(sc.traffic, flows=flows),
                   duration=max(f.stop for f in flows) + 1.0)


def workloads() -> dict:
    # The sending windows of the two 100 s traffic cells are cut so that one
    # run sweeps tens of seeds: a batch's totals grow with the square of its
    # groups' sizes, and a handful of seeds would swing them by a quarter.
    # Each message is handled exactly as in the full cell.
    rwp = MobilitySpec(kind="random_waypoint", speed_min=0.0, speed_max=5.0,
                       pause_min=0.0, pause_max=2.0)  # as criteria 5 and 6 use it
    rs = get_preset("resiliency_sweep").scenario
    tc = get_preset("targeted_collection").scenario
    return {w.name: w for w in [
        Workload("static_lossy",
                 _cut_traffic(replace(rs, desired_relays=5,
                                      channel=replace(rs.channel, base_loss=0.5)), 2.0),
                 flood=True, seeds_per_run=20),
        Workload("mobile_connectivity", get_preset("mobile_connectivity").scenario,
                 flood=False, seeds_per_run=3),
        Workload("mobile_targeted",  # the preset's 25 % loss
                 _cut_traffic(replace(tc, mrd_offset=1, mobility=rwp), 2.0),
                 flood=False, seeds_per_run=48),
        # criterion 3 runs its flood batch on seeds 0-9
        Workload("byte_comparison", get_preset("byte_comparison").scenario,
                 flood=True, seeds_per_run=20, write_outputs=True,
                 reach_seeds=tuple(range(10))),
    ]}


@dataclass(frozen=True)
class Op:
    scenario: object
    seed: int
    reach: bool = False            # a flood on a fixed flood-reach world

    @property
    def group(self) -> str:
        return "reach" if self.reach else self.scenario.protocol


def batch(w: Workload, seed: int) -> list:
    """The operations of one round; its simulation seeds follow from `seed`."""
    flood = replace(w.gcn, protocol="smf")
    ops = []
    for s in range(seed * w.seeds_per_run, (seed + 1) * w.seeds_per_run):
        ops.append(Op(w.gcn, s))
        if w.flood:
            ops.append(Op(flood, s))
    return ops + [Op(flood, s, reach=True) for s in w.reach_seeds]


# --- checking pass -----------------------------------------------------------

@dataclass
class Checked:
    report: object
    setup: float       # seconds building the Run
    receptions: int
    fault: list        # flood-reach misses: the known fault, counted as failed
    wrong: list        # any other violation: the output is incorrect


def traced_run(op: Op, layers, now) -> tuple:
    """Run one operation with the trace on, observing what the checks need.

    Connectivity samples are recomputed as they are taken, since the node
    positions move on; that time is kept out of the traced figures.
    """
    seen = {"rx": 0, "delivers": [], "samples": 0, "sample_errors": [],
            "check_s": 0.0}
    nodes, _ = build_world(op.scenario, op.seed)
    members = {n for n, _, flag in nodes if flag}
    sample = engine.connectivity_sample

    def recording_sample(positions, tx_radius, active, source, _members):
        frac = sample(positions, tx_radius, active, source, _members)
        t0 = perf_counter()
        want = checks.connected_fraction(positions, tx_radius, active, source, members)
        if want != frac:
            seen["sample_errors"].append(f"connectivity {frac} != recomputed {want}")
        seen["samples"] += 1
        seen["check_s"] += perf_counter() - t0
        return frac

    engine.connectivity_sample = recording_sample
    try:
        t0 = now()
        run = engine.Run(op.scenario, op.seed, collect_trace=True)
        seen["setup"] = now() - t0
        receive, apply_actions = run._receive, run._apply_actions

        def counting_receive(node_id, pkt, sender):
            seen["rx"] += 1
            receive(node_id, pkt, sender)

        def watching_apply(node_id, actions):
            seen["delivers"].extend((node_id, a.msg_id) for a in actions
                                    if isinstance(a, Deliver))
            apply_actions(node_id, actions)

        run._receive = counting_receive
        if any(f.pattern == "targeted" for f in op.scenario.traffic.flows):
            run._apply_actions = watching_apply
        if layers is not None:
            layers.top = 0.0
        t1 = perf_counter()
        trace, report = run.run()
        t2 = perf_counter()
    finally:
        engine.connectivity_sample = sample
    # the wrappers hold the Run in a reference cycle; drop them so that it is
    # freed now and not at some later garbage collection
    vars(run).pop("_receive")
    vars(run).pop("_apply_actions", None)
    if layers is not None:
        layers.wall += seen["setup"] + t2 - t1 - seen["check_s"]
        layers.engine_self += t2 - t1 - layers.top - seen["check_s"]
        layers.heap_pushes += run._seq
        layers.trace_records += len(trace)
        layers.tx += sum(1 for rec in trace if rec[2].startswith("tx:"))
        layers.rx += seen["rx"]
    return trace, report, seen


def check_op(op: Op, trace: list, report, seen: dict) -> Checked:
    """Check one traced operation's outputs against the benchmark's own sums."""
    sc, seed = op.scenario, op.seed
    nodes, source = build_world(sc, seed)
    positions = {n: p for n, p, _ in nodes}
    members = {n for n, _, flag in nodes if flag}
    r = sc.tx_radius
    ch = sc.channel
    lossless = ch.flat_per == 0.0 and ch.base_loss == 0.0
    flows = sc.traffic.flows

    wrong = checks.data_sent_at_most_once(trace) + seen["sample_errors"][:1]
    if sc.timing.distance_refresh_period is None:
        payload = flows[0].payload_bytes if flows else 0
        wrong += checks.bytes_match_trace(trace, report, payload)
    if any(f.pattern == "targeted" and f.dests == "source" for f in flows):
        wrong += checks.only_destination_delivers(trace, seen["delivers"], source)
    fault = []
    if sc.protocol == "gcn" and lossless:
        heard = analytics.discovery_reach_set(positions, members, source,
                                              sc.source_ttl, r)
        oracle = len(members & heard) / len(members)
        if report.discovered_fraction != oracle:
            wrong.append(f"discovered fraction {report.discovered_fraction} "
                         f"!= oracle {oracle}")
        if flows and flows[0].senders == "source":
            wrong += checks.delivers_to_all(trace, source, members & heard)
    if sc.protocol == "smf" and flows:
        senders = sorted(members) if flows[0].senders == "all_members" else [source]
        dists = {s: checks.hop_distances(positions, r, s) for s in senders}
        wrong += checks.flood_ttl(dists.values(), members, report.smf_ttl)
        if lossless and flows[0].senders == "source":
            reachable = members & set(dists[source])
            wrong += checks.delivers_only_within(trace, reachable)
            if op.reach:
                fault = checks.delivers_to_all(trace, source, reachable)
    return Checked(report, seen["setup"], seen["rx"], fault, wrong)


# --- timed pass --------------------------------------------------------------

def finish_batch(w: Workload, ops: list, reports: list, traces: list, out: Path) -> None:
    """Aggregate each protocol's reports; write outputs where the workload does."""
    for group in sorted({op.group for op in ops}):
        rows = [(op.seed, tr, rep) for op, tr, rep in zip(ops, traces, reports)
                if op.group == group and rep is not None]
        if w.write_outputs:
            cli.write_outputs(rows, str(out / group), want_trace=bool(rows[0][1]))
        else:
            analytics.aggregate([rep for _, _, rep in rows])


def timed_pass(w: Workload, ops: list, out: Path, now) -> dict:
    """The batch untraced: set-up, simulation, aggregation and outputs."""
    setup, sim, reports, traces = [], [], [], []
    t0 = now()
    for op in ops:
        a = b = now()
        try:
            run = engine.Run(op.scenario, op.seed, collect_trace=w.write_outputs)
            b = now()
            trace, report = run.run()
        except Exception:  # counted as failed by the caller
            traceback.print_exc()
            trace, report = [], None
        c = now()
        setup.append(b - a)
        sim.append(c - b)
        reports.append(report)
        traces.append(trace)
    t1 = now()
    finish_batch(w, ops, reports, traces, out)
    t2 = now()
    return {"wall": t2 - t0, "finish": t2 - t1, "setup": setup, "sim": sim,
            "reports": reports}


# --- one run -----------------------------------------------------------------

def modelled(ops: list, reports: list) -> dict:
    """The simulator's own results over the seeded operations of a batch."""
    gcn = [rep for op, rep in zip(ops, reports) if op.group == "gcn" and rep is not None]
    smf = [rep for op, rep in zip(ops, reports) if op.group == "smf" and rep is not None]
    gcn_bytes = sum(rep.bytes_total for rep in gcn)
    deliveries = sum(done for rep in gcn for done, _ in rep.delivery_per_flow)
    out = {
        "air_kb": gcn_bytes / len(gcn) / 1000.0,
        "control_kb": sum(rep.bytes_control for rep in gcn) / len(gcn) / 1000.0,
        "connectivity": statistics.fmean(rep.connectivity_mean for rep in gcn),
        "deliveries": deliveries,
    }
    if deliveries:
        out["air_bytes_per_delivery"] = gcn_bytes / deliveries
    if smf:
        out["flood_byte_ratio"] = sum(rep.bytes_total for rep in smf) / gcn_bytes
    return out


def run_workload(w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """End-to-end metrics on the scaled clock, or per-layer ones traced."""
    if trace:
        return _run(w, seed, seconds, Layers(), perf_counter)
    with ScaledClock() as clock:
        return _run(w, seed, seconds, None, clock.now)


def _run(w: Workload, seed: int, seconds: float, layers, now) -> dict:
    trace = layers is not None
    ops = batch(w, seed)
    out = OUT / w.name
    shutil.rmtree(out, ignore_errors=True)
    checked, traces = [], []
    for op in ops:
        try:
            if layers is not None:
                layers.install()
            try:
                observed = traced_run(op, layers, now)
            finally:
                if layers is not None:
                    layers.uninstall()
            checked.append(check_op(op, *observed))
            traces.append(observed[0] if w.write_outputs else [])
        except Exception:  # the operation failed; report it and go on
            traceback.print_exc()
            checked.append(Checked(None, 0.0, 0, [], ["raised"]))
            traces.append([])
    if layers is not None:
        layers.install()
        try:
            t0 = perf_counter()
            finish_batch(w, ops, [c.report for c in checked], traces,
                         out / "traced")
            layers.wall += perf_counter() - t0
        finally:
            layers.uninstall()
    correct = True
    for op, c in zip(ops, checked):
        if c.wrong:
            correct = False
            print(f"WRONG {w.name} {op.group} seed {op.seed}: {c.wrong}",
                  file=sys.stderr)

    passes = []
    t0 = perf_counter()
    while not passes or (not trace and perf_counter() - t0 < seconds):
        passes.append(timed_pass(w, ops, out, now))
    host_s = perf_counter() - t0
    attempted = failed = 0
    for p in passes:
        for op, c, rep in zip(ops, checked, p["reports"]):
            attempted += 1
            same = (None not in (c.report, rep)
                    and rep.to_scalars() == c.report.to_scalars())
            if not same and not c.wrong:
                correct = False
                print(f"WRONG {w.name} {op.group} seed {op.seed}: untraced "
                      f"scalars differ from traced", file=sys.stderr)
            failed += bool(c.wrong or c.fault or not same)

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "passes": len(passes), "host_s": host_s,
              "model": modelled(ops, passes[0]["reports"]),
              "faults": [(op.seed, c.fault[0]) for op, c in zip(ops, checked)
                         if c.fault]}
    if trace:
        result["metrics"] = layer_metrics(layers, passes[0]["wall"])
        return result
    # Each operation's median over the passes, so that a slow spell of the
    # host during one pass does not move the figure.  The checking pass
    # built every Run too (with the trace flag, which set-up does not read);
    # the Runs are built again until there are SETUP_SAMPLES samples and the
    # rebuilding took SETUP_MIN_S, which a cheap set-up needs to be steady.
    setups = [[c.setup for c in checked]] + [p["setup"] for p in passes]
    t0 = perf_counter()
    while len(setups) < SETUP_SAMPLES or perf_counter() - t0 < SETUP_MIN_S:
        built = []
        for op in ops:
            a = now()
            engine.Run(op.scenario, op.seed, collect_trace=False)
            built.append(now() - a)
        setups.append(built)
    setup = [statistics.median(s[i] for s in setups) for i in range(len(ops))]
    sim = [statistics.median(p["sim"][i] for p in passes) for i in range(len(ops))]
    finish = statistics.median(p["finish"] for p in passes)
    rx = sum(c.receptions for c in checked)
    result["metrics"] = {
        "wall_s": (sum(setup) + sum(sim) + finish, "s"),
        "setup_s": (sum(setup), "s"),
        "rx_per_s": (rx / sum(sim), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "air_kb": (result["model"]["air_kb"], "kB"),
        "connectivity": (result["model"]["connectivity"], "ratio"),
    }
    return result


def layer_metrics(layers: Layers, untraced_wall: float) -> dict:
    busy, calls, useful = layers.busy, layers.calls, layers.useful

    def pct(name):
        return (100.0 * busy[name] / layers.wall, "%")

    def ratio(num, den):
        return (num / den if den else 0.0, "ratio")

    handlers = [f"protocol.on_{k}" for k in ("data", "discovery", "ack")]
    return {
        "engine.self_pct": (100.0 * layers.engine_self / layers.wall, "%"),
        "engine.heap_pushes": (layers.heap_pushes, "count"),
        "engine.tx": (layers.tx, "count"),
        "engine.trace_records": (layers.trace_records, "count"),
        "protocol.rx.discovery": (calls["protocol.on_discovery"], "count"),
        "protocol.rx.ack": (calls["protocol.on_ack"], "count"),
        "protocol.rx.data": (calls["protocol.on_data"], "count"),
        "protocol.on_data_pct": pct("protocol.on_data"),
        "protocol.on_discovery_pct": pct("protocol.on_discovery"),
        "protocol.on_ack_pct": pct("protocol.on_ack"),
        "protocol.useful_rx_ratio": ratio(sum(useful[h] for h in handlers),
                                          sum(calls[h] for h in handlers)),
        "smf.rx": (calls["smf.on_data"], "count"),
        "smf.on_data_pct": pct("smf.on_data"),
        "smf.useful_rx_ratio": ratio(useful["smf.on_data"], calls["smf.on_data"]),
        "smf.min_ttl_oracle_pct": pct("smf.min_ttl_oracle"),
        "smf.unit_disk_adjacency_calls": (calls["smf.unit_disk_adjacency"], "count"),
        "smf.unit_disk_adjacency_pct": pct("smf.unit_disk_adjacency"),
        "smf.bfs_hops_pct": pct("smf.bfs_hops"),
        "channel.per_at_calls": (calls["channel.per_at"], "count"),
        "channel.per_at_pct": pct("channel.per_at"),
        "channel.rx_per_tx": ratio(layers.rx, layers.tx),
        "mobility.advance_calls": (calls["mobility.advance"], "count"),
        "mobility.advance_pct": pct("mobility.advance"),
        "analytics.connectivity_sample_calls": (calls["analytics.connectivity_sample"], "count"),
        "analytics.connectivity_sample_pct": pct("analytics.connectivity_sample"),
        "analytics.build_world_pct": pct("analytics.build_world"),
        "analytics.aggregate_pct": pct("analytics.aggregate"),
        "cli.write_outputs_pct": pct("cli.write_outputs"),
        "bench.trace_overhead": ratio(layers.wall, untraced_wall),
    }


def main(argv=None) -> int:
    ws = workloads()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*ws, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # each workload in its own fresh process, one at a time
        for name in ws:
            subprocess.run([sys.executable, __file__, "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    w = ws[args.workload]
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    first = args.seed * w.seeds_per_run
    reach = (f" + flood-reach worlds {w.reach_seeds[0]}..{w.reach_seeds[-1]}"
             if w.reach_seeds else "")
    print(f"{w.name}: seeds {first}..{first + w.seeds_per_run - 1}{reach}, "
          f"{result['passes']} timed pass(es) in {result['host_s']:.1f} host s, "
          f"{result['attempted']} operations attempted, {result['failed']} failed")
    for name, (value, unit) in result["metrics"].items():
        print(f"  {name:38s} {value:14.6g} {unit}")
    for name, value in result["model"].items():
        print(f"  model {name:32s} {value:14.6g}")
    for s, why in result["faults"]:
        print(f"  flood seed {s} misses a reachable member: {why}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()}}),
        flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
