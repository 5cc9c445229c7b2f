"""Golden traces: short runs of every preset whose trace hash and report
scalars are pinned, so a refactor of the engine or the protocols that changes
behaviour fails here rather than being caught only as "rerun equals rerun".

A trace hash is `engine.trace_hash`, the sha256 of the trace as `run --trace`
writes it, so a pinned value is the `sha256sum` of that case's
`trace_seed<n>.jsonl`; a change that keeps every written byte keeps it.

The pinned values live in `golden_traces.json`, next to this file.  A change
that means to alter behaviour regenerates them, and says so, with

    PYTHONPATH=src python3 tests/test_golden.py --write

which prints each key whose trace hash or scalars changed, with the old and
new value of every scalar that moved, before it rewrites the file.
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import channel_row, one_to_all_flow, small_scenario
from gcnsim.cli import write_outputs
from gcnsim.engine import Run, trace_hash
from gcnsim.model import MobilitySpec, TimingParams, TrafficSpec
from gcnsim.presets import PRESETS
from test_cli import assert_follows_schema, dumped_lines

GOLDEN = Path(__file__).with_name("golden_traces.json")
SHORT_S = 12.0
SEEDS = (0, 1)


def _short(sc):
    """The scenario cut to at most SHORT_S seconds, sending until one second
    before the end; the mobile preset rediscovers every 4 s so that epochs
    are exercised inside the window."""
    duration = min(sc.duration, SHORT_S)
    flows = [replace(f, stop=min(f.stop, duration - 1.0)) for f in sc.traffic.flows]
    sc = replace(sc, duration=duration, traffic=replace(sc.traffic, flows=flows))
    if sc.timing.rediscovery_period and sc.timing.rediscovery_period >= duration:
        sc = replace(sc, timing=replace(sc.timing, rediscovery_period=4.0))
    return sc


def _cases() -> dict:
    cases = {name: _short(p.scenario) for name, p in PRESETS.items()}
    rs = cases["resiliency_sweep"]
    tc = cases["targeted_collection"]
    cases["resiliency_no_jitter"] = replace(
        rs, timing=replace(rs.timing, forward_jitter_max=0.0))
    cases["resiliency_r5_loss50"] = replace(
        rs, desired_relays=5, channel=replace(rs.channel, base_loss=0.5))
    rwp = MobilitySpec(kind="random_waypoint", speed_min=0.0, speed_max=5.0,
                       pause_min=0.0, pause_max=2.0)
    cases["targeted_mobile"] = replace(tc, mrd_offset=1, mobility=rwp)
    # the one case whose per-pair channel rows (a curve) are priced on a
    # moving fleet
    cases["full_matrix_mobile"] = replace(cases["full_matrix"], mobility=rwp)
    return {f"{name}/{protocol}/{seed}": (replace(sc, protocol=protocol), seed)
            for name, sc in sorted(cases.items())
            for protocol in ("gcn", "smf") for seed in SEEDS}


CASES = _cases()


def _pinned(trace, report) -> dict:
    return {"trace": trace_hash(trace), "scalars": report.to_scalars()}


@pytest.fixture(scope="module", params=sorted(CASES))
def golden_run(request):
    """(key, seed, trace, report) of one case, run once for every test that
    checks it; pytest runs those tests together, one case at a time."""
    sc, seed = CASES[request.param]
    return (request.param, seed, *Run(sc, seed).run())


def test_golden_trace_and_scalars(golden_run):
    key, _, trace, report = golden_run
    golden = json.loads(GOLDEN.read_text())
    assert key in golden, f"no pinned value for {key}; regenerate {GOLDEN.name}"
    assert _pinned(trace, report) == golden[key]


def test_written_golden_trace_equals_json_dumps_and_follows_schema(golden_run,
                                                                   tmp_path):
    key, seed, trace, report = golden_run
    write_outputs([(seed, trace, report)], str(tmp_path), want_trace=True)
    path = tmp_path / f"trace_seed{seed}.jsonl"
    # the pinned hash is the sha256 of the written file
    pinned = json.loads(GOLDEN.read_text())[key]["trace"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == pinned
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    want = dumped_lines(trace)
    assert len(lines) == len(want)
    for line, ref in zip(lines, want):  # line by line: a diff of the whole
        assert line == ref              # file would take minutes to print
        assert_follows_schema(line)


def test_every_pinned_case_still_runs():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("key", [f"{name}/smf/{seed}" for seed in SEEDS
                                 for name in ("discovery_reach", "mobile_connectivity")])
def test_a_flood_with_no_flow_pins_only_the_empty_trace(key):
    """A preset with no traffic flow gives the flood nothing to send, so its
    key pins the sha256 of no bytes; only its GCN sibling, which discovers,
    pins a trace."""
    name, _, seed = key.split("/")
    assert PRESETS[name].scenario.traffic.flows == []
    run = Run(*CASES[key])
    trace, report = run.run()
    assert run._seq == 0 and len(trace) == 0
    assert report.to_scalars()["bytes_total"] == 0
    golden = json.loads(GOLDEN.read_text())
    empty = hashlib.sha256(b"").hexdigest()
    assert golden[key]["trace"] == empty
    sibling = golden[f"{name}/gcn/{seed}"]
    assert sibling["trace"] != empty and sibling["scalars"]["bytes_control"] > 0


def _check_receptions_in_id_order(sc) -> None:
    run = Run(sc, 0)
    receive = run._receive
    heard = []  # one [sender, packet, hearers] per transmission heard

    def recording(node_id, pkt, sender):
        if not heard or heard[-1][1] is not pkt or heard[-1][0] != sender:
            heard.append([sender, pkt, []])
        heard[-1][2].append(node_id)
        receive(node_id, pkt, sender)

    run._receive = recording
    trace, _ = run.run()
    senders = [rec[1] for rec in trace if rec[2].startswith("tx:")]
    rows = {s: [nid for nid, _ in channel_row(run, s)] for s in senders}
    assert all(rows.values())
    assert [s for s, _, _ in heard] == senders
    for sender, _, hearers in heard:
        assert hearers == rows[sender]


def test_each_transmission_reaches_every_neighbour_in_id_order():
    """On a loss-free static channel every transmission calls `Run._receive`
    once per node of the sender's unit-disk row, in id order, and the
    receptions of one transmission are not interleaved with any other.
    Without jitter, transmissions share instants with other events, and each
    one's receptions still run before anything else due then."""
    for jitter in (0.001, 0.0):
        _check_receptions_in_id_order(small_scenario(
            traffic=TrafficSpec(flows=[one_to_all_flow()]),
            timing=TimingParams(forward_jitter_max=jitter)))


def _changes(old: dict, new: dict) -> list:
    """One line per key whose pinned value differs, then one per scalar that
    moved, old -> new (None where a key is added or removed)."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        before, after = old.get(key, {}), new.get(key, {})
        if before == after:
            continue
        same = before.get("trace") == after.get("trace")
        lines.append(f"{key}: trace {'same' if same else 'changed'}")
        was, now = before.get("scalars", {}), after.get("scalars", {})
        lines += [f"  {name}: {was.get(name)} -> {now.get(name)}"
                  for name in sorted(was.keys() | now.keys())
                  if was.get(name) != now.get(name)]
    return lines


def test_rewrite_lists_each_changed_key_and_moved_scalar():
    pinned = {"a": {"trace": "1", "scalars": {"x": 1.0, "y": 2.0}},
              "b": {"trace": "2", "scalars": {"x": 3.0}}}
    observed = {"a": {"trace": "9", "scalars": {"x": 1.0, "y": 2.5}},
                "b": {"trace": "2", "scalars": {"x": 3.0}},
                "c": {"trace": "3", "scalars": {"x": 4.0}}}
    assert _changes(pinned, observed) == [
        "a: trace changed", "  y: 2.0 -> 2.5",
        "c: trace changed", "  x: None -> 4.0"]
    assert _changes(pinned, pinned) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    observed = {key: _pinned(*Run(*CASES[key]).run()) for key in sorted(CASES)}
    pinned = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    print("\n".join(_changes(pinned, observed)) or "no pinned value changed")
    GOLDEN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
