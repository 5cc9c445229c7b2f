"""Command-line interface: argument parsing, subcommands, outputs, exit codes."""

import copy
import csv
import dataclasses
import hashlib
import json
import re
import shlex
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import one_to_all_flow, small_scenario, trace_of
import gcnsim.cli as cli
from gcnsim.cli import main, parse_seeds
from gcnsim.engine import Run, trace_hash, trace_lines
from gcnsim.model import ChannelSpec, TrafficFlow, TrafficSpec, save_scenario
from gcnsim.presets import get_preset


def write_small(tmp_path, **overrides):
    sc = small_scenario(traffic=TrafficSpec(flows=[one_to_all_flow()]),
                        **overrides)
    path = tmp_path / "scenario.json"
    save_scenario(sc, str(path))
    return path


def test_parse_seeds_forms():
    assert parse_seeds("0..3") == [0, 1, 2, 3]
    assert parse_seeds("1,5,9") == [1, 5, 9]
    assert parse_seeds("2") == [2]


EMPTY_SEEDS = [
    ["run", "SCENARIO", "--seeds", "5..1"],
    ["compare", "discovery_reach", "--seeds", "5..1"],
    ["sweep", "discovery_reach", "--param", "source_ttl", "--values", "1",
     "--seeds", "5..1"],
    ["check", "discovery_reach", "--seeds", "3..1"],
    ["check", "discovery_reach", "--seeds", ","],
]
MALFORMED_SEEDS = [
    ["check", "discovery_reach", "--seeds", "1..x"],
    ["run", "SCENARIO", "--seeds", "0,y"],
]


@pytest.mark.parametrize("argv", EMPTY_SEEDS + MALFORMED_SEEDS)
def test_empty_seed_list_exits_2(argv, tmp_path, capsys):
    scenario = str(write_small(tmp_path))
    assert main([scenario if a == "SCENARIO" else a for a in argv]) == 2
    captured = capsys.readouterr()
    why = "names no seed" if argv in EMPTY_SEEDS else "is not 'a..b' or a list"
    assert "error: --seeds" in captured.err and why in captured.err
    assert captured.out == ""


def test_run_writes_outputs(tmp_path, capsys):
    scenario = write_small(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--seeds", "0,1",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "delivery_rate" in printed
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["delivery_rate"]["n"] == 2
    with open(out / "per_seed.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["seed"] for r in rows} == {"0", "1"}
    assert any(r["metric"] == "bytes_total" for r in rows)


# --- JSONL traces -----------------------------------------------------------

def dumped_lines(trace) -> list:
    """Each record as the trace writer first wrote it: a dict through
    `json.dumps`, kept as the reference for the direct formatting."""
    return [json.dumps({"time": time, "node": node, "event": event,
                        "msg_id": list(msg_id) if msg_id else None,
                        "info": info, "bytes": nbytes}) + "\n"
            for time, node, event, msg_id, info, nbytes in trace]


def _is_int(v):
    return type(v) is int


def _is_int_list(v):
    return type(v) is list and all(map(_is_int, v))


# README.md's trace schema: the `info` each event carries, and whether its
# `msg_id` is set
TRACE_SCHEMA = {
    "tx:discovery": (_is_int, True),                          # remaining TTL
    "tx:data": (lambda v: _is_int(v) or _is_int_list(v), True),  # SMF TTL or MRDs
    "tx:ack": (lambda v: v == [], True),
    "relay": (_is_int, False),                                # epoch
    "discover": (_is_int, False),                             # epoch
    "noroute": (_is_int_list, False),                         # destination ids
    "deliver": (lambda v: v is None, True),
}


def assert_follows_schema(line: str) -> None:
    rec = json.loads(line)
    assert list(rec) == ["time", "node", "event", "msg_id", "info", "bytes"]
    info_ok, has_msg_id = TRACE_SCHEMA[rec["event"]]
    assert type(rec["time"]) is float and rec["time"] >= 0.0
    assert _is_int(rec["node"]) and _is_int(rec["bytes"])
    assert (rec["bytes"] > 0) == rec["event"].startswith("tx:")
    if has_msg_id:
        assert _is_int_list(rec["msg_id"]) and len(rec["msg_id"]) == 2
    else:
        assert rec["msg_id"] is None
    assert info_ok(rec["info"]), line


def every_event_scenario():
    """A short lossy GCN run whose trace holds every event kind: targeted
    sends before discovery settles give `noroute`."""
    return small_scenario(
        duration=4.0, channel=ChannelSpec(flat_per=0.2),
        traffic=TrafficSpec(flows=[
            one_to_all_flow(start=1.0, stop=2.0),
            TrafficFlow(pattern="targeted", senders="all_members", dests="source",
                        rate=1.0, payload_bytes=100, start=0.0, stop=2.5)]))


# sha256 of trace_seed0.jsonl for every_event_scenario, as written by the
# dict-and-json.dumps writer, and so the `trace_hash` of its run
EVERY_EVENT_TRACE_SHA256 = ("c6e6dba8f542bd3235e63e90eb73ebb3a1b3cb2b"
                            "ab475f249388c70a4c02f0e6")


def test_run_trace_output(tmp_path):
    path = tmp_path / "scenario.json"
    save_scenario(every_event_scenario(), str(path))
    out = tmp_path / "out"
    assert main(["run", str(path), "--seeds", "0", "--out", str(out),
                 "--trace"]) == 0
    data = (out / "trace_seed0.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == EVERY_EVENT_TRACE_SHA256
    trace, _ = Run(every_event_scenario(), 0).run()
    assert trace_hash(trace) == EVERY_EVENT_TRACE_SHA256
    lines = data.decode().splitlines()
    assert {json.loads(line)["event"] for line in lines} == set(TRACE_SCHEMA)
    for line in lines:
        assert_follows_schema(line)


def test_trace_lines_equal_json_dumps_on_every_value_type():
    # the extra times cross the edges of the fixed-point path, and
    # 0.0009765625 is a tie at the 10th decimal
    records = [(t, node, event, msg_id, info, nbytes)
               for t in (0.0, 1.5e-06, 2.000000001, 12.0, 1e16, 5e-05, 0.0001,
                         0.0009765625, 123456.123456789, 999999.9999999999,
                         1000000.0)
               for node, nbytes in ((0, 0), (7, 1407), (123456, 20))
               for event in ("tx:data", 'odd "name"\\\t\u00e9\n')
               for msg_id in (None, (3, 1), (0, 12345))
               for info in (None, 0, 5, -1, [4, 9], [], (4, 9), (), True, False,
                            0.25, "text", [True, None])]
    trace = trace_of(records)
    assert list(trace_lines(trace)) == dumped_lines(trace)


def test_run_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 2
    assert "error" in capsys.readouterr().err


def test_run_invalid_scenario_exits_2(tmp_path, capsys):
    scenario = write_small(tmp_path, source_ttl=1)
    data = json.loads(scenario.read_text())
    data["source_ttl"] = 0
    scenario.write_text(json.dumps(data))
    assert main(["run", str(scenario)]) == 2
    assert "source_ttl" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("num_users", "30"), ("group_prob", "0.1"), ("seeds", 5), ("tx_radius", None)])
def test_run_lists_a_value_of_the_wrong_type(field, value, tmp_path, capsys):
    scenario = write_small(tmp_path)
    data = json.loads(scenario.read_text())
    data[field] = value
    scenario.write_text(json.dumps(data))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"invalid scenario: {field}: must be" in err
    assert "Traceback" not in err and not (tmp_path / "out").exists()


@pytest.mark.parametrize("curve", [5, [["a", 0.5]], [[10.0, 0.5, 0.9]], [[True, 0.5]],
                                   [["10", 0.5]]],
                         ids=["an_int", "a_string", "a_triple", "a_bool", "a_string_number"])
def test_run_lists_a_misshapen_curve(curve, tmp_path, capsys):
    # the file loads, and validation refuses its curve before any seed runs
    scenario = write_small(tmp_path, channel=ChannelSpec(flat_per=None))
    data = json.loads(scenario.read_text())
    data["channel"]["curve_points"] = curve
    scenario.write_text(json.dumps(data))
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == ("invalid scenario: channel.curve_points: "
                   "must be a list of (distance, per) pairs\n")
    assert not (tmp_path / "out").exists()


def test_presets_listing_and_export(tmp_path, capsys):
    out = tmp_path / "presets"
    assert main(["presets", "--write", str(out)]) == 0
    printed = capsys.readouterr().out
    for name in ("discovery_reach", "byte_comparison", "mobile_connectivity",
                 "resiliency_sweep", "targeted_collection", "full_matrix"):
        assert name in printed
        assert (out / f"{name}.json").exists()
    # exported files round-trip through the loader
    from gcnsim.model import load_scenario
    sc = load_scenario(str(out / "discovery_reach.json"))
    assert sc.num_users == 100


def test_sweep_produces_rows(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "discovery_reach", "--param", "source_ttl",
                 "--values", "1,2", "--seeds", "0,1", "--out", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert {r["value"] for r in rows} == {"1", "2"}
    assert {r["seed"] for r in rows} == {"0", "1"}
    assert any(r["metric"] == "discovered_fraction" for r in rows)


def test_sweep_names_a_nested_parameter_by_its_path_only(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "resiliency_sweep", "--param", "channel.base_loss",
                 "--values", "0.0", "--seeds", "0", "--out", str(out)]) == 0
    # a nested spec's field has no bare spelling
    assert main(["sweep", "resiliency_sweep", "--param", "base_loss",
                 "--values", "0.0", "--seeds", "0"]) == 2
    assert "error: unknown scenario parameter 'base_loss'" in capsys.readouterr().err


def test_sweep_transmit_radius(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "discovery_reach", "--param", "tx_radius",
                 "--values", "30,50", "--seeds", "0", "--out", str(out)]) == 0
    with open(out) as fh:
        reach = {r["value"]: float(r["metric_value"]) for r in csv.DictReader(fh)
                 if r["metric"] == "discovered_fraction"}
    assert reach == {"30": 0.75, "50": 1.0}
    # the channel has no radius of its own to sweep
    assert main(["sweep", "discovery_reach", "--param", "channel.tx_radius",
                 "--values", "30", "--seeds", "0"]) == 2
    assert "unknown scenario parameter" in capsys.readouterr().err


def test_sweep_unknown_param_exits_2(tmp_path, capsys):
    assert main(["sweep", "discovery_reach", "--param", "warp_factor",
                 "--values", "1", "--seeds", "0"]) == 2
    assert "warp_factor" in capsys.readouterr().err


def test_sweep_invalid_value_exits_2(capsys):
    assert main(["sweep", "discovery_reach", "--param", "source_ttl",
                 "--values", "0", "--seeds", "0"]) == 2
    assert "invalid scenario" in capsys.readouterr().err


@pytest.mark.parametrize("param, raw", [("tx_radius", "abc"),
                                        ("source_ttl", "2.5")])
def test_sweep_malformed_value_exits_2(param, raw, capsys):
    assert main(["sweep", "discovery_reach", "--param", param,
                 "--values", raw, "--seeds", "0"]) == 2
    err = capsys.readouterr().err
    assert f"error: --values {raw!r} is not a valid {param!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("raw, why", [
    ("2.5", "error: --values '2.5' is not a valid 'source_ttl'"),
    ("2,0", "invalid scenario for source_ttl=0"),     # a good value, then a bad one
    (",", "error: --values ',' names no value"),
])
def test_sweep_checks_every_value_before_any_output(raw, why, tmp_path, capsys):
    argv = ["sweep", "discovery_reach", "--param", "source_ttl", "--values", raw,
            "--seeds", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert why in captured.err and captured.out == ""
    out = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_preset_exits_2(capsys):
    assert main(["check", "not_a_preset"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_check_discovery_reach_passes(capsys):
    assert main(["check", "discovery_reach", "--seeds", "0..9"]) == 0
    assert "PASS discovery_reach/discovered_fraction" in capsys.readouterr().out


def test_compare_runs_both_protocols(capsys):
    assert main(["compare", "discovery_reach", "--seeds", "0"]) == 0
    printed = capsys.readouterr().out
    assert "gcn" in printed and "smf" in printed
    assert "bytes_total" in printed


def test_check_skips_a_preset_with_no_expected_values(capsys, monkeypatch):
    jobs = []
    monkeypatch.setattr("gcnsim.cli.run_batch", recording_batch(jobs))
    assert main(["check", "full_matrix"]) == 0
    assert capsys.readouterr().out == "full_matrix: no expected values, skipped\n"
    assert jobs == []


def test_check_fails_a_metric_its_runs_never_report(capsys, monkeypatch):
    jobs = []
    monkeypatch.setattr("gcnsim.cli.run_batch", recording_batch(jobs))
    preset = get_preset("discovery_reach")
    monkeypatch.setattr(preset, "expected", [
        dataclasses.replace(preset.expected[0], metric="bogus_metric")])
    assert main(["check", "discovery_reach", "--seeds", "0"]) == 1
    out = capsys.readouterr().out
    assert out == "FAIL discovery_reach/bogus_metric: metric missing\n"
    assert [seed for _, seed, _ in jobs] == [0]


def no_runs(*args, **kwargs):
    raise AssertionError("a seed ran before the input was checked")


@pytest.mark.parametrize("argv, seeds, why", [
    (["run", "SCENARIO", "--seeds", "0,0", "--out", "OUT"], [0],
     "error: --seeds '0,0' repeats a seed"),
    (["check", "discovery_reach", "--seeds", "1,0,1"], [0],
     "error: --seeds '1,0,1' repeats a seed"),
    (["run", "SCENARIO", "--out", "OUT"], [3, 3],
     "invalid scenario: seeds: must be distinct"),
], ids=["run", "check", "file"])
def test_a_repeated_seed_exits_2_before_any_seed(argv, seeds, why, tmp_path, capsys,
                                                 monkeypatch):
    # a copy of a seed's run is no independent sample, and two workers would
    # write the same trace file
    scenario = str(write_small(tmp_path, seeds=seeds))
    monkeypatch.setattr("gcnsim.cli.run_batch", no_runs)
    argv = [scenario if a == "SCENARIO" else a for a in argv]
    assert main([str(tmp_path / "out") if a == "OUT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert why in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_compare_takes_no_protocol_list(capsys, monkeypatch):
    # compare always runs GCN beside the flood
    monkeypatch.setattr("gcnsim.cli.run_batch", no_runs)
    with pytest.raises(SystemExit) as exc:
        main(["compare", "discovery_reach", "--protocols", "gcn", "--seeds", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --protocols gcn" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("param, raw, path", [
    ("duration", "inf", "duration"),
    ("timing.forward_jitter_max", "nan", "timing.forward_jitter_max"),
])
def test_sweep_non_finite_value_exits_2_before_any_seed(param, raw, path, capsys,
                                                        monkeypatch):
    monkeypatch.setattr("gcnsim.cli.run_batch", no_runs)
    assert main(["sweep", "discovery_reach", "--param", param, "--values", raw,
                 "--seeds", "0"]) == 2
    captured = capsys.readouterr()
    assert f"invalid scenario for {param}={raw}: {path}: must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("literal", ["Infinity", "NaN"])
def test_run_non_finite_flow_rate_exits_2_before_any_seed(literal, tmp_path, capsys,
                                                          monkeypatch):
    # `--param` cannot reach a flow (flows are a list), but a scenario file
    # can: json.load reads these literals, and such a rate never ends the
    # flow's schedule
    scenario = write_small(tmp_path)
    scenario.write_text(scenario.read_text().replace('"rate": 2.0', f'"rate": {literal}'))
    monkeypatch.setattr("gcnsim.cli.run_batch", no_runs)
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "invalid scenario: traffic.flows[0].rate: must be finite" in captured.err


def test_run_flow_starting_before_zero_exits_2_before_any_seed(tmp_path, capsys,
                                                             monkeypatch):
    # the flow's first packet would fall before the run's clock starts
    scenario = write_small(tmp_path)
    scenario.write_text(scenario.read_text().replace('"start": 1.0', '"start": -1.0'))
    monkeypatch.setattr("gcnsim.cli.run_batch", no_runs)
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "invalid scenario: traffic.flows[0].start: must be >= 0\n"
    assert not (tmp_path / "out").exists()


def test_sweep_unwritable_out_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    assert main(["sweep", "discovery_reach", "--param", "source_ttl",
                 "--values", "2", "--seeds", "0",
                 "--out", str(tmp_path / "file" / "x.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["compare", "discovery_reach", "--seeds", "0"],
                                  ["run", "SCENARIO", "--seeds", "0"]])
def test_unwritable_out_exits_2_before_any_seed(argv, tmp_path, capsys,
                                                monkeypatch):
    scenario = str(write_small(tmp_path))
    monkeypatch.setattr("gcnsim.cli.run_batch", no_runs)
    (tmp_path / "file").write_text("")
    assert main([scenario if a == "SCENARIO" else a for a in argv]
                + ["--out", str(tmp_path / "file" / "sub")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_malformed_workers_exits_2_without_a_pool(capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")
    monkeypatch.setattr("gcnsim.cli.ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("GCNSIM_WORKERS", "abc")
    assert main(["check", "discovery_reach", "--seeds", "0,1"]) == 2
    captured = capsys.readouterr()
    assert "error: GCNSIM_WORKERS='abc' is not an integer" in captured.err
    assert captured.out == ""


def recording_batch(jobs: list):
    """A `run_batch` that records its jobs and runs none of them."""
    def run(batch):
        jobs.extend(batch)
        return [(seed, [], SimpleNamespace(to_scalars=dict)) for _, seed, _ in batch]
    return run


@pytest.mark.parametrize("preset, param, raw, why", [
    ("resiliency_sweep", "traffic.flows.0.rate", "inf", "invalid scenario for "
     "traffic.flows.0.rate=inf: traffic.flows[0].rate: must be finite"),
    ("discovery_reach", "traffic.flows.0.rate", "2",   # a preset with no flows
     "error: unknown scenario parameter 'traffic.flows.0.rate'"),
    ("resiliency_sweep", "traffic.flows.1.rate", "2",
     "error: unknown scenario parameter 'traffic.flows.1.rate'"),
    ("resiliency_sweep", "traffic.flows.\u00b2.rate", "2",   # a digit int() rejects
     "error: unknown scenario parameter 'traffic.flows.\u00b2.rate'"),
    ("discovery_reach", "bogus.x", "1", "error: unknown scenario parameter 'bogus.x'"),
    ("discovery_reach", "channel.bogus.x", "1",
     "error: unknown scenario parameter 'channel.bogus.x'"),
    ("discovery_reach", "source_ttl.real", "1",
     "error: unknown scenario parameter 'source_ttl.real'"),
    ("discovery_reach", "channel", "1",
     "error: scenario parameter 'channel' is not one value"),
    ("resiliency_sweep", "traffic.flows.0", "1",
     "error: scenario parameter 'traffic.flows.0' is not one value"),
    ("discovery_reach", "seeds", "1",
     "error: scenario parameter 'seeds' is not one value"),
    ("discovery_reach", "seeds.0", "1",   # the runs take their seeds from --seeds
     "error: scenario parameter 'seeds.0' is a list item"),
    ("resiliency_sweep", "traffic.flows.0.rate", "2", None),
])
def test_sweep_param_paths(preset, param, raw, why, capsys, monkeypatch):
    jobs = []
    monkeypatch.setattr("gcnsim.cli.run_batch", recording_batch(jobs))
    code = main(["sweep", preset, "--param", param, "--values", raw, "--seeds", "0"])
    captured = capsys.readouterr()
    if why is None:  # the value reaches the flow of the swept copy only
        assert code == 0
        [(scenario, seed, trace_dir)] = jobs
        assert (seed, trace_dir) == (0, None)
        assert scenario.traffic.flows[0].rate == 2.0
        assert get_preset(preset).scenario.traffic.flows[0].rate == 1.0
    else:
        assert code == 2 and jobs == []
        assert why in captured.err and captured.out == ""


def test_sweep_sets_an_optional_period_to_null(monkeypatch):
    jobs = []
    monkeypatch.setattr("gcnsim.cli.run_batch", recording_batch(jobs))
    assert main(["sweep", "mobile_connectivity", "--param", "timing.rediscovery_period",
                 "--values", "100,null", "--seeds", "0"]) == 0
    periods = [scenario.timing.rediscovery_period for scenario, _, _ in jobs]
    assert periods == [100.0, None]
    assert type(periods[0]) is float


IDENTITY_ARGVS = {
    "compare": ["compare", "discovery_reach", "--seeds", "2,0,1", "--out", "OUT"],
    "sweep": ["sweep", "discovery_reach", "--param", "source_ttl", "--values", "2,1",
              "--seeds", "2,0,1", "--out", "OUT/sweep.csv"],
    "check": ["check", "discovery_reach", "--seeds", "2,0,1"],
}


@pytest.mark.parametrize("argv", IDENTITY_ARGVS.values(), ids=IDENTITY_ARGVS)
def test_outputs_do_not_depend_on_the_worker_count(argv, tmp_path, capsys,
                                                  monkeypatch):
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("GCNSIM_WORKERS", workers)
        out = tmp_path / workers
        out.mkdir()
        code = main([a.replace("OUT", str(out)) for a in argv])
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        outputs.append((code, capsys.readouterr(), files))
    assert outputs[0] == outputs[1]
    code, captured, files = outputs[0]
    assert code in (0, 1) and captured.err == ""
    assert (captured.out != "") == (argv[0] != "sweep")  # sweep --out prints nothing
    assert len(files) == (0 if argv[0] == "check" else 1)


def test_a_traced_run_writes_the_same_files_with_one_worker_or_two(
        tmp_path, capsys, monkeypatch):
    # each worker writes the trace of each seed it ran, and only the report
    # comes back pickled
    scenario = write_small(tmp_path)
    outputs = []
    for workers in ("1", "2"):
        monkeypatch.setenv("GCNSIM_WORKERS", workers)
        out = tmp_path / workers
        assert main(["run", str(scenario), "--seeds", "0,1", "--trace",
                     "--out", str(out)]) == 0
        outputs.append(({path.name: path.read_bytes() for path in out.iterdir()},
                        capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert sorted(outputs[0][0]) == ["per_seed.csv", "summary.json",
                                     "trace_seed0.jsonl", "trace_seed1.jsonl"]


def test_a_failing_seed_cancels_the_seeds_no_worker_has_taken(tmp_path, monkeypatch):
    # when seed 0 raises, `Executor.map` cancels every job not yet handed to
    # a worker: only the seeds in flight, about two per worker, finish and
    # leave a trace file, and no summary is written
    class Seed0Fails(Run):
        def run(self):
            if self.seed == 0:
                raise RuntimeError("seed 0 failed")
            time.sleep(0.2)
            return super().run()

    monkeypatch.setattr(cli, "Run", Seed0Fails)
    monkeypatch.setenv("GCNSIM_WORKERS", "2")
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="seed 0 failed"):
        main(["run", str(write_small(tmp_path)), "--seeds", "0..19", "--trace",
              "--out", str(out)])
    written = sorted(path.name for path in out.iterdir())
    assert all(re.fullmatch(r"trace_seed([1-9]|1[0-9])\.jsonl", name) for name in written)
    assert len(written) < 19 / 2


@pytest.mark.parametrize("workers, cpus, pools", [
    ("2", 4, [(2, 6)]),
    ("8", 4, [(6, 6)]),    # never more processes than jobs
    (None, 4, [(4, 6)]),   # unset: the CPU count
    ("1", 4, []),          # 1 or less runs in-process
    ("0", 4, []),
    (None, None, []),      # an unknown CPU count counts as 1
])
def test_a_sweep_maps_every_job_over_one_pool(workers, cpus, pools, tmp_path,
                                              monkeypatch):
    started = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor; runs its jobs in-process."""
        def __init__(self, max_workers):
            self.max_workers, self.jobs = max_workers, []
            started.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            self.jobs.extend(jobs)
            return map(fn, self.jobs)

    monkeypatch.setattr("gcnsim.cli.ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    if workers is None:
        monkeypatch.delenv("GCNSIM_WORKERS", raising=False)
    else:
        monkeypatch.setenv("GCNSIM_WORKERS", workers)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "discovery_reach", "--param", "source_ttl",
                 "--values", "1,2,3,4,5,6", "--seeds", "0", "--out", str(out)]) == 0
    assert [(pool.max_workers, len(pool.jobs)) for pool in started] == pools
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert [r["value"] for r in rows if r["metric"] == "discovered_fraction"] == \
        ["1", "2", "3", "4", "5", "6"]


def test_every_readme_cli_line_parses():
    """Each `gcnsim` command of README's `## CLI` block, with `\\`
    continuations joined, `# ...` comments dropped and `[--trace]` read as
    `--trace`, parses, and a swept parameter is a path the sweep resolves."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(
        encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
    lines = [line.split("#", 1)[0].replace("[--trace]", "--trace").strip()
             for line in block.replace("\\\n", " ").splitlines()]
    lines = [line for line in lines if line.startswith("gcnsim ")]
    assert len(lines) == 8
    for line in lines:
        try:
            args = cli.build_parser().parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README's CLI line does not parse: {line}")
        if args.command == "sweep":
            cli._set_param(copy.deepcopy(get_preset(args.preset).scenario),
                           args.param, args.values.split(",")[0])
