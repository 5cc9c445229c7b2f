"""Command-line interface: argument parsing, subcommands, outputs, exit codes."""

import csv
import json

import pytest

from conftest import one_to_all_flow, small_scenario
from gcnsim.cli import main, parse_seeds
from gcnsim.model import TrafficSpec, save_scenario


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


def test_run_trace_output(tmp_path):
    scenario = write_small(tmp_path)
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--seeds", "0", "--out", str(out),
                 "--trace"]) == 0
    lines = (out / "trace_seed0.jsonl").read_text().splitlines()
    assert lines
    first = json.loads(lines[0])
    assert {"time", "node", "event", "bytes"} <= set(first)


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


def test_sweep_nested_and_bare_parameter_names(tmp_path):
    out = tmp_path / "sweep.csv"
    # bare name resolving into the nested channel spec
    assert main(["sweep", "resiliency_sweep", "--param", "base_loss",
                 "--values", "0.0", "--seeds", "0", "--out", str(out)]) == 0
    assert main(["sweep", "resiliency_sweep", "--param", "channel.base_loss",
                 "--values", "0.0", "--seeds", "0", "--out", str(out)]) == 0


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
    assert main(["compare", "discovery_reach", "--protocols", "gcn,smf",
                 "--seeds", "0"]) == 0
    printed = capsys.readouterr().out
    assert "gcn" in printed and "smf" in printed
    assert "bytes_total" in printed
