"""Command-line runner: execute scenario files, compare protocols on a shared
world, sweep parameters, and regression-check the shipped presets.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .analytics import aggregate
from .engine import run_scenario
from .model import (ConfigurationError, Scenario, load_scenario,
                    scenario_to_dict, validate_scenario)
from .presets import PRESETS, get_preset


def parse_seeds(spec: str) -> list:
    """'a..b' (inclusive) or a comma-separated list of integers; never empty."""
    lo, dots, hi = spec.partition("..")
    try:
        seeds = (list(range(int(lo), int(hi) + 1)) if dots
                 else [int(s) for s in spec.split(",") if s.strip()])
    except ValueError:
        raise ConfigurationError(f"--seeds {spec!r} is not 'a..b' or a list of "
                                 "integers") from None
    if not seeds:
        raise ConfigurationError(f"--seeds {spec!r} names no seed")
    return seeds


def _worker(args):
    scenario, seed, want_trace = args
    trace, report = run_scenario(scenario, seed, collect_trace=want_trace)
    return seed, trace, report


def run_batch(scenario: Scenario, seeds: list, want_trace: bool = False) -> list:
    """Run all seeds, optionally in parallel; results ordered by seed."""
    workers = int(os.environ.get("GCNSIM_WORKERS", "1"))
    jobs = [(scenario, seed, want_trace) for seed in seeds]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, jobs))
    else:
        results = [_worker(job) for job in jobs]
    return sorted(results, key=lambda item: item[0])


def write_outputs(results: list, out_dir: str, want_trace: bool) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "per_seed.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["seed", "metric", "value"])
        for seed, _trace, report in results:
            for metric, value in sorted(report.to_scalars().items()):
                writer.writerow([seed, metric, value])
    summary = aggregate([r for _, _, r in results])
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if want_trace:
        for seed, trace, _report in results:
            path = os.path.join(out_dir, f"trace_seed{seed}.jsonl")
            with open(path, "w", encoding="utf-8") as fh:
                for time, node, event, msg_id, info, nbytes in trace:
                    fh.write(json.dumps({
                        "time": time, "node": node, "event": event,
                        "msg_id": list(msg_id) if msg_id else None,
                        "info": info, "bytes": nbytes}) + "\n")


def cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.scenario)
    except (ConfigurationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seeds:
        scenario.seeds = parse_seeds(args.seeds)
    violations = validate_scenario(scenario)
    if violations:
        for v in violations:
            print(f"invalid scenario: {v}", file=sys.stderr)
        return 2
    results = run_batch(scenario, scenario.seeds, want_trace=args.trace)
    write_outputs(results, args.out, args.trace)
    summary = aggregate([r for _, _, r in results])
    for metric in sorted(summary):
        s = summary[metric]
        print(f"{metric}: mean={s['mean']:.6g} ci95=±{s['ci95_half']:.3g} n={s['n']}")
    return 0


def cmd_compare(args) -> int:
    preset = get_preset(args.preset)
    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    seeds = parse_seeds(args.seeds) if args.seeds else preset.scenario.seeds
    rows = []
    for proto in protocols:
        scenario = copy.deepcopy(preset.scenario)
        scenario.protocol = proto
        results = run_batch(scenario, seeds)
        summary = aggregate([r for _, _, r in results])
        rows.append((proto, summary))
    cols = ["delivery_rate", "bytes_control", "bytes_data", "bytes_total"]
    header = "protocol  " + "  ".join(f"{c:>14}" for c in cols)
    print(header)
    for proto, summary in rows:
        cells = []
        for c in cols:
            mean = summary.get(c, {}).get("mean", 0.0)
            cells.append(f"{mean:14.6g}")
        print(f"{proto:8}  " + "  ".join(cells))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, f"compare_{preset.name}.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["protocol", "metric", "mean", "std", "ci95_half", "n"])
            for proto, summary in rows:
                for metric in sorted(summary):
                    s = summary[metric]
                    writer.writerow([proto, metric, s["mean"], s["std"],
                                     s["ci95_half"], s["n"]])
    return 0


def _set_param(scenario: Scenario, name: str, raw: str) -> None:
    """Assign a scenario field by (possibly dotted) name, coercing the type
    from the current value."""
    target = scenario
    parts = name.split(".")
    if len(parts) == 1 and not hasattr(scenario, parts[0]):
        # search one level of nested specs for a bare name
        for fld in dataclasses.fields(scenario):
            sub = getattr(scenario, fld.name)
            if dataclasses.is_dataclass(sub) and hasattr(sub, parts[0]):
                parts = [fld.name, parts[0]]
                break
    for part in parts[:-1]:
        target = getattr(target, part)
    leaf = parts[-1]
    if not hasattr(target, leaf):
        raise ConfigurationError(f"unknown scenario parameter {name!r}")
    current = getattr(target, leaf)
    try:
        if raw.lower() in ("none", "null"):
            value = None
        elif isinstance(current, bool):
            value = raw.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float) or current is None:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise ConfigurationError(f"--values {raw!r} is not a valid {name!r}") from None
    setattr(target, leaf, value)


def cmd_sweep(args) -> int:
    preset = get_preset(args.preset)
    seeds = parse_seeds(args.seeds) if args.seeds else preset.scenario.seeds
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigurationError(f"--values {args.values!r} names no value")
    scenarios = []  # every value is checked before the header is written
    for raw in values:
        scenario = copy.deepcopy(preset.scenario)
        _set_param(scenario, args.param, raw)  # main reports a bad value
        violations = validate_scenario(scenario)
        for v in violations:
            print(f"invalid scenario for {args.param}={raw}: {v}", file=sys.stderr)
        if violations:
            return 2
        scenarios.append((raw, scenario))
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out_fh:
        writer = csv.writer(out_fh)
        writer.writerow(["param", "value", "seed", "metric", "metric_value"])
        for raw, scenario in scenarios:
            for seed, _trace, report in run_batch(scenario, seeds):
                for metric, value in sorted(report.to_scalars().items()):
                    writer.writerow([args.param, raw, seed, metric, value])
    return 0


def cmd_check(args) -> int:
    """Regression-check a preset (or all) against its expected values."""
    names = [args.preset] if args.preset else sorted(PRESETS)
    failed = False
    for name in names:
        preset = get_preset(name)
        if not preset.expected:
            print(f"{name}: no expected values, skipped")
            continue
        seeds = parse_seeds(args.seeds) if args.seeds else preset.scenario.seeds
        results = run_batch(preset.scenario, seeds)
        summary = aggregate([r for _, _, r in results])
        for exp in preset.expected:
            mean = summary.get(exp.metric, {}).get("mean")
            if mean is None:
                print(f"FAIL {name}/{exp.metric}: metric missing")
                failed = True
                continue
            ok = abs(mean - exp.value) <= exp.tolerance
            status = "PASS" if ok else "FAIL"
            print(f"{status} {name}/{exp.metric}: mean={mean:.6g} "
                  f"expected={exp.value:g}±{exp.tolerance:g}")
            failed = failed or not ok
    return 1 if failed else 0


def cmd_presets(args) -> int:
    for name in sorted(PRESETS):
        preset = PRESETS[name]
        print(f"{name}: {preset.description}")
        if args.write:
            os.makedirs(args.write, exist_ok=True)
            path = os.path.join(args.write, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(scenario_to_dict(preset.scenario), fh, indent=2)
                fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcnsim",
        description="Group-centric networking simulator and flooding baseline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario file over a seed batch")
    p.add_argument("scenario")
    p.add_argument("--seeds", help="'a..b' or comma list; default from file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--trace", action="store_true", help="write event traces")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run protocols on identical worlds")
    p.add_argument("preset")
    p.add_argument("--protocols", default="gcn,smf")
    p.add_argument("--seeds")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="sweep one scenario parameter")
    p.add_argument("preset")
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True)
    p.add_argument("--seeds")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check", help="regression-check preset expected values")
    p.add_argument("preset", nargs="?")
    p.add_argument("--seeds")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("presets", help="list (and optionally export) presets")
    p.add_argument("--write", help="directory to write preset scenario files")
    p.set_defaults(func=cmd_presets)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (KeyError, ConfigurationError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
