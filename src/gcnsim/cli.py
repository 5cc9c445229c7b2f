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
from .engine import Run, Trace, trace_lines
from .model import (PROTOCOLS, ConfigurationError, Scenario, load_scenario,
                    save_scenario, validate_scenario)
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
    if len(set(seeds)) != len(seeds):
        raise ConfigurationError(f"--seeds {spec!r} repeats a seed")
    return seeds


def write_trace(trace: Trace, out_dir: str, seed: int) -> None:
    with open(os.path.join(out_dir, f"trace_seed{seed}.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.writelines(trace_lines(trace))


def _worker(args):
    scenario, seed, trace_dir = args
    trace, report = Run(scenario, seed, collect_trace=trace_dir is not None).run()
    if trace_dir is not None:  # written where it ran: no trace is pickled back
        write_trace(trace, trace_dir, seed)
        trace = Trace()
    return seed, trace, report


def run_batch(jobs: list) -> list:
    """(seed, trace, report) of each (scenario, seed, trace_dir) job, in job
    order; a job writes its trace to `trace_dir` unless that is None."""
    raw = os.environ.get("GCNSIM_WORKERS", str(os.cpu_count() or 1))
    try:
        workers = min(int(raw), len(jobs))
    except ValueError:
        raise ConfigurationError(f"GCNSIM_WORKERS={raw!r} is not an integer") from None
    if workers <= 1:
        return list(map(_worker, jobs))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_worker, jobs))


def _run_groups(groups: list, trace_dir: str | None = None) -> list:
    """Each (scenario, seeds) group's results in seed order, run as one job list."""
    results = iter(run_batch([(scenario, seed, trace_dir)
                              for scenario, seeds in groups for seed in sorted(seeds)]))
    return [[next(results) for _ in seeds] for _, seeds in groups]


def write_outputs(results: list, out_dir: str, want_trace: bool) -> dict:
    """Write `per_seed.csv`, `summary.json` and, if `want_trace`, the traces
    to `out_dir`; return the summary written."""
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
            write_trace(trace, out_dir, seed)
    return summary


def _invalid(scenario: Scenario, label: str = "") -> bool:
    """Print every violation of `scenario`, under `label` if one is given;
    True if there is one."""
    violations = validate_scenario(scenario)
    where = f" for {label}" if label else ""
    for v in violations:
        print(f"invalid scenario{where}: {v}", file=sys.stderr)
    return bool(violations)


def cmd_run(args) -> int:
    scenario = load_scenario(args.scenario)
    if args.seeds:
        scenario.seeds = parse_seeds(args.seeds)
    if _invalid(scenario):
        return 2
    os.makedirs(args.out, exist_ok=True)  # before any seed runs
    [results] = _run_groups([(scenario, scenario.seeds)], args.out if args.trace else None)
    summary = write_outputs(results, args.out, want_trace=False)
    for metric in sorted(summary):
        s = summary[metric]
        print(f"{metric}: mean={s['mean']:.6g} ci95=±{s['ci95_half']:.3g} n={s['n']}")
    return 0


def cmd_compare(args) -> int:
    preset = get_preset(args.preset)
    seeds = parse_seeds(args.seeds) if args.seeds else preset.scenario.seeds
    scenarios = [dataclasses.replace(preset.scenario, protocol=p) for p in PROTOCOLS]
    if args.out:
        os.makedirs(args.out, exist_ok=True)  # before any seed runs
    rows = [(sc.protocol, aggregate([r for _, _, r in results])) for sc, results
            in zip(scenarios, _run_groups([(sc, seeds) for sc in scenarios]))]
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
    """Assign one scenario value by its path, coercing the type from the
    current value.  A nested spec's field is named through the spec
    ("channel.base_loss"), and an integer part indexes a list
    ("traffic.flows.0.rate"); a list's item itself is no parameter ("seeds.0":
    the runs read their seeds from `--seeds` or the preset, not the copy)."""
    parts = name.split(".")
    current = scenario
    for part in parts:
        target = current
        if isinstance(target, list) and part.isdecimal() and int(part) < len(target):
            current = target[int(part)]
        elif dataclasses.is_dataclass(target) and part in vars(target):
            current = getattr(target, part)
        else:
            raise ConfigurationError(f"unknown scenario parameter {name!r}")
    if dataclasses.is_dataclass(current) or isinstance(current, (list, tuple)):
        raise ConfigurationError(f"scenario parameter {name!r} is not one value")
    if isinstance(target, list):
        raise ConfigurationError(f"scenario parameter {name!r} is a list item")
    try:
        if raw.lower() in ("none", "null"):
            value = None
        elif isinstance(current, int):
            value = int(raw)
        elif isinstance(current, float) or current is None:
            value = float(raw)
        else:
            value = raw
    except ValueError:
        raise ConfigurationError(f"--values {raw!r} is not a valid {name!r}") from None
    setattr(target, part, value)


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
        if _invalid(scenario, f"{args.param}={raw}"):
            return 2
        scenarios.append(scenario)
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as out_fh:
        writer = csv.writer(out_fh)
        writer.writerow(["param", "value", "seed", "metric", "metric_value"])
        for raw, results in zip(values, _run_groups([(sc, seeds) for sc in scenarios])):
            for seed, _trace, report in results:
                for metric, value in sorted(report.to_scalars().items()):
                    writer.writerow([args.param, raw, seed, metric, value])
    return 0


def cmd_check(args) -> int:
    """Regression-check a preset (or all) against its expected values."""
    names = [args.preset] if args.preset else sorted(PRESETS)
    presets = [get_preset(name) for name in names]
    seeds = parse_seeds(args.seeds) if args.seeds else None
    batches = iter(_run_groups([(p.scenario, seeds or p.scenario.seeds)
                                for p in presets if p.expected]))
    failed = False
    for name, preset in zip(names, presets):
        if not preset.expected:
            print(f"{name}: no expected values, skipped")
            continue
        summary = aggregate([r for _, _, r in next(batches)])
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
            save_scenario(preset.scenario, os.path.join(args.write, f"{name}.json"))
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

    p = sub.add_parser("compare", help="run GCN and the flood on identical worlds")
    p.add_argument("preset")
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
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
