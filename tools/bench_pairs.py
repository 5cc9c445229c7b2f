"""Record benchmark pairs of two checkouts in BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent ../parent --change . --pr N \
        --seeds 1201..1210 --what "what the change does"

For each workload in BENCHMARK.json and each seed, `perfbench/run.py` runs
once in each checkout (`--trace 0`), the parent first on even offsets into
the seed list and the change first on odd ones, one run at a time, for the
benchmark's `run_seconds`.  A traced run (`--trace 1`) of each side on seed
1 then gives the per-layer metrics.  Each run is a fresh process started in
its checkout, so it times that checkout's sources.  The file is written
once every workload has run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
TRACED_SEED = 1

sys.path.insert(0, str(ROOT / "src"))
from gcnsim.cli import parse_seeds  # noqa: E402


def bench(side: str, checkout: Path, workload: str, seed: int, seconds: float,
          trace: int) -> dict:
    """One perfbench run; its result is the last line of standard output.  A
    failing run shows its side, workload, seed and standard error."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                              check=True)
    except subprocess.CalledProcessError as exc:
        print(f"{side} run failed: workload {workload}, seed {seed}, "
              f"trace {trace}\n{exc.stderr}", file=sys.stderr, flush=True)
        raise
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values: list) -> list:
    return [round(q, 6) for q in statistics.quantiles(values, n=4, method="inclusive")]


def summarize(runs: dict, better: dict) -> dict:
    """Each side's [q1, median, q3] per metric, and how the pairs compare."""
    out = {
        "failed_over_attempted": {side: [f"{r['failed']}/{r['attempted']}"
                                         for r in runs[side]] for side in SIDES},
        "outputs_correct": all(r["correct"] for side in SIDES for r in runs[side]),
    }
    for name, direction in better.items():
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        sign = 1 if direction == "higher" else -1
        diffs = [sign * (c - p) for p, c in zip(vals["parent"], vals["change"])]
        base = statistics.median(vals["parent"])
        out[name] = {
            **{side: quartiles(vals[side]) for side in SIDES},
            "median_change_pct": round(
                100.0 * (statistics.median(vals["change"]) - base) / base, 2)
            if base else 0.0,
            "change_better_pairs": sum(d > 0 for d in diffs),
            "tied_pairs": sum(d == 0 for d in diffs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, type=Path)
    parser.add_argument("--change", required=True, type=Path)
    parser.add_argument("--pr", required=True, type=int)
    parser.add_argument("--seeds", required=True, help="'a..b' or a comma list")
    parser.add_argument("--what", required=True, help="the change, in one sentence")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    out_path = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "what": args.what,
        "host": f"{os.cpu_count()} CPU {platform.system()} {platform.machine()}, "
                f"Python {platform.python_version()}; timings on perfbench's scaled clock",
        "untimed_command": f"python3 perfbench/run.py --workload W --seed N "
                           f"--seconds {seconds:g} --trace 0",
        "pairs": f"{len(seeds)} per workload, seeds {args.seeds}, alternating "
                 "which side ran first (parent first on even offsets); each cell "
                 "is [q1, median, q3] over the runs (inclusive quartiles)",
        "end_to_end": {},
        f"traced_seed_{TRACED_SEED}": {
            "command": f"python3 perfbench/run.py --workload W --seed "
                       f"{TRACED_SEED} --seconds {seconds:g} --trace 1",
            "workloads": {}},
    }
    traced = record[f"traced_seed_{TRACED_SEED}"]
    for name in (w["name"] for w in spec["workloads"]):
        runs = {side: [] for side in SIDES}
        for offset, seed in enumerate(seeds):
            order = SIDES if offset % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(bench(side, checkouts[side], name, seed, seconds, 0))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{side} {runs[side][-1]['metrics']['wall_s']['value']:.3f} s"
                for side in SIDES), file=sys.stderr, flush=True)
        record["end_to_end"][name] = summarize(runs, better)
        layers = {side: bench(side, checkouts[side], name, TRACED_SEED, seconds,
                              1)["metrics"]
                  for side in SIDES}
        traced["workloads"][name] = {
            metric: [round(layers[side][metric]["value"], 6) for side in SIDES]
            for metric in layers["parent"]}
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
