"""The benchmark's flood-reach check, tried on the simulator itself.

    PYTHONPATH=src python3 -m pytest perfbench/test_checks.py

On criterion 3's flood batch (byte_comparison, seeds 0-9) a flood without
forwarding jitter reaches every member that the unit-disk graph connects to
the sender.  With the default jitter a longer path can arrive first carrying
a smaller TTL budget, the duplicate cache drops the better copy, and some
seeds miss a reachable member: the check must see that.
"""

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from gcnsim.analytics import build_world  # noqa: E402
from gcnsim.engine import Run  # noqa: E402
from gcnsim.presets import get_preset  # noqa: E402

SEEDS = range(10)


def seeds_missing_a_member(forward_jitter_max: float) -> list:
    base = get_preset("byte_comparison").scenario
    sc = replace(base, protocol="smf",
                 timing=replace(base.timing, forward_jitter_max=forward_jitter_max))
    missed = []
    for seed in SEEDS:
        nodes, source = build_world(sc, seed)
        positions = {n: p for n, p, _ in nodes}
        members = {n for n, _, flag in nodes if flag}
        reachable = members & set(checks.hop_distances(positions, sc.tx_radius, source))
        trace, _report = Run(sc, seed).run()
        if checks.delivers_to_all(trace, source, reachable):
            missed.append(seed)
    return missed


def test_reach_check_passes_without_jitter():
    assert seeds_missing_a_member(0.0) == []


def test_reach_check_fails_with_default_jitter():
    assert seeds_missing_a_member(get_preset("byte_comparison").scenario
                                  .timing.forward_jitter_max) != []
