"""`tools/bench_pairs.py::summarize`, which turns paired benchmark runs into
the figures a BENCH_<pr>.json records: per-side quartiles, the change in
the median, and how many pairs the change won or tied.  The tool is loaded
by path; no benchmark process runs."""

import importlib.util
from pathlib import Path

import pytest

BENCH_PAIRS_PY = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarize = _load_bench_pairs().summarize


def _run(wall_s, rx_per_s=1000.0, failed=0, attempted=10, correct=True):
    return {"failed": failed, "attempted": attempted, "correct": correct,
            "metrics": {"wall_s": {"value": wall_s},
                        "rx_per_s": {"value": rx_per_s}}}


BETTER = {"wall_s": "lower", "rx_per_s": "higher"}


def test_median_change_and_winning_pairs_follow_each_metrics_direction():
    runs = {"parent": [_run(2.0, 100.0), _run(4.0, 200.0), _run(3.0, 300.0)],
            "change": [_run(1.0, 150.0), _run(4.0, 100.0), _run(2.0, 300.0)]}
    out = summarize(runs, BETTER)
    # wall_s medians 3.0 -> 2.0; lower is better: two wins, one tie
    assert out["wall_s"]["median_change_pct"] == pytest.approx(-33.33)
    assert out["wall_s"]["change_better_pairs"] == 2
    assert out["wall_s"]["tied_pairs"] == 1
    # rx_per_s medians 200 -> 150; higher is better: one win, one loss, one tie
    assert out["rx_per_s"]["median_change_pct"] == pytest.approx(-25.0)
    assert out["rx_per_s"]["change_better_pairs"] == 1
    assert out["rx_per_s"]["tied_pairs"] == 1


def test_a_rise_in_the_median_is_a_positive_change():
    runs = {"parent": [_run(1.0), _run(1.0)], "change": [_run(1.5), _run(1.1)]}
    out = summarize(runs, {"wall_s": "lower"})
    assert out["wall_s"]["median_change_pct"] == pytest.approx(30.0)
    assert out["wall_s"]["change_better_pairs"] == 0
    assert out["wall_s"]["tied_pairs"] == 0


def test_quartiles_are_inclusive():
    four = [_run(v) for v in (1.0, 2.0, 3.0, 4.0)]
    five = [_run(v) for v in (1.0, 2.0, 3.0, 4.0, 5.0)]
    # the exclusive method would give [1.25, 2.5, 3.75] for four runs
    out = summarize({"parent": four, "change": four}, {"wall_s": "lower"})
    assert out["wall_s"]["parent"] == out["wall_s"]["change"] == [1.75, 2.5, 3.25]
    out = summarize({"parent": five, "change": five}, {"wall_s": "lower"})
    assert out["wall_s"]["parent"] == [2.0, 3.0, 4.0]


def test_failed_over_attempted_is_recorded_run_by_run():
    runs = {"parent": [_run(1.0, failed=1, attempted=10), _run(1.0)],
            "change": [_run(1.0, failed=0, attempted=7), _run(1.0, failed=2)]}
    assert summarize(runs, {})["failed_over_attempted"] == {
        "parent": ["1/10", "0/10"], "change": ["0/7", "2/10"]}


@pytest.mark.parametrize("side", ["parent", "change"])
def test_one_wrong_run_on_either_side_makes_outputs_incorrect(side):
    runs = {"parent": [_run(1.0), _run(1.0)], "change": [_run(1.0), _run(1.0)]}
    assert summarize(runs, {})["outputs_correct"] is True
    runs[side][1] = _run(1.0, correct=False)
    assert summarize(runs, {})["outputs_correct"] is False
