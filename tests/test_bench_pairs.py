"""The pairs runner's reading of a benchmark report and its summary, on a
captured report and synthetic runs; no benchmark runs here."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# the metric lines of a `bench/run.py --workload zcheck --trace 0` report
REPORT = """\
bench: workload=zcheck seed=1 seconds=25 trace=0 rounds=312
machine speed: 0.720 of the reference speed (median over the run)
items_per_s = 1898.3922 1/s (312 trials in 0.164 reference s; wall 1364.8312 in 0.229 s)
decided_per_s = 1898.3922 1/s (312 decided trials; wall 1364.8312)
failed_frac = 0.0000 (0 undecided or failed of 312 trials; 0 inside calls that raised)
item latency median = 0.503 ms (of 312 trials; wall 0.696; not a bounded metric)
item_p90_ms = 0.543 ms (p90.1 of 312 trials, 31 beyond it; wall 0.766)
setup_s = 0.0425 s (median of 5 set-ups; wall 0.0586)
peak_rss_mb = 41.5 MB
shape: 312 of 312 trials sample a bad embedding
checks: 312 trials match the K3 closed forms""".splitlines()


def test_wall_values_are_read_off_the_report_lines():
    assert bench_pairs.wall_values(REPORT) == {
        "items_per_s": 1364.8312, "decided_per_s": 1364.8312,
        "item_p90_ms": 0.766, "setup_s": 0.0586}


def runs_of(parent, change, name):
    """Synthetic runs of one workload: pair i reads parent[i] and change[i]."""
    return [{"workload": "zcheck", "seed": i, "side": side, "metrics": {name: value},
             "wall": {name: 2 * value}}
            for i, pair in enumerate(zip(parent, change))
            for side, value in zip(("parent", "change"), pair)]


def test_summary_counts_wins_in_the_benchmark_direction_and_the_parent_iqr():
    better = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    assert better["items_per_s"] == "higher" and better["item_p90_ms"] == "lower"
    parent = [10.0, 12.0, 14.0, 16.0, 18.0]
    change = [11.0, 12.0, 13.0, 20.0, 19.0]  # higher in 3 pairs, one tie, lower in 1
    for name, wins in (("items_per_s", 3), ("item_p90_ms", 1)):
        for values, scale in (("metrics", 1), ("wall", 2)):
            row = bench_pairs.summarise(runs_of(parent, change, name), better, values)["zcheck"][name]
            assert row["pairs"] == 5 and row["change_wins"] == wins
            assert row["parent"] == {"q1": 12.0 * scale, "median": 14.0 * scale, "q3": 16.0 * scale}
            assert row["change"]["median"] == 13.0 * scale
            assert row["median_change_pct"] == pytest.approx(100 * (13 - 14) / 14)
            assert row["parent_iqr_pct"] == pytest.approx(100 * 4 / 14)
