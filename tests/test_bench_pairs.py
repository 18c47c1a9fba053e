"""The pairs runner's reading of a benchmark report and its summary, on a
captured report and synthetic runs; no benchmark runs here."""

import importlib.util
import json
import subprocess
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


def runs_of(parent, change, name, wall=None):
    """Synthetic runs of one workload: pair i reads parent[i] and change[i].
    Their wall values are twice those, or wall[0][i] and wall[1][i]; with
    wall = () the runs have none."""
    if wall is None:
        wall = ([2 * x for x in parent], [2 * x for x in change])
    sides = (("parent", parent, wall[:1]), ("change", change, wall[1:]))
    return [{"workload": "zcheck", "seed": i, "side": side, "metrics": {name: values[i]},
             "wall": {name: w[i] for w in walls}}
            for i in range(len(parent)) for side, values, walls in sides]


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


def test_claim_is_met_on_most_pairs_both_ways_and_a_median_gain_beyond_the_parent_iqr():
    better = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    parent = [100.0, 102.0, 104.0, 106.0, 108.0]  # median 104, IQR 4 (3.8%)
    up = [x * 1.1 for x in parent]  # wins every pair, +10%
    slight = [x + 1 for x in parent]  # wins every pair, +1%

    def claim(parent, change, name="items_per_s", wall=None):
        summary = bench_pairs.summarise(runs_of(parent, change, name, wall), better)
        return summary["zcheck"][name]["claim_met"]

    assert claim(parent, up)
    assert not claim(parent, slight)  # the gain lies inside the parent's IQR
    assert not claim(up, parent)  # a loss in the better direction
    # for a lower-better metric a fall is the gain
    assert claim(up, parent, "item_p90_ms") and not claim(parent, up, "item_p90_ms")
    # most pairs: three wins of five carry it, two of four do not, though
    # the median gain of +6.8% exceeds that parent's IQR of 2.9%
    assert claim(parent, [110.0, 112.2, 114.4, 100.0, 100.0])
    assert not claim(parent[:4], [130.0, 130.0, 90.0, 90.0])
    # the wall values must win most pairs too, where the runs have them
    assert not claim(parent, up, wall=(up, parent))
    assert claim(parent, up, wall=())
    # the wall summary carries the same verdict
    runs = runs_of(parent, up, "items_per_s", (up, parent))
    assert not bench_pairs.summarise(runs, better, "wall")["zcheck"]["items_per_s"]["claim_met"]


def test_a_regression_is_eight_losses_of_ten_beyond_the_parent_iqr():
    better = bench_pairs.directions(json.loads((ROOT / "BENCHMARK.json").read_text()))
    parent = [100.0 + 2 * i for i in range(10)]  # median 109, IQR 9 (8.3%)

    def regressed(change, name="items_per_s"):
        # the wall values are twice the rescaled ones: both flags agree
        runs = runs_of(parent, change, name)
        flags = {bench_pairs.summarise(runs, better, values)["zcheck"][name]["regressed"]
                 for values in ("metrics", "wall")}
        assert len(flags) == 1
        return flags.pop()

    # 8 of 10 lost, the median down 15%: beyond the parent's IQR
    assert regressed([x * 0.85 for x in parent[:8]] + [x * 1.01 for x in parent[8:]])
    # 8 of 10 lost, the median down 1%: within it
    assert not regressed([x * 0.99 for x in parent[:8]] + [x * 1.01 for x in parent[8:]])
    # 7 of 10 lost, the median down 15%: too few pairs
    assert not regressed([x * 0.85 for x in parent[:7]] + [x * 1.2 for x in parent[7:]])
    # for a lower-better metric a rise is the loss
    assert regressed([x * 1.15 for x in parent], "item_p90_ms")
    assert not regressed([x * 0.85 for x in parent], "item_p90_ms")


def test_bench_keeps_a_run_that_fails_or_prints_no_json(monkeypatch):
    outputs = iter([(0, "report\n{\"correct\": true}\n"), (3, "report\n{\"correct\": true}\n"),
                    (0, "report\nTraceback\n"), (0, "")])

    def run(cmd, **kwargs):
        assert "check" not in kwargs
        code, out = next(outputs)
        return subprocess.CompletedProcess(cmd, code, out, "")

    monkeypatch.setattr(subprocess, "run", run)
    got = [bench_pairs.bench("tree", "zcheck", 1, 25) for _ in range(4)]
    assert got == [(0, ["report"], {"correct": True}), (3, ["report", '{"correct": true}'], None),
                   (0, ["report", "Traceback"], None), (0, [], None)]


def test_a_failing_run_is_recorded_and_its_pair_left_out(monkeypatch, tmp_path):
    # pair 1 of `booster` has a change run that exits 1 with no JSON line:
    # the file is still written, with that run and 2 of 3 pairs summarised
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    monkeypatch.chdir(tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    monkeypatch.setattr(bench_pairs, "PAIRS", 3)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "archive", lambda rev, dest: None)
    first = 100 * 9 + 1

    def bench(tree, workload, seed, seconds):
        if (workload, seed, tree.name) == ("booster", first + 1, "change"):
            return 1, ["Traceback (most recent call last):"], None
        last = {"correct": True, "attempted": 5, "failed": 0,
                "metrics": {name: {"value": float(seed)} for name in bench_pairs.WALL}}
        return 0, ['machine: {"cpu": "test"}', *REPORT], last

    monkeypatch.setattr(bench_pairs, "bench", bench)
    assert bench_pairs.main(["--pr", "9", "--parent", "p0", "--change", "c1"]) == 1
    result = json.loads((tmp_path / "BENCH_9.json").read_text())
    assert len(result["runs"]) == 3 * 2 * len(spec["workloads"])
    failed = [r for r in result["runs"] if "metrics" not in r]
    assert failed == [{"workload": "booster", "seed": first + 1, "side": "change",
                       "exit_code": 1, "correct": False}]
    assert not result["all_correct"] and result["failed"] == 0
    for summary in (result["summary"], result["wall_summary"]):
        pairs = {w: rows["items_per_s"]["pairs"] for w, rows in summary.items()}
        assert pairs == {w["name"]: 2 if w["name"] == "booster" else 3 for w in spec["workloads"]}
