"""Alternating parent/change pairs of the benchmark, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --pr N --parent REV [--change REV]

Run from the repository root.  Each side runs `bench/run.py` from a
`git archive` tree of its revision, so only committed files take part,
with PYTHONDONTWRITEBYTECODE=1, the running interpreter, `--trace 0` (the
end-to-end metrics) and `--seconds` from BENCHMARK.json's `run_seconds`.
Each workload BENCHMARK.json lists runs 10 pairs; pair i runs seed
100 * N + 1 + i on both sides: the parent first in even pairs, the change
first in odd ones.  For each workload and metric the summary gives both
sides' quartiles (inclusive), the change's wins (a better value; ties
count for neither, and the better direction is read from BENCHMARK.json),
the change of the median in percent and the parent's IQR as a percent of
its median.  "summary" reads the rescaled values of each run's last JSON
line, and "wall_summary" the wall-clock values of `items_per_s`,
`decided_per_s`, `item_p90_ms` and `setup_s` in its report lines.  Every
run's rescaled and wall-clock metrics are kept under "runs".  Progress
goes to standard error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from io import BytesIO
from pathlib import Path

PAIRS = 10
# the report lines that give a wall-clock value beside the rescaled one
WALL = ("items_per_s", "decided_per_s", "item_p90_ms", "setup_s")


def git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def archive(rev, dest):
    """Unpack `git archive rev` into `dest`."""
    data = subprocess.run(["git", "archive", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=BytesIO(data)) as tar:
        tar.extractall(dest, filter="data")


def bench(tree, workload, seed, seconds):
    """The report and the last JSON line of one untraced benchmark run in `tree`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def wall_values(report):
    """The wall-clock value of each `WALL` metric, read off the "wall X" of
    its `name = ...` report line."""
    out = {}
    for line in report:
        name = line.split(" = ", 1)[0]
        if name in WALL:
            out[name] = float(re.search(r"\bwall ([\w.+-]+)", line).group(1))
    return out


def directions(spec):
    """Metric name -> "higher" or "lower", the better direction BENCHMARK.json gives."""
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def quartiles(xs):
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs, better, values="metrics"):
    """Per workload and metric: quartiles of both sides and the change's
    wins, over each run's `values` ("metrics" or "wall")."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        by_seed = {}
        for r in runs:
            if r["workload"] == workload:
                by_seed.setdefault(r["seed"], {})[r["side"]] = r[values]
        pairs = [p for p in by_seed.values() if len(p) == 2]
        rows = {}
        for name in pairs[0]["parent"]:
            parent = [p["parent"][name] for p in pairs]
            change = [p["change"][name] for p in pairs]
            sign = 1 if better.get(name, "higher") == "higher" else -1
            qp, qc = quartiles(parent), quartiles(change)
            rows[name] = {
                "pairs": len(pairs),
                "change_wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
                "parent": qp,
                "change": qc,
                "median_change_pct": 100 * (qc["median"] - qp["median"]) / qp["median"],
                "parent_iqr_pct": 100 * (qp["q3"] - qp["q1"]) / qp["median"],
            }
        out[workload] = rows
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--pr", type=int, required=True, help="number in the output name")
    ap.add_argument("--parent", required=True, help="parent revision")
    ap.add_argument("--change", default="HEAD", help="change revision (default HEAD)")
    args = ap.parse_args(argv)
    first = 100 * args.pr + 1
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = directions(spec)
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", args.change)}
    runs, machine = [], None
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {}
        for side, rev in revs.items():
            trees[side] = Path(tmp) / side
            archive(rev, trees[side])
        for workload in (w["name"] for w in spec["workloads"]):
            for i in range(PAIRS):
                seed = first + i
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    report, last = bench(trees[side], workload, seed, seconds)
                    machine = machine or next(json.loads(line.split(": ", 1)[1])
                                              for line in report if line.startswith("machine: "))
                    machine.pop("git_sha", None)  # an archive tree has no git; see the revisions
                    runs.append({"workload": workload, "seed": seed, "side": side,
                                 "correct": last["correct"], "attempted": last["attempted"],
                                 "failed": last["failed"],
                                 "metrics": {k: v["value"] for k, v in last["metrics"].items()},
                                 "wall": wall_values(report)})
                    print(f"{workload} seed {seed} {side}: correct={last['correct']} "
                          f"failed={last['failed']}", file=sys.stderr)
    result = {
        "parent": revs["parent"],
        "change": revs["change"],
        "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds} --trace 0",
        "method": f"{PAIRS} pairs per workload on seeds {first}-{first + PAIRS - 1}; "
                  "even pairs run the parent first, odd pairs the change; each side runs "
                  "from a `git archive` tree of its revision with PYTHONDONTWRITEBYTECODE=1; "
                  "a win is a better value for the change; quartiles are inclusive; "
                  "parent_iqr_pct is the parent's (q3 - q1) / median",
        "machine": machine,
        "all_correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "summary": summarise(runs, better),
        "wall_summary": summarise(runs, better, "wall"),
        "runs": runs,
    }
    path = Path(f"BENCH_{args.pr}.json")
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
