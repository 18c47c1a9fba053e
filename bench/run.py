"""Seeded end-to-end and per-layer benchmark of ramseylab.

    python3 bench/run.py --workload {threshold,booster,zcheck} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  One process: it imports the package from
``src/``, sets the workload up several times (the median is ``setup_s``),
runs the seeded work once, checks the outputs outside the timed region and
prints a report.  Times are in reference seconds (see clock.py); the report
also gives the wall-clock values.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
half the work runs twice, untraced and then traced (see tracer.py), so the
run takes about as long; the two result payloads must be identical, and
the metrics are the per-layer ones.
"""

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5  # set-up repetitions; setup_s is their median

sys.path.insert(0, str(HERE))

from clock import RefClock  # noqa: E402
from tracer import LAYERS, STAGES, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def load_lab():
    """Import ramseylab afresh, so each set-up pays the import again."""
    for name in [m for m in sys.modules if m == "ramseylab" or m.startswith("ramseylab.")]:
        del sys.modules[name]
    return importlib.import_module("ramseylab")


def set_up(workload, seed, rounds, setups):
    """Runs `setups` set-ups; returns the last one's (lab, inputs) and the
    wall and reference seconds of each."""
    clock = RefClock()
    for _ in range(setups):
        clock.mark()
        lab = load_lab()
        inputs = workload.setup(lab, seed, rounds)
    clock.mark()
    return lab, inputs, clock.segments()


@dataclass
class Timing:
    wall: float  # seconds, calibration kernels excluded
    ref: float  # reference seconds
    items: list  # (wall, reference) seconds of each item
    speed: float  # median machine speed as a share of the reference speed


def timed_run(workload, lab, inputs, on_kernel=None):
    clock = RefClock(on_kernel)
    clock.mark()
    out = workload.run(lab, inputs, clock)
    clock.mark()
    segments = clock.segments()
    return out, Timing(
        wall=sum(w for w, _ in segments),
        ref=sum(r for _, r in segments),
        items=[segments[i] for i in out.segments],
        speed=clock.speed(),
    )


def tail(latencies):
    """p90 from 100 samples on; below that the highest percentile with at
    least ten samples beyond it, or the maximum when there is none."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 100:
        k = math.ceil(0.9 * n) - 1
    elif n > 10:
        k = n - 11
    else:
        k = n - 1
    return ordered[k], 100.0 * (k + 1) / n


def machine_info():
    info = {
        "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": "unknown",
        "git_sha": git_sha(),
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return info


def git_sha():
    """Commit of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, out, timing, setups, report):
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    n, unit = len(timing.items), workload.unit
    p50 = statistics.median(r for _, r in timing.items)
    p50_wall = statistics.median(w for w, _ in timing.items)
    (tail_ref, pct), (tail_wall, _) = tail([r for _, r in timing.items]), tail(
        [w for w, _ in timing.items])
    setup_ref = statistics.median(r for _, r in setups)
    setup_wall = statistics.median(w for w, _ in setups)
    report += [
        f"machine speed: {timing.speed:.3f} of the reference speed (median over the run)",
        f"items_per_s = {out.items / timing.ref:.4f} 1/s ({out.items} {unit} in "
        f"{timing.ref:.3f} reference s; wall {out.items / timing.wall:.4f} in {timing.wall:.3f} s)",
        f"decided_per_s = {out.decided / timing.ref:.4f} 1/s ({out.decided} decided {unit}; "
        f"wall {out.decided / timing.wall:.4f})",
        f"failed_frac = {(out.items - out.decided) / out.items:.4f} ({out.items - out.decided} "
        f"undecided or failed of {out.items} {unit}; {out.failed} inside calls that raised)",
        f"item latency median = {1e3 * p50:.3f} ms (of {n} {unit}; wall {1e3 * p50_wall:.3f}; "
        f"not a bounded metric)",
        f"item_p90_ms = {1e3 * tail_ref:.3f} ms (p{pct:.1f} of {n} {unit}, "
        f"{n - round(pct * n / 100)} beyond it; wall {1e3 * tail_wall:.3f})",
        f"setup_s = {setup_ref:.4f} s (median of {len(setups)} set-ups; wall {setup_wall:.4f})",
        f"peak_rss_mb = {peak_kb / 1024:.1f} MB",
    ]
    return {
        "setup_s": metric(setup_ref, "s"),
        "items_per_s": metric(out.items / timing.ref, "1/s"),
        "decided_per_s": metric(out.decided / timing.ref, "1/s"),
        "item_p90_ms": metric(1e3 * tail_ref, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def per_layer(tracer, wall, untraced_rate, traced_rate, report):
    """Per-layer metrics; `wall` is the traced set-up plus run."""
    rows, union_copies_self = tracer.summary()
    metrics = {}

    def row(key):
        return rows.get(key, {"calls": 0, "self_s": 0.0})

    def put(name, value, unit):
        metrics[name] = metric(value, unit)

    for layer, names in LAYERS.items():
        for name in names:
            key = f"{layer}.{name}"
            put(f"{key}.calls", row(key)["calls"], "count")
            put(f"{key}.self_s", row(key)["self_s"], "s")
    arrow = row("arrowing.decide_arrow")
    for count in ("nodes", "propagations", "constraints", "undecided"):
        put(f"arrowing.decide_arrow.{count}", arrow.get(count, 0), "count")
    nodes_per_s = arrow.get("nodes", 0) / arrow["self_s"] if arrow["self_s"] else 0.0
    put("arrowing.nodes_per_s", nodes_per_s, "1/s")
    report.append(f"arrowing.nodes_per_s = {nodes_per_s:.1f} "
                  f"({arrow.get('nodes', 0)} nodes in {arrow['self_s']:.3f} s decide_arrow self time)")
    copies = row("counting.enumerate_copies")
    put("counting.enumerate_copies.copies", copies.get("copies", 0), "count")
    per_call = copies.get("copies", 0) / copies["calls"] if copies["calls"] else 0.0
    put("counting.copies_per_call", per_call, "count")
    report.append(f"counting.copies_per_call = {per_call:.2f} "
                  f"({copies.get('copies', 0)} copies in {copies['calls']} calls)")
    put("counting.enumerate_copies.under_union_self_s", union_copies_self, "s")
    report.append(f"copy enumeration under decide_arrow_union: {union_copies_self:.3f} s "
                  f"of {copies['self_s']:.3f} s enumerate_copies self time")
    family = row("booster.construct_normal_family")
    for stage in STAGES:
        put(f"booster.{stage}", family.get(stage, 0), "count")
    pool = family.get("pool", 0)
    arrows_frac = family.get("psi1", 0) / pool if pool else 0.0
    put("booster.union_arrows_frac", arrows_frac, "frac")
    report.append(f"booster.union_arrows_frac = {arrows_frac:.4f} "
                  f"(psi1 {family.get('psi1', 0)} of pool {pool})")

    attributed = 0.0
    for layer, names in LAYERS.items():
        self_s = sum(row(f"{layer}.{name}")["self_s"] for name in names)
        attributed += self_s
        put(f"layer.{layer}.self_s", self_s, "s")
        put(f"layer.{layer}.share", self_s / wall, "frac")
        report.append(f"layer {layer}: {self_s:.3f} s self of {wall:.3f} s traced wall "
                      f"= {100 * self_s / wall:.1f}%")
    rest = wall - attributed
    put("layer.unattributed.share", rest / wall, "frac")
    report.append(f"unattributed: {rest:.3f} s of {wall:.3f} s = {100 * rest / wall:.1f}%")
    overhead = untraced_rate / traced_rate - 1
    put("trace.wall_s", wall, "s")
    put("trace.items_per_s", traced_rate, "1/s")
    put("trace.untraced_items_per_s", untraced_rate, "1/s")
    put("trace.overhead_frac", overhead, "frac")
    report.append(f"tracing overhead: {untraced_rate:.4f} untraced vs {traced_rate:.4f} traced "
                  f"items per reference second = {100 * overhead:.1f}% ({len(tracer.spans)} spans)")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ramseylab" / "__init__.py").is_file():
        print(f"bench: no ramseylab package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("bench: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    rounds = max(1, round(args.seconds / workload.ROUND_S))
    if args.trace:
        rounds = max(1, rounds // 2)  # the work runs twice: untraced, then traced
    report = [f"bench: workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace} rounds={rounds}",
              f"machine: {json.dumps(machine_info())}"]
    lab, inputs, setups = set_up(workload, args.seed, rounds, SETUPS)
    out, timing = timed_run(workload, lab, inputs)
    problems = []

    if args.trace:
        tracer = Tracer(keep_certificates=workload.keeps_certificates)
        lab = load_lab()
        start = time.perf_counter()
        tracer.install()
        try:
            inputs = workload.setup(lab, args.seed, rounds)
            setup_wall = time.perf_counter() - start
            traced, traced_timing = timed_run(
                workload, lab, inputs,
                on_kernel=lambda a, b: tracer.record("bench.calibration", a, b))
        finally:
            tracer.uninstall()
        if traced.payload != out.payload:
            problems.append("traced and untraced runs gave different results")
        metrics = per_layer(tracer, setup_wall + traced_timing.wall, out.items / timing.ref,
                            traced.items / traced_timing.ref, report)
        found, summary = workload.check(lab, inputs, traced, tracer.certificates)
    else:
        metrics = end_to_end(workload, out, timing, setups, report)
        found, summary = workload.check(lab, inputs, out, None)
    problems += found

    report.append(f"shape: {workload.shape(out)}")
    report.append(f"checks: {summary}" if not problems else "checks FAILED: " + "; ".join(problems[:5]))
    correct = not problems and out.failed == 0
    print("\n".join(report))
    print(json.dumps({"correct": correct, "attempted": out.items, "failed": out.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
