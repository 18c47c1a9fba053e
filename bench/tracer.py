"""Span tracing around ramseylab's public functions, from outside the package.

`Tracer.install` replaces each traced function at every module binding that
holds it (``ramseylab.arrowing.enumerate_copies``,
``ramseylab.booster.enumerate_copies``, the package re-export, ...), so
calls between modules are seen as well as calls from the benchmark.  Each
call becomes one span ``(key, span_id, parent_id, start, end)``; a span's
self time is its duration minus the durations of its direct children.
Counts are taken from the return values at the same boundaries.
"""

import inspect
import sys
import time
from collections import Counter, defaultdict

# layer (package module) -> traced public functions; regularity and cli
# are not measured
LAYERS = {
    "graphs": ("gnp_sample", "union"),
    "density": ("classify",),
    "counting": ("enumerate_copies", "count_P", "count_f_minus_through", "count_f_minus"),
    "arrowing": ("decide_arrow", "decide_arrow_union"),
    "booster": (
        "make_booster_spec",
        "construct_normal_family",
        "classify_bad",
        "restrict_index_consistent",
        "build_hypergraph",
        "hypergraph_stats",
    ),
    "experiments": ("threshold_curve", "estimate_arrow_probability", "z_property_rates"),
}
STAGES = ("pool", "psi1", "psi2", "psi3", "xi0")


def _count_arrow(counts, result):
    stats = result.stats
    counts["nodes"] += stats.get("nodes", 0)
    counts["propagations"] += stats.get("propagations", 0)
    counts["constraints"] += stats.get("constraints", 0)
    counts["undecided"] += result.verdict == "undecided"


def _count_copies(counts, result):
    counts["copies"] += len(result.copies)


def _count_stages(counts, result):
    report = result[1]
    for stage in STAGES:
        counts[stage] += report.get(stage, 0)


COUNTERS = {
    "arrowing.decide_arrow": _count_arrow,
    "counting.enumerate_copies": _count_copies,
    "booster.construct_normal_family": _count_stages,
}


class Tracer:
    """Records spans and counts while installed; restores every binding on
    `uninstall`.  With `keep_certificates`, every ``not_arrows`` result of
    `decide_arrow` is kept as (host, pattern, certificate) for checking."""

    def __init__(self, keep_certificates=False):
        self.spans = []
        self.counts = defaultdict(Counter)
        self.certificates = [] if keep_certificates else None
        self._stack = [0]  # span id 0 is the root: the benchmark itself
        self._next_id = 1
        self._patched = []

    def install(self):
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "ramseylab" or name.startswith("ramseylab.")
        ]
        for layer, names in LAYERS.items():
            home = sys.modules[f"ramseylab.{layer}"]
            for name in names:
                original = getattr(home, name)
                traced = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if vars(module).get(name) is original:
                        setattr(module, name, traced)
                        self._patched.append((module, name, original))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def record(self, key, start, end):
        """Adds a finished span under the current one; spans whose key is
        not a traced function belong to no layer."""
        span_id = self._next_id
        self._next_id += 1
        self.spans.append((key, span_id, self._stack[-1], start, end))

    def _wrap(self, key, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        count = COUNTERS.get(key)
        certificates = self.certificates if key == "arrowing.decide_arrow" else None
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((key, span_id, parent, start, end))
            if count is not None:
                count(self.counts[key], result)
            if certificates is not None and result.verdict == "not_arrows":
                call = signature.bind(*args, **kwargs).arguments
                certificates.append((call["G"], call["F"], result.certificate))
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self):
        """Per traced function: calls, self seconds and counts; plus
        the self time of copy enumeration under decide_arrow_union."""
        child_time = defaultdict(float)
        parent_of = {}
        key_of = {}
        for key, span_id, parent, start, end in self.spans:
            child_time[parent] += end - start
            parent_of[span_id] = parent
            key_of[span_id] = key
        under_union = {0: False}

        def inside_union(span_id):
            chain = []
            while span_id not in under_union:
                chain.append(span_id)
                if key_of[span_id] == "arrowing.decide_arrow_union":
                    under_union[span_id] = True
                    break
                span_id = parent_of[span_id]
            verdict = under_union[span_id]
            for s in chain:
                under_union[s] = verdict
            return verdict

        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        union_copies_self = 0.0
        for key, span_id, parent, start, end in self.spans:
            row = out[key]
            row["calls"] += 1
            own = end - start - child_time[span_id]
            row["self_s"] += own
            if key == "counting.enumerate_copies" and inside_union(parent):
                union_copies_self += own
        for key, counts in self.counts.items():
            out[key].update(counts)
        return dict(out), union_copies_self
