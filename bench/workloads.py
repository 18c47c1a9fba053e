"""The three seeded workloads: inputs, timed run, and output checks.

Each workload is a fixed list of public-API calls built from the seed
(`setup`), run in order (`run`), and checked afterwards (`check`).  `run`
marks the start of every item on a `clock.RefClock`.  The number of calls
grows with the requested run length at a fixed rate, so a given (seed,
seconds) pair always runs exactly the same work; every count and result
repeats, and only timings vary.  See README.md for why each workload was
chosen.
"""

import hashlib
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

import hosts

# wilson_interval's upper end lands one rounding step below 1.0 when every
# decided trial arrows; the checks allow that much and no more
WILSON_SLACK = 1e-12


def derived_seed(lab, *path):
    """Seed keyed by a hash of the path, so calls never share a stream."""
    digest = hashlib.blake2b(repr(path).encode(), digest_size=8).digest()
    return lab.graphs.Seed(int.from_bytes(digest, "little"))


@dataclass
class Outcome:
    """What a run produced; `payload` must repeat exactly between runs."""

    payload: list = field(default_factory=list)
    items: int = 0  # trials or hosts attempted
    decided: int = 0  # items with a decided result
    failed: int = 0  # items inside a call that raised
    segments: list = field(default_factory=list)  # clock segment of each item
    log: list = field(default_factory=list)  # per-item records for the checks


def _failed_call(outcome, items):
    traceback.print_exc(file=sys.stderr)
    outcome.items += items
    outcome.failed += items
    outcome.payload.append("raised")


# -- threshold -----------------------------------------------------------------


class Threshold:
    """Monte Carlo threshold curves for K3 and C4 around n^(-1/m2)."""

    unit = "trials"
    keeps_certificates = True  # the traced run checks every not_arrows certificate
    # (pattern, n, c grid, node budget per trial, trials per c point and call).
    # Enough trials that no point has every trial undecided; twice as many
    # K3 trials, so the median trial lies inside a cluster of similar trials.
    CURVES = (("K3", 30, (1.5, 2.0, 2.5), 600, 24), ("C4", 13, (2.5, 3.0, 3.5), 1000, 12))
    ROUND_S = 3.1  # seconds per round (one call per curve) on the reference machine

    def setup(self, lab, seed, rounds):
        calls = []
        for r in range(rounds):
            for name, n, cs, budget, trials in self.CURVES:
                calls.append({
                    "F": lab.graphs.pattern_by_name(name), "name": name, "n": n, "c": cs,
                    "budget": budget, "trials": trials,
                    "seed": derived_seed(lab, "threshold", seed, r, name),
                })
        return calls

    def run(self, lab, calls, clock):
        out = Outcome()
        for call in calls:
            # the library's own default verdict function, with a mark per trial
            solve = lab.experiments.solver_verdict(call["F"], call["budget"])

            def timed(n, p, seed, solve=solve, name=call["name"]):
                out.segments.append(clock.mark())
                verdict = solve(n, p, seed)
                out.log.append((name, n, p, seed, verdict))
                return verdict

            try:
                curve = lab.experiments.threshold_curve(
                    call["F"], call["n"], call["c"], call["trials"], call["seed"],
                    budget=call["budget"], verdict_fn=timed,
                )
            except Exception:
                _failed_call(out, call["trials"] * len(call["c"]))
                continue
            out.payload.append(curve)
            out.items += call["trials"] * len(call["c"])
            out.decided += sum(pt["decided"] for pt in curve["points"])
        return out

    def check(self, lab, calls, out, certificates):
        problems = []
        # a call that raised leaves the trial log out of step with the calls
        trials = iter(out.log)
        for call, curve in zip(calls, [] if out.failed else out.payload):
            for c, point in zip(call["c"], curve["points"]):
                verdicts = [next(trials)[4] for _ in range(call["trials"])]
                arrows = verdicts.count("arrows")
                undecided = verdicts.count("undecided")
                decided = call["trials"] - undecided
                if (point["undecided"], point["decided"]) != (undecided, decided):
                    problems.append(f"{call['name']} c={c}: undecided count differs from its trials")
                elif point["estimate"] != arrows / decided:
                    problems.append(f"{call['name']} c={c}: estimate differs from its trials")
                elif not (point["wilson_low"] - WILSON_SLACK <= point["estimate"]
                          <= point["wilson_high"] + WILSON_SLACK):
                    problems.append(f"{call['name']} c={c}: Wilson interval misses the estimate")
        if certificates is None:
            # untraced run: re-solve the not_arrows trials of the first round
            certificates = []
            budgets = {name: budget for name, _, _, budget, _ in self.CURVES}
            first_round = sum(len(cs) * trials for _, _, cs, _, trials in self.CURVES)
            for name, n, p, seed, verdict in out.log[:first_round]:
                if verdict != "not_arrows":
                    continue
                F = lab.graphs.pattern_by_name(name)
                budget = budgets[name]
                G = lab.graphs.gnp_sample(n, p, seed)
                res = lab.arrowing.decide_arrow(G, F, budget=budget)
                if res.verdict != "not_arrows":
                    problems.append(f"{name} trial {seed}: verdict changed on re-solve")
                    continue
                certificates.append((G, F, res.certificate))
        bad = sum(1 for G, F, cert in certificates if not lab.arrowing.is_f_free(cert, G, F)[0])
        if bad:
            problems.append(f"{bad} of {len(certificates)} not_arrows certificates hold a monochromatic copy")
        return problems, f"{len(certificates)} not_arrows certificates pass is_f_free"

    def shape(self, out):
        undecided = out.items - out.decided - out.failed
        return f"{undecided} of {out.items} trials undecided at the node budget"


# -- booster -------------------------------------------------------------------


class Booster:
    """The normal-family pipeline, host by host, as the `booster` CLI runs it."""

    unit = "hosts"
    keeps_certificates = False
    BUDGET = 2000  # node budget of each union decision
    L = 12  # focus-set length cap of the profile restriction
    # (label, host builder, booster name, sampled pool size or None for full)
    KINDS = (
        ("block1", ("block", 6, 1, False), "K2", None),
        ("block1-dec", ("block", 8, 1, True), "K2", None),
        ("block2", ("block", 12, 2, False), "K2", None),
        ("block3", ("block", 18, 3, False), "K2", 60),
        ("block4-dec", ("block", 26, 4, True), "K2", 60),
        ("block1-dec-P3", ("block", 9, 1, True), "P3", 60),
        ("block2-P3", ("block", 12, 2, False), "P3", 60),
        ("random-K2", ("random",), "K2", 40),
        ("random-P3", ("random",), "P3", 40),
        ("random-C5", ("random",), "C5", 40),
    )
    ROUND_S = 1.7  # seconds per round (one host of each kind) on the reference machine

    def setup(self, lab, seed, rounds):
        K3 = lab.graphs.complete_graph(3)
        specs = {
            name: lab.booster.make_booster_spec(lab.graphs.pattern_by_name(name), K3)
            for name in ("K2", "P3", "C5")
        }
        jobs = []
        for r in range(rounds):
            for label, build, booster, pool in self.KINDS:
                sd = derived_seed(lab, "booster", seed, r, label)
                if build[0] == "block":
                    _, n, blocks, decorate = build
                    Z = hosts.block_host(lab, n, blocks, sd.substream(0), decorate)
                    p = 0.5
                else:
                    Z, p = hosts.random_host(lab, sd.substream(0))
                params = {"D": 4, "delta": Fraction(1, 12), "p": p,
                          "alpha": Fraction(1, 4), "budget": self.BUDGET}
                if pool:
                    params["pool_size"] = pool
                jobs.append({"label": label, "Z": Z, "F": K3, "spec": specs[booster],
                             "params": params, "seed": sd})
        return jobs

    def _pipeline(self, lab, job):
        B = lab.booster
        Z, F, spec, params = job["Z"], job["F"], job["spec"], job["params"]
        xi0, report = B.construct_normal_family(Z, spec, F, params, seed=job["seed"].substream(1))
        result = {"family": xi0, "report": report}
        if xi0:
            xi, prof, rrep = B.restrict_index_consistent(
                Z, xi0, spec, F, self.L, seed=job["seed"].substream(2))
            bh = B.build_hypergraph(Z, xi, spec, F, prof)
            # plain values only: the package's classes differ between imports
            result["restricted"] = {"family": xi, "profile": prof and prof.pi, "report": rrep,
                                    "hyperedges": [fs.members for fs in bh.focus_sets]}
            if xi and prof and prof.length >= 2:
                tau = Z.n ** float(-params["delta"] / (4 * (prof.length - 1)))
                stats = B.hypergraph_stats(bh, tau)
                result["stats"] = {k: str(v) for k, v in stats.items()}
        return result

    def run(self, lab, jobs, clock):
        out = Outcome()
        for job in jobs:
            segment = clock.mark()
            try:
                result = self._pipeline(lab, job)
            except Exception:
                _failed_call(out, 1)
                continue
            out.segments.append(segment)
            out.payload.append(result)
            out.items += 1
            out.decided += result["report"]["removed"].get("undecided", 0) == 0
        return out

    def check(self, lab, jobs, out, certificates):
        problems = []
        B = lab.booster
        families = 0
        for job, result in zip(jobs, out.payload):
            if result == "raised":
                continue
            Z, F, spec, params = job["Z"], job["F"], job["spec"], job["params"]
            rep = result["report"]
            stages = [rep[s] for s in ("pool", "psi1", "psi2", "psi3")]
            if stages != sorted(stages, reverse=True):
                problems.append(f"{job['label']}: stage counts grow {stages}")
            if rep["xi0"] != len(result["family"]):
                problems.append(f"{job['label']}: xi0 differs from the family size")
            check = B.verify_normal_family(Z, result["family"], spec, F, params,
                                           budget=self.BUDGET)
            if not check["ok"]:
                problems.append(f"{job['label']}: family fails verify_normal_family "
                                f"{check['violations'][:2]}")
            restricted = result.get("restricted")
            if restricted and restricted["family"] and not B.verify_index_consistent(
                    Z, restricted["family"], spec, F):
                problems.append(f"{job['label']}: restricted family is not index consistent")
            families += 1
        return problems, f"{families} families pass verify_normal_family"

    def shape(self, out):
        reached = sum(1 for r in out.payload if r != "raised" and r["report"]["psi1"] > 0)
        return f"{reached} of {out.items} hosts reach the badness filter"


# -- zcheck --------------------------------------------------------------------


class ZCheck:
    """Good-graph property rates at the criterion-11 parameters, one trial
    per z_property_rates call."""

    unit = "trials"
    keeps_certificates = False
    N = 30
    D = 20.0
    ZETA = 0.1
    DELTA = Fraction(1, 12)
    PAIRS = 60
    EMBEDDINGS = 8
    ROUND_S = 0.08  # seconds per round (one call of one trial) on the reference machine

    def setup(self, lab, seed, rounds):
        K3 = lab.graphs.complete_graph(3)
        spec = lab.booster.make_booster_spec(lab.graphs.cycle_graph(5), K3)
        p = self.N ** -0.5
        return [{"F": K3, "spec": spec, "p": p, "seed": derived_seed(lab, "zcheck", seed, r)}
                for r in range(rounds)]

    def run(self, lab, calls, clock):
        out = Outcome()
        for call in calls:
            segment = clock.mark()
            try:
                res = lab.experiments.z_property_rates(
                    call["F"], call["spec"], self.N, call["p"], self.D, self.ZETA,
                    self.DELTA, 1, call["seed"], pair_samples=self.PAIRS,
                    embedding_samples=self.EMBEDDINGS,
                )
            except Exception:
                _failed_call(out, 1)
                continue
            out.segments.append(segment)
            out.payload.append(res)
            out.items += 1
            out.decided += 1
        return out

    def check(self, lab, calls, out, certificates):
        """Closed forms for F = K3: copies of K3 minus an edge are paths on
        three vertices, sum over v of C(deg v, 2); those through edge uv
        number deg u + deg v - 2.  The host of a one-trial call is rebuilt
        the way z_property_rates builds trial 0, from substream 0."""
        problems = []
        n = self.N
        for call, res in zip(calls, out.payload):
            if res == "raised":
                continue
            Z = lab.graphs.gnp_sample(n, call["p"], call["seed"].substream(0))
            deg = [Z.degree(v) for v in range(n)]
            cherries = sum(comb(d, 2) for d in deg)
            worst = max((deg[u] + deg[v] - 2 for u, v in Z.edges), default=0)
            st = res["stats"]
            if st["f_minus_norm"] != [cherries / (n * n)]:
                problems.append(f"trial {call['seed']}: count_f_minus is off")
            if st["f_minus_edge_norm"] != [worst * call["p"]]:
                problems.append(f"trial {call['seed']}: count_f_minus_through is off")
            for key in ("Z1", "Z2", "Z3", "Z4", "Z5"):
                r = res[key]
                if not r["wilson_low"] - WILSON_SLACK <= r["rate"] <= r["wilson_high"] + WILSON_SLACK:
                    problems.append(f"trial {call['seed']}: {key} rate outside its interval")
            if not all(0.0 <= x <= 1.0 for x in st["heavy_pair_frac"] + st["bad_frac"]):
                problems.append(f"trial {call['seed']}: a sampled fraction is outside [0, 1]")
        return problems, f"{len(out.payload)} trials match the K3 closed forms"

    def shape(self, out):
        bad = sum(r["stats"]["bad_frac"][0] > 0 for r in out.payload if r != "raised")
        return f"{bad} of {out.items} trials sample a bad embedding"


WORKLOADS = {"threshold": Threshold(), "booster": Booster(), "zcheck": ZCheck()}
