"""Monte Carlo threshold experiments and the exact constant chain.

Every estimate is reproducible from (config, master seed), never from
shared global state.  Trial t of a curve runs on seed.substream(t) at
every grid point, so it follows one random graph process across the c
grid; trial t at a window's i-th n runs on seed.substream(i).substream(t)
and follows its process to its hitting constant.  Budget-exhausted
trials stay first-class "undecided" and are excluded from point
estimates with their count reported.

The default verdict function, `solver_verdict`, answers from three exact
sources in turn: the bounds that its earlier decided verdicts on the same
(n, seed) set, F's Ramsey clique K_r from `arrowing` found in the sample
where G(n, p) expects one, and the NAE solver at the node budget.  The
first two need no solve, so a trial that the budget would leave
undecided may be decided by them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, exp, gcd, inf, isfinite, log10, sqrt

import numpy as np

from .arrowing import _ramsey_clique, decide_arrow
from .booster import (
    _heavy_cap,
    _is_bad,
    alpha_tilde,
    image_edges,
    make_booster_spec,
)
from .counting import _copy_counts, _holds_copy, _PairFamily, f_minus_members
from .density import _check_delta, classify, is_bipartite
from .graphs import Seed, gnp_sample, pair_uniforms


# arrowing-probability levels whose crossings a curve or window reports
LEVELS = (0.1, 0.5, 0.9)


class AllUndecided(RuntimeError):
    """Every trial of an estimate exhausted its node budget."""


def wilson_interval(successes, n, z=1.96):
    """Wilson score interval for a binomial proportion.

    The lower end is exactly 0.0 when there are no successes and the
    upper end exactly 1.0 when every observation succeeds, as in exact
    arithmetic; the float formula lands a rounding step off there.
    """
    if n == 0:
        raise ValueError("no observations")
    phat = successes / n
    denom = 1 + z * z / n
    centre = (phat + z * z / (2 * n)) / denom
    half = z * sqrt(phat * (1 - phat) / n + z * z / (4 * n * n)) / denom
    low = 0.0 if successes == 0 else max(0.0, centre - half)
    high = 1.0 if successes == n else min(1.0, centre + half)
    return low, high


def solver_verdict(F, budget=None):
    """Default verdict function: whether G(n, p) on a seed arrows F.

    A query takes the first answer of three sources, each exact:
    - **Bounds.**  For one seed `gnp_sample` is nested in p, and arrowing
      is monotone.  So the function keeps, per (n, seed), the largest p it
      decided "not_arrows" and the smallest p it decided "arrows".  A
      query at or below the first is "not_arrows", and one at or above the
      second is "arrows", with no sample and no solve.
    - **A Ramsey clique.**  F's Ramsey clique K_r comes from
      `arrowing._ramsey_clique(F)`, the smallest r <= 7 with K_r -> (F);
      a sample that holds a K_r arrows.  The sample is searched for one
      only where G(n, p) expects one, C(n, r) p^C(r,2) >= 1, by
      `counting._holds_copy`.
    - **The solver**, `decide_arrow` at the node budget, builds and
      solves the NAE system.
    A decided verdict from the clique or the solver moves its bound.  So a
    query between the bounds is not always solved, and a point that a
    fresh solve would leave undecided may be decided by the bounds or the
    clique.
    """
    bounds = {}  # (n, seed) -> (largest p not arrowing, smallest p arrowing)
    clique = _ramsey_clique(F)

    def fn(n, p, seed):
        below, above = bounds.get((n, seed), (-inf, inf))
        if 0.0 <= p <= 1.0:  # any other p goes on to gnp_sample's refusal
            if p <= below:
                return "not_arrows"
            if p >= above:
                return "arrows"
        G = gnp_sample(n, p, seed)
        expected = 0 if clique is None else comb(n, clique.n) * p ** clique.num_edges()
        if expected >= 1 and _holds_copy(clique, G.adj) is not None:
            verdict = "arrows"
        else:
            verdict = decide_arrow(G, F, budget=budget).verdict
        if verdict == "not_arrows":
            bounds[n, seed] = (p, above)
        elif verdict == "arrows":
            bounds[n, seed] = (below, p)
        return verdict

    return fn


def estimate_arrow_probability(F, n, p, trials, seed, budget=None, verdict_fn=None):
    """Fraction of decided trials that arrow, with a Wilson interval.

    Undecided (budget-exhausted) trials never enter the point estimate;
    their count is reported alongside.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fn = verdict_fn or solver_verdict(F, budget)
    arrows = undecided = 0
    for t in range(trials):
        v = fn(n, p, seed.substream(t))
        if v == "arrows":
            arrows += 1
        elif v == "undecided":
            undecided += 1
    decided = trials - undecided
    if decided == 0:
        raise AllUndecided("all trials undecided: no estimate")
    low, high = wilson_interval(arrows, decided)
    return {
        "n": n,
        "p": p,
        "trials": trials,
        "decided": decided,
        "undecided": undecided,
        "estimate": arrows / decided,
        "wilson_low": low,
        "wilson_high": high,
    }


def _check_grid(n, c_values):
    """p = c * n^(-exponent) needs a host with a vertex and a finite c >= 0."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not all(isfinite(c) for c in c_values):
        raise ValueError(f"c values must be finite, got {list(c_values)}")
    if any(c < 0 for c in c_values):
        raise ValueError(f"c values must be >= 0, got {list(c_values)}")


def hitting_constant(F, n, seed, budget=None, verdict_fn=None):
    """The scaled constant at which one trial of the random graph process
    first arrows.

    The trial's pairs arrive in the order of their `pair_uniforms`, the
    draws of `gnp_sample` on the same seed.  At p_k, the (k+1)-th smallest
    uniform (1.0 for k = C(n,2)), G(n, p_k) holds exactly the first k
    arrivals.  Arrowing is monotone in the edge set, so the smallest k that
    arrows is found by galloping k = 1, 2, 4, ... to the first "arrows" and
    bisecting that bracket; K_n is probed only if no smaller probe arrows.

    Returns {"p", "c", "solves"}: p is the uniform of the hitting edge, so
    G(n, p') on this seed arrows iff p' > p, and c = p * n^(1/m2).  Both
    are inf when even K_n does not arrow, and None when a probe was
    undecided, which ends the search.
    """
    fn = verdict_fn or solver_verdict(F, budget)
    total = n * (n - 1) // 2
    u = sorted(pair_uniforms(n, seed).tolist())
    solves = 0

    def probe(k):
        nonlocal solves
        solves += 1
        return fn(n, u[k] if k < total else 1.0, seed)

    lo, hi = 0, min(1, total)  # lo arrivals do not arrow
    while (verdict := probe(hi)) == "not_arrows" and hi < total:
        lo, hi = hi, min(2 * hi, total)
    while verdict == "arrows" and hi - lo > 1:  # hi arrivals arrow
        mid = (lo + hi) // 2
        v = probe(mid)
        if v == "arrows":
            hi = mid
        elif v == "not_arrows":
            lo = mid
        else:
            verdict = v
    if verdict == "undecided":
        return {"p": None, "c": None, "solves": solves}
    p = u[hi - 1] if verdict == "arrows" else inf
    return {"p": p, "c": p * n ** float(classify(F).threshold_exponent), "solves": solves}


def sharpness_window(F, n_list, trials, seed=None, budget=None, verdict_fn=None):
    """Crossing constants at the three `LEVELS` per n, from one hitting
    constant per trial (`hitting_constant` on seed.substream(i) for the
    i-th n, then .substream(t) for trial t).

    c_q is the ceil(q * decided)-th smallest c* of the decided trials.
    Each row also gives the window c_0.9 - c_0.1, its width relative to
    c_0.5, the undecided trials (left out of every c_q) and the solves.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not n_list:
        raise ValueError("n_list must hold at least one n")
    for n in n_list:  # before any trial runs; a window has no c grid
        _check_grid(n, ())
    seed = seed or Seed()
    rows = []
    for i, n in enumerate(n_list):
        hits = [hitting_constant(F, n, seed.substream(i).substream(t), budget, verdict_fn)
                for t in range(trials)]
        cs = sorted(h["c"] for h in hits if h["c"] is not None)
        if not cs:
            raise AllUndecided(f"all trials undecided at n = {n}: no window")
        row = {"n": n, "decided": len(cs), "undecided": trials - len(cs),
               "solves": sum(h["solves"] for h in hits)}
        for q in LEVELS:
            # q as the decimal it is written as: 0.1 * 30 is 3.0000000000000004
            c = cs[ceil(Fraction(str(q)) * len(cs)) - 1]
            if c == inf:
                arrowing = sum(x < inf for x in cs)
                raise ValueError(f"no crossing of level {q} at n = {n}: {arrowing} of "
                                 f"{len(cs)} decided trials arrow, even at p = 1")
            row[f"c_{q}"] = c
        low, mid, high = (row[f"c_{q}"] for q in LEVELS)
        row["window"] = high - low
        row["relative_width"] = (high - low) / mid if mid else float("inf")
        rows.append(row)
    return rows


def window_trend(rows):
    """Qualitative trend of the relative widths across n (no asymptotic
    claim is asserted: the limit statement lives outside desk scale)."""
    widths = [(r["n"], r["relative_width"]) for r in rows]
    nonincreasing = all(b[1] <= a[1] + 1e-12 for a, b in zip(widths, widths[1:]))
    return {"widths": widths, "nonincreasing": nonincreasing}


def threshold_curve(F, n, c_values, trials, seed=None, budget=None, verdict_fn=None):
    """Estimates at p = c * n^(-1/m2), clamped into [0,1], over a grid of
    scaled constants, with interpolated crossings of the `LEVELS`.

    The curve is coupled: trial t runs on seed.substream(t) at every c, so
    its graphs are nested along the grid.  One verdict function (by default
    one `solver_verdict`) answers every point, once per (c, t), in
    ascending c and then ascending t.
    """
    c_values = sorted(c_values)
    if not c_values:
        raise ValueError("c_values must hold at least one c")
    _check_grid(n, c_values)
    seed = seed or Seed()
    fn = verdict_fn or solver_verdict(F, budget)
    exponent = classify(F).threshold_exponent
    points = []
    for c in c_values:
        p = c * n ** (-float(exponent))
        # max: c = -0.0 passes the c >= 0 check, and its p = -0.0 is recorded as 0.0
        est = estimate_arrow_probability(F, n, min(1.0, max(0.0, p)), trials, seed,
                                         verdict_fn=fn)
        points.append({**est, "c": c, "p_clamped": p > 1.0})

    def crossing(level):
        for a, b in zip(points, points[1:]):
            if a["estimate"] <= level <= b["estimate"]:
                if b["estimate"] == a["estimate"]:
                    return a["c"]
                frac = (level - a["estimate"]) / (b["estimate"] - a["estimate"])
                return a["c"] + frac * (b["c"] - a["c"])
        return None

    return {
        "n": n,
        "exponent": str(exponent),
        "points": points,
        "crossings": {q: crossing(q) for q in LEVELS},
    }


# -- empirical (Z)-property rates -----------------------------------------


def _edge_pairs(rng, m, k):
    """k pairs (i, j) of distinct indices below m, drawn uniformly in blocks
    of the pairs still needed.  A bounded draw below 2**32 reads 32-bit
    words, and the generator keeps the unused half of a 64-bit output
    between calls, so the pairs and the generator's state after them are
    those of drawing pair by pair."""
    pairs = []
    while len(pairs) < k:
        pairs += [(i, j) for i, j in rng.integers(0, m, size=(k - len(pairs), 2)).tolist()
                  if i != j]
    return pairs


def z_property_rates(
    F,
    booster,
    n,
    p,
    D,
    zeta,
    delta,
    trials,
    seed=None,
    pair_samples=100,
    embedding_samples=40,
):
    """Empirical satisfaction rates of the five good-graph properties.

    The pair and embedding properties are estimated on uniform samples
    (sizes reported).  Returns per-property rates with Wilson intervals
    plus the per-trial normalized statistics.

    Per trial, Z3's tally of the F⁻ copies through each pair holds at most
    n² counts, the order of the C(n, 2) uniforms `gnp_sample` draws, and
    the Z5 embeddings are drawn as one block of `embedding_samples` × n ints.
    Z5 decides each sampled union's badness with `booster._is_bad`, which
    stops at the first witness and collects no other copy.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    for name, value in (("pair_samples", pair_samples), ("embedding_samples", embedding_samples)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    for name, value in (("D", D), ("p", p), ("zeta", zeta)):
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not D > 0:  # else every connected pair is heavy
        raise ValueError(f"D must be positive, got {D}")
    _check_delta(F, delta)
    seed = seed or Seed()
    spec = booster if hasattr(booster, "sigma") else make_booster_spec(booster, F)
    B = spec.B
    for name, k in (("booster", B.n), ("pattern", F.n)):
        if n < k:
            raise ValueError(f"n = {n} is below the {name}'s {k} vertices")
    members = f_minus_members(F)

    passes = {k: 0 for k in ("Z1", "Z2", "Z3", "Z4", "Z5")}
    stats = {"f_minus_norm": [], "f_minus_edge_norm": [], "heavy_pair_frac": [], "bad_frac": []}
    heavy_cap = _heavy_cap(D, p, n, delta)
    z4_budget = float(D) * p * n * n / n ** float(delta)

    for t in range(trials):
        sub = seed.substream(t)
        Z = gnp_sample(n, p, sub)
        m = Z.num_edges()
        rng = sub.substream(1).generator()

        if p * n * n / 4 <= m <= p * n * n:
            passes["Z1"] += 1

        fm, codes = 0, []
        for M in members:
            count, pairs = _copy_counts(M, Z)
            fm += count
            codes.append(pairs)
        stats["f_minus_norm"].append(fm / (n * n))
        if fm <= D * n * n:
            passes["Z2"] += 1

        # copies through the busiest edge of Z: the most repeated pair code
        worst = int(np.bincount(np.concatenate(codes)).max(initial=0))
        stats["f_minus_edge_norm"].append(worst * p)
        if p == 0 or worst <= D / p:
            passes["Z3"] += 1

        pairs = _edge_pairs(rng, m, min(pair_samples, m * (m - 1) // 2))
        family = _PairFamily(F, Z)
        if family.ceiling <= heavy_cap:  # no pair of Z is heavy: no per-pair query
            heavy = 0
        else:
            heavy = sum(family.exceeds(Z.edges[i], Z.edges[j], heavy_cap) for i, j in pairs)
        frac = heavy / len(pairs) if pairs else 0.0
        stats["heavy_pair_frac"].append(frac)
        total_pairs = m * (m - 1) // 2
        if frac * total_pairs <= z4_budget:
            passes["Z4"] += 1

        # row i is the i-th `rng.permutation(n)`; an h drawn here needs no embedding check
        block = rng.permuted(np.tile(np.arange(n), (embedding_samples, 1)), axis=1)[:, :B.n]
        bad = 0
        for h in block.tolist():
            bad += _is_bad(Z, image_edges(B, h), F)
        bfrac = bad / embedding_samples
        stats["bad_frac"].append(bfrac)
        if bfrac <= n ** (-float(zeta)):
            passes["Z5"] += 1

    out = {"trials": trials, "pair_samples": pair_samples, "embedding_samples": embedding_samples}
    for k, cnt in passes.items():
        low, high = wilson_interval(cnt, trials)
        out[k] = {"rate": cnt / trials, "wilson_low": low, "wilson_high": high}
    out["stats"] = stats
    return out


# -- Janson bound -----------------------------------------------------------


def janson_bound(copy_family, q):
    """Standard Janson upper bound for "no copy present" at edge
    probability q: min(1, exp(-mu + Delta/2)) with exact rational mu, Delta."""
    q = Fraction(q)
    if not 0 < q <= 1:
        raise ValueError("q must lie in (0, 1]")
    edge_sets = [c.edges for c in copy_family.copies]
    if not edge_sets:
        return {"mu": Fraction(0), "Delta": Fraction(0), "bound": 1.0, "empty": True,
                "capped": False}
    mu = sum(q ** len(es) for es in edge_sets)
    # Delta sums over ordered pairs of copies sharing an edge: each unordered pair twice
    delta = 2 * sum((q ** len(a | b) for a, b in combinations(edge_sets, 2) if a & b), Fraction(0))
    # capped at 1 either way; exp of a large exponent overflows
    raw = exp(min(-float(mu) + float(delta) / 2, 1.0))
    return {
        "mu": mu,
        "Delta": delta,
        "bound": min(1.0, raw),
        "capped": raw > 1.0,
        "empty": False,
    }


# -- explicit constant chain -------------------------------------------------


@dataclass
class ConstantChain:
    """Exact constants of the proof pipeline, Fractions wherever the
    defining formulas are rational.  Fields are None when the inputs
    they depend on were not supplied."""

    inputs: dict
    delta: Fraction | None = None
    alpha_tilde: Fraction | None = None
    L: int | None = None
    L_exact: Fraction | None = None
    L_rounded: bool = False
    alpha_prime: Fraction | dict | None = None  # dict: an exponent record
    K: int | None = None
    k: int | None = None
    beta: Fraction | dict | None = None  # dict: an exponent record
    gamma: Fraction | None = None
    eps_container: Fraction = Fraction(1, 4)
    tau_exponent: Fraction | None = None  # tau(n) = n ** tau_exponent
    a: int | None = None
    b: int | None = None
    endpoints_split: bool | None = None
    C0_prime: Fraction | None = None
    d: Fraction | None = None
    gamma_kst: Fraction | None = None
    eps_reg: Fraction | None = None
    t0: Fraction | None = None
    eta: Fraction | None = None
    notes: list = field(default_factory=list)

    def to_record(self):
        rec = {f.name: _render(getattr(self, f.name)) for f in fields(self)}
        rec["inputs"] = {k: _render(v) for k, v in self.inputs.items()}
        rec["notes"] = self.notes
        return rec


# integers with more decimal digits render as digit counts
DIGIT_LIMIT = 10_000
# powers with more decimal digits are never computed; the chain keeps an
# exponent record instead (alpha' of K3 with a 3-vertex booster, D = 1, has
# about 1.3 million and takes half a second)
EXACT_DIGIT_LIMIT = 2_000_000


def _power_record(c, base, exponent):
    """The Fraction c / base**exponent without computing the power: the
    record `_render` gives a Fraction past DIGIT_LIMIT, plus its log10."""
    g = gcd(c.numerator, pow(base, exponent, c.numerator))  # reduce the numerator
    den_log10 = log10(c.denominator) + exponent * log10(base) - log10(g)
    value_log10 = log10(c.numerator // g) - den_log10
    return {"approx": 10.0 ** value_log10, "log10": value_log10,
            "num_digits": _digits(c.numerator // g), "den_digits": int(den_log10) + 1}


def _render(v):
    if v is None or isinstance(v, dict):
        return v
    if isinstance(v, Fraction):
        num, den = v.numerator, v.denominator
        if _digits(num) > DIGIT_LIMIT or _digits(den) > DIGIT_LIMIT:
            return {
                "approx": float(v) if -1e308 < v < 1e308 else None,
                "num_digits": _digits(num),
                "den_digits": _digits(den),
            }
        return f"{num}/{den}"
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return v if _digits(v) <= DIGIT_LIMIT else {"num_digits": _digits(v)}
    return str(v)


def _digits(x):
    x = abs(int(x))
    if x < 10**18:
        return len(str(x))
    return int(x.bit_length() * 0.30103) + 1  # estimate; only gates rendering


def _bipartition_sizes(profile):
    """(a, b, split) of a strictly balanced, nearly bipartite pattern F with
    witness edge e: the class sizes of F - e, a for the class of e's first
    end, and whether e's ends lie in different classes.

    Such an F has no bridge, so F - e is connected and its 2-colouring is
    unique up to a swap of the classes: the sizes and the split depend on
    no choice."""
    a1, a2 = profile.nearly_bipartite_witness
    _, colour = is_bipartite(profile.pattern.without_edges([(a1, a2)]))
    A = colour.count(colour[a1])
    return A, len(colour) - A, colour[a1] != colour[a2]


def derive_proof_constants(
    F,
    B=None,
    D=None,
    C0=None,
    C1=None,
    lam=None,
    rho=None,
    c0=None,
    xi_cl=None,
    eps_cl=None,
    T0=None,
    ell=None,
):
    """Compute every explicit constant of the proof chains exactly.

    Each chain computes independently, so partial inputs give partial
    output.  F must be strictly balanced; the regularity-side chain
    additionally needs F nearly bipartite.
    """
    prof = classify(F)
    if not prof.strictly_balanced:
        raise ValueError("constant chain requires a strictly balanced pattern")
    for name, value in (("D", D), ("C1", C1), ("lambda", lam), ("T0", T0)):  # divisors
        if value is not None and not value > 0:
            raise ValueError(f"{name} must be positive, got {value}")
    Fg = prof.pattern
    if Fg.num_edges() < 2:
        raise ValueError("constant chain requires a pattern with at least two edges")
    inputs = {
        "F_m2": prof.m2,
        "D": D,
        "C0": C0,
        "C1": C1,
        "lambda": lam,
        "rho": rho,
        "c0": c0,
        "xi_CL": xi_cl,
        "eps_CL": eps_cl,
        "T0": T0,
        "ell": ell,
    }
    chain = ConstantChain(inputs=inputs)

    inv = prof.threshold_exponent  # 1/m2
    chain.delta = Fraction(1, 6) * min(inv, 1 - inv)

    if B is not None:
        vB = B if isinstance(B, int) else B.n
        if vB < 1:
            raise ValueError(f"a booster needs at least one vertex, got {vB}")
        chain.alpha_tilde = alpha_tilde(vB)
        if not isinstance(B, int):
            if B.num_edges() < 1:  # K = 0 leaves (K L)^L without a value
                raise ValueError(f"the booster graph on {vB} vertices has no edges")
            chain.K = B.num_edges()

    vF, eF = Fg.n, Fg.num_edges()
    if chain.alpha_tilde is not None and D is not None:
        chain.L_exact = (eF - 1) * Fraction(2) / chain.alpha_tilde * vF**2 * Fraction(D)
        if chain.L_exact.denominator == 1:
            chain.L = int(chain.L_exact)
        else:
            chain.L = ceil(chain.L_exact)
            chain.L_rounded = True
            chain.notes.append("L was not integral; rounded up for the power formulas")
        chain.k = comb(chain.L, eF - 1) * comb(vF, 2)
        chain.gamma = chain.delta / (10 * chain.L)
        if chain.K is not None:
            KL = chain.K * chain.L
            beta_scale = Fraction(D) * chain.k * vF**2
            if chain.L * log10(KL) <= EXACT_DIGIT_LIMIT:
                chain.alpha_prime = chain.alpha_tilde / (2 * chain.L * Fraction(KL) ** chain.L)
                chain.beta = chain.alpha_prime / beta_scale if chain.k else None
                if not chain.k:
                    chain.notes.append("k = 0 as L < e(F) - 1, so beta = alpha' / (D k v(F)^2)"
                                       " is undefined")
            else:  # (K L)^L is too long to compute: keep both as exponent records
                # (here L >= e(F) - 1, as e(F) <= 45 under the pattern cap, so k > 0)
                chain.alpha_prime = _power_record(chain.alpha_tilde / (2 * chain.L), KL, chain.L)
                chain.beta = _power_record(chain.alpha_tilde / (2 * chain.L * beta_scale), KL,
                                           chain.L)

    if ell is not None and ell >= 2:
        chain.tau_exponent = -chain.delta / (4 * (ell - 1))

    if prof.nearly_bipartite:
        a, b, split = _bipartition_sizes(prof)
        chain.a, chain.b, chain.endpoints_split = a, b, split
        if C0 is not None:
            C0f = Fraction(C0)
            chain.C0_prime = min(Fraction(1), C0f ** (eF - 1))
        if lam is not None:
            lamf = Fraction(lam)
            chain.gamma_kst = (
                Fraction(1, 2)
                * Fraction(1, (a - 1) ** (a - 1) * b**b)
                * (lamf / 6) ** ((a - 1) * b)
            )
            if None not in (C0, C1, xi_cl):
                C0f, C1f = Fraction(C0), Fraction(C1)
                xif = Fraction(xi_cl)
                chain.d = (
                    (lamf / 6) ** (2 * (a - 1) * b)
                    * xif**2
                    * C0f ** (2 * (eF - 1))
                    * chain.C0_prime
                ) / (
                    64
                    * Fraction(a) ** (2 * a)
                    * Fraction(b) ** (2 * b)
                    * Fraction(vF + 1) ** vF
                    * C1f ** (2 * (eF - 1))
                )
            if rho is not None and eps_cl is not None:
                chain.eps_reg = min(Fraction(rho) * Fraction(eps_cl) / 4, lamf / 48)
            chain.t0 = Fraction(48) / lamf * a * b
        if c0 is not None and T0 is not None:
            chain.eta = Fraction(c0) * Fraction(T0) ** (-vF)

    return chain
