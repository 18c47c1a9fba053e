import json
import math
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab import arrowing, booster, counting, experiments
from ramseylab.arrowing import (
    BRUTE_FORCE_EDGE_CAP,
    _clique_colouring,
    _id_array,
    _ramsey_clique,
    brute_force_arrow,
    decide_arrow,
    is_f_free,
)
from ramseylab.counting import enumerate_copies
from ramseylab.experiments import (
    _bipartition_sizes,
    _edge_pairs,
    derive_proof_constants,
    estimate_arrow_probability,
    hitting_constant,
    janson_bound,
    sharpness_window,
    solver_verdict,
    threshold_curve,
    wilson_interval,
    z_property_rates,
)
from ramseylab.density import classify
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_sample,
    path_graph,
    pattern_by_name,
)
from oracles import check_pulled_back, naive_holds_clique

K3 = complete_graph(3)
C4 = cycle_graph(4)


def test_wilson_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    # the endpoints at 0 and n successes are exact, not a rounding step off
    for n in range(1, 51):
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(n, n)
        assert hi == 1.0 and 0.0 < lo < 1.0


def test_estimate_edge_cases():
    r = estimate_arrow_probability(K3, 8, 0.0, 10, Seed(1))
    assert r["estimate"] == 0.0 and r["undecided"] == 0
    r = estimate_arrow_probability(K3, 6, 1.0, 10, Seed(1))
    assert r["estimate"] == 1.0 and r["undecided"] == 0
    # one node leaves K6 undecided, but K6 is the Ramsey clique of K3, so
    # at p = 1 (C(6, 6) p^15 = 1) the clique answers every trial
    r = estimate_arrow_probability(K3, 6, 1.0, 5, Seed(1), budget=1)
    assert r["estimate"] == 1.0 and r["undecided"] == 0
    # below p = 1 the clique is not looked for, and every trial meets the budget
    with pytest.raises(RuntimeError):
        estimate_arrow_probability(K3, 6, 0.999, 5, Seed(1), budget=1)


def test_estimate_reproducible():
    a = estimate_arrow_probability(K3, 10, 0.3, 30, Seed(5, 1))
    b = estimate_arrow_probability(K3, 10, 0.3, 30, Seed(5, 1))
    assert a == b


def _uniforms(n, seed):
    """The trial's pair uniforms, drawn here without the package's helper."""
    return seed.generator().random(math.comb(n, 2)).tolist()


def test_hitting_constant_on_planted_step():
    # the probe at p_k (the (k+1)-th smallest uniform) arrows iff p_k > p0, so
    # the first arrowing probe is the first arrival above p0 and the hitting
    # edge, the k-th arrival, is the last arrival at or below p0
    p0 = 0.217
    for n in (25, 30, 49):
        for t in range(4):
            seed = Seed(2, n, t)
            probes = []

            def step(nn, p, s):
                assert (nn, s) == (n, seed)
                probes.append(p)
                return "arrows" if p > p0 else "not_arrows"

            h = hitting_constant(K3, n, seed, verdict_fn=step)
            u = _uniforms(n, seed)
            assert h["p"] == max(x for x in u if x <= p0)
            assert min(p for p in probes if p > p0) == min(x for x in u if x > p0)
            assert h["c"] == h["p"] * n**0.5
            assert h["solves"] == len(probes)


def test_window_rows_are_order_statistics_of_hitting_constants():
    def step(n, p, seed):
        return "arrows" if p * n**0.5 > 1.0 else "not_arrows"

    rows = sharpness_window(K3, [25, 49], trials=30, seed=Seed(66), verdict_fn=step)
    for i, row in enumerate(rows):
        n = row["n"]
        hits = [hitting_constant(K3, n, Seed(66).substream(i).substream(t), verdict_fn=step)
                for t in range(30)]
        cs = sorted(h["c"] for h in hits)
        assert (row["decided"], row["undecided"]) == (30, 0)
        assert row["solves"] == sum(h["solves"] for h in hits)
        # ceil(q * 30)-th smallest: 3, 15 and 27
        assert (row["c_0.1"], row["c_0.5"], row["c_0.9"]) == (cs[2], cs[14], cs[26])
        assert row["window"] == cs[26] - cs[2]
        for h, t in zip(hits, range(30)):  # the last arrival at or below 1/sqrt(n)
            u = _uniforms(n, Seed(66, i, t))
            assert h["p"] == max(x for x in u if x * n**0.5 <= 1.0)


def test_window_without_a_crossing_raises():
    # K5 does not arrow K3, so no trial arrows even at p = 1
    with pytest.raises(ValueError, match="no crossing of level 0.1"):
        sharpness_window(K3, [5], trials=4, seed=Seed(3))
    h = hitting_constant(K3, 5, Seed(3))
    assert h["p"] == h["c"] == math.inf and h["solves"] == 5  # k = 1, 2, 4, 8 and K5

    # every trial arrows only at K_n: c_0.9 exists only if 90% of trials get there
    def late(n, p, seed):
        return "arrows" if p == 1.0 and seed.path[-1] < 3 else "not_arrows"

    with pytest.raises(ValueError, match="no crossing of level 0.5 at n = 6: 3 of 10"):
        sharpness_window(K3, [6], trials=10, seed=Seed(3), verdict_fn=late)
    with pytest.raises(ValueError, match="trials"):
        sharpness_window(K3, [6], trials=0, seed=Seed(3))


def test_hitting_search_gallops_then_bisects():
    # k = 1, 2, 4, ..., then a bisection of the bracket: O(log C(n,2)) probes,
    # and K_n (p = 1) only when no smaller probe arrows
    for k_hit in (1, 2, 3, 64, 65, 190):
        n = 20
        seed = Seed(5, k_hit)
        u = sorted(_uniforms(n, seed))
        threshold = u[k_hit] if k_hit < len(u) else 1.0
        probes = []

        def planted(nn, p, s):
            probes.append(p)
            return "arrows" if p >= threshold else "not_arrows"

        h = hitting_constant(K3, n, seed, verdict_fn=planted)
        assert h["p"] == u[k_hit - 1]
        assert len(probes) <= 2 * math.ceil(math.log2(len(u))) + 1
        assert (1.0 in probes) == (k_hit == len(u))
    # an undecided probe ends the search and leaves the trial undecided
    calls = []

    def undecided(nn, p, s):
        calls.append(p)
        return "undecided" if len(calls) == 3 else "not_arrows"

    assert hitting_constant(K3, 20, Seed(5), verdict_fn=undecided) == \
        {"p": None, "c": None, "solves": 3}


def test_p_clamp_flagged():
    def step(n, p, seed):
        return "arrows" if p > 0.9 else "not_arrows"

    # n=6: p = c / sqrt(6) reaches 1 at c ~ 2.45; large c clamps
    curve = threshold_curve(K3, 6, [0.1, 2.0, 3.0, 6.0], trials=2, seed=Seed(4),
                            verdict_fn=step)
    assert [pt["p_clamped"] for pt in curve["points"]] == [False, False, True, True]
    assert [pt["p"] for pt in curve["points"]][2:] == [1.0, 1.0]


def test_window_on_logistic_oracle():
    # planted logistic in c with width w: P(arrow) = 1/(1+exp(-(c-c0)/w)); the
    # trial's one draw makes its verdicts monotone in p
    c0 = 1.3

    def make_logistic(w):
        def fn(n, p, seed):
            c = p * n**0.5
            prob = 1 / (1 + math.exp(-(c - c0) / w))
            return "arrows" if seed.generator().random() < prob else "not_arrows"
        return fn

    n = 40
    w = 1 / math.sqrt(n)
    rows = sharpness_window(K3, [n], trials=400, seed=Seed(6), verdict_fn=make_logistic(w))
    measured = rows[0]["window"]
    true_gap = w * (math.log(9) - math.log(1 / 9))
    assert abs(measured - true_gap) / true_gap < 0.2, (measured, true_gap)


def test_live_window_emits_finite_widths_and_trend():
    # trimmed live-solver run: qualitative only, no asymptotic claim
    from ramseylab.experiments import window_trend

    rows = sharpness_window(K3, [12, 16], trials=40, seed=Seed(67))
    for i, row in enumerate(rows):
        assert 0 <= row["window"] < float("inf")
        assert row["c_0.1"] <= row["c_0.5"] <= row["c_0.9"]
        cs = sorted(hitting_constant(K3, row["n"], Seed(67, i, t))["c"] for t in range(40))
        assert [row[f"c_{q}"] for q in (0.1, 0.5, 0.9)] == [cs[3], cs[19], cs[35]]
    trend = window_trend(rows)
    assert len(trend["widths"]) == 2 and "nonincreasing" in trend


@pytest.mark.parametrize("F, n", [(K3, 16), (cycle_graph(4), 12), (K3, 7), (cycle_graph(4), 7)],
                         ids=["K3-n16", "C4-n12", "K3-n7", "C4-n7"])
def test_hitting_constant_couples_with_gnp_sample(F, n):
    # G(n, p) on the trial's seed arrows iff p > p*; compared on p, since the
    # round trip c * n^(-1/m2) can land one float step across p*
    exponent = float(classify(F).threshold_exponent)
    pairs = list(combinations(range(n), 2))
    for s in range(20):
        seed = Seed(71, n, s)
        p_hit = hitting_constant(F, n, seed)["p"]
        u = _uniforms(n, seed)
        assert p_hit in u
        before = Graph(n, [e for e, x in zip(pairs, u) if x < p_hit])
        at = Graph(n, [e for e, x in zip(pairs, u) if x <= p_hit])
        assert before == gnp_sample(n, p_hit, seed) and at.num_edges() == before.num_edges() + 1
        res = decide_arrow(before, F)
        assert res.verdict == "not_arrows" and is_f_free(res.certificate, before, F)[0]
        assert decide_arrow(at, F).verdict == "arrows"
        constrained = max(len({e for c in _id_array(g, F).tolist() for e in c}) for g in (before, at))
        if constrained <= BRUTE_FORCE_EDGE_CAP:
            assert [brute_force_arrow(g, F).verdict for g in (before, at)] == \
                ["not_arrows", "arrows"]
        for p in [p_hit * (1 - 1e-3), min(1.0, p_hit * (1 + 1e-3))] + \
                [min(1.0, c * n ** -exponent) for c in (1, 2, 3)]:
            verdict = decide_arrow(gnp_sample(n, p, seed), F).verdict
            assert verdict == ("arrows" if p > p_hit else "not_arrows"), (s, p, p_hit)


# No graph on at most 7 vertices arrows K3 unless it holds a K6, and K6
# arrows K3 (Graham 1968).  So P(G(n, p) -> K3) is P(G(n, p) holds a K6):
# p^15 at n = 6 and, by inclusion-exclusion over the 6-sets, 7p^15 - 21p^20
# + 15p^21 at n = 7.  It is also the law of the hitting edge's uniform p*.
ARROWING_LAWS = {6: lambda p: p**15, 7: lambda p: 7 * p**15 - 21 * p**20 + 15 * p**21}


def c4_law_at_7(p):
    """P(G(7, p) -> C4), derived in
    `test_c4_at_7_vertices_follows_an_exact_law_that_k6_containment_fails`."""
    return ARROWING_LAWS[7](p) + 35 * p**18 * (1 - p) ** 3 + 105 * p**19 * (1 - p) ** 2


def _k6_only(n, p, seed):
    """A verdict read off K6 containment alone, which the C4 laws must reject."""
    held_k6 = counting._holds_copy(complete_graph(6), gnp_sample(n, p, seed).adj) is not None
    return "arrows" if held_k6 else "not_arrows"


def test_hitting_constant_follows_the_exact_arrowing_law_below_8_vertices():
    # p* is the arrival of the first K6: the least, over 6-sets, of the last
    # uniform among the set's pairs.  Seeds and T are fixed.
    laws = ARROWING_LAWS
    trials = 200
    for n, law in laws.items():
        hits = []
        for t in range(trials):
            seed = Seed(4007, n, t)
            arrival = dict(zip(combinations(range(n), 2), _uniforms(n, seed)))
            first_k6 = min(max(arrival[e] for e in combinations(S, 2))
                           for S in combinations(range(n), 6))
            hits.append(hitting_constant(K3, n, seed)["p"])
            assert hits[-1] == first_k6, (n, t)
        hits.sort()
        # Kolmogorov-Smirnov distance, against its alpha = 0.01 critical value
        ks = max(max(law(x) - i / trials, (i + 1) / trials - law(x)) for i, x in enumerate(hits))
        assert ks < 1.628 / math.sqrt(trials), (n, ks)


def test_curve_points_and_window_quantiles_follow_the_exact_arrowing_law():
    # Seeds, T, the grid and the test levels are fixed before the first run.
    # Each curve point's arrowing fraction must hold the exact law in its
    # Wilson interval at z = 3.29 (two-sided 0.001).  At n = 7 the grid
    # straddles the clique gate C(7, 6) p^15 >= 1 (p >= 0.878), so the
    # control also checks the clique's answers.
    trials, grid = 200, [0.80 + 0.02 * i for i in range(9)]  # p from 0.80 to 0.96
    assert _clique_gate(K3, 7, 0.86) is None and _clique_gate(K3, 7, 0.90) == 6
    for n, law in ARROWING_LAWS.items():
        curve = threshold_curve(K3, n, [p * math.sqrt(n) for p in grid], trials, Seed(4008, n))
        for pt in curve["points"]:
            assert pt["decided"] == trials, (n, pt["p"])
            low, high = wilson_interval(round(pt["estimate"] * trials), trials, z=3.29)
            assert low <= law(pt["p"]) <= high, (n, pt["p"], pt["estimate"], law(pt["p"]))
    # c_q is the k-th smallest of T hitting constants, k = ceil(q T), and
    # c* = p* sqrt(n).  Under the law, X_(k) <= x iff Binomial(T, law(x)) >= k:
    # each c_q must leave at least 0.0005 in each tail (alpha = 0.001 per quantile).
    rows = sharpness_window(K3, list(ARROWING_LAWS), trials, Seed(4009))
    for row in rows:
        n, law = row["n"], ARROWING_LAWS[row["n"]]
        assert row["decided"] == trials, n
        for q in experiments.LEVELS:
            k, u = math.ceil(q * trials), law(row[f"c_{q}"] / math.sqrt(n))
            below = sum(math.comb(trials, i) * u**i * (1 - u) ** (trials - i) for i in range(k))
            assert 0.0005 <= 1 - below and 0.0005 <= below, (n, q, row[f"c_{q}"], below)


def test_c4_at_7_vertices_follows_an_exact_law_that_k6_containment_fails():
    """P(G(7, p) -> C4) = P(G(7, p) holds a K6) + 35 p^18 (1-p)^3 + 105 p^19 (1-p)^2.

    A host on 7 vertices holds a K6 exactly when its complement lies in a
    star, and a K6 arrows C4 (R(C4, C4) = 6).  Of the K6-free hosts whose
    complement has 2, 3 or 4 edges, exactly those whose complement is two
    disjoint edges (105) or a triangle (35) arrow C4.  That closes the law:
    a complement that is not a star holds a triangle or two disjoint edges,
    and keeps them after losing an edge outside them, so every sparser
    K6-free host lies below one with four complement edges, and arrowing is
    monotone.  Each curve point's Wilson interval (z = 3.29) must hold the
    law, and a verdict read off K6 containment alone must fail it at one
    point or more.  Seeds, T and the grid are fixed before the first run."""
    pairs = list(combinations(range(7), 2))
    decided, arrowing, shapes = 0, set(), {}
    for k in (2, 3, 4):
        for removed in combinations(pairs, k):
            if set.intersection(*map(set, removed)):  # in a star: the host holds a K6
                continue
            decided += 1
            H = complete_graph(7).without_edges(removed)
            if decide_arrow(H, C4).verdict == "arrows":
                arrowing.add(removed)
            # up to four edges, a graph is fixed up to isomorphism by the
            # degree pairs of its edges
            deg = [sum(v in e for e in removed) for v in range(7)]
            shapes.setdefault(tuple(sorted((min(deg[u], deg[v]), max(deg[u], deg[v]))
                                           for u, v in removed)), H)
    assert decided == 105 + 1190 + 5880
    two_edges = {r for r in combinations(pairs, 2) if not set(r[0]) & set(r[1])}
    triangles = {tuple(combinations(S, 2)) for S in combinations(range(7), 3)}
    assert (len(two_edges), len(triangles)) == (105, 35)
    assert arrowing == two_edges | triangles
    assert len(shapes) == 1 + 4 + 9  # the non-star graphs with 2, 3 and 4 edges
    for H in shapes.values():
        assert brute_force_arrow(H, C4).verdict == decide_arrow(H, C4).verdict, H.edges

    trials, grid = 400, [0.80 + 0.02 * i for i in range(9)]  # p from 0.80 to 0.96

    def held(verdict_fn):
        curve = threshold_curve(C4, 7, [p * 7 ** (2 / 3) for p in grid], trials,
                                Seed(4010, 7), verdict_fn=verdict_fn)
        out = []
        for pt in curve["points"]:
            assert pt["decided"] == trials, pt["p"]
            low, high = wilson_interval(round(pt["estimate"] * trials), trials, z=3.29)
            out.append(low <= c4_law_at_7(pt["p"]) <= high)
        return out

    assert all(held(None))
    assert not all(held(_k6_only))


def test_c4_window_quantiles_at_7_vertices_follow_the_exact_law():
    """c_0.1, c_0.5 and c_0.9 of `sharpness_window(C4, [7], T)` hold the law
    that `test_c4_at_7_vertices_follows_an_exact_law_that_k6_containment_fails`
    derives, within binomial order-statistic bounds at alpha = 0.001 per
    quantile; a verdict read off K6 containment alone fails them.

    c_q is the k-th smallest of T hitting constants, k = ceil(q T), and c* =
    p* 7^(2/3).  Under the law L, X_(k) <= x iff Binomial(T, L(x)) >= k, so
    each c_q must leave at least 0.0005 in each tail.  Power: the K6 law's
    quantiles are p = 0.778, 0.895 and 0.965, where L reads 0.148, 0.646 and
    0.967.  At T = 400 (k = 40, 200, 360) a K6-only run is rejected at
    c_0.1, c_0.5 and c_0.9 with probability 0.34, 0.992 and 0.998, so it
    passes all three with probability below 0.003, the chance that the
    solver fails one.  Seed and T are fixed before the first run."""
    trials = 400

    def held(verdict_fn):
        [row] = sharpness_window(C4, [7], trials, Seed(4011), verdict_fn=verdict_fn)
        assert row["decided"] == trials
        out = []
        for q in experiments.LEVELS:
            k = math.ceil(Fraction(str(q)) * trials)
            u = c4_law_at_7(row[f"c_{q}"] / 7 ** (2 / 3))
            below = sum(math.comb(trials, i) * u**i * (1 - u) ** (trials - i) for i in range(k))
            out.append(0.0005 <= below <= 0.9995)
        return out

    assert all(held(None))
    assert not all(held(_k6_only))


def test_threshold_curve_structure():
    def step(n, p, seed):
        return "arrows" if p > 0.2 else "not_arrows"

    curve = threshold_curve(K3, 25, [0.5, 0.9, 1.3, 1.7], trials=4, seed=Seed(7),
                            verdict_fn=step)
    assert len(curve["points"]) == 4
    assert curve["crossings"][0.5] is not None


def test_threshold_curve_crossing_on_a_flat_step():
    # two adjacent points both estimate 0.5: the crossing is the first c of
    # them, not an interpolation between equal estimates
    def planted(n, p, seed):  # trial 0 arrows everywhere, trial 1 from p = 0.3
        return "arrows" if p > 0.3 or seed.path[-1] == 0 else "not_arrows"

    curve = threshold_curve(K3, 16, [0.4, 0.8, 2.0], trials=2, seed=Seed(7),
                            verdict_fn=planted)
    assert [pt["estimate"] for pt in curve["points"]] == [0.5, 0.5, 1.0]
    assert curve["crossings"] == {0.1: None, 0.5: 0.4, 0.9: pytest.approx(1.76)}


def test_threshold_curve_rejects_a_negative_c():
    # a negative c has no p: clamped to 0 it would report a crossing at
    # c < 0; c = 0 is the empty graph
    def never(n, p, seed):
        return "not_arrows"

    with pytest.raises(ValueError, match="c values must be >= 0"):
        threshold_curve(K3, 10, [-1.0, 2.0], trials=2, seed=Seed(7), verdict_fn=never)
    curve = threshold_curve(K3, 10, [0.0, 2.0], trials=2, seed=Seed(7), verdict_fn=never)
    assert [pt["c"] for pt in curve["points"]] == [0.0, 2.0]
    # c = -0.0 passes the check; its p is recorded as 0.0, not -0.0
    curve = threshold_curve(K3, 10, [-0.0], trials=2, seed=Seed(7), verdict_fn=never)
    assert math.copysign(1.0, curve["points"][0]["p"]) == 1.0


def _spy_answers(mp):
    """Record the host rows of every answer that the Ramsey clique, the
    colouring and the solver give in the experiments layer, by source: the
    first two spied in `arrowing`, the chain's module."""
    answers = {"clique": [], "colouring": [], "solver": []}
    holds, colouring = arrowing._holds_copy, arrowing._clique_colouring

    def spy_holds(K, adj, anchors=None):
        found = holds(K, adj, anchors)
        if found is not None:
            answers["clique"].append(adj)
        return found

    def spy_colouring(F, adj):
        found = colouring(F, adj)
        if found is not None:
            answers["colouring"].append(adj)
        return found

    def spy_solve(G, F, budget=None):
        answers["solver"].append(G.adj)
        return decide_arrow(G, F, budget=budget)

    mp.setattr(arrowing, "_holds_copy", spy_holds)
    mp.setattr(arrowing, "_clique_colouring", spy_colouring)
    mp.setattr(experiments, "decide_arrow", spy_solve)
    return answers


@st.composite
def bound_queries(draw):
    """A pattern, a budget down to 1, and queries (n, p, seed index) whose p
    repeat, include 0 and 1, and come in any order, over two n and seeds.
    Grid values k/20 reach the points where a budget decides a graph but
    not a smaller or larger one on the same seed."""
    F = draw(st.sampled_from([K3, C4]))
    budget = draw(st.sampled_from([1, 2, 8, 64, None]))
    ns = draw(st.lists(st.integers(6, 12), min_size=1, max_size=2, unique=True))
    pool = draw(st.lists(st.integers(0, 20).map(lambda k: k / 20) | st.floats(0.0, 1.0),
                         min_size=1, max_size=6))
    queries = st.tuples(st.sampled_from(ns), st.sampled_from(pool), st.integers(0, 1))
    return F, budget, draw(st.lists(queries, min_size=1, max_size=16))


def _clique_gate(F, n, p):
    """The r of F's Ramsey clique K_r, when solver_verdict looks for one in
    G(n, p): where C(n, r) p^C(r, 2) >= 1; else None."""
    K = _ramsey_clique(F)
    r = None if K is None else K.n
    return r if r is not None and math.comb(n, r) * p ** math.comb(r, 2) >= 1 else None


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(bound_queries())
def test_solver_verdict_bounds_match_a_fresh_solve(case):
    # a query at or above the smallest p decided "arrows" on the same
    # (n, seed) is answered "arrows" with no sample; every other query, a
    # repeated p included, is decided afresh: a host that holds K_r where
    # the gate is open is answered "arrows" by the clique (checked by the
    # r-subset oracle), a host that the greedy pass colours is answered
    # "not_arrows" by the colouring (K3 only), and every other query is
    # solved once, so it gives the fresh verdict exactly
    F, budget, queries = case
    fn = solver_verdict(F, budget)
    arrowing = {}  # (n, seed index) -> the smallest p answered "arrows"
    with pytest.MonkeyPatch.context() as mp:
        answers = _spy_answers(mp)
        samples, sample = [], experiments.gnp_sample
        mp.setattr(experiments, "gnp_sample", lambda *args: samples.append(args) or sample(*args))
        for n, p, s in queries:
            seed = Seed(90, s)
            G = gnp_sample(n, p, seed)
            fresh = decide_arrow(G, F, budget=budget).verdict
            ran = {k: len(v) for k, v in answers.items()}
            del samples[:]
            answer = fn(n, p, seed)
            new = {k: len(v) - ran[k] for k, v in answers.items()}
            if fresh != "undecided":
                assert answer == fresh, (n, p, s)
            if p < arrowing.get((n, s), 2.0):
                assert samples == [(n, p, seed)], (n, p, s)
                r = _clique_gate(F, n, p)
                if r is not None and naive_holds_clique(G, r):
                    assert new == {"clique": 1, "colouring": 0, "solver": 0}, (n, p, s)
                    assert answer == "arrows" and fresh != "not_arrows", (n, p, s)
                elif new["colouring"]:
                    assert F == K3 and new == {"clique": 0, "colouring": 1, "solver": 0}
                    assert answer == "not_arrows" and fresh != "arrows", (n, p, s)
                else:
                    assert new == {"clique": 0, "colouring": 0, "solver": 1}, (n, p, s)
                    assert answer == fresh, (n, p, s)
                if answer == "arrows":
                    arrowing[n, s] = p
            else:
                assert samples == [], (n, p, s)
                assert new == {"clique": 0, "colouring": 0, "solver": 0}, (n, p, s)
                assert answer == "arrows", (n, p, s)


def test_solver_verdict_answers_above_an_arrowing_point_without_a_solve(monkeypatch):
    # every p here lies below the clique gate (p ~ 0.700 at n = 10 and
    # 0.664 at n = 11), so only the bound and the colouring answer without
    # a solve; G(10, p) on Seed(91) arrows iff p > 0.609
    answers = _spy_answers(monkeypatch)
    fn = solver_verdict(K3)
    seed = Seed(91)
    assert _clique_gate(K3, 10, 0.69) is None and _clique_gate(K3, 11, 0.65) is None
    assert fn(10, 0.65, seed) == "arrows" and answers["solver"] == [gnp_sample(10, 0.65, seed).adj]
    assert fn(10, 0.69, seed) == fn(10, 0.65, seed) == fn(10, 1.0, seed) == "arrows"
    assert len(answers["solver"]) == 1
    # G(10, 0.05) takes two colours: the colouring answers it
    assert fn(10, 0.05, seed) == "not_arrows"
    assert answers["colouring"] == [gnp_sample(10, 0.05, seed).adj]
    # below the arrowing p every query is decided afresh, a repeated p too
    assert fn(10, 0.0, seed) == fn(10, 0.05, seed) == "not_arrows"
    assert answers["colouring"][1:] == [gnp_sample(10, 0.0, seed).adj,
                                        gnp_sample(10, 0.05, seed).adj]
    # the bound is kept per (n, seed): one solve and one colouring more
    fn(10, 0.65, Seed(92))
    fn(11, 0.65, seed)
    assert (len(answers["solver"]), len(answers["colouring"])) == (2, 4)
    # a p outside [0, 1] meets gnp_sample's refusal, whatever the bound says
    for p in (1.5, -0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"outside \[0,1\]"):
            fn(10, p, seed)
    assert answers["clique"] == []
    assert (len(answers["solver"]), len(answers["colouring"])) == (2, 4)


def test_solver_verdict_answers_a_host_holding_a_ramsey_clique_without_a_solve(monkeypatch):
    # R(K3, K3) = 6, and at n = 10 the gate C(10, 6) p^15 >= 1 opens at p ~ 0.700
    answers = _spy_answers(monkeypatch)
    fn = solver_verdict(K3)
    assert _clique_gate(K3, 10, 0.71) == 6 and _clique_gate(K3, 10, 0.69) is None
    hosts = {(p, v): gnp_sample(10, p, Seed(v)) for p in (0.69, 0.71, 0.75, 0.9)
             for v in (94, 96)}
    assert naive_holds_clique(hosts[0.9, 94], 6) and naive_holds_clique(hosts[0.71, 94], 6)
    assert naive_holds_clique(hosts[0.69, 94], 6)
    assert not naive_holds_clique(hosts[0.75, 96], 6)
    # a host holding K6 above the gate: the clique answers, and it moves the bound
    assert fn(10, 0.9, Seed(94)) == "arrows" and answers["clique"] == [hosts[0.9, 94].adj]
    assert fn(10, 0.95, Seed(94)) == "arrows" and len(answers["clique"]) == 1
    # below the bound, above the gate: the clique answers again
    assert fn(10, 0.71, Seed(94)) == "arrows" and answers["clique"][1:] == [hosts[0.71, 94].adj]
    assert answers["solver"] == answers["colouring"] == []
    # below the gate a host holding K6 is solved
    assert fn(10, 0.69, Seed(94)) == "arrows" and answers["solver"] == [hosts[0.69, 94].adj]
    # above the gate a host holding no K6 goes on: this one takes five
    # colours, so the colouring answers it with no solve
    assert fn(10, 0.75, Seed(96)) == decide_arrow(hosts[0.75, 96], K3).verdict == "not_arrows"
    assert answers["colouring"] == [hosts[0.75, 96].adj] and len(answers["solver"]) == 1
    # a pattern with no Ramsey clique of at most 7 vertices is always solved
    assert _ramsey_clique(cycle_graph(5)) is None
    assert solver_verdict(cycle_graph(5))(8, 1.0, Seed(94)) == "not_arrows"
    assert answers["solver"][1:] == [complete_graph(8).adj]
    assert len(answers["clique"]) == 2 and len(answers["colouring"]) == 1


def test_a_five_colourable_host_that_the_greedy_pass_misses_is_solved(monkeypatch):
    """G(9, 0.7) on Seed(600, 9, 1472) takes five colours, yet the one
    greedy pass needs a sixth, so the query goes on to the solver, which
    gives the same verdict, "not_arrows".  A seeded search found it: G(n, p)
    on Seed(600, n, i) for n = 6, 7, ..., i = 0, 1, ... and p = 0.6, 0.7,
    0.8, 0.85 and 0.9, kept when the pass fails and a backtracking search
    finds a 5-colouring; it met none at n <= 8 (i < 3000), and this host
    first.  A booster union equal to it that Z's repaired colouring does not
    answer falls through to the whole search: the one adding G.edges[9]."""
    seed = Seed(600, 9, 1472)
    G = gnp_sample(9, 0.7, seed)
    assert _clique_colouring(K3, G.adj) is None
    check_pulled_back([0, 1, 2, 2, 3, 4, 0, 4, 1], G.adj, K3)
    answers = _spy_answers(monkeypatch)
    assert solver_verdict(K3)(9, 0.7, seed) == decide_arrow(G, K3).verdict == "not_arrows"
    assert answers == {"clique": [], "colouring": [], "solver": [G.adj]}
    # Z = G less one edge, and a K2 booster on that edge: Z's colouring,
    # repaired at (0, 1), moves vertex 0 to colour 4; at (2, 4) it is stuck
    spec = booster.make_booster_spec(complete_graph(2), K3)
    unions = []
    for e in (G.edges[0], G.edges[9]):
        Z = G.without_edges([e])
        unions += booster._unions(Z, booster._z_analysis(Z, K3, None), [e], spec, K3, None)
    assert [(h, v, how) for h, _, v, how in unions] == [
        ((0, 1), "not_arrows", "colouring"), ((2, 4), "not_arrows", "searched")]


def test_colouring_answers_on_a_k3_curve_pull_back_to_f_free_colourings(monkeypatch):
    # the benchmark's K3 curve: n = 30, c in {1.5, 2.0, 2.5}, 600 nodes
    found, colouring = [], arrowing._clique_colouring

    def spy(F, adj):
        found.append((adj, colouring(F, adj)))
        return found[-1][1]

    monkeypatch.setattr(arrowing, "_clique_colouring", spy)
    threshold_curve(K3, 30, [1.5, 2.0, 2.5], 24, Seed(101), budget=600)
    answered = [(adj, colour) for adj, colour in found if colour is not None]
    assert 0 < len(answered) < len(found)
    for adj, colour in answered:
        check_pulled_back(colour, adj, K3)


@st.composite
def planted_cliques(draw):
    """A pattern with a Ramsey clique K_r, a host G(n, p) with n <= 12 and a
    K_r planted on drawn vertices, and a budget down to 1."""
    F = draw(st.sampled_from([pattern_by_name(x) for x in ("K2", "P3", "P4", "P5", "K3", "C4")]))
    r = _ramsey_clique(F).n
    n = draw(st.integers(r, 12))
    p = draw(st.integers(0, 20).map(lambda k: k / 20) | st.floats(0.0, 1.0))
    vs = draw(st.permutations(range(n)))[:r]
    G = gnp_sample(n, p, Seed(95, draw(st.integers(0, 3))))
    return F, n, p, Graph(n, G.edges + tuple(combinations(vs, 2))), draw(st.sampled_from([1, None]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(planted_cliques())
def test_solver_verdict_on_planted_cliques_agrees_with_an_unbudgeted_solve(case):
    # every host here arrows, as its unbudgeted solve confirms; where the
    # gate is open the clique answers it with no solve, at any budget
    F, n, p, host, budget = case
    assert decide_arrow(host, F).verdict == "arrows"
    with pytest.MonkeyPatch.context() as mp:
        answers = _spy_answers(mp)
        mp.setattr(experiments, "gnp_sample", lambda n, p, seed: host)
        answer = solver_verdict(F, budget)(n, p, Seed(95))
    assert answers["colouring"] == []  # a host holding K_r takes r colours
    if _clique_gate(F, n, p) is not None:
        assert answer == "arrows" and answers == {"clique": [host.adj], "colouring": [],
                                                  "solver": []}
    else:
        assert answers["solver"] == [host.adj]
        assert answer == decide_arrow(host, F, budget=budget).verdict


def test_solver_verdict_finds_the_clique_without_listing_every_copy():
    # at n = 128 and p = 1 the whole-host query would list C(128, 6) ~ 5.4e9 K6s
    fn = solver_verdict(K3)
    start = time.perf_counter()
    assert fn(128, 1.0, Seed(97)) == "arrows"
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        assert solver_verdict(K3)(128, 1.0, Seed(98)) == "arrows"
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak


def test_solver_verdict_bounds_decide_what_the_budget_leaves_open():
    # (pattern, n, seed, budget, p solved, its verdict, p answered from it);
    # a fresh solve at the second p runs out of budget
    for F, n, seed, budget, p0, v0, p1 in ((K3, 8, Seed(91, 0), 8, 0.85, "not_arrows", 0.7),
                                           (C4, 12, Seed(91, 0), 64, 0.6, "arrows", 0.85)):
        assert decide_arrow(gnp_sample(n, p1, seed), F, budget=budget).verdict == "undecided"
        fn = solver_verdict(F, budget)
        assert fn(n, p0, seed) == v0
        assert fn(n, p1, seed) == v0


def test_threshold_curve_asks_each_trial_once_per_c_on_one_process():
    calls = []

    def recording(n, p, seed):
        calls.append((n, p, seed))
        return "not_arrows"

    # unsorted, with a repeat and a c whose p clamps to 1
    curve = threshold_curve(K3, 9, [2.0, 0.5, 5.0, 0.5], trials=3, seed=Seed(5),
                            verdict_fn=recording)
    assert [pt["c"] for pt in curve["points"]] == [0.5, 0.5, 2.0, 5.0]
    assert calls == [(9, pt["p"], Seed(5).substream(t))
                     for pt in curve["points"] for t in range(3)]


def test_threshold_curve_trials_never_stop_arrowing_as_c_grows():
    # the default solver, wrapped to record each trial's verdicts in c order
    for F, n, cs, budget in ((K3, 20, [1.0, 1.5, 2.0, 2.5, 3.0], 600),
                             (C4, 11, [1.5, 2.5, 3.5, 4.5], 1000)):
        solve = solver_verdict(F, budget)
        verdicts = {}

        def recording(n, p, seed):
            v = solve(n, p, seed)
            verdicts.setdefault(seed, []).append(v)
            return v

        curve = threshold_curve(F, n, cs, 12, Seed(93), budget=budget, verdict_fn=recording)
        assert curve == threshold_curve(F, n, cs, 12, Seed(93), budget=budget)
        assert len(verdicts) == 12
        for seq in verdicts.values():
            decided = [v for v in seq if v != "undecided"]
            assert decided == sorted(decided, key=["not_arrows", "arrows"].index), seq


def test_coupled_curve_agrees_with_independent_points():
    # at the benchmark's grid, each coupled estimate lies in the Wilson
    # interval of an independent one at the same p (fresh trials on
    # seed.substream(i) for the i-th c), and the other way round
    seed = Seed(2024)
    for F, n, cs, budget in ((K3, 30, (1.5, 2.0, 2.5), 600), (C4, 13, (2.5, 3.0, 3.5), 1000)):
        curve = threshold_curve(F, n, cs, 48, seed, budget=budget)
        for i, pt in enumerate(curve["points"]):
            ind = estimate_arrow_probability(F, n, pt["p"], 48, seed.substream(i), budget=budget)
            assert ind["wilson_low"] <= pt["estimate"] <= ind["wilson_high"], (n, pt["c"])
            assert pt["wilson_low"] <= ind["estimate"] <= pt["wilson_high"], (n, pt["c"])


def test_z_property_rates_quick():
    out = z_property_rates(K3, cycle_graph(5), n=16, p=0.25, D=10.0, zeta=0.1,
                           delta=Fraction(1, 12), trials=3, seed=Seed(8),
                           pair_samples=10, embedding_samples=5)
    for key in ("Z1", "Z2", "Z3", "Z4", "Z5"):
        assert 0.0 <= out[key]["rate"] <= 1.0
    assert len(out["stats"]["f_minus_norm"]) == 3
    with pytest.raises(ValueError):
        z_property_rates(K3, cycle_graph(5), 16, 0.25, 10, 0.1, Fraction(2, 3),
                         trials=1, seed=Seed(8))


def test_z_rates_reject_sample_counts_below_one():
    # 0 embedding samples divided by zero, -2 reported a bad fraction of
    # -0.0, and -3 pair samples sampled nothing and passed Z4
    for name, value in (("pair_samples", 0), ("pair_samples", -3),
                        ("embedding_samples", 0), ("embedding_samples", -2)):
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            z_property_rates(K3, cycle_graph(5), 10, 0.3, 5.0, 0.1, Fraction(1, 12),
                             trials=1, seed=Seed(8), **{name: value})


def test_z_rates_degenerate_p0():
    out = z_property_rates(K3, cycle_graph(5), n=10, p=0.0, D=5.0, zeta=0.1,
                           delta=Fraction(1, 12), trials=2, seed=Seed(9),
                           pair_samples=4, embedding_samples=4)
    # empty graphs satisfy every bound trivially
    for key in ("Z1", "Z2", "Z3", "Z4", "Z5"):
        assert out[key]["rate"] == 1.0


def test_edge_pairs_keep_the_pair_by_pair_stream():
    # block draws give the pairs of drawing pair by pair, and leave the
    # generator where those leave it: its next bounded and float draws agree
    for m in (2, 3, 80):
        pairs = m * (m - 1) // 2
        for k in sorted({1, min(5, pairs), min(60, pairs)}):
            for s in range(25):
                rng, ref = Seed(1604, m, s).generator(), Seed(1604, m, s).generator()
                expected = []
                while len(expected) < k:
                    i, j = ref.integers(0, m, size=2).tolist()
                    if i != j:
                        expected.append((i, j))
                assert _edge_pairs(rng, m, k) == expected, (m, k, s)
                assert (rng.integers(0, 1000), rng.random()) == (
                    ref.integers(0, 1000), ref.random()), (m, k, s)


GOLDEN_Z = json.loads((Path(__file__).parent / "golden_z_rates.json").read_text())
# label -> (pattern, booster, n, p, D, zeta, delta, trials, seed, pair and
# embedding samples): the bench's criterion-11 configuration, a C4 case, and
# a host small enough that its pair draws often repeat an edge (i == j)
GOLDEN_Z_CASES = {
    "criterion11-K3-C5-n30": (K3, cycle_graph(5), 30, 30 ** -0.5, 20.0, 0.1,
                              Fraction(1, 12), 5, Seed(1601), 60, 8),
    "C4-P3-n14": (cycle_graph(4), path_graph(3), 14, 0.35, 4.0, 0.1,
                  Fraction(1, 12), 4, Seed(1602), 25, 6),
    "small-K3-P3-n5": (K3, path_graph(3), 5, 0.15, 5.0, 0.1,
                       Fraction(1, 12), 30, Seed(1603), 3, 4),
}


def test_golden_z_property_rates():
    assert set(GOLDEN_Z) == set(GOLDEN_Z_CASES)
    for label, (F, B, n, p, D, zeta, delta, trials, seed, pairs, embs) in GOLDEN_Z_CASES.items():
        out = z_property_rates(F, B, n, p, D, zeta, delta, trials, seed,
                               pair_samples=pairs, embedding_samples=embs)
        assert json.loads(json.dumps(out)) == GOLDEN_Z[label], label


def test_z_rates_stop_each_badness_scan_at_its_first_witness(monkeypatch):
    # Z5 asks `_is_bad` whether each sampled union is bad: it builds no union
    # view and collects no copy keys, with the pinned rates
    def refuse(name):
        def fail(*args):
            raise AssertionError(f"z_property_rates called {name}")
        return fail

    for name in ("_view_from_keys", "_union_keys"):
        monkeypatch.setattr(booster, name, refuse(name))
        monkeypatch.setattr(experiments, name, refuse(name), raising=False)
    test_golden_z_property_rates()
    # on a B1 union (the copy 012 holds both P3 pairs and the Z-only edge
    # (0, 2)) the scan draws fewer maps than a full collection of the copies
    drawn, maps = [], counting._anchored_maps
    monkeypatch.setattr(booster, "_anchored_maps",
                        lambda *args: (drawn.append(m) or m for m in maps(*args)))
    img = [(0, 1), (1, 2)]
    Z = complete_graph(6).without_edges(img)
    assert booster._is_bad(Z, img, K3)
    assert 0 < len(drawn) < len(list(maps(K3, complete_graph(6).adj, img)))


def test_z_rates_decide_heavy_pairs_from_the_witness_bound(monkeypatch):
    # at the criterion-11 parameters no sampled host's degree ceiling passes
    # the heavy cap, so Z4 runs no completion search and builds no
    # two-edge-deleted copy at all
    built, searched = [], []
    copy_set, completions = counting._copy_set, counting._completions_through
    monkeypatch.setattr(counting, "_copy_set", lambda maps: built.append(1) or copy_set(maps))
    monkeypatch.setattr(counting, "_completions_through",
                        lambda *args: searched.append(1) or completions(*args))
    F, B, n, p, D, zeta, delta, _, seed, pairs, embs = GOLDEN_Z_CASES["criterion11-K3-C5-n30"]
    out = z_property_rates(F, B, n, p, D, zeta, delta, 1, seed,
                           pair_samples=pairs, embedding_samples=embs)
    assert out["stats"]["heavy_pair_frac"] == [0.0]
    assert built == searched == []


def test_z_rates_ask_the_ceiling_once_per_host(monkeypatch):
    # a host whose ceiling is at most the cap counts no heavy pair with no
    # per-pair query; one above it (C4, whose ceiling grows with n) queries
    # every sampled pair, with the pinned rates either way
    queries = []
    exceeds = counting._PairFamily.exceeds
    monkeypatch.setattr(counting._PairFamily, "exceeds",
                        lambda self, *args: queries.append(1) or exceeds(self, *args))
    for label, queried in (("criterion11-K3-C5-n30", False), ("C4-P3-n14", True)):
        queries.clear()
        F, B, n, p, D, zeta, delta, trials, seed, pairs, embs = GOLDEN_Z_CASES[label]
        out = z_property_rates(F, B, n, p, D, zeta, delta, trials, seed,
                               pair_samples=pairs, embedding_samples=embs)
        assert json.loads(json.dumps(out)) == GOLDEN_Z[label], label
        assert len(queries) == (trials * pairs if queried else 0), label


def test_janson_fixtures():
    fam = enumerate_copies(K3, complete_graph(3))
    r = janson_bound(fam, Fraction(1, 2))
    assert r["mu"] == Fraction(1, 8) and r["Delta"] == 0
    assert r["bound"] == pytest.approx(math.exp(-1 / 8))
    # two edge-disjoint copies: bound exp(-2 q^k)
    from ramseylab.graphs import Graph

    host = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    r = janson_bound(enumerate_copies(K3, host), Fraction(1, 2))
    assert r["Delta"] == 0 and r["bound"] == pytest.approx(math.exp(-2 / 8))
    # overlapping: all triangles of K4
    r = janson_bound(enumerate_copies(K3, complete_graph(4)), Fraction(1, 2))
    assert r["mu"] == Fraction(1, 2) and r["Delta"] == Fraction(3, 8)
    assert r["bound"] == pytest.approx(math.exp(-0.5 + 3 / 16))
    # empty family: vacuous bound 1
    r = janson_bound(enumerate_copies(K3, empty_graph(4)), Fraction(1, 2))
    assert r["empty"] and r["bound"] == 1.0
    assert janson_bound(enumerate_copies(K3, complete_graph(4)), 1)["bound"] <= 1.0
    # -mu + Delta/2 = -364 + 6006 on the triangles of K14 at q = 1: exp of it
    # overflows, and the bound is capped at 1
    r = janson_bound(enumerate_copies(K3, complete_graph(14)), 1)
    assert (r["mu"], r["Delta"], r["bound"], r["capped"]) == (364, 12012, 1.0, True)
    with pytest.raises(ValueError):
        janson_bound(fam, 0)


def test_janson_delta_matches_pair_scan():
    fam = enumerate_copies(K3, complete_graph(4))
    # 12 ordered overlapping pairs, each union has 5 edges
    count = 0
    for a in fam.copies:
        for b in fam.copies:
            if a is not b and a.edges & b.edges:
                count += 1
    assert count == 12
    r = janson_bound(fam, Fraction(1, 2))
    assert r["Delta"] == count * Fraction(1, 2) ** 5


def test_constant_chain_examples():
    ch = derive_proof_constants(K3, B=3, D=1)
    assert ch.alpha_tilde == Fraction(1, 6318)
    assert ch.delta == Fraction(1, 12)
    assert ch.gamma * 10 * ch.L == ch.delta
    ch = derive_proof_constants(K3, B=path_graph(3), D=1)
    assert ch.beta * 1 * ch.k * 9 == ch.alpha_prime
    assert 0 < ch.alpha_tilde < 1
    assert ch.K == 2
    # the L formula: (e(F)-1) * (2/alpha) * v(F)^2 * D
    assert ch.L == 2 * 2 * 6318 * 9 * 1


def test_constant_chain_regularity_side():
    ch = derive_proof_constants(K3, lam=Fraction(1, 2), C0=Fraction(1, 2), C1=2,
                                xi_cl=Fraction(1, 10), rho=Fraction(1, 8),
                                eps_cl=Fraction(1, 5), c0=Fraction(1, 50), T0=20)
    assert (ch.a, ch.b) == (2, 1)
    assert ch.gamma_kst == Fraction(1, 24)
    assert ch.t0 == 192
    assert ch.C0_prime == Fraction(1, 4)
    assert ch.eps_reg == min(Fraction(1, 8) * Fraction(1, 5) / 4, Fraction(1, 2) / 48)
    assert ch.eta == Fraction(1, 50) * Fraction(1, 20**3)
    assert ch.d > 0
    # tau exponent needs ell
    ch2 = derive_proof_constants(K3, ell=5)
    assert ch2.tau_exponent == -Fraction(1, 12) / 16


def test_constant_chain_partial_inputs():
    ch = derive_proof_constants(K3)
    assert ch.delta == Fraction(1, 12)
    assert ch.L is None and ch.alpha_prime is None and ch.d is None
    with pytest.raises(ValueError):
        derive_proof_constants(path_graph(4))  # not strictly balanced


def test_bipartition_sizes():
    assert _bipartition_sizes(classify(K3))[:2] == (2, 1)
    a, b, split = _bipartition_sizes(classify(cycle_graph(5)))
    assert (a, b) == (3, 2) and not split
    a, b, split = _bipartition_sizes(classify(cycle_graph(4)))
    assert a + b == 4 and split  # even cycles cannot co-locate the endpoints


def test_witness_edge_of_a_strictly_balanced_pattern_is_no_bridge():
    # _bipartition_sizes reads one 2-colouring of F - e, which is the only
    # one up to a swap when F - e is connected.  For F strictly balanced a
    # bridge would make d2(F) a mediant of the d2 of its two sides (or of
    # one side and d2(K2) = 1), so no larger than both: on every labelled
    # graph on at most 5 vertices, the witness edge leaves F connected
    checked = 0
    for n in range(2, 6):
        pairs = list(combinations(range(n), 2))
        for mask in range(1, 1 << len(pairs)):
            F = Graph(n, [e for i, e in enumerate(pairs) if mask >> i & 1])
            prof = classify(F)
            if not (prof.strictly_balanced and prof.nearly_bipartite):
                continue
            rest = F.without_edges([prof.nearly_bipartite_witness])
            reached, stack = {0}, [0]
            while stack:
                for w in rest.neighbours(stack.pop()):
                    if w not in reached:
                        reached.add(w)
                        stack.append(w)
            assert len(reached) == n, F.edges
            checked += 1
    assert checked == 1 + 3 + 12 + 10  # the labelled K3, C4, C5 and K2,3


def test_window_trend_summary():
    from ramseylab.experiments import window_trend

    rows = [
        {"n": 10, "relative_width": 0.5},
        {"n": 20, "relative_width": 0.3},
        {"n": 40, "relative_width": 0.2},
    ]
    t = window_trend(rows)
    assert t["nonincreasing"] and len(t["widths"]) == 3
