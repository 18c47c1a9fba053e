"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with its runtime against the stated cap.

Run as `pytest tests/test_acceptance.py -v`; the report lines bypass
pytest capture so they always reach the terminal.
"""

import sys
import time
from fractions import Fraction
from math import comb, exp, log


from ramseylab.arrowing import brute_force_arrow, decide_arrow, is_f_free
from ramseylab.booster import (
    Hypergraph,
    activated_set,
    brute_force_cores,
    construct_normal_family,
    hypergraph_stats,
    make_booster_spec,
    verify_core_properties,
    union_view,
    verify_normal_family,
)
from ramseylab.counting import (
    base_graph,
    count_f_minus,
    count_f_minus_through,
    enumerate_copies,
    enumerate_P,
    extension_count,
)
from ramseylab.density import classify, d2, m2
from ramseylab.experiments import (
    derive_proof_constants,
    estimate_arrow_probability,
    hitting_constant,
    sharpness_window,
    wilson_interval,
    z_property_rates,
)
from ramseylab.graphs import Seed, complete_graph, cycle_graph, gnp_sample, path_graph
from ramseylab.regularity import fstar_overlap_count

from instances import interactive_instance, assert_instance_well_formed, k6_minus_edge_block, two_block_host
from oracles import (
    naive_base_graph_pairs,
    naive_copies,
    naive_count_f_minus,
    naive_count_f_minus_through,
    naive_extension_count,
    naive_fstar_overlap,
    naive_hypergraph_stats,
    naive_P,
)

K3 = complete_graph(3)


def report(name, ok, started, cap_s, detail=""):
    took = time.monotonic() - started
    line = f"[{'PASS' if ok else 'FAIL'}] {name} ({took:.1f}s / cap {cap_s}s)"
    if detail:
        line += f" :: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line
    assert took < cap_s, f"{name} exceeded its runtime cap: {took:.1f}s"


def test_criterion_1_density_exactness():
    t0 = time.monotonic()
    ok = d2(complete_graph(2)) == 1
    for k in range(3, 9):
        ok = ok and m2(cycle_graph(k))[0] == Fraction(k - 1, k - 2)
        prof = classify(cycle_graph(k))
        ok = ok and prof.strictly_balanced and prof.nearly_bipartite
        ok = ok and prof.threshold_exponent == Fraction(k - 2, k - 1)
    ok = ok and not classify(complete_graph(4)).nearly_bipartite
    report("1 density exactness", ok, t0, 1)


def test_criterion_2_arrowing_oracle_equivalence():
    t0 = time.monotonic()
    patterns = [K3, cycle_graph(4), cycle_graph(5)]
    mismatches = 0
    for i in range(200):
        G = gnp_sample(8, 0.5, Seed(9200, i))
        for F in patterns:
            if decide_arrow(G, F).verdict != brute_force_arrow(G, F).verdict:
                mismatches += 1
    k5 = decide_arrow(complete_graph(5), K3)
    k6 = decide_arrow(complete_graph(6), K3)
    cert_ok = k5.verdict == "not_arrows" and is_f_free(k5.certificate, complete_graph(5), K3)[0]
    ok = mismatches == 0 and cert_ok and k6.verdict == "arrows"
    ok = ok and brute_force_arrow(complete_graph(5), K3).verdict == "not_arrows"
    ok = ok and brute_force_arrow(complete_graph(6), K3).verdict == "arrows"
    report("2 arrowing oracle equivalence", ok, t0, 300,
           f"600 comparisons, {mismatches} mismatches")


def test_criterion_3_monotone_statistics():
    t0 = time.monotonic()
    n = 20
    cs = [0.8, 1.4, 2.0, 2.6, 3.2]  # spans the finite-n transition
    points = []
    for j, c in enumerate(cs):
        p = c * n**-0.5
        est = estimate_arrow_probability(K3, n, p, 200, Seed(9300, j))
        arrows = round(est["estimate"] * est["decided"])
        lo3, hi3 = wilson_interval(arrows, est["decided"], z=3.0)
        points.append((p, est["estimate"], lo3, hi3))
    monotone = True
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            if points[j][3] < points[i][2]:  # significantly decreasing
                monotone = False
    exact0 = estimate_arrow_probability(K3, n, 0.0, 200, Seed(9301))["estimate"] == 0.0
    exact1 = estimate_arrow_probability(K3, 6, 1.0, 200, Seed(9302))["estimate"] == 1.0
    ok = monotone and exact0 and exact1
    report("3 monotone statistics", ok, t0, 1800,
           "estimates " + ",".join(f"{e:.2f}" for _, e, _, _ in points))


def test_criterion_4_synthetic_threshold_pipeline():
    t0 = time.monotonic()
    p0 = 0.217

    def step(n, p, seed):
        return "arrows" if p > p0 else "not_arrows"

    # the hitting edge of a planted step is the trial's last arrival at or
    # below p0, read here from the trial's own uniforms
    ok = True
    for n in (20, 40, 80):
        for t in range(2):
            seed = Seed(9400, n, t)
            u = seed.generator().random(comb(n, 2)).tolist()
            hit = hitting_constant(K3, n, seed, verdict_fn=step)
            ok = ok and hit["p"] == max(x for x in u if x <= p0)

    c0 = 1.3
    widths = []
    for n in (20, 40, 80):
        w = 1 / n**0.5

        def logistic(nn, p, seed, w=w):
            c = p * nn**0.5
            prob = 1 / (1 + exp(-(c - c0) / w))
            return "arrows" if seed.generator().random() < prob else "not_arrows"

        rows = sharpness_window(K3, [n], trials=400, seed=Seed(9401, n), verdict_fn=logistic)
        measured = rows[0]["window"]
        true_gap = w * 2 * log(9)
        widths.append((n, measured, true_gap))
        ok = ok and abs(measured - true_gap) / true_gap < 0.2
    report("4 synthetic threshold pipeline", ok, t0, 60,
           "; ".join(f"n={n}: {m:.3f} vs {t:.3f}" for n, m, t in widths))


def test_criterion_5_fact_hitting_and_agreement():
    t0 = time.monotonic()
    instances = 0
    violations = 0
    idx = 0
    while instances < 1000 and idx < 1400:
        inst = interactive_instance(idx)
        idx += 1
        if inst is None:
            continue
        Z, F, spec, Xi, phis = inst["Z"], inst["F"], inst["spec"], inst["Xi"], inst["phis"]
        assert_instance_well_formed(inst)
        members = [set(union_view(Z, h, spec, F).members) for h in Xi]
        acts = [activated_set(Z, Xi, spec, F, phi) for phi in phis]
        for A in acts:
            for ms in members:
                if not A & ms:
                    violations += 1  # (A1) failed
        for i in range(len(phis)):
            for j in range(i + 1, len(phis)):
                for z in acts[i] & acts[j]:
                    if phis[i][z] != phis[j][z]:
                        violations += 1  # (A2) failed
        instances += 1
    ok = instances >= 1000 and violations == 0
    report("5 activated-set facts", ok, t0, 600,
           f"{instances} instances, {violations} violations")


def test_criterion_6_core_oracle():
    t0 = time.monotonic()
    rng = Seed(9600).generator()
    violations = 0
    for i in range(100):
        m = int(rng.integers(3, 15))
        edge_count = int(rng.integers(1, 7))
        edges = set()
        while len(edges) < edge_count:
            size = int(rng.integers(1, min(5, m) + 1))
            edges.add(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
        H = Hypergraph(m, edges)
        fam = brute_force_cores(H)
        rep = verify_core_properties(fam, H)
        if not rep["c3_ok"]:
            violations += 1
    report("6 core oracle", violations == 0, t0, 300, f"{violations} violations")


def test_criterion_7_container_statistics():
    t0 = time.monotonic()
    st = hypergraph_stats(Hypergraph(2, [(0, 1)]), Fraction(1, 2))
    ok = st["delta"] == 2 and st["d"] == 1 and st["delta_j"][2] == 2
    from math import comb

    rng = Seed(9700).generator()
    for i in range(20):
        m = int(rng.integers(4, 8))
        ell = int(rng.integers(2, min(4, m) + 1))
        edges = set()
        target = min(int(rng.integers(1, 6)), comb(m, ell))
        while len(edges) < target:
            edges.add(tuple(sorted(rng.choice(m, size=ell, replace=False).tolist())))
        tau = Fraction(int(rng.integers(1, 6)), 7)
        mine = hypergraph_stats(Hypergraph(m, edges), tau)
        ref = naive_hypergraph_stats(m, edges, tau)
        same = (
            mine["delta"] == ref["delta"]
            and mine["d"] == ref["d"]
            and mine["delta_j"] == ref["delta_j"]
            and mine["Delta1"] == ref["Delta1"]
            and mine["Delta2"] == ref["Delta2"]
        )
        rel = abs(float(mine["delta"]) - float(ref["delta"]))
        ok = ok and same and rel <= 1e-12 * max(1.0, float(ref["delta"]))
    report("7 container statistics", ok, t0, 10)


def test_criterion_8_counting_oracle_equivalence():
    t0 = time.monotonic()
    bad = []

    # copies: 200 hosts, 6..12 vertices
    pats_small = [K3, cycle_graph(4), path_graph(4), complete_graph(4)]
    pats_large = [K3, cycle_graph(4), path_graph(4)]
    for i in range(200):
        n = 6 + i % 7
        G = gnp_sample(n, 0.45, Seed(9800, i))
        F = (pats_small if n <= 10 else pats_large)[i % 4 if n <= 10 else i % 3]
        mine = {(c.vertices, c.edges) for c in enumerate_copies(F, G).copies}
        if mine != naive_copies(F, G):
            bad.append(("copies", i))

    # deleted-edge family + anchored-sum identity: 200 hosts; the
    # anchored form is oracle-checked on one random edge per host
    rng_e = Seed(9807).generator()
    for i in range(200):
        n = 6 + i % 6
        G = gnp_sample(n, 0.4, Seed(9801, i))
        F = [K3, cycle_graph(4), cycle_graph(5)][i % 3]
        total = count_f_minus(F, G)
        if total != naive_count_f_minus(F, G):
            bad.append(("f_minus", i))
        anchored = 0
        probe = G.edges[int(rng_e.integers(0, G.num_edges()))] if G.num_edges() else None
        for e in G.edges:
            c = count_f_minus_through(F, G, e)
            if e == probe and c != naive_count_f_minus_through(F, G, e):
                bad.append(("f_minus_through", i))
            anchored += c
        if anchored != (F.num_edges() - 1) * total:
            bad.append(("sum_identity", i))

    # pair family: 200 hosts at 6..8 vertices, one valid pair each
    rng = Seed(9802).generator()
    for i in range(200):
        n = 6 + i % 3
        G = gnp_sample(n, 0.5, Seed(9803, i))
        F = [K3, cycle_graph(4)][i % 2]
        while True:
            a, b, c, d = (int(x) for x in rng.integers(0, n, size=4))
            if a != b and c != d:
                e1, e2 = (min(a, b), max(a, b)), (min(c, d), max(c, d))
                if e1 != e2:
                    break
        mine = {
            (tuple(sorted(x.vertices)), tuple(sorted(x.edges)),
             tuple(sorted(y.vertices)), tuple(sorted(y.edges)), s)
            for x, y, s in enumerate_P(F, G, e1, e2)
        }
        ref = {(c1[0], c1[1], c2[0], c2[1], s) for c1, c2, s in naive_P(F, G, e1, e2)}
        if mine != ref:
            bad.append(("P", i))

    # rooted extensions: 200 hosts
    rooted = [
        (complete_graph(3).without_edges([(0, 1)]), [0, 1]),
        (cycle_graph(4), [0, 2]),
        (path_graph(4), [0, 3]),
    ]
    for i in range(200):
        n = 6 + i % 4
        G = gnp_sample(n, 0.5, Seed(9804, i))
        H, R = rooted[i % 3]
        if extension_count(R, H, [0, 1], G) != naive_extension_count(R, H, [0, 1], G):
            bad.append(("extension", i))

    # basegraph: 200 hosts
    profs = [classify(F) for F in (K3, cycle_graph(4), cycle_graph(5))]
    for i in range(200):
        n = 6 + i % 4
        G = gnp_sample(n, 0.5, Seed(9805, i))
        prof = profs[i % 3]
        mine = set(base_graph(prof, G).edges)
        ref = naive_base_graph_pairs(prof.pattern, prof.nearly_bipartite_witness, G)
        if mine != ref:
            bad.append(("basegraph", i))

    # overlap counts: 200 hosts
    from ramseylab.graphs import Graph

    fstar = Graph(4, [(0, 1), (1, 2), (2, 3)])
    for i in range(200):
        n = 6 + i % 4
        G = gnp_sample(n, 0.5, Seed(9806, i))
        W = [0, 2, 4, 5][: 2 + i % 3]
        mine = fstar_overlap_count(fstar, 0, 3, G, W)["count"]
        if mine != naive_fstar_overlap(fstar, 0, 3, G, W):
            bad.append(("fstar", i))

    report("8 counting oracle equivalence", not bad, t0, 600, f"defects: {bad[:5]}")


def test_criterion_9_constant_chain():
    t0 = time.monotonic()
    ch = derive_proof_constants(K3, B=path_graph(3), D=1)
    ok = ch.alpha_tilde == Fraction(1, 6318)
    ok = ok and ch.delta == Fraction(1, 12)
    ok = ok and ch.beta * 1 * ch.k * 9 == ch.alpha_prime
    ok = ok and ch.gamma * 10 * ch.L == ch.delta
    ok = ok and isinstance(ch.alpha_prime, Fraction) and isinstance(ch.beta, Fraction)
    report("9 constant chain", ok, t0, 1)


def test_criterion_10_normal_family_soundness():
    t0 = time.monotonic()
    violations = []
    runs = 0
    for i in range(50):
        kind = i % 5
        sd = Seed(9900, i)
        if kind in (0, 1, 2):
            n = 6 + (i // 3) % 7
            Z, _ = k6_minus_edge_block(n, sd, decorate=kind != 0)
            B = complete_graph(2)
        elif kind == 3:
            Z, _ = two_block_host(sd)
            B = complete_graph(2)
        else:
            Z, _ = k6_minus_edge_block(9, sd)
            B = path_graph(3)  # exercises the badness filters
        spec = make_booster_spec(B, K3)
        params = dict(D=4, delta=Fraction(1, 12), p=0.5, alpha=Fraction(1, 4))
        if kind == 4:
            params["pool_size"] = 60
        xi0, rep = construct_normal_family(Z, spec, K3, params, seed=sd.substream(1))
        check = verify_normal_family(Z, xi0, spec, K3, params)
        if not check["ok"]:
            violations.append((i, check["violations"][:3]))
        runs += 1
    report("10 normal-family soundness", runs == 50 and not violations, t0, 900,
           f"{runs} runs, violations: {violations[:3]}")


def test_criterion_11_z_stability():
    t0 = time.monotonic()
    n = 30
    p = n**-0.5
    halves = []
    for h in range(2):
        out = z_property_rates(K3, cycle_graph(5), n=n, p=p, D=20.0, zeta=0.1,
                               delta=Fraction(1, 12), trials=50, seed=Seed(9910, h),
                               pair_samples=60, embedding_samples=8)
        halves.append(out["stats"])
    details = []
    ok = True
    for key in ("f_minus_norm", "f_minus_edge_norm", "heavy_pair_frac"):
        m1 = sum(halves[0][key]) / 50
        m2_ = sum(halves[1][key]) / 50
        finite = all(abs(x) < float("inf") for x in halves[0][key] + halves[1][key])
        overall = (m1 + m2_) / 2
        if overall == 0:
            stable = m1 == m2_ == 0
            rel = 0.0
        else:
            rel = abs(m1 - m2_) / overall
            stable = rel < 0.25
        details.append(f"{key}: {m1:.4f} vs {m2_:.4f} (rel {rel:.2%})")
        ok = ok and finite and stable
    report("11 empirical Z-stability", ok, t0, 1800, "; ".join(details))
