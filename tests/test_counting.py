import re
import time
from fractions import Fraction
from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.arrowing import _id_array, decide_arrow, is_f_free
from ramseylab.counting import (
    _anchored_copies,
    _sorted_copies,
    adversarial_T_search,
    are_isomorphic,
    base_graph,
    check_T,
    count_f_minus,
    count_f_minus_through,
    count_P,
    enumerate_copies,
    enumerate_P,
    extension_count,
    f_minus_members,
    rho_d_dense_check,
)
from ramseylab.booster import Hypergraph
from ramseylab.density import classify, mad, rooted_density
from ramseylab.experiments import janson_bound
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    edge_count_between,
    empty_graph,
    gnp_sample,
    path_graph,
    pattern_by_name,
)
from ramseylab.regularity import (
    counting_lemma_check,
    fstar_overlap_count,
    is_eps_p_regular,
    pair_density,
    reduced_graph,
)

from oracles import (
    naive_base_graph_pairs,
    naive_copies,
    naive_count_f_minus,
    naive_count_f_minus_through,
    naive_edge_counts,
    naive_extension_count,
    naive_f_minus_members,
    naive_P,
    naive_rho_d_dense,
)

K3 = complete_graph(3)
C4 = cycle_graph(4)


def test_copy_fixtures():
    assert len(enumerate_copies(K3, complete_graph(4))) == 4
    assert len(enumerate_copies(C4, complete_graph(4))) == 3
    g = gnp_sample(9, 0.5, Seed(8))
    assert len(enumerate_copies(complete_graph(2), g)) == g.num_edges()
    assert len(enumerate_copies(complete_graph(5), complete_graph(4))) == 0


def test_copies_match_oracle():
    patterns = [K3, C4, cycle_graph(5), complete_graph(4), path_graph(4)]
    for i in range(30):
        g = gnp_sample(8, 0.45, Seed(301, i))
        F = patterns[i % len(patterns)]
        mine = {(c.vertices, c.edges) for c in enumerate_copies(F, g).copies}
        assert mine == naive_copies(F, g), (i, F)


def test_anchored_copies():
    g = complete_graph(5)
    for e in g.edges:
        fam = enumerate_copies(K3, g, anchor=e)
        assert len(fam) == 3  # triangles of K5 through an edge
        assert all(e in c.edges for c in fam.copies)
    assert len(enumerate_copies(K3, path_graph(5), anchor=(0, 2))) == 0  # a non-edge
    # an anchor must be two distinct vertex ids of the host
    for bad in ((9, 0), (-1, 2), (0, 9), (0, 0), (5, 1)):
        with pytest.raises(ValueError, match=rf"anchor \({bad[0]}, {bad[1]}\) is not a pair"):
            enumerate_copies(K3, g, anchor=bad)


def test_isomorphism():
    assert are_isomorphic(path_graph(3), complete_graph(3).without_edges([(0, 1)]))
    assert not are_isomorphic(path_graph(4), cycle_graph(4))
    assert are_isomorphic(Graph(3, []), Graph(3, []))


def test_f_minus_fixtures():
    assert count_f_minus(K3, path_graph(3)) == 1
    assert count_f_minus(K3, complete_graph(4)) == 12
    assert count_f_minus_through(K3, path_graph(3), (0, 1)) == 1
    assert count_f_minus_through(K3, path_graph(3), (1, 2)) == 1
    with pytest.raises(ValueError, match="pattern needs at least one edge"):
        f_minus_members(Graph(3, []))
    with pytest.raises(ValueError):
        count_f_minus_through(K3, path_graph(3), (0, 2))
    assert len(f_minus_members(C4)) == 1  # all edge deletions isomorphic
    # the members are built once per pattern, from one edge per Aut(F)-orbit,
    # so a clique costs no isomorphism search: K11 - e does not fit in K5
    assert f_minus_members(C4) is f_minus_members(C4)
    start = time.perf_counter()
    assert count_f_minus(complete_graph(11), complete_graph(5)) == 0
    assert time.perf_counter() - start < 5


def test_f_minus_members_of_a_near_clique_are_fast():
    # the orbit queries of K10-e pin no vertex across its two degrees, so the
    # arcs that lie in no found orbit cost no exhaustive search
    start = time.perf_counter()
    assert len(f_minus_members(pattern_by_name("K10-e"))) == 2
    assert time.perf_counter() - start < 5


def test_f_minus_members_keep_the_first_edge_of_each_class():
    # one member per iso class of F - e, from the first such edge in
    # F.edges order, in the order those edges come
    for name in ("K3", "C4", "C5", "P3", "P5", "K4-e", "K4", "K5", "K6", "K6-e"):
        F = pattern_by_name(name)
        assert list(f_minus_members(F)) == naive_f_minus_members(F), name


def test_f_minus_matches_oracle_and_sum_identity():
    patterns = [K3, C4, cycle_graph(5)]
    for i in range(24):
        g = gnp_sample(9, 0.4, Seed(302, i))
        F = patterns[i % len(patterns)]
        total = count_f_minus(F, g)
        assert total == naive_count_f_minus(F, g)
        anchored_sum = 0
        for e in g.edges:
            c = count_f_minus_through(F, g, e)
            assert c == naive_count_f_minus_through(F, g, e)
            anchored_sum += c
        # every family member has e(F)-1 edges
        assert anchored_sum == (F.num_edges() - 1) * total, (i, F)


def test_P_trivial_cases():
    assert count_P(K3, empty_graph(6), (0, 1), (2, 3)) == 0
    with pytest.raises(ValueError):
        enumerate_P(K3, empty_graph(6), (0, 1), (0, 1))
    # two disjoint single edges cannot satisfy the intersection condition
    z = Graph(6, [(0, 1), (2, 3)])
    assert count_P(C4, z, (0, 2), (1, 3)) == 0


def test_P_hand_instance():
    z = Graph(3, [(0, 1), (1, 2)])
    pairs = enumerate_P(K3, z, (1, 2), (0, 1))
    assert len(pairs) == 1
    a, b, s = pairs[0]
    assert a.edges == frozenset({(0, 1)}) and b.edges == frozenset({(1, 2)})
    assert s == 3


def test_P_matches_oracle():
    rng = Seed(303).generator()
    patterns = [K3, C4]
    checked = 0
    for i in range(25):
        g = gnp_sample(7, 0.5, Seed(304, i))
        if g.num_edges() < 2:
            continue
        F = patterns[i % 2]
        pairs = [tuple(int(x) for x in rng.integers(0, 7, size=4)) for _ in range(3)]
        for a, b, c, d in pairs:
            e1 = (min(a, b), max(a, b))
            e2 = (min(c, d), max(c, d))
            if a == b or c == d or e1 == e2:
                continue
            mine = {
                (tuple(sorted(x.vertices)), tuple(sorted(x.edges)),
                 tuple(sorted(y.vertices)), tuple(sorted(y.edges)), s)
                for x, y, s in enumerate_P(F, g, e1, e2)
            }
            ref = {
                (c1[0], c1[1], c2[0], c2[1], s)
                for c1, c2, s in naive_P(F, g, e1, e2)
            }
            assert mine == ref, (i, F, e1, e2)
            checked += 1
    assert checked >= 30


def test_extension_count_examples():
    k3e = complete_graph(3).without_edges([(0, 1)])
    assert extension_count([0, 1], k3e, [0, 1], complete_graph(5)) == 3
    assert extension_count([0, 1], k3e, [0, 1], empty_graph(5)) == 0
    with pytest.raises(ValueError):
        extension_count([0, 1, 2], complete_graph(3), [0, 1, 2], complete_graph(5))
    with pytest.raises(ValueError):
        extension_count([0, 1], k3e, [2, 2], complete_graph(5))


def test_vertex_ids_are_integers_not_floats_or_bools():
    # every entry point reads a vertex id as graphs._is_id does: a float or
    # a bool is refused with a ValueError, never a TypeError or a silent 1
    k3e, k6 = complete_graph(3).without_edges([(0, 1)]), complete_graph(6)
    for bad in (1.0, 1.5, True):
        calls = [lambda: extension_count([0, 1], k3e, [0, bad], k6),
                 lambda: extension_count([0, bad], k3e, [0, 1], k6),
                 lambda: edge_count_between(k6, [0, bad]),
                 lambda: edge_count_between(k6, [0], [bad, 2]),
                 lambda: is_eps_p_regular(k6, 0.5, [0, bad], [2, 3], 0.5),
                 lambda: is_eps_p_regular(k6, 0.5, [0, 4], [2, bad], 0.5),
                 lambda: enumerate_copies(K3, k6, anchor=(0, bad)),
                 lambda: count_P(K3, k6, (0, bad), (2, 3)),
                 lambda: count_P(K3, k6, (0, 2), (bad, 3)),
                 lambda: count_f_minus_through(K3, k6, (bad, 2))]
        for call in calls:
            with pytest.raises(ValueError, match=repr(bad)):
                call()
    # a host pair is two ids, not one id or three
    for bad in (5, (0, 1, 2), [0]):
        with pytest.raises(ValueError, match="is not a pair of distinct host vertices"):
            enumerate_copies(K3, k6, anchor=bad)


_K6, _P2, _P3 = complete_graph(6), path_graph(2), path_graph(3)


@pytest.mark.parametrize("call, message", [
    (lambda: edge_count_between(_K6, [0, 1, 1]), "vertex 1 is repeated"),
    (lambda: edge_count_between(_K6, [0], [2, 2]), "vertex 2 is repeated"),
    (lambda: pair_density(_K6, 0.5, [0, 0], [1, 2]), "vertex 0 is repeated"),
    (lambda: is_eps_p_regular(_K6, 0.5, [0, 1], [2, 3, 3], 0.5), "vertex 3 is repeated"),
    (lambda: rooted_density([0, 0], _P3), "root 0 is repeated"),
    (lambda: mad([1, 1], _P3), "root 1 is repeated"),
    (lambda: extension_count([0, 1], _P3, [2, 2], _K6), "host root 2 is repeated"),
    (lambda: fstar_overlap_count(_P3, 0, 0, _K6, [0, 1]), "marked vertex 0 is repeated"),
    (lambda: fstar_overlap_count(_P3, 0, 2, _K6, [0, 1, 1]), "W vertex 1 is repeated"),
    (lambda: reduced_graph(_K6, 0.5, [[0, 1, 1], [2, 3]], 0.1, 0.5),
     "partition vertex 1 is repeated"),
    (lambda: counting_lemma_check(_P2, [0, 1], _K6, [[0, 1], [2, 3, 3]], 0.5, 0.1),
     "partition vertex 3 is repeated"),
    (lambda: Hypergraph(4, [[0, 1], [2, 2, 3]]), "hyperedge vertex 2 is repeated"),
], ids=["edge_count_between", "edge_count_between_W", "pair_density", "is_eps_p_regular",
        "rooted_density", "mad", "extension_count", "fstar_overlap_count_marked",
        "fstar_overlap_count_W", "reduced_graph", "counting_lemma_check", "Hypergraph"])
def test_vertex_sets_refuse_a_repeated_member(call, message):
    # every vertex set read from outside goes through graphs._vertex_mask,
    # which names the repeated member: no count, density or bound is taken
    # over a list that counts one vertex twice, and no member is merged away
    with pytest.raises(ValueError, match=message):
        call()


def test_extension_count_falling_factorial_in_complete_host():
    # in K_n every attachment works: the count is a falling factorial
    k3e = complete_graph(3).without_edges([(0, 1)])
    for n in (4, 6, 8):
        assert extension_count([0, 1], k3e, [0, 1], complete_graph(n)) == n - 2
    c4_rooted = cycle_graph(4)
    for n in (5, 7):
        assert extension_count([0, 2], c4_rooted, [0, 1], complete_graph(n)) == (n - 2) * (n - 3)


def test_extension_count_matches_oracle():
    hs = [complete_graph(3).without_edges([(0, 1)]), cycle_graph(4), path_graph(4)]
    roots = [[0, 1], [0, 2], [0, 3]]
    for i in range(18):
        g = gnp_sample(7, 0.5, Seed(305, i))
        H = hs[i % 3]
        R = roots[i % 3]
        assert extension_count(R, H, [0, 1], g) == naive_extension_count(R, H, [0, 1], g)


def test_base_graph_fixtures():
    prof3 = classify(K3)
    assert base_graph(prof3, path_graph(3)).edges == ((0, 2),)
    assert base_graph(prof3, empty_graph(3)).num_edges() == 0
    prof4 = classify(C4)
    assert base_graph(prof4, path_graph(4)).edges == ((0, 3),)
    for n in (3, 5, 7):
        assert base_graph(prof3, complete_graph(n)) == complete_graph(n)
    with pytest.raises(ValueError):
        base_graph(classify(complete_graph(4)), complete_graph(5))


def test_base_graph_matches_oracle_and_monotone():
    prof_by = {F: classify(F) for F in (K3, C4, cycle_graph(5))}
    pats = list(prof_by)
    for i in range(18):
        g = gnp_sample(7, 0.5, Seed(306, i))
        F = pats[i % 3]
        prof = prof_by[F]
        mine = set(base_graph(prof, g).edges)
        ref = naive_base_graph_pairs(F, prof.nearly_bipartite_witness, g)
        assert mine == ref, (i, F)
        if g.num_edges() >= 1:
            sub = g.without_edges([g.edges[0]])
            assert set(base_graph(prof, sub).edges) <= mine


def test_check_T_and_search():
    prof = classify(K3)
    k6 = complete_graph(6)
    rec = check_T(prof, k6, k6, 1, 1e-9)
    assert rec["basegraph_copies"] == 20 and rec["passes"] and not rec["vacuous"]
    sparse = Graph(6, [(0, 1)])
    rec = check_T(prof, k6, sparse, Fraction(1, 2), 1e-9)
    assert rec["vacuous"] and rec["passes"]
    with pytest.raises(ValueError):
        check_T(prof, k6, complete_graph(7), 1, 1e-9)
    rec = adversarial_T_search(prof, k6, 0.9, 1e-9, budget=60, seed=Seed(7))
    assert rec["basegraph_copies"] >= 1  # K6 at 90% density still completes copies
    # the count is the size of the basegraph's copy family
    G = gnp_sample(9, 0.6, Seed(9300, 0))
    for p, host, Gp in ((prof, k6, k6), (prof, k6, sparse), (classify(cycle_graph(5)), G, G)):
        assert check_T(p, host, Gp, Fraction(1, 2), 1e-9)["basegraph_copies"] == len(
            enumerate_copies(p.pattern, base_graph(p, Gp)))
    # lambda is a density floor in (0, 1] and eta a positive copy rate,
    # checked alike with and without a given subgraph
    for lam, eta, name in ((-1, 0.1, "lambda"), (0, 0.1, "lambda"), (2, 0.1, "lambda"),
                           (Fraction(3, 2), 0.1, "lambda"), (1, 0, "eta"), (1, -1, "eta")):
        with pytest.raises(ValueError, match=name):
            check_T(prof, k6, k6, lam, eta)
        with pytest.raises(ValueError, match=name):
            adversarial_T_search(prof, k6, lam, eta, budget=10, seed=Seed(7))


def test_adversarial_T_search_swaps_lower_the_count():
    # a budget of 1 evaluates only the random start; a budget of 20 stays
    # inside its first round of at most 8 x 8 swaps, so every copy it saves
    # is saved by an improving swap
    prof = classify(K3)
    G = gnp_sample(9, 0.6, Seed(9300, 0))
    assert G.num_edges() == 25
    start, swapped = (adversarial_T_search(prof, G, Fraction(1, 2), 1e-9, budget=b,
                                           seed=Seed(9400, 0)) for b in (1, 20))
    assert (start["basegraph_copies"], swapped["basegraph_copies"]) == (20, 12)
    worst = swapped["worst_subgraph"]
    assert worst.num_edges() == 13 and set(worst.edges) <= set(G.edges)
    assert swapped["meets_density_floor"] and swapped["passes"]


def test_rho_d_dense():
    assert rho_d_dense_check(complete_graph(8), 0.5, 1.0)["dense"]
    r = rho_d_dense_check(empty_graph(8), 0.5, 0.1)
    assert not r["dense"] and len(r["witness"]["W"]) >= 4
    r = rho_d_dense_check(cycle_graph(6), 0.5, 0.9)
    assert not r["dense"]
    W = r["witness"]["W"]
    assert len(W) >= 3 and r["witness"]["edges"] / r["witness"]["pairs"] < 0.9
    with pytest.raises(ValueError):
        rho_d_dense_check(complete_graph(21), 0.5, 0.5)


def test_rho_d_dense_refuses_what_it_cannot_run():
    C6 = cycle_graph(6)
    for rho in (2, 0, -1, float("nan")):
        with pytest.raises(ValueError, match=r"rho must lie in \(0, 1\]"):
            rho_d_dense_check(C6, rho, 0.5)
    # d = -1 answered "dense" on the empty graph, and NaN raised from Fraction
    for d in (-1, 1.5, float("nan"), float("inf"), float("-inf")):
        for G in (C6, empty_graph(6), empty_graph(1)):
            with pytest.raises(ValueError, match=re.escape(f"d must lie in [0, 1], got {d}")):
                rho_d_dense_check(G, 0.5, d)
    # one vertex holds no set of two or more: dense, with no witness
    assert rho_d_dense_check(empty_graph(1), 0.5, 0.5) == {
        "dense": True, "mode": "exact", "witness": None}


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(st.integers(1, 10), st.sampled_from([0.2, 0.5, 0.8]), st.integers(0, 10**6),
       st.sampled_from([Fraction(1, 10), Fraction(1, 3), 0.5, Fraction(7, 10), 1]),
       st.sampled_from([0, Fraction(1, 4), Fraction(1, 3), 0.5, Fraction(2, 3), 1]))
def test_rho_d_dense_matches_the_naive_scan(n, q, stream, rho, d):
    _check_rho_d_dense(gnp_sample(n, q, Seed(8100, stream)), rho, d)


def _check_rho_d_dense(G, rho, d):
    """The flag matches the oracle, and the witness is a large enough W
    whose own edge count attains the oracle's least gap e(W) - d * C(|W|, 2)."""
    dense, least = naive_rho_d_dense(G, rho, d)
    r = rho_d_dense_check(G, rho, d)
    assert r["dense"] is dense and r["mode"] == "exact"
    if least is None:
        assert r["witness"] is None
        return
    W, edges, pairs = r["witness"]["W"], r["witness"]["edges"], r["witness"]["pairs"]
    assert W == sorted(set(W)) and len(W) >= max(ceil(Fraction(rho) * G.n), 2)
    assert edges == naive_edge_counts(G, W) and pairs == comb(len(W), 2)
    assert edges - Fraction(d) * pairs == least


def test_a_pattern_larger_than_its_host_has_no_copies():
    # K11 is above the pattern cap too: a pattern that does not fit has no
    # copies before any cap applies
    for F, G in ((complete_graph(4), K3), (complete_graph(5), complete_graph(4)),
                 (complete_graph(11), complete_graph(5))):
        assert _id_array(G, F).tolist() == []
        assert is_f_free([0] * G.num_edges(), G, F) == (True, None)
        assert decide_arrow(G, F).verdict == "not_arrows"
        assert len(_sorted_copies(F, G.adj)[0]) == 0 and _anchored_copies(F, G.adj, [(0, 1)]) == []
        assert len(enumerate_copies(F, G)) == len(enumerate_copies(F, G, anchor=(0, 1))) == 0
        assert janson_bound(enumerate_copies(F, G), Fraction(1, 2))["empty"]
    for F, G in ((complete_graph(4), K3), (complete_graph(5), complete_graph(4))):
        assert count_f_minus(F, G) == count_f_minus_through(F, G, (0, 1)) == 0
    C5 = cycle_graph(5)  # nearly bipartite, so it has a basegraph
    K4 = complete_graph(4)
    assert check_T(classify(C5), K4, K4, 1, Fraction(1, 100))["basegraph_copies"] == 0


def test_every_cap_error_has_one_text():
    F = complete_graph(11)
    with pytest.raises(ValueError) as classified:
        classify(F)
    for query in (lambda: enumerate_copies(F, complete_graph(12)),
                  lambda: _id_array(complete_graph(12), F)):
        with pytest.raises(ValueError) as counted:
            query()
        assert str(counted.value) == str(classified.value) == (
            "pattern has 11 vertices, above the cap of 10")


def test_pattern_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        enumerate_copies(complete_graph(11), complete_graph(12))


def test_rho_d_dense_matches_subset_enumeration():
    for i in range(10):
        g = gnp_sample(7, 0.5, Seed(411, i))
        for rho, d in ((0.4, 0.6), (0.5, 0.5)):
            _check_rho_d_dense(g, rho, d)


def test_adversarial_search_finds_exhaustive_minimum():
    from itertools import combinations

    prof = classify(K3)
    k6 = complete_graph(6)
    lam = 0.9  # floor is 14 of 15 edges: only 15 candidate subgraphs
    best = None
    for drop in range(15):
        gp = Graph(6, [e for j, e in enumerate(k6.edges) if j != drop])
        copies = len(enumerate_copies(K3, base_graph(prof, gp)))
        best = copies if best is None else min(best, copies)
    rec = adversarial_T_search(prof, k6, lam, 1e-9, budget=400, seed=Seed(13))
    assert rec["basegraph_copies"] == best
