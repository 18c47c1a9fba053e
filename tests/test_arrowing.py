from itertools import combinations, islice, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylab import arrowing
from ramseylab.arrowing import (
    BRUTE_FORCE_EDGE_CAP,
    CLIQUE_CAP,
    _clique_colouring,
    _ramsey_clique,
    brute_force_arrow,
    cnf_export,
    decide_arrow,
    decide_arrow_union,
    enumerate_f_free_colorings,
    first_f_free_coloring,
    is_f_free,
)
from ramseylab.counting import _holds_copy
from ramseylab.density import is_bipartite
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_sample,
    path_graph,
    pattern_by_name,
    union,
)
from oracles import check_pulled_back

K3 = complete_graph(3)


def test_is_f_free():
    ok, copy = is_f_free([0, 0, 0], complete_graph(3), K3)
    assert not ok and copy.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    g = cycle_graph(5)
    ok, _ = is_f_free([0, 1, 0, 1, 0], g, K3)
    assert ok  # triangle-free host
    with pytest.raises(ValueError):
        is_f_free([0], complete_graph(3), K3)
    # a copy with no edge shows at most one colour, so it is monochromatic,
    # as the NAE system and the oracle count it
    hosts = [complete_graph(1), complete_graph(2), complete_graph(3), Graph(3, [(0, 1)])]
    verdicts = set()
    for F in (path_graph(1), empty_graph(2)):
        for G in hosts:
            verdicts.add(free := brute_force_arrow(G, F).verdict == "not_arrows")
            for coloring in product((0, 1), repeat=G.num_edges()):
                assert is_f_free(list(coloring), G, F)[0] == free
    assert verdicts == {True, False}
    ok, copy = is_f_free([0, 0, 0], K3, path_graph(1))
    assert not ok and copy.edges == frozenset()


def test_two_five_cycles_colouring():
    k5 = complete_graph(5)
    outer = {(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)}
    col = [0 if e in outer else 1 for e in k5.edges]
    ok, _ = is_f_free(col, k5, K3)
    assert ok


def test_classical_ramsey_facts():
    assert decide_arrow(complete_graph(5), K3).verdict == "not_arrows"
    assert decide_arrow(complete_graph(6), K3).verdict == "arrows"
    assert brute_force_arrow(complete_graph(5), K3).verdict == "not_arrows"
    assert brute_force_arrow(complete_graph(6), K3).verdict == "arrows"
    # smallest complete graph arrowing the triangle is exactly K6
    assert min(n for n in range(3, 7) if decide_arrow(complete_graph(n), K3).arrows) == 6


def test_ramsey_clique_is_the_diagonal_ramsey_number():
    # R(K3, K3) = 6 (Greenwood and Gleason 1955), R(C4, C4) = 6 (Chvátal and
    # Harary 1972), R(P_k, P_k) = k + floor(k/2) - 1 (Gerencsér and Gyárfás
    # 1967); R(C5, C5) = 9, R(C6, C6) = R(P6, P6) = 8, R(K4, K4) = 18 and
    # R(K4-e, K4-e) = 10 lie beyond the cap of 7
    expected = {"K2": 2, "P3": 3, "P4": 5, "P5": 6, "K3": 6, "C4": 6,
                "C5": None, "C6": None, "P6": None, "K4": None, "K4-e": None}
    for name, r in expected.items():
        F = pattern_by_name(name)
        assert _ramsey_clique(F) == (None if r is None else complete_graph(r)), name
        # every complete-graph verdict the helper reads, against the oracle
        for k in range(F.n, (r or CLIQUE_CAP) + 1):
            verdict = "arrows" if k == r else "not_arrows"
            assert decide_arrow(complete_graph(k), F).verdict == verdict, (name, k)
            assert brute_force_arrow(complete_graph(k), F).verdict == verdict, (name, k)


def test_ramsey_clique_is_solved_privately(monkeypatch):
    # the once-per-pattern solves never pass through the public decide_arrow
    def refuse(*args, **kwargs):
        raise AssertionError("_ramsey_clique called decide_arrow")

    _ramsey_clique.cache_clear()
    monkeypatch.setattr(arrowing, "decide_arrow", refuse)
    try:
        K6 = complete_graph(6)
        expected = {"K2": complete_graph(2), "P3": complete_graph(3), "K3": K6, "C4": K6,
                    "C5": None, "K4": None}
        for name, clique in expected.items():
            assert _ramsey_clique(pattern_by_name(name)) == clique, name
    finally:
        _ramsey_clique.cache_clear()


def test_hosts_without_k6_that_arrow():
    """Exact laws where arrowing is not K6 containment: K8 - C5 (= K3 + C5,
    Graham 1968) arrows K3 and holds no K6, and none of its 23 one-edge
    deletions arrows; K7 minus a triangle and K7 minus two disjoint edges
    arrow C4 and hold no K6.  A verdict read off K6 containment alone
    fails this test."""
    K6 = complete_graph(6)
    G = complete_graph(8).without_edges(cycle_graph(5).edges)
    assert G.num_edges() == 23 and _holds_copy(K6, G.adj) is None
    assert decide_arrow(G, K3).verdict == brute_force_arrow(G, K3).verdict == "arrows"
    for e in G.edges:
        H = G.without_edges([e])
        res = decide_arrow(H, K3)
        assert res.verdict == "not_arrows" and is_f_free(res.certificate, H, K3)[0], e
    C4 = cycle_graph(4)
    for removed in ([(0, 1), (0, 2), (1, 2)], [(0, 1), (2, 3)]):
        H = complete_graph(7).without_edges(removed)
        assert _holds_copy(K6, H.adj) is None
        assert decide_arrow(H, C4).verdict == "arrows", removed


@st.composite
def coloured_hosts(draw):
    """K2 or K3 and a host on at most 9 vertices with at most
    BRUTE_FORCE_EDGE_CAP edges, so that the oracle decides it; the edge
    count is drawn first, so that dense hosts are as likely as sparse ones."""
    F = draw(st.sampled_from([complete_graph(2), K3]))
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    m = draw(st.integers(0, min(len(pairs), BRUTE_FORCE_EDGE_CAP)))
    return F, Graph(n, draw(st.permutations(pairs))[:m])


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(coloured_hosts())
@example((K3, complete_graph(5)))
@example((K3, complete_graph(6)))
@example((complete_graph(2), empty_graph(4)))
def test_clique_colouring_proves_not_arrows(case):
    # an answer is a proper colouring in r - 1 colours whose pull-back from
    # K_{r-1} is F-free, and the oracle agrees; the pass never misses a
    # bipartite host for K3, and for K2 it answers exactly the edgeless hosts
    F, G = case
    colour = _clique_colouring(F, G.adj)
    if colour is not None:
        check_pulled_back(colour, G.adj, F)
        assert brute_force_arrow(G, F).verdict == "not_arrows"
    if F == K3 and is_bipartite(G)[0]:
        assert colour is not None
    if F.n == 2:
        assert (colour is not None) == (G.num_edges() == 0)


def test_clique_colouring_answers_only_complete_patterns_with_a_ramsey_clique():
    # C4, C5, P3 and K3 + K1 are not complete, and K4's Ramsey clique lies
    # beyond the cap: even a host that a greedy pass colours is left alone
    hosts = [empty_graph(6), path_graph(5), complete_graph(5), cycle_graph(7), complete_graph(8)]
    hosts += [gnp_sample(12, 0.4, Seed(402, i)) for i in range(10)]
    patterns = [pattern_by_name(x) for x in ("C4", "C5", "P3", "K4", "K4-e")]
    for F in patterns + [Graph(4, K3.edges)]:
        for G in hosts:
            assert _clique_colouring(F, G.adj) is None, (F, G)


def test_clique_colouring_pinned_hosts():
    # K5 takes five colours, and its pull-back is F-free; K6
    # and Graham's K8 - C5 (chromatic number 6; it arrows K3) are not; an
    # edgeless host takes one colour for K2, and one edge ends that
    assert _clique_colouring(K3, complete_graph(5).adj) == [0, 1, 2, 3, 4]
    check_pulled_back([0, 1, 2, 3, 4], complete_graph(5).adj, K3)
    graham = complete_graph(8).without_edges(cycle_graph(5).edges)
    for G in (complete_graph(6), graham):
        assert _clique_colouring(K3, G.adj) is None
        assert _clique_colouring(complete_graph(2), G.adj) is None
    assert decide_arrow(graham, K3).verdict == "arrows"
    assert _clique_colouring(complete_graph(2), empty_graph(3).adj) == [0, 0, 0]
    assert _clique_colouring(complete_graph(2), Graph(3, [(0, 2)]).adj) is None


def test_hosts_on_8_vertices_arrow_k3_only_with_a_k6_or_as_k3_plus_c5():
    """On 8 vertices, a host arrows K3 exactly when it holds a K6 or is
    K3 + C5, whose complement is a C5 (Graham 1968).  A fixed stride of the
    hosts whose complement has 5 edges (every 97th of 98,280) or 6 edges
    (every 373rd of 376,740) is decided and checked against that rule."""
    K6, pairs = complete_graph(6), list(combinations(range(8), 2))
    seen = with_k6 = c5 = 0
    for k, stride in ((5, 97), (6, 373)):
        for removed in islice(combinations(pairs, k), 0, None, stride):
            H = complete_graph(8).without_edges(removed)
            holds_k6 = _holds_copy(K6, H.adj) is not None
            # edges on exactly five vertices, each of degree 2, form a C5
            is_c5 = sorted(sum(v in e for e in removed) for v in range(8)) == [0] * 3 + [2] * 5
            seen, with_k6, c5 = seen + 1, with_k6 + holds_k6, c5 + is_c5
            assert (decide_arrow(H, K3).verdict == "arrows") == (holds_k6 or is_c5), removed
    assert (seen, with_k6, c5) == (2025, 388, 6)


def test_no_copy_means_not_arrows():
    res = decide_arrow(empty_graph(5), cycle_graph(4))
    assert res.verdict == "not_arrows"
    assert res.stats["constraints"] == 0


def test_certificates_are_sound():
    for i in range(30):
        g = gnp_sample(8, 0.5, Seed(401, i))
        res = decide_arrow(g, K3)
        if res.verdict == "not_arrows":
            ok, _ = is_f_free(res.certificate, g, K3)
            assert ok


def test_oracle_agreement():
    for i in range(40):
        g = gnp_sample(8, 0.5, Seed(402, i))
        for F in (K3, cycle_graph(4)):
            assert decide_arrow(g, F).verdict == brute_force_arrow(g, F).verdict


def test_monotone_under_supergraphs():
    rng = Seed(403).generator()
    for i in range(6):
        g = gnp_sample(7, 0.55, Seed(404, i))
        res = decide_arrow(g, K3)
        non_edges = [
            (u, v)
            for u in range(7)
            for v in range(u + 1, 7)
            if not g.has_edge(u, v)
        ]
        rng.shuffle(non_edges)
        cur = g
        prev_arrows = res.arrows
        for e in non_edges[:4]:
            cur = Graph(cur.n, [*cur.edges, e])
            now = decide_arrow(cur, K3).arrows
            assert not (prev_arrows and not now)  # arrows is upward closed
            prev_arrows = now


def test_union_statistics():
    Z = Graph(6, complete_graph(5).edges)
    addition = Graph(6, [(i, 5) for i in range(5)])
    res = decide_arrow_union(Z, addition, K3)
    assert res.arrows
    assert res.stats == decide_arrow(union(Z, addition), K3).stats
    assert decide_arrow_union(empty_graph(4), empty_graph(4), K3).verdict == "not_arrows"


def test_budget_is_reported_distinctly():
    res = decide_arrow(complete_graph(6), K3, budget=2)
    assert res.verdict == "undecided"
    assert res.certificate is None


def test_budget_determinism():
    a = decide_arrow(complete_graph(6), K3, budget=7)
    b = decide_arrow(complete_graph(6), K3, budget=7)
    assert a.verdict == b.verdict and a.stats == b.stats


def test_brute_force_cap():
    with pytest.raises(ValueError):
        brute_force_arrow(complete_graph(9), K3)


def test_first_coloring_and_enumeration():
    k5 = complete_graph(5)
    first = first_f_free_coloring(k5, K3)
    ok, _ = is_f_free(first, k5, K3)
    assert ok
    sols = enumerate_f_free_colorings(k5, K3, limit=6)
    assert len(sols) == 6
    assert sols[0] != sols[1]
    for s in sols:
        ok, _ = is_f_free(s, k5, K3)
        assert ok
    assert first_f_free_coloring(complete_graph(6), K3) is None


def test_cnf_export_shape():
    g = complete_graph(3)
    text = cnf_export(g, K3)
    lines = text.strip().splitlines()
    assert lines[0] == "p cnf 3 2"
    assert lines[1] == "1 2 3 0"
    assert lines[2] == "-1 -2 -3 0"
