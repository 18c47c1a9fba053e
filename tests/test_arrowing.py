import pytest

from ramseylab.arrowing import (
    brute_force_arrow,
    cnf_export,
    decide_arrow,
    decide_arrow_union,
    enumerate_f_free_colorings,
    first_f_free_coloring,
    is_f_free,
)
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    empty_graph,
    gnp_sample,
)

K3 = complete_graph(3)


def test_is_f_free():
    ok, copy = is_f_free([0, 0, 0], complete_graph(3), K3)
    assert not ok and copy.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    g = cycle_graph(5)
    ok, _ = is_f_free([0, 1, 0, 1, 0], g, K3)
    assert ok  # triangle-free host
    with pytest.raises(ValueError):
        is_f_free([0], complete_graph(3), K3)


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
    assert res.stats["copies_in_base"] == 10
    assert res.stats["copies_in_addition"] == 0
    assert res.stats["copies_mixed"] == 10
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


def test_multicolour_smoke():
    assert decide_arrow(complete_graph(6), K3, colours=3).verdict == "not_arrows"
    assert decide_arrow(complete_graph(3), K3, colours=3).verdict == "not_arrows"


def test_cnf_export_shape():
    g = complete_graph(3)
    text = cnf_export(g, K3)
    lines = text.strip().splitlines()
    assert lines[0] == "p cnf 3 2"
    assert lines[1] == "1 2 3 0"
    assert lines[2] == "-1 -2 -3 0"
