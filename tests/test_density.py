from fractions import Fraction
from itertools import combinations

import pytest

from ramseylab.density import (
    PATTERN_VERTEX_CAP,
    booster_admissible,
    classify,
    d2,
    edge_density,
    m2,
    mad,
    rooted_density,
)
from ramseylab.graphs import Graph, Seed, complete_graph, cycle_graph, gnp_sample, path_graph

from oracles import naive_m2_all_subgraphs, naive_strictly_balanced


def test_d2_fixtures():
    assert d2(complete_graph(2)) == 1
    assert d2(complete_graph(3)) == 2
    assert d2(cycle_graph(5)) == Fraction(4, 3)
    with pytest.raises(ValueError):
        d2(Graph(3, []))


def test_m2_cycles_and_cliques():
    for k in range(3, 9):
        val, (vs, es) = m2(cycle_graph(k))
        assert val == Fraction(k - 1, k - 2)
        assert len(vs) == k and len(es) == k  # witness is the cycle itself
    assert m2(complete_graph(2))[0] == 1
    assert m2(complete_graph(3))[0] == 2
    assert m2(complete_graph(4))[0] == Fraction(5, 2)


def test_m2_is_computed_once_per_pattern():
    # the memo answers an equal pattern with the same record; a refusal is
    # not memoised, so it is raised on every call
    assert m2(complete_graph(3)) is m2(complete_graph(3))
    assert m2(cycle_graph(4)) is m2(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
    for _ in range(2):
        with pytest.raises(ValueError, match="edgeless"):
            m2(Graph(3, []))


def test_m2_matches_full_subgraph_enumeration():
    for i in range(40):
        g = gnp_sample(6, 0.55, Seed(101, i))
        if g.num_edges() == 0:
            continue
        assert m2(g)[0] == naive_m2_all_subgraphs(g)
    g7 = gnp_sample(7, 0.5, Seed(101, 999))
    assert m2(g7)[0] == naive_m2_all_subgraphs(g7)


def test_m2_monotone_under_subgraphs():
    g = gnp_sample(7, 0.6, Seed(55))
    base = m2(g)[0]
    for e in list(g.edges)[:6]:
        sub = g.without_edges([e])
        if sub.num_edges() >= 1:
            assert m2(sub)[0] <= base


def test_classify_fixtures():
    c5 = classify(cycle_graph(5))
    assert c5.strictly_balanced and c5.nearly_bipartite
    assert c5.threshold_exponent == Fraction(3, 4)
    k4 = classify(complete_graph(4))
    assert k4.strictly_balanced and not k4.nearly_bipartite
    k2 = classify(complete_graph(2))
    assert not k2.nearly_bipartite  # the definition requires two edges
    # near-bipartite witness is the lexicographically first edge
    assert c5.nearly_bipartite_witness == (0, 1)
    # bipartite patterns with >= 2 edges are nearly bipartite
    assert classify(cycle_graph(4)).nearly_bipartite
    assert classify(path_graph(3)).nearly_bipartite
    with pytest.raises(ValueError, match="classify needs at least one edge"):
        classify(Graph(3, []))


def test_classify_and_mad_witnesses_are_first_maximisers():
    # the witness is the first vertex set of largest d2, taking the fewest
    # vertices and then the lexicographically smallest set
    for n in range(2, 8):
        for i in range(12):
            g = gnp_sample(n, 0.5, Seed(303, n, i))
            if g.num_edges() == 0:
                continue
            best = None
            for k in range(2, n + 1):
                for S in combinations(range(n), k):
                    e = sum(1 for u, v in g.edges if u in S and v in S)
                    if e:
                        val = Fraction(1) if k == 2 else Fraction(e - 1, k - 2)
                        if best is None or val > best[0]:
                            best = (val, S)
            prof = classify(g)
            assert (prof.m2, prof.witness_vertices) == best, (n, i)
            for R in ((0,), (0, 1)):
                if len(R) < n:  # mad's witness is found the same way
                    rest = [v for v in range(n) if v not in R]
                    naive = max(((rooted_density(list(R), _induced(g, R + S)), -len(S), S)
                                 for k in range(1, len(rest) + 1)
                                 for S in combinations(rest, k)),
                                key=lambda t: t[:2])
                    assert mad(list(R), g) == (naive[0], tuple(sorted(R + naive[2]))), (n, i, R)


def _induced(g, vs):
    """The subgraph of g induced on `vs`, relabelled to 0.. in `vs` order."""
    pos = {v: i for i, v in enumerate(vs)}
    return Graph(len(vs), [(pos[u], pos[v]) for u, v in g.edges if u in pos and v in pos])


def test_strictly_balanced_matches_naive():
    for i in range(40):
        g = gnp_sample(6, 0.6, Seed(202, i))
        if g.num_edges() == 0:
            continue
        assert classify(g).strictly_balanced == naive_strictly_balanced(g)


def test_strict_nearly_bipartite_implies_m2_above_one():
    for g in (cycle_graph(3), cycle_graph(4), cycle_graph(7)):
        prof = classify(g)
        assert prof.strictly_balanced and prof.nearly_bipartite
        assert prof.m2 > 1


def test_threshold_exponent_identity():
    for g in (complete_graph(3), cycle_graph(6), complete_graph(5)):
        prof = classify(g)
        assert prof.threshold_exponent == 1 / prof.m2


def test_pattern_cap():
    with pytest.raises(ValueError):
        m2(complete_graph(PATTERN_VERTEX_CAP + 1))


def test_edge_density_and_booster_admissibility():
    assert edge_density(complete_graph(4)) == Fraction(3, 2)
    assert booster_admissible(cycle_graph(5), complete_graph(3))
    assert not booster_admissible(complete_graph(6), complete_graph(3))


def test_rooted_density_examples():
    c4 = cycle_graph(4)
    assert rooted_density([0, 2], c4) == 2
    assert rooted_density([0, 1], c4) == Fraction(3, 2)
    k3e = complete_graph(3).without_edges([(0, 1)])
    assert rooted_density([0, 1], k3e) == 2
    assert mad([0, 1], k3e) == (2, (0, 1, 2))
    with pytest.raises(ValueError):
        rooted_density([0, 1, 2, 3], c4)


def test_mad_rejects_roots_outside_the_graph():
    c4 = cycle_graph(4)
    # an id is an integer, not a float or a bool
    for roots in ([0, 9], [4], [-1], [0, -2], [0.5], [True, 2]):
        for f in (rooted_density, mad):
            with pytest.raises(ValueError, match="root .* is not a vertex id in 0..3"):
                f(roots, c4)
    with pytest.raises(ValueError, match="root 0 is repeated"):
        mad([0, 0], c4)


def test_mad_chain_for_cycles():
    # inequality behind the per-edge copy bound: for a strictly balanced F,
    # rooting a one-edge-deleted F at any of its remaining edges keeps the
    # maximal rooted density below m2(F)
    for k in range(3, 9):
        F = cycle_graph(k)
        m2val = m2(F)[0]
        for removed in F.edges:
            F_minus = F.without_edges([removed])
            for root_edge in F_minus.edges:
                val, _ = mad(list(root_edge), F_minus)
                assert val < m2val, (k, removed, root_edge, val, m2val)
