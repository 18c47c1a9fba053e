import json
import re
from itertools import combinations

import pytest

from ramseylab import regularity
from ramseylab.graphs import Graph, Seed, complete_graph, cycle_graph, empty_graph, gnp_sample, path_graph
from ramseylab.regularity import (
    counting_lemma_check,
    fstar_overlap_count,
    is_eps_p_regular,
    pair_density,
    reduced_graph,
)

from oracles import naive_fstar_overlap


def bipartite_host(nx, ny, p, seed):
    rng = seed.generator()
    edges = [(i, nx + j) for i in range(nx) for j in range(ny) if rng.random() < p]
    return Graph(nx + ny, edges)


def test_pair_density_fixtures():
    k4 = complete_graph(4)
    assert pair_density(k4, 0.5, [0, 1], [2, 3]) == 2.0
    assert pair_density(empty_graph(4), 0.7, [0, 1], [2, 3]) == 0.0
    full = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    assert pair_density(full, 1.0, [0, 1], [2, 3]) == 1.0
    with pytest.raises(ValueError):
        pair_density(k4, 0.0, [0], [1])
    with pytest.raises(ValueError):
        pair_density(k4, 0.5, [0, 1], [1, 2])


def test_density_scales_inversely_in_p():
    g = bipartite_host(5, 5, 0.6, Seed(21))
    X, Y = list(range(5)), list(range(5, 10))
    assert pair_density(g, 0.25, X, Y) * 0.25 == pytest.approx(pair_density(g, 1.0, X, Y) * 1.0)


def test_regular_fixtures():
    full = Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
    assert is_eps_p_regular(full, 1.0, range(4), range(4, 8), 0.2)["regular"]
    assert is_eps_p_regular(empty_graph(8), 0.5, range(4), range(4, 8), 0.05)["regular"]
    # half-dense, half-empty: irregular at eps = 0.3 with a witness
    H = Graph(16, [(i, j) for i in range(4) for j in range(8, 16)])
    r = is_eps_p_regular(H, 1.0, list(range(8)), list(range(8, 16)), 0.3)
    assert r["regular"] is False
    assert r["worst_deviation"] >= 0.3


def test_exact_matches_naive_all_pairs():
    def naive_dev(H, p, X, Y, eps):
        from math import ceil

        base = pair_density(H, p, X, Y)
        worst = 0.0
        for kx in range(max(1, ceil(eps * len(X))), len(X) + 1):
            for Xp in combinations(X, kx):
                for ky in range(max(1, ceil(eps * len(Y))), len(Y) + 1):
                    for Yp in combinations(Y, ky):
                        worst = max(worst, abs(base - pair_density(H, p, Xp, Yp)))
        return worst

    for i in range(6):
        g = bipartite_host(5, 4, 0.5, Seed(22, i))
        X, Y = list(range(5)), list(range(5, 9))
        for eps in (0.25, 0.4):
            mine = is_eps_p_regular(g, 0.5, X, Y, eps)["worst_deviation"]
            assert mine == pytest.approx(naive_dev(g, 0.5, X, Y, eps))


def test_regularity_monotone_in_eps():
    for i in range(8):
        g = bipartite_host(6, 6, 0.5, Seed(23, i))
        X, Y = list(range(6)), list(range(6, 12))
        verdicts = [
            is_eps_p_regular(g, 0.5, X, Y, eps)["regular"] for eps in (0.2, 0.35, 0.5, 0.7)
        ]
        for a, b in zip(verdicts, verdicts[1:]):
            assert not (a and not b)


def test_sampled_mode_is_refuter_only():
    H = Graph(16, [(i, j) for i in range(4) for j in range(8, 16)])
    r = is_eps_p_regular(H, 1.0, list(range(8)), list(range(8, 16)), 0.3,
                         mode="sampled", seed=Seed(9), samples=300)
    assert r["regular"] is False  # easy violation found by sampling
    full = Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
    r = is_eps_p_regular(full, 1.0, range(4), range(4, 8), 0.2,
                         mode="sampled", seed=Seed(9), samples=100)
    assert r["regular"] is None and r["note"] == "no violation found"


def test_reduced_graph():
    cls = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    cm = Graph(9, [(u, v) for a, b in combinations(range(3), 2)
                   for u in cls[a] for v in cls[b]])
    rg = reduced_graph(cm, 1.0, cls, 0.5, 0.25)
    assert sorted(rg.edges) == [(0, 1), (0, 2), (1, 2)]
    assert reduced_graph(empty_graph(9), 1.0, cls, 0.5, 0.25).edges == []
    # one dense-regular pair only
    g = Graph(9, [(u, v) for u in cls[0] for v in cls[1]])
    rg = reduced_graph(g, 1.0, cls, 0.5, 0.25)
    assert rg.edges == [(0, 1)]
    # density floor excludes regular-but-sparse pairs
    rg = reduced_graph(g, 1.0, cls, 1.5, 0.25)
    assert rg.edges == []
    with pytest.raises(ValueError):
        reduced_graph(g, 1.0, [[0, 1], [1, 2]], 0.5, 0.25)


def test_reduced_graph_samples_each_pair_on_its_own_stream(monkeypatch):
    cls = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]  # equal sizes: one shared stream would draw alike
    g = gnp_sample(9, 0.5, Seed(4))
    seeds = []

    def recording(*args, seed, **kwargs):
        seeds.append(seed)
        return is_eps_p_regular(*args, seed=seed, **kwargs)

    monkeypatch.setattr(regularity, "is_eps_p_regular", recording)
    rg = reduced_graph(g, 0.5, cls, 0.5, 0.4, mode="sampled", seed=Seed(6))
    assert seeds == [Seed(6, i, j) for i, j in combinations(range(3), 2)]
    for (i, j), rep in rg.pair_reports.items():
        direct = is_eps_p_regular(g, 0.5, cls[i], cls[j], 0.4, mode="sampled",
                                  seed=Seed(6).substream(i).substream(j))
        assert rep == {"regular": direct["regular"], "density": direct["base_density"]}


def test_counting_lemma_fixtures():
    full = Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
    r = counting_lemma_check(path_graph(2), [0, 1], full,
                             [[0, 1, 2, 3], [4, 5, 6, 7]], 1.0, 1.0)
    assert r["partite_copies"] == 16 and r["ratio"] >= 1
    cls4 = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
    host = Graph(12, [(u, v) for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)]
                      for u in cls4[a] for v in cls4[b]])
    r = counting_lemma_check(cycle_graph(4), [0, 1, 2, 3], host, cls4, 1.0, 1.0)
    assert r["partite_copies"] == 3**4
    r = counting_lemma_check(path_graph(2), [0, 1], empty_graph(8),
                             [[0, 1, 2, 3], [4, 5, 6, 7]], 1.0, 1.0)
    assert r["partite_copies"] == 0 and not r["passes"]
    with pytest.raises(ValueError):
        counting_lemma_check(path_graph(2), [0, 0], full,
                             [[0, 1, 2, 3], [4, 5, 6, 7]], 1.0, 1.0)
    # the partitions reduced_graph refuses: a vertex outside the host,
    # classes that share a vertex, and an empty class (whose bound is 0)
    K6 = complete_graph(6)
    for partition, message in (([[0, 1], [2, 9]], "partition vertex 9 is not a vertex id"),
                               ([[0, 1], [1, 2]], "partition classes overlap"),
                               ([[0, 1], []], "partition class 1 is empty"),
                               ([[], [0, 1]], "partition class 0 is empty"),
                               ([[0, 1], [2, 2.0]], "partition vertex 2.0"),
                               ([[0, 1], [2, True]], "partition vertex True")):
        with pytest.raises(ValueError, match=message):
            counting_lemma_check(path_graph(2), [0, 1], K6, partition, 0.5, 0.1)
        with pytest.raises(ValueError, match=message):
            reduced_graph(K6, 0.5, partition, 0.1, 0.5)
    # classes_of names one class index per pattern vertex
    for classes_of in ([0], [0, 1, 1], [0, 2], [0, 1.0], [False, 1]):
        with pytest.raises(ValueError, match="classes_of must name a class in 0..1"):
            counting_lemma_check(path_graph(2), classes_of, K6, [[0, 1], [2, 3]],
                                 0.5, 0.1)


def test_counting_lemma_refuses_a_bound_that_is_not_positive():
    # a bound of 0 or below passed whatever the count, and d and eps, which
    # the check never read, are no parameters any more
    K6 = complete_graph(6)
    # p is an edge density: above 1 its power overflowed (p = 1e200)
    for p in (0.0, -1.0, float("nan"), float("inf"), 1.5, 1e200):
        with pytest.raises(ValueError, match=re.escape(f"p must lie in (0, 1], got {p}")):
            counting_lemma_check(path_graph(2), [0, 1], K6, [[0, 1], [2, 3]], p, 0.1)
    for xi in (-0.1, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=f"xi must be a finite positive number, got {xi}"):
            counting_lemma_check(path_graph(2), [0, 1], K6, [[0, 1], [2, 3]], 0.5, xi)
    # a positive p whose power underflows would give the same bound of 0
    with pytest.raises(ValueError, match="underflows to 0 at p = 1e-120"):
        counting_lemma_check(complete_graph(3), [0, 1, 2], K6, [[0, 1], [2, 3], [4, 5]],
                             1e-120, 0.5)
    r = counting_lemma_check(path_graph(2), [0, 1], K6, [[0, 1], [2, 3]], 0.5, 0.1)
    assert r["partite_copies"] == 4 and r["bound"] == pytest.approx(0.2) and r["passes"]


def test_sampled_regularity_needs_a_sample():
    K6 = complete_graph(6)
    for samples in (0, -1):
        with pytest.raises(ValueError, match=f"samples must be >= 1, got {samples}"):
            is_eps_p_regular(K6, 0.5, [0, 1], [2, 3], 0.5, mode="sampled", samples=samples)
    r = is_eps_p_regular(K6, 0.5, [0, 1], [2, 3], 0.5, mode="sampled", samples=1)
    assert r["regular"] is None and r["worst_deviation"] == 0.0


def test_counting_lemma_matches_naive_homomorphisms():
    from itertools import product

    cls = [[0, 1, 2], [3, 4], [5, 6]]
    F = path_graph(3)
    for i in range(8):
        g = gnp_sample(7, 0.5, Seed(24, i))
        mine = counting_lemma_check(F, [0, 1, 2], g, cls, 0.5, 0.5)
        count = 0
        for xs in product(cls[0], cls[1], cls[2]):
            if g.has_edge(xs[0], xs[1]) and g.has_edge(xs[1], xs[2]):
                count += 1
        assert mine["partite_copies"] == count


def test_fstar_overlap():
    p3 = path_graph(3)
    r = fstar_overlap_count(p3, 0, 2, p3, [0, 2])
    assert r["count"] == 1
    # a plain record: bound 2 n^(v-2) |W|^2 p^e = 24 p^2 for P3 on 3 vertices
    assert json.loads(json.dumps(r)) == {"count": 1, "bound_coefficient": 24,
                                         "bound_p_exponent": 2}
    assert fstar_overlap_count(p3, 0, 2, p3, [])["count"] == 0
    with pytest.raises(ValueError):
        fstar_overlap_count(p3, 0, 1, p3, [0, 1])
    with pytest.raises(ValueError):
        fstar_overlap_count(p3, 0, 0, p3, [0, 1])
    # W holds vertex ids of the host; none is dropped while the bound counts
    # it.  The paths between 0 and 1 through a middle vertex outside W: 4
    k6 = complete_graph(6)
    for W in ([0, 1, 99], [0, -1], [0, 1.0], [True, 2]):
        with pytest.raises(ValueError, match="W vertex .* is not a vertex id in 0..5"):
            fstar_overlap_count(p3, 0, 2, k6, W)
    assert fstar_overlap_count(p3, 0, 2, k6, [0, 1]) == {
        "count": 4, "bound_coefficient": 2 * 6 * 2**2, "bound_p_exponent": 2}
    # the marked vertices are vertex ids of the pattern
    for a1, a2 in ((0, 3), (-1, 2), (0.0, 2), (0, True)):
        with pytest.raises(ValueError, match="marked vertex .* is not a vertex id in 0..2"):
            fstar_overlap_count(p3, a1, a2, k6, [0, 1])
    # random agreement with the oracle
    fstar = Graph(4, [(0, 1), (1, 2), (2, 3)])  # P4, mark its endpoints
    for i in range(15):
        g = gnp_sample(7, 0.5, Seed(25, i))
        W = [0, 2, 4]
        assert fstar_overlap_count(fstar, 0, 3, g, W)["count"] == \
            naive_fstar_overlap(fstar, 0, 3, g, W)
