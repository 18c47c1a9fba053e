"""The single pattern-search core behind every embedding, extension and
partite-copy count, checked against independent oracles: the permutation
enumerators in tests/oracles.py and homomorphisms listed with
`itertools.product`.  The symmetry-broken copy search and the orbit
representatives behind P(e1, e2) are checked against the plain search and
the oracles."""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_copies, naive_extension_count, naive_fstar_overlap, naive_P

from ramseylab.counting import (
    _collect_copies,
    _orbit_embeddings,
    are_isomorphic,
    embeddings,
    enumerate_copies,
    enumerate_P,
    extension_count,
)
from ramseylab.graphs import Graph, path_graph, pattern_by_name
from ramseylab.regularity import counting_lemma_check, fstar_overlap_count

PATTERNS = [pattern_by_name(name) for name in ("K3", "C4", "P3", "K4-e")]
# automorphism groups from trivial-on-edges (isolated vertices) to S4
COPY_PATTERNS = [pattern_by_name(name) for name in ("K3", "C4", "C5", "K4", "K4-e")] + [
    Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),  # K2,3
    Graph(4, [(0, 1), (2, 3)]),  # 2K2
    Graph(5, [(0, 1), (1, 2)]),  # P3 and two isolated vertices
]

# fixed example sequence and no example database, so a run repeats exactly
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def hosts(draw, min_n=4, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    return Graph(n, [e for e in pairs if draw(st.booleans())])


def copy_set(family):
    return {(c.vertices, c.edges) for c in family.copies}


@PROPERTY
@given(hosts(), st.sampled_from(PATTERNS), st.integers(0, 10**6))
def test_copies_match_oracle(G, F, pick):
    expected = naive_copies(F, G)
    assert copy_set(enumerate_copies(F, G)) == expected
    if G.edges:
        e = G.edges[pick % len(G.edges)]
        assert copy_set(enumerate_copies(F, G, anchor=e)) == {
            (vs, es) for vs, es in expected if e in es}


def copy_key(F, m):
    return frozenset(m), frozenset(tuple(sorted((m[u], m[v]))) for u, v in F.edges)


@PROPERTY
@given(hosts(min_n=5), st.sampled_from(COPY_PATTERNS), st.data())
def test_symmetry_broken_copies_match_plain_search(G, F, data):
    family = enumerate_copies(F, G)
    # one map per copy: no copy twice and none missing
    keys = [copy_key(F, m) for m in _orbit_embeddings(F, G)]
    assert len(keys) == len(set(keys)) == len(family)
    # the same copies, each with the same witness map as the plain search
    assert family.copies == _collect_copies(F, G, embeddings(F, G))
    anchor = data.draw(st.sampled_from(list(combinations(range(G.n), 2))))
    assert copy_set(enumerate_copies(F, G, anchor=anchor)) == {
        (c.vertices, c.edges) for c in family.copies if anchor in c.edges}


@settings(PROPERTY, max_examples=40)
@given(hosts(max_n=7), st.sampled_from(PATTERNS), st.data())
def test_pair_family_matches_oracle(Z, F, data):
    # e1 and e2 range over edges and non-edges of Z alike
    e1, e2 = data.draw(st.lists(st.sampled_from(list(combinations(range(Z.n), 2))),
                                min_size=2, max_size=2, unique=True))
    found = {((tuple(sorted(c1.vertices)), tuple(sorted(c1.edges))),
              (tuple(sorted(c2.vertices)), tuple(sorted(c2.edges))), s)
             for c1, c2, s in enumerate_P(F, Z, e1, e2)}
    assert found == naive_P(F, Z, e1, e2)


@PROPERTY
@given(hosts(), st.sampled_from(PATTERNS), st.data())
def test_extension_count_matches_oracle(G, H, data):
    roots = data.draw(st.permutations(range(H.n)))[: data.draw(st.integers(1, H.n - 1))]
    host_roots = data.draw(st.permutations(range(G.n)))[: len(roots)]
    assert extension_count(roots, H, host_roots, G) == naive_extension_count(
        roots, H, host_roots, G)


def greedy_classes(F):
    """A proper colouring of the pattern: adjacent vertices get distinct classes."""
    classes = []
    for v in range(F.n):
        taken = {classes[u] for u in F.neighbours(v) if u < v}
        classes.append(min(c for c in range(F.n) if c not in taken))
    return classes


@PROPERTY
@given(hosts(), st.sampled_from(PATTERNS), st.data())
def test_counting_lemma_matches_homomorphisms(G, F, data):
    classes_of = greedy_classes(F)
    t = max(classes_of) + 1
    owner = data.draw(st.lists(st.integers(0, t - 1), min_size=G.n, max_size=G.n))
    partition = [[x for x in range(G.n) if owner[x] == i] for i in range(t)]
    expected = sum(
        all(G.has_edge(xs[u], xs[v]) for u, v in F.edges)
        for xs in product(*(partition[c] for c in classes_of))
    )
    r = counting_lemma_check(F, classes_of, G, partition, 0.5, 0.3, 0.2, 0.5)
    assert r["partite_copies"] == expected


@PROPERTY
@given(hosts(), st.sampled_from(PATTERNS[1:]), st.data())
def test_fstar_overlap_matches_oracle(G, Fstar, data):
    # K3 has no pair of non-adjacent vertices to mark
    a1, a2 = data.draw(st.sampled_from(
        [(u, v) for u, v in combinations(range(Fstar.n), 2) if not Fstar.has_edge(u, v)]))
    W = data.draw(st.sets(st.integers(0, G.n - 1)))
    assert fstar_overlap_count(Fstar, a1, a2, G, W)["count"] == naive_fstar_overlap(
        Fstar, a1, a2, G, W)


def test_large_patterns_need_no_recursion():
    # each search places 1200 pattern vertices, deeper than the
    # interpreter's default recursion limit, and has exactly one answer
    P = path_graph(1200)
    assert are_isomorphic(P, P)
    assert extension_count([0], P, [0], P) == 1
    singletons = [[v] for v in range(P.n)]
    assert counting_lemma_check(P, list(range(P.n)), P, singletons,
                                1.0, 0.5, 0.1, 1.0)["partite_copies"] == 1
    assert fstar_overlap_count(P, 0, P.n - 1, P, [0, P.n - 1])["count"] == 1
