"""The single pattern-search core behind every embedding, extension and
partite-copy count, checked against independent oracles: the permutation
enumerators in tests/oracles.py and homomorphisms listed with
`itertools.product`.  The symmetry-broken copy search and the orbit
representatives behind P(e1, e2) are checked against the plain search and
the oracles, and so are the NAE constraint systems read off the search's
maps and off the copy keys."""

from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import combinations, islice, permutations, product
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    naive_arc_representatives,
    naive_automorphisms,
    naive_copies,
    naive_extension_count,
    naive_fstar_overlap,
    naive_P,
    naive_smaller,
    reference_completions_through,
    reference_copy_maps,
    reference_search,
)

from ramseylab.arrowing import copy_constraints
from ramseylab.booster import _union_keys
from ramseylab.counting import (
    _anchored_copies,
    _arc_representatives,
    _automorphism_count,
    _breaking,
    _completions_through,
    _copy_array,
    _copy_counts,
    _norm,
    _PairFamily,
    _plan,
    _search,
    _sorted_copies,
    are_isomorphic,
    count_P,
    embeddings,
    enumerate_copies,
    enumerate_P,
    extension_count,
)
from ramseylab.density import PATTERN_VERTEX_CAP
from ramseylab.graphs import Graph, complete_graph, cycle_graph, path_graph, pattern_by_name
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


def first_maps(F, maps):
    """(key, first map) of each copy that `maps` reach, in key order."""
    seen = {}
    for m in maps:
        seen.setdefault((tuple(sorted(m)), tuple(sorted(copy_key(F, m)[1]))), m)
    return sorted(seen.items())


@PROPERTY
@given(hosts(min_n=5), st.sampled_from(COPY_PATTERNS), st.data())
def test_symmetry_broken_copies_match_plain_search(G, F, data):
    family = enumerate_copies(F, G)
    # one map per copy: no copy twice and none missing
    keys = [copy_key(F, m) for m in _copy_array(F, G.adj).tolist()]
    assert len(keys) == len(set(keys)) == len(family)
    # the same copies, each with the same witness map as the plain search:
    # its first map onto the copy, in key order
    assert [(c.key(), c.map) for c in family.copies] == first_maps(F, embeddings(F, G))
    anchor = data.draw(st.sampled_from(list(combinations(range(G.n), 2))))
    assert copy_set(enumerate_copies(F, G, anchor=anchor)) == {
        (c.vertices, c.edges) for c in family.copies if anchor in c.edges}


@PROPERTY
@given(hosts(min_n=1), st.sampled_from(COPY_PATTERNS + PATTERNS + [
    Graph(1, []), complete_graph(2), Graph(3, [])]), st.data())
def test_search_yields_the_reference_maps_in_order(G, F, data):
    # the last position's inner loop yields every map of the per-pass
    # search, in its order: plain and symmetry-broken plans, pinned
    # vertices, loose edges, arbitrary domains, embeddings and homomorphisms
    pinned = tuple(data.draw(st.permutations(range(F.n)))[: data.draw(st.integers(0, F.n))])
    if data.draw(st.booleans()):
        plan = _breaking(F, pinned)
    else:
        plan = _plan(F, pinned, tuple(data.draw(st.sets(st.sampled_from(F.edges)))
                                      if F.edges else ()))
    full = (1 << G.n) - 1
    dom = [data.draw(st.sampled_from((full, full, 1 << data.draw(st.integers(0, G.n - 1)),
                                      data.draw(st.integers(0, full)))))
           for _ in range(F.n)]
    for injective in (True, False):
        assert list(_search(G.adj, plan, dom, injective)) == list(
            reference_search(G.adj, plan, dom, injective))


@st.composite
def word_hosts(draw):
    """Hosts of one to three 64-bit words per row, the last word full or
    partial: a dense random graph on a few vertices, word-boundary vertices
    likely among them, and a few random pairs anywhere in the host."""
    n = draw(st.sampled_from((1, 5, 63, 64, 65, 127, 130)))
    vertex = st.integers(0, n - 1) | st.sampled_from(
        [v for v in (0, 62, 63, 64, 65, 126, 127, 128, 129) if v < n])
    core = sorted(draw(st.lists(vertex, min_size=min(n, 4), max_size=8, unique=True)))
    pairs = {e for e in combinations(core, 2) if draw(st.integers(0, 3))}  # dense: copies
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=8))
    return Graph(n, sorted(pairs | {_norm(u, v) for u, v in extra if u != v}))


@settings(PROPERTY, max_examples=100)
@given(word_hosts(), st.sampled_from(COPY_PATTERNS + PATTERNS + [
    Graph(1, []), Graph(3, []), complete_graph(2), Graph(4, [(0, 1), (1, 2)])]))
def test_copy_array_is_the_orbit_search_row_for_row(G, F):
    # the level-by-level word search gives the maps of the unanchored orbit
    # search, in its order, on hosts across word boundaries; patterns with a
    # position that has no back neighbour (isolated vertices, the edgeless
    # ones) take their candidates from the full host less earlier images
    expected = reference_search(G.adj, _breaking(F, ()), [(1 << G.n) - 1] * F.n)
    maps = _copy_array(F, G.adj)
    assert maps.ndim == 2 and maps.shape[1] == F.n
    chunk = 1 << 12  # compared a block at a time: an edgeless pattern has n³/6 maps
    for start in range(0, len(maps), chunk):
        assert list(map(tuple, maps[start:start + chunk].tolist())) == list(islice(expected, chunk))
    assert next(expected, None) is None


def test_copy_array_keeps_both_pattern_size_rules():
    # a pattern larger than its host has no copies and needs no cap check;
    # one that fits must be within the cap, with the message copy queries give
    big = complete_graph(PATTERN_VERTEX_CAP + 1)
    assert _copy_array(big, complete_graph(PATTERN_VERTEX_CAP).adj).shape == (0, big.n)
    with pytest.raises(ValueError, match=rf"^pattern has {big.n} vertices, "
                                         rf"above the cap of {PATTERN_VERTEX_CAP}$"):
        _copy_array(big, Graph(big.n, []).adj)


def naive_union_keys(F, n, edges, img):
    """Keys of the copies of F on the edge set `edges` through a pair of
    `img`, by permutations over the edge set alone."""
    img = {_norm(*e) for e in img}
    found = set()
    for perm in permutations(range(n), F.n):
        es = {_norm(perm[u], perm[v]) for u, v in F.edges}
        if es <= edges and es & img:
            found.add((tuple(sorted(perm)), tuple(sorted(es))))
    return sorted(found)


@PROPERTY
@given(hosts(min_n=5), st.sampled_from(COPY_PATTERNS), st.data())
def test_union_rows_give_the_keys_of_the_built_union(Z, F, data):
    # booster pairs ORed into Z's rows give the copies through them that
    # the built union gives, each with the per-call search's witness map;
    # the pairs may be edges of Z already, in either orientation
    pairs = list(combinations(range(Z.n), 2))
    img = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=5, unique=True))
    if Z.edges:
        img.append(data.draw(st.sampled_from(Z.edges)))
    img = [e[::-1] if data.draw(st.booleans()) else e for e in dict.fromkeys(img)]
    U = Graph(Z.n, [*Z.edges, *img])
    keys = _union_keys(Z, img, F)
    assert keys == [key for key, _ in _anchored_copies(F, U.adj, img)]
    assert keys == naive_union_keys(F, Z.n, set(Z.edges) | {_norm(*e) for e in img}, img)
    rows = list(Z.adj)
    for u, v in img:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    assert _anchored_copies(F, U.adj, img) == first_maps(F, reference_copy_maps(F, rows, img))


def test_union_rows_raise_the_graph_messages():
    # a loop, a vertex past the host and a negative vertex, alone or after
    # a good pair, fail as a Graph holding Z's edges and them fails
    Z = cycle_graph(5)
    for bad in ([(2, 2)], [(0, 5)], [(5, 0)], [(-1, 0)], [(0, 2), (3, 3)], [(1, 3), (0, 7)]):
        with pytest.raises(ValueError) as built:
            Graph(Z.n, [*Z.edges, *bad])
        with pytest.raises(ValueError) as rows:
            _union_keys(Z, bad, complete_graph(3))
        assert str(rows.value) == str(built.value), bad


@settings(PROPERTY, max_examples=40)
@given(hosts(max_n=7), st.sampled_from(COPY_PATTERNS + PATTERNS), st.data())
def test_completions_through_match_the_reference_loop(Z, F, data):
    # the cached pair plans give the per-call loop's maps, witness by
    # witness and in order, through edges and non-edges of Z alike
    a, b = data.draw(st.sampled_from(list(combinations(range(Z.n), 2))))
    for pair in ((a, b), (b, a)):
        got = _completions_through(F, Z, pair)
        assert list(got.items()) == list(reference_completions_through(F, Z, pair).items())


def test_automorphism_count_is_the_self_embedding_count():
    # the orbit-stabilizer product along the symmetry-breaking base counts
    # the embeddings of F into itself; the edgeless pattern has all of S6
    for F in COPY_PATTERNS + [Graph(6, [])]:
        assert _automorphism_count(F) == sum(1 for _ in embeddings(F, F)), F.edges


def test_orbits_match_the_listed_automorphisms():
    # the orbit queries skip a pin across degrees with no search; the arc
    # representatives, the symmetry conditions with no pin and with each
    # arc pinned, and |Aut F| equal those read off every permutation
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])  # K1,3
    for F in [pattern_by_name(name) for name in
              ("K3", "C4", "C5", "P4", "K4-e", "K5-e", "K6-e")] + [star]:
        assert _automorphism_count(F) == len(naive_automorphisms(F)), F.edges
        assert _arc_representatives(F) == naive_arc_representatives(F), F.edges
        for pinned in ((),) + _arc_representatives(F):
            order, back, smaller = _breaking(F, pinned)
            assert (order, back) == _plan(F, pinned)[:2]
            assert smaller == naive_smaller(F, order, pinned), (F.edges, pinned)


def _check_copy_counts(F, G):
    """The counts read off the copy array, one map per copy, are those of
    the collected keys: the copies, and the pair codes u·n + v of every
    copy's edges, which tally to the copies through each host edge."""
    keys = [c.key() for c in enumerate_copies(F, G).copies]
    count, codes = _copy_counts(F, G)
    through = Counter(divmod(c, G.n) for c in codes.tolist())
    assert (count, through) == (len(keys), Counter(e for _, es in keys for e in es))
    return count, through


@PROPERTY
@given(hosts(min_n=5), st.sampled_from(COPY_PATTERNS))
def test_copy_counts_match_the_copy_keys(G, F):
    _check_copy_counts(F, G)


def test_copy_counts_edge_cases():
    # an edgeless pattern has one copy per vertex set and no edge tally
    assert _check_copy_counts(Graph(3, []), cycle_graph(5)) == (10, Counter())
    assert _check_copy_counts(Graph(1, []), Graph(2, [])) == (2, Counter())
    # a pattern larger than its host, and a host with no copies, count none
    assert _check_copy_counts(complete_graph(4), complete_graph(3)) == (0, Counter())
    assert _check_copy_counts(complete_graph(3), cycle_graph(6)) == (0, Counter())
    assert _check_copy_counts(complete_graph(3), Graph(4, [])) == (0, Counter())
    # hosts with isolated vertices, the last one among them
    host = Graph(8, [(1, 2), (1, 3), (2, 3), (3, 5), (5, 6)])
    assert _check_copy_counts(complete_graph(3), host) == (1, Counter({(1, 2): 1, (1, 3): 1, (2, 3): 1}))
    assert _check_copy_counts(path_graph(3), host)[0] == 6  # sum of C(deg, 2)
    assert _check_copy_counts(Graph(5, [(0, 1), (1, 2)]), host)[0] == 6 * 10


@PROPERTY
@given(hosts(min_n=5), st.sampled_from(COPY_PATTERNS), st.data())
def test_copy_keys_build_the_constraint_system(G, F, data):
    # the NAE system: the constraints of the copies, in order, and as a
    # set the oracle's copies
    cons = copy_constraints(G, F)
    assert cons == [tuple(sorted(G.edge_id(*e) for e in c.edges))
                    for c in enumerate_copies(F, G).copies]
    assert set(cons) == {tuple(sorted(G.edge_id(*e) for e in es))
                         for _, es in naive_copies(F, G)}
    # several anchors in one collection: the keys of the copies through
    # any of them, each once, in key order
    anchors = data.draw(st.lists(st.sampled_from(list(combinations(range(G.n), 2))),
                                 min_size=1, max_size=4, unique=True))
    assert [key for key, _ in _anchored_copies(F, G.adj, anchors)] == sorted(
        (tuple(sorted(vs)), tuple(sorted(es))) for vs, es in naive_copies(F, G)
        if set(anchors) & es)
    small = Graph(F.n - 1, []).adj
    assert len(_sorted_copies(F, small)[0]) == len(_anchored_copies(F, small, anchors[:1])) == 0


@PROPERTY
@given(hosts(min_n=5), st.sampled_from(COPY_PATTERNS + [
    complete_graph(2), Graph(3, []), complete_graph(9)]))
def test_whole_graph_and_key_builders_agree(G, F):
    # ids looked up from the sorted pair codes give the system `edge_id`
    # gives for the decoded pairs, term for term: K2, an edgeless pattern
    # and F larger than G included
    assert copy_constraints(G, F) == [tuple(G.edge_id(*divmod(c, G.n)) for c in codes)
                                      for codes in _sorted_copies(F, G.adj)[2].tolist()]


def test_copy_constraints_keep_the_pattern_cap():
    big = complete_graph(PATTERN_VERTEX_CAP + 1)
    with pytest.raises(ValueError, match="cap"):
        copy_constraints(complete_graph(PATTERN_VERTEX_CAP + 2), big)
    assert copy_constraints(complete_graph(PATTERN_VERTEX_CAP), big) == []


@settings(PROPERTY, max_examples=40)
@given(hosts(max_n=7), st.sampled_from(PATTERNS), st.data())
def test_pair_family_matches_oracle(Z, F, data):
    # e1, e2 and e3 range over edges and non-edges of Z alike
    e1, e2, e3 = data.draw(st.lists(st.sampled_from(list(combinations(range(Z.n), 2))),
                                    min_size=3, max_size=3, unique=True))
    found = {((tuple(sorted(c1.vertices)), tuple(sorted(c1.edges))),
              (tuple(sorted(c2.vertices)), tuple(sorted(c2.edges))), s)
             for c1, c2, s in enumerate_P(F, Z, e1, e2)}
    assert found == naive_P(F, Z, e1, e2)
    # one per-host family answers repeated, swapped and fresh queries alike
    family = _PairFamily(F, Z)
    for a, b in ((e1, e2), (e2, e1), (e1, e2), (e3, e1), (e2, e3[::-1]), (e2, e1)):
        c = len(naive_P(F, Z, a, b))
        assert family.count(a, b) == c == count_P(F, Z, a, b), (a, b)
        # the heavy-pair test agrees with the count at and around it, and
        # the witness bound it reads is at least the count and at most the
        # host's degree ceiling
        for cap in (0, 0.5, c - 1, c, c + 1, Fraction(c, 1), inf):
            assert family.exceeds(a, b, cap) == (c > cap), (a, b, cap)
        s1, s2 = family._side(_norm(*a)), family._side(_norm(*b))
        bound = sum(len(s1[w]) * len(s2[w]) for w in s1.keys() & s2.keys())
        assert family.ceiling >= bound >= c
    for query in (family.count, partial(family.exceeds, cap=0)):
        with pytest.raises(ValueError, match="e1 and e2 must be distinct"):
            query(e1, e1[::-1])
    # a loop, a vertex past the host and a negative vertex are no pairs
    for bad in ((1, 1), (0, Z.n), (0, -1)):
        for query in (family.count, family.pairs, partial(family.exceeds, cap=0),
                      partial(count_P, F, Z), partial(enumerate_P, F, Z)):
            for args in ((bad, e1), (e1, bad)):
                with pytest.raises(ValueError, match=rf"\({bad[0]}, {bad[1]}\) is not a pair"):
                    query(*args)


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
