from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    edge_count_between,
    empty_graph,
    gnp_sample,
    parse_graph,
    path_graph,
    pattern_by_name,
    serialize_graph,
    union,
)

from oracles import naive_edge_counts


def test_graph_invariants_random():
    for i in range(20):
        g = gnp_sample(15, 0.4, Seed(11, i))
        for u in range(g.n):
            assert not g.has_edge(u, u)
            for v in range(g.n):
                assert g.has_edge(u, v) == g.has_edge(v, u)
        assert list(g.edges) == sorted(set(g.edges))
        assert g.num_edges() == sum(g.degree(v) for v in range(g.n)) // 2


def test_gnp_extremes():
    assert gnp_sample(5, 0.0, Seed(1)).num_edges() == 0
    assert gnp_sample(5, 1.0, Seed(1)) == complete_graph(5)
    with pytest.raises(ValueError):
        gnp_sample(0, 0.5, Seed(1))
    with pytest.raises(ValueError):
        gnp_sample(5, 1.5, Seed(1))


def test_gnp_determinism():
    a = gnp_sample(60, 0.3, Seed(99, 7))
    b = gnp_sample(60, 0.3, Seed(99, 7))
    assert a == b
    assert a != gnp_sample(60, 0.3, Seed(99, 8))


def test_gnp_binomial_mean():
    # mean edge count of G(100, 1/2) over many seeds, 3 sigma window
    trials = 400
    total = sum(gnp_sample(100, 0.5, Seed(5, i)).num_edges() for i in range(trials))
    mean = total / trials
    # sd of a single draw is sqrt(4950)/2 ~ 35.2; of the mean, /sqrt(trials)
    sd_mean = (4950 * 0.25) ** 0.5 / trials**0.5
    assert abs(mean - 2475) < 3 * sd_mean


def test_union():
    g = gnp_sample(8, 0.4, Seed(2))
    assert union(g, empty_graph(8)) == g
    assert union(g, g) == g
    a = Graph(3, [(0, 1)])
    b = Graph(3, [(1, 2)])
    assert union(a, b) == path_graph(3)
    assert union(a, b) == union(b, a)
    with pytest.raises(ValueError):
        union(a, empty_graph(4))


def test_edge_count_between_examples():
    k4 = complete_graph(4)
    assert edge_count_between(k4, [0, 1, 2, 3]) == 6
    assert edge_count_between(k4, [0, 1], [2, 3]) == 4
    c5 = cycle_graph(5)
    assert edge_count_between(c5, [0, 2], [1]) == 2
    with pytest.raises(ValueError):
        edge_count_between(k4, [0, 1], [1, 2])


def test_edge_count_matches_naive_exhaustive():
    import itertools

    for i in range(10):
        g = gnp_sample(7, 0.5, Seed(21, i))
        verts = range(g.n)
        for k in range(1, 5):
            for U in itertools.combinations(verts, k):
                assert edge_count_between(g, U) == naive_edge_counts(g, U)
        U, W = [0, 1, 2], [4, 5]
        assert edge_count_between(g, U, W) == naive_edge_counts(g, U, W)


def test_edgelist_round_trip():
    g = parse_graph("3\n0 1\n1 2")
    assert g == path_graph(3)
    text = serialize_graph(g)
    assert parse_graph(text) == g
    assert serialize_graph(parse_graph(text)) == text


def test_graph6_fixtures_and_round_trip():
    assert serialize_graph(complete_graph(3), "graph6") == "Bw"
    assert parse_graph("Bw") == complete_graph(3)
    for i in range(10):
        g = gnp_sample(17, 0.35, Seed(31, i))
        assert parse_graph(serialize_graph(g, "graph6")) == g
    big = gnp_sample(70, 0.1, Seed(31, 99))  # exercises the 3-byte size header
    assert parse_graph(serialize_graph(big, "graph6")) == big


def test_parse_errors_carry_offsets():
    with pytest.raises(ValueError, match="offset"):
        parse_graph("3\n0 5")
    with pytest.raises(ValueError, match="offset"):
        parse_graph("3\n0")
    with pytest.raises(ValueError, match="offset"):
        parse_graph("B" + chr(200))
    with pytest.raises(ValueError, match="offset"):
        parse_graph(">>graph6<<")
    # offsets count into the caller's text, header and leading whitespace
    # included, as edge-list offsets do
    for text, offset in (("B" + chr(200), 1), ("  B" + chr(200), 3),
                         (">>graph6<<B" + chr(200), 11), ("\n >>graph6<<B" + chr(200), 13),
                         (">>graph6<<", 10), ("  >>graph6<<", 12), (" ~~", 1),
                         (">>graph6<<~?" + chr(200) + "?", 12), (" ?", 1),
                         ("  B ", 3), ("  BWW", 4), ("  3\n0", 4)):
        with pytest.raises(ValueError, match=rf"offset {offset}\)"):
            parse_graph(text)


def test_named_patterns():
    assert pattern_by_name("K4") == complete_graph(4)
    assert pattern_by_name("C5") == cycle_graph(5)
    assert pattern_by_name("P4") == path_graph(4)
    k4e = pattern_by_name("K4-e")
    assert k4e.n == 4 and k4e.num_edges() == 5
    with pytest.raises(ValueError):
        pattern_by_name("Q3")


@st.composite
def hosts_and_extras(draw):
    """(n, edges, extra): a host's edge list on at most 9 vertices, and
    extra pairs drawn from its edges and from all pairs, each reversed half
    the time; a third of the cases add one loop or out-of-range pair."""
    n = draw(st.integers(1, 9))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))) if pairs else []
    drawn = draw(st.lists(st.sampled_from(edges + pairs), max_size=6)) if pairs else []
    extra = [(v, u) if draw(st.booleans()) else (u, v) for u, v in drawn]
    if draw(st.integers(0, 2)) == 0:
        bad = draw(st.sampled_from([(v, v) for v in range(n)] + [(-1, 0), (0, n), (n, n + 1)]))
        extra.insert(draw(st.integers(0, len(extra))), bad)
    return n, edges, extra


def literal_graph(n, pairs):
    """(n, edges, adj, index) of the graph on `pairs` by set normalisation,
    or the error message of its first loop or out-of-range pair."""
    norm = set()
    for u, v in pairs:
        if u == v:
            return f"loop at vertex {u}"
        if not (0 <= u < n and 0 <= v < n):
            return f"edge ({u},{v}) out of range for n={n}"
        norm.add((min(u, v), max(u, v)))
    edges = tuple(sorted(norm))
    adj = tuple(sum(1 << w for w in range(n) if (min(v, w), max(v, w)) in norm)
                for v in range(n))
    return n, edges, adj, {e: i for i, e in enumerate(edges)}


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(hosts_and_extras())
def test_union_equals_rebuilding_the_graph(case):
    n, edges, extra = case
    g = Graph(n, edges)
    assert (g.n, g.edges, g.adj, g._index) == literal_graph(n, edges)
    want = literal_graph(n, edges + extra)
    builds = {"Graph": lambda: Graph(n, edges + extra),
              "union": lambda: union(g, Graph(n, extra))}
    for name, build in builds.items():
        if isinstance(want, str):
            with pytest.raises(ValueError) as got:
                build()
            assert str(got.value) == want, name
            continue
        got = build()
        assert (got.n, got.edges, got.adj, got._index) == want, name
        # the hash, now computed once per graph, is still that of (n, edges)
        assert got == Graph(n, want[1]) and hash(got) == hash((n, want[1])), name
    assert (g.n, g.edges, g.adj, g._index) == literal_graph(n, edges)  # g itself is unchanged
    assert hash(g) == hash((n, literal_graph(n, edges)[1]))


def test_edge_ids_follow_lex_order():
    g = gnp_sample(9, 0.5, Seed(4))
    for i, e in enumerate(g.edges):
        assert g.edge_id(*e) == i
    assert list(g.edges) == sorted(g.edges)


def test_union_associative():
    a = gnp_sample(8, 0.3, Seed(71, 0))
    b = gnp_sample(8, 0.3, Seed(71, 1))
    c = gnp_sample(8, 0.3, Seed(71, 2))
    assert union(union(a, b), c) == union(a, union(b, c))


def _first_draw(seed):
    return int(seed.generator().bit_generator.random_raw())


def test_seed_paths_give_distinct_streams():
    # every index path of depth <= 3 over these indices keys its own stream
    indices = (0, 1, 2, 3, 5, 1002, 2**32 - 1)
    paths = [p for depth in range(4) for p in product(indices, repeat=depth)]
    draws = {_first_draw(Seed(7, *p)) for p in paths}
    assert len(draws) == len(paths) == 1 + 7 + 49 + 343
    # collisions of the former 32-bit shift derivation: the first index was
    # lost at depth 3; and (0, 1) met (1,), which also handed the booster
    # subcommand's restriction the stage-4 stream of its construction
    root = Seed(7)
    assert _first_draw(root.substream(0).substream(3).substream(5)) != _first_draw(
        root.substream(1002).substream(3).substream(5))
    assert _first_draw(root.substream(0).substream(1)) != _first_draw(root.substream(1))
    assert Seed(7, 3, 5) == root.substream(3).substream(5)


def test_seed_rejects_out_of_range_components():
    # SeedSequence would split 2**32 into the words (0, 1)
    with pytest.raises(ValueError):
        Seed(7).substream(2**32)
    with pytest.raises(ValueError):
        Seed(7).substream(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
