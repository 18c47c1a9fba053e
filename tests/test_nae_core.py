"""The single NAE search core behind every colouring question, checked
against independent oracles: `brute_force_arrow`, colourings enumerated
with `itertools.product`, and `naive_copies` from tests/oracles.py."""

from itertools import combinations, product

from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_copies

from ramseylab.arrowing import brute_force_arrow, decide_arrow, first_f_free_coloring, is_f_free
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    gnp_sample,
    path_graph,
    pattern_by_name,
)

K3, C4 = complete_graph(3), cycle_graph(4)

# fixed example sequence and no example database, so a run repeats exactly
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=60)


@st.composite
def hosts(draw, max_n, max_edges):
    # half the hosts are within a few edges of the densest allowed, where
    # arrowing hosts live; the other half have any number of edges
    n = draw(st.integers(3, max_n))
    pairs = list(combinations(range(n), 2))
    most = min(max_edges, len(pairs))
    if draw(st.booleans()):
        size = most - draw(st.integers(0, min(3, most)))
    else:
        size = draw(st.integers(0, most))
    return Graph(n, draw(st.permutations(pairs))[:size])


def edge_id_sets(G, F):
    return [sorted(G.edge_id(*e) for e in es) for _, es in naive_copies(F, G)]


@PROPERTY
@given(hosts(max_n=8, max_edges=24), st.sampled_from([K3, C4]))
def test_decide_arrow_matches_brute_force(G, F):
    # at most 24 edges, so at most 24 constrained edges: within the oracle cap
    res = decide_arrow(G, F)
    assert res.verdict == brute_force_arrow(G, F).verdict
    assert res.stats["constraints"] == len(naive_copies(F, G))
    if res.verdict == "not_arrows":
        for ids in edge_id_sets(G, F):
            assert len({res.certificate[e] for e in ids}) == 2


@PROPERTY
@given(hosts(max_n=7, max_edges=12), st.sampled_from(["K3", "C4", "P3", "K4-e", "C5"]))
def test_first_coloring_is_lexicographic_minimum(G, name):
    F = pattern_by_name(name)
    sets = edge_id_sets(G, F)
    expected = next(
        (list(col) for col in product((0, 1), repeat=G.num_edges())
         if all(len({col[e] for e in ids}) == 2 for ids in sets)),
        None,
    )
    assert first_f_free_coloring(G, F) == expected


@PROPERTY
@given(hosts(max_n=8, max_edges=16), st.sampled_from([K3, C4, path_graph(3)]))
def test_three_colour_certificates_leave_no_copy_single_coloured(G, F):
    res = decide_arrow(G, F, colours=3)
    assert res.verdict in ("arrows", "not_arrows")
    sets = edge_id_sets(G, F)
    if res.verdict == "not_arrows":
        assert len(res.certificate) == G.num_edges()
        assert set(res.certificate) <= {0, 1, 2}
        for ids in sets:
            assert len({res.certificate[e] for e in ids}) > 1
    else:
        # arrows: every 3-colouring of the constrained edges has a
        # single-coloured copy (checked exhaustively on small systems)
        constrained = sorted({e for ids in sets for e in ids})
        if len(constrained) <= 9:
            pos = {e: i for i, e in enumerate(constrained)}
            assert all(
                any(len({col[pos[e]] for e in ids}) == 1 for ids in sets)
                for col in product(range(3), repeat=len(constrained))
            )


def test_three_colours_arrow_the_path_above_degree_three():
    # a monochromatic P3 is avoided iff every colour class is a matching,
    # i.e. iff the chromatic index is at most the number of colours
    P3 = path_graph(3)
    assert decide_arrow(complete_graph(4), P3, colours=3).verdict == "not_arrows"
    assert decide_arrow(complete_graph(5), P3, colours=3).verdict == "arrows"
    assert decide_arrow(complete_graph(5), P3, colours=4).verdict == "arrows"
    assert decide_arrow(complete_graph(5), P3, colours=5).verdict == "not_arrows"


# (pattern, n, c, stream, budget, verdict, certificate, nodes, propagations)
# for G(n, c * n^(-1/m2)) on Seed(1202, stream).  Verdicts, certificates and
# search counts are part of every artifact, so a change to the search core
# must reproduce these exactly
GOLDEN = [
    ("K3", 30, 1.5, 150, 4000, "not_arrows",
     "0010010101001100000000110001000100000011100010011001011001001101001100100001111000100010000110100100100",
     44, 86),
    ("K3", 30, 2.0, 201, 4000, "not_arrows",
     "1011000000001011100011100001001100000110000110001111101110111001001010100000100000000011001001010110011100100100010111010001000101101100111101110000",
     197, 1341),
    ("K3", 30, 2.0, 202, 4000, "not_arrows",
     "00111101001001000110000100001100101010100001000101001011110100111011000111000110011001101101011110000001011000100011100011010011101101000110111110110000101000110110100",
     922, 12261),
    ("K3", 30, 2.5, 252, 4000, "arrows", None, 456, 3244),
    ("K3", 30, 2.5, 253, 4000, "arrows", None, 33, 221),
    ("C4", 14, 2.5, 253, 4000, "arrows", None, 388, 3093),
    ("C4", 14, 3.0, 300, 4000, "not_arrows",
     "010111000100111100100100001110110001001",
     41, 223),
    ("C4", 14, 3.0, 301, 4000, "arrows", None, 201, 1607),
    ("C4", 14, 3.5, 350, 4000, "arrows", None, 2653, 23195),
    ("C4", 14, 3.5, 352, 500, "arrows", None, 83, 521),
]


def test_golden_two_colour_trials():
    for name, n, c, stream, budget, verdict, cert, nodes, props in GOLDEN:
        F = pattern_by_name(name)
        exponent = 0.5 if name == "K3" else 2 / 3
        G = gnp_sample(n, c * n ** -exponent, Seed(1202, stream))
        res = decide_arrow(G, F, budget=budget)
        got = "".join(map(str, res.certificate)) if res.certificate else None
        assert (res.verdict, got, res.stats["nodes"], res.stats["propagations"]) == (
            verdict, cert, nodes, props), (name, n, c, stream)


def test_large_host_needs_no_recursion():
    # the search on this host goes deeper than the interpreter's default
    # recursion limit, so it must not use one Python frame per decision
    G = gnp_sample(300, 1.2 * 300 ** -0.5, Seed(781))
    res = decide_arrow(G, K3, budget=200000)
    assert res.verdict == "not_arrows"
    assert is_f_free(res.certificate, G, K3)[0]
