"""The single NAE search core behind every colouring question, checked
against independent oracles: `brute_force_arrow`, colourings enumerated
with `itertools.product`, and `naive_copies` from tests/oracles.py.  The
extension of a partial colouring (`_extend`) is checked by brute force
over the free edges."""

from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import naive_copies

from ramseylab import arrowing
from ramseylab.arrowing import (
    BLUE,
    RED,
    STATS,
    _Cdcl,
    _encode,
    _extend,
    _id_array,
    brute_force_arrow,
    cnf_export,
    copy_constraints,
    decide_arrow,
    enumerate_f_free_colorings,
    first_f_free_coloring,
    is_f_free,
)
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


@st.composite
def partial_systems(draw):
    """(m, constraints, fixed): an NAE system over at most 10 edges, each
    constraint 2 to 4 distinct edges, and a random partial colouring."""
    m = draw(st.integers(2, 10))
    edge = st.integers(0, m - 1)
    cons = draw(st.lists(st.lists(edge, min_size=2, max_size=4, unique=True).map(tuple),
                         max_size=12))
    return m, cons, draw(st.dictionaries(edge, st.sampled_from((RED, BLUE))))


@settings(PROPERTY, max_examples=300)
@given(partial_systems())
def test_extension_exists_exactly_when_brute_force_finds_one(case):
    # brute force over the edges outside `fixed`; the extension names a
    # colour for exactly the free edges of the constraints `fixed` leaves
    # unmet, and any colour of the edges it leaves out keeps every
    # constraint met
    m, cons, fixed = case
    free = [e for e in range(m) if e not in fixed]

    def meets(col):
        return all(len({col[e] for e in c}) == 2 for c in cons)

    exists = any(meets({**fixed, **dict(zip(free, cols))})
                 for cols in product((RED, BLUE), repeat=len(free)))
    ext = _extend(cons, fixed)
    assert (ext is not None) == exists
    if ext is not None:
        assert set(ext) == {e for c in cons if len({fixed[x] for x in c if x in fixed}) < 2
                            for e in c if e not in fixed}
        for left in (RED, BLUE):
            assert meets({**dict.fromkeys(free, left), **fixed, **ext}), left


def test_enumeration_gives_every_colouring_once():
    # two triangles have 6 * 6 F-free colourings, and a variable left free
    # on one search must still be decided once a blocking clause names it;
    # on the wheel W4 some are left free at level 0, below every decision
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    wheel = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)])
    for G, total in ((two_triangles, 36), (wheel, 82)):
        for limit in (2, total, total + 100):
            sols = enumerate_f_free_colorings(G, K3, limit=limit)
            assert len(sols) == min(limit, total)
            assert len({tuple(s) for s in sols}) == len(sols)


@PROPERTY
@given(hosts(max_n=7, max_edges=12), st.sampled_from([K3, C4, path_graph(3)]),
       st.integers(1, 300))
def test_enumerated_colourings_are_distinct_and_f_free(G, F, limit):
    # counted against itertools.product over the constrained edges; edges in
    # no copy are red in every enumerated colouring
    sets = edge_id_sets(G, F)
    constrained = sorted({e for ids in sets for e in ids})
    total = sum(
        all(len({col[constrained.index(e)] for e in ids}) == 2 for ids in sets)
        for col in product((0, 1), repeat=len(constrained))
    )
    sols = enumerate_f_free_colorings(G, F, limit=limit)
    assert len(sols) == min(limit, total)
    assert len({tuple(s) for s in sols}) == len(sols)
    for s in sols:
        assert all(len({s[e] for e in ids}) == 2 for ids in sets)
        assert all(s[e] == 0 for e in range(G.num_edges()) if e not in constrained)


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


# (pattern, n, c, stream, budget, verdict, certificate, nodes, propagations,
# conflicts, learned) for G(n, c * n^(-1/m2)) on Seed(1202, stream).  Verdicts,
# certificates and search counts are part of every artifact, so a change to
# the search core must reproduce these exactly
GOLDEN = [
    ("K3", 30, 1.5, 150, 4000, "not_arrows",
     "0001001101011110000010000001000010001011110000100000001010000010010010101001000000001010000000100100100",
     48, 56, 0, 0),
    ("K3", 30, 2.0, 201, 4000, "not_arrows",
     "0000010100001101100110100000110000000111110001110100100110000001111110000010010001010110111000011000011000001100010111001011001000101100110101011001",
     90, 412, 26, 26),
    ("K3", 30, 2.0, 202, 4000, "not_arrows",
     "11000000111100100000010101010000010011001000001011010000100000101001110010111011000010001010000100011111110101100111010100001100101001011100110111101110100000101110001",
     94, 187, 2, 2),
    ("K3", 30, 2.5, 252, 4000, "arrows", None, 22, 87, 15, 14),
    ("K3", 30, 2.5, 253, 4000, "arrows", None, 15, 83, 12, 11),
    # 96 host vertices: two adjacency words per vertex, the last one partial
    ("K3", 96, 2.0, 961, 4000, "not_arrows",
     "000110000111100011110011111101000100010101100111111101110011000000000101000001010001101110010011"
     "100101000011110111000000000001111101011001010011010000011111100100100100001001000000010011000101"
     "100100010100111000111010001000000100011111000101011001010110000111010100010010011100000010101000"
     "010100001001100011110000101100111110100000010111100110110111011100000101111001000000100010011100"
     "101010001001111000110100101001111011011110100100011100101000000010111000101110100100111110001101"
     "101111010011100111010100000001110110000101101010101111010101110001110001010111010111000000010001"
     "100101100100001101101001010000100001000101001010011110110110000100101101001100100001110000100101"
     "010101101000010100111110000001001001000010000001011010100111000000100000001011100000010001001011"
     "001100100000010010100000110111011010010011001110100111001100100010111011000001011110000001001010"
     "0000011011011101000010100100110001110010011011000011100000000001011110110000011100110",
     2667, 13499, 201, 201),
    ("C4", 14, 2.5, 253, 4000, "arrows", None, 105, 549, 89, 88),
    ("C4", 14, 3.0, 300, 4000, "not_arrows",
     "000010111100110001101101001010111110010",
     22, 88, 9, 9),
    ("C4", 14, 3.0, 301, 4000, "arrows", None, 80, 417, 75, 74),
    ("C4", 14, 3.5, 350, 4000, "arrows", None, 568, 3680, 474, 473),
    ("C4", 14, 3.5, 352, 500, "arrows", None, 80, 420, 78, 77),
]


def test_golden_two_colour_trials():
    for name, n, c, stream, budget, verdict, cert, *counts in GOLDEN:
        F = pattern_by_name(name)
        exponent = 0.5 if name == "K3" else 2 / 3
        G = gnp_sample(n, c * n ** -exponent, Seed(1202, stream))
        res = decide_arrow(G, F, budget=budget)
        got = "".join(map(str, res.certificate)) if res.certificate else None
        assert (res.verdict, got, *(res.stats[k] for k in STATS)) == (
            verdict, cert, *counts), (name, n, c, stream)


def _text(colouring):
    return "".join(map(str, colouring)) if colouring is not None else None


# The other colouring questions on G(n, p) with Seed(1203, stream):
# (pattern, n, p, stream) -> three-colour decide_arrow (verdict, certificate,
# stats); enumerate_f_free_colorings(limit=4) in order, with the stats of
# the one core it builds; first_f_free_coloring
GOLDEN_MODES = {
    ("K3", 20, 0.5, 1): (
        ("not_arrows",
         "1200002101220012102202000120120210202201202200012010122221220112000211120210002022000210000002011000",
         (159, 146, 261, 0, 0)),
        (["1001001001101000101101000110100110100100010110100110001001010111000010100101111011011110100110010111",
          "1001001001101000101101000110100110100100010110100110001001010111000010100101111011011111100110010111",
          "1001001001101000101101000110100110100100010110100110001001010111000010100101111011011111110110010111",
          "1001001001101000101101000110100110100100010110100110001001010111000010100101111011011110110110010111"],
         (159, 174, 1077, 61, 61)),
        "0011011001011010101101000110100110100100011100000100011001110101001010101001101011011101110010010100",
    ),
    ("C4", 16, 0.5, 0): (
        ("not_arrows", "210102200202112102020210222220122011102010010101000021",
         (215, 85, 148, 0, 0)),
        (["110000101011011000001100011100011110110000011001000111",
          "110000101011011000001101011100011110110000011001000111",
          "110000100011011000001101011100011110110000011001000111",
          "110000100011011000101101011100011110110000011001000111"],
         (215, 87, 337, 14, 14)),
        "000110010100101111000110010100000011010111110010111010",
    ),
    ("K3", 14, 0.7, 1): (
        ("not_arrows", "21110122201112020011210000202020100022101220110112011012010102202221",
         (154, 176, 451, 10, 10)),
        ([], (154, 33, 107, 23, 22)),
        None,
    ),
}


def test_golden_core_modes(monkeypatch):
    built = []  # every core the calls below build

    class RecordedCdcl(_Cdcl):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(arrowing, "_Cdcl", RecordedCdcl)
    for (name, n, p, stream), (three, enum, first) in GOLDEN_MODES.items():
        F = pattern_by_name(name)
        G = gnp_sample(n, p, Seed(1203, stream))
        res = decide_arrow(G, F, colours=3)
        assert (res.verdict, _text(res.certificate),
                tuple(res.stats[k] for k in ("constraints", *STATS))) == three, name
        built.clear()
        sols = enumerate_f_free_colorings(G, F, limit=4)
        [core] = built
        counts = (len(copy_constraints(G, F)), *(getattr(core, k) for k in STATS))
        assert ([_text(s) for s in sols], counts) == enum, name
        assert _text(first_f_free_coloring(G, F)) == first, name


def test_negative_colours_and_budgets_are_rejected():
    G = complete_graph(4)
    with pytest.raises(ValueError, match="colour"):
        decide_arrow(G, K3, colours=0)
    with pytest.raises(ValueError, match="budget"):
        decide_arrow(G, K3, budget=-1)
    with pytest.raises(ValueError, match="budget"):
        enumerate_f_free_colorings(G, K3, budget=-1)


@PROPERTY
@given(hosts(max_n=8, max_edges=24), st.sampled_from([K3, C4]))
def test_certificates_satisfy_the_exported_cnf(G, F):
    # the DIMACS text is read back here, apart from the solver: variable
    # EdgeId + 1, a positive literal meaning colour 1
    header, *rows = cnf_export(G, F).splitlines()
    clauses = [[int(x) for x in row.split()] for row in rows]
    assert header == f"p cnf {G.num_edges()} {len(clauses)}"
    assert all(clause[-1] == 0 for clause in clauses)
    res = decide_arrow(G, F)
    assert res.verdict == brute_force_arrow(G, F).verdict
    if res.verdict == "not_arrows":
        for clause in clauses:
            assert any((lit > 0) == (res.certificate[abs(lit) - 1] == 1) for lit in clause[:-1])


@PROPERTY
@given(hosts(max_n=10, max_edges=45), st.sampled_from([K3, C4]), st.integers(0, 50))
def test_budget_caps_the_decisions(G, F, k):
    full = decide_arrow(G, F)
    res = decide_arrow(G, F, budget=k)
    assert res.stats["nodes"] <= k
    assert res.verdict in (full.verdict, "undecided")
    if res.verdict == "undecided":
        assert res.stats["nodes"] == k and res.certificate is None


def test_activity_rescale_scales_the_heap_keys():
    # once inc passes 1e100, every activity is scaled by 1e-100; the heap's
    # keys must follow, or decisions take the stale order until a restart.
    # A key is minus its variable's activity when pushed, and activities
    # only grow, so no key may exceed its variable's activity
    G = gnp_sample(14, 3.5 * 14 ** (-2 / 3), Seed(1202, 350))  # 474 conflicts in GOLDEN
    core = _Cdcl(*_encode(G.num_edges(), _id_array(G, C4), 2))
    core.inc = 0.96e100  # the first learned clause passes 1e100
    learn, held = core._learn, []

    def checked_learn(conflict):
        learn(conflict)
        held.append(all(-key <= core.activity[v] for key, v in core.heap))

    core._learn = checked_learn
    assert core.solve() is False and core.inc < 1e50  # rescaled once
    assert len(held) == core.learned > 1 and all(held)


def test_large_host_needs_no_recursion():
    # the search on this host goes deeper than the interpreter's default
    # recursion limit, so it must not use one Python frame per decision
    G = gnp_sample(300, 1.2 * 300 ** -0.5, Seed(781))
    res = decide_arrow(G, K3, budget=200000)
    assert res.verdict == "not_arrows"
    assert is_f_free(res.certificate, G, K3)[0]
