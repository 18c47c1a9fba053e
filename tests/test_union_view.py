"""The one analysis of each union Z ∪ h(B) (`booster.union_view`),
checked against full enumeration of the union and the naive oracles, and
the booster pipeline's outputs pinned on seeded hosts."""

import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from instances import k6_minus_edge_block, two_block_host
from oracles import naive_bad_flags

from ramseylab.booster import (
    _naive_focus_members,
    _union_copies,
    build_hypergraph,
    classify_bad,
    construct_normal_family,
    image_edges,
    make_booster_spec,
    restrict_index_consistent,
    union_view,
)
from ramseylab.counting import enumerate_copies
from ramseylab.graphs import Graph, Seed, complete_graph, cycle_graph, gnp_sample, path_graph

K3, C4 = complete_graph(3), cycle_graph(4)
BOOSTERS = {"K2": complete_graph(2), "P3": path_graph(3), "C5": cycle_graph(5)}
SPECS = {(name, F): make_booster_spec(B, F) for name, B in BOOSTERS.items() for F in (K3, C4)}

# fixed example sequence and no example database, so a run repeats exactly
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


@st.composite
def unions(draw):
    """(Z, h, spec, F): a host on at most 9 vertices, a K2, P3 or C5
    booster placed by an injection h, and F = K3 or C4."""
    F = draw(st.sampled_from((K3, C4)))
    booster = draw(st.sampled_from(sorted(BOOSTERS)))
    spec = SPECS[(booster, F)]
    n = draw(st.integers(max(spec.B.n, F.n), 9))
    pairs = list(combinations(range(n), 2))
    Z = Graph(n, draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))])
    h = tuple(draw(st.permutations(range(n)))[: spec.B.n])
    return Z, h, spec, F


@PROPERTY
@given(unions())
def test_view_matches_full_enumeration_and_oracles(case):
    Z, h, spec, F = case
    view = union_view(Z, h, spec, F)
    U = view.U
    # Z's copies plus the view's copies are the union's copies, in order
    z_copies = enumerate_copies(F, Z).copies if F.n <= Z.n else []
    merged = [(c.vertices, c.edges) for c in _union_copies(z_copies, view)]
    full = [(c.vertices, c.edges) for c in enumerate_copies(F, U).copies]
    assert merged == full
    # the view holds exactly the copies through a booster edge
    img = set(image_edges(spec.B, h))
    assert [(c.vertices, c.edges) for c, _, _ in view.copies] == [
        key for key in full if key[1] & img]
    # the focus set is the naive one, plus any edge of Z that is also a
    # booster edge: such an edge focuses on itself even in no copy of F
    shared = {Z.edge_id(*e) for e in img & set(Z.edges)}
    assert view.members == tuple(sorted(set(_naive_focus_members(Z, h, spec, F)) | shared))
    flags = classify_bad(Z, h, spec, F)
    assert {k: flags[k] for k in ("B1", "B2", "B3")} == naive_bad_flags(Z, img, F, U)


GOLDEN = json.loads((Path(__file__).parent / "golden_booster.json").read_text())
# label -> (host, booster, extra params); values recorded from the pipeline
# that shares one view per union, on path-keyed seeds
GOLDEN_CASES = {
    "block8-K2-full": (lambda: k6_minus_edge_block(8, Seed(501))[0], "K2", {}),
    "two-block-K2-full": (lambda: two_block_host(Seed(502))[0], "K2", {}),
    "block9-P3-sampled": (lambda: k6_minus_edge_block(9, Seed(503))[0], "P3",
                          {"pool_size": 40}),
    "two-block-P3-sampled": (lambda: two_block_host(Seed(504))[0], "P3", {"pool_size": 60}),
    "gnp10-K2-sampled-nofilter": (lambda: gnp_sample(10, 0.5, Seed(505)), "K2",
                                  {"pool_size": 20, "arrow_filter": False}),
    "gnp12-K2-full-nofilter": (lambda: gnp_sample(12, 0.2, Seed(507)), "K2",
                               {"arrow_filter": False}),
    "block7-P3-full": (lambda: k6_minus_edge_block(7, Seed(506))[0], "P3", {}),
}


def test_golden_booster_pipeline():
    assert set(GOLDEN) == set(GOLDEN_CASES)
    for label, (build, booster, extra) in GOLDEN_CASES.items():
        Z, spec = build(), SPECS[(booster, K3)]
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        xi0, report = construct_normal_family(Z, spec, K3, params, seed=Seed(510))
        got = {"family": [list(h) for h in xi0], "report": report}
        if xi0:
            xi, prof, rrep = restrict_index_consistent(Z, xi0, spec, K3, 12, seed=Seed(511))
            bh = build_hypergraph(Z, xi, spec, K3, prof)
            got["restricted"] = {
                "family": [list(h) for h in xi], "profile": list(prof.pi) if prof else None,
                "report": rrep, "hyperedges": [list(fs.members) for fs in bh.focus_sets]}
        assert json.loads(json.dumps(got)) == GOLDEN[label], label
