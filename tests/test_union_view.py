"""The one analysis of each union Z ∪ h(B) (`booster.union_view`),
checked against full enumeration of the union and the naive oracles; the
system a union's whole search solves, Z's rows and the union's renumbered
ones, checked against `copy_constraints` of the built union; the
stage-1 union verdict from the union's copy keys, with and without Z's
colouring, checked against `decide_arrow_union` and the brute-force
oracle, also with Z's colouring reduced to the edges its copies need;
the views built from those keys, checked against `union_view`; stage 2's
badness from the keys, checked against the naive oracle; one collection
of Z's copies per call; and the booster pipeline's outputs pinned on
seeded hosts."""

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from instances import k6_minus_edge_block, two_block_host
from oracles import naive_bad_flags, naive_copies

from ramseylab import booster, counting

from ramseylab.arrowing import (
    BLUE,
    BRUTE_FORCE_EDGE_CAP,
    RED,
    ArrowResult,
    _extend,
    brute_force_arrow,
    copy_constraints,
    decide_arrow,
    decide_arrow_union,
    enumerate_f_free_colorings,
    is_f_free,
)
from ramseylab.booster import (
    _naive_copies,
    _naive_focus_members,
    _union_keys,
    _union_verdict,
    _unions,
    _view_from_keys,
    _z_analysis,
    build_hypergraph,
    check_interactive_regular,
    classify_bad,
    construct_normal_family,
    embedding_pool,
    image_edges,
    image_graph,
    make_booster_spec,
    restrict_index_consistent,
    union_view,
)
from ramseylab.counting import enumerate_copies
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    gnp_sample,
    path_graph,
    union,
)

K3, C4 = complete_graph(3), cycle_graph(4)
# K4 holds copies of K3 and C4 of its own, which have no edge of Z
BOOSTERS = {"K2": complete_graph(2), "P3": path_graph(3), "C5": cycle_graph(5),
            "K4": complete_graph(4)}
SPECS = {(name, F): make_booster_spec(B, F) for name, B in BOOSTERS.items() for F in (K3, C4)}

# fixed example sequence and no example database, so a run repeats exactly
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def naive_ids(F, G):
    """G's NAE system for F as id rows, in key order, from the permutation
    oracle: the form of `_id_array`, built with no copy search of the package."""
    keys = sorted((tuple(sorted(vs)), tuple(sorted(es))) for vs, es in naive_copies(F, G))
    rows = [[G.edge_id(*e) for e in es] for _, es in keys]
    return np.array(rows, dtype=np.intp).reshape(len(rows), F.num_edges())


@st.composite
def unions(draw):
    """(Z, h, spec, F): a host on at most 9 vertices, a K2, P3, C5 or K4
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
    keys = _union_keys(Z, image_edges(spec.B, h), F)
    U = Z.with_edges(image_edges(spec.B, h))
    assert U == union(Z, image_graph(spec.B, h, Z.n))
    assert keys == list(view.copies)
    # the view holds exactly the copies through a booster edge, in key order
    img = set(image_edges(spec.B, h))
    assert list(view.copies) == [
        c.key() for c in enumerate_copies(F, U).copies if c.edges & img]
    # the focus set is the naive one, plus any edge of Z that is also a
    # booster edge: such an edge focuses on itself even in no copy of F
    shared = {Z.edge_id(*e) for e in img & set(Z.edges)}
    naive = _naive_focus_members(Z, _naive_copies(set(Z.edges), img, F, U))
    assert view.members == tuple(sorted(set(naive) | shared))
    flags = classify_bad(Z, h, spec, F)
    assert {k: flags[k] for k in ("B1", "B2", "B3")} == naive_bad_flags(Z, img, F, U)


def _whole_system(z_ids, Z, keys):
    """(variable count, id rows) that `_union_verdict` hands the core when
    it searches whole the union of Z, whose system is `z_ids`, whose copies
    through a booster pair are `keys`; the core does not run."""
    seen = []

    def decide(m, cons, colours, budget):
        seen.append((m, cons.tolist()))
        return ArrowResult("arrows")

    with mock.patch.object(booster, "_decide", decide):
        assert _union_verdict(z_ids, Z, keys, None) == "arrows"
    return seen[0]


@PROPERTY
@given(unions())
# a booster pair Z already has, in Z's triangle 012 and in the new one 123
@example((Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)]), (0, 1, 3), SPECS[("P3", K3)], K3))
# a union with no new copy: Z's triangle alone
@example((Graph(4, [(0, 1), (0, 2), (1, 2)]), (2, 3), SPECS[("K2", K3)], K3))
# F larger than Z: no copies at all
@example((Graph(3, [(0, 1)]), (1, 2), SPECS[("K2", C4)], C4))
def test_whole_search_system_is_the_union_system_renumbered(case):
    # mapped back to host pairs (Z's edges, then the pairs new to Z in the
    # order the keys first name them), the ids of the whole search's rows
    # give the edge sets of the built union's system, each copy once: Z's
    # rows first, then one row per copy with a new pair
    Z, h, spec, F = case
    img = image_edges(spec.B, h)
    keys, z_ids = _union_keys(Z, img, F), naive_ids(F, Z)
    m, cons = _whole_system(z_ids, Z, keys)
    pairs = list(Z.edges) + list(dict.fromkeys(e for _, es in keys for e in es
                                               if not Z.has_edge(*e)))
    assert m == len(pairs)
    assert cons[:len(z_ids)] == z_ids.tolist()
    U = Z.with_edges(img)
    assert Counter(frozenset(pairs[e] for e in c) for c in cons) == Counter(
        frozenset(U.edges[e] for e in c) for c in copy_constraints(U, F))


@st.composite
def coloured_unions(draw, pool_max=1):
    """(Z, pool, spec, F, phi): a host on at most 10 vertices, half the time
    K_n less the first booster image and up to three more pairs (so that
    some unions arrow), 1 to `pool_max` placements h of a K2, P3, C5 or K4
    booster, F = K3 or C4, and one of Z's F-free colourings as a list, or
    None when Z arrows."""
    F = draw(st.sampled_from((K3, C4)))
    spec = SPECS[(draw(st.sampled_from(sorted(BOOSTERS))), F)]
    n = draw(st.integers(max(spec.B.n, F.n), 10))
    pairs = list(combinations(range(n), 2))
    pool = list(dict.fromkeys(tuple(draw(st.permutations(range(n)))[: spec.B.n])
                              for _ in range(draw(st.integers(1, pool_max)))))
    if draw(st.booleans()):
        rest = sorted(set(pairs) - set(image_edges(spec.B, pool[0])))
        Z = Graph(n, draw(st.permutations(rest))[draw(st.integers(0, 3)):])
    else:
        Z = Graph(n, draw(st.permutations(pairs))[: draw(st.integers(0, len(pairs)))])
    phis = enumerate_f_free_colorings(Z, F, limit=draw(st.integers(1, 8)))
    return Z, pool, spec, F, phis[-1] if phis else None


def _stage1(Z, h, spec, F, phi):
    """(union, extension or None, verdict with phi, verdict without, verdict
    of decide_arrow_union), unbudgeted.  The extension is assembled here
    into a colour per EdgeId of the union: phi on Z, the extension's colour
    on each new pair it names, and red on the new pairs it leaves free."""
    img = image_edges(spec.B, h)
    keys, U = _union_keys(Z, img, F), Z.with_edges(img)
    z_ids = naive_ids(F, Z)
    by_edge = dict(zip(Z.edges, phi)) if phi is not None else None
    by_id = dict(enumerate(phi)) if phi is not None else None
    new = _extend([es for _, es in keys], by_edge) if by_edge is not None else None
    ext = None
    if new is not None:
        assert set(new) <= set(U.edges) - set(Z.edges)  # only new pairs get a colour
        ext = [{**by_edge, **new}.get(e, RED) for e in U.edges]
    return (U, ext, _union_verdict(z_ids, Z, keys, None, by_id),
            _union_verdict(z_ids, Z, keys, None),
            decide_arrow_union(Z, image_graph(spec.B, h, Z.n), F).verdict)


@settings(PROPERTY, max_examples=150)
@given(coloured_unions())
def test_union_verdict_with_and_without_z_colouring_agree(case):
    Z, (h,), spec, F, phi = case
    U, ext, with_phi, without, whole = _stage1(Z, h, spec, F, phi)
    assert with_phi == without == whole != "undecided"
    if len({e for c in copy_constraints(U, F) for e in c}) <= BRUTE_FORCE_EDGE_CAP:
        assert brute_force_arrow(U, F).verdict == whole
    if ext is not None:  # the extension keeps phi on Z and is F-free on U
        assert [ext[U.edge_id(*e)] for e in Z.edges] == phi
        assert is_f_free(ext, U, F)[0] and whole == "not_arrows"


def test_fallback_decides_a_colourable_union_that_phi_does_not_reach():
    # Z = C4 0-1-2-3, phi: 01, 12 red and 23, 03 blue.  The booster edge 02
    # closes the red triangle 012 and the blue triangle 023, so phi does not
    # extend; recolouring Z does (K4 less an edge does not arrow K3).
    Z = cycle_graph(4)
    phi = [RED if e in ((0, 1), (1, 2)) else BLUE for e in Z.edges]
    U, ext, with_phi, without, whole = _stage1(Z, (0, 2), SPECS[("K2", K3)], K3, phi)
    assert ext is None
    assert with_phi == without == whole == "not_arrows"


def test_arrowing_union_is_decided_by_the_whole_search():
    # K6 less the edge 01 does not arrow K3; adding 01 gives K6, which does
    Z = complete_graph(6).without_edges([(0, 1)])
    U, ext, with_phi, without, whole = _stage1(
        Z, (0, 1), SPECS[("K2", K3)], K3, decide_arrow(Z, K3).certificate)
    assert ext is None
    assert with_phi == without == whole == "arrows"


def test_booster_edge_already_in_z():
    # P3 placed on 1-0-2: its edge 01 is an edge of Z and lies in Z's
    # triangle 013, a view copy with no new edge; 02 is new, and U is K4.
    # phi: 01, 03, 12 red and 13, 23 blue; the red path 0-1-2 makes 02 blue.
    Z = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    h, spec = (1, 0, 2), SPECS[("P3", K3)]
    assert set(image_edges(spec.B, h)) & set(Z.edges) == {(0, 1)}
    phi = [BLUE if e in ((1, 3), (2, 3)) else RED for e in Z.edges]
    U, ext, with_phi, without, whole = _stage1(Z, h, spec, K3, phi)
    assert ext[U.edge_id(0, 2)] == BLUE and is_f_free(ext, U, K3)[0]
    assert with_phi == without == whole == "not_arrows"


def test_extension_needs_no_core_only_when_every_copy_meets_two_colours():
    # the triangle 012 through the booster edge 02 sees red 01 and blue 12,
    # so any colour of 02 extends phi
    Z, spec = path_graph(3), SPECS[("K2", K3)]
    cons = [es for _, es in _union_keys(Z, image_edges(spec.B, (0, 2)), K3)]
    assert _extend(cons, {(0, 1): RED, (1, 2): BLUE}) == {}
    assert _extend(cons, {(0, 1): RED, (1, 2): RED}) == {(0, 2): BLUE}
    # a K4 booster away from Z's one edge: its four triangles have no edge
    # of Z, so each must get both colours among its new pairs
    Z, spec = Graph(6, [(4, 5)]), SPECS[("K4", K3)]
    U, ext, with_phi, without, whole = _stage1(Z, (0, 1, 2, 3), spec, K3, [RED])
    assert is_f_free(ext, U, K3)[0]
    assert with_phi == without == whole == "not_arrows"


def _check_stage1_views(Z, pool, spec, F, phi, budget=None, arrow_filter=True):
    """Stage 1 keeps exactly the arrowing unions of the pool, in pool
    order, and the view it builds from each one's keys is `union_view`."""
    unions = list(_unions(Z, naive_ids(F, Z), pool, spec, F, budget, phi, arrow_filter))
    assert [h for h, *_ in unions] == pool
    views = {h: _view_from_keys(Z, img, keys) for h, img, keys, v in unions if v == "arrows"}
    assert list(views) == [h for h in pool if h in views]
    for h, view in views.items():
        assert view == union_view(Z, h, spec, F)
    return views


@settings(PROPERTY, max_examples=60)
@given(coloured_unions(pool_max=4))
def test_stage1_views_equal_union_view(case):
    Z, pool, spec, F, phi = case
    views = _check_stage1_views(Z, pool, spec, F, phi and dict(enumerate(phi)))
    for h in pool:
        arrows = decide_arrow_union(Z, image_graph(spec.B, h, Z.n), F).verdict == "arrows"
        assert (h in views) == arrows
    assert list(_check_stage1_views(Z, pool, spec, F, None, arrow_filter=False)) == pool


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


def test_stage1_views_equal_union_view_on_golden_hosts():
    for label, (build, booster, extra) in GOLDEN_CASES.items():
        Z, spec = build(), SPECS[(booster, K3)]
        pool = embedding_pool(spec.B, Z.n, extra.get("pool_size"), Seed(510).substream(0))
        cert = decide_arrow(Z, K3, budget=2000).certificate
        phi = cert and dict(enumerate(cert))
        views = _check_stage1_views(Z, pool, spec, K3, phi, 2000,
                                    extra.get("arrow_filter", True))
        assert len(views) == GOLDEN[label]["report"]["psi1"], label


def test_stage2_flags_from_the_keys_match_the_oracle_on_golden_hosts():
    # stage 2 reads badness off the keys stage 1 holds for each arrowing
    # union: its removals and psi2 are those of the oracle's flags
    for label, (build, booster, extra) in GOLDEN_CASES.items():
        Z, spec = build(), SPECS[(booster, K3)]
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        _, report = construct_normal_family(Z, spec, K3, params, seed=Seed(510))
        pool = embedding_pool(spec.B, Z.n, extra.get("pool_size"), Seed(510).substream(0))
        z_ids, _, phi = _z_analysis(Z, K3, 2000)
        removed, good = Counter(), 0
        for h, img, _, v in _unions(Z, z_ids, pool, spec, K3, 2000, phi,
                                    extra.get("arrow_filter", True)):
            if v == "arrows":
                flags = naive_bad_flags(Z, img, K3, Z.with_edges(img))
                removed.update(k for k, bad in flags.items() if bad)
                good += not any(flags.values())
                assert classify_bad(Z, h, spec, K3) == {**flags, "bad": any(flags.values())}
        assert {k: report["removed"].get(k, 0) for k in ("B1", "B2", "B3")} == {
            k: removed[k] for k in ("B1", "B2", "B3")}, label
        assert report["psi2"] == good, label


def _check_reduced_phi(Z, pool, spec, F):
    """Z's colouring φ keeps each copy inside Z two-coloured on its fixed
    edges and agrees with Z's certificate, and with it stage 1 gives
    `decide_arrow_union`'s verdicts.  Returns the number of edges it drops."""
    z_ids, z_res, phi = _z_analysis(Z, F, None)
    assert z_ids.tolist() == naive_ids(F, Z).tolist()
    if z_res.certificate is None:
        assert phi is None
        return 0
    assert phi.items() <= dict(enumerate(z_res.certificate)).items()
    assert all(len({phi[e] for e in es if e in phi}) == 2 for es in z_ids.tolist())
    for h, _, _, v in _unions(Z, z_ids, pool, spec, F, None, phi):
        assert v == decide_arrow_union(Z, image_graph(spec.B, h, Z.n), F).verdict
    return Z.num_edges() - len(phi)


@settings(PROPERTY, max_examples=100)
@given(coloured_unions(pool_max=3))
def test_stage1_with_the_reduced_z_colouring(case):
    Z, pool, spec, F, _ = case
    _check_reduced_phi(Z, pool, spec, F)


def test_reduced_z_colouring_on_seeded_hosts():
    dropped = 0
    for i in range(12):
        Z = gnp_sample(11, 0.5, Seed(520, i))
        spec = SPECS[(("K2", "P3", "C5")[i % 3], K3)]
        dropped += _check_reduced_phi(Z, embedding_pool(spec.B, Z.n, 30, Seed(521, i)), spec, K3)
    assert dropped > 0


def test_each_host_collects_its_copies_once(monkeypatch):
    # Z is decided on the id rows that every union's whole search reads, so
    # one call collects Z's copies once, unanchored
    Z, spec = k6_minus_edge_block(8, Seed(501))[0], SPECS[("K2", K3)]
    collections = []
    search = counting._copy_array  # every unanchored collection

    def spy(F, adj):
        if adj is Z.adj:
            collections.append(F)
        return search(F, adj)

    monkeypatch.setattr(counting, "_copy_array", spy)
    params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4)}
    construct_normal_family(Z, spec, K3, params, seed=Seed(510))
    assert collections == [K3]
    collections.clear()
    report = check_interactive_regular(Z, embedding_pool(spec.B, Z.n)[:6], spec, K3)
    assert collections == [K3]
    assert {r["union_verdict"] for r in report["per_h"]} == {"arrows", "not_arrows"}
