"""The one analysis of each union Z ∪ h(B) (`booster.union_view`),
checked against full enumeration of the union and the naive oracles; the
system a union's whole search solves, Z's rows and the union's renumbered
ones, checked against `_id_array` of the built union; the
stage-1 union verdict from the copies through the pairs the union adds
to Z, with and without Z's colouring, checked against
`decide_arrow_union` and the brute-force oracle, also with Z's colouring
reduced to the edges its copies need, on hosts where many unions add no
pair or repeat a set of added pairs, and under a node budget that
leaves Z undecided; one decision per set of added pairs; the views
built from the unions' keys, checked against `union_view`; stage 2's
badness from the keys, checked against the naive oracle; one collection
of Z's copies per call; and the booster pipeline's outputs pinned on
seeded hosts.  A union decided by a Ramsey clique through an added pair
is checked against the oracles, and so is the clique, its witness.  Z's
colouring repaired at a union's added pairs is checked against the
pull-back and the oracles, and a union it answers collects no copy.
"""

import json
from collections import Counter
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from instances import block_host, k6_minus_edge_block, two_block_host
from oracles import check_pulled_back, naive_bad_flags, naive_copies

from ramseylab import arrowing, booster, counting, experiments

from ramseylab.arrowing import (
    BLUE,
    BRUTE_FORCE_EDGE_CAP,
    RED,
    ArrowResult,
    _clique_colouring,
    _extend,
    _id_array,
    _ramsey_clique,
    _repaired_colouring,
    brute_force_arrow,
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
    verify_normal_family,
)
from ramseylab.counting import enumerate_copies
from ramseylab.experiments import threshold_curve
from ramseylab.graphs import (
    Graph,
    Seed,
    _or_pairs,
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
    U = Graph(Z.n, [*Z.edges, *image_edges(spec.B, h)])
    assert U == union(Z, image_graph(spec.B, h, Z.n))
    assert view == _view_from_keys(Z, image_edges(spec.B, h), keys)
    # the keys are exactly the copies through a booster edge, in key order
    img = set(image_edges(spec.B, h))
    assert keys == [c.key() for c in enumerate_copies(F, U).copies if c.edges & img]
    # the focus set is the naive one, plus any edge of Z that is also a
    # booster edge: such an edge focuses on itself even in no copy of F
    shared = {Z.edge_id(*e) for e in img & set(Z.edges)}
    naive = _naive_focus_members(Z, _naive_copies(set(Z.edges), img, F, U))
    assert view.members == tuple(sorted(set(naive) | shared))
    ref = naive_bad_flags(Z, img, F, U)
    assert view.flags == classify_bad(Z, h, spec, F) == {**ref, "bad": any(ref.values())}


def added_keys(Z, img, F):
    """The copy keys of the union of Z and the booster pairs `img` through
    the pairs it adds to Z: the copies `_union_verdict` collects."""
    return _union_keys(Z, [e for e in img if not Z.has_edge(*e)], F)


def _verdict(Z, z, img, F, colour=None):
    """`_union_verdict` on the union of Z and the booster pairs `img`, `z`
    being Z's analysis and `colour` Z's vertex colouring, unbudgeted."""
    adj = list(Z.adj)
    return _union_verdict(Z, z, colour, adj, _or_pairs(adj, img), F, None)


def _whole_system(z_ids, Z, img, F):
    """(variable count, id rows) that `_union_verdict` hands the core when
    it searches whole the union of Z, whose system is `z_ids`, and the
    booster pairs `img`; every source before the search is stubbed to miss,
    and the core does not run."""
    seen = []

    def decide(m, cons, budget):
        seen.append((m, cons.tolist()))
        return ArrowResult("arrows")

    with mock.patch.multiple(booster, _decide=decide, _repaired_colouring=lambda *a: None), \
            mock.patch.multiple(arrowing, _holds_copy=lambda *a: None,
                                _clique_colouring=lambda *a: None):
        assert _verdict(Z, (z_ids, None, None), img, F) == ("arrows", "searched")
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
    keys, z_ids = added_keys(Z, img, F), naive_ids(F, Z)
    U = Graph(Z.n, [*Z.edges, *img])
    m, cons = _whole_system(z_ids, Z, img, F)
    pairs = list(Z.edges) + list(dict.fromkeys(e for _, es in keys for e in es
                                               if not Z.has_edge(*e)))
    assert m == len(pairs)
    assert cons[:len(z_ids)] == z_ids.tolist()
    assert Counter(frozenset(pairs[e] for e in c) for c in cons) == Counter(
        frozenset(U.edges[e] for e in c) for c in _id_array(U, F).tolist())


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
    """(union, extension or None, how stage 1 decides it, its verdict, the
    verdict with neither phi nor Z's vertex colouring, the verdict of
    decide_arrow_union), unbudgeted.  The extension is assembled here into
    a colour per EdgeId of the union: phi on Z, the extension's colour on
    each new pair it names, and red on the new pairs it leaves free."""
    img = image_edges(spec.B, h)
    keys, U = added_keys(Z, img, F), Graph(Z.n, [*Z.edges, *img])
    z_ids = naive_ids(F, Z)
    by_edge = dict(zip(Z.edges, phi)) if phi is not None else None
    by_id = dict(enumerate(phi)) if phi is not None else None
    new = _extend([es for _, es in keys], by_edge) if by_edge is not None else None
    ext = None
    if new is not None:
        assert set(new) <= set(U.edges) - set(Z.edges)  # only new pairs get a colour
        ext = [{**by_edge, **new}.get(e, RED) for e in U.edges]
    with_phi, how = _verdict(Z, (z_ids, None, by_id), img, F, _clique_colouring(F, Z.adj))
    return (U, ext, how, with_phi, _verdict(Z, (z_ids, None, None), img, F)[0],
            decide_arrow_union(Z, image_graph(spec.B, h, Z.n), F).verdict)


@settings(PROPERTY, max_examples=150)
@given(coloured_unions())
def test_union_verdict_with_and_without_z_colouring_agree(case):
    Z, (h,), spec, F, phi = case
    U, ext, _, with_phi, without, whole = _stage1(Z, h, spec, F, phi)
    assert with_phi == without == whole != "undecided"
    if len({e for c in _id_array(U, F).tolist() for e in c}) <= BRUTE_FORCE_EDGE_CAP:
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
    U, ext, how, with_phi, without, whole = _stage1(Z, (0, 2), SPECS[("K2", K3)], K3, phi)
    assert ext is None and how == "colouring"
    assert with_phi == without == whole == "not_arrows"


def test_arrowing_union_is_decided_by_the_whole_search():
    # Graham's K8 - C5 less the edge 56 does not arrow K3; adding 56 gives
    # K8 - C5, which does, yet holds no K6 and takes six colours, so no
    # source before the search answers it
    Z = complete_graph(8).without_edges([*cycle_graph(5).edges, (5, 6)])
    U, ext, how, with_phi, without, whole = _stage1(
        Z, (5, 6), SPECS[("K2", K3)], K3, decide_arrow(Z, K3).certificate)
    assert ext is None and how == "searched"
    assert with_phi == without == whole == "arrows"


def test_booster_edge_already_in_z():
    # P3 placed on 1-0-2: its edge 01 is an edge of Z and lies in Z's
    # triangle 013, a view copy with no new edge; 02 is new, and U is K4.
    # phi: 01, 03, 12 red and 13, 23 blue; the red path 0-1-2 makes 02 blue.
    Z = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (1, 3)])
    h, spec = (1, 0, 2), SPECS[("P3", K3)]
    assert set(image_edges(spec.B, h)) & set(Z.edges) == {(0, 1)}
    phi = [BLUE if e in ((1, 3), (2, 3)) else RED for e in Z.edges]
    U, ext, _, with_phi, without, whole = _stage1(Z, h, spec, K3, phi)
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
    U, ext, _, with_phi, without, whole = _stage1(Z, (0, 1, 2, 3), spec, K3, [RED])
    assert is_f_free(ext, U, K3)[0]
    assert with_phi == without == whole == "not_arrows"


def _check_stage1_views(Z, pool, spec, F, phi, budget=None):
    """Stage 1 keeps exactly the arrowing unions of the pool, in pool
    order, and the view built from each one's keys is `union_view`."""
    z = naive_ids(F, Z), decide_arrow(Z, F, budget=budget), phi
    unions = list(_unions(Z, z, pool, spec, F, budget))
    assert [h for h, *_ in unions] == pool
    views = {h: _view_from_keys(Z, img, _union_keys(Z, img, F))
             for h, img, v, _ in unions if v == "arrows"}
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
    # with φ None no union is answered by extending φ: Z's repaired vertex
    # colouring, the Ramsey clique, the greedy pass and the whole search
    # answer them all, to the same views
    assert _check_stage1_views(Z, pool, spec, F, None) == views


GOLDEN = json.loads((Path(__file__).parent / "golden_booster.json").read_text())
# label -> (host, booster, extra params); values recorded from the pipeline
# that shares one view per union, on path-keyed seeds
GOLDEN_CASES = {
    "block8-K2-full": (lambda: k6_minus_edge_block(8, Seed(501))[0], "K2", {}),
    "two-block-K2-full": (lambda: two_block_host(Seed(502))[0], "K2", {}),
    "block9-P3-sampled": (lambda: k6_minus_edge_block(9, Seed(503))[0], "P3",
                          {"pool_size": 40}),
    "two-block-P3-sampled": (lambda: two_block_host(Seed(504))[0], "P3", {"pool_size": 60}),
    "gnp10-K2-sampled": (lambda: gnp_sample(10, 0.5, Seed(505)), "K2", {"pool_size": 20}),
    # P3 placements across three blocks: some arrowing unions are bad, and
    # the selection draws placements sharing two vertices (overlap removals)
    "three-block-P3-full": (lambda: block_host(18, 3, Seed(507))[0], "P3", {}),
    "block7-P3-full": (lambda: k6_minus_edge_block(7, Seed(506))[0], "P3", {}),
}


def test_golden_booster_pipeline():
    assert set(GOLDEN) == set(GOLDEN_CASES)
    for label, (build, booster, extra) in GOLDEN_CASES.items():
        Z, spec = build(), SPECS[(booster, K3)]
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        xi0, report = construct_normal_family(Z, spec, K3, params, seed=Seed(510))
        assert verify_normal_family(Z, xi0, spec, K3, params)["ok"], label
        got = {"family": [list(h) for h in xi0], "report": report}
        if xi0:
            xi, prof, rrep = restrict_index_consistent(Z, xi0, spec, K3, 12, seed=Seed(511))
            bh = build_hypergraph(Z, xi, spec, K3, prof)
            got["restricted"] = {
                "family": [list(h) for h in xi], "profile": list(prof.pi) if prof else None,
                "report": rrep, "hyperedges": [list(fs.members) for fs in bh.focus_sets]}
        assert json.loads(json.dumps(got)) == GOLDEN[label], label
        assert sum(report["stage1"].values()) == report["pool"], label


def test_stage1_views_equal_union_view_on_golden_hosts():
    for label, (build, booster, extra) in GOLDEN_CASES.items():
        Z, spec = build(), SPECS[(booster, K3)]
        pool = embedding_pool(spec.B, Z.n, extra.get("pool_size"), Seed(510).substream(0))
        cert = decide_arrow(Z, K3, budget=2000).certificate
        phi = cert and dict(enumerate(cert))
        views = _check_stage1_views(Z, pool, spec, K3, phi, 2000)
        assert len(views) == GOLDEN[label]["report"]["psi1"], label


def test_stage2_flags_from_the_keys_match_the_oracle_on_golden_hosts(monkeypatch):
    # stage 2 reads each arrowing union's keys once, into one view whose
    # flags give its badness: its removals and psi2 are those of the
    # oracle's flags
    collected, keys_of = [], booster._union_keys
    monkeypatch.setattr(booster, "_union_keys",
                        lambda *args: collected.append(1) or keys_of(*args))
    for label, (build, name, extra) in GOLDEN_CASES.items():
        Z, spec = build(), SPECS[(name, K3)]
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        collected.clear()
        _, report = construct_normal_family(Z, spec, K3, params, seed=Seed(510))
        assert len(collected) == report["psi1"], label
        pool = embedding_pool(spec.B, Z.n, extra.get("pool_size"), Seed(510).substream(0))
        removed, good = Counter(), 0
        for h, img, v, _ in _unions(Z, _z_analysis(Z, K3, 2000), pool, spec, K3, 2000):
            if v == "arrows":
                flags = naive_bad_flags(Z, img, K3, Graph(Z.n, [*Z.edges, *img]))
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
    for h, _, v, _ in _unions(Z, (z_ids, z_res, phi), pool, spec, F, None):
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


def added_sets(Z, pool, spec):
    """The set of pairs each union of `pool` adds to Z, in pool order."""
    return [frozenset(e for e in image_edges(spec.B, h) if not Z.has_edge(*e)) for h in pool]


def test_stage1_verdicts_where_unions_add_nothing_or_repeat_a_set():
    # P3 placements on K6-e blocks share their added pairs with many other
    # placements, and K2 on a dense G(10, 1/2) mostly lands on an edge of Z
    cases = [(k6_minus_edge_block(n, Seed(530, n))[0], SPECS[("P3", K3)]) for n in (8, 9)]
    cases += [(gnp_sample(10, 0.5, Seed(531, i)), SPECS[("K2", K3)]) for i in range(3)]
    hows = Counter()
    for Z, spec in cases:
        pool = embedding_pool(spec.B, Z.n)
        for (h, _, v, how), added in zip(_unions(Z, _z_analysis(Z, K3, None), pool, spec, K3, None),
                                         added_sets(Z, pool, spec)):
            assert v == decide_arrow_union(Z, image_graph(spec.B, h, Z.n), K3).verdict
            assert (how == "no_pair") == (not added)
            hows[how] += 1
    assert hows["no_pair"] > 0 and hows["repeat"] > 0 and hows["searched"] > 0


def _spy_repairs(monkeypatch):
    """A list that fills as stage 1 runs with (added pairs, the union's
    rows, the answer) for each union whose Z colouring `_repaired_colouring`
    tries: the first source of `_union_verdict`."""
    repairs, repaired = [], booster._repaired_colouring

    def spy(F, colour, adj, pairs):
        repairs.append((frozenset(pairs), adj, repaired(F, colour, adj, pairs)))
        return repairs[-1][2]

    monkeypatch.setattr(booster, "_repaired_colouring", spy)
    return repairs


def test_one_decision_per_set_of_added_pairs(monkeypatch):
    # each distinct set of added pairs is handed to `_union_verdict` once
    Z, spec = k6_minus_edge_block(9, Seed(503))[0], SPECS[("P3", K3)]
    verdicts, decide = [], booster._union_verdict
    monkeypatch.setattr(booster, "_union_verdict", lambda Z, z, colour, adj, added, F, budget: (
        verdicts.append(frozenset(added)) or decide(Z, z, colour, adj, added, F, budget)))
    params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4)}
    _, report = construct_normal_family(Z, spec, K3, params, seed=Seed(510))
    added = added_sets(Z, embedding_pool(spec.B, Z.n), spec)
    some = [pairs for pairs in added if pairs]
    assert len(verdicts) == len(set(verdicts)) == len(set(some))
    assert set(verdicts) == set(some)
    stage1 = report["stage1"]
    assert stage1["no_pair"] == len(added) - len(some)
    assert stage1["repeat"] == len(some) - len(set(some)) > 0
    assert sum(stage1.values()) == report["pool"] == len(added)


def _clique_answers(monkeypatch):
    """A list that fills, as stage 1 runs, with (Z, booster pairs, witness)
    for each union it decides by a Ramsey clique: the map `_holds_copy`
    returned for that union."""
    answers, found = [], []
    holds, unions = arrowing._holds_copy, booster._unions

    def spy_holds(F, adj, anchors=None):
        found.append(holds(F, adj, anchors))
        return found[-1]

    def spy_unions(Z, z, pool, spec, F, budget):
        for h, img, v, how in unions(Z, z, pool, spec, F, budget):
            if how == "clique":
                answers.append((Z, img, found[-1]))
            yield h, img, v, how

    monkeypatch.setattr(arrowing, "_holds_copy", spy_holds)
    monkeypatch.setattr(booster, "_unions", spy_unions)
    return answers


def _check_clique_witness(Z, img, witness, F):
    # r distinct vertices, pairwise adjacent in the built union, one pair
    # of them added by h(B); K_r arrows F
    r = _ramsey_clique(F).n
    U = Graph(Z.n, [*Z.edges, *img])
    added = {e for e in U.edges if not Z.has_edge(*e)}
    assert len(witness) == len(set(witness)) == r
    pairs = {(u, v) if u < v else (v, u) for u, v in combinations(witness, 2)}
    assert all(U.has_edge(u, v) for u, v in pairs)
    assert pairs & added


def test_clique_answers_carry_a_witness(monkeypatch):
    # on the golden hosts and on one seeded run of a three-block host
    assert brute_force_arrow(_ramsey_clique(K3), K3).verdict == "arrows"
    answers = _clique_answers(monkeypatch)
    runs = [(build(), SPECS[(booster_name, K3)], extra, Seed(510))
            for build, booster_name, extra in GOLDEN_CASES.values()]
    runs.append((block_host(20, 3, Seed(541))[0], SPECS[("P3", K3)], {"pool_size": 400},
                 Seed(542)))
    for Z, spec, extra, seed in runs:
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        del answers[:]
        _, report = construct_normal_family(Z, spec, K3, params, seed=seed)
        assert len(answers) == report["stage1"]["clique"]
        for _, img, witness in answers:
            _check_clique_witness(Z, img, witness, K3)
    assert report["stage1"]["clique"] > 0


def _colouring_runs():
    """(Z, spec, extra params, seed): the golden hosts and a seeded G(12, 1/2)
    with a C5 booster."""
    runs = [(build(), SPECS[(booster_name, K3)], extra, Seed(510))
            for build, booster_name, extra in GOLDEN_CASES.values()]
    runs.append((gnp_sample(12, 0.5, Seed(543)), SPECS[("C5", K3)], {"pool_size": 40},
                 Seed(544)))
    return runs


def test_colouring_answers_pull_back_to_f_free_colourings(monkeypatch):
    # each union that stage 1 answers by a colouring of its vertices, Z's
    # repaired or a greedy pass on the union's own, is checked on its rows:
    # proper in five colours, with an F-free pull-back
    found, colouring = [], arrowing._clique_colouring

    def spy(F, adj):
        found.append((adj, colouring(F, adj)))
        return found[-1][1]

    monkeypatch.setattr(arrowing, "_clique_colouring", spy)
    repairs = _spy_repairs(monkeypatch)
    answered = repaired = 0
    for Z, spec, extra, seed in _colouring_runs():
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        del found[:], repairs[:]
        _, report = construct_normal_family(Z, spec, K3, params, seed=seed)
        # the spy sees the chain's greedy passes, not `_unions`' one on Z
        answers = [(adj, colour) for _, adj, colour in repairs if colour is not None]
        colourings = [(adj, colour) for adj, colour in found if colour is not None] + answers
        assert len(colourings) == report["stage1"]["colouring"]
        for adj, colour in colourings:
            check_pulled_back(colour, adj, K3)
        answered, repaired = answered + len(colourings), repaired + len(answers)
    assert answered > repaired > 10


@st.composite
def gnp_unions(draw):
    """(Z, h, spec, K3): a seeded G(n, p) host Z on at most 9 vertices and
    a K2, P3 or C5 booster placed by an injection h."""
    spec = SPECS[(draw(st.sampled_from(("C5", "K2", "P3"))), K3)]
    n = draw(st.integers(max(spec.B.n, 3), 9))
    Z = gnp_sample(n, draw(st.sampled_from((0.3, 0.5, 0.7))), Seed(draw(st.integers(0, 999))))
    return Z, tuple(draw(st.permutations(range(n)))[: spec.B.n]), spec, K3


def _repaired(Z, h, spec, F):
    """(the union's rows, Z's colouring repaired at its added pairs or None)."""
    adj = list(Z.adj)
    added = _or_pairs(adj, image_edges(spec.B, h))
    return adj, _repaired_colouring(F, _clique_colouring(F, Z.adj), adj, added)


# K6 less 04, 23 and 45 with the C5 0-1-2-3-4, which adds 04 and 23: Z is
# coloured 1, 0, 2, 2, 1, 3
BLOCKED = (complete_graph(6).without_edges([(0, 4), (2, 3), (4, 5)]), (0, 1, 2, 3, 4),
           SPECS[("C5", K3)], K3)


@PROPERTY
@given(gnp_unions())
# the path 0-1-2 is coloured 1, 0, 1; the booster pair 02 moves 0 to colour 2
@example((path_graph(3), (0, 2), SPECS[("K2", K3)], K3))
# 04 moves 0 to colour 4, then both ends of 23 see all five colours; the
# union, K6 less 45, takes five colours in a greedy pass of its own
@example(BLOCKED)
# C4 is not complete: no colouring of Z to repair
@example((path_graph(3), (0, 2), SPECS[("K2", C4)], C4))
def test_repaired_colouring_proves_not_arrows(case):
    # an answer is proper on the union's rows in at most five colours with
    # an F-free pull-back (`check_pulled_back`), the oracle agrees, and only
    # ends of added pairs leave Z's colour
    Z, h, spec, F = case
    adj, colour = _repaired(Z, h, spec, F)
    if colour is None:
        return
    U = check_pulled_back(colour, adj, F)
    if len({e for c in _id_array(U, F).tolist() for e in c}) <= BRUTE_FORCE_EDGE_CAP:
        assert brute_force_arrow(U, F).verdict == "not_arrows"
    else:
        assert decide_arrow(U, F).verdict == "not_arrows"
    ends = {v for e in image_edges(spec.B, h) if not Z.has_edge(*e) for v in e}
    assert {v for v, c in enumerate(_clique_colouring(F, Z.adj)) if colour[v] != c} <= ends


def test_repaired_colouring_pinned_unions():
    assert _repaired(path_graph(3), (0, 2), SPECS[("K2", K3)], K3)[1] == [2, 0, 1]
    assert _clique_colouring(K3, BLOCKED[0].adj) == [1, 0, 2, 2, 1, 3]
    adj, colour = _repaired(*BLOCKED)
    assert colour is None and _clique_colouring(K3, adj) == [0, 1, 2, 3, 4, 4]
    assert _repaired(path_graph(3), (0, 2), SPECS[("K2", C4)], C4)[1] is None
    # stage 1 answers the blocked union by the greedy pass on its rows
    Z, h, spec, F = BLOCKED
    assert [how for *_, how in _unions(Z, _z_analysis(Z, F, None), [h], spec, F, None)] == [
        "colouring"]


def test_copies_are_collected_only_for_unions_that_reach_the_union_verdict(monkeypatch):
    # stage 1 collects a union's copies through its added pairs only when Z's
    # repaired colouring, the first source of `_union_verdict`, does not
    # answer it, and stage 2 once per arrowing union, through its booster
    # pairs
    anchored, anchored_copies = [], booster._anchored_copies
    monkeypatch.setattr(booster, "_anchored_copies", lambda F, adj, anchors: anchored.append(
        frozenset(anchors)) or anchored_copies(F, adj, anchors))
    repairs = _spy_repairs(monkeypatch)
    skipped = 0
    for Z, spec, extra, seed in _colouring_runs():
        params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "alpha": Fraction(1, 4),
                  "budget": 2000, **extra}
        del anchored[:], repairs[:]
        _, report = construct_normal_family(Z, spec, K3, params, seed=seed)
        collected = [pairs for pairs, _, colour in repairs if colour is None]
        assert anchored[:len(collected)] == collected
        stage2 = anchored[len(collected):]
        skipped += len(repairs) - len(collected)
        pool = embedding_pool(spec.B, Z.n, extra.get("pool_size"), seed.substream(0))
        arrowing = [frozenset(img) for h, img, v, _ in
                    _unions(Z, _z_analysis(Z, K3, 2000), pool, spec, K3, 2000) if v == "arrows"]
        assert stage2 == arrowing and len(arrowing) == report["psi1"]
    assert skipped > 0



@settings(PROPERTY, max_examples=60)
@given(coloured_unions(pool_max=4), st.sampled_from((None, 1)))
def test_stage1_clique_verdicts_agree_with_the_oracles(case, budget):
    # a clique answer arrows by brute force where the union's constrained
    # edges fit under the cap, and by an unbudgeted solve elsewhere; with
    # one node, the clique decides unions that a search may leave undecided
    Z, pool, spec, F, _ = case
    for h, img, v, how in _unions(Z, _z_analysis(Z, F, budget), pool, spec, F, budget):
        if how != "clique":
            continue
        assert v == "arrows"
        U = Graph(Z.n, [*Z.edges, *img])
        if len({e for c in _id_array(U, F).tolist() for e in c}) <= BRUTE_FORCE_EDGE_CAP:
            assert brute_force_arrow(U, F).verdict == "arrows"
        else:
            assert decide_arrow(U, F).verdict == "arrows"


def test_union_adding_no_pair_keeps_z_undecided_at_a_small_budget():
    # K6 on 7 vertices arrows K3, but not within one node; a K2 booster on
    # an edge of K6 adds no pair, so its union is Z and undecided too
    Z, spec = Graph(7, combinations(range(6), 2)), SPECS[("K2", K3)]
    assert decide_arrow(Z, K3, budget=1).verdict == "undecided"
    pool = embedding_pool(spec.B, Z.n)
    for budget, verdict in ((1, "undecided"), (None, "arrows")):
        unions = list(_unions(Z, _z_analysis(Z, K3, budget), pool, spec, K3, budget))
        assert {v for h, _, v, how in unions if how == "no_pair"} == {verdict}
        assert sum(how == "no_pair" for *_, how in unions) == Z.num_edges()
    report = check_interactive_regular(Z, [(0, 1), (0, 6)], spec, K3, budget=1)
    assert report["per_h"][0]["union_verdict"] == "undecided"
    params = {"D": 4, "delta": Fraction(1, 12), "p": 0.5, "budget": 1}
    _, report = construct_normal_family(Z, spec, K3, params, seed=Seed(510))
    assert report["stage1"]["no_pair"] == Z.num_edges()
    assert report["removed"]["undecided"] >= Z.num_edges()


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


def _chain_answers(monkeypatch, module):
    """A list that fills with (F, host rows, anchors, answer) for each host
    that `module` hands `arrowing._exact_verdict`."""
    answers, chain = [], module._exact_verdict

    def spy(F, adj, anchors, search):
        answers.append((F, adj, anchors, chain(F, adj, anchors, search)))
        return answers[-1][3]

    monkeypatch.setattr(module, "_exact_verdict", spy)
    return answers


def _check_chain_answer(F, Z, adj, anchors, res):
    """Check one answer of the chain on its host U, the union of Z and the
    pairs `anchors` numbers after Z's edges when Z is given, else the host
    sampled whole: a clique witness is r distinct pairwise adjacent
    vertices, a colouring witness pulls back to an F-free colouring, and a
    search certificate, read on U's pairs, is F-free."""
    U = Graph(len(adj), [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
                         if adj[u] >> v & 1])
    if res.source == "clique":
        assert res.verdict == "arrows"
        assert len(set(res.witness)) == len(res.witness) == _ramsey_clique(F).n
        assert all(U.has_edge(u, v) for u, v in combinations(res.witness, 2))
    elif res.source == "colouring":
        assert res.verdict == "not_arrows"
        check_pulled_back(res.witness, adj, F)
    else:
        assert res.source == "searched" and res.witness is None
        if res.verdict == "not_arrows":
            ids = U._index if Z is None else {**Z._index, **anchors}
            colours = [res.certificate[ids[e]] if e in ids else RED for e in U.edges]
            assert is_f_free(colours, U, F)[0]


def test_every_chain_answer_carries_checkable_evidence(monkeypatch):
    # the hosts `solver_verdict` hands the chain on a small K3 and C4 grid,
    # where every source answers, and the unions stage 1 hands it on the
    # golden hosts, where the clique answers most
    answers = _chain_answers(monkeypatch, experiments)
    threshold_curve(K3, 30, [1.5, 2.0, 2.5], 8, Seed(545), budget=600)
    threshold_curve(C4, 13, [2.5, 3.0, 3.5], 6, Seed(546), budget=1000)
    checked = Counter()
    for F, adj, anchors, res in answers:
        _check_chain_answer(F, None, adj, anchors, res)
        checked[res.source, res.verdict] += 1
    assert set(checked) == {("clique", "arrows"), ("colouring", "not_arrows"),
                            ("searched", "not_arrows"), ("searched", "arrows")}, checked
    unions, checked = _chain_answers(monkeypatch, booster), Counter()
    for Z, spec, extra, seed in _colouring_runs()[:-1]:
        del unions[:]
        pool = embedding_pool(spec.B, Z.n, extra.get("pool_size"), seed.substream(0))
        list(_unions(Z, _z_analysis(Z, K3, 2000), pool, spec, K3, 2000))
        for F, adj, anchors, res in unions:
            _check_chain_answer(F, Z, adj, anchors, res)
            checked[res.source] += 1
    assert checked["clique"] > checked["searched"] > 0, checked
