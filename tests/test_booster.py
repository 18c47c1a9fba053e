import re
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramseylab.arrowing import decide_arrow
from ramseylab.counting import _norm, enumerate_copies
from ramseylab.booster import (
    BoosterSpec,
    Hypergraph,
    _is_bad,
    _union_keys,
    _view_from_keys,
    activated_set,
    alpha_tilde,
    brute_force_cores,
    build_hypergraph,
    check_interactive_regular,
    classify_bad,
    construct_normal_family,
    embedding_pool,
    hypergraph_stats,
    image_edges,
    image_graph,
    make_booster_spec,
    pair_relations,
    profile_of,
    restrict_index_consistent,
    verify_core_properties,
    verify_index_consistent,
    union_view,
    verify_normal_family,
)
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    gnp_sample,
    path_graph,
    union,
)

from instances import interactive_instance, assert_instance_well_formed
from oracles import (
    naive_bad_flags,
    naive_copies,
    naive_hypergraph_stats,
    naive_maximal_independent_sets,
    reference_hypergraph_stats,
)

K3 = complete_graph(3)


def test_booster_spec_rejects_arrowing_patterns():
    spec = make_booster_spec(cycle_graph(5), K3)
    assert len(spec.sigma) == 5
    with pytest.raises(ValueError):
        make_booster_spec(complete_graph(6), K3)


def test_focus_set_fixtures():
    Z = Graph(4, [(1, 2)])
    spec = make_booster_spec(path_graph(3), K3)
    fs = union_view(Z, (2, 3, 1), spec, K3)  # image edges {2,3},{1,3}
    assert [Z.edges[i] for i in fs.members] == [(1, 2)]
    # no interaction at all
    Zfar = Graph(6, [(4, 5)])
    assert union_view(Zfar, (0, 1, 2), spec, K3).members == ()
    # all triangle edges through a missing pair
    Z2 = complete_graph(4).without_edges([(0, 1)])
    spec2 = make_booster_spec(complete_graph(2), K3)
    members = {Z2.edges[i] for i in union_view(Z2, (0, 1), spec2, K3).members}
    assert members == {(0, 2), (1, 2), (0, 3), (1, 3)}


def test_classify_bad_fixtures():
    Z = Graph(4, [(1, 2)])
    spec = make_booster_spec(path_graph(3), K3)
    flags = classify_bad(Z, (2, 3, 1), spec, K3)
    assert flags["B1"] and flags["bad"]
    Zfar = Graph(6, [(4, 5)])
    assert not classify_bad(Zfar, (0, 1, 2), spec, K3)["bad"]


@pytest.mark.parametrize("F, B, seed, h, flags", [
    # B2 alone: two triangles share a Z-only edge, each through its own P3 edge
    (K3, path_graph(3), 2, (7, 6, 3), (False, True, False)),
    # B3 alone: two 4-cycles through the one K2 pair share a Z-only edge (for
    # K3 a shared booster pair and a shared Z-only edge make the copy B1)
    (cycle_graph(4), complete_graph(2), 0, (0, 6), (False, False, True)),
    # three triangles through a booster pair, no Z-only edge in two of them
    (K3, path_graph(3), 1, (1, 0, 2), (False, False, False)),
])
def test_classify_bad_boundary_fixtures(F, B, seed, h, flags):
    Z = gnp_sample(8, 0.4, Seed(seed))
    img = set(image_graph(B, h, 8).edges)
    U = union(Z, image_graph(B, h, 8))
    mine = classify_bad(Z, h, make_booster_spec(B, F), F)
    assert (mine["B1"], mine["B2"], mine["B3"]) == flags
    assert mine["bad"] == any(flags)
    assert naive_bad_flags(Z, img, F, U) == dict(zip(("B1", "B2", "B3"), flags))
    through = [es for _, es in naive_copies(F, U) if es & img]
    zonly = [e for es in through for e in es - img]
    assert len(through) >= 2 and zonly
    # the last host is the case each Z-only edge lies in one such copy
    assert (max(map(zonly.count, zonly)) == 1) == (not any(flags))


# the badness scan's patterns and boosters; in K3 + K1 and C4 + K1 two
# copies may differ only in where the isolated vertex sits
SCAN_PATTERNS = (K3, cycle_graph(4), path_graph(3), complete_graph(4).without_edges([(2, 3)]),
                 cycle_graph(5), Graph(4, K3.edges), Graph(5, cycle_graph(4).edges))
SCAN_BOOSTERS = (complete_graph(2), path_graph(3), cycle_graph(4), cycle_graph(5), K3)
# bad only through a Z-only edge in two copies (B2 alone, the first boundary fixture)
TWO_COPY_UNION = (gnp_sample(8, 0.4, Seed(2)), image_edges(path_graph(3), (7, 6, 3)), K3)
# the copies of K3 + K1 on the triangle 012 share the Z-only edge (0, 2) and
# differ only in their isolated vertex: bad (B3), though one copy by edge set
ISOLATED_UNION = (Graph(5, [(0, 2), (1, 2)]), [(0, 1)], Graph(4, K3.edges))


@st.composite
def scanned_unions(draw):
    """(Z, img, F): a G(n, p) host with 5 <= n <= 14, the pairs of a booster
    placed by an injection, and a pattern of the scan."""
    F, B = draw(st.sampled_from(SCAN_PATTERNS)), draw(st.sampled_from(SCAN_BOOSTERS))
    n = draw(st.integers(5, 14))
    Z = gnp_sample(n, draw(st.sampled_from((0.2, 0.35, 0.5))), Seed(draw(st.integers(0, 999))))
    return Z, image_edges(B, draw(st.permutations(range(n)))[:B.n]), F


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(scanned_unions())
@example(TWO_COPY_UNION)
@example(ISOLATED_UNION)
def test_badness_scan_matches_the_key_flags_and_the_naive_oracle(case):
    Z, img, F = case
    bad = _is_bad(Z, img, F)
    assert bad == _view_from_keys(Z, img, _union_keys(Z, img, F)).flags["bad"]
    assert bad == any(naive_bad_flags(Z, img, F, Graph(Z.n, [*Z.edges, *img])).values())


def test_badness_scan_pinned_unions():
    Z, img, F = TWO_COPY_UNION
    flags = _view_from_keys(Z, img, _union_keys(Z, img, F)).flags
    assert flags["bad"] and not flags["B1"] and _is_bad(Z, img, F)
    # copies keyed by edge set alone would read this union good
    Z, img, F = ISOLATED_UNION
    keys = _union_keys(Z, img, F)
    by_edges = list({es: (vs, es) for vs, es in keys}.values())
    assert len(by_edges) < len(keys)
    assert not _view_from_keys(Z, img, by_edges).flags["bad"] and _is_bad(Z, img, F)


def test_classify_bad_matches_naive_oracle():
    spec5 = make_booster_spec(cycle_graph(5), K3)
    rng = Seed(611).generator()
    for i in range(25):
        Z = gnp_sample(10, 0.4, Seed(610, i))
        h = tuple(int(x) for x in rng.permutation(10)[:5])
        mine = classify_bad(Z, h, spec5, K3)
        img = set(image_graph(spec5.B, h, 10).edges)
        U = union(Z, image_graph(spec5.B, h, 10))
        ref = naive_bad_flags(Z, img, K3, U)
        assert {k: mine[k] for k in ("B1", "B2", "B3")} == ref, (i, h)


def test_pair_relations_fixture():
    Z2 = complete_graph(4).without_edges([(0, 1)])
    spec2 = make_booster_spec(complete_graph(2), K3)
    r = pair_relations(Z2, (0, 1), spec2, K3, (0, 2), (1, 2))
    assert r == {"approx": True, "sim": True}
    with pytest.raises(ValueError):
        pair_relations(Z2, (0, 1), spec2, K3, (0, 2), (0, 2))


def test_pair_relations_refuses_what_is_not_an_edge_of_z():
    # an EdgeId is any integer id of Z's edges, numpy's included; an id past
    # the edges, a pair that is no edge of Z and anything else is refused,
    # naming the argument
    Z2 = complete_graph(4).without_edges([(0, 1)])
    spec2 = make_booster_spec(complete_graph(2), K3)
    i, j = Z2.edge_id(0, 2), Z2.edge_id(1, 2)
    expected = {"approx": True, "sim": True}
    assert pair_relations(Z2, (0, 1), spec2, K3, np.int64(i), np.int64(j)) == expected
    assert pair_relations(Z2, (0, 1), spec2, K3, [2, 0], np.int64(j)) == expected
    for bad in (99, Z2.num_edges(), -1, True, 1.0, (0, 1), (2, 2), (0, 9), (0, 1, 2), "02"):
        for name, args in (("e1", (bad, j)), ("e2", (i, bad))):
            with pytest.raises(ValueError, match=re.escape(f"{name} = {bad!r} is not an edge of Z")):
                pair_relations(Z2, (0, 1), spec2, K3, *args)


def test_sim_implies_approx_randomized():
    spec2 = make_booster_spec(complete_graph(2), K3)
    rng = Seed(612).generator()
    for i in range(15):
        Z = gnp_sample(8, 0.45, Seed(613, i))
        if Z.num_edges() < 2:
            continue
        h = tuple(int(x) for x in rng.permutation(8)[:2])
        ids = rng.integers(0, Z.num_edges(), size=2)
        if ids[0] == ids[1]:
            continue
        r = pair_relations(Z, h, spec2, K3, int(ids[0]), int(ids[1]))
        assert not (r["sim"] and not r["approx"])


def test_interactive_star_example():
    Z = Graph(6, complete_graph(5).edges)
    spec = make_booster_spec(Graph(6, [(0, i) for i in range(1, 6)]), K3)
    rep = check_interactive_regular(Z, [(5, 0, 1, 2, 3, 4)], spec, K3)
    entry = rep["per_h"][0]
    assert entry["interactive"] and not entry["regular"]
    # Z arrows alone: never interactive
    rep = check_interactive_regular(complete_graph(6), [(0, 1)],
                                    make_booster_spec(complete_graph(2), K3), K3)
    assert rep["per_h"][0]["interactive"] is False
    # empty family: vacuous
    rep = check_interactive_regular(Z, [], spec, K3)
    assert rep["pair_interactive"] and rep["pair_regular"]


@pytest.mark.parametrize("budget, interactive", [
    (0, None), (1, None), (2, None), (3, None), (4, True), (5, True), (None, True)])
def test_undecided_interactivity_is_reported_undecided(budget, interactive):
    # under a small node budget Z's verdict is undecided while B does not
    # arrow and the union arrows: the entry and the pair read None, never False
    Z = Graph(6, complete_graph(5).edges)
    spec = make_booster_spec(Graph(6, [(0, i) for i in range(1, 6)]), K3)
    rep = check_interactive_regular(Z, [(5, 0, 1, 2, 3, 4)], spec, K3, budget=budget)
    assert rep["Z_verdict"] == ("undecided" if interactive is None else "not_arrows")
    assert [r["interactive"] for r in rep["per_h"]] == [interactive]
    assert rep["pair_interactive"] is interactive
    # a decided False conjunct makes the pair False, undecided entries or not
    h = (0, 1, 2, 3, 4, 5)  # shares edges with Z: not edge-disjoint
    rep = check_interactive_regular(Z, [(5, 0, 1, 2, 3, 4), h], spec, K3, budget=budget)
    assert rep["per_h"][1]["interactive"] is False and rep["pair_interactive"] is False


def test_activated_set_fixture_and_errors():
    Z = Graph(6, complete_graph(5).edges)
    spec = make_booster_spec(Graph(6, [(0, i) for i in range(1, 6)]), K3)
    h = (5, 0, 1, 2, 3, 4)
    phi = decide_arrow(Z, K3).certificate
    A = activated_set(Z, [h], spec, K3, phi)
    members = set(union_view(Z, h, spec, K3).members)
    assert A and A <= members
    assert A & members  # hits the unique hyperedge
    assert activated_set(Z, [], spec, K3, phi) == set()
    with pytest.raises(ValueError, match="phi is not F-free on Z"):
        activated_set(Z, [h], spec, K3, [0] * Z.num_edges())  # monochromatic phi
    with pytest.raises(ValueError, match="sigma is not F-free on B"):
        activated_set(Z, [], BoosterSpec(complete_graph(3), (0, 0, 0)), K3, phi)
    with pytest.raises(ValueError, match="embedding shares an edge with Z"):
        activated_set(Z, [(0, 1, 2, 3, 4, 5)], spec, K3, phi)  # the star's centre on 0


def test_fact_hitting_and_agreement_smoke():
    checked = 0
    for idx in range(40):
        inst = interactive_instance(idx)
        if inst is None:
            continue
        Z, F, spec, Xi, phis = inst["Z"], inst["F"], inst["spec"], inst["Xi"], inst["phis"]
        assert_instance_well_formed(inst)
        fss = [set(union_view(Z, h, spec, F).members) for h in Xi]
        acts = [activated_set(Z, Xi, spec, F, phi) for phi in phis]
        for A in acts:
            for ms in fss:
                assert A & ms, "activated set missed a hyperedge"
        for i in range(len(phis)):
            for j in range(i + 1, len(phis)):
                for z in acts[i] & acts[j]:
                    assert phis[i][z] == phis[j][z]
        checked += 1
    assert checked >= 30


def test_profile_and_index_consistency():
    Z = complete_graph(6).without_edges([(0, 1)])
    spec = make_booster_spec(complete_graph(2), K3)
    prof = profile_of(Z, (0, 1), spec, K3)
    assert prof.pi == (0,) * 8
    Xi, out_prof, rep = restrict_index_consistent(Z, [(0, 1)], spec, K3, L=10, seed=Seed(3))
    assert Xi == [(0, 1)] and out_prof.pi == prof.pi
    assert verify_index_consistent(Z, Xi, spec, K3)
    # length filter drops everything when L is too small
    Xi, out_prof, rep = restrict_index_consistent(Z, [(0, 1)], spec, K3, L=3, seed=Seed(3))
    assert Xi == [] and rep["empty_reason"]
    with pytest.raises(ValueError, match="L must be >= 0, got -1"):
        restrict_index_consistent(Z, [(0, 1)], spec, K3, L=-1, seed=Seed(3))


def test_index_consistency_fails_on_an_edge_at_two_positions():
    # (1, 2) is the second member of (0, 1)'s focus set {(0, 2), (1, 2)}
    # and the first of (1, 3)'s {(1, 2), (2, 3)}
    Z = Graph(4, [(0, 2), (1, 2), (2, 3)])
    spec = make_booster_spec(complete_graph(2), K3)
    assert [union_view(Z, h, spec, K3).members for h in ((0, 1), (1, 3))] == [(0, 1), (1, 2)]
    assert verify_index_consistent(Z, [(0, 1)], spec, K3)
    assert verify_index_consistent(Z, [(1, 3)], spec, K3)
    assert not verify_index_consistent(Z, [(0, 1), (1, 3)], spec, K3)
    assert verify_index_consistent(Z, [(0, 1), (0, 3)], spec, K3)  # (0, 2) first in both


def test_partition_keep_frequency():
    # two embeddings with disjoint two-element focus sets: each kept with
    # probability 1/4, independently
    Z = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    spec = make_booster_spec(complete_graph(2), K3)
    Xi0 = [(0, 2), (3, 5)]
    nonempty = 0
    trials = 600
    for s in range(trials):
        Xi, prof, rep = restrict_index_consistent(Z, Xi0, spec, K3, L=4, seed=Seed(991, s))
        if Xi:
            assert verify_index_consistent(Z, Xi, spec, K3)
            nonempty += 1
    expected = 7 / 16
    sd = (expected * (1 - expected) / trials) ** 0.5
    assert abs(nonempty / trials - expected) < 3 * sd


def test_restriction_outputs_always_index_consistent():
    # breadth: random hosts, all regular single-edge embeddings as the
    # input family, every non-empty output must verify
    spec = make_booster_spec(complete_graph(2), K3)
    produced = 0
    kept_total = 0
    for i in range(160):
        n = 7 + i % 3
        Z = gnp_sample(n, 0.35, Seed(777, i))
        if Z.num_edges() < 2:
            continue
        pool = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not Z.has_edge(u, v)
        ][:8]
        Xi0 = [h for h in pool if not classify_bad(Z, h, spec, K3)["bad"]]
        if not Xi0:
            continue
        Xi, prof, rep = restrict_index_consistent(Z, Xi0, spec, K3, L=12,
                                                  seed=Seed(778, i))
        produced += 1
        kept_total += len(Xi)
        assert verify_index_consistent(Z, Xi, spec, K3)
        if prof is not None and Xi:
            lengths = {len(union_view(Z, h, spec, K3).members) for h in Xi}
            assert lengths <= {prof.length}
    assert produced >= 150
    assert kept_total >= 1  # the partition keeps something somewhere


def test_alpha_tilde_values():
    assert alpha_tilde(3) == Fraction(1, 6318)
    assert alpha_tilde(2) == Fraction(1, 13 * 16 * 2)


def test_embedding_pool():
    pool = embedding_pool(complete_graph(2), 5)
    assert len(pool) == 10  # one per pair
    # the full pool is each copy's witness map in K_n, in key order
    for B, n in ((complete_graph(2), 5), (cycle_graph(4), 6), (Graph(3, [(0, 1)]), 4)):
        assert embedding_pool(B, n) == [c.map for c in enumerate_copies(B, complete_graph(n)).copies]
    sampled = embedding_pool(cycle_graph(4), 8, 20, Seed(4))
    assert len(sampled) == 20
    images = {(frozenset(h), frozenset((min(h[u], h[v]), max(h[u], h[v]))
                                        for u, v in cycle_graph(4).edges))
              for h in sampled}
    assert len(images) == 20


@pytest.mark.parametrize("n", [5, 14, 30])
@pytest.mark.parametrize("k", [1, 8, 40])
def test_permuted_block_is_successive_permutations(n, k):
    # embedding_pool and the Z5 sample of z_property_rates draw k injections
    # as one `permuted` block: its rows, and the stream after it, are those
    # of k `permutation` calls
    for s in range(3):
        block, ref = Seed(s).generator(), Seed(s).generator()
        rows = block.permuted(np.tile(np.arange(n), (k, 1)), axis=1)
        assert rows.tolist() == [ref.permutation(n).tolist() for _ in range(k)]
        assert block.random() == ref.random()


class CountedDraws:
    """A seed stub whose generator counts the injections drawn from it, one
    per row of a block that `permuted` shuffles."""

    def __init__(self, seed):
        self.rng, self.draws = seed.generator(), 0

    def generator(self):
        return self

    def permuted(self, rows, axis):
        self.draws += len(rows)
        return self.rng.permuted(rows, axis=axis)


def test_embedding_pool_stops_at_every_image():
    # K2 has 15 images in K6 and C4 has 15 in K5 (120 injections, |Aut| 8):
    # a larger pool stops drawing at the last new image, and returns what
    # all 50 * size draws would
    for B, n in ((complete_graph(2), 6), (cycle_graph(4), 5)):
        for s in range(3):
            seed = CountedDraws(Seed(s))
            pool = embedding_pool(B, n, 100, seed)
            ref, images, last = Seed(s).generator(), {}, 0
            for i in range(50 * 100):
                h = tuple(int(x) for x in ref.permutation(n)[: B.n])
                key = (frozenset(h), frozenset(_norm(h[u], h[v]) for u, v in B.edges))
                if key not in images:
                    images[key], last = h, i + 1
            assert pool == list(images.values()) and len(pool) == 15, (B.edges, s)
            assert seed.draws == last < 100, (B.edges, s)


def test_normal_family_pipeline_toy():
    Z = complete_graph(6).without_edges([(0, 1)])
    spec = make_booster_spec(complete_graph(2), K3)
    params = dict(D=4, delta=Fraction(1, 12), p=0.5, alpha=Fraction(1, 4))
    xi0, report = construct_normal_family(Z, spec, K3, params, seed=Seed(12))
    assert xi0 == [(0, 1)]
    assert report["removed"]["not_arrowing"] == 14
    check = verify_normal_family(Z, xi0, spec, K3, params)
    assert check["ok"], check
    # determinism
    xi0b, reportb = construct_normal_family(Z, spec, K3, params, seed=Seed(12))
    assert xi0b == xi0 and reportb["psi_s"] == report["psi_s"]


def test_verify_normal_family_names_each_broken_condition():
    # a K6-e block missing (0, 1) on vertices 0..5, a pendant (2, 6), and
    # 6, 7 otherwise isolated; a booster edge on (0, 1) tips it to K6
    Z = Graph(8, complete_graph(6).without_edges([(0, 1)]).edges + ((2, 6),))
    P3, matching = path_graph(3), Graph(4, [(0, 1), (2, 3)])

    def placed(B, *pairs):
        """The embedding of B's pool in K_8 whose image is `pairs`."""
        return next(h for h in embedding_pool(B, 8) if set(image_edges(B, h)) == set(pairs))

    good = placed(P3, (0, 1), (1, 7))
    # triangles (0, 1, 2) and (0, 2, 6) share the Z-only edge (0, 2)
    b2 = placed(P3, (0, 1), (0, 6))
    loose = placed(P3, (0, 7), (1, 7))  # in no triangle, so the union arrows no more than Z
    # its end vertices 2 and 6 are joined by the pendant: the one triangle
    # (2, 6, 7) has a Z-only edge and two booster edges, B1 alone
    b1 = placed(P3, (2, 7), (6, 7))
    loose_params = dict(delta=Fraction(1, 12), p=Fraction(1, 10))  # pair cap above 9
    C4 = cycle_graph(4)
    assert classify_bad(Z, b2, make_booster_spec(P3, K3), K3) == {
        "B1": False, "B2": True, "B3": False, "bad": True}
    assert classify_bad(Z, b1, make_booster_spec(P3, K3), K3) == {
        "B1": True, "B2": False, "B3": False, "bad": True}
    # two C4s through the booster edge (0, 1) share a Z-only edge: B3 alone
    assert classify_bad(Z, (0, 1), make_booster_spec(complete_graph(2), C4), C4) == {
        "B1": False, "B2": False, "B3": True, "bad": True}
    cases = [
        (P3, K3, [good], loose_params, []),
        (P3, K3, [good, placed(P3, (0, 1), (0, 7))], loose_params, [("overlap", 0, 1)]),
        # (2, 6) lies in Z and in no triangle, so only the clash breaks
        (matching, K3, [placed(matching, (0, 1), (2, 6))], loose_params, [("edge_clash", 0)]),
        (P3, K3, [b2], loose_params, [("bad", 0)]),
        (P3, K3, [b1], loose_params, [("bad", 0), ("union_not_arrowing", 0, "not_arrows")]),
        (complete_graph(2), C4, [(0, 1)], loose_params, [("bad", 0)]),
        (P3, K3, [loose], loose_params, [("union_not_arrowing", 0, "not_arrows")]),
        # cap 8^(-1/4) < 1: every pair of the focus set, Z's edge ids 0..7, breaks it
        (P3, K3, [good], dict(delta=Fraction(1, 2), p=1),
         [("pair_cap", pr, 1) for pr in combinations(range(8), 2)]),
        (P3, K3, [b2, good, loose], loose_params,
         [("overlap", 0, 1), ("overlap", 0, 2), ("overlap", 1, 2), ("bad", 0),
          ("union_not_arrowing", 2, "not_arrows")]),
    ]
    for B, F, family, params, violations in cases:
        check = verify_normal_family(Z, family, make_booster_spec(B, F), F, params)
        assert check == {"ok": not violations, "violations": violations}, (family, check)

    # K8-e tipped to K8: 28 constrained edges, above the brute-force cap,
    # so decide_arrow decides the union, and at 5 nodes leaves it undecided
    K8e, spec = complete_graph(8).without_edges([(0, 1)]), make_booster_spec(complete_graph(2), K3)
    assert verify_normal_family(K8e, [(0, 1)], spec, K3, loose_params)["ok"]
    assert verify_normal_family(K8e, [(0, 1)], spec, K3, loose_params, budget=5) == {
        "ok": False, "violations": [("union_not_arrowing", 0, "undecided")]}


def test_normal_family_flags_z_arrows_alone():
    spec = make_booster_spec(complete_graph(2), K3)
    params = dict(D=4, delta=Fraction(1, 12), p=0.5, alpha=Fraction(1, 4))
    _, report = construct_normal_family(complete_graph(6), spec, K3, params, seed=Seed(1))
    assert report["z_arrows_alone"]


def test_normal_family_rejects_a_delta_outside_its_range():
    # K3 has m2 = 2, so delta must lie in (0, min(1/2, 1 - 1/2)] = (0, 1/2],
    # the range z_property_rates takes it from too
    Z, spec = complete_graph(6).without_edges([(0, 1)]), make_booster_spec(complete_graph(2), K3)
    for delta in (0, -1, Fraction(-1, 12), Fraction(51, 100), 3):
        params = dict(D=4, delta=delta, p=0.5, alpha=Fraction(1, 4))
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1/2\]"):
            construct_normal_family(Z, spec, K3, params, seed=Seed(12))
    params = dict(D=4, delta=Fraction(1, 2), p=0.5, alpha=Fraction(1, 4))
    assert construct_normal_family(Z, spec, K3, params, seed=Seed(12))[1]["psi1"] == 1
    for D in (float("nan"), float("inf")):  # refused before delta is read
        with pytest.raises(ValueError, match="D must be finite"):
            construct_normal_family(Z, spec, K3, {**params, "D": D})
    # P3 has m2 = 1, which leaves no delta at all
    P3 = path_graph(3)
    params = dict(D=4, delta=Fraction(1, 12), p=0.5, alpha=Fraction(1, 4))
    with pytest.raises(ValueError, match=r"no delta is valid for a pattern with m2 = 1"):
        construct_normal_family(Z, make_booster_spec(complete_graph(2), P3), P3, params)


def test_verify_normal_family_checks_p_and_delta_as_the_constructor_does():
    # the pair cap 1/(p n^(delta/2)) means nothing for p outside (0, 1] or
    # delta outside (0, 1/2] (K3): the verifier rejects them, not divides
    Z, spec = complete_graph(6).without_edges([(0, 1)]), make_booster_spec(complete_graph(2), K3)
    for p, delta, message in ((0, Fraction(1, 12), r"p must lie in \(0, 1\], got 0"),
                              (-1, Fraction(1, 12), r"p must lie in \(0, 1\], got -1"),
                              (1.5, Fraction(1, 12), r"p must lie in \(0, 1\], got 1.5"),
                              (0.5, -4, r"delta must lie in \(0, 1/2\]"),
                              (0.5, 0, r"delta must lie in \(0, 1/2\]")):
        params = dict(D=4, delta=delta, p=p, alpha=Fraction(1, 4))
        for call in (lambda: construct_normal_family(Z, spec, K3, params, seed=Seed(12)),
                     lambda: verify_normal_family(Z, [(0, 1)], spec, K3, params)):
            with pytest.raises(ValueError, match=message):
                call()
    P3 = path_graph(3)
    params = dict(D=4, delta=Fraction(1, 12), p=0.5)
    with pytest.raises(ValueError, match=r"no delta is valid for a pattern with m2 = 1"):
        verify_normal_family(Z, [(0, 1)], make_booster_spec(complete_graph(2), P3), P3, params)
    # both ends of the ranges are allowed; there the cap 6^(-1/4) < 1 is broken
    ends = verify_normal_family(Z, [(0, 1)], spec, K3, dict(D=4, delta=Fraction(1, 2), p=1))
    assert {v[0] for v in ends["violations"]} == {"pair_cap"}
    params = dict(D=4, delta=Fraction(1, 12), p=0.5)
    assert verify_normal_family(Z, [(0, 1)], spec, K3, params)["ok"]


def test_union_view_rejects_what_is_no_embedding():
    # h must hold B.n distinct vertex ids of Z: a repeated vertex, a vertex
    # too many or too few, one past the host, a negative, a bool or a float
    # is refused, naming h, by every reader of the view and, before any
    # other work, by the interactivity report, the verifier and the
    # activated set
    Z, C5 = gnp_sample(10, 0.5, Seed(3)), cycle_graph(5)
    spec = make_booster_spec(C5, K3)
    phi = decide_arrow(Z, K3).certificate
    params = dict(D=4, delta=Fraction(1, 12), p=0.5)
    readers = (classify_bad, union_view, profile_of,
               lambda Z, h, spec, F: pair_relations(Z, h, spec, F, Z.edges[0], Z.edges[1]),
               lambda Z, h, spec, F: check_interactive_regular(Z, [h], spec, F),
               lambda Z, h, spec, F: verify_normal_family(Z, [h], spec, F, params),
               lambda Z, h, spec, F: activated_set(Z, [h], spec, F, phi))
    for h in ((0, 1, 0, 3, 4), (0, 1, 2, 0, 4), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3),
              (0, 1, 2, 3, 10), (0, 1, 2, 3, -1), (0, 1, 2, 3, True), (0, 1, 2, 3, 4.0), ()):
        for read in readers:
            message = re.escape(f"h = {h!r} is not 5 distinct vertices in 0..9")
            with pytest.raises(ValueError, match=message):
                read(Z, h, spec, K3)
    assert set(classify_bad(Z, (0, 1, 2, 3, 4), spec, K3)) == {"B1", "B2", "B3", "bad"}


def test_normal_family_starvation_reported():
    # sparse Z: no union arrows, pipeline starves at the arrow filter
    Z = gnp_sample(8, 0.2, Seed(77))
    spec = make_booster_spec(complete_graph(2), K3)
    params = dict(D=4, delta=Fraction(1, 12), p=0.2, alpha=Fraction(1, 4))
    xi0, report = construct_normal_family(Z, spec, K3, params, seed=Seed(13))
    assert xi0 == []
    assert report["starved_stage"] == "psi1"


def test_hypergraph_stats_fixture_and_oracle():
    st = hypergraph_stats(Hypergraph(2, [(0, 1)]), Fraction(1, 2))
    assert st["d"] == 1 and st["delta_j"][2] == 2 and st["delta"] == 2
    with pytest.raises(ValueError):
        hypergraph_stats(Hypergraph(3, []), Fraction(1, 2))
    with pytest.raises(ValueError):
        hypergraph_stats(Hypergraph(2, [(0, 1)]), 0)

    rng = Seed(888).generator()
    for i in range(12):
        m = int(rng.integers(4, 8))
        ell = int(rng.integers(2, min(4, m) + 1))
        edges = set()
        target = min(int(rng.integers(1, 6)), comb(m, ell))
        while len(edges) < target:
            edges.add(tuple(sorted(rng.choice(m, size=ell, replace=False).tolist())))
        tau = Fraction(int(rng.integers(1, 5)), 7)
        mine = hypergraph_stats(Hypergraph(m, edges), tau)
        ref = naive_hypergraph_stats(m, edges, tau)
        assert mine["d"] == ref["d"]
        assert mine["Delta1"] == ref["Delta1"] and mine["Delta2"] == ref["Delta2"]
        assert mine["delta"] == ref["delta"]
        assert mine["delta_j"] == ref["delta_j"]
        # exact rationals: relative error is exactly zero, well under 1e-12
        assert abs(mine["delta_float"] - float(ref["delta"])) <= 1e-12 * max(1.0, float(ref["delta"]))


def test_hypergraph_stats_of_a_1_uniform_hypergraph():
    # no j-subsets with j >= 2, so delta is the empty sum: an exact zero
    st = hypergraph_stats(Hypergraph(4, [(0,), (2,), (3,)]), Fraction(1, 2))
    assert st["ell"] == 1 and st["delta_j"] == {} and st["Delta2"] == 0
    assert st["delta"] == 0 and isinstance(st["delta"], Fraction)
    assert st["delta_float"] == 0.0 and st["d"] == Fraction(3, 4)


@st.composite
def uniform_hypergraphs(draw):
    ell = draw(st.integers(1, 8))
    m = draw(st.integers(ell, ell + 6))
    edge = st.lists(st.integers(0, m - 1), min_size=ell, max_size=ell, unique=True)
    edges = draw(st.lists(edge, min_size=1, max_size=8))
    tau = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    return Hypergraph(m, edges), tau


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(uniform_hypergraphs())
def test_hypergraph_stats_matches_the_subset_enumeration(case):
    H, tau = case
    assert hypergraph_stats(H, tau) == reference_hypergraph_stats(H, tau)


def test_hypergraph_stats_of_two_24_uniform_edges_has_its_closed_form():
    # 2^24 subsets per hyperedge for the enumeration; three closure sets here
    ell, k, tau = 24, 16, Fraction(1, 2)
    m = 2 * ell - k
    stats = hypergraph_stats(Hypergraph(m, [range(ell), range(ell - k, m)]), tau)
    d = Fraction(2 * ell, m)
    # every vertex lies in a hyperedge; the k shared ones lie in a j-set of degree 2 iff j <= k
    best = {j: 2 * ell - k + (k if j <= k else 0) for j in range(2, ell + 1)}
    assert stats["Delta1"] == stats["Delta2"] == 2 and stats["d"] == d
    assert stats["delta_j"] == {j: Fraction(b) / (tau ** (j - 1) * m * d) for j, b in best.items()}
    assert stats["delta"] == Fraction(2) ** (comb(ell, 2) - 1) * sum(
        Fraction(1, 2 ** comb(j - 1, 2)) * stats["delta_j"][j] for j in best)


def test_stats_internal_identities():
    rng = Seed(889).generator()
    for i in range(10):
        m = int(rng.integers(4, 9))
        edges = set()
        while len(edges) < 3:
            edges.add(tuple(sorted(rng.choice(m, size=3, replace=False).tolist())))
        st = hypergraph_stats(Hypergraph(m, edges), Fraction(1, 3))
        assert st["Delta2"] <= st["Delta1"] <= st["e"]
        assert st["d"] * st["m"] == st["ell"] * st["e"]


def test_cores_small_fixtures():
    fam = brute_force_cores(Hypergraph(2, [(0, 1)]))
    assert sorted(map(sorted, fam.cores)) == [[0], [1]]
    fam = brute_force_cores(Hypergraph(3, []))
    assert len(fam) == 1 and fam.cores[0] == frozenset()
    rep = verify_core_properties(fam, Hypergraph(3, []))
    assert rep["c3_ok"]
    with pytest.raises(ValueError):
        brute_force_cores(Hypergraph(21, [(0, 1)]))


def test_cores_match_naive_maximal_independent_sets():
    rng = Seed(891).generator()
    for i in range(40):
        m = int(rng.integers(1, 13))
        edges = set()
        for _ in range(int(rng.integers(0, 9))):
            size = int(rng.integers(1, min(4, m) + 1))
            edges.add(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
        fam = brute_force_cores(Hypergraph(m, edges))
        containers = naive_maximal_independent_sets(m, edges)
        assert fam.containers == containers, (m, edges)
        assert fam.cores == [frozenset(range(m)) - s for s in containers], (m, edges)


def test_every_hitting_set_contains_a_core_randomized():
    rng = Seed(890).generator()
    for i in range(20):
        m = int(rng.integers(3, 10))
        k = int(rng.integers(1, 6))
        edges = set()
        for _ in range(k):
            size = int(rng.integers(1, min(4, m) + 1))
            edges.add(tuple(sorted(rng.choice(m, size=size, replace=False).tolist())))
        H = Hypergraph(m, edges)
        fam = brute_force_cores(H)
        rep = verify_core_properties(fam, H, beta=Fraction(1, 10), gamma=0.2)
        assert rep["c3_ok"], (i, edges)


def test_build_hypergraph_profiled_lengths():
    inst = interactive_instance(2)  # two-block host
    Z, F, spec, Xi = inst["Z"], inst["F"], inst["spec"], inst["Xi"]
    bh = build_hypergraph(Z, Xi, spec, F)
    lengths = {len(fs.members) for fs in bh.focus_sets}
    assert lengths == {8}
    # non-bad embeddings have |M_h| divisible by e(F)-1
    for fs in bh.focus_sets:
        assert len(fs.members) % (F.num_edges() - 1) == 0


def test_no_b1_b2_implies_regular():
    # the regularity consequence: without the first two badness modes,
    # every non-shared Z-edge focuses on at most one booster edge
    from ramseylab.booster import image_edges

    spec5 = make_booster_spec(cycle_graph(5), K3)
    spec2 = make_booster_spec(complete_graph(2), K3)
    rng = Seed(614).generator()
    checked = 0
    for i in range(30):
        Z = gnp_sample(9, 0.45, Seed(615, i))
        for spec in (spec2, spec5):
            h = tuple(int(x) for x in rng.permutation(9)[: spec.B.n])
            flags = classify_bad(Z, h, spec, K3)
            if flags["B1"] or flags["B2"]:
                continue
            img = set(image_edges(spec.B, h))
            fm = union_view(Z, h, spec, K3).foci
            for e, foci in fm.items():
                if e not in img:
                    assert len(foci) <= 1, (i, e, foci)
            checked += 1
    assert checked >= 20


def test_degree_bound_report():
    from ramseylab.booster import degree_bound_report

    st = hypergraph_stats(Hypergraph(2, [(0, 1)]), Fraction(1, 2))
    rep = degree_bound_report(st, D=4, p=0.5, delta=Fraction(1, 12), vF=3, n=6)
    assert rep["Delta1_within"] and rep["Delta1"] == 1
    assert rep["Delta2"] == 1
