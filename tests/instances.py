"""Generators of small interactive booster instances for the tests.

The workhorse is the tipping construction: a K6-minus-an-edge block is
one edge short of arrowing the triangle, so a single-edge booster on the
missing pair makes the pair (Z, {h}) interactive; single-edge boosters
can never be bad or irregular for the triangle.  Variety comes from
random relabelings, decoration edges outside the block, two-block hosts
and searched C4 instances.
"""

from itertools import combinations

from ramseylab.arrowing import decide_arrow, enumerate_f_free_colorings
from ramseylab.booster import (
    classify_bad,
    make_booster_spec,
    profile_of,
    union_view,
    verify_index_consistent,
)
from ramseylab.graphs import Graph, Seed, complete_graph, cycle_graph, gnp_sample


def _relabel(edges, perm):
    return [(perm[u], perm[v]) for u, v in edges]


def k6_minus_edge_block(n, seed, decorate=True):
    """Host with one relabelled K6-e block; returns (Z, booster_pair).

    Decoration edges touch only vertices outside the block's critical
    pair structure and are rejected unless Z stays short of arrowing.
    """
    rng = seed.generator()
    perm = [int(x) for x in rng.permutation(n)]
    block = perm[:6]
    missing = tuple(sorted((block[0], block[1])))
    edges = [
        (block[i], block[j])
        for i, j in combinations(range(6), 2)
        if {block[i], block[j]} != set(missing)
    ]
    if decorate and n > 6:
        extras = perm[6:]
        for v in extras:
            for w in range(n):
                if w != v and rng.random() < 0.25:
                    edges.append((min(v, w), max(v, w)))
        Z = Graph(n, set(edges))
        if decide_arrow(Z, complete_graph(3)).verdict != "not_arrows":
            # decorations pushed Z over the edge; strip them
            Z = Graph(n, [(u, v) for u, v in edges if u in block and v in block])
    else:
        Z = Graph(n, edges)
    return Z, missing


def block_host(n, blocks, seed):
    """`blocks` disjoint K6-e blocks on n vertices, each on the next six
    vertices of one seeded permutation and missing the pair of its first
    two; returns (Z, [missing pair per block])."""
    perm = [int(x) for x in seed.generator().permutation(n)]
    miss = []
    edges = []
    for b in range(blocks):
        block = perm[6 * b : 6 * b + 6]
        m = tuple(sorted((block[0], block[1])))
        miss.append(m)
        edges += [
            (block[i], block[j])
            for i, j in combinations(range(6), 2)
            if {block[i], block[j]} != set(m)
        ]
    return Graph(n, edges), miss


def two_block_host(seed):
    """Two disjoint K6-e blocks on 12 vertices; returns (Z, [pair, pair])."""
    return block_host(12, 2, seed)


_C4_CACHE = {}


def c4_tipping_instance(bucket):
    """Search a host Z with Z not arrowing C4 but Z plus one pair arrowing.

    Results are cached per bucket so repeated trials stay cheap.
    """
    if bucket in _C4_CACHE:
        return _C4_CACHE[bucket]
    F = cycle_graph(4)
    found = None
    for attempt in range(200):
        sd = Seed(7700 + bucket, attempt)
        n = 6
        Z = gnp_sample(n, 0.62, sd)
        if decide_arrow(Z, F).verdict != "not_arrows":
            continue
        for u, v in combinations(range(n), 2):
            if Z.has_edge(u, v):
                continue
            Zp = Graph(n, [*Z.edges, (u, v)])
            if decide_arrow(Zp, F).verdict == "arrows":
                spec = make_booster_spec(complete_graph(2), F)
                fm = union_view(Z, (u, v), spec, F).foci
                if any(len(s) > 1 for s in fm.values()):
                    continue
                if classify_bad(Z, (u, v), spec, F)["bad"]:
                    continue
                found = (Z, (u, v))
                break
        if found:
            break
    _C4_CACHE[bucket] = found
    return found


def interactive_instance(index):
    """Deterministic instance number `index`: returns a dict with
    Z, F, spec, Xi and a few F-free colourings, or None when the
    searched variant yielded nothing."""
    kind = index % 5
    sd = Seed(5000, index)
    K3 = complete_graph(3)
    spec_k2 = make_booster_spec(complete_graph(2), K3)
    if kind == 0:
        Z, miss = k6_minus_edge_block(6, sd, decorate=False)
        Xi = [miss]
        F, spec = K3, spec_k2
    elif kind == 1:
        Z, miss = k6_minus_edge_block(7 + (index // 5) % 3, sd)
        Xi = [miss]
        F, spec = K3, spec_k2
    elif kind == 2:
        Z, missing = two_block_host(sd)
        Xi = missing
        F, spec = K3, spec_k2
    elif kind == 3:
        got = c4_tipping_instance(index % 10)
        if got is None:
            return None
        Z, pair = got
        F = cycle_graph(4)
        spec = make_booster_spec(complete_graph(2), F)
        Xi = [pair]
    else:
        # decorated block, fresh relabeling, larger n
        Z, miss = k6_minus_edge_block(8, sd)
        Xi = [miss]
        F, spec = K3, spec_k2
    phis = enumerate_f_free_colorings(Z, F, limit=4)
    if not phis:
        return None
    return {"Z": Z, "F": F, "spec": spec, "Xi": Xi, "phis": phis}


def assert_instance_well_formed(inst):
    """Instance sanity: interactive, regular, consistent, equal profiles."""
    from ramseylab.booster import check_interactive_regular

    Z, F, spec, Xi = inst["Z"], inst["F"], inst["spec"], inst["Xi"]
    rep = check_interactive_regular(Z, Xi, spec, F)
    assert rep["pair_interactive"], rep
    assert rep["pair_regular"], rep
    profiles = {profile_of(Z, h, spec, F).pi for h in Xi}
    assert len(profiles) == 1
    assert verify_index_consistent(Z, Xi, spec, F)
