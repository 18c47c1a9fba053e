"""Independent brute-force oracles for cross-checking the library.

Everything here is deliberately dumb: permutations, double loops and
literal definitions.  Only the Graph accessors are shared with the
library; all counting logic is separate.

The `reference_*` functions at the end are the exception: they keep
earlier forms of library code that the faster forms must match exactly.
The pinned pattern searches keep their per-call forms (a plan looked up
and a pin-domain list built for every pin), which the cached-plan
searches in `counting` must match map for map and in order; they read
the library's plans and orbit representatives, so they check the
searches, not those.  `reference_gnp_sample` keeps the pair-by-pair
sampling comprehension, and `reference_hypergraph_stats` the enumeration
of every j-subset of every hyperedge.  `check_pulled_back` reads the
library's F-free colouring of K_{r-1} and checks the vertex colourings
that prove a host does not arrow a complete F.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations
from math import ceil, comb

from ramseylab.arrowing import _ramsey_clique, first_f_free_coloring, is_f_free
from ramseylab.counting import _arc_representatives, _breaking, _pair_representatives, _plan
from ramseylab.graphs import Graph, complete_graph, pair_uniforms


def norm(u, v):
    return (u, v) if u < v else (v, u)


def naive_copies(F, G):
    """All (vertex set, edge set) images of F in G, by raw permutations."""
    out = set()
    for perm in permutations(range(G.n), F.n):
        if all(G.has_edge(perm[u], perm[v]) for u, v in F.edges):
            vs = frozenset(perm)
            es = frozenset(norm(perm[u], perm[v]) for u, v in F.edges)
            out.add((vs, es))
    return out


def naive_automorphisms(F):
    """Every vertex permutation of F that maps its edge set onto itself."""
    E = set(F.edges)
    return [g for g in permutations(range(F.n)) if all(norm(g[u], g[v]) in E for u, v in F.edges)]


def naive_arc_representatives(F):
    """The first arc of each orbit of F's arcs under its listed automorphisms,
    the arcs taken as (x, y), then (y, x), per edge in edge order."""
    auts, reps, covered = naive_automorphisms(F), [], set()
    for x, y in F.edges:
        for a in ((x, y), (y, x)):
            if a not in covered:
                reps.append(a)
                covered.update((g[a[0]], g[a[1]]) for g in auts)
    return tuple(reps)


def naive_smaller(F, order, pinned):
    """The symmetry conditions along `order`, from the listed automorphisms:
    a later vertex v must take a larger image than each base point b that
    the stabilizer of `pinned` and of the earlier base points sends to v."""
    smaller = {x: [] for x in order}
    stab = [g for g in naive_automorphisms(F) if all(g[x] == x for x in pinned)]
    for i in range(len(pinned), len(order)):
        b = order[i]
        for v in order[i + 1:]:
            if any(g[b] == v for g in stab):
                smaller[v].append(b)
        stab = [g for g in stab if g[b] == b]
    return tuple(tuple(smaller[x]) for x in order)


def naive_isomorphic(F1, F2):
    return _naive_isomorphic(F1.n, F1.edges, F2.n, F2.edges)


@cache  # once per pair of edge sets: the hosts repeat the same small patterns
def _naive_isomorphic(n1, edges1, n2, edges2):
    """Some vertex permutation maps edges1 exactly onto edges2; every
    permutation is tried."""
    if (n1, len(edges1)) != (n2, len(edges2)):
        return False
    E1, E2 = set(edges1), set(edges2)
    return any(all((norm(perm[u], perm[v]) in E2) == ((u, v) in E1)
                   for u, v in combinations(range(n1), 2))
               for perm in permutations(range(n2)))


def _subgraph_as_pattern(vs, es):
    """Relabel a (vertex set, edge set) image to a pattern on 0..k-1."""
    order = sorted(vs)
    pos = {v: i for i, v in enumerate(order)}
    return Graph(len(order), [(pos[u], pos[v]) for u, v in es])


def naive_d2(v, e):
    if v == 2:
        return Fraction(1)
    return Fraction(e - 1, v - 2)


def naive_m2_all_subgraphs(F):
    """Max d2 over every (vertex subset, edge subset) pair with >= 1 edge."""
    best = None
    for k in range(2, F.n + 1):
        for vs in combinations(range(F.n), k):
            vset = set(vs)
            avail = [e for e in F.edges if e[0] in vset and e[1] in vset]
            for r in range(1, len(avail) + 1):
                for _es in combinations(avail, r):
                    val = naive_d2(k, r)
                    if best is None or val > best:
                        best = val
    return best


def naive_strictly_balanced(F):
    m2 = naive_m2_all_subgraphs(F)
    if naive_d2(F.n, F.num_edges()) != m2:
        return False
    for k in range(2, F.n + 1):
        for vs in combinations(range(F.n), k):
            vset = set(vs)
            avail = [e for e in F.edges if e[0] in vset and e[1] in vset]
            for r in range(1, len(avail) + 1):
                if k == F.n and r == F.num_edges():
                    continue  # F itself
                for _es in combinations(avail, r):
                    if naive_d2(k, r) >= m2:
                        return False
                    break  # d2 depends on (k, r) only
    return True


def naive_two_deleted_members(F):
    """Iso-class representatives of F minus two distinct edges."""
    reps = []
    for e, f in combinations(F.edges, 2):
        g = F.without_edges([e, f])
        if not any(naive_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def naive_f_minus_members(F):
    reps = []
    for e in F.edges:
        g = F.without_edges([e])
        if not any(naive_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def naive_count_f_minus(F, Z):
    return sum(len(naive_copies(M, Z)) for M in naive_f_minus_members(F))


def naive_count_f_minus_through(F, Z, e):
    e = norm(*e)
    total = 0
    for M in naive_f_minus_members(F):
        total += sum(1 for _vs, es in naive_copies(M, Z) if e in es)
    return total


def naive_P(F, Z, e1, e2):
    """Literal three-bullet evaluation by a double loop over all
    two-edge-deleted copies."""
    e1, e2 = norm(*e1), norm(*e2)
    copies = set()
    for M in naive_two_deleted_members(F):
        copies |= naive_copies(M, Z)

    def completes_to_F(vs, es):
        # adding exactly two new distinct edges must give a copy of F
        return len(es) == F.num_edges() and naive_isomorphic(_subgraph_as_pattern(vs, es), F)

    found = set()
    for c1 in copies:
        for c2 in copies:
            vs1, es1 = c1
            vs2, es2 = c2
            if es1 & es2:
                continue
            inter = vs1 & vs2
            if len(inter) < 2:
                continue
            if not (set(e1) <= vs1 and set(e2) <= vs2):
                continue
            witness = False
            for x, y in combinations(sorted(inter), 2):
                xy = (x, y)
                if completes_to_F(vs1, es1 | {xy, e1}) and completes_to_F(vs2, es2 | {xy, e2}):
                    witness = True
                    break
            if witness:
                found.add(((tuple(sorted(vs1)), tuple(sorted(es1))),
                           (tuple(sorted(vs2)), tuple(sorted(es2))),
                           len(inter)))
    return found


def naive_extension_count(R, H, host_roots, G):
    rset = set(R)
    ys = [v for v in range(H.n) if v not in rset]
    img = dict(zip(R, host_roots))
    pool = [v for v in range(G.n) if v not in set(host_roots)]
    count = 0
    for tup in permutations(pool, len(ys)):
        trial = dict(img)
        trial.update(zip(ys, tup))
        ok = True
        for u, v in H.edges:
            if u in rset and v in rset:
                continue  # root-internal edges impose nothing
            if not G.has_edge(trial[u], trial[v]):
                ok = False
                break
        if ok:
            count += 1
    return count


def naive_base_graph_pairs(F, witness_edge, Gp):
    """Completing pairs by checking every copy of the bipartite part."""
    Fp = F.without_edges([witness_edge])
    pairs = set()
    for vs, es in naive_copies(Fp, Gp):
        for x, y in combinations(sorted(vs), 2):
            if (x, y) in es:
                continue
            g = _subgraph_as_pattern(vs, es | {(x, y)})
            if naive_isomorphic(g, F):
                pairs.add((x, y))
    return pairs


def naive_fstar_overlap(Fstar, a1, a2, G, W):
    W = set(W)
    images = set()
    for perm in permutations(range(G.n), Fstar.n):
        if not all(G.has_edge(perm[u], perm[v]) for u, v in Fstar.edges):
            continue
        inside = {x for x in perm if x in W}
        if inside == {perm[a1], perm[a2]} and len(inside) == 2:
            vs = frozenset(perm)
            es = frozenset(norm(perm[u], perm[v]) for u, v in Fstar.edges)
            images.add((vs, es))
    return len(images)


def naive_edge_counts(G, U, W=None):
    U = list(U)
    if W is None:
        return sum(1 for i, u in enumerate(U) for v in U[i + 1:] if G.has_edge(u, v))
    return sum(1 for u in U for w in W if G.has_edge(u, w))


def naive_rho_d_dense(G, rho, d):
    """(dense, least gap) of G's (rho, d)-denseness: every W of at least
    max(⌈rho·n⌉, 2) vertices, by itertools.combinations, has gap
    e(W) − d·C(|W|, 2), and G is dense when no gap is negative.  The least
    gap is None when there is no such W."""
    floor = max(ceil(Fraction(rho) * G.n), 2)
    gaps = [sum(G.has_edge(u, v) for u, v in combinations(W, 2)) - Fraction(d) * comb(k, 2)
            for k in range(floor, G.n + 1) for W in combinations(range(G.n), k)]
    least = min(gaps, default=None)
    return least is None or least >= 0, least


def naive_holds_clique(G, r):
    """Whether some r vertices of G are pairwise adjacent: every r-subset tried."""
    return any(all(G.has_edge(u, v) for u, v in combinations(vs, 2))
               for vs in combinations(range(G.n), r))


def check_pulled_back(colour, adj, F):
    """Assert that the vertex colouring `colour` of the host with adjacency
    rows `adj` is proper in fewer colours than F's Ramsey clique K_r has
    vertices, and that its pull-back is F-free: the host edge uv takes the
    colour of the edge {colour[u], colour[v]} in the library's
    `first_f_free_coloring(K_{r-1}, F)`.  Returns the host."""
    G = Graph(len(adj), [(u, v) for u in range(len(adj)) for v in range(u + 1, len(adj))
                         if adj[u] >> v & 1])
    K = complete_graph(_ramsey_clique(F).n - 1)
    assert len(colour) == G.n and all(0 <= c < K.n for c in colour), colour
    assert all(colour[u] != colour[v] for u, v in G.edges), colour
    chi = first_f_free_coloring(K, F)
    assert is_f_free([chi[K.edge_id(colour[u], colour[v])] for u, v in G.edges], G, F)[0]
    return G


def naive_bad_flags(Z, himage_edges, F, Uall):
    """Badness flags from the full copy list of the union graph.

    `himage_edges`: set of booster image edges; `Uall`: the union graph.
    """
    img = set(himage_edges)
    zedges = set(Z.edges)
    entries = []
    for vs, es in naive_copies(F, Uall):
        zonly = frozenset(e for e in es if e in zedges and e not in img)
        boost = frozenset(e for e in es if e in img)
        entries.append((zonly, boost))
    b1 = any(z and len(b) >= 2 for z, b in entries)
    b2 = b3 = False
    for (z1, s1), (z2, s2) in combinations(entries, 2):
        if not (s1 and s2 and (z1 & z2)):
            continue
        if s1 & s2:
            b3 = True
        if len(s1 | s2) >= 2:
            b2 = True
    return {"B1": b1, "B2": b2, "B3": b3}


def naive_hypergraph_stats(m, edges, tau):
    """Literal container statistics with exact rationals."""
    edges = [tuple(sorted(set(e))) for e in edges]
    edges = sorted(set(edges))
    ell = len(edges[0])
    assert all(len(e) == ell for e in edges)
    e_count = len(edges)
    d = Fraction(ell * e_count, m)
    tau = Fraction(tau)

    def deg_of(sigma):
        s = set(sigma)
        return sum(1 for e in edges if s <= set(e))

    delta_js = {}
    for j in range(2, ell + 1):
        total = 0
        for v in range(m):
            best = 0
            for sigma in combinations(range(m), j):
                if v in sigma:
                    best = max(best, deg_of(sigma))
            total += best
        delta_js[j] = Fraction(total) / (tau ** (j - 1) * m * d)
    delta = 2 ** (comb(ell, 2) - 1) * sum(
        Fraction(1, 2 ** comb(j - 1, 2)) * delta_js[j] for j in range(2, ell + 1)
    )
    deg = {v: sum(1 for e in edges if v in e) for v in range(m)}
    pair = {}
    for e in edges:
        for pr in combinations(e, 2):
            pair[pr] = pair.get(pr, 0) + 1
    return {
        "d": d,
        "delta_j": delta_js,
        "delta": delta if ell >= 2 else Fraction(0),
        "Delta1": max(deg.values(), default=0),
        "Delta2": max(pair.values(), default=0),
    }


def naive_maximal_independent_sets(m, edges):
    """Vertex sets of 0..m-1 holding no hyperedge, to which no vertex can be
    added, in ascending order of their bit masks; every subset is tried."""
    edges = [frozenset(e) for e in edges]

    def independent(s):
        return not any(e <= s for e in edges)

    out = []
    for mask in range(1 << m):
        s = frozenset(v for v in range(m) if mask >> v & 1)
        if independent(s) and not any(independent(s | {v}) for v in range(m) if v not in s):
            out.append(s)
    return out


# -- reference forms of the pinned searches ----------------------------------


def reference_search(adj, plan, dom, injective=True):
    """The pattern search with every position, the last included, taken
    from its candidate stack one vertex per pass of the main loop."""
    order, back, smaller = plan
    k = len(order)
    if k == 0:
        yield ()
        return
    img = [0] * k
    cand = [0] * k
    used = 0
    cand[0] = dom[0]
    i = 0
    while i >= 0:
        mask = cand[i]
        if not mask:
            i -= 1
            if injective and i >= 0:
                used ^= 1 << img[order[i]]
            continue
        low = mask & -mask
        cand[i] = mask ^ low
        img[order[i]] = low.bit_length() - 1
        if i + 1 == k:
            yield tuple(img)
            continue
        i += 1
        mask = dom[i]
        for y in back[i]:
            mask &= adj[img[y]]
        for y in smaller[i]:
            mask &= -2 << img[y]
        if injective:
            used |= low
            mask &= ~used
        cand[i] = mask


def reference_pinned(adj, plan, pin):
    """The maps by `plan` extending the pin dict `pin`, its domains built
    for this one call."""
    full = (1 << len(adj)) - 1
    return reference_search(adj, plan, [1 << pin[x] if x in pin else full for x in plan[0]])


def reference_copy_maps(F, adj, anchors):
    """One map per copy through each anchor in turn: each arc representative
    (x, y) of F pinned to the anchor, with its stabilizer's symmetry breaking."""
    return [m for a, b in anchors for x, y in _arc_representatives(F)
            for m in reference_pinned(adj, _breaking(F, (x, y)), {x: a, y: b})]


def reference_completions_through(F, Z, fixed_pair):
    """The P(e1, e2) completions through `fixed_pair`, grouped by witness:
    per (arc, f1) representative, the embeddings with the arc pinned to the
    pair and the arc and f1 exempt."""
    a, b = norm(*fixed_pair)
    out = {}
    for (x, y), (u1, v1), kept, _ in _pair_representatives(F):
        plan = _plan(F, (x, y), ((x, y), (u1, v1)))
        for m in reference_pinned(Z.adj, plan, {x: a, y: b}):
            out.setdefault(norm(m[u1], m[v1]), []).append((m, kept))
    return out


# -- reference forms of sampling and hypergraph statistics --------------------


def reference_gnp_sample(n, p, seed):
    """G(n, p) on `seed`: each pair, in lexicographic order, kept when its
    uniform is below p, read one Python float at a time."""
    pairs = combinations(range(n), 2)
    return Graph(n, [e for e, x in zip(pairs, pair_uniforms(n, seed).tolist()) if x < p])


def reference_hypergraph_stats(H, tau):
    """`booster.hypergraph_stats` from the degree of every j-subset of every
    hyperedge, 2^ℓ per hyperedge; the inputs are taken as valid."""
    tau = Fraction(tau)
    ell, m, e = H.uniformity(), H.m, len(H.edges)
    d = Fraction(ell * e, m)
    deg = {j: Counter(s for edge in H.edges for s in combinations(edge, j))
           for j in range(1, max(ell, 2) + 1)}
    delta_js = {}
    for j in range(2, ell + 1):
        best = Counter()  # vertex -> largest degree of a j-subset containing it
        for sigma, c in deg[j].items():
            for v in sigma:
                best[v] = max(best[v], c)
        delta_js[j] = Fraction(sum(best.values())) / (tau ** (j - 1) * m * d)
    delta = Fraction(2) ** (comb(ell, 2) - 1) * sum(
        Fraction(1, 2 ** comb(j - 1, 2)) * delta_js[j] for j in range(2, ell + 1)
    )
    return {
        "m": m,
        "e": e,
        "ell": ell,
        "d": d,
        "Delta1": max(deg[1].values(), default=0),
        "Delta2": max(deg[2].values(), default=0),
        "delta_j": delta_js,
        "delta": delta,
        "d_float": float(d),
        "delta_float": float(delta),
    }
