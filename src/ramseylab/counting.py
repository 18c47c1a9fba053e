"""Pattern searches and the counting families built on them.

Every count here is a search for maps of a small pattern into a host, and
all of them run on one core, `_search`: an iterative depth-first search
with one candidate bitmask per pattern position.  Embeddings with pins
and loose edges, copies, the deleted-edge families, the pair family
P(e1, e2), rooted extensions and basegraphs call it here; partite copies
and overlap counts call it from `regularity`.

A *copy* of a pattern in a host is an unlabelled image: the pair
(vertex set, edge set).  The embeddings of one copy are one orbit of
Aut(F), so copies and P(e1, e2) completions are generated once per orbit,
not |Aut F| times: the search carries the symmetry-breaking conditions of
Grochow and Kellis (RECOMB 2007), and the completions search one
representative per orbit of (pinned arc, deleted edge) pairs.  Orbits are
found by existence queries for embeddings of F into itself, never by
listing Aut(F), and all per-pattern work is memoised on the pattern.
`embeddings` still yields every labelled map, since extension counts and
basegraphs count labelled maps.  Patterns with isolated vertices keep
their vertex placements (the vertex set is part of the copy), which the
two-edge-deleted pair families rely on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, ceil

from .density import PATTERN_VERTEX_CAP
from .graphs import Graph


def _norm(u, v):
    return (u, v) if u < v else (v, u)


@cache
def _pattern_order(F, pinned):
    """Static search order: pinned first, then greedy max back-connectivity
    (ties to the larger degree, then the smaller vertex)."""
    order = list(pinned)
    back = [0] * F.n
    for x in order:
        for y in F.neighbours(x):
            back[y] += 1
    rest = set(range(F.n)) - set(order)
    # max-heap on (back, degree, -x) with stale entries skipped when popped
    heap = [(-back[x], -F.degree(x), x) for x in rest]
    heapq.heapify(heap)
    while rest:
        b, _, x = heapq.heappop(heap)
        if x not in rest or -b != back[x]:
            continue
        order.append(x)
        rest.remove(x)
        for y in F.neighbours(x):
            back[y] += 1
            if y in rest:
                heapq.heappush(heap, (-back[y], -F.degree(y), y))
    return tuple(order)


@cache
def _back_lists(F, order, loose):
    """For each position, its earlier non-loose neighbours in `order`."""
    pos = {v: i for i, v in enumerate(order)}
    return tuple(
        tuple(y for y in F.neighbours(x) if pos[y] < i and _norm(x, y) not in loose)
        for i, x in enumerate(order)
    )


def _search(F, G, order, dom, loose=frozenset(), injective=True, smaller=None):
    """Yield every map of F into G as a tuple indexed by pattern vertex.

    Pattern vertex order[i] takes a host vertex from the bitmask dom[i]
    that is adjacent to the images of its earlier neighbours; pattern
    edges in `loose` impose nothing.  With `injective` the images are
    distinct (embeddings), without it they may repeat (homomorphisms).
    `smaller[i]`, when given, lists pattern vertices at earlier positions
    whose images must be smaller than the image of order[i].  Maps come
    in lexicographic order of their images in search order.  The
    depth-first search keeps one candidate bitmask per position on an
    explicit stack, so no pattern size reaches the recursion limit.
    """
    k = len(order)
    if k == 0:
        yield ()
        return
    back = _back_lists(F, tuple(order), frozenset(_norm(*e) for e in loose))
    if smaller is None:
        smaller = ((),) * k
    adj = G.adj
    img = [0] * F.n
    cand = [0] * k
    used = 0  # images of positions 0..i-1 when injective
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
            mask &= -2 << img[y]  # host vertices above img[y]
        if injective:
            used |= low
            mask &= ~used
        cand[i] = mask


def _pin_domains(order, pin, n):
    full = (1 << n) - 1
    return [1 << pin[x] if x in pin else full for x in order]


def embeddings(F, G, pin=None, loose=frozenset()):
    """Injective maps of F into G (tuples indexed by pattern vertex).

    `pin` pre-assigns pattern vertices to host vertices; pattern edges in
    `loose` are exempt from the host-edge requirement (their images may
    land on any vertex pair).
    """
    if F.n > G.n:
        return iter(())
    pin = dict(pin or {})
    order = _pattern_order(F, tuple(pin))
    return _search(F, G, order, _pin_domains(order, pin, G.n), loose)


# -- automorphism orbits of a pattern ----------------------------------


def _automorphic(F, pairs):
    """Whether some automorphism of F sends x to y for every (x, y) in pairs."""
    pin = {}
    for x, y in pairs:
        if pin.setdefault(x, y) != y:
            return False
    return next(embeddings(F, F, pin=pin), None) is not None


@cache
def _breaking(F, pinned):
    """Search order and symmetry-breaking conditions for the pointwise
    stabilizer A of the `pinned` vertices in Aut(F).

    The base points of A's stabilizer chain are the unpinned vertices in
    search order.  The image of each base point b must be smaller than
    the image of every other vertex in b's orbit under the stabilizer of
    all earlier positions; A's orbits on the embeddings extending a pin
    then keep exactly one map each, the lexicographically first in search
    order (Grochow and Kellis, RECOMB 2007).
    """
    order = _pattern_order(F, pinned)
    fixed = [(x, x) for x in order[: len(pinned)]]
    smaller = {x: [] for x in order}
    for i in range(len(pinned), len(order)):
        b = order[i]
        for v in order[i + 1:]:
            if _automorphic(F, fixed + [(b, v)]):
                smaller[v].append(b)
        fixed.append((b, b))
    return order, tuple(tuple(smaller[x]) for x in order)


def _orbit_embeddings(F, G, pin=None):
    """One embedding of F into G extending `pin` per orbit of the
    pointwise stabilizer of the pinned vertices in Aut(F): without a pin,
    the lexicographically first map of each copy in search order."""
    pin = dict(pin or {})
    order, smaller = _breaking(F, tuple(pin))
    return _search(F, G, order, _pin_domains(order, pin, G.n), smaller=smaller)


@cache
def _arc_representatives(F):
    """One arc (x, y), i.e. an edge with an orientation, per Aut(F)-orbit."""
    reps, covered = [], set()
    arcs = [a for x, y in F.edges for a in ((x, y), (y, x))]
    for x, y in arcs:
        if (x, y) in covered:
            continue
        reps.append((x, y))
        covered.update(a for a in arcs if _automorphic(F, [(x, a[0]), (y, a[1])]))
    return tuple(reps)


@cache
def _pair_representatives(F):
    """One (arc f0, edge f1 != f0) per Aut(F)-orbit of such pairs: the arc
    representatives, each with one edge per orbit of its stabilizer.
    Each comes as (arc, f1, the edges of F other than f0 and f1)."""
    reps = []
    for x, y in _arc_representatives(F):
        f0 = _norm(x, y)
        covered = {f0}
        for f1 in F.edges:
            if f1 in covered:
                continue
            reps.append(((x, y), f1, tuple(e for e in F.edges if e not in (f0, f1))))
            covered.update(
                g for g in F.edges
                if _automorphic(F, [(x, x), (y, y), (f1[0], g[0]), (f1[1], g[1])])
                or _automorphic(F, [(x, x), (y, y), (f1[0], g[1]), (f1[1], g[0])])
            )
    return tuple(reps)


@dataclass(frozen=True)
class Copy:
    """Unlabelled image of a pattern: vertex set, edge set, one witness map."""

    vertices: frozenset
    edges: frozenset
    map: tuple

    def key(self):
        return (tuple(sorted(self.vertices)), tuple(sorted(self.edges)))


@dataclass
class CopyFamily:
    pattern: Graph
    host: Graph
    copies: list

    def __len__(self):
        return len(self.copies)


def _collect_copies(F, G, maps):
    seen = {}
    for m in maps:
        es = frozenset(_norm(m[u], m[v]) for u, v in F.edges)
        key = (frozenset(m), es)
        if key not in seen:
            seen[key] = Copy(vertices=key[0], edges=es, map=m)
    return sorted(seen.values(), key=Copy.key)


def enumerate_copies(F, G, anchor=None):
    """All unlabelled copies of F in G; with `anchor`, only copies whose
    edge set contains that host pair."""
    if F.n > PATTERN_VERTEX_CAP:  # enumeration is exponential in the pattern
        raise ValueError(f"pattern on {F.n} vertices exceeds the cap of {PATTERN_VERTEX_CAP}")
    if F.n > G.n:
        raise ValueError(f"pattern on {F.n} vertices larger than host on {G.n}")
    if anchor is None:
        return CopyFamily(F, G, _collect_copies(F, G, _orbit_embeddings(F, G)))
    # the maps of a copy through the anchor send one orbit of arcs onto
    # (a, b), and those sending its representative form one stabilizer orbit
    a, b = anchor
    maps = (m for x, y in _arc_representatives(F)
            for m in _orbit_embeddings(F, G, pin={x: a, y: b}))
    return CopyFamily(F, G, _collect_copies(F, G, maps))


def are_isomorphic(F1, F2):
    """Isomorphism test for small graphs via the embedding search.

    With equal vertex and edge counts an injective edge-preserving map
    is bijective and edge-surjective, hence an isomorphism.
    """
    if F1.n != F2.n or F1.num_edges() != F2.num_edges():
        return False
    return next(embeddings(F1, F2), None) is not None


def _dedupe_by_iso(graphs):
    reps = []
    for g in graphs:
        if not any(are_isomorphic(g, r) for r in reps):
            reps.append(g)
    return reps


def f_minus_members(F):
    """Iso-class representatives of F with one edge removed (spanning)."""
    if F.num_edges() < 1:
        raise ValueError("pattern needs at least one edge")
    return _dedupe_by_iso([F.without_edges([e]) for e in F.edges])


def count_f_minus(F, Z):
    """Number of copies in Z of members of the one-edge-deleted family."""
    return sum(len(enumerate_copies(M, Z)) for M in f_minus_members(F))


def count_f_minus_through(F, Z, e):
    """Copies of one-edge-deleted members that contain the edge e of Z."""
    e = _norm(*e)
    if e not in Z._index:
        raise ValueError(f"anchor {e} is not an edge of the host")
    return sum(len(enumerate_copies(M, Z, anchor=e)) for M in f_minus_members(F))


# -- the two-edge-deleted pair family ----------------------------------


def _completions_through(F, Z, fixed_pair):
    """Copies F1 of two-edge-deleted F in Z together with witness pairs.

    Each result is (vertex set, edge set, witness) of the copy
    F1 = K - fixed_pair - witness for an F-copy K of K_n with all other
    edges inside Z.  The same F1 may carry several witnesses.
    """
    a, b = _norm(*fixed_pair)
    out = set()
    # a result is unchanged when an automorphism of F moves the pinned arc,
    # the deleted edge f1 and the map together, so one (arc, f1) per orbit
    # suffices; what a pair's stabilizer leaves over, the set absorbs
    for (x, y), f1, kept in _pair_representatives(F):
        for m in embeddings(F, Z, pin={x: a, y: b}, loose=((x, y), f1)):
            rest = frozenset(_norm(m[u], m[v]) for u, v in kept)
            out.add((frozenset(m), rest, _norm(m[f1[0]], m[f1[1]])))
    return out


def enumerate_P(F, Z, e1, e2):
    """Ordered pairs (F1, F2) of edge-disjoint two-edge-deleted F-copies
    where one common pair {x,y} completes F1 with e1 and F2 with e2 to F.

    Returns a list of (copy1, copy2, s) with s = |V(F1) ∩ V(F2)|; e1, e2
    need not be edges of Z.
    """
    e1, e2 = _norm(*e1), _norm(*e2)
    if e1 == e2:
        raise ValueError("e1 and e2 must be distinct pairs")
    side1 = _completions_through(F, Z, e1)
    side2 = _completions_through(F, Z, e2)
    by_witness = {}
    for vs, es, w in side2:
        by_witness.setdefault(w, []).append((vs, es))
    found = {}
    for vs1, es1, w in side1:
        for vs2, es2 in by_witness.get(w, ()):
            if es1 & es2:
                continue
            key = (vs1, es1, vs2, es2)
            if key not in found:
                found[key] = len(vs1 & vs2)
    return [
        (Copy(vs1, es1, ()), Copy(vs2, es2, ()), s)
        for (vs1, es1, vs2, es2), s in sorted(
            found.items(), key=lambda kv: (sorted(kv[0][0]), sorted(kv[0][1]),
                                           sorted(kv[0][2]), sorted(kv[0][3]))
        )
    ]


def count_P(F, Z, e1, e2):
    return len(enumerate_P(F, Z, e1, e2))


# -- rooted extensions --------------------------------------------------


def extension_count(roots, H, host_roots, G):
    """Number of ordered (R,H)-extension tuples of host_roots in G.

    Only root-to-extension and extension-internal edges of H are
    required; edges inside the root set impose nothing.
    """
    R = list(roots)
    X = list(host_roots)
    if len(R) != len(X):
        raise ValueError("root lists must have equal length")
    if len(set(X)) != len(X):
        raise ValueError("repeated host roots")
    rset = set(R)
    if len(rset) != len(R):
        raise ValueError("repeated pattern roots")
    if not rset < set(range(H.n)):
        raise ValueError("roots must form a proper subset of V(H)")
    for x in X:
        if not 0 <= x < G.n:
            raise ValueError(f"host root {x} out of range")
    inner = [(u, v) for u, v in H.edges if u in rset and v in rset]
    return sum(1 for _ in embeddings(H, G, pin=dict(zip(R, X)), loose=inner))


# -- basegraph and property T -------------------------------------------


def _hole_edges(F, F_prime):
    """Edges ê of F whose removal leaves a graph isomorphic to F_prime."""
    return [e for e in F.edges if are_isomorphic(F.without_edges([e]), F_prime)]


def base_graph(profile, Gp):
    """Pairs {x,y} completing a copy of the bipartite part inside Gp to F."""
    if profile.nearly_bipartite_witness is None:
        raise ValueError("pattern is not nearly bipartite")
    F = profile.pattern
    F_prime = F.without_edges([profile.nearly_bipartite_witness])
    pairs = set()
    for hole in _hole_edges(F, F_prime):
        a, b = hole
        for m in embeddings(F, Gp, loose={hole}):
            pairs.add(_norm(m[a], m[b]))
    return Graph(Gp.n, pairs)


def _require_subgraph(G, Gp):
    if Gp.n != G.n:
        raise ValueError("G' must live on the vertex set of G")
    if not set(Gp.edges) <= set(G.edges):
        raise ValueError("G' is not a subgraph of G")


def check_T(profile, G, Gp, lam, eta):
    """Single-subgraph check of the basegraph-copies property.

    Returns a record with the density-floor flag, the number of F-copies
    in the basegraph of Gp, and the verdict against eta * n^{v(F)}.
    """
    _require_subgraph(G, Gp)
    F = profile.pattern
    meets_floor = Fraction(Gp.num_edges()) >= Fraction(lam) * G.num_edges()
    copies = len(enumerate_copies(F, base_graph(profile, Gp)))
    required = Fraction(eta) * Fraction(G.n) ** F.n
    return {
        "meets_density_floor": meets_floor,
        "basegraph_copies": copies,
        "required": float(required),
        "passes": (not meets_floor) or Fraction(copies) >= required,
        "vacuous": not meets_floor,
    }


def adversarial_T_search(profile, G, lam, eta, budget=2000, seed=None):
    """Randomized greedy refuter: minimize basegraph F-copies over
    subgraphs at the density floor.  Heuristic only; returns the worst
    subgraph found and its check record."""
    from .graphs import Seed

    rng = (seed or Seed()).generator()
    m = G.num_edges()
    k = ceil(lam * m)
    if k > m:
        raise ValueError("density floor above e(G)")
    F = profile.pattern

    def copies_of(edge_idx):
        gp = Graph(G.n, [G.edges[i] for i in edge_idx])
        return len(enumerate_copies(F, base_graph(profile, gp)))

    best_idx, best_val = None, None
    evals = 0
    while evals < budget:
        idx = set(rng.choice(m, size=k, replace=False).tolist()) if k < m else set(range(m))
        val = copies_of(idx)
        evals += 1
        improved = True
        while improved and evals < budget:
            improved = False
            outside = [i for i in range(m) if i not in idx]
            rng.shuffle(outside)
            inside = list(idx)
            rng.shuffle(inside)
            for i_out in outside[: min(8, len(outside))]:
                for i_in in inside[: min(8, len(inside))]:
                    cand = (idx - {i_in}) | {i_out}
                    v = copies_of(cand)
                    evals += 1
                    if v < val:
                        idx, val = cand, v
                        improved = True
                        break
                    if evals >= budget:
                        break
                if improved or evals >= budget:
                    break
        if best_val is None or val < best_val:
            best_idx, best_val = idx, val
        if k == m:
            break
    worst = Graph(G.n, [G.edges[i] for i in sorted(best_idx)])
    record = check_T(profile, G, worst, lam, eta)
    record["worst_subgraph"] = worst
    return record


# -- (rho, d)-denseness --------------------------------------------------


RHO_DENSE_EXACT_CAP = 20


def rho_d_dense_check(G0, rho, d, mode="exact", seed=None, restarts=200):
    """Check every large vertex set spans relative density >= d.

    Exact mode enumerates all W with |W| >= rho * v(G0) (cap: 20
    vertices).  Heuristic mode is a seeded local-search refuter.
    """
    n = G0.n
    floor = ceil(Fraction(rho) * n)
    floor = max(floor, 2)
    dfrac = Fraction(d)

    def violation(size, count):
        return Fraction(count) < dfrac * comb(size, 2)

    if mode == "exact":
        if n > RHO_DENSE_EXACT_CAP:
            raise ValueError(f"exact mode capped at {RHO_DENSE_EXACT_CAP} vertices")
        ecount = [0] * (1 << n)
        worst = None  # (density gap, W, count)
        for mask in range(1, 1 << n):
            low = mask & -mask
            v = low.bit_length() - 1
            prev = mask ^ low
            ecount[mask] = ecount[prev] + bin(G0.adj[v] & prev).count("1")
            size = bin(mask).count("1")
            if size >= floor:
                cnt = ecount[mask]
                gap = Fraction(cnt) - dfrac * comb(size, 2)
                if worst is None or gap < worst[0]:
                    worst = (gap, mask, cnt, size)
        if worst is None:
            return {"dense": True, "mode": "exact", "witness": None}
        gap, mask, cnt, size = worst
        W = [v for v in range(n) if mask >> v & 1]
        return {
            "dense": not violation(size, cnt),
            "mode": "exact",
            "witness": {"W": W, "edges": cnt, "pairs": comb(size, 2)},
        }

    if mode != "heuristic":
        raise ValueError(f"unknown mode {mode!r}")
    from .graphs import Seed

    rng = (seed or Seed()).generator()

    def count_in(Wmask):
        total = 0
        mm = Wmask
        while mm:
            low = mm & -mm
            v = low.bit_length() - 1
            mm ^= low
            total += bin(G0.adj[v] & Wmask).count("1")
        return total // 2

    worst = None
    for _ in range(restarts):
        size = int(rng.integers(floor, n + 1))
        W = set(rng.choice(n, size=size, replace=False).tolist())
        Wmask = sum(1 << v for v in W)
        cnt = count_in(Wmask)
        improved = True
        while improved:
            improved = False
            for v_out in list(W):
                for v_in in range(n):
                    if v_in in W:
                        continue
                    cand = (Wmask ^ (1 << v_out)) | (1 << v_in)
                    c2 = count_in(cand)
                    if c2 < cnt:
                        W.discard(v_out)
                        W.add(v_in)
                        Wmask, cnt = cand, c2
                        improved = True
                        break
                if improved:
                    break
        ratio = Fraction(cnt, comb(len(W), 2)) if len(W) >= 2 else Fraction(1)
        if worst is None or ratio < worst[0]:
            worst = (ratio, sorted(W), cnt)
    ratio, W, cnt = worst
    return {
        "dense": None if not violation(len(W), cnt) else False,
        "mode": "heuristic",
        "witness": {"W": W, "edges": cnt, "pairs": comb(len(W), 2)},
        "note": "refuter only" if not violation(len(W), cnt) else "violation found",
    }
