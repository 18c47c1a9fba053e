"""Pattern searches and the counting families built on them.

Every count here is a search for maps of a small pattern into a host.  A
search host is its adjacency rows, one bitmask per vertex, so a union
Z ∪ h(B) is searched on Z's rows with the booster pairs ORed in, and no
Graph is built for it.  A *copy* of a pattern is an unlabelled image, the
pair (vertex set, edge set); its key is (sorted vertex tuple, sorted edge
tuple), and copies are listed in key order.  A copy query has one of two
shapes, each on its own engine:

- **Whole host.** `_copy_array` runs the unanchored search level by level
  in numpy over 64-bit adjacency words and returns one map per copy as
  one array.  `_sorted_copies` adds each copy's sorted vertices and
  sorted pair codes (`_pair_codes`) and puts the rows in key order; it is
  the one place copies are sorted.  `enumerate_copies` decodes its rows,
  `arrowing._id_array` turns its codes into edge ids, the one form of
  the NAE system, and the full `booster.embedding_pool` reads its maps.
  Counts read `_copy_array` alone: the F⁻ tallies (`_copy_counts`,
  `count_f_minus`) and the basegraph copies of property T.
- **Through anchors.** `_anchored_maps` runs `_search`, an iterative
  depth-first search with one candidate bitmask per pattern position,
  with an arc of F pinned to each anchor in turn; `_anchored_copies`
  returns each copy's key and first witness map from it, in key order.
  Booster unions, anchored `enumerate_copies` and `count_f_minus_through`
  read it; `booster._is_bad` reads the maps themselves, up to its first
  witness of badness.

An existence query, `_holds_copy`, stops the unanchored `_search` or
`_anchored_maps` at its first map and returns that map, a witness, or
None; it collects no other copy, so it answers on hosts where the
whole-host query would list billions of copies.

Both shapes and `_holds_copy` own both pattern-size rules: a pattern
with more vertices than its host has no copies, and one that fits must
be within the pattern cap of `density`.  A copy's embeddings are one
orbit of Aut(F), so all three search once per orbit, not |Aut F| times,
with the symmetry-breaking conditions of Grochow and Kellis (RECOMB
2007).  Orbits are found by existence queries for embeddings of F into
itself, never by listing Aut(F) (a pin across degrees needs no search),
and all per-pattern work is memoised on the pattern, the pinned plans
included (`_arc_plans`, `_pair_representatives`).

The labelled queries also run on `_search`: `embeddings` yields every
labelled map, with pins and loose edges, for extension counts and
basegraphs; it keeps its own fit guard and has no cap, as it serves
patterns such as P1200.  Patterns with isolated vertices keep their
vertex placements (the vertex set is part of the copy), which the
two-edge-deleted pair families rely on.  The pair family `_PairFamily`
searches the completions through each pair once, one representative per
orbit of (pinned arc, deleted edge) pairs, and builds copy sets per
query; its ceiling, read off Z's largest degree, settles light pairs
with no search.  Its queries take two distinct, normalised pairs and
check nothing; `count_P` and `enumerate_P` check the pairs a caller
names from outside.  The heuristic denseness check counts the edges
inside each starting vertex set once, with `graphs.edge_count_between`,
and derives the count after each candidate swap from two popcounts of
adjacency masks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from math import ceil, comb, prod

import numpy as np

from .density import _check_cap, _check_roots
from .graphs import Graph, Seed, _bits, _float, _is_id, _vertex_mask, edge_count_between


def _norm(u, v):
    return (u, v) if u < v else (v, u)


def _host_pair(n, e, name=""):
    """`e` normalised, once checked to be two distinct vertex ids below n
    (`_is_id`): the one check of every host pair a caller names."""
    if not (isinstance(e, (tuple, list)) and len(e) == 2
            and _is_id(e[0], n) and _is_id(e[1], n) and e[0] != e[1]):
        raise ValueError(f"{name}{e!r} is not a pair of distinct host vertices")
    return _norm(*e)


@cache
def _plan(F, pinned, loose=()):
    """The search plan of F with the `pinned` vertices first and the
    pattern edges in `loose` exempt, as (order, back lists, symmetry
    conditions).  The order is static: pinned first, then greedy max
    back-connectivity (ties to the larger degree, then the smaller vertex).
    Each position's back list holds its earlier non-loose neighbours; this
    plan breaks no symmetry (see `_breaking`)."""
    order = list(pinned)
    back = [0] * F.n
    for x in order:
        for y in F.neighbours(x):
            back[y] += 1
    rest = set(range(F.n)) - set(order)
    while rest:
        x = max(rest, key=lambda x: (back[x], F.degree(x), -x))
        order.append(x)
        rest.remove(x)
        for y in F.neighbours(x):
            back[y] += 1
    pos = {v: i for i, v in enumerate(order)}
    loose = {_norm(*e) for e in loose}
    back_lists = tuple(
        tuple(y for y in F.neighbours(x) if pos[y] < i and _norm(x, y) not in loose)
        for i, x in enumerate(order)
    )
    return tuple(order), back_lists, ((),) * F.n


def _search(adj, plan, dom, injective=True):
    """Yield every map of a pattern into the host rows `adj`, by its `plan`
    (see `_plan`), as a tuple indexed by pattern vertex.

    Pattern vertex order[i] takes a host vertex from the bitmask dom[i]
    that is adjacent to the images of the vertices in back[i].  With
    `injective` the images are distinct (embeddings), without it they may
    repeat (homomorphisms).  smaller[i] lists pattern vertices at earlier
    positions whose images must be smaller than the image of order[i].
    Maps come in lexicographic order of their images in search order.  The
    depth-first search keeps one candidate bitmask per position on an
    explicit stack, so no pattern size reaches the recursion limit; the
    last position's candidates are walked in one inner loop.
    """
    order, back, smaller = plan
    k = len(order)
    if k < 2:  # no position before the last
        yield from ((v,) for v in _bits(dom[0]))
        return
    img = [0] * k
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
        j = i + 1
        mask = dom[j]
        for y in back[j]:
            mask &= adj[img[y]]
        for y in smaller[j]:
            mask &= -2 << img[y]  # host vertices above img[y]
        if injective:
            mask &= ~(used | low)
        if j + 1 < k:
            cand[j] = mask
            if injective:
                used |= low
            i = j
            continue
        x = order[j]
        while mask:
            low = mask & -mask
            img[x] = low.bit_length() - 1
            yield tuple(img)
            mask ^= low


def embeddings(F, G, pin=None, loose=()):
    """Injective maps of F into G (tuples indexed by pattern vertex).

    `pin` pre-assigns pattern vertices to host vertices; pattern edges in
    `loose` are exempt from the host-edge requirement (their images may
    land on any vertex pair).
    """
    if F.n > G.n:
        return iter(())
    pin = dict(pin or {})
    plan = _plan(F, tuple(pin), tuple(loose))
    full = (1 << G.n) - 1
    return _search(G.adj, plan, [1 << pin[x] if x in pin else full for x in plan[0]])


# -- automorphism orbits of a pattern ----------------------------------


def _automorphic(F, pairs):
    """Whether some automorphism of F sends x to y for every (x, y) in pairs;
    an automorphism keeps degrees, so a pin across degrees needs no search."""
    pin = {}
    for x, y in pairs:
        if pin.setdefault(x, y) != y or F.degree(x) != F.degree(y):
            return False
    return next(embeddings(F, F, pin=pin), None) is not None


@cache
def _breaking(F, pinned):
    """The search plan of F with the `pinned` vertices first (`_plan`), with
    the symmetry-breaking conditions of the pointwise stabilizer A of the
    pinned vertices in Aut(F).

    The base points of A's stabilizer chain are the unpinned vertices in
    search order.  The image of each base point b must be smaller than
    the image of every other vertex in b's orbit under the stabilizer of
    all earlier positions; A's orbits on the embeddings extending a pin
    then keep exactly one map each, the lexicographically first in search
    order (Grochow and Kellis, RECOMB 2007).
    """
    order, back, _ = _plan(F, pinned)
    fixed = [(x, x) for x in order[: len(pinned)]]
    smaller = {x: [] for x in order}
    for i in range(len(pinned), len(order)):
        b = order[i]
        for v in order[i + 1:]:
            if _automorphic(F, fixed + [(b, v)]):
                smaller[v].append(b)
        fixed.append((b, b))
    return order, back, tuple(tuple(smaller[x]) for x in order)


def _automorphism_count(F):
    """|Aut F|, the number of embeddings of F into itself, as the product
    of the orbit sizes along the base of `_breaking`: each base point, and
    the later vertices that must take a larger image than it."""
    order, _, smaller = _breaking(F, ())
    return prod(1 + sum(b in s for s in smaller) for b in order)


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
def _arc_plans(F):
    """The plan of each arc representative (x, y), x and y pinned first, with
    the symmetry breaking of their pointwise stabilizer (`_breaking`)."""
    return tuple(_breaking(F, arc) for arc in _arc_representatives(F))


@cache
def _pair_representatives(F):
    """One (arc f0, edge f1 != f0) per Aut(F)-orbit of such pairs: the arc
    representatives, each with one edge per orbit of its stabilizer.
    Each comes as (arc, f1, the edges of F other than f0 and f1, the plan
    with the arc pinned first and f0 and f1 loose)."""
    reps = []
    for x, y in _arc_representatives(F):
        f0 = _norm(x, y)
        covered = {f0}
        for f1 in F.edges:
            if f1 in covered:
                continue
            kept = tuple(e for e in F.edges if e not in (f0, f1))
            reps.append(((x, y), f1, kept, _plan(F, (x, y), ((x, y), f1))))
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
    copies: list

    def __len__(self):
        return len(self.copies)


def _word_table(masks, words):
    """The int bitmasks `masks` as rows of `words` 64-bit little-endian words."""
    return np.frombuffer(b"".join(m.to_bytes(8 * words, "little") for m in masks),
                         "<u8").reshape(len(masks), words)


def _copy_array(F, adj):
    """Every map of the unanchored orbit search of F into the host rows
    `adj` (`_search` by `_breaking(F, ())`), one per copy, in `_search`'s
    order, as one (copies × F.n) array indexed by pattern vertex.

    The search runs level by level: each partial map's candidates are the
    AND of its back neighbours' rows, held as 64-bit words, less the host
    vertices at or below the images `smaller` names and the images of the
    other earlier positions (a back neighbour's image is no neighbour of
    itself).  Set bits are read row, byte, then bit, so each level keeps
    the depth-first search's lexicographic order.  Memory is the host's
    n × ⌈n/64⌉ words, as many in the cached table of `_above`, and each
    level's partial maps and their candidate words.  It owns both
    pattern-size rules: a pattern with more vertices than the host has no
    copies, found with no search; one that fits must be within
    `density._check_cap`."""
    n, k = len(adj), F.n
    if k > n:
        return np.empty((0, k), np.intp)
    _check_cap(F)
    order, back, smaller = _breaking(F, ())
    pos = {x: i for i, x in enumerate(order)}
    words = -(-n // 64)
    rows = _word_table(adj, words)
    maps = np.arange(n, dtype=np.intp)[:, None]  # images of positions 0..i-1, per partial map
    for i in range(1, k):
        if not len(maps):
            return np.empty((0, k), np.intp)
        fixed = [pos[y] for y in back[i]]
        if fixed:
            cand = rows[maps[:, fixed[0]]]
            for j in fixed[1:]:
                cand &= rows[maps[:, j]]
        else:
            cand = np.repeat(_word_table([(1 << n) - 1], words), len(maps), axis=0)
        if smaller[i]:
            below = [pos[y] for y in smaller[i]]
            fixed += below
            cand &= _above(n)[maps[:, below[0]] if len(below) == 1 else maps[:, below].max(axis=1)]
        every = None  # the row index of each partial map, built on first use
        for j in range(i):
            if j not in fixed:
                if every is None:
                    every = np.arange(len(maps))
                v = maps[:, j]
                cand[every, v >> 6] &= ~np.left_shift(np.uint64(1), (v & 63).astype(np.uint64))
        octets = cand.view(np.uint8)[:, :-(-n // 8)]  # bit t of byte c: host vertex 8c + t
        parent, byte = np.nonzero(octets)
        hit, bit = np.nonzero(np.unpackbits(octets[parent, byte][:, None], axis=1,
                                            bitorder="little"))
        grown = np.empty((len(hit), i + 1), np.intp)
        grown[:, :i] = maps[parent[hit]]
        grown[:, i] = byte[hit] * 8 + bit
        maps = grown
    out = np.empty_like(maps)
    out[:, order] = maps
    return out


@lru_cache(maxsize=8)
def _above(n):
    """Row v: the host vertices above v among n, as read-only `_word_table`
    words, kept for the last 8 n searched: n × ⌈n/64⌉ words each."""
    full = (1 << n) - 1
    return _word_table([full & (-2 << v) for v in range(n)], -(-n // 64))


def _anchored_copies(F, adj, anchors):
    """((sorted vertex tuple, sorted edge tuple), first witness map) of each
    copy of F in the host rows `adj` through one of the host pairs
    `anchors`, in key order.  The maps come from `_search`, one per copy
    through each anchor in turn, so a copy through several anchors keeps
    the first map that reaches it.  The pattern-size rules are those of
    `_copy_array`."""
    if F.n > len(adj):
        return []
    _check_cap(F)
    edges, seen = F.edges, {}
    for m in _anchored_maps(F, adj, anchors):
        es = []
        for u, v in edges:
            x, y = m[u], m[v]
            es.append((x, y) if x < y else (y, x))
        es.sort()
        key = (tuple(sorted(m)), tuple(es))
        if key not in seen:
            seen[key] = m
    return sorted(seen.items())


def _anchored_maps(F, adj, anchors):
    """The maps of `_search` into the host rows `adj` with each arc plan of
    F (`_arc_plans`) pinned to each host pair of `anchors` in turn: one map
    per copy through each anchor.  The maps of a copy through an anchor
    send one orbit of arcs onto (a, b), and those sending its
    representative form one stabilizer orbit."""
    plans = _arc_plans(F)
    dom = [0, 0] + [(1 << len(adj)) - 1] * (F.n - 2)
    for a, b in anchors:
        dom[0], dom[1] = 1 << a, 1 << b  # each search below ends before the next anchor
        for plan in plans:
            yield from _search(adj, plan, dom)


def _pair_codes(F, maps, n):
    """The code min·n + max of each pattern edge's image, one row per map of
    the (maps × F.n) array `maps`: codes compare as the host pairs they name."""
    ends = maps[:, np.array(F.edges, dtype=np.intp).reshape(-1, 2)]  # map, pattern edge, end
    return ends.min(axis=2) * n + ends.max(axis=2)


def _sorted_copies(F, adj):
    """(maps, vertices, codes) of the copies of F in the host rows `adj`:
    each copy's one map from `_copy_array`, its sorted vertices and its
    sorted pair codes (`_pair_codes`), one row per copy, the rows in key
    order (sorted vertices, then sorted codes).  The one place whole-host
    copies are sorted."""
    maps = _copy_array(F, adj)
    vertices = np.sort(maps, axis=1)
    codes = np.sort(_pair_codes(F, maps, len(adj)), axis=1)
    rank = np.lexsort(np.hstack((vertices, codes)).T[::-1])
    return maps[rank], vertices[rank], codes[rank]


def _holds_copy(F, adj, anchors=None):
    """The first map of F into the host rows `adj`, a witness, or None,
    with no other copy collected.  With no `anchors` it is the first map
    of the unanchored orbit search (`_search` by `_breaking(F, ())`), so
    None means the rows hold no copy.  With host pairs `anchors` it is the
    first of `_anchored_maps`, the maps `_anchored_copies` reads, so None
    means no copy passes through an anchor.  The pattern-size rules are
    those of `_copy_array`."""
    if F.n > len(adj):
        return None
    _check_cap(F)
    if anchors is None:
        maps = _search(adj, _breaking(F, ()), [(1 << len(adj)) - 1] * F.n)
    else:
        maps = _anchored_maps(F, adj, anchors)
    return next(maps, None)


def _copy_counts(F, G):
    """The number of copies of F in G and the pair code u·n + v (u < v) of
    each edge of each copy, one flat array, read off `_copy_array`: a
    tally of the codes counts the copies through each host edge."""
    maps = _copy_array(F, G.adj)
    return len(maps), _pair_codes(F, maps, G.n).ravel()


def enumerate_copies(F, G, anchor=None):
    """All unlabelled copies of F in G; with `anchor`, only copies whose
    edge set contains that host pair, which must be two distinct vertex
    ids of G (a non-edge has no copies through it)."""
    if anchor is not None:
        _host_pair(G.n, anchor, "anchor ")
        return CopyFamily([Copy(frozenset(vs), frozenset(es), m)
                           for (vs, es), m in _anchored_copies(F, G.adj, [anchor])])
    maps, vertices, codes = _sorted_copies(F, G.adj)
    rows = zip(maps.tolist(), vertices.tolist(), (codes // G.n).tolist(), (codes % G.n).tolist())
    return CopyFamily([Copy(frozenset(vs), frozenset(zip(us, ws)), tuple(m))
                       for m, vs, us, ws in rows])


def are_isomorphic(F1, F2):
    """Isomorphism test for small graphs via the embedding search.

    With equal vertex and edge counts an injective edge-preserving map
    is bijective and edge-surjective, hence an isomorphism.
    """
    if F1.n != F2.n or F1.num_edges() != F2.num_edges():
        return False
    if sorted(map(F1.degree, range(F1.n))) != sorted(map(F2.degree, range(F2.n))):
        return False
    return next(embeddings(F1, F2), None) is not None


@cache
def f_minus_members(F):
    """Iso-class representatives of F with one edge removed (spanning), each
    from the first edge giving it, in edge order; an Aut(F)-orbit of edges
    gives one class, so only each orbit's first edge (its first arc) is tried."""
    if F.num_edges() < 1:
        raise ValueError("pattern needs at least one edge")
    reps = []
    for e in dict.fromkeys(_norm(*arc) for arc in _arc_representatives(F)):
        g = F.without_edges([e])
        if not any(are_isomorphic(g, r) for r in reps):
            reps.append(g)
    return tuple(reps)


def count_f_minus(F, Z):
    """Number of copies in Z of members of the one-edge-deleted family."""
    return sum(len(_copy_array(M, Z.adj)) for M in f_minus_members(F))


def count_f_minus_through(F, Z, e):
    """Copies of one-edge-deleted members that contain the edge e of Z."""
    e = _host_pair(Z.n, e, "anchor ")
    if e not in Z._index:
        raise ValueError(f"anchor {e} is not an edge of the host")
    return sum(len(_anchored_copies(M, Z.adj, [e])) for M in f_minus_members(F))


# -- the two-edge-deleted pair family ----------------------------------


def _completions_through(F, Z, fixed_pair):
    """The completions through one host pair, grouped by witness pair.

    Maps each witness w to a list of (map, kept edges), one per map m
    found: m is an F-copy K of K_n with an arc on `fixed_pair`, the
    deleted edge f1 on w and the other edges of F, the pattern edges in
    `kept`, inside Z.  The map gives the copy F1 = K - fixed_pair - w as
    (set(m), the images of `kept`); no copy is built here.  Several maps
    may give the same F1, and the same F1 may carry several witnesses.
    """
    a, b = _norm(*fixed_pair)
    out = {}
    dom = [1 << a, 1 << b] + [(1 << Z.n) - 1] * (F.n - 2)
    # a result is unchanged when an automorphism of F moves the pinned arc,
    # the deleted edge f1 and the map together, so one (arc, f1) per orbit
    # suffices; what a pair's stabilizer leaves over, the copy sets absorb
    for _, (u1, v1), kept, plan in _pair_representatives(F):
        for m in _search(Z.adj, plan, dom):
            w = (m[u1], m[v1]) if m[u1] < m[v1] else (m[v1], m[u1])
            if (found := out.get(w)) is None:
                found = out[w] = []
            found.append((m, kept))
    return out


def _copy_set(maps):
    """The set of copies F1, as (vertex set, edge set), that the
    (map, kept edges) of `maps` give."""
    return {(frozenset(m), frozenset([(m[u], m[v]) if m[u] < m[v] else (m[v], m[u])
                                      for u, v in kept]))
            for m, kept in maps}


def _pair_ceiling(F, Z):
    """A bound T·W on Σ_w |maps₁[w]|·|maps₂[w]| for any two pairs of Z, from n
    and Z's largest degree Δ.  Position i ≥ 2 of representative r's search has
    c_i ≤ Δ candidates with a kept back neighbour, else ≤ n, so T = Σ_r Π c_i
    bounds the maps through a pair; a witness fixes u1 and v1 in ≤ 2 orders (1
    if the arc holds one), so W = Σ_r orders · Π_{order[i] ∉ f1} c_i bounds those
    with one witness, and the sum is ≤ max_w |maps₂[w]| · Σ_w |maps₁[w]| ≤ W·T."""
    most = max((row.bit_count() for row in Z.adj), default=0)
    total = per_witness = 0
    for arc, f1, _, (order, back, _) in _pair_representatives(F):
        c = [most if back[i] else Z.n for i in range(2, F.n)]
        total += prod(c)
        per_witness += (1 if set(arc) & set(f1) else 2) * prod(
            ci for ci, x in zip(c, order[2:]) if x not in f1)
    return total * per_witness


class _PairFamily:
    """The pair family P(e1, e2) on one host Z, for many queries.

    Its one memo holds the completions through each pair, searched once,
    on first use, and kept for the life of the object as maps grouped by
    witness (`_completions_through`).  `exceeds` decides |P(e1, e2)| > cap
    from its `ceiling` (`_pair_ceiling`) with no search, else from the bound
    Σ_w |maps₁[w]|·|maps₂[w]| (every member comes from two maps sharing a
    witness), else from the members.  For K3 the ceiling is 4Δ: it settles
    Z4's cap at n = 30, p = 30^(-1/2), D = 20, δ = 1/12 (82.5) when Δ ≤ 20,
    not stage 3's cap at D = 4, p = 1/2 (below 7), nor C4, whose ceiling
    grows with n.  `pairs` builds the copy sets of each shared witness.
    Queries take two distinct, normalised pairs and check nothing (booster
    stage 3 and Z4 pass Z's own edges); `count_P` and `enumerate_P` check
    the pairs that come from outside."""

    def __init__(self, F, Z):
        self.F, self.Z, self._sides = F, Z, {}
        self.ceiling = _pair_ceiling(F, Z)

    def pairs(self, e1, e2):
        """The set of (vs1, es1, vs2, es2) of edge-disjoint completions
        (vs1, es1) through e1 and (vs2, es2) through e2 sharing a witness."""
        side1, side2 = self._side(e1), self._side(e2)
        shared = side1.keys() & side2.keys()
        sets1 = {w: _copy_set(side1[w]) for w in shared}
        return {(vs1, es1, vs2, es2) for w in shared for vs2, es2 in _copy_set(side2[w])
                for vs1, es1 in sets1[w] if not es1 & es2}

    def exceeds(self, e1, e2, cap):
        """|P(e1, e2)| > cap, from the ceiling or else the witness-count
        bound when one of them is at most cap, else from the members."""
        if self.ceiling <= cap:
            return False
        side1, side2 = self._side(e1), self._side(e2)
        bound = sum(len(side1[w]) * len(side2[w]) for w in side1.keys() & side2.keys())
        return bound > cap and len(self.pairs(e1, e2)) > cap

    def _side(self, e):
        if e not in self._sides:
            self._sides[e] = _completions_through(self.F, self.Z, e)
        return self._sides[e]


def enumerate_P(F, Z, e1, e2):
    """Ordered pairs (F1, F2) of edge-disjoint two-edge-deleted F-copies
    where one common pair {x,y} completes F1 with e1 and F2 with e2 to F.

    Returns a list of (copy1, copy2, s) with s = |V(F1) ∩ V(F2)|; e1, e2
    need not be edges of Z.  Refuses e1 or e2 as `count_P` does.
    """
    e1, e2 = _host_pair(Z.n, e1), _host_pair(Z.n, e2)
    if e1 == e2:
        raise ValueError("e1 and e2 must be distinct pairs")
    found = _PairFamily(F, Z).pairs(e1, e2)
    return [
        (Copy(vs1, es1, ()), Copy(vs2, es2, ()), len(vs1 & vs2))
        for vs1, es1, vs2, es2 in sorted(
            found, key=lambda k: (sorted(k[0]), sorted(k[1]), sorted(k[2]), sorted(k[3])))
    ]


def count_P(F, Z, e1, e2):
    """|P(e1, e2)| on Z; one query.  Refuses e1 or e2 that is not a pair of
    distinct host vertices (`_host_pair`), and e1 = e2.  Callers with many
    queries on one host keep one `_PairFamily`, which checks nothing."""
    e1, e2 = _host_pair(Z.n, e1), _host_pair(Z.n, e2)
    if e1 == e2:
        raise ValueError("e1 and e2 must be distinct pairs")
    return len(_PairFamily(F, Z).pairs(e1, e2))


# -- rooted extensions --------------------------------------------------


def extension_count(roots, H, host_roots, G):
    """Number of ordered (R,H)-extension tuples of host_roots in G.

    Only root-to-extension and extension-internal edges of H are
    required; edges inside the root set impose nothing.  Refuses pattern
    roots as `density.rooted_density` does, host roots that repeat or are
    not vertex ids of G (`graphs._vertex_mask`), and root lists of unequal length.
    """
    R = list(roots)
    X = list(host_roots)
    if len(R) != len(X):
        raise ValueError("root lists must have equal length")
    _check_roots(R, H)
    _vertex_mask(X, G.n, "host root")
    rset = set(R)
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


def _check_lam_eta(lam, eta):
    if not 0 < lam <= 1:
        raise ValueError(f"lambda must lie in (0, 1], got {lam}")
    if not eta > 0:
        raise ValueError(f"eta must be positive, got {eta}")


def check_T(profile, G, Gp, lam, eta):
    """Single-subgraph check of the basegraph-copies property.

    Returns a record with the density-floor flag, the number of F-copies
    in the basegraph of Gp, and the verdict against eta * n^{v(F)}.
    """
    _check_lam_eta(lam, eta)
    _require_subgraph(G, Gp)
    F = profile.pattern
    meets_floor = Fraction(Gp.num_edges()) >= Fraction(lam) * G.num_edges()
    copies = len(_copy_array(F, base_graph(profile, Gp).adj))
    required = Fraction(eta) * Fraction(G.n) ** F.n
    return {
        "meets_density_floor": meets_floor,
        "basegraph_copies": copies,
        "required": _float(required, "eta"),
        "passes": (not meets_floor) or Fraction(copies) >= required,
        "vacuous": not meets_floor,
    }


def adversarial_T_search(profile, G, lam, eta, budget=2000, seed=None):
    """Randomized greedy refuter: minimize basegraph F-copies over
    subgraphs at the density floor.  Heuristic only; returns the worst
    subgraph found and its check record."""
    _check_lam_eta(lam, eta)
    if budget < 1:
        raise ValueError(f"search budget must be >= 1, got {budget}")
    rng = (seed or Seed()).generator()
    m = G.num_edges()
    k = ceil(lam * m)  # at most m, as lam <= 1
    F = profile.pattern

    def copies_of(edge_idx):
        gp = Graph(G.n, [G.edges[i] for i in edge_idx])
        return len(_copy_array(F, base_graph(profile, gp).adj))

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

    Exact mode enumerates all W with |W| >= max(rho * v(G0), 2) (cap: 20
    vertices).  Heuristic mode is a seeded local-search refuter that needs
    `restarts` >= 1.  A host on one vertex has no such W and is dense.
    Refuses a `rho` outside (0, 1] and a `d` outside [0, 1].
    """
    if not 0 < rho <= 1:  # NaN fails too
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    if not 0 <= d <= 1:
        raise ValueError(f"d must lie in [0, 1], got {d}")
    if mode not in ("exact", "heuristic"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "heuristic" and restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    n = G0.n
    floor = max(ceil(Fraction(rho) * n), 2)
    if floor > n:
        return {"dense": True, "mode": mode, "witness": None}
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
        gap, mask, cnt, size = worst
        W = _bits(mask)
        return {
            "dense": not violation(size, cnt),
            "mode": "exact",
            "witness": {"W": W, "edges": cnt, "pairs": comb(size, 2)},
        }

    rng = (seed or Seed()).generator()
    worst = None
    for _ in range(restarts):
        size = int(rng.integers(floor, n + 1))
        W = set(rng.choice(n, size=size, replace=False).tolist())
        cnt = edge_count_between(G0, W)
        improved = True
        while improved:
            improved = False
            W_mask = sum(1 << v for v in W)
            for v_out in list(W):
                # swapping v_out for v_in trades v_out's edges into the rest for v_in's
                rest = W_mask & ~(1 << v_out)
                base = cnt - bin(G0.adj[v_out] & rest).count("1")
                for v_in in range(n):
                    if v_in in W:
                        continue
                    c2 = base + bin(G0.adj[v_in] & rest).count("1")
                    if c2 < cnt:
                        W.discard(v_out)
                        W.add(v_in)
                        cnt = c2
                        improved = True
                        break
                if improved:
                    break
        ratio = Fraction(cnt, comb(len(W), 2))  # |W| >= floor >= 2
        if worst is None or ratio < worst[0]:
            worst = (ratio, sorted(W), cnt)
    ratio, W, cnt = worst
    return {
        "dense": None if not violation(len(W), cnt) else False,
        "mode": "heuristic",
        "witness": {"W": W, "edges": cnt, "pairs": comb(len(W), 2)},
        "note": "refuter only" if not violation(len(W), cnt) else "violation found",
    }
