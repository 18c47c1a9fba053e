"""Focus sets, booster embeddings, normal families, activated sets, and
the container-side hypergraph with its degree statistics.

An embedding h is a tuple sending the booster pattern's vertices into
the host vertex range; its image graph lives on the host vertex set.
Copies, focus relations and badness are all evaluated literally by copy
enumeration in Z ∪ h(B), which is Z plus the pairs h(B) adds to Z.  Stage
1 decides a union from those pairs alone (`_unions`), once per set of
added pairs; a union that adds none is Z and takes Z's verdict.  Each
other union is decided by an extension of Z's colouring, else by F's
Ramsey clique through an added pair, else by a search of the whole union
(`_union_verdict`), all on one copy of Z's adjacency rows with h(B) ORed
in.  Stage 2 reads B1, B2 and B3 of a union that arrows, as
`classify_bad` does of any union, off its copy keys through a booster
pair (`_bad_flags`), and the view that stages 3 and 6 read
(`union_view`'s second half) is built from them only for a union that is
not bad; they and the other readers that start from (Z, h) take their
keys from `_union_keys`.  Z5 of `experiments.z_property_rates` asks only
whether a union is bad, and `_is_bad` answers by a scan of the copies
that stops at the first witness, with no key built.  No union is built
as a Graph.  Z is analysed once per call (`_z_analysis`): it is decided
on its `arrowing._id_array` rows, and a union searched whole is searched
on them followed by the id rows of its copies through an added pair; Z's
certificate φ keeps only the edges that its copies need to stay
two-coloured, and an extension may colour the rest.  Every CNF literal is
written in `arrowing`.  P(e1, e2) completions are searched once per call
too, and shared by every union.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from itertools import combinations
from math import comb, factorial, inf, isfinite, log, perm

import numpy as np

from .arrowing import (
    BRUTE_FORCE_EDGE_CAP,
    _decide,
    _extend,
    _id_array,
    _ramsey_clique,
    brute_force_arrow,
    decide_arrow,
    first_f_free_coloring,
    is_f_free,
)
from .counting import (
    _anchored_copies,
    _anchored_maps,
    _automorphism_count,
    _holds_copy,
    _norm,
    _PairFamily,
    _sorted_copies,
    enumerate_copies,
)
from .density import _check_cap, _check_delta
from .graphs import Graph, Seed, _bits, _float, _is_id, _or_pairs, _vertex_mask, complete_graph, union


# -- booster specification ----------------------------------------------


@dataclass(frozen=True)
class BoosterSpec:
    """Booster pattern with its fixed F-free colouring and edge order."""

    B: Graph
    sigma: tuple  # colour per B EdgeId, F-free


def make_booster_spec(B, F):
    """Fix sigma as the lexicographically first F-free colouring of B.

    Fails when B arrows F, i.e. when B is not a booster at all.
    """
    sigma = first_f_free_coloring(B, F)
    if sigma is None:
        raise ValueError("B arrows F: no F-free colouring exists")
    return BoosterSpec(B=B, sigma=tuple(sigma))


def image_graph(B, h, n):
    return Graph(n, image_edges(B, h))


def image_edges(B, h):
    """Host pairs of the booster edges, in B's edge order."""
    return [(h[u], h[v]) if h[u] < h[v] else (h[v], h[u]) for u, v in B.edges]


# -- focusing ------------------------------------------------------------


@dataclass(frozen=True)
class UnionView:
    """The focus map and focus set of Z ∪ h(B), read off the keys of its
    copies of F through a booster edge (`_union_keys`) by stages 3 and 6."""

    foci: dict  # the focus map
    members: tuple  # the focus set: EdgeIds of the focus map's edges, sorted


def _check_embedding(h, B, n):
    """Refuse an h that is not B.n distinct vertex ids of a host on n
    vertices: the one embedding check of every booster entry point."""
    if not (all(_is_id(v, n) for v in h) and len(set(h)) == len(h) == B.n):
        raise ValueError(f"h = {h!r} is not {B.n} distinct vertices in 0..{n - 1}")


def union_view(Z, h, spec, F):
    """Copies of F in Z ∪ h(B) through a booster edge, focus map and focus
    set.  Every copy relevant to focusing and badness contains a booster
    edge, so anchored enumeration over the booster edges is complete."""
    _check_embedding(h, spec.B, Z.n)
    img = image_edges(spec.B, h)
    return _view_from_keys(Z, img, _union_keys(Z, img, F))


def _union_keys(Z, img, F):
    """The copy keys of F in the union U of Z and the pairs `img` through
    one of those pairs, in key order, for every reader but stage 1.  A
    key is the copy's (sorted vertex tuple, sorted edge tuple), as
    `counting._anchored_copies` gives it.  `img` is ORed into Z's rows by
    `_or_pairs`, so a loop or an out-of-range pair raises the `Graph`
    error; U is not built."""
    adj = list(Z.adj)
    _or_pairs(adj, img)
    return [key for key, _ in _anchored_copies(F, adj, img)]


def _view_from_keys(Z, img, keys):
    """The view of the union Z ∪ `img` whose copies through a booster pair
    are `keys`; the keys themselves are not kept."""
    img_index = {e: j for j, e in enumerate(img)}
    z_index = Z._index
    foci = defaultdict(set)
    for _, es in keys:
        boost = {img_index[e] for e in es if e in img_index}
        for e in es:
            if e in z_index:
                foci[e].update(boost)
    # an edge in both Z and the image focuses via any copy through it
    for e, j in img_index.items():
        if e in z_index:
            foci[e].add(j)
    members = tuple(sorted(z_index[e] for e in foci))
    return UnionView(dict(foci), members)


def classify_bad(Z, h, spec, F):
    """Literal evaluation of the three badness conditions.

    B1: one copy with a Z-only edge and two booster edges.  B2: two
    copies sharing a Z-only edge, using two different booster edges.
    B3: two copies sharing a Z-only edge and a booster edge.
    """
    _check_embedding(h, spec.B, Z.n)
    img = image_edges(spec.B, h)
    return _bad_flags(img, _union_keys(Z, img, F))


def _bad_flags(img, keys):
    """Badness of the union of Z and the booster pairs `img` whose copies
    through a booster pair are `keys`: a copy's other edges are Z-only.  A
    Z-only edge in two copies always makes B2 or B3, as both copies hold a
    booster pair: they use two, or share one; `_is_bad` relies on this."""
    pairs = set(img)
    b1 = False
    boosts = {}  # z-only edge -> booster pair sets of its copies
    for _, es in keys:
        boost = pairs.intersection(es)
        b1 = b1 or 2 <= len(boost) < len(es)
        for e in es:
            if e not in boost:
                if (sets := boosts.get(e)) is None:
                    boosts[e] = [boost]
                else:
                    sets.append(boost)
    b2 = b3 = False
    for sets in boosts.values():
        if len(sets) < 2:  # one copy through the edge makes neither B2 nor B3
            continue
        used = set().union(*sets)
        # two of the sets span two booster edges unless all are one singleton,
        # and two of them meet unless they are pairwise disjoint
        b2 = b2 or len(used) >= 2
        b3 = b3 or sum(map(len, sets)) > len(used)
    return {"B1": b1, "B2": b2, "B3": b3, "bad": b1 or b2 or b3}


def _is_bad(Z, img, F):
    """Whether the union of Z and the booster pairs `img` is bad (as
    `_bad_flags` says), decided from the maps of `counting._anchored_maps`
    on Z's rows with `img` ORed in, up to the first witness: a copy with two
    booster pairs and a Z-only edge (B1), or a Z-only edge met a second time
    (B2 or B3).  The search meets a copy once per booster pair it holds, so
    a copy met twice holds two pairs and, with a Z-only edge, was B1 the
    first time; a Z-only edge met twice thus lies in two copies, and no
    copy is keyed.  Copies that differ only in where an isolated vertex of
    F sits are two copies here, as they are two keys.  The pattern-size
    rules are those of `_anchored_copies`."""
    adj = list(Z.adj)
    _or_pairs(adj, img)
    if F.n > len(adj):
        return False
    _check_cap(F)
    boost, met = [0] * len(adj), [0] * len(adj)  # booster pairs, Z-only edges met, as rows
    _or_pairs(boost, img)
    edges = F.edges
    for m in _anchored_maps(F, adj, img):
        z_only = [(m[u], m[v]) for u, v in edges if not boost[m[u]] >> m[v] & 1]
        if z_only and len(z_only) <= len(edges) - 2:
            return True  # B1
        for x, y in z_only:
            if met[x] >> y & 1:
                return True  # B2 or B3
            met[x] |= 1 << y
            met[y] |= 1 << x
    return False


def pair_relations(Z, h, spec, F, e1, e2):
    """Connection relations of two Z-edges w.r.t. one embedding.

    Edges may be given as EdgeIds or vertex pairs; either must name an
    edge of Z.
    """
    p1, p2 = _z_edge(Z, e1, "e1"), _z_edge(Z, e2, "e2")
    if p1 == p2:
        raise ValueError("edges must be distinct")
    fm = union_view(Z, h, spec, F).foci
    f1 = fm.get(p1, set())
    f2 = fm.get(p2, set())
    approx = bool(f1) and bool(f2)
    sim = approx and len(f1 | f2) == 1
    return {"approx": approx, "sim": sim}


def _z_edge(Z, e, name):
    """The vertex pair of Z's edge `e`, given as an EdgeId or a vertex pair."""
    if isinstance(e, (tuple, list)) and len(e) == 2 and all(_is_id(v, Z.n) for v in e):
        e = Z._index.get(_norm(*e), e)
    if not _is_id(e, Z.num_edges()):
        raise ValueError(f"{name} = {e!r} is not an edge of Z")
    return Z.edges[e]


# -- interactivity --------------------------------------------------------


def _z_analysis(Z, F, budget):
    """(Z's NAE system as `_id_array` rows, Z's ArrowResult, φ): Z is decided
    on the rows every union's whole search reads.  φ is None unless Z has a
    certificate; then it is the certificate as a colour per Z edge id, less
    each edge, in edge order, whose copies in Z all still show both colours
    on the edges left in φ.  So every copy inside Z stays two-coloured
    however the dropped edges are coloured, and an extension may colour them."""
    z_ids = _id_array(Z, F)
    z_res = _decide(Z.num_edges(), z_ids, 2, budget)
    if z_res.certificate is None:
        return z_ids, z_res, None
    phi = dict(enumerate(z_res.certificate))
    through = defaultdict(list)  # Z edge id -> id rows of Z's copies through it
    for es in z_ids.tolist():
        for e in es:
            through[e].append(es)
    for e in range(Z.num_edges()):
        if all(len({phi[f] for f in es if f != e and f in phi}) == 2 for es in through[e]):
            del phi[e]
    return z_ids, z_res, phi


def _union_verdict(z_ids, Z, adj, keys, budget, phi=None, clique=None):
    """(decide_arrow_union's verdict, how it was decided) on the union U of
    Z and the pairs it adds to Z, whose adjacency rows are `adj` and whose
    copies through an added pair are `keys`, Z's system being `z_ids`.
    U's system is Z's rows followed by the keys' id rows, the added pairs
    numbered Z.num_edges(), ... in first-seen order.  In turn:
    - given Z's F-free colouring `phi` (colour per Z edge id), an
      extension to the added pairs ("extension" with no core, else
      "core"): only a copy with an added pair can turn monochromatic;
    - given F's Ramsey clique K_r (`arrowing._ramsey_clique`) as
      `clique`, a K_r through an added pair ("clique": "arrows"), by
      `counting._holds_copy` on `adj` anchored at the keys' added pairs.
      Each added pair of a K_r in U lies in a key (K_r is edge-transitive
      and holds F), and a Z that does not arrow F holds no K_r, so then
      the query misses only when U holds none;
    - else U is searched whole ("searched").  Its system is
      decide_arrow_union's, renumbered and reordered, so a decided
      verdict is the same; under a node budget the search order differs,
      so either search may be undecided where the other decides.
    The extension and the clique are exact, so they may decide a union
    that both searches would leave undecided."""
    index, m, new = Z._index, Z.num_edges(), {}
    rows = [[index[e] if e in index else new.setdefault(e, m + len(new)) for e in es]
            for _, es in keys]
    if phi is not None and (ext := _extend(rows, phi)) is not None:
        return "not_arrows", "core" if ext else "extension"
    if clique is not None and _holds_copy(clique, adj, new) is not None:
        return "arrows", "clique"
    rows = np.array(rows, dtype=np.intp).reshape(len(rows), z_ids.shape[1])
    return _decide(m + len(new), np.concatenate((z_ids, rows)), 2, budget).verdict, "searched"


def _unions(Z, z, pool, spec, F, budget):
    """(h, booster pairs, verdict, how it was decided) for each h of `pool`
    in order, `z` being `_z_analysis(Z, F, budget)`: the one loop over a
    host's unions.  A union adding no pair to Z is Z ("no_pair"); the others
    are decided by `_union_verdict` on one copy of Z's rows with h(B)
    ORed in and the copies through their added pairs found on it, with
    F's Ramsey clique when F has one, once per set of added pairs
    ("repeat" after the first): an equal set, an equal system."""
    z_ids, z_res, phi = z
    clique = _ramsey_clique(F)
    decided = {}  # frozenset of added pairs -> (verdict, how)
    for h in pool:
        img = image_edges(spec.B, h)
        adj = list(Z.adj)
        added = _or_pairs(adj, img)
        if not added:
            yield h, img, z_res.verdict, "no_pair"
        elif (pairs := frozenset(added)) in decided:
            yield h, img, decided[pairs][0], "repeat"
        else:
            keys = [key for key, _ in _anchored_copies(F, adj, added)]
            decided[pairs] = _union_verdict(z_ids, Z, adj, keys, budget, phi, clique)
            yield h, img, *decided[pairs]


def check_interactive_regular(Z, Xi, spec, F, budget=None):
    """Per-embedding interactivity and regularity report."""
    for h in Xi:
        _check_embedding(h, spec.B, Z.n)
    _, z_res, _ = z = _z_analysis(Z, F, budget)
    b_res = decide_arrow(spec.B, F, budget=budget)
    reports = []
    for h, img, u_verdict, _ in _unions(Z, z, Xi, spec, F, budget):
        entry = {"h": h, "edge_disjoint": not any(e in Z._index for e in img),
                 "union_verdict": u_verdict}
        foci = _view_from_keys(Z, img, _union_keys(Z, img, F)).foci
        entry["regular"] = all(len(s) <= 1 for s in foci.values())
        if "undecided" in (z_res.verdict, b_res.verdict, u_verdict):
            entry["interactive"] = None  # budget exhausted somewhere
        else:
            entry["interactive"] = (
                entry["edge_disjoint"]
                and z_res.verdict == "not_arrows"
                and b_res.verdict == "not_arrows"
                and u_verdict == "arrows"
            )
        reports.append(entry)
    return {
        "Z_verdict": z_res.verdict,
        "B_verdict": b_res.verdict,
        "per_h": reports,
        "pair_interactive": all(r["interactive"] for r in reports),
        "pair_regular": all(r["regular"] for r in reports),
    }


# -- embedding pools -------------------------------------------------------


def embedding_pool(B, n, size=None, seed=None):
    """Distinct images of B in K_n, as representative embedding tuples.

    With no `size` every unlabelled copy is enumerated; else uniform
    injections are drawn and their images deduped until `size` distinct
    ones, or every image of B in K_n when there are fewer (n!/(n-k)!
    injections, |Aut B| to an image), giving up after 50 * size draws.
    A block of draws as long as the images still missing is one `permuted`
    call, whose rows are the `permutation` draws one at a time would give;
    it can fill the pool only on its last row, so no draw is wasted.
    """
    if B.n > n:
        raise ValueError(f"booster on {B.n} vertices does not fit in a host on {n}")
    if size is None:
        return list(map(tuple, _sorted_copies(B, complete_graph(n).adj)[0].tolist()))
    if size < 1:
        raise ValueError("sampled pool needs a positive size")
    rng = (seed or Seed()).generator()
    want = min(size, perm(n, B.n) // _automorphism_count(B))
    seen = {}
    tries = 0
    while len(seen) < want and tries < 50 * size:
        k = min(want - len(seen), 50 * size - tries)
        tries += k
        block = rng.permuted(np.tile(np.arange(n), (k, 1)), axis=1)[:, :B.n]
        for h in map(tuple, block.tolist()):
            es = frozenset(_norm(h[u], h[v]) for u, v in B.edges)
            seen.setdefault((frozenset(h), es), h)
    return list(seen.values())


def alpha_tilde(v):
    """Normal-family selection constant 1/(13 v^4 v!) of a booster on v vertices."""
    return Fraction(1, 13 * v**4 * factorial(v))


# -- the normal-family pipeline -------------------------------------------


def construct_normal_family(Z, spec, F, params, seed=None):
    """Filter and thin an embedding pool into a family satisfying the
    checkable normality conditions (overlap, badness, pair cap,
    edge-disjointness, arrowing unions).

    `params` needs D, delta and p; optional: alpha (selection-rate
    override), pool_size (sampled pool), budget (arrowing node budget).
    Returns (family, report).
    """
    if not isfinite(params["D"]):
        raise ValueError(f"D must be finite, got {params['D']}")
    if not params["D"] > 0:  # else every connected pair is heavy
        raise ValueError(f"D must be positive, got {params['D']}")
    _check_p_delta(F, params)
    if params.get("pool_size") is not None and params["pool_size"] < 1:
        raise ValueError(f"pool_size must be >= 1, got {params['pool_size']}")
    if "alpha" in params and Fraction(params["alpha"]) < 0:
        raise ValueError(f"alpha must be >= 0, got {params['alpha']}")
    seed = seed or Seed()
    D = params["D"]
    delta = params["delta"]
    p = params["p"]
    budget = params.get("budget")
    n = Z.n
    B = spec.B

    report = {"params": {k: str(v) for k, v in params.items()}, "removed": Counter()}
    _, z_res, _ = z = _z_analysis(Z, F, budget)
    report["z_arrows_alone"] = z_res.verdict == "arrows"

    pool_size = params.get("pool_size")
    pool = embedding_pool(B, n, pool_size, seed.substream(0))
    report["pool_mode"] = "full" if pool_size is None else f"sampled({pool_size})"
    report["pool"] = len(pool)

    # stage 1: arrowing unions; how each union was decided partitions the pool
    psi1 = {}  # h -> booster pairs
    report["stage1"] = dict.fromkeys(
        ("no_pair", "repeat", "extension", "core", "clique", "searched"), 0)
    for h, img, v, how in _unions(Z, z, pool, spec, F, budget):
        report["stage1"][how] += 1
        if v == "arrows":
            psi1[h] = img
        else:
            report["removed"]["not_arrowing" if v == "not_arrows" else "undecided"] += 1
    report["psi1"] = len(psi1)

    # stage 2: badness from the arrowing unions' keys; stages 3 and 6 read the views of the rest
    views = {}
    for h, img in psi1.items():
        keys = _union_keys(Z, img, F)
        flags = _bad_flags(img, keys)
        if flags["bad"]:
            for key in ("B1", "B2", "B3"):
                if flags[key]:
                    report["removed"][key] += 1
        else:
            views[h] = _view_from_keys(Z, img, keys)
    psi2 = list(views)
    report["psi2"] = len(psi2)

    # stage 3: heavy connected pairs
    heavy = cache(partial(_PairFamily(F, Z).exceeds, cap=_heavy_cap(D, p, n, delta)))
    psi3 = []
    for h in psi2:
        groups = defaultdict(list)
        for e, foci in views[h].foci.items():
            if len(foci) == 1:
                groups[next(iter(foci))].append(e)
        if any(heavy(e1, e2) for es in groups.values() for e1, e2 in combinations(sorted(es), 2)):
            report["removed"]["heavy_pair"] += 1
        else:
            psi3.append(h)
    report["psi3"] = len(psi3)

    # stage 4: random selection with repetition
    a_eff = Fraction(params["alpha"]) if "alpha" in params else alpha_tilde(B.n)
    eps = 2 * a_eff
    target = int(round(eps * n * n))
    draws = min(target, len(psi3))
    report["alpha_effective"] = str(a_eff)
    report["selection_target"] = target
    report["selection_draws"] = draws
    report["selection_truncated"] = target > len(psi3)
    if draws == 0:
        report["starved_stage"] = "selection" if psi3 else _starved_stage(report)
        report["xi0"] = 0
        report["removed"] = dict(report["removed"])
        return [], report
    rng = seed.substream(1).generator()
    chosen = {psi3[int(i)] for i in rng.integers(0, len(psi3), size=draws)}
    psi_s = [h for h in psi3 if h in chosen]  # keep pool order
    report["psi_s"] = len(psi_s)

    # stage 5: pairwise vertex overlap <= 1
    vsets = [frozenset(h) for h in psi_s]
    clash = set()
    for i, j in combinations(range(len(psi_s)), 2):
        if len(vsets[i] & vsets[j]) >= 2:
            clash.add(i)
            clash.add(j)
    psi4 = [h for i, h in enumerate(psi_s) if i not in clash]
    report["removed"]["overlap"] += len(clash)
    report["psi4"] = len(psi4)

    # stage 6: connection cap, deterministic sequential pass in pool order
    cap = _pair_cap(p, n, delta)
    counts = Counter()
    capped = []
    for h in psi4:
        pairs = list(combinations(views[h].members, 2))
        if any(counts[pr] + 1 > cap for pr in pairs):
            report["removed"]["pair_cap"] += 1
            continue
        for pr in pairs:
            counts[pr] += 1
        capped.append(h)
    report["after_cap"] = len(capped)

    # stage 7: edge-disjointness from Z
    zedges = set(Z.edges)
    xi0 = []
    for h in capped:
        if set(image_edges(B, h)) & zedges:
            report["removed"]["edge_clash"] += 1
        else:
            xi0.append(h)
    report["xi0"] = len(xi0)
    if not xi0:
        report["starved_stage"] = _starved_stage(report)
    report["removed"] = dict(report["removed"])
    return xi0, report


def _heavy_cap(D, p, n, delta):
    """The heavy-pair cap D/(p n^delta), a float, of stage 3 and of Z4 in
    `experiments.z_property_rates`; inf at p = 0, where no pair is heavy."""
    return D / (p * n ** float(delta)) if p > 0 else inf


def _pair_cap(p, n, delta):
    """The pair cap 1/(p n^(delta/2)), a float, of stage 6, of
    `verify_normal_family` and of `degree_bound_report`'s Delta2 bound."""
    return 1 / (p * n ** (float(delta) / 2))


def _check_p_delta(F, params):
    """The checks on p and delta that the pair cap (`_pair_cap`) needs."""
    if not 0 < params["p"] <= 1:
        raise ValueError(f"p must lie in (0, 1], got {params['p']}")
    _check_delta(F, params["delta"])


def _starved_stage(report):
    """The first stage the report counts 0 members in; callers know one does."""
    return next(s for s in ("psi1", "psi2", "psi3", "psi_s", "psi4", "after_cap", "xi0")
                if report[s] == 0)


def verify_normal_family(Z, Xi0, spec, F, params, budget=None):
    """Independent re-verification of the five checkable conditions.

    Deliberately avoids the constructor's code paths: each member's union
    Z ∪ h(B) is built once and all its copies of F are enumerated once,
    with no anchoring.  Badness, the focus sets behind the pair cap, and
    the count of constrained edges that picks the arrowing oracle are read
    off that one scan; arrowing uses the brute-force oracle whenever the
    union fits under its cap, and decide_arrow above it.
    """
    for h in Xi0:
        _check_embedding(h, spec.B, Z.n)
    _check_p_delta(F, params)
    B = spec.B
    zedges = set(Z.edges)
    cap = _pair_cap(params["p"], Z.n, params["delta"])
    overlap = [("overlap", i, j) for i, j in combinations(range(len(Xi0)), 2)
               if len(set(Xi0[i]) & set(Xi0[j])) >= 2]
    clash, bad, not_arrowing = [], [], []
    counts = Counter()
    for i, h in enumerate(Xi0):
        img = set(image_edges(B, h))
        U = union(Z, image_graph(B, h, Z.n))
        copies = _naive_copies(zedges, img, F, U)
        # a clashing pair may lie in no copy of F, so it is read off img
        if img & zedges:
            clash.append(("edge_clash", i))
        if _naive_is_bad(copies):
            bad.append(("bad", i))
        counts.update(combinations(_naive_focus_members(Z, copies), 2))
        if len({e for es, _, _ in copies for e in es}) <= BRUTE_FORCE_EDGE_CAP:
            res = brute_force_arrow(U, F)
        else:
            res = decide_arrow(U, F, budget=budget)
        if res.verdict != "arrows":
            not_arrowing.append(("union_not_arrowing", i, res.verdict))
    pair_cap = [("pair_cap", pr, c) for pr, c in counts.items() if c > cap]
    violations = overlap + clash + bad + pair_cap + not_arrowing
    return {"ok": not violations, "violations": violations}


def _naive_copies(zedges, img, F, U):
    """(edges, Z-only edges, booster edges) of every copy of F in the union
    U of Z's edges `zedges` and the booster pairs `img`, by one full scan."""
    return [(c.edges, (c.edges & zedges) - img, c.edges & img)
            for c in enumerate_copies(F, U).copies]


def _naive_is_bad(copies):
    """Badness by a blunt scan over a union's `_naive_copies`."""
    if any(zonly and len(boost) >= 2 for _, zonly, boost in copies):
        return True  # B1
    # two copies through a booster edge sharing a Z-only edge: B3 when they
    # share a booster edge too, else B2, as they use two booster edges
    return any(z1 & z2 and s1 and s2 for (_, z1, s1), (_, z2, s2) in combinations(copies, 2))


def _naive_focus_members(Z, copies):
    """Focus set from a union's `_naive_copies`: ids of Z's edges in a copy
    through a booster edge."""
    return tuple(sorted({Z.edge_id(*e) for es, _, boost in copies if boost
                         for e in es if Z.has_edge(*e)}))


# -- index consistency ------------------------------------------------------


@dataclass(frozen=True)
class Profile:
    """Map from focus-set position to booster edge index (0-based)."""

    pi: tuple

    @property
    def length(self):
        return len(self.pi)


def _profile(Z, view):
    pi = []
    for eid in view.members:
        foci = view.foci[Z.edges[eid]]
        if len(foci) != 1:
            raise ValueError("profile undefined: an edge focuses on several booster edges")
        pi.append(next(iter(foci)))
    return Profile(pi=tuple(pi))


def profile_of(Z, h, spec, F):
    """Profile of M(Z,h(B)); requires each member to focus on exactly
    one booster edge (regularity)."""
    return _profile(Z, union_view(Z, h, spec, F))


def restrict_index_consistent(Z, Xi0, spec, F, L, seed=None):
    """Keep a majority-profile subfamily and thin it by a random edge
    partition so every shared edge sits at the same focus-set position.

    Returns (Xi, Profile, report); the result may be empty at small n,
    in which case the report suggests retrying with another seed.
    """
    if L < 0:
        raise ValueError(f"L must be >= 0, got {L}")
    seed = seed or Seed()
    report = {"input": len(Xi0), "L": L}
    profs = []
    for h in Xi0:
        view = union_view(Z, h, spec, F)
        pi = _profile(Z, view)
        if pi.length <= L:
            profs.append((h, pi, view.members))
    report["within_L"] = len(profs)
    if not profs:
        report["empty_reason"] = "all focus sets longer than L"
        return [], None, report

    tally = Counter(pi.pi for _, pi, _ in profs)
    top = max(tally.values())
    majority = min(pi for pi, c in tally.items() if c == top)  # lexicographic tie-break
    chosen = [(h, members) for h, pi, members in profs if pi.pi == majority]
    ell = len(majority)
    report["majority_profile"] = list(majority)
    report["profile_count"] = len(chosen)

    if ell == 0:
        xi = [h for h, _ in chosen]
        report["kept"] = len(xi)
        return xi, Profile(pi=()), report

    if len(chosen) == 1:
        # a one-embedding family is index consistent as it stands
        report["kept"] = 1
        report["trivial_singleton"] = True
        return [chosen[0][0]], Profile(pi=majority), report

    rng = seed.generator()
    classes = rng.integers(0, ell, size=Z.num_edges())
    xi = []
    for h, members in chosen:
        if all(int(classes[eid]) == i for i, eid in enumerate(members)):
            xi.append(h)
    report["kept"] = len(xi)
    if not xi:
        report["empty_reason"] = "random partition kept nothing; retry with a fresh seed"
    return xi, Profile(pi=majority), report


def verify_index_consistent(Z, Xi, spec, F):
    """Direct check: shared edges occupy the same position everywhere."""
    index_of = {}
    for h in Xi:
        for i, eid in enumerate(union_view(Z, h, spec, F).members):
            if index_of.setdefault(eid, i) != i:
                return False
    return True


# -- activated sets ----------------------------------------------------------


def activated_set(Z, Xi, spec, F, phi):
    """Edge ids of Z activated by phi, sigma and some embedding of the family.

    Scans monochromatic copies of F in the joint colouring of each union;
    any such copy is mixed, so anchored enumeration over booster edges is
    complete.  Rejects non-F-free colourings.
    """
    for h in Xi:
        _check_embedding(h, spec.B, Z.n)
    ok, _ = is_f_free(phi, Z, F)
    if not ok:
        raise ValueError("phi is not F-free on Z")
    ok, _ = is_f_free(list(spec.sigma), spec.B, F)
    if not ok:
        raise ValueError("sigma is not F-free on B")
    activated = set()
    z_colour = dict(zip(Z.edges, phi))
    for h in Xi:
        img = image_edges(spec.B, h)
        if any(e in z_colour for e in img):
            raise ValueError("embedding shares an edge with Z: pair is not interactive")
        joint = z_colour | dict(zip(img, spec.sigma))
        for _, es in _union_keys(Z, img, F):
            cols = {joint[e] for e in es}
            if len(cols) == 1:
                activated.update(Z.edge_id(*e) for e in es if e in z_colour)
    return activated


# -- hypergraph and container statistics --------------------------------------


class Hypergraph:
    """Plain hypergraph on vertices 0..m-1; hyperedges are vertex sets, each kept once."""

    def __init__(self, m, edges):
        if not _is_id(m, inf):
            raise ValueError(f"vertex count must be an integer >= 0, got {m!r}")
        norm = set()
        for e in edges:
            _vertex_mask(e, m, "hyperedge vertex")
            norm.add(tuple(sorted(e)))
        self.m = m
        self.edges = tuple(sorted(norm))

    def uniformity(self):
        sizes = {len(e) for e in self.edges}
        return sizes.pop() if len(sizes) == 1 else None


@dataclass
class BoosterHypergraph(Hypergraph):
    """V = E(Z); one hyperedge per embedding's focus set."""

    Z: Graph
    focus_sets: tuple  # UnionView per embedding of the family, in family order
    profile: Profile | None = None

    def __post_init__(self):
        super().__init__(self.Z.num_edges(), [fs.members for fs in self.focus_sets])


def build_hypergraph(Z, Xi, spec, F, profile=None):
    views = tuple(union_view(Z, h, spec, F) for h in Xi)
    return BoosterHypergraph(Z=Z, focus_sets=views, profile=profile)


def hypergraph_stats(H, tau):
    """Exact container statistics of a uniform hypergraph.

    Rationals are kept exact throughout; the returned record carries both
    the Fractions and float renderings.  Degrees are read off the
    intersection closure of the hyperedges (`_closure_degrees`), never off
    their 2^ℓ subsets.
    """
    tau = Fraction(tau)
    if tau <= 0:
        raise ValueError("tau must be positive")
    ell = H.uniformity()  # None for a hypergraph with no edges
    if ell is None:
        raise ValueError("statistics need a uniform (profiled) hypergraph")
    m = H.m
    e = len(H.edges)
    if ell == 0:  # so m > 0: some hyperedge holds a vertex
        raise ValueError("zero average degree")
    d = Fraction(ell * e, m)

    # a j-subset S of a hyperedge has the degree of the closure set I(S) ⊇ S,
    # the intersection of the hyperedges holding S; and every closure set of
    # size >= j holding v has a j-subset through v of its degree.  So the
    # largest degree of a j-subset through v is the largest degree of a
    # closure set of size >= j through v; sizes are taken in falling order.
    closure = sorted(_closure_degrees(H.edges), key=lambda sc: -len(sc[0]))
    best = [0] * m  # per vertex, the largest degree of a closure set seen so far
    sums, at = {}, 0
    for j in range(ell, 1, -1):
        while at < len(closure) and len(closure[at][0]) >= j:
            vs, c = closure[at]
            for v in vs:
                best[v] = max(best[v], c)
            at += 1
        sums[j] = sum(best)
    delta_js = {j: Fraction(sums[j]) / (tau ** (j - 1) * m * d) for j in range(2, ell + 1)}

    # for ell = 1 the sum is empty and delta is Fraction(1, 2) * 0 = 0
    delta = Fraction(2) ** (comb(ell, 2) - 1) * sum(
        Fraction(1, 2 ** comb(j - 1, 2)) * delta_js[j] for j in range(2, ell + 1)
    )

    return {
        "m": m,
        "e": e,
        "ell": ell,
        "d": d,
        "Delta1": max(c for _, c in closure),
        "Delta2": max((c for vs, c in closure if len(vs) >= 2), default=0),
        "delta_j": delta_js,
        "delta": delta,
        "d_float": float(d),
        "delta_float": _float(delta, "tau"),
    }


def _closure_degrees(edges):
    """(I, number of `edges` holding I) for every nonempty intersection I of
    a nonempty family of the hyperedges `edges` (vertex tuples), I as the
    ascending list of its vertices (`graphs._bits`).  Each closure set is
    kept as a vertex mask with the bitset of the hyperedges that hold it,
    the AND of its vertices' incidence bitsets.  A set I is intersected
    with the hyperedges that meet it and come after the first one that
    holds it, which reaches I = E_i1 ∩ E_i2 ∩ ... (i1 < i2 < ... its
    holders).  Those hyperedges are split by which of I's vertices they
    hold, so a distinct intersection costs one bitset operation per vertex
    of I, not a step per hyperedge.  Every closure set lies in a
    hyperedge, so there are at most min(2^e, e·2^ℓ) of them."""
    inc = {}  # vertex -> bitset of the hyperedges holding it
    for i, edge in enumerate(edges):
        for v in edge:
            inc[v] = inc.get(v, 0) | 1 << i

    def held_by(x):
        h = -1
        for v in _bits(x):
            h &= inc[v]
        return h

    holders = {x: held_by(x) for x in (sum(1 << v for v in edge) for edge in edges)}
    grown = list(holders)
    while grown:
        new = []
        for x in grown:
            held = holders[x]
            vs = _bits(x)
            meet = 0
            for v in vs:
                meet |= inc[v]
            groups = [(meet & ~held & -(held & -held) << 1, 0)]  # (hyperedges, their part of x)
            for v in vs:
                split = []
                for g, z in groups:
                    if hold := g & inc[v]:
                        split.append((hold, z | 1 << v))
                    if rest := g ^ hold:
                        split.append((rest, z))
                groups = split
            for _, z in groups:
                if z not in holders:
                    holders[z] = held_by(z)
                    new.append(z)
        grown = new
    return [(_bits(x), h.bit_count()) for x, h in holders.items()]


def degree_bound_report(stats, D, p, delta, vF, n):
    """Compare the exact degree statistics against the theory-side caps
    D/p * C(v(F),2), exact, and 1/(p n^(delta/2)), a float as in the pair
    cap of the normal family, whose constructor checks delta's range;
    reported, never asserted."""
    b1 = Fraction(D) / Fraction(p) * comb(vF, 2)
    b2 = _pair_cap(p, n, delta)
    return {
        "Delta1": stats["Delta1"],
        "Delta1_bound": float(b1),
        "Delta1_within": stats["Delta1"] <= b1,
        "Delta2": stats["Delta2"],
        "Delta2_bound": b2,
        "Delta2_within": stats["Delta2"] <= b2,
    }


# -- brute-force containers and cores ------------------------------------------


CORE_VERTEX_CAP = 20


@dataclass
class CoreFamily:
    cores: list  # frozensets of vertex ids
    containers: list  # maximal independent sets, aligned with cores

    def __len__(self):
        return len(self.cores)


def brute_force_cores(H):
    """Containers = maximal independent sets, in ascending mask order;
    cores = their complements.

    Exhaustive over all vertex subsets, so capped at 20 vertices.
    """
    m = H.m
    if m > CORE_VERTEX_CAP:
        raise ValueError(f"{m} vertices exceed the exhaustive cap of {CORE_VERTEX_CAP}")
    if any(len(e) == 0 for e in H.edges):
        return CoreFamily(cores=[], containers=[])  # empty hyperedge: nothing to hit
    independent = np.ones(1 << m, dtype=bool)
    masks = np.arange(1 << m, dtype=np.int64)
    for em in (sum(1 << v for v in e) for e in H.edges):
        independent &= (masks & em) != em
    maximal = np.nonzero(independent)[0]
    for v in range(m):  # keep the sets that hold v or cannot take it
        maximal = maximal[(maximal >> v & 1).astype(bool) | ~independent[maximal | 1 << v]]
    containers = [frozenset(_bits(s)) for s in maximal.tolist()]
    return CoreFamily(cores=[frozenset(range(m)) - c for c in containers], containers=containers)


def verify_core_properties(core_family, H, beta=None, gamma=None):
    """Exhaustive verification of the hitting-set covering property, plus
    descriptive reports of the size bounds (asymptotic claims: reported,
    never asserted)."""
    m = H.m
    if m > CORE_VERTEX_CAP:
        raise ValueError(f"{m} vertices exceed the exhaustive cap of {CORE_VERTEX_CAP}")
    edge_masks = [sum(1 << v for v in e) for e in H.edges]
    masks = np.arange(1 << m, dtype=np.int64)
    hitting = np.ones(1 << m, dtype=bool)
    for em in edge_masks:
        hitting &= (masks & em) != 0
    covered = np.zeros(1 << m, dtype=bool)
    for core in core_family.cores:
        cm = sum(1 << v for v in core)
        covered |= (masks & cm) == cm
    uncovered = np.nonzero(hitting & ~covered)[0]
    report = {
        "hitting_sets": int(hitting.sum()),
        "c3_violations": [int(x) for x in uncovered[:10]],
        "c3_ok": len(uncovered) == 0,
        "num_cores": len(core_family),
        "min_core_size": min((len(c) for c in core_family.cores), default=0),
        "container_edge_free": True,  # maximal independent sets span no hyperedge
    }
    if core_family.cores:
        report["log_num_cores"] = log(len(core_family.cores))
    if beta is not None:
        report["c2_bound"] = _float(Fraction(beta) * m, "beta")
        report["c2_holds_here"] = all(len(c) >= Fraction(beta) * m for c in core_family.cores)
    if gamma is not None and core_family.cores:
        try:
            report["c1_bound"] = m ** (1 - gamma)
        except (OverflowError, ZeroDivisionError):  # ZeroDivisionError: m = 0, gamma > 1
            raise ValueError("gamma is out of range: m ** (1 - gamma) is no finite float") from None
        report["c1_holds_here"] = log(len(core_family.cores)) <= report["c1_bound"]
    return report
