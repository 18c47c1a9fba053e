"""Sparse-regularity verification: scaled pair densities, regular-pair
checks, reduced graphs, partite copy counting, and overlap counts.

The regularity checks certify only at tiny scale; the sampled mode is a
refuter and never certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from math import ceil, inf
from operator import or_

from .counting import _norm, _plan, _search
from .graphs import Seed, _bits, _is_id, _vertex_mask, edge_count_between

EXACT_REGULARITY_CAP = 16


def pair_density(H, p, X, Y):
    """d_{H,p}(X,Y) = e(X,Y) / (p |X| |Y|).  X and Y are checked as
    `graphs.edge_count_between` checks U and W."""
    X, Y = list(X), list(Y)
    if not X or not Y:
        raise ValueError("X and Y must be nonempty")
    if not p > 0:
        raise ValueError(f"p must be positive, got {p}")
    return edge_count_between(H, X, Y) / (p * len(X) * len(Y))


def _subset_degrees(H, X, Y):
    """For each y in Y, its number of neighbours inside X."""
    Xmask = sum(1 << v for v in X)
    return {y: bin(H.adj[y] & Xmask).count("1") for y in Y}


def _check_eps(eps):
    if not 0 < eps <= 1:  # above 1 no subpair qualifies
        raise ValueError(f"eps must lie in (0, 1], got {eps}")


def is_eps_p_regular(H, p, X, Y, eps, mode="exact", seed=None, samples=10_000):
    """Regularity of the pair (X,Y) at scale p.

    Exact mode (|X|,|Y| <= 16) decides by checking, for every X' and
    every size k, the extreme edge counts over Y-subsets of size k
    (each attained by taking the k largest or smallest degrees into X'),
    which bounds every achievable sub-density.  Sampled mode draws
    random qualifying pairs and can only refute; it needs `samples` >= 1.
    """
    _check_eps(eps)
    if mode not in ("exact", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    base = pair_density(H, p, X, Y)  # checks X and Y before they are sorted
    X, Y = sorted(X), sorted(Y)
    # X and Y are nonempty and eps > 0, so each minimum is at least 1
    min_x = ceil(eps * len(X))
    min_y = ceil(eps * len(Y))

    if mode == "exact":
        if len(X) > EXACT_REGULARITY_CAP or len(Y) > EXACT_REGULARITY_CAP:
            raise ValueError(f"exact mode capped at {EXACT_REGULARITY_CAP} per side")
        worst = None
        for kx in range(min_x, len(X) + 1):
            for Xp in combinations(X, kx):
                degs = sorted(_subset_degrees(H, Xp, Y).items(), key=lambda t: (t[1], t[0]))
                for ky in range(min_y, len(Y) + 1):
                    for pick in (degs[:ky], degs[-ky:]):
                        e = sum(d for _, d in pick)
                        dens = e / (p * kx * ky)
                        dev = abs(base - dens)
                        if worst is None or dev > worst[0]:
                            worst = (dev, list(Xp), sorted(y for y, _ in pick))
        dev, Xw, Yw = worst
        return {
            "regular": dev < eps,
            "mode": "exact",
            "base_density": base,
            "worst_deviation": dev,
            "witness": {"X": Xw, "Y": Yw},
        }

    rng = (seed or Seed()).generator()
    worst = None
    for _ in range(samples):
        kx = int(rng.integers(min_x, len(X) + 1))
        ky = int(rng.integers(min_y, len(Y) + 1))
        Xp = [X[i] for i in rng.choice(len(X), size=kx, replace=False)]
        Yp = [Y[i] for i in rng.choice(len(Y), size=ky, replace=False)]
        dens = pair_density(H, p, Xp, Yp)
        dev = abs(base - dens)
        if worst is None or dev > worst[0]:
            worst = (dev, sorted(Xp), sorted(Yp))
    dev, Xw, Yw = worst
    return {
        "regular": None if dev < eps else False,  # refuter: cannot certify
        "mode": "sampled",
        "base_density": base,
        "worst_deviation": dev,
        "witness": {"X": Xw, "Y": Yw},
        "note": "no violation found" if dev < eps else "violation found",
    }


@dataclass
class ReducedGraph:
    partition: list  # list of vertex lists
    edges: list  # pairs of class indices
    pair_reports: dict


def _class_masks(H, partition):
    """The vertex mask of each class of `partition`, once it is checked to be
    a list of nonempty vertex sets of H (`graphs._vertex_mask`) that share no
    vertex: the one partition check of `reduced_graph` and `counting_lemma_check`."""
    if not isinstance(partition, (list, tuple)) or not all(
            isinstance(c, (list, tuple)) for c in partition):
        raise ValueError("the partition must be a list of vertex lists")
    masks = [_vertex_mask(cls, H.n, "partition vertex") for cls in partition]
    if 0 in masks:
        raise ValueError(f"partition class {masks.index(0)} is empty")
    if sum(masks) != reduce(or_, masks, 0):  # equal iff no vertex is in two classes
        raise ValueError("partition classes overlap")
    return masks


def reduced_graph(H, p, partition, d, eps, mode="exact", seed=None):
    """Reduced graph: class pairs that are regular with scaled density >= d.
    The partition is a list of nonempty vertex sets of H (`_class_masks`)."""
    _check_eps(eps)
    _class_masks(H, partition)
    edges = []
    reports = {}
    seed = seed or Seed()
    for i, j in combinations(range(len(partition)), 2):
        # each pair samples its own stream, so equal-sized pairs draw apart
        rep = is_eps_p_regular(H, p, partition[i], partition[j], eps, mode=mode,
                               seed=seed.substream(i).substream(j))
        dens = rep["base_density"]
        reports[(i, j)] = {"regular": rep["regular"], "density": dens}
        passed = rep["regular"] if mode == "exact" else rep["regular"] is None
        if passed and dens >= d:
            edges.append((i, j))
    return ReducedGraph(partition=[list(c) for c in partition], edges=edges, pair_reports=reports)


def counting_lemma_check(Fp, classes_of, H, partition, p, xi):
    """Count partite copies of Fp (homomorphisms with prescribed classes)
    and compare with the lower bound xi * p^{e(F)} * prod |V_i|.

    `classes_of[v]` names the partition class of pattern vertex v.  The
    regularity of the designated pairs is the caller's claim.  Refuses a
    partition that `reduced_graph` refuses (`_class_masks`; an empty class
    would make the bound 0), a `classes_of` that does not name one class
    index (`graphs._is_id`) per pattern vertex, adjacent pattern
    vertices in one class, a `p` outside (0, 1] (an edge density), an `xi`
    that is not a finite positive number, and a bound that underflows to 0
    (a bound of 0 or below passes whatever the count).
    """
    if not 0 < p <= 1:  # NaN fails both comparisons
        raise ValueError(f"p must lie in (0, 1], got {p}")
    if not 0 < xi < inf:
        raise ValueError(f"xi must be a finite positive number, got {xi}")
    class_masks = _class_masks(H, partition)
    if len(classes_of) != Fp.n or not all(_is_id(c, len(partition)) for c in classes_of):
        raise ValueError(f"classes_of must name a class in 0..{len(partition) - 1} "
                         f"for each of the {Fp.n} pattern vertices")
    for u, v in Fp.edges:
        if classes_of[u] == classes_of[v]:
            raise ValueError("adjacent pattern vertices must sit in different classes")

    bound = xi * (p ** Fp.num_edges())
    for v in range(Fp.n):
        bound *= len(partition[classes_of[v]])
    if bound == 0:
        raise ValueError(f"the bound xi * p^e(F) * prod |V_i| underflows to 0 at p = {p}")

    plan = _plan(Fp, ())
    dom = [class_masks[classes_of[v]] for v in plan[0]]
    count = sum(1 for _ in _search(H.adj, plan, dom, injective=False))
    return {
        "partite_copies": count,
        "bound": bound,
        "ratio": count / bound,
        "passes": count >= bound,
    }


def fstar_overlap_count(Fstar, a1, a2, G, W):
    """Copies of Fstar meeting W exactly in the images of the two marked
    (non-adjacent) vertices.  The probabilistic bound at edge probability
    p is bound_coefficient * p ** bound_p_exponent; it is reported, not
    asserted.  Refuses marked vertices that are not two distinct,
    non-adjacent vertex ids of Fstar, and a W that is not a set of vertex
    ids of G; both are read through `graphs._vertex_mask`, so a repeated
    member is refused, not merged."""
    _vertex_mask((a1, a2), Fstar.n, "marked vertex")
    if Fstar.has_edge(a1, a2):
        raise ValueError("marked vertices must be non-adjacent in the pattern")
    # pin the marked vertices to ordered pairs of W, every other vertex outside W
    Wmask = _vertex_mask(W, G.n, "W vertex")
    inside = _bits(Wmask)
    plan = _plan(Fstar, (a1, a2))
    outside = [((1 << G.n) - 1) & ~Wmask] * (Fstar.n - 2)
    maps = (m for w1 in inside for w2 in inside if w1 != w2
            for m in _search(G.adj, plan, [1 << w1, 1 << w2] + outside))
    return {
        "count": len({(frozenset(m), frozenset(_norm(m[u], m[v]) for u, v in Fstar.edges))
                      for m in maps}),
        "bound_coefficient": 2 * G.n ** (Fstar.n - 2) * len(inside) ** 2,
        "bound_p_exponent": Fstar.num_edges(),
    }
