"""Sparse-regularity verification: scaled pair densities, regular-pair
checks, reduced graphs, partite copy counting, and overlap counts.

The regularity checks certify only at tiny scale; the sampled mode is a
refuter and never certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import ceil

from .counting import _collect_copies, _pattern_order, _search
from .graphs import Seed, edge_count_between

EXACT_REGULARITY_CAP = 16


def pair_density(H, p, X, Y):
    """d_{H,p}(X,Y) = e(X,Y) / (p |X| |Y|)."""
    X, Y = list(X), list(Y)
    if not X or not Y:
        raise ValueError("X and Y must be nonempty")
    if set(X) & set(Y):
        raise ValueError("X and Y must be disjoint")
    if p <= 0:
        raise ValueError("p must be positive")
    return edge_count_between(H, X, Y) / (p * len(X) * len(Y))


def _subset_degrees(H, X, Y):
    """For each y in Y, its number of neighbours inside X."""
    Xmask = sum(1 << v for v in X)
    return {y: bin(H.adj[y] & Xmask).count("1") for y in Y}


def is_eps_p_regular(H, p, X, Y, eps, mode="exact", seed=None, samples=10_000):
    """Regularity of the pair (X,Y) at scale p.

    Exact mode (|X|,|Y| <= 16) decides by checking, for every X' and
    every size k, the extreme edge counts over Y-subsets of size k
    (each attained by taking the k largest or smallest degrees into X'),
    which bounds every achievable sub-density.  Sampled mode draws
    random qualifying pairs and can only refute.
    """
    X, Y = sorted(X), sorted(Y)
    if set(X) & set(Y):
        raise ValueError("X and Y must be disjoint")
    if p <= 0:
        raise ValueError("p must be positive")
    base = pair_density(H, p, X, Y)
    min_x = ceil(eps * len(X))
    min_y = ceil(eps * len(Y))
    min_x, min_y = max(min_x, 1), max(min_y, 1)

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

    if mode != "sampled":
        raise ValueError(f"unknown mode {mode!r}")
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
    d: float
    eps: float
    p: float
    edges: list  # pairs of class indices
    pair_reports: dict


def reduced_graph(H, p, partition, d, eps, mode="exact", seed=None):
    """Reduced graph: class pairs that are regular with scaled density >= d."""
    seen = set()
    for cls in partition:
        for v in cls:
            if v in seen:
                raise ValueError("partition classes overlap")
            seen.add(v)
    edges = []
    reports = {}
    for i, j in combinations(range(len(partition)), 2):
        rep = is_eps_p_regular(H, p, partition[i], partition[j], eps, mode=mode, seed=seed)
        dens = pair_density(H, p, partition[i], partition[j])
        reports[(i, j)] = {"regular": rep["regular"], "density": dens}
        passed = rep["regular"] if mode == "exact" else rep["regular"] is None
        if passed and dens >= d:
            edges.append((i, j))
    return ReducedGraph(
        partition=[list(c) for c in partition],
        d=d,
        eps=eps,
        p=p,
        edges=edges,
        pair_reports=reports,
    )


def counting_lemma_check(Fp, classes_of, H, partition, p, d, eps, xi):
    """Count partite copies of Fp (homomorphisms with prescribed classes)
    and compare with the lower bound xi * p^{e(F)} * prod |V_i|.

    `classes_of[v]` names the partition class of pattern vertex v.  The
    regularity of the designated pairs is the caller's claim.
    """
    t = len(partition)
    if any(not 0 <= classes_of[v] < t for v in range(Fp.n)):
        raise ValueError("pattern class out of range")
    for u, v in Fp.edges:
        if classes_of[u] == classes_of[v]:
            raise ValueError("adjacent pattern vertices must sit in different classes")

    class_masks = [sum(1 << x for x in cls) for cls in partition]
    order = _pattern_order(Fp, ())
    dom = [class_masks[classes_of[v]] for v in order]
    count = sum(1 for _ in _search(Fp, H, order, dom, injective=False))
    bound = xi * (p ** Fp.num_edges())
    for v in range(Fp.n):
        bound *= len(partition[classes_of[v]])
    return {
        "partite_copies": count,
        "bound": bound,
        "ratio": count / bound if bound > 0 else float("inf"),
        "passes": count >= bound,
    }


def fstar_overlap_count(Fstar, a1, a2, G, W):
    """Copies of Fstar meeting W exactly in the images of the two marked
    (non-adjacent) vertices.  The probabilistic bound at edge probability
    p is bound_coefficient * p ** bound_p_exponent; it is reported, not
    asserted."""
    if a1 == a2:
        raise ValueError("the two marked vertices must be distinct")
    if Fstar.has_edge(a1, a2):
        raise ValueError("marked vertices must be non-adjacent in the pattern")
    # pin the marked vertices to ordered pairs of W, every other vertex outside W
    W = set(W)
    inside = sorted(w for w in W if 0 <= w < G.n)
    order = _pattern_order(Fstar, (a1, a2))
    outside = [((1 << G.n) - 1) & ~sum(1 << w for w in inside)] * (Fstar.n - 2)
    maps = (m for w1 in inside for w2 in inside if w1 != w2
            for m in _search(Fstar, G, order, [1 << w1, 1 << w2] + outside))
    return {
        "count": len(_collect_copies(Fstar, G, maps)),
        "bound_coefficient": 2 * G.n ** (Fstar.n - 2) * len(W) ** 2,
        "bound_p_exponent": Fstar.num_edges(),
    }
