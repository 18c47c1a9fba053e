"""Exact rational density analysis of small pattern graphs.

All classifications are decided with `fractions.Fraction`; floating point
never enters a comparison.  Pattern sizes are capped because the searches
enumerate vertex subsets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations

from .graphs import Graph, _vertex_mask, edge_count_between

PATTERN_VERTEX_CAP = 10


def _check_cap(F):
    if F.n > PATTERN_VERTEX_CAP:
        raise ValueError(
            f"pattern has {F.n} vertices, above the cap of {PATTERN_VERTEX_CAP}"
        )


def d2(F):
    """Two-density: 1 for a single edge on two vertices, else (e-1)/(v-2)."""
    if F.num_edges() < 1:
        raise ValueError("d2 undefined for edgeless graphs")
    return _d2(F.num_edges(), F.n)


def _d2(e, v):
    """d2 of a graph with e >= 1 edges on v vertices."""
    return Fraction(1) if v == 2 else Fraction(e - 1, v - 2)


def _induced_d2_max(F):
    """Max d2 over induced subgraphs of F with >= 1 edge, in one scan of
    the vertex subsets that counts the edges inside each: returns (value,
    vertex set, max over the proper ones or None when none has an edge).

    Scanning induced subgraphs suffices: deleting edges at a fixed vertex
    set only lowers (e-1)/(v-2).  Ties break to the fewest vertices, then
    to the lexicographically smallest set, so the whole of F is the
    witness only when its d2 beats every proper subgraph.
    """
    best = None
    best_set = None
    for k in range(2, F.n):
        for subset in combinations(range(F.n), k):
            e = edge_count_between(F, subset)
            if e < 1:
                continue
            val = _d2(e, k)
            if best is None or val > best:
                best, best_set = val, subset
    whole = d2(F)
    if best is None or whole > best:
        return whole, tuple(range(F.n)), best
    return best, best_set, best


@cache
def m2(F):
    """(max 2-density, witness) over all subgraphs of F with at least one
    edge; computed once per pattern."""
    _check_cap(F)
    if F.num_edges() < 1:
        raise ValueError("m2 undefined for edgeless graphs")
    val, vset, _ = _induced_d2_max(F)
    witness = (vset, tuple((u, v) for u, v in F.edges if u in vset and v in vset))
    return val, witness


def _check_delta(F, delta):
    """Reject a delta outside (0, min(1/m2, 1 - 1/m2)], the range the
    good-graph properties and the normal family take it from."""
    inv = 1 / m2(F)[0]
    bound = min(inv, 1 - inv)
    if bound == 0:
        raise ValueError("no delta is valid for a pattern with m2 = 1: "
                         "(0, min(1/m2, 1 - 1/m2)] is empty")
    if not 0 < Fraction(delta) <= bound:
        raise ValueError(f"delta must lie in (0, {bound}]")


def is_bipartite(F):
    """Two-colourability check; returns (flag, colouring array or None)."""
    colour = [-1] * F.n
    for start in range(F.n):
        if colour[start] >= 0:
            continue
        colour[start] = 0
        queue = [start]
        while queue:
            u = queue.pop()
            for w in F.neighbours(u):
                if colour[w] < 0:
                    colour[w] = 1 - colour[u]
                    queue.append(w)
                elif colour[w] == colour[u]:
                    return False, None
    return True, colour


@dataclass(frozen=True)
class PatternProfile:
    """Classification record of a fixed pattern graph."""

    pattern: Graph
    m2: Fraction
    witness_vertices: tuple
    balanced: bool
    strictly_balanced: bool
    nearly_bipartite_witness: tuple | None  # edge e with F-e bipartite, or None
    threshold_exponent: Fraction

    @property
    def nearly_bipartite(self):
        return self.nearly_bipartite_witness is not None

    def to_record(self):
        return {
            "n": self.pattern.n,
            "edges": list(self.pattern.edges),
            "m2": f"{self.m2.numerator}/{self.m2.denominator}",
            "witness_vertices": list(self.witness_vertices),
            "balanced": self.balanced,
            "strictly_balanced": self.strictly_balanced,
            "nearly_bipartite": self.nearly_bipartite,
            "nearly_bipartite_witness": list(self.nearly_bipartite_witness)
            if self.nearly_bipartite_witness
            else None,
            "threshold_exponent": f"{self.threshold_exponent.numerator}"
            f"/{self.threshold_exponent.denominator}",
        }


def classify(F):
    """Full pattern profile: m2, balancedness flags, near-bipartiteness
    witness; both balance flags are read off one scan of induced subgraphs."""
    _check_cap(F)
    e = F.num_edges()
    if e < 1:
        raise ValueError("classify needs at least one edge")
    m2_val, wv, proper_max = _induced_d2_max(F)
    balanced = d2(F) == m2_val

    # Strictly balanced: every proper subgraph with >= 1 edge has d2 < m2.
    # One on fewer vertices is bounded by the induced subgraph on them; a
    # spanning one has at most e - 1 edges, so its d2 is below d2(F) = m2
    # whenever F is balanced, and it needs no test.
    strict = balanced and (proper_max is None or proper_max < m2_val)

    nb_witness = None
    if e >= 2:
        for edge in F.edges:  # lexicographically first qualifying edge
            flag, _ = is_bipartite(F.without_edges([edge]))
            if flag:
                nb_witness = edge
                break

    return PatternProfile(
        pattern=F,
        m2=m2_val,
        witness_vertices=wv,
        balanced=balanced,
        strictly_balanced=strict,
        nearly_bipartite_witness=nb_witness,
        threshold_exponent=1 / m2_val,
    )


def edge_density(B):
    """m(B) = e(B)/v(B)."""
    return Fraction(B.num_edges(), B.n)


def booster_admissible(B, F):
    """True iff m(B) <= m2(F): a necessary condition for B not to arrow F."""
    return edge_density(B) <= m2(F)[0]


def _check_roots(R, H):
    """Reject a root list that names anything but a vertex id of H or repeats
    one (`graphs._vertex_mask`), or that holds every vertex of H."""
    _vertex_mask(R, H.n, "root")
    if len(R) >= H.n:
        raise ValueError("roots must form a proper subset of V(H)")


def rooted_density(roots, H):
    """dens(R,H) = (e(H) - e(H[R])) / (v(H) - |R|) for an ordered root list."""
    R = list(roots)
    _check_roots(R, H)
    return Fraction(H.num_edges() - edge_count_between(H, R), H.n - len(R))


def mad(roots, H):
    """Max of dens(R, H[S]) over induced S with R properly inside S.

    This is the rooted density behind the Z3 per-edge bound on copies of
    F minus one edge through a single edge of the host: for a strictly
    balanced F, rooting F minus an edge at any remaining edge gives a
    value below m2(F).  Returns (value, S) with S the maximizer with the
    fewest vertices, then the lexicographically smallest.  Roots are
    checked as `rooted_density` checks them.
    """
    _check_cap(H)
    R = list(roots)
    _check_roots(R, H)
    e_roots = edge_count_between(H, R)
    others = [v for v in range(H.n) if v not in R]
    best = None
    best_set = None
    for k in range(1, len(others) + 1):
        for extra in combinations(others, k):
            S = tuple(sorted(R + list(extra)))
            val = Fraction(edge_count_between(H, S) - e_roots, k)
            if best is None or val > best:
                best, best_set = val, S
    return best, best_set
