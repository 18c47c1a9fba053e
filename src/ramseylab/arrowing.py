"""Exact decision of the arrowing property G -> (F).

Each copy of F is a not-all-equal constraint over its edge ids: the
copy must not be single-coloured.  One iterative search core
(`_NaeSolver`: explicit stack, counter-based propagation, no recursion)
answers every colouring question: the two-colour and r-colour arrowing
decisions, the enumeration of F-free colourings and the lexicographically
first F-free colouring.  An independent brute-force oracle enumerates all
two-colourings of the constrained edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .counting import enumerate_copies
from .graphs import union

RED, BLUE = 0, 1


@dataclass
class ArrowResult:
    verdict: str  # "arrows" | "not_arrows" | "undecided"
    certificate: list | None = None  # colour per EdgeId when not_arrows
    stats: dict = field(default_factory=dict)

    @property
    def arrows(self):
        return self.verdict == "arrows"


def _edge_id_sets(G, copies):
    return [tuple(sorted(G.edge_id(u, v) for u, v in c.edges)) for c in copies]


def copy_constraints(G, F):
    """Edge-id sets of the F-copies in G (the NAE constraint system)."""
    if F.n > G.n:
        return []
    return _edge_id_sets(G, enumerate_copies(F, G).copies)


def is_f_free(coloring, G, F):
    """True iff no copy of F in G is monochromatic; else the first bad copy."""
    if len(coloring) != G.num_edges():
        raise ValueError("colouring must cover every edge of G")
    if F.n > G.n:
        return True, None
    for copy in enumerate_copies(F, G).copies:
        cols = {coloring[G.edge_id(u, v)] for u, v in copy.edges}
        if len(cols) == 1:
            return False, copy
    return True, None


class _NaeSolver:
    """The one search core: complete iterative depth-first search over
    r-colourings of the constrained edges in which no constraint is
    single-coloured, with counter-based propagation.

    Each constraint keeps a count per colour and the number of distinct
    colours it has seen.  A constraint whose edges all share one colour is
    a conflict.  With two colours, a constraint with one edge left and all
    others of one colour forces that edge to the other colour; with more
    colours the search only detects conflicts.
    """

    def __init__(self, m, constraints, colours=2, budget=None):
        self.r = colours
        self.cons = [list(c) for c in constraints]
        self.sizes = [len(c) for c in self.cons]
        self.in_cons = [[] for _ in range(m)]
        for ci, c in enumerate(self.cons):
            for e in c:
                self.in_cons[e].append(ci)
        self.colour = [-1] * m
        self.counts = [[0] * colours for _ in self.cons]
        self.distinct = [0] * len(self.cons)
        self.budget = budget
        self.nodes = 0
        self.propagations = 0
        self.vars = sorted({e for c in self.cons for e in c})

    # -- assignment with trail ------------------------------------------

    def _assign(self, e, c, trail):
        # counters for every constraint of e are updated even on conflict,
        # so _undo can reverse the assignment uniformly
        self.colour[e] = c
        trail.append(e)
        forced = []
        conflict = False
        binary = self.r == 2
        for ci in self.in_cons[e]:
            cnt = self.counts[ci]
            cnt[c] += 1
            if cnt[c] == 1:
                self.distinct[ci] += 1
            size = self.sizes[ci]
            if cnt[c] == size:
                conflict = True  # monochromatic copy
            elif binary and cnt[c] == size - 1 and self.distinct[ci] == 1:
                # one edge left uncoloured, all others share colour c
                last = next(x for x in self.cons[ci] if self.colour[x] == -1)
                forced.append((last, 1 - c))
        return None if conflict else forced

    def _undo(self, trail, mark):
        while len(trail) > mark:
            e = trail.pop()
            c = self.colour[e]
            self.colour[e] = -1
            for ci in self.in_cons[e]:
                cnt = self.counts[ci]
                cnt[c] -= 1
                if cnt[c] == 0:
                    self.distinct[ci] -= 1

    def _propagate(self, e, c, trail):
        queue = [(e, c)]
        while queue:
            e, c = queue.pop()
            if self.colour[e] == c:
                continue
            if self.colour[e] != -1:
                return False
            self.propagations += 1
            forced = self._assign(e, c, trail)
            if forced is None:
                return False
            queue.extend(forced)
        return True

    def _pick(self):
        """Free edge in the most constraints that have fewer than two
        colours; ties go to the lowest EdgeId."""
        colour, distinct, in_cons = self.colour, self.distinct, self.in_cons
        best, best_score = None, -1
        for e in self.vars:
            if colour[e] != -1:
                continue
            score = 0
            for ci in in_cons[e]:
                if distinct[ci] < 2:
                    score += 1
            if score > best_score:
                best, best_score = e, score
        return best

    def _first_free(self):
        return next((e for e in self.vars if self.colour[e] == -1), None)

    def solve(self, limit=1, symmetry_break=True, static=False):
        """Search for colourings leaving no constraint single-coloured.

        Returns (status, solutions).  Status is "sat" when `limit`
        solutions were found or the space was exhausted after finding
        some, "unsat" when there are none, "budget" when the node budget
        ran out first.  Solutions are colour lists over all m edges with
        unconstrained edges red.  `symmetry_break` colours the first
        decision red only; `static` decides edges in EdgeId order instead
        of by `_pick`, so colours are tried in lexicographic order.

        Each frame on the explicit stack holds a decided edge, the colours
        still to try for it and the trail length before its first colour.
        """
        if any(s == 1 for s in self.sizes):
            return "unsat", []  # a one-edge copy can never be bichromatic
        pick = self._first_free if static else self._pick
        sols, trail, stack = [], [], []
        while True:
            e = pick()
            if e is None:
                sols.append([RED if c == -1 else c for c in self.colour])
                if len(sols) >= limit:
                    return "sat", sols
            elif self.budget is not None and self.nodes >= self.budget:
                return "budget", sols
            else:
                self.nodes += 1
                root_only = symmetry_break and not stack
                stack.append((e, iter(range(1 if root_only else self.r)), len(trail)))
            # backtrack to the deepest edge with a colour left that propagates
            while stack:
                e, todo, mark = stack[-1]
                self._undo(trail, mark)
                c = next(todo, None)
                if c is None:
                    stack.pop()
                elif self._propagate(e, c, trail):
                    break
            else:
                return ("sat" if sols else "unsat"), sols


def _decide(m, cons, colours, budget, **provenance):
    if colours < 1:
        raise ValueError("need at least one colour")
    solver = _NaeSolver(m, cons, colours, budget)
    status, sols = solver.solve()
    stats = {"constraints": len(cons), "nodes": solver.nodes,
             "propagations": solver.propagations, **provenance}
    if status == "budget":
        return ArrowResult("undecided", None, stats)
    if status == "sat":
        return ArrowResult("not_arrows", sols[0], stats)
    return ArrowResult("arrows", None, stats)


def decide_arrow(G, F, colours=2, budget=None):
    """Decide G -> (F) in `colours` colours; certificate on the negative side.

    Every colour count runs the same search core: dynamic branching, the
    first decision fixed to colour 0 (colour-swap symmetry), one solution.
    With `budget`, at most that many branching nodes are expanded before
    the verdict is "undecided".
    """
    return _decide(G.num_edges(), copy_constraints(G, F), colours, budget)


BRUTE_FORCE_EDGE_CAP = 24


def brute_force_arrow(G, F):
    """Exact oracle: enumerate all colourings of the constrained edges."""
    cons = copy_constraints(G, F)
    m = G.num_edges()
    if not cons:
        return ArrowResult("not_arrows", [RED] * m, {"constraints": 0, "colourings": 0})
    vars_ = sorted({e for c in cons for e in c})
    k = len(vars_)
    if k > BRUTE_FORCE_EDGE_CAP:
        raise ValueError(f"{k} constrained edges exceed the oracle cap of {BRUTE_FORCE_EDGE_CAP}")
    pos = {e: i for i, e in enumerate(vars_)}
    masks = np.array(
        [sum(1 << pos[e] for e in c) for c in cons], dtype=np.int64
    )
    total = 1 << k
    chunk = 1 << 18
    for start in range(0, total, chunk):
        xs = np.arange(start, min(start + chunk, total), dtype=np.int64)
        bad = np.zeros(len(xs), dtype=bool)
        for mk in masks:
            band = xs & mk
            bad |= (band == mk) | (band == 0)
        good = np.nonzero(~bad)[0]
        if len(good):
            x = int(xs[good[0]])
            cert = [RED] * m
            for e, i in pos.items():
                cert[e] = (x >> i) & 1
            return ArrowResult(
                "not_arrows", cert, {"constraints": len(cons), "colourings": total}
            )
    return ArrowResult("arrows", None, {"constraints": len(cons), "colourings": total})


def decide_arrow_union(Z, addition, F, budget=None):
    """decide_arrow on Z ∪ addition, with copy provenance statistics.

    The union's copies are enumerated once; the constraints and the
    counts of copies inside Z, inside the addition and mixed all come
    from that one family.
    """
    U = union(Z, addition)
    copies = enumerate_copies(F, U).copies if F.n <= U.n else []
    z_edges, a_edges = set(Z.edges), set(addition.edges)
    in_z = [c.edges <= z_edges for c in copies]
    in_a = [c.edges <= a_edges for c in copies]
    return _decide(
        U.num_edges(), _edge_id_sets(U, copies), 2, budget,
        copies_in_base=sum(in_z),
        copies_in_addition=sum(in_a),
        copies_mixed=sum(not (z or a) for z, a in zip(in_z, in_a)),
    )


def enumerate_f_free_colorings(G, F, limit=16, budget=None):
    """Up to `limit` F-free colourings of G, deterministic order.

    No symmetry breaking, so colour-swapped twins both appear; edges in
    no copy of F are red in every returned colouring.
    """
    solver = _NaeSolver(G.num_edges(), copy_constraints(G, F), budget=budget)
    return solver.solve(limit=limit, symmetry_break=False)[1]


def first_f_free_coloring(G, F):
    """Lexicographically first F-free colouring in EdgeId order (red < blue).

    The core decides edges in EdgeId order, red first.  Propagation only
    fixes colours that every extension of the partial colouring must
    take, so the first solution found is the lexicographic minimum.
    """
    solver = _NaeSolver(G.num_edges(), copy_constraints(G, F))
    _, sols = solver.solve(symmetry_break=False, static=True)
    return sols[0] if sols else None


def cnf_export(G, F):
    """DIMACS CNF of the NAE system: per copy one all-positive and one
    all-negative clause over its edge variables (variable = EdgeId + 1)."""
    cons = copy_constraints(G, F)
    lines = [f"p cnf {G.num_edges()} {2 * len(cons)}"]
    for c in cons:
        lines.append(" ".join(str(e + 1) for e in c) + " 0")
        lines.append(" ".join(str(-(e + 1)) for e in c) + " 0")
    return "\n".join(lines) + "\n"
