"""Exact decision of the two-colour arrowing property G -> (F).

Each copy of F is a not-all-equal constraint over its edge ids: the copy
must not be single-coloured.  The system has one form, the rows of
`_id_array`, built from the whole-host copy query
(`counting._sorted_copies`): each copy's sorted pair codes, in key
order, become edge ids with one array lookup, and no copy key is built.
This module writes every CNF literal: `_encode` writes a whole system (the
clauses `cnf_export` prints) with array operations, and `_extend` the
system left once a partial colouring is fixed, which answers "does this
partial colouring extend to an F-free one?" for `first_f_free_coloring`
and for the booster's unions.  One CDCL core (`_Cdcl`) answers every
colouring question.  One chain (`_exact_verdict`) answers a host for
`experiments.solver_verdict` and for booster stage 1: F's Ramsey clique
K_r in the host arrows F (`_ramsey_clique`), for a complete F a colouring
of its vertices in r − 1 colours does not (`_clique_colouring`;
`_repaired_colouring` mends Z's colouring on a union), and else the core
searches; `ArrowResult.source` names the answer and `witness` keeps its
evidence.  A brute-force oracle checks the core independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from heapq import heappop, heappush

import numpy as np

from .counting import _holds_copy, _sorted_copies, enumerate_copies
from .graphs import _bits, complete_graph, union

RED, BLUE = 0, 1
STATS = ("nodes", "propagations", "conflicts", "learned")  # counters of every search


@dataclass
class ArrowResult:
    verdict: str  # "arrows" | "not_arrows" | "undecided"
    certificate: list | None = None  # colour per EdgeId when not_arrows
    stats: dict = field(default_factory=dict)
    source: str | None = None  # the answering source of `_exact_verdict`
    witness: tuple | list | None = None  # its K_r map or vertex colouring

    @property
    def arrows(self):
        return self.verdict == "arrows"


def _id_array(G, F):
    """The NAE constraint system of the F-copies in G as one (copies × e(F))
    array of edge ids, each row sorted, the rows in copy key order: the
    sorted pair codes of `counting._sorted_copies`, each looked up in G's
    sorted edge codes.  An id is a position in the lexicographic edge
    order, so ids sort as the codes they replace: no key is built."""
    codes = _sorted_copies(F, G.adj)[2]
    ends = np.array(G.edges, dtype=np.intp).reshape(-1, 2)
    return np.searchsorted(ends[:, 0] * G.n + ends[:, 1], codes)


def is_f_free(coloring, G, F):
    """True iff no copy of F in G is monochromatic (its edges show at most
    one colour, so an edgeless copy is); else the first bad copy.  It reads
    `enumerate_copies` and `edge_id`, not the ids the NAE systems are built
    from, so it checks their certificates independently."""
    if len(coloring) != G.num_edges():
        raise ValueError("colouring must cover every edge of G")
    for copy in enumerate_copies(F, G).copies:
        cols = {coloring[G.edge_id(u, v)] for u, v in copy.edges}
        if len(cols) <= 1:
            return False, copy
    return True, None


def _encode(cons):
    """Clauses of the two-colour NAE system: literal 2e is "edge e has
    colour 1", 2e + 1 its negation.  `cons` is a (copies × e(F)) array of
    edge ids (`_id_array`); each row gives an all-positive clause, then an
    all-negative one, in row order."""
    copies, width = cons.shape
    pos = cons + cons
    return np.stack((pos, pos + 1), axis=1).reshape(2 * copies, width).tolist()


class _Cdcl:
    """The one search core: conflict-driven clause learning (CDCL).

    Two watched literals per clause, c[0] and c[1]; an implied literal sits
    at c[0].  Each conflict learns its first-UIP clause and jumps back on an
    explicit trail.  VSIDS activities, seeded by occurrence counts, order
    the decisions on a lazy `heapq`; Luby restarts; saved phases, and a
    variable's first decision satisfies the more of its open added clauses
    (input and blocking, not learned); a variable whose added clauses all
    hold is left free, not decided.  A node is a decision."""

    def __init__(self, nvars, clauses):
        self.value = [-1] * (2 * nvars)  # per literal: 1 true, 0 false, -1 free
        self.level, self.reason, self.phase = [0] * nvars, [None] * nvars, [-1] * nvars
        self.trail, self.lim, self.qhead, self.free, self.inc = [], [], 0, [], 1.0
        self.nodes = self.propagations = self.conflicts = self.learned = 0
        self.occ = occ = [[] for _ in range(2 * nvars)]  # added clauses per literal
        self.watches = watches = [[] for _ in range(2 * nvars)]
        short = []  # unit and empty clauses, added once the watches are set
        for c in clauses:
            if len(c) > 1:
                for lit in c:
                    occ[lit].append(c)
                watches[c[0]].append(c)
                watches[c[1]].append(c)
            else:
                short.append(c)
        self.activity = [self.inc * (len(occ[2 * v]) + len(occ[2 * v + 1])) for v in range(nvars)]
        self.vars = [v for v in range(nvars) if occ[2 * v] or occ[2 * v + 1]]
        self.heap = sorted((-self.activity[v], v) for v in self.vars)  # sorted: a heap
        self.ok = all(self.add(c) for c in short)

    def add(self, lits):
        """Add a clause at level 0; False when level-0 values falsify it.
        Every variable left free is requeued: the clause may need it."""
        self._cancel(0)
        for _, v in self.free:
            heappush(self.heap, (-self.activity[v], v))
        self.free.clear()
        if 1 not in [self.value[lit] for lit in lits]:
            lits = [lit for lit in lits if self.value[lit] < 0]
            for lit in lits:
                self.occ[lit].append(lits)
            self._attach(lits, None)
        return bool(lits)

    def _attach(self, lits, reason):
        """Watch a clause's first two literals; assign lits[0] if alone or `reason` implies it."""
        if len(lits) > 1:
            self.watches[lits[0]].append(lits)
            self.watches[lits[1]].append(lits)
        if len(lits) == 1 or reason:
            self.value[lits[0]], self.value[lits[0] ^ 1] = 1, 0
            self.level[lits[0] >> 1], self.reason[lits[0] >> 1] = len(self.lim), reason
            self.trail.append(lits[0])

    def _open(self, lit, stop):
        """How many added clauses hold `lit` and no true literal yet, up to `stop` if > 0."""
        value, count = self.value, 0
        for c in self.occ[lit]:
            for other in c:
                if value[other] == 1:
                    break
            else:
                count += 1
                if count == stop:
                    break
        return count

    def _propagate(self):
        """Unit propagation from the queue head; a falsified clause or None."""
        value, level, reason, watches, trail = (
            self.value, self.level, self.reason, self.watches, self.trail)
        push, lvl, head, conflict = trail.append, len(self.lim), self.qhead, None
        while head < len(trail) and conflict is None:
            false = trail[head] ^ 1
            head += 1
            ws, j, moved = watches[false], 0, 0  # in place: ws[:j] is kept, `moved` left
            for c in ws:
                first = c[0]
                if first == false:
                    first = c[0] = c[1]
                    c[1] = false
                if value[first] == 1:
                    ws[j] = c
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lit = c[k]
                    if value[lit]:  # true or free: watch it instead
                        c[1], c[k] = lit, false
                        watches[lit].append(c)
                        moved += 1
                        break
                else:
                    ws[j] = c
                    j += 1
                    if value[first] == 0:
                        conflict = c
                        break
                    value[first], value[first ^ 1] = 1, 0
                    level[first >> 1], reason[first >> 1] = lvl, c
                    push(first)
            del ws[j:j + moved]  # the slots the moved clauses left behind
        self.propagations, self.qhead = self.propagations + head - self.qhead, head
        return conflict

    def _learn(self, conflict):
        """Learn a conflict's first-UIP clause; jump back and assert it."""
        level, activity, trail, lvl = self.level, self.activity, self.trail, len(self.lim)
        reason, inc = self.reason, self.inc
        learnt, seen, path, i, lits = [], set(), 0, len(trail), conflict
        while lits:
            for q in lits:
                v = q >> 1
                if v not in seen and level[v]:
                    seen.add(v)
                    activity[v] += inc
                    if level[v] == lvl:
                        path += 1
                    else:
                        learnt.append(q)
            i -= 1
            while trail[i] >> 1 not in seen:
                i -= 1
            path -= 1
            lits = path and reason[trail[i] >> 1]  # its c[0] is trail[i] itself, seen
        learnt = [trail[i] ^ 1] + sorted(learnt, key=lambda q: -level[q >> 1])
        self._cancel(level[learnt[1] >> 1] if len(learnt) > 1 else 0)
        self._attach(learnt, learnt if len(learnt) > 1 else None)
        self.learned, self.inc = self.learned + 1, inc / 0.95
        if self.inc > 1e100:  # every activity stays below 20 * inc; heap keys scale alike
            self.inc, activity[:] = self.inc * 1e-100, [a * 1e-100 for a in activity]
            self.heap[:] = sorted((key * 1e-100, v) for key, v in self.heap)  # sorted: a heap

    def _cancel(self, lvl):
        """Undo every level above `lvl`, saving phases and requeueing."""
        if len(self.lim) > lvl:
            stop, value, activity, phase, heap = (
                self.lim[lvl], self.value, self.activity, self.phase, self.heap)
            for lit in self.trail[stop:]:
                v = lit >> 1
                value[lit] = value[lit ^ 1] = -1
                phase[v] = lit & 1
                heappush(heap, (-activity[v], v))
            del self.trail[stop:], self.lim[lvl:]
            while self.free and self.free[-1][0] > stop:  # left free on literals now undone
                v = self.free.pop()[1]
                heappush(heap, (-activity[v], v))
            self.qhead = stop

    def solve(self, budget=None):
        """True if satisfiable, False if not, None once `budget` decisions ran out."""
        value, heap, since, luby = self.value, self.heap, 0, (1, 1)  # Luby: Knuth's (u, v)
        while self.ok:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts, since, self.ok = self.conflicts + 1, since + 1, bool(self.lim)
                if self.ok:
                    self._learn(conflict)
            elif since >= 100 * luby[1]:  # restart after 100 conflicts per Luby unit v
                u, w = luby
                luby, since = ((u + 1, 1) if u & -u == w else (u, 2 * w)), 0
                self._cancel(0)  # and drop the heap's stale entries
                heap[:] = sorted((-self.activity[v], v) for v in self.vars if value[2 * v] < 0)
            else:
                while heap and value[2 * heap[0][1]] >= 0:
                    heappop(heap)
                if not heap:
                    return True
                v = heappop(heap)[1]
                stop = -1 if self.phase[v] < 0 else 1  # a saved phase: is any clause open?
                red, blue = self._open(2 * v + 1, stop), self._open(2 * v, stop)
                if red == blue == 0:  # every added clause of v holds: leave v free
                    self.free.append((len(self.trail), v))
                    continue
                if budget is not None and self.nodes >= budget:
                    return None
                self.phase[v] = int(red >= blue) if self.phase[v] < 0 else self.phase[v]
                self.nodes += 1
                self.lim.append(len(self.trail))
                self._attach([2 * v + self.phase[v]], None)
        return False


def _colouring(value, m):
    """Colour per edge of a core's satisfying values.  A free variable reads
    as false, so an edge in no copy gets colour 0."""
    return [1 if x == 1 else 0 for x in value[:2 * m:2]]


def _extend(cons, fixed):
    """Colours of the edges outside `fixed` that extend the partial
    colouring `fixed` (colour per edge) to one that leaves no constraint of
    `cons` (edge-id rows) single-coloured, or None if none do.  A constraint
    whose fixed edges show both colours holds already; else, if they are
    all colour c or it has none, one of its other edges must not be c.
    With no such constraint no core is built and the answer is {}; an edge
    left out may take either colour."""
    new, clauses = {}, []  # edge outside `fixed` -> core variable ("edge is blue")
    for es in cons:
        cols = {fixed[e] for e in es if e in fixed}
        if len(cols) < 2:
            lits = [2 * new.setdefault(e, len(new)) for e in es if e not in fixed]
            clauses += [[lit + c for lit in lits] for c in (RED, BLUE) if cols <= {c}]
    if not clauses:
        return {}
    core = _Cdcl(len(new), clauses)
    if not core.solve():
        return None
    return {e: int(core.value[2 * v] == 1) for e, v in new.items()}


def _check_budget(budget):
    if budget is not None and budget < 0:
        raise ValueError(f"node budget must be >= 0, got {budget}")


def _decide(m, cons, budget):
    """ArrowResult of the core on the NAE system of m edges, with the edge
    in the most copies (ties: the lowest EdgeId) fixed to colour 0 at level
    0 (colour-swap symmetry)."""
    _check_budget(budget)
    core = _Cdcl(m, _encode(cons))
    if core.vars:
        v = max(core.vars, key=core.activity.__getitem__)  # colour 0 of that edge
        core.ok = core.ok and core.add([2 * v + 1])
    found = core.solve(budget)
    verdict = "undecided" if found is None else "not_arrows" if found else "arrows"
    stats = {"constraints": len(cons), **{k: getattr(core, k) for k in STATS}}
    return ArrowResult(verdict, _colouring(core.value, m) if found else None, stats)


def decide_arrow(G, F, budget=None):
    """Decide G -> (F) in two colours; certificate on the negative side.

    The CDCL core runs with the edge in the most copies of F fixed to
    colour 0 (colour-swap symmetry).  `budget` caps its decisions (nodes);
    past it the verdict is "undecided"."""
    return _decide(G.num_edges(), _id_array(G, F), budget)


# the largest complete graph `_ramsey_clique` solves: K7's 21 edges are
# within BRUTE_FORCE_EDGE_CAP, and K8 (R(C6, C6) = 8) took a second for C6
CLIQUE_CAP = 7


@cache
def _ramsey_clique(F):
    """F's Ramsey clique: K_r for the smallest r <= CLIQUE_CAP with K_r ->
    (F) in two colours, r = R(F, F), or None.  Arrowing is monotone, so
    every host that holds a K_r arrows F.  Found once per pattern by
    unbudgeted solves of K_v(F), ..., K_7 on the private `_decide`."""
    return next((K for K in map(complete_graph, range(F.n, CLIQUE_CAP + 1))
                 if _decide(K.num_edges(), _id_array(K, F), None).arrows), None)


def _clique_colouring(F, adj):
    """A proper colouring of the host rows `adj` in at most r − 1 colours,
    a colour per vertex, or None; for a complete F whose Ramsey clique K_r
    exists (K2 and K3), else None at once.  One greedy DSATUR pass (Brélaz
    1979) with no backtracking: the next vertex has the most colours among
    its neighbours, then the most uncoloured neighbours, then the lowest
    id, and takes the lowest colour none of them has.

    A colouring c is exact evidence that the host does not arrow F: r is
    minimal, so K_{r−1} has an F-free colouring χ, and the host's edge uv
    takes χ(c(u)c(v)).  A copy of F maps into K_{r−1} under c injectively,
    as F is complete and c proper, onto a copy that χ leaves two-coloured."""
    K = _ramsey_clique(F)
    if K is None or 2 * F.num_edges() != F.n * (F.n - 1):
        return None
    colour, seen, left = [0] * len(adj), [0] * len(adj), (1 << len(adj)) - 1
    while left:  # seen[v]: the colours of v's coloured neighbours, a bit each
        v = max(_bits(left), key=lambda u: (seen[u].bit_count(), (adj[u] & left).bit_count(), -u))
        c = (~seen[v] & (seen[v] + 1)).bit_length() - 1  # its lowest clear bit
        if c >= K.n - 1:
            return None
        colour[v], left = c, left & ~(1 << v)
        for u in _bits(adj[v] & left):
            seen[u] |= 1 << c
    return colour


def _repaired_colouring(F, colour, adj, pairs):
    """Z's `_clique_colouring` `colour` for F, made proper on the union that
    adds `pairs` to Z, with rows `adj`, or None: where an added pair uv
    shares a colour, u, else v, takes the lowest colour below r − 1 that
    none of its union neighbours has; if neither can, or `colour` is None,
    the answer is None.  Exact as `_clique_colouring` is: a vertex moved to
    a colour none of its neighbours has leaves each edge at it proper, so
    the answer is a proper (r − 1)-colouring of the union, and it pulls
    back to an F-free colouring of the union's edges."""
    if colour is None:
        return None
    colour, top = list(colour), _ramsey_clique(F).n - 1
    for u, v in pairs:
        for w in (u, v) if colour[u] == colour[v] else ():
            seen = sum({1 << colour[x] for x in _bits(adj[w])})  # a bit per neighbour colour
            if (c := (~seen & (seen + 1)).bit_length() - 1) < top:  # its lowest clear bit
                colour[w] = c
                break
        if colour[u] == colour[v]:
            return None
    return colour


def _exact_verdict(F, adj, anchors, search):
    """ArrowResult of the first exact source that decides whether the host
    with rows `adj` arrows F, its `source` and `witness` set:
    - "clique": F's Ramsey clique K_r through a host pair of `anchors`, or
      anywhere when `anchors` is None (`_holds_copy`); "arrows", the
      witness its map of K_r;
    - "colouring": for a complete F, `_clique_colouring`'s proper
      colouring of the host's vertices in r − 1 colours; "not_arrows", the
      witness that colouring, whose pull-back is F-free;
    - "searched": the ArrowResult of `search()`, the caller's search of
      the host at its node budget; no witness beside its certificate.
    The first two are exact, so they may decide a host that the budget
    would leave undecided."""
    clique = _ramsey_clique(F)
    if clique is not None and (found := _holds_copy(clique, adj, anchors)) is not None:
        return ArrowResult("arrows", source="clique", witness=found)
    if (colour := _clique_colouring(F, adj)) is not None:
        return ArrowResult("not_arrows", source="colouring", witness=colour)
    res = search()
    res.source = "searched"
    return res


BRUTE_FORCE_EDGE_CAP = 24


def brute_force_arrow(G, F):
    """Exact oracle: enumerate all colourings of the constrained edges."""
    cons = _id_array(G, F).tolist()
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
    """decide_arrow on Z ∪ addition: every copy of F in the union found
    afresh, unanchored, the independent reference for the booster's unions."""
    return decide_arrow(union(Z, addition), F, budget=budget)


def enumerate_f_free_colorings(G, F, limit=16, budget=None):
    """Up to `limit` distinct F-free colourings of G, deterministic order.  No
    symmetry breaking, so colour-swapped twins both appear; edges in no
    copy of F are red in every returned colouring.  One core searches on
    after each colouring, with a clause blocking its values on the
    constrained edges; `budget` caps the decisions of all its searches."""
    _check_budget(budget)
    m = G.num_edges()
    core, sols = _Cdcl(m, _encode(_id_array(G, F))), []
    while len(sols) < limit and core.solve(budget):
        sols.append(_colouring(core.value, m))
        core.ok = core.add([2 * v + (core.value[2 * v] == 1) for v in core.vars])
    return sols


def first_f_free_coloring(G, F):
    """Lexicographically first F-free colouring in EdgeId order (red < blue).

    The constrained edges are fixed in EdgeId order: red if an F-free
    colouring has it red and agrees with the edges fixed so far, else
    blue.  `_extend` answers each such question; the last colouring found
    answers it when it has the edge red.  Edges in no copy of F are red.
    """
    cons, fixed = _id_array(G, F).tolist(), {}
    best = _extend(cons, fixed)  # the last F-free colouring found; red where it names none
    if best is None:
        return None
    for e in sorted({e for c in cons for e in c}):
        if best.get(e, RED) == BLUE:
            found = _extend(cons, {**fixed, e: RED})
            best = best if found is None else {**fixed, e: RED, **found}
        fixed[e] = best.get(e, RED)
    return [fixed.get(e, RED) for e in range(G.num_edges())]


def cnf_export(G, F):
    """DIMACS CNF of the two-colour NAE system, the clauses the core solves
    (variable = EdgeId + 1)."""
    clauses = _encode(_id_array(G, F))
    lines = [f"p cnf {G.num_edges()} {len(clauses)}"]
    lines += [" ".join(str(-(lit >> 1) - 1 if lit & 1 else (lit >> 1) + 1) for lit in c) + " 0"
              for c in clauses]
    return "\n".join(lines) + "\n"
