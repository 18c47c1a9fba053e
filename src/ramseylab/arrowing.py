"""Exact decision of the arrowing property G -> (F).

Each copy of F is a not-all-equal constraint over its edge ids: the copy
must not be single-coloured.  `_id_array` builds the whole system from
the whole-host copy query (`counting._sorted_copies`): each copy's sorted
pair codes, in key order, become edge ids with one array lookup, and no
copy key is built; `copy_constraints` is that system as tuples.  This
module writes every CNF literal: `_encode` writes a whole system (the
clauses `cnf_export` prints) with array operations, and `_extend` the
system left once a partial colouring is fixed, which answers "does this
partial colouring extend to an F-free one?" for `first_f_free_coloring`
and for the booster's unions.  One CDCL core (`_Cdcl`) answers every
colouring question.  A brute-force oracle checks it independently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .counting import _sorted_copies, enumerate_copies
from .graphs import union

RED, BLUE = 0, 1
STATS = ("nodes", "propagations", "conflicts", "learned")  # counters of every search


@dataclass
class ArrowResult:
    verdict: str  # "arrows" | "not_arrows" | "undecided"
    certificate: list | None = None  # colour per EdgeId when not_arrows
    stats: dict = field(default_factory=dict)

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


def copy_constraints(G, F):
    """Edge-id sets of the F-copies in G (the NAE constraint system), in
    copy key order, as tuples (`_id_array`)."""
    return list(map(tuple, _id_array(G, F).tolist()))


def is_f_free(coloring, G, F):
    """True iff no copy of F in G is monochromatic; else the first bad copy.
    It reads `enumerate_copies` and `edge_id`, not the ids the NAE systems
    are built from, so it checks their certificates independently."""
    if len(coloring) != G.num_edges():
        raise ValueError("colouring must cover every edge of G")
    for copy in enumerate_copies(F, G).copies:
        cols = {coloring[G.edge_id(u, v)] for u, v in copy.edges}
        if len(cols) == 1:
            return False, copy
    return True, None


def _encode(m, cons, colours):
    """(variable count, clauses) of the NAE system; literal 2v is variable v,
    2v + 1 its negation.  Two colours: variable e is "edge e has colour 1",
    and each copy gives an all-positive and an all-negative clause.  Else
    variable e * r + c is "edge e has colour c", with one at-least-one
    clause per constrained edge and one "not all c" clause per copy and c;
    an edge takes its lowest true colour, so at-most-one clauses are moot.
    `cons` is a (copies × e(F)) array of edge ids (`_id_array`); the
    clauses come in its row order."""
    r, (copies, width) = colours, cons.shape
    if r == 2:  # each row's positive clause, then its negative one
        pos = cons + cons
        return m, np.stack((pos, pos + 1), axis=1).reshape(2 * copies, width).tolist()
    at_least = 2 * (np.unique(cons)[:, None] * r + np.arange(r))
    not_all = 2 * (cons[:, None, :] * r + np.arange(r)[:, None]) + 1  # copy, colour, edge
    return m * r, at_least.tolist() + not_all.reshape(copies * r, width).tolist()


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


def _colouring(value, m, colours=2):
    """Colour per edge of a core's satisfying values: with more than two
    colours an edge takes its lowest true colour.  A free variable reads as
    false, so an edge in no copy gets colour 0."""
    if colours == 2:
        return [1 if x == 1 else 0 for x in value[:2 * m:2]]
    return [next((k for k in range(colours) if value[2 * (e * colours + k)] == 1), 0)
            for e in range(m)]


def _extend(cons, fixed):
    """Colours of the edges outside `fixed` that extend the partial
    colouring `fixed` (colour per edge) to one that leaves no constraint of
    `cons` (edge tuples) single-coloured, or None if none do.  A constraint
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


def _decide(m, cons, colours, budget):
    """ArrowResult of the core on the NAE system of m edges, with the edge
    in the most copies (ties: the lowest EdgeId) fixed to colour 0 at level
    0 (colour-swap symmetry)."""
    if colours < 1:
        raise ValueError("need at least one colour")
    _check_budget(budget)
    core = _Cdcl(*_encode(m, cons, colours))
    if core.vars:
        v = max(core.vars, key=core.activity.__getitem__)  # colour 0 of that edge
        core.ok = core.ok and core.add([2 * v + (colours == 2)])
    found = core.solve(budget)
    verdict = "undecided" if found is None else "not_arrows" if found else "arrows"
    stats = {"constraints": len(cons), **{k: getattr(core, k) for k in STATS}}
    return ArrowResult(verdict, _colouring(core.value, m, colours) if found else None, stats)


def decide_arrow(G, F, colours=2, budget=None):
    """Decide G -> (F) in `colours` colours; certificate on the negative side.

    The CDCL core runs with the edge in the most copies of F fixed to
    colour 0 (colour-swap symmetry).  `budget` caps its decisions (nodes);
    past it the verdict is "undecided"."""
    return _decide(G.num_edges(), _id_array(G, F), colours, budget)


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

    The union's system is `_id_array(U, F)`, its copies enumerated once,
    in full and unanchored; the counts of copies inside Z, inside the
    addition and mixed are read off the edges its ids name.
    """
    U = union(Z, addition)
    ids = _id_array(U, F)
    res = _decide(U.num_edges(), ids, 2, budget)
    cons = ids.tolist()
    in_z = [all(U.edges[e] in Z._index for e in c) for c in cons]
    in_a = [all(U.edges[e] in addition._index for e in c) for c in cons]
    res.stats.update(copies_in_base=sum(in_z), copies_in_addition=sum(in_a),
                     copies_mixed=sum(not (z or a) for z, a in zip(in_z, in_a)))
    return res


def enumerate_f_free_colorings(G, F, limit=16, budget=None):
    """Up to `limit` distinct F-free colourings of G, deterministic order.  No
    symmetry breaking, so colour-swapped twins both appear; edges in no
    copy of F are red in every returned colouring.  One core searches on
    after each colouring, with a clause blocking its values on the
    constrained edges; `budget` caps the decisions of all its searches."""
    _check_budget(budget)
    m = G.num_edges()
    core, sols = _Cdcl(*_encode(m, _id_array(G, F), 2)), []
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
    cons, fixed = copy_constraints(G, F), {}
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
    nvars, clauses = _encode(G.num_edges(), _id_array(G, F), 2)
    lines = [f"p cnf {nvars} {len(clauses)}"]
    lines += [" ".join(str(-(lit >> 1) - 1 if lit & 1 else (lit >> 1) + 1) for lit in c) + " 0"
              for c in clauses]
    return "\n".join(lines) + "\n"
