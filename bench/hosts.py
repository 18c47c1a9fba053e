"""Seeded host graphs for the booster workload.

Every host is built here from the workload seed, so the benchmark does not
depend on test helpers.  Two families:

- block hosts: disjoint relabelled copies of K6 minus one edge.  Each block
  is one edge short of arrowing the triangle, so the booster pipeline has
  arrowing unions to keep.  Decorated hosts add random edges at the
  vertices outside every block, unless the host then cannot be shown not
  to arrow K3.
- random hosts: G(14, 2.2 * 14^(-1/2)) samples shown not to arrow K3.

"Shown" means a colouring found within SELECT_BUDGET search nodes, so a
rare hard sample costs set-up time no more than an easy one.
"""

from itertools import combinations

BLOCK = 6
DECORATION_P = 0.25
RANDOM_N = 14
RANDOM_C = 2.2
SELECT_BUDGET = 2000


def block_host(lab, n, blocks, seed, decorate):
    """Host on n vertices holding `blocks` disjoint K6-e blocks."""
    if n < BLOCK * blocks:
        raise ValueError(f"{blocks} blocks need at least {BLOCK * blocks} vertices")
    rng = seed.generator()
    order = [int(v) for v in rng.permutation(n)]
    edges = set()
    for b in range(blocks):
        part = order[BLOCK * b : BLOCK * (b + 1)]
        gap = frozenset(part[:2])
        edges.update(
            (min(u, v), max(u, v)) for u, v in combinations(part, 2) if {u, v} != gap
        )
    plain = lab.graphs.Graph(n, edges)
    if not decorate:
        return plain
    free = order[BLOCK * blocks :]
    extra = {
        (min(v, w), max(v, w))
        for v in free
        for w in range(n)
        if w != v and rng.random() < DECORATION_P
    }
    if not extra:
        return plain
    host = lab.graphs.Graph(n, edges | extra)
    K3 = lab.graphs.complete_graph(3)
    if lab.arrowing.decide_arrow(host, K3, budget=SELECT_BUDGET).verdict != "not_arrows":
        return plain
    return host


def random_host(lab, seed, max_tries=200):
    """First G(14, 2.2 n^(-1/2)) sample on seed's substreams shown not to
    arrow K3."""
    p = RANDOM_C * RANDOM_N ** -0.5
    K3 = lab.graphs.complete_graph(3)
    for t in range(max_tries):
        Z = lab.graphs.gnp_sample(RANDOM_N, p, seed.substream(t))
        if lab.arrowing.decide_arrow(Z, K3, budget=SELECT_BUDGET).verdict == "not_arrows":
            return Z, p
    raise RuntimeError("no non-arrowing random host found")
