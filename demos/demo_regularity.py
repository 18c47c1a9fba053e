#!/usr/bin/env python3
"""Sparse-regularity toolkit: scaled densities, regular pairs, reduced
graphs and partite copy counts on constructed fixtures."""

from ramseylab import (
    counting_lemma_check,
    fstar_overlap_count,
    is_eps_p_regular,
    pair_density,
    reduced_graph,
)
from ramseylab.graphs import Graph, Seed, complete_graph, cycle_graph, gnp_sample, path_graph

print("=" * 72)
print("  Scaled pair density d_{H,p}")
print("=" * 72)
k4 = complete_graph(4)
print(f"  complete pair at p=1:   {pair_density(k4, 1.0, [0, 1], [2, 3])}")
print(f"  same pair at p=1/2:     {pair_density(k4, 0.5, [0, 1], [2, 3])}")
print("  halving p doubles the scaled density: d * p is p-free.")
print()

print("=" * 72)
print("  Exact regularity check with extremal witnesses")
print("=" * 72)
full = Graph(8, [(i, j) for i in range(4) for j in range(4, 8)])
r = is_eps_p_regular(full, 1.0, range(4), range(4, 8), 0.25)
print(f"  complete bipartite pair: regular = {r['regular']} "
      f"(worst deviation {r['worst_deviation']:.3f})")
half = Graph(16, [(i, j) for i in range(4) for j in range(8, 16)])
r = is_eps_p_regular(half, 1.0, list(range(8)), list(range(8, 16)), 0.3)
print(f"  half-joined pair:        regular = {r['regular']} "
      f"(worst deviation {r['worst_deviation']:.3f})")
print(f"    witness X' = {r['witness']['X']}")
print(f"    witness Y' = {r['witness']['Y']}")
print()

print("=" * 72)
print("  Reduced graph of a 3-class fixture")
print("=" * 72)
cls = [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
g = Graph(9, [(u, v) for u in cls[0] for v in cls[1]])
rg = reduced_graph(g, 1.0, cls, 0.5, 0.25)
print(f"  only the dense-regular class pair survives: edges = {rg.edges}")
print()

print("=" * 72)
print("  Partite copies vs the counting-lemma lower bound")
print("=" * 72)
cls4 = [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9, 10, 11]]
host = Graph(12, [(u, v) for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0)]
                  for u in cls4[a] for v in cls4[b]])
r = counting_lemma_check(cycle_graph(4), [0, 1, 2, 3], host, cls4, 1.0, 1.0)
print(f"  partite 4-cycles in the complete 4-partite fixture: {r['partite_copies']}")
print(f"  bound xi * p^4 * prod|V_i| = {r['bound']:.0f}, ratio {r['ratio']:.2f}")
print()

print("=" * 72)
print("  Overlap counts: copies pinned to a vertex set W at two marks")
print("=" * 72)
fstar = path_graph(4)
for i in range(3):
    G = gnp_sample(8, 0.5, Seed(61, i))
    r = fstar_overlap_count(fstar, 0, 3, G, [0, 2, 4])
    bound = r["bound_coefficient"] * 0.5 ** r["bound_p_exponent"]
    print(f"  host #{i}: {r['count']} copies of the marked path meeting W "
          f"exactly at its endpoints (bound at p=1/2: {bound:.1f})")
