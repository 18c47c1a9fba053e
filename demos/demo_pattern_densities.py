#!/usr/bin/env python3
"""Exact density profiles of small patterns.

Walks through the two-density, its maximizer, and the balancedness /
near-bipartiteness classification for cycles, cliques and a few
irregular patterns.  Everything printed here is exact rational
arithmetic; no classification ever hinges on floating point.
"""

from ramseylab import classify, d2, m2, mad, edge_density, booster_admissible
from ramseylab.graphs import complete_graph, pattern_by_name

print("=" * 72)
print("  Two-densities and threshold exponents")
print("=" * 72)
print(f"  {'pattern':>8} {'d2':>6} {'m2':>6} {'1/m2':>6} "
      f"{'balanced':>9} {'strict':>7} {'near-bip':>9}")

for name in ["K2", "K3", "K4", "K5", "C4", "C5", "C6", "C7", "C8", "K4-e", "P4"]:
    F = pattern_by_name(name)
    prof = classify(F)
    print(f"  {name:>8} {str(d2(F)):>6} {str(prof.m2):>6} "
          f"{str(prof.threshold_exponent):>6} {str(prof.balanced):>9} "
          f"{str(prof.strictly_balanced):>7} {str(prof.nearly_bipartite):>9}")

print()
print("Cycles: m2(C_k) = (k-1)/(k-2), so the arrowing threshold scales as")
print("n^(-(k-2)/(k-1)); every cycle is strictly balanced and nearly bipartite.")
print()

print("=" * 72)
print("  Which boosters are even admissible for the triangle?")
print("=" * 72)
k3 = complete_graph(3)
for name in ["K2", "P3", "C5", "C8", "K4", "K6"]:
    B = pattern_by_name(name)
    m = edge_density(B)
    verdict = "admissible" if booster_admissible(B, k3) else "too dense"
    print(f"  m({name}) = {m}  vs  m2(K3) = {m2(k3)[0]}   -> {verdict}")
print()
print("A graph B with m(B) > m2(F) already arrows F for density reasons,")
print("so it can never play the booster role: boosters must be sparse.")
print()

print("=" * 72)
print("  Rooted densities behind the Z3 per-edge bound")
print("=" * 72)
for name in ["K3", "K4", "C4", "C5", "C6"]:
    F = pattern_by_name(name)
    worst = max(mad(list(root), F.without_edges([e]))[0]
                for e in F.edges for root in F.without_edges([e]).edges)
    print(f"  {name:>4}: max over e, f of mad(f, F - e) = {str(worst):>4}  <  m2 = {m2(F)[0]}")
print()
print("Rooted at any edge f, no part of F - e is as dense as m2(F); that is")
print("what lets property Z3 cap the copies of F - e through one host edge")
print("at D/p when p ~ n^(-1/m2).")
