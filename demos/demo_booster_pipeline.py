#!/usr/bin/env python3
"""The booster machinery end to end on a hand-checkable instance.

Z = K6 minus one edge is one edge short of arrowing the triangle, so
the single-edge booster on the missing pair is the unique interactive
embedding.  The script runs the whole chain: focus sets, badness,
normal-family filtering, index consistency, activated sets, the
container hypergraph with its degree statistics, and brute-force cores.
"""

from fractions import Fraction

from ramseylab import (
    activated_set,
    brute_force_cores,
    build_hypergraph,
    check_interactive_regular,
    construct_normal_family,
    hypergraph_stats,
    make_booster_spec,
    restrict_index_consistent,
    verify_core_properties,
    verify_normal_family,
)
from ramseylab.arrowing import enumerate_f_free_colorings
from ramseylab.booster import profile_of, union_view
from ramseylab.graphs import Seed, complete_graph

K3 = complete_graph(3)
Z = complete_graph(6).without_edges([(0, 1)])
spec = make_booster_spec(complete_graph(2), K3)

print("=" * 72)
print("  Normal-family pipeline on Z = K6 - {0,1}, booster B = K2")
print("=" * 72)
params = dict(D=4, delta=Fraction(1, 12), p=0.5, alpha=Fraction(1, 4))
xi0, report = construct_normal_family(Z, spec, K3, params, seed=Seed(42))
print(f"  pool of embeddings:        {report['pool']}")
print(f"  after arrowing filter:     {report['psi1']}")
print(f"  after badness filter:      {report['psi2']}")
print(f"  after heavy-pair filter:   {report['psi3']}")
print(f"  after random selection:    {report['psi_s']}")
print(f"  after overlap/cap/clash:   {report['xi0']}")
print(f"  removal histogram:         {report['removed']}")
print(f"  surviving family:          {xi0}")
check = verify_normal_family(Z, xi0, spec, K3, params)
print(f"  independent re-verification: ok = {check['ok']}")
print()
print("Only the embedding onto the missing pair survives: every other")
print("placement fails the arrowing filter, exactly as hand analysis says.")
print()

h = xi0[0]
rep = check_interactive_regular(Z, xi0, spec, K3)
fs = union_view(Z, h, spec, K3)
print("=" * 72)
print("  Focus set and profile of the surviving embedding")
print("=" * 72)
print(f"  interactive: {rep['pair_interactive']}, regular: {rep['pair_regular']}")
print(f"  M(Z, h(B)) as edges: {[Z.edges[i] for i in fs.members]}")
print(f"  profile: {profile_of(Z, h, spec, K3).pi}  (every member focuses on")
print("  the single booster edge, so the profile is constant)")
print()

Xi, prof, rrep = restrict_index_consistent(Z, xi0, spec, K3, L=10, seed=Seed(43))
print(f"  index-consistent restriction keeps {len(Xi)} embedding(s), length {prof.length}")
print()

print("=" * 72)
print("  Activated edges of F-free colourings hit every hyperedge")
print("=" * 72)
phis = enumerate_f_free_colorings(Z, K3, limit=4)
for k, phi in enumerate(phis):
    A = activated_set(Z, Xi, spec, K3, phi)
    print(f"  colouring #{k}: activated edge ids {sorted(A)} "
          f"(hits M: {bool(A & set(fs.members))})")
print()

print("=" * 72)
print("  Container hypergraph, degree statistics, brute-force cores")
print("=" * 72)
bh = build_hypergraph(Z, Xi, spec, K3, prof)
st = hypergraph_stats(bh, Fraction(1, 2))
print(f"  V = E(Z): m = {st['m']}, hyperedges e = {st['e']}, uniform length {st['ell']}")
print(f"  average degree d = {st['d']}, Delta1 = {st['Delta1']}, Delta2 = {st['Delta2']}")
print(f"  delta(H, 1/2) = {st['delta']} = {st['delta_float']:.4f}")
fam = brute_force_cores(bh)
ver = verify_core_properties(fam, bh)
print(f"  containers (maximal independent sets): {ver['num_cores']}")
print(f"  every hitting set contains a core:     {ver['c3_ok']} "
      f"(checked over {ver['hitting_sets']} hitting sets)")
