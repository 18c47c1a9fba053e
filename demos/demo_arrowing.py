#!/usr/bin/env python3
"""The arrowing solver against classical facts and its brute-force twin.

Shows the K5/K6 boundary for the triangle, a certificate check, the
not-all-equal CNF encoding, and a cross-check of the CDCL solver
against exhaustive enumeration on random hosts.
"""

from ramseylab import (
    brute_force_arrow,
    cnf_export,
    decide_arrow,
    is_f_free,
)
from ramseylab.graphs import Seed, complete_graph, cycle_graph, gnp_sample

k3 = complete_graph(3)

print("=" * 72)
print("  The classical boundary: K5 does not arrow the triangle, K6 does")
print("=" * 72)
for n in range(3, 7):
    res = decide_arrow(complete_graph(n), k3)
    line = f"  K{n} -> (K3)?  {res.verdict:>11}"
    if res.certificate is not None:
        ok, _ = is_f_free(res.certificate, complete_graph(n), k3)
        line += f"   (certificate verifies: {ok})"
    print(line)

print()
print("The K5 certificate is the classical two edge-disjoint 5-cycles")
print("colouring; the solver rediscovers one automatically.")
print()

print("=" * 72)
print("  CDCL solver vs exhaustive oracle on random hosts")
print("=" * 72)
agreements = 0
for i in range(60):
    G = gnp_sample(8, 0.5, Seed(2024, i))
    for F in (k3, cycle_graph(4)):
        a = decide_arrow(G, F).verdict
        b = brute_force_arrow(G, F).verdict
        assert a == b, (i, a, b)
        agreements += 1
print(f"  {agreements} decisions, 100% agreement")
print()

print("=" * 72)
print("  DIMACS export of the constraint system (one K4 host)")
print("=" * 72)
print("Each triangle contributes an all-positive clause (some edge blue)")
print("and an all-negative clause (some edge red):")
print()
print(cnf_export(complete_graph(4), k3))
