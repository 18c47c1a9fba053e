#!/usr/bin/env python3
"""Monte Carlo arrowing probabilities across the scaled constant c.

Sweeps p = c * n^(-1/m2) for the triangle at a desk-scale n, follows one
random graph process per trial to the constant where it first arrows, and
contrasts sharp/coarse behaviour on synthetic oracles where the ground
truth is planted.
"""

import math

from ramseylab import (
    hitting_constant,
    sharpness_window,
    threshold_curve,
)
from ramseylab.graphs import Seed, complete_graph

k3 = complete_graph(3)
n = 16

print("=" * 72)
print(f"  Arrowing probability curve for the triangle at n = {n}")
print("=" * 72)
curve = threshold_curve(k3, n, [1.0, 1.6, 2.2, 2.8, 3.4], trials=60, seed=Seed(31))
print(f"  {'c':>5} {'p':>7} {'estimate':>9} {'95% Wilson':>18} {'undecided':>10}")
for pt in curve["points"]:
    print(f"  {pt['c']:>5.1f} {pt['p']:>7.3f} {pt['estimate']:>9.3f} "
          f"[{pt['wilson_low']:.3f}, {pt['wilson_high']:.3f}] {pt['undecided']:>8}")
print(f"  interpolated half-crossing: c ~ {curve['crossings'][0.5]:.2f}")
print()

print("=" * 72)
print("  Hitting constants against a planted sharp (step) oracle")
print("=" * 72)
p0 = 0.217
step = lambda nn, p, seed: "arrows" if p > p0 else "not_arrows"
print(f"  planted c0 = {p0 * math.sqrt(40):.4f}; each trial's hitting edge is its last")
print("  arrival at or below p0:")
for t in range(3):
    hit = hitting_constant(k3, 40, Seed(32, t), verdict_fn=step)
    print(f"    trial {t}: c* = {hit['c']:.4f} after {hit['solves']} probes")
print()

print("=" * 72)
print("  Window widths on a planted logistic (coarse-looking) oracle")
print("=" * 72)
c0 = 1.3
for n_syn in (20, 40, 80):
    w = 1 / math.sqrt(n_syn)

    def logistic(nn, p, seed, w=w):
        c = p * nn**0.5
        prob = 1 / (1 + math.exp(-(c - c0) / w))
        return "arrows" if seed.generator().random() < prob else "not_arrows"

    rows = sharpness_window(k3, [n_syn], trials=300, seed=Seed(33, n_syn),
                            verdict_fn=logistic)
    row = rows[0]
    true_gap = w * 2 * math.log(9)
    print(f"  n={n_syn:>3}: measured c(0.9)-c(0.1) = {row['window']:.3f} "
          f"(planted {true_gap:.3f}), relative width {row['relative_width']:.3f}")
print()
print("The planted width shrinks like 1/sqrt(n); a genuinely sharp threshold")
print("would show the same shrinking trend in the live solver data.")
