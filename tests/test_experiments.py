import math
from fractions import Fraction

import pytest

from ramseylab.counting import enumerate_copies
from ramseylab.experiments import (
    bipartition_sizes,
    bisect_threshold_constant,
    derive_proof_constants,
    estimate_arrow_probability,
    janson_bound,
    sharpness_window,
    threshold_curve,
    wilson_interval,
    z_property_rates,
)
from ramseylab.density import classify
from ramseylab.graphs import Seed, complete_graph, cycle_graph, empty_graph, path_graph

K3 = complete_graph(3)


def test_wilson_basics():
    lo, hi = wilson_interval(0, 10)
    assert lo == 0.0 and hi > 0
    lo, hi = wilson_interval(10, 10)
    assert hi == 1.0 and lo < 1
    lo, hi = wilson_interval(5, 10)
    assert lo < 0.5 < hi
    with pytest.raises(ValueError):
        wilson_interval(1, 0)
    # the endpoints at 0 and n successes are exact, not a rounding step off
    for n in range(1, 51):
        lo, hi = wilson_interval(0, n)
        assert lo == 0.0 and 0.0 < hi < 1.0
        lo, hi = wilson_interval(n, n)
        assert hi == 1.0 and 0.0 < lo < 1.0


def test_estimate_edge_cases():
    r = estimate_arrow_probability(K3, 8, 0.0, 10, Seed(1))
    assert r["estimate"] == 0.0 and r["undecided"] == 0
    r = estimate_arrow_probability(K3, 6, 1.0, 10, Seed(1))
    assert r["estimate"] == 1.0 and r["undecided"] == 0
    with pytest.raises(RuntimeError):
        estimate_arrow_probability(K3, 6, 1.0, 5, Seed(1), budget=1)


def test_estimate_reproducible():
    a = estimate_arrow_probability(K3, 10, 0.3, 30, Seed(5, 1))
    b = estimate_arrow_probability(K3, 10, 0.3, 30, Seed(5, 1))
    assert a == b


def test_bisect_on_planted_step():
    p0 = 0.217

    def step(n, p, seed):
        return "arrows" if p > p0 else "not_arrows"

    r = bisect_threshold_constant(K3, 30, trials=3, tol=1e-4, seed=Seed(2),
                                  verdict_fn=step, c_range=(0.01, 4.0))
    c_true = p0 * 30**0.5
    assert abs(r["c_hat"] - c_true) < 1e-3
    # determinism and probe logging
    r2 = bisect_threshold_constant(K3, 30, trials=3, tol=1e-4, seed=Seed(2),
                                   verdict_fn=step, c_range=(0.01, 4.0))
    assert r["c_hat"] == r2["c_hat"]
    assert [p["c"] for p in r["probes"]] == [p["c"] for p in r2["probes"]]


def test_bisect_requires_bracket():
    def always(n, p, seed):
        return "arrows"

    with pytest.raises(RuntimeError, match="bracket"):
        bisect_threshold_constant(K3, 20, trials=3, seed=Seed(3), verdict_fn=always)


class Runaway(Exception):
    """The bisection kept probing long past the float resolution of c."""


def test_bisect_stops_at_float_resolution():
    probes = []

    def step(n, p, seed):
        probes.append(p)
        if len(probes) > 5000:
            raise Runaway
        return "arrows" if p > 0.217 else "not_arrows"

    for tol in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="tol"):
            bisect_threshold_constant(K3, 30, trials=1, tol=tol, seed=Seed(2), verdict_fn=step)
    # a tol below every gap between floats ends where no float lies between the ends
    r = bisect_threshold_constant(K3, 30, trials=1, tol=1e-300, seed=Seed(2),
                                  verdict_fn=step, c_range=(0.01, 4.0))
    assert len(r["probes"]) < 100
    assert abs(r["c_hat"] - 0.217 * 30**0.5) < 1e-12


def test_p_clamp_flagged():
    def step(n, p, seed):
        return "arrows" if p > 0.9 else "not_arrows"

    # n=6: p = c / sqrt(6) reaches 1 at c ~ 2.45; large c clamps
    r = bisect_threshold_constant(K3, 6, trials=2, tol=1e-3, seed=Seed(4),
                                  verdict_fn=step, c_range=(0.1, 6.0))
    assert any(p["p_clamped"] for p in r["probes"])


def test_window_on_step_oracle_is_degenerate():
    # a sharp (step) oracle gives windows no wider than the bisection tol
    def step(n, p, seed):
        return "arrows" if p * n**0.5 > 1.0 else "not_arrows"

    rows = sharpness_window(K3, [25, 49], trials=2, seed=Seed(66), tol=1e-3,
                            c_range=(0.05, 4.0), verdict_fn=step)
    for row in rows:
        assert row["window"] <= 3e-3, row


def test_window_on_logistic_oracle():
    # planted logistic in c with width w: P(arrow) = 1/(1+exp(-(c-c0)/w))
    c0 = 1.3

    def make_logistic(w):
        def fn(n, p, seed):
            c = p * n**0.5
            prob = 1 / (1 + math.exp(-(c - c0) / w))
            return "arrows" if seed.generator().random() < prob else "not_arrows"
        return fn

    n = 40
    w = 1 / math.sqrt(n)
    rows = sharpness_window(K3, [n], trials=400, seed=Seed(6), tol=5e-3,
                            c_range=(0.2, 3.5), verdict_fn=make_logistic(w))
    measured = rows[0]["window"]
    true_gap = w * (math.log(9) - math.log(1 / 9))
    assert abs(measured - true_gap) / true_gap < 0.2, (measured, true_gap)


def test_live_window_emits_finite_widths_and_trend():
    # trimmed live-solver run: qualitative only, no asymptotic claim
    from ramseylab.experiments import window_trend

    rows = sharpness_window(K3, [12, 16], trials=40, seed=Seed(67), tol=0.05,
                            c_range=(0.3, 4.2))
    for row in rows:
        assert 0 <= row["window"] < float("inf")
        assert row["c_0.1"] <= row["c_0.5"] <= row["c_0.9"]
    trend = window_trend(rows)
    assert len(trend["widths"]) == 2 and "nonincreasing" in trend


def test_threshold_curve_structure():
    def step(n, p, seed):
        return "arrows" if p > 0.2 else "not_arrows"

    curve = threshold_curve(K3, 25, [0.5, 0.9, 1.3, 1.7], trials=4, seed=Seed(7),
                            verdict_fn=step)
    assert len(curve["points"]) == 4
    assert curve["crossings"][0.5] is not None


def test_z_property_rates_quick():
    out = z_property_rates(K3, cycle_graph(5), n=16, p=0.25, D=10.0, zeta=0.1,
                           delta=Fraction(1, 12), trials=3, seed=Seed(8),
                           pair_samples=10, embedding_samples=5)
    for key in ("Z1", "Z2", "Z3", "Z4", "Z5"):
        assert 0.0 <= out[key]["rate"] <= 1.0
    assert len(out["stats"]["f_minus_norm"]) == 3
    with pytest.raises(ValueError):
        z_property_rates(K3, cycle_graph(5), 16, 0.25, 10, 0.1, Fraction(2, 3),
                         trials=1, seed=Seed(8))


def test_z_rates_degenerate_p0():
    out = z_property_rates(K3, cycle_graph(5), n=10, p=0.0, D=5.0, zeta=0.1,
                           delta=Fraction(1, 12), trials=2, seed=Seed(9),
                           pair_samples=4, embedding_samples=4)
    # empty graphs satisfy every bound trivially
    for key in ("Z1", "Z2", "Z3", "Z4", "Z5"):
        assert out[key]["rate"] == 1.0


def test_janson_fixtures():
    fam = enumerate_copies(K3, complete_graph(3))
    r = janson_bound(fam, Fraction(1, 2))
    assert r["mu"] == Fraction(1, 8) and r["Delta"] == 0
    assert r["bound"] == pytest.approx(math.exp(-1 / 8))
    # two edge-disjoint copies: bound exp(-2 q^k)
    from ramseylab.graphs import Graph

    host = Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    r = janson_bound(enumerate_copies(K3, host), Fraction(1, 2))
    assert r["Delta"] == 0 and r["bound"] == pytest.approx(math.exp(-2 / 8))
    # overlapping: all triangles of K4
    r = janson_bound(enumerate_copies(K3, complete_graph(4)), Fraction(1, 2))
    assert r["mu"] == Fraction(1, 2) and r["Delta"] == Fraction(3, 8)
    assert r["bound"] == pytest.approx(math.exp(-0.5 + 3 / 16))
    # empty family: vacuous bound 1
    r = janson_bound(enumerate_copies(K3, empty_graph(4)), Fraction(1, 2))
    assert r["empty"] and r["bound"] == 1.0
    assert janson_bound(enumerate_copies(K3, complete_graph(4)), 1)["bound"] <= 1.0
    with pytest.raises(ValueError):
        janson_bound(fam, 0)


def test_janson_delta_matches_pair_scan():
    fam = enumerate_copies(K3, complete_graph(4))
    # 12 ordered overlapping pairs, each union has 5 edges
    count = 0
    for a in fam.copies:
        for b in fam.copies:
            if a is not b and a.edges & b.edges:
                count += 1
    assert count == 12
    r = janson_bound(fam, Fraction(1, 2))
    assert r["Delta"] == count * Fraction(1, 2) ** 5


def test_constant_chain_examples():
    ch = derive_proof_constants(K3, B=3, D=1)
    assert ch.alpha_tilde == Fraction(1, 6318)
    assert ch.delta == Fraction(1, 12)
    assert ch.gamma * 10 * ch.L == ch.delta
    ch = derive_proof_constants(K3, B=path_graph(3), D=1)
    assert ch.beta * 1 * ch.k * 9 == ch.alpha_prime
    assert 0 < ch.alpha_tilde < 1
    assert ch.K == 2
    # the L formula: (e(F)-1) * (2/alpha) * v(F)^2 * D
    assert ch.L == 2 * 2 * 6318 * 9 * 1


def test_constant_chain_regularity_side():
    ch = derive_proof_constants(K3, lam=Fraction(1, 2), C0=Fraction(1, 2), C1=2,
                                xi_cl=Fraction(1, 10), rho=Fraction(1, 8),
                                eps_cl=Fraction(1, 5), c0=Fraction(1, 50), T0=20)
    assert (ch.a, ch.b) == (2, 1)
    assert ch.gamma_kst == Fraction(1, 24)
    assert ch.t0 == 192
    assert ch.C0_prime == Fraction(1, 4)
    assert ch.eps_reg == min(Fraction(1, 8) * Fraction(1, 5) / 4, Fraction(1, 2) / 48)
    assert ch.eta == Fraction(1, 50) * Fraction(1, 20**3)
    assert ch.d > 0
    # tau exponent needs ell
    ch2 = derive_proof_constants(K3, ell=5)
    assert ch2.tau_exponent == -Fraction(1, 12) / 16


def test_constant_chain_partial_inputs():
    ch = derive_proof_constants(K3)
    assert ch.delta == Fraction(1, 12)
    assert ch.L is None and ch.alpha_prime is None and ch.d is None
    with pytest.raises(ValueError):
        derive_proof_constants(path_graph(4))  # not strictly balanced


def test_bipartition_sizes():
    assert bipartition_sizes(classify(K3))[:2] == (2, 1)
    a, b, split = bipartition_sizes(classify(cycle_graph(5)))
    assert (a, b) == (3, 2) and not split
    a, b, split = bipartition_sizes(classify(cycle_graph(4)))
    assert a + b == 4 and split  # even cycles cannot co-locate the endpoints


def test_window_trend_summary():
    from ramseylab.experiments import window_trend

    rows = [
        {"n": 10, "relative_width": 0.5},
        {"n": 20, "relative_width": 0.3},
        {"n": 40, "relative_width": 0.2},
    ]
    t = window_trend(rows)
    assert t["nonincreasing"] and len(t["widths"]) == 3
