"""Command-line entry point: every capability as a subcommand.

Artifacts are self-describing: each embeds the resolved run config and
tool version (timestamps sit in a separate field so re-runs reproduce
the payload byte-for-byte).  Exit codes: 0 success, 2 invalid input,
3 budget exhaustion (partial artifacts still written and marked; an
estimate whose every trial was undecided prints an error line instead).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from fractions import Fraction
from math import isfinite

from . import __version__
from .arrowing import cnf_export, decide_arrow
from .booster import (
    Hypergraph,
    brute_force_cores,
    build_hypergraph,
    construct_normal_family,
    degree_bound_report,
    hypergraph_stats,
    make_booster_spec,
    restrict_index_consistent,
    verify_core_properties,
)
from .counting import adversarial_T_search, base_graph, check_T, enumerate_copies
from .density import classify
from .experiments import (
    AllUndecided,
    derive_proof_constants,
    janson_bound,
    sharpness_window,
    threshold_curve,
    window_trend,
    z_property_rates,
)
from .graphs import Seed, gnp_sample, parse_graph, pattern_by_name, serialize_graph
from .regularity import reduced_graph

EXIT_OK, EXIT_BAD_INPUT, EXIT_BUDGET = 0, 2, 3


class CliError(Exception):
    pass


def _load_graph(spec_text):
    """Named pattern, file path, or '-' for standard input."""
    if spec_text == "-":
        return parse_graph(sys.stdin.read())
    try:
        return pattern_by_name(spec_text)
    except ValueError:
        pass
    try:
        with open(spec_text) as fh:
            return parse_graph(fh.read())
    except OSError as exc:
        raise CliError(f"cannot read graph {spec_text!r}: {exc}") from exc


def _fraction(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _rat(x):
    """`json.dumps`' default: a Fraction as "p/q".  Any other type is a
    fault of the program, not of the input, and is refused by name."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _non_finite(x, path="$"):
    """"<JSON path> is <value>" of the first NaN or infinity in the record
    `x`, in the order the artifact writes it (keys sorted), or None."""
    if isinstance(x, float):
        return None if isfinite(x) else f"{path} is {x}"
    if isinstance(x, dict):
        items = ((f"{path}.{k}" if str(k).isidentifier() else f"{path}[{json.dumps(str(k))}]", v)
                 for k, v in sorted(x.items()))
    elif isinstance(x, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(x))
    else:
        return None
    return next(filter(None, (_non_finite(v, at) for at, v in items)), None)


def _finite(text):
    """A float flag's value: strict JSON has no token for NaN or the
    infinities, so they are refused."""
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not isfinite(x):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return x


def _int_list(text):
    return [int(t) for t in text.split(",") if t]


def _float_list(text):
    return [_finite(t) for t in text.split(",") if t]


class _Parser(argparse.ArgumentParser):
    """Flags match exactly, never by abbreviation, so the --config conflict
    check sees every explicit flag under its own name; a usage error is one
    `error:` line, as every other input error is."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


def _shared(*args, **kwargs):
    """A parent parser holding one flag that several subcommands take."""
    p = _Parser(add_help=False)
    p.add_argument(*args, **kwargs)
    return p


def build_parser():
    ap = _Parser(prog="ramseylab")
    ap.add_argument("--config", help="JSON config file; CLI flags must not conflict")
    ap.add_argument("--out", help="artifact path (default: stdout)")
    ap.add_argument("--format", choices=["json", "csv"], default=None)
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)
    pattern, host = _shared("--pattern", required=True), _shared("--host", required=True)
    seed, prob = _shared("--seed", type=int, default=0), _shared("--p", type=_finite, required=True)
    budget = _shared("--budget-nodes", type=int, default=None)

    p = sub.add_parser("pattern", help="classify a pattern graph")
    p.add_argument("pattern")

    p = sub.add_parser("sample", parents=[prob, seed], help="sample G(n,p)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--graph-format", choices=["edgelist", "graph6"], default="edgelist")

    p = sub.add_parser("arrows", parents=[host, pattern, budget],
                       help="decide the arrowing property")
    p.add_argument("--certificate", action="store_true")
    p.add_argument("--cnf-out", help="also write the DIMACS-CNF encoding here")

    p = sub.add_parser("threshold", parents=[pattern, seed, budget],
                       help="Monte Carlo estimates over a c grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c", type=_float_list, required=True, help="comma-separated c grid")
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("window", parents=[pattern, seed, budget],
                       help="sharpness window over several n")
    p.add_argument("--n-list", type=_int_list, required=True)
    p.add_argument("--trials", type=int, default=100)

    p = sub.add_parser("zcheck", parents=[pattern, prob, seed],
                       help="empirical good-graph property rates")
    p.add_argument("--booster", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=_finite, required=True)
    p.add_argument("--zeta", type=_finite, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--trials", type=int, default=20)

    p = sub.add_parser("booster", parents=[host, pattern, prob, seed, budget],
                       help="normal-family pipeline")
    p.add_argument("--booster", required=True)
    p.add_argument("--D", type=_finite, required=True)
    p.add_argument("--delta", type=_fraction, required=True)
    p.add_argument("--alpha", type=_fraction, default=None)
    p.add_argument("--pool-size", type=int, default=None)
    p.add_argument("--restrict-L", type=int, default=None, help="also run the profile restriction")

    p = sub.add_parser("hstats", help="container statistics of a hypergraph")
    p.add_argument("--hypergraph", required=True, help="JSON file {m, edges}")
    p.add_argument("--tau", type=_fraction, required=True)

    p = sub.add_parser("cores", help="brute-force containers and cores")
    p.add_argument("--hypergraph", required=True)
    p.add_argument("--beta", type=_fraction, default=None)
    p.add_argument("--gamma", type=_finite, default=None)

    p = sub.add_parser("basegraph", parents=[pattern, host],
                       help="completing pairs of the bipartite part")
    p.add_argument("--graph-format", choices=["edgelist", "graph6"], default="edgelist")

    p = sub.add_parser("tprop", parents=[pattern, host, seed],
                       help="basegraph-copies property check / search")
    p.add_argument("--subgraph", help="subgraph file; omit to run the adversarial search")
    p.add_argument("--lambda", dest="lam", type=_fraction, required=True)
    p.add_argument("--eta", type=_fraction, required=True)
    p.add_argument("--search-budget", type=int, default=500)

    p = sub.add_parser("regularity", parents=[host, prob, seed],
                       help="reduced graph of a supplied partition")
    p.add_argument("--partition", required=True, help="JSON file: list of vertex lists")
    p.add_argument("--d", type=_finite, required=True)
    p.add_argument("--eps", type=_finite, required=True)
    p.add_argument("--mode", choices=["exact", "sampled"], default="exact")

    p = sub.add_parser("janson", parents=[pattern, host], help="Janson bound for a copy family")
    p.add_argument("--q", type=_fraction, required=True)

    p = sub.add_parser("constants", parents=[pattern], help="explicit constant chain")
    p.add_argument("--booster", default=None)
    p.add_argument("--booster-vertices", type=int, default=None)
    p.add_argument("--D", type=_fraction, default=None)
    p.add_argument("--C0", type=_fraction, default=None)
    p.add_argument("--C1", type=_fraction, default=None)
    p.add_argument("--lambda", dest="lam", type=_fraction, default=None)
    p.add_argument("--rho", type=_fraction, default=None)
    p.add_argument("--c0", type=_fraction, default=None)
    p.add_argument("--xi-cl", type=_fraction, default=None)
    p.add_argument("--eps-cl", type=_fraction, default=None)
    p.add_argument("--T0", type=int, default=None)
    p.add_argument("--ell", type=int, default=None)

    return ap


def _merge_config(ap, argv):
    """Parse argv with the --config values added as flags, so they pass
    the same type parsing and can satisfy required options; explicit
    flags that collide with config keys are errors (nothing is overridden
    silently)."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return ap.parse_args(argv)
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise CliError(f"config {path!r} is not a JSON object")
    explicit = {a.lstrip("-").split("=")[0].replace("-", "_") for a in argv if a.startswith("--")}
    top, sub = [], []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if attr in explicit:
            raise CliError(f"config key {key!r} conflicts with an explicit flag")
        if value is None or value is False:
            continue
        flag = "--" + attr.replace("_", "-")
        if value is not True:
            flag += "=" + (",".join(map(str, value)) if isinstance(value, list) else str(value))
        # options of the main parser must precede the subcommand
        (top if attr in ("out", "format") else sub).append(flag)
    return ap.parse_args(top + argv + sub)


def _load_hypergraph(path):
    """A JSON object {"m": vertex count, "edges": list of vertex lists}."""
    with open(path) as fh:
        data = json.load(fh)
    edges = data.get("edges") if isinstance(data, dict) else None
    if not (isinstance(edges, list) and all(isinstance(e, list) for e in edges)):
        raise CliError(f"hypergraph {path!r} is not an object {{m, edges}} with vertex lists")
    return Hypergraph(data.get("m"), edges)


def _budget_code(records):
    """Exit code of an estimate: any undecided trial exhausted the budget."""
    return EXIT_BUDGET if any(r["undecided"] for r in records) else EXIT_OK


def _run(ns):
    cmd = ns.command
    if cmd == "pattern":
        prof = classify(_load_graph(ns.pattern))
        return prof.to_record(), EXIT_OK

    if cmd == "sample":
        g = gnp_sample(ns.n, ns.p, Seed(ns.seed))
        return {"n": g.n, "edges": g.num_edges(),
                "graph": serialize_graph(g, ns.graph_format)}, EXIT_OK

    if cmd == "arrows":
        host, patt = _load_graph(ns.host), _load_graph(ns.pattern)
        res = decide_arrow(host, patt, budget=ns.budget_nodes)
        payload = {"verdict": res.verdict, "stats": res.stats}
        if ns.certificate and res.certificate is not None:
            payload["certificate"] = res.certificate
        if ns.cnf_out:
            with open(ns.cnf_out, "w") as fh:
                fh.write(cnf_export(host, patt))
            payload["cnf_out"] = ns.cnf_out
        return payload, EXIT_BUDGET if res.verdict == "undecided" else EXIT_OK

    if cmd == "threshold":
        curve = threshold_curve(_load_graph(ns.pattern), ns.n, ns.c, ns.trials,
                                Seed(ns.seed), budget=ns.budget_nodes)
        return curve, _budget_code(curve["points"])

    if cmd == "window":
        rows = sharpness_window(_load_graph(ns.pattern), ns.n_list, ns.trials,
                                Seed(ns.seed), budget=ns.budget_nodes)
        return {"rows": rows, "trend": window_trend(rows)}, _budget_code(rows)

    if cmd == "zcheck":
        out = z_property_rates(_load_graph(ns.pattern), _load_graph(ns.booster),
                               ns.n, ns.p, ns.D, ns.zeta, ns.delta, ns.trials,
                               Seed(ns.seed))
        return out, EXIT_OK

    if cmd == "booster":
        if ns.restrict_L is not None and ns.restrict_L < 0:  # refused before any work
            raise CliError(f"restrict_L must be >= 0, got {ns.restrict_L}")
        F = _load_graph(ns.pattern)
        Z = _load_graph(ns.host)
        spec = make_booster_spec(_load_graph(ns.booster), F)
        params = {"D": ns.D, "delta": ns.delta, "p": ns.p}
        optional = {"alpha": ns.alpha, "pool_size": ns.pool_size, "budget": ns.budget_nodes}
        params.update((k, v) for k, v in optional.items() if v is not None)
        seed = Seed(ns.seed)  # construction and restriction draw from distinct streams
        xi0, report = construct_normal_family(Z, spec, F, params, seed.substream(0))
        payload = {"family": [list(h) for h in xi0], "report": report,
                   "sigma": list(spec.sigma)}
        if ns.restrict_L is not None and xi0:
            xi, prof, rrep = restrict_index_consistent(Z, xi0, spec, F, ns.restrict_L,
                                                       seed.substream(1))
            payload["restricted"] = {
                "family": [list(h) for h in xi],
                "profile": list(prof.pi) if prof else None,
                "report": rrep,
            }
            bh = build_hypergraph(Z, xi, spec, F, prof)
            payload["hyperedges"] = [list(fs.members) for fs in bh.focus_sets]
            if xi and prof and prof.length >= 2:
                # tau = n^(-delta/(4(l-1))), the theory-side choice
                tau = Z.n ** float(-ns.delta / (4 * (prof.length - 1)))
                st = hypergraph_stats(bh, tau)
                bounds = degree_bound_report(st, ns.D, ns.p, ns.delta, F.n, Z.n)
                payload["hypergraph_stats"] = {
                    "tau": tau, "m": st["m"], "e": st["e"], "ell": st["ell"],
                    "d": st["d"], "delta": st["delta"],
                    "Delta1": st["Delta1"], "Delta2": st["Delta2"],
                    "degree_bounds": bounds,
                }
        return payload, EXIT_BUDGET if report["removed"].get("undecided") else EXIT_OK

    if cmd == "hstats":
        st = hypergraph_stats(_load_hypergraph(ns.hypergraph), ns.tau)
        # str keys sort as strings ("10" before "2"), as the artifact always
        # has; int keys would sort by value
        st["delta_j"] = {str(j): v for j, v in st["delta_j"].items()}
        return st, EXIT_OK

    if cmd == "cores":
        H = _load_hypergraph(ns.hypergraph)
        fam = brute_force_cores(H)
        rep = verify_core_properties(fam, H, beta=ns.beta, gamma=ns.gamma)
        return {"cores": [sorted(c) for c in fam.cores],
                "containers": [sorted(c) for c in fam.containers],
                "verification": rep}, EXIT_OK

    if cmd == "basegraph":
        prof = classify(_load_graph(ns.pattern))
        bg = base_graph(prof, _load_graph(ns.host))
        return {"n": bg.n, "edges": bg.num_edges(),
                "graph": serialize_graph(bg, ns.graph_format)}, EXIT_OK

    if cmd == "tprop":
        prof = classify(_load_graph(ns.pattern))
        G = _load_graph(ns.host)
        if ns.subgraph:
            rec = check_T(prof, G, _load_graph(ns.subgraph), ns.lam, ns.eta)
            return rec, EXIT_OK
        rec = adversarial_T_search(prof, G, ns.lam, ns.eta,
                                   budget=ns.search_budget, seed=Seed(ns.seed))
        g = rec.pop("worst_subgraph")
        rec["worst_subgraph"] = serialize_graph(g)
        return rec, EXIT_OK

    if cmd == "regularity":
        with open(ns.partition) as fh:
            classes = json.load(fh)
        rg = reduced_graph(_load_graph(ns.host), ns.p, classes, ns.d, ns.eps,
                           mode=ns.mode, seed=Seed(ns.seed))
        return {"classes": rg.partition, "edges": rg.edges,
                "pairs": {f"{i},{j}": {"regular": rep["regular"],
                                        "density": rep["density"]}
                          for (i, j), rep in rg.pair_reports.items()}}, EXIT_OK

    if cmd == "janson":
        fam = enumerate_copies(_load_graph(ns.pattern), _load_graph(ns.host))
        return janson_bound(fam, ns.q), EXIT_OK

    # the one subcommand left, "constants": argparse admits no unknown one
    B = _load_graph(ns.booster) if ns.booster else ns.booster_vertices
    chain = derive_proof_constants(
        _load_graph(ns.pattern), B=B, D=ns.D, C0=ns.C0, C1=ns.C1, lam=ns.lam,
        rho=ns.rho, c0=ns.c0, xi_cl=ns.xi_cl, eps_cl=ns.eps_cl, T0=ns.T0,
        ell=ns.ell)
    return chain.to_record(), EXIT_OK


def _threshold_csv(curve):
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "c", "p", "trials", "decided", "undecided",
                "estimate", "wilson_low", "wilson_high"])
    for pt in curve["points"]:
        w.writerow([curve["n"], pt["c"], pt["p"], pt["trials"], pt["decided"],
                    pt["undecided"], pt["estimate"], pt["wilson_low"], pt["wilson_high"]])
    return buf.getvalue()


def main(argv=None):
    ap = build_parser()
    try:
        ns = _merge_config(ap, list(sys.argv[1:] if argv is None else argv))
        if ns.format == "csv" and ns.command != "threshold":
            raise CliError("csv output is defined for the threshold command")
        payload, code = _run(ns)
        if ns.format == "csv":
            text = _threshold_csv(payload)
        else:
            run_config = {k: v for k, v in vars(ns).items()
                          if k not in ("out", "config") and v is not None}
            artifact = {
                "tool": "ramseylab",
                "version": __version__,
                "timestamp": time.time(),  # only field that varies between re-runs
                "run_config": run_config,
                "budget_exhausted": code == EXIT_BUDGET,
                "result": payload,
            }
            # strict JSON: a non-finite float in the record is refused by its path
            if (where := _non_finite(artifact)) is not None:
                raise CliError(f"{where}, which strict JSON cannot hold")
            text = json.dumps(artifact, indent=2, sort_keys=True, default=_rat,
                              allow_nan=False) + "\n"
        if ns.out:
            with open(ns.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except SystemExit as exc:  # argparse printed its usage error (2) or --help (0)
        return exc.code
    except (CliError, AllUndecided, ValueError, OverflowError, OSError) as exc:
        # OverflowError: an exact rational too large for the float a record holds
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET if isinstance(exc, AllUndecided) else EXIT_BAD_INPUT
    return code
