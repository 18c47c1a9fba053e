import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

from instances import two_block_host

import ramseylab
from ramseylab.cli import _finite, _float_list, build_parser, main
from ramseylab.graphs import Seed, gnp_sample, serialize_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_pattern_subcommand(capsys):
    code, art = run_json(capsys, "pattern", "C5")
    assert code == 0
    r = art["result"]
    assert r["m2"] == "4/3"
    assert r["strictly_balanced"] and r["nearly_bipartite"]
    assert art["run_config"]["pattern"] == "C5"
    assert art["tool"] == "ramseylab" and "version" in art


def test_arrows_subcommand(capsys):
    code, art = run_json(capsys, "arrows", "--host", "K6", "--pattern", "K3")
    assert code == 0 and art["result"]["verdict"] == "arrows"
    code, art = run_json(capsys, "arrows", "--host", "K5", "--pattern", "K3",
                         "--certificate")
    assert code == 0 and art["result"]["verdict"] == "not_arrows"
    assert len(art["result"]["certificate"]) == 10
    code, art = run_json(capsys, "arrows", "--host", "K6", "--pattern", "K3",
                         "--budget-nodes", "1")
    assert code == 3 and art["budget_exhausted"]


def test_constants_subcommand(capsys):
    code, art = run_json(capsys, "constants", "--pattern", "K3",
                         "--booster-vertices", "3")
    assert code == 0
    assert art["result"]["alpha_tilde"] == "1/6318"
    assert art["result"]["delta"] == "1/12"
    # L = 1 < e(K3) - 1, so k = 0 and beta = alpha' / (D k v(F)^2) has no value
    code, art = run_json(capsys, "constants", "--pattern", "K3", "--booster", "P3",
                         "--D", "1/1000000")
    assert code == 0 and art["result"]["k"] == 0 and art["result"]["beta"] is None
    assert art["result"]["alpha_prime"] is not None
    assert any("k = 0" in note for note in art["result"]["notes"])


def test_constants_with_a_huge_power_finish_quickly():
    # L = 3.9e8 here, so (K L)^L has billions of digits: alpha' and beta
    # must come back as exponent records, not be computed
    src = str(Path(ramseylab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-m", "ramseylab", "constants", "--pattern", "C5",
                           "--booster", "C5", "--D", "2"], env=env, capture_output=True,
                          text=True, timeout=5)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)["result"]
    assert result["L"] == 390_000_000
    for name in ("alpha_prime", "beta"):
        record = result[name]
        assert record["num_digits"] == 1 and record["den_digits"] > 3_000_000_000
        assert record["log10"] < -3e9 and record["approx"] == 0.0


def test_sample_deterministic(capsys):
    code, a = run_json(capsys, "sample", "--n", "12", "--p", "0.5", "--seed", "3")
    code, b = run_json(capsys, "sample", "--n", "12", "--p", "0.5", "--seed", "3")
    assert a["result"]["graph"] == b["result"]["graph"]


def test_invalid_inputs_exit_2(capsys):
    assert main(["pattern", "Q9"]) == 2
    assert main(["sample", "--n", "5", "--p", "1.5"]) == 2
    capsys.readouterr()


def test_unknown_flag_rejected():
    assert main(["pattern", "C5", "--frobnicate"]) == 2


def test_argparse_errors_return_exit_codes(tmp_path):
    # main returns argparse's exit code instead of raising SystemExit
    assert main(["frobnicate"]) == 2
    assert main(["sample", "--p", "0.3"]) == 2  # --n is required
    assert main(["sample", "--n", "eight", "--p", "0.3"]) == 2
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    assert main(["--config", str(cfg), "sample", "--n", "8", "--p", "0.3"]) == 2
    assert main(["--help"]) == 0


def test_threshold_csv(capsys):
    code, out = run_cli(capsys, "--format", "csv", "threshold", "--pattern", "K3",
                        "--n", "8", "--c", "0.2,0.6", "--trials", "3", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,c,p,trials,decided,undecided,estimate,wilson_low,wilson_high"
    assert len(lines) == 3


def test_config_conflicts_are_errors(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 10, "p": 0.4, "seed": 5}))
    # "--n" given both explicitly and in the config: nothing is overridden
    code, _ = run_cli(capsys, "--config", str(cfg), "sample", "--n", "10", "--p", "0.4")
    assert code == 2


def test_config_conflicts_with_flag_equals_value(capsys, tmp_path):
    # the --flag=value spelling is as explicit as --flag value
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 9}))
    code, _ = run_cli(capsys, "--config", str(cfg), "sample", "--n=5", "--p", "0.3")
    assert code == 2


def test_config_conflicts_with_abbreviated_flag(tmp_path):
    # flags match exactly, so an abbreviation cannot slip past the check
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5}))
    assert main(["--config", str(cfg), "sample", "--n", "8", "--p", "0.3", "--see", "1"]) == 2


def test_window_failures_exit_with_documented_codes(capsys):
    # K5 does not arrow K3, so no trial has a hitting constant below p = 1:
    # invalid input, one error line
    code = main(["window", "--pattern", "K3", "--n-list", "5"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("error: no crossing") and len(err.splitlines()) == 1
    # one node cannot decide any probe that holds a triangle
    window = ["window", "--pattern", "K3", "--n-list", "8", "--trials", "3"]
    code = main(window + ["--budget-nodes", "1"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith("error: all trials undecided") and len(err.splitlines()) == 1
    code = main(window[:-1] + ["0"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    # a window has no c-range and no tolerance to set
    for flag in ("--tol=0.05", "--c-min=0.1", "--c-max=4"):
        assert main(window + [flag]) == 2
    capsys.readouterr()


def test_degenerate_parameters_exit_2(capsys, tmp_path):
    def written(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    hypergraphs = [written("list.json", [1, 2]),
                   written("str.json", {"m": 3, "edges": [[0, "a"]]}),
                   written("float.json", {"m": 3, "edges": [[0, 1.5]]})]
    regularity = ["regularity", "--host", "K6", "--p", "1.0", "--d", "0.5"]
    good = written("good.json", [[0, 1, 2], [3, 4, 5]])
    cases = [
        ["tprop", "--pattern", "K3", "--host", "K6", "--lambda", "1", "--eta", "1/100",
         "--search-budget", "0"],
        ["constants", "--pattern", "K3", "--T0", "0", "--c0", "1"],
        ["constants", "--pattern", "K3", "--lambda", "0"],
        ["constants", "--pattern", "K3", "--booster-vertices", "3", "--D", "0"],
        ["constants", "--pattern", "K3", "--booster-vertices", "0", "--D", "1"],
        ["constants", "--pattern", "K3", "--booster-vertices", "-1", "--D", "1"],
        ["constants", "--pattern", "K2", "--booster", "P3", "--D", "1"],
        # a config file must hold a JSON object
        ["--config", written("cfg-list.json", [1, 2]), "pattern", "K3"],
        ["--config", written("cfg-str.json", "x"), "pattern", "K3"],
        *(["cores", "--hypergraph", h] for h in hypergraphs),
        *(["hstats", "--hypergraph", h, "--tau", "1/2"] for h in hypergraphs),
        regularity + ["--partition", written("x.json", [[0, 1, "x"], [3, 4, 5]]),
                      "--eps", "0.3"],
        regularity + ["--partition", written("dict.json", {"a": 1}), "--eps", "0.3"],
        regularity + ["--partition", good, "--eps", "2"],
        ["regularity", "--host", "K6", "--p", "nan", "--d", "0.5", "--partition", good,
         "--eps", "0.3"],
        ["arrows", "--host", "K6", "--pattern", "K3", "--budget-nodes", "-1"],
        ["threshold", "--pattern", "K3", "--n", "8", "--c", "1", "--trials", "2",
         "--budget-nodes", "-1"],
        ["threshold", "--pattern", "K3", "--n", "10", "--c=-1,2", "--trials", "2"],
        # an artifact path that cannot be written
        ["--out", str(tmp_path), "pattern", "K3"],
        ["--out", str(tmp_path / "missing" / "x.json"), "pattern", "K3"],
    ]
    booster = ["booster", "--host", "K6-e", "--booster", "K2", "--pattern", "K3", "--D", "4",
               "--delta", "1/12"]
    cases += [booster + [f"--p={p}"] for p in ("0", "-0.5", "2")]
    cases += [booster[:-2] + ["--p", "0.5", f"--delta={d}"] for d in ("0", "-1")]
    # a negative L is refused whether or not the family is empty
    cases += [booster + ["--p", "0.5"] + alpha + ["--restrict-L=-1"]
              for alpha in (["--alpha", "1/4"], [])]
    # P3 has m2 = 1, so no delta is valid
    cases += [["booster", "--host", "K6-e", "--booster", "K2", "--pattern", "P3", "--D", "4",
               "--delta", "1/12", "--p", "0.5"],
              ["zcheck", "--pattern", "P3", "--booster", "K2", "--n", "8", "--p", "0.3",
               "--D", "10", "--zeta", "0.1", "--delta", "1/12"]]
    # lambda outside (0, 1] or eta <= 0, with and without --subgraph
    tprop = ["tprop", "--pattern", "K3", "--host", "K6"]
    cases += [tprop + sub + extra for sub in ([], ["--subgraph", "K6"])
              for extra in (["--lambda=-1", "--eta", "1/10"], ["--lambda", "2", "--eta", "1/10"],
                            ["--lambda", "1", "--eta=-1"], ["--lambda", "1", "--eta", "0"])]
    for argv in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
    code, out = run_cli(capsys, *booster, "--p=1")
    assert code == 0 and json.loads(out)["result"]["family"] is not None
    # K = 0 would leave log10(K L) without a value
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("3\n")
    code = main(["constants", "--pattern", "K3", "--booster", str(edgeless), "--D", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: the booster graph on 3 vertices has no edges"), err


def test_ignored_or_opaque_flags_exit_2_naming_the_flag(capsys, tmp_path):
    booster = ["booster", "--host", "K6-e", "--booster", "K2", "--pattern", "K3", "--D", "4",
               "--delta", "1/12", "--p", "0.5"]
    zcheck = ["zcheck", "--pattern", "K3", "--booster", "C5", "--n", "8", "--p", "0.3",
              "--D", "10", "--zeta", "0.1", "--delta", "1/12"]
    cases = [(booster + ["--pool-size", "0"], "pool_size"),
             (booster + ["--pool-size", "-3"], "pool_size"),
             (booster + ["--alpha", "-1"], "alpha"),
             (booster + ["--alpha=-1/2"], "alpha"),
             (zcheck + ["--trials", "0"], "trials"),
             # D <= 0 makes every connected pair heavy
             (booster + ["--D=0"], "D must be positive"),
             (booster + ["--D=-1"], "D must be positive"),
             (zcheck + ["--D=0"], "D must be positive"),
             # an empty grid would write an artifact with no points or rows
             (["threshold", "--pattern", "K3", "--n", "8", "--c", ",", "--trials", "2"],
              "c_values"),
             (["window", "--pattern", "K3", "--n-list", ",", "--trials", "2"], "n_list")]
    # an exact rational too large for the float its record holds
    square = tmp_path / "square.json"
    square.write_text(json.dumps({"m": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]}))
    cases += [(["tprop", "--pattern", "K3", "--host", "K6", "--subgraph", "K6", "--lambda", "1",
                "--eta", "1e400"], "eta"),
              (["hstats", "--hypergraph", str(square), "--tau", "1e-400"], "tau"),
              (["cores", "--hypergraph", str(square), "--beta", "1e400"], "beta")]
    for argv, name in cases:
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and len(err.splitlines()) == 1, (argv, err)
        assert name in err, (argv, err)
    # a zero selection rate is legal: the family starves at selection
    code, out = run_cli(capsys, *booster, "--alpha", "0")
    report = json.loads(out)["result"]["report"]
    assert code == 0 and report["starved_stage"] == "selection" and report["psi3"] > 0
    code, out = run_cli(capsys, *booster, "--pool-size", "1")
    assert code == 0 and json.loads(out)["result"]["report"]["pool_mode"] == "sampled(1)"


def test_bad_host_size_exits_2(capsys):
    for n in ("0", "-4"):
        assert main(["threshold", "--pattern", "K3", f"--n={n}", "--c", "1.0",
                     "--trials", "2"]) == 2
        assert main(["window", "--pattern", "K3", f"--n-list={n}", "--trials", "2"]) == 2
        assert main(["zcheck", "--pattern", "K3", "--booster", "C5", f"--n={n}",
                     "--p", "0.25", "--D", "10", "--zeta", "0.1", "--delta", "1/12",
                     "--trials", "2"]) == 2
    # a host smaller than the booster holds no embedding of it
    assert main(["zcheck", "--pattern", "K3", "--booster", "C5", "--n", "4", "--p", "0.5",
                 "--D", "10", "--zeta", "0.1", "--delta", "1/12", "--trials", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and all(line.startswith("error: ") for line in err.splitlines())
    booster = ["booster", "--host", "K6-e", "--booster", "P7", "--pattern", "K3", "--D", "4",
               "--delta", "1/12", "--p", "0.5"]
    for pool in ([], ["--pool-size", "5"]):  # the full and the sampled pool
        assert main(booster + pool) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: booster on 7 vertices")
        assert len(err.splitlines()) == 1


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_non_finite_constants_exit_2(capsys, tmp_path):
    threshold = ["threshold", "--pattern", "K3", "--n", "8", "--trials", "2"]
    for grid in ("nan,1.0", "1.0,inf", "-inf"):
        code, out = run_cli(capsys, *threshold, f"--c={grid}")
        assert code == 2 and out == ""
    code, out = run_cli(capsys, *threshold, "--c", "0.5,1.0")
    assert code == 0 and _strict_json(out)["result"]["points"]
    zcheck = ["zcheck", "--pattern", "K3", "--booster", "C5", "--n", "8", "--delta", "1/12",
              "--trials", "1"]
    finite = {"--p": "0.3", "--D": "10", "--zeta": "0.1"}
    for flag in finite:
        for bad in ("nan", "inf", "-inf"):
            args = [f"{k}={bad if k == flag else v}" for k, v in finite.items()]
            code, out = run_cli(capsys, *zcheck, *args)
            assert code == 2 and out == "", (flag, bad)
    code, out = run_cli(capsys, *zcheck, *(f"{k}={v}" for k, v in finite.items()))
    assert code == 0 and _strict_json(out)["result"]["Z1"]
    booster = ["booster", "--host", "K6-e", "--booster", "K2", "--pattern", "K3",
               "--delta", "1/12"]
    for flag in ("--D", "--p"):
        for bad in ("nan", "inf", "-inf"):
            other = "--p=0.5" if flag == "--D" else "--D=4"
            code, out = run_cli(capsys, *booster, f"{flag}={bad}", other)
            assert code == 2 and out == "", (flag, bad)
    code, out = run_cli(capsys, *booster, "--D=4", "--p=0.5")
    assert code == 0 and "family" in _strict_json(out)["result"]
    part = tmp_path / "part.json"
    part.write_text("[[0, 1, 2], [3, 4, 5]]")
    hyper = tmp_path / "h.json"
    hyper.write_text(json.dumps({"m": 3, "edges": [[0, 1], [1, 2]]}))
    regularity = ["regularity", "--host", "K6", "--partition", str(part), "--eps", "0.3"]
    cores = ["cores", "--hypergraph", str(hyper)]
    for argv in (regularity + ["--p", "1.0", "--d", "nan"],
                 regularity + ["--p", "inf", "--d", "0.5"],
                 cores + ["--gamma", "nan"], cores + ["--gamma", "inf"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == "", argv
        assert err.startswith("error: argument --") and len(err.splitlines()) == 1, err
    code, out = run_cli(capsys, *regularity, "--p", "1.0", "--d", "0.5")
    assert code == 0 and _strict_json(out)["result"]["edges"] == [[0, 1]]
    code, out = run_cli(capsys, *cores, "--gamma", "0.5")
    assert code == 0 and _strict_json(out)["result"]["verification"]["c1_holds_here"]


def test_every_float_flag_refuses_non_finite_values():
    ap = build_parser()
    subs = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    types = {a.type for p in subs.choices.values() for a in p._actions}
    # --c takes a list of floats, each read by _finite
    assert float not in types and _finite in types and _float_list in types


def test_config_supplements_without_conflict(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 9}))
    code, art = run_json(capsys, "--config", str(cfg), "sample", "--n", "8",
                         "--p", "0.3")
    assert code == 0
    assert art["run_config"]["seed"] == 9


def test_config_satisfies_required_options(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 8, "p": 0.3}))
    code, art = run_json(capsys, "--config", str(cfg), "sample")
    assert code == 0
    assert art["result"]["n"] == 8 and art["run_config"]["p"] == 0.3


def test_config_values_are_parsed_like_flags(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"delta": "1/12", "D": 4, "p": 0.5}))
    booster = ["booster", "--host", "K6-e", "--booster", "K2", "--pattern", "K3"]
    code, from_config = run_json(capsys, "--config", str(cfg), *booster)
    assert code == 0
    code, from_flags = run_json(capsys, *booster, "--delta", "1/12", "--D", "4", "--p", "0.5")
    assert code == 0
    assert from_config["result"] == from_flags["result"]
    assert from_config["run_config"] == from_flags["run_config"]


def test_undecided_trials_exit_3_with_artifact(capsys):
    code, art = run_json(capsys, "threshold", "--pattern", "K3", "--n", "20",
                         "--c", "2.0,2.5", "--trials", "10", "--budget-nodes", "40")
    assert code == 3 and art["budget_exhausted"]
    assert sum(pt["undecided"] for pt in art["result"]["points"]) > 0
    code, art = run_json(capsys, "window", "--pattern", "K3", "--n-list", "16",
                         "--trials", "6", "--budget-nodes", "40")
    assert code == 3 and art["budget_exhausted"]
    assert art["result"]["rows"][0]["undecided"] > 0
    # a union left undecided marks the booster artifact; a budget of 0 is a
    # budget, not "no budget"
    booster = ["booster", "--host", "K6-e", "--booster", "K2", "--pattern", "K3", "--D", "4",
               "--delta", "1/12", "--p", "0.5"]
    for budget in ("1", "0"):
        code, art = run_json(capsys, *booster, "--budget-nodes", budget)
        assert code == 3 and art["budget_exhausted"], budget
        assert art["result"]["report"]["removed"]["undecided"] > 0, budget
        assert art["result"]["report"]["params"]["budget"] == budget
    code, art = run_json(capsys, *booster)
    assert code == 0 and not art["budget_exhausted"]
    assert "undecided" not in art["result"]["report"]["removed"]


def test_hstats_and_cores_roundtrip(tmp_path, capsys):
    hpath = tmp_path / "h.json"
    hpath.write_text(json.dumps({"m": 2, "edges": [[0, 1]]}))
    code, art = run_json(capsys, "hstats", "--hypergraph", str(hpath), "--tau", "1/2")
    assert code == 0
    assert art["result"]["delta"] == "2/1"
    code, art = run_json(capsys, "cores", "--hypergraph", str(hpath))
    assert code == 0
    assert sorted(art["result"]["cores"]) == [[0], [1]]
    assert art["result"]["verification"]["c3_ok"]


def test_basegraph_and_janson(tmp_path, capsys):
    gpath = tmp_path / "g.txt"
    gpath.write_text("3\n0 1\n1 2\n")
    code, art = run_json(capsys, "basegraph", "--pattern", "K3", "--host", str(gpath))
    assert code == 0
    assert art["result"]["edges"] == 1
    code, art = run_json(capsys, "janson", "--pattern", "K3", "--host", "K4",
                         "--q", "1/2")
    assert code == 0
    assert art["result"]["mu"] == "1/2" and art["result"]["Delta"] == "3/8"


def test_tprop_and_regularity(tmp_path, capsys):
    code, art = run_json(capsys, "tprop", "--pattern", "K3", "--host", "K6",
                         "--subgraph", "K6", "--lambda", "1", "--eta", "1/100000")
    assert code == 0
    assert art["result"]["basegraph_copies"] == 20
    part = tmp_path / "part.json"
    part.write_text(json.dumps([[0, 1, 2], [3, 4, 5]]))
    code, art = run_json(capsys, "regularity", "--host", "K6", "--p", "1.0",
                         "--partition", str(part), "--d", "0.5", "--eps", "0.3")
    assert code == 0
    assert art["result"]["edges"] == [[0, 1]]


def test_booster_subcommand(capsys):
    code, art = run_json(capsys, "booster", "--host", "K6-e", "--booster", "K2",
                         "--pattern", "K3", "--D", "4", "--delta", "1/12",
                         "--p", "0.5", "--alpha", "1/4", "--seed", "12",
                         "--restrict-L", "10")
    assert code == 0
    r = art["result"]
    assert r["family"] == [[0, 1]]
    assert r["restricted"]["family"] == [[0, 1]]
    assert len(r["hyperedges"]) == 1 and len(r["hyperedges"][0]) == 8


def test_zcheck_subcommand(capsys):
    code, art = run_json(capsys, "zcheck", "--pattern", "K3", "--booster", "C5",
                         "--n", "12", "--p", "0.25", "--D", "10", "--zeta", "0.1",
                         "--delta", "1/12", "--trials", "2", "--seed", "4")
    assert code == 0
    assert "Z1" in art["result"]


def test_window_subcommand(capsys):
    # synthetic-speed run: tiny n and trials, solver-backed
    code, art = run_json(capsys, "window", "--pattern", "K3", "--n-list", "8",
                         "--trials", "8", "--seed", "2")
    assert code == 0
    row = art["result"]["rows"][0]
    assert row["c_0.1"] <= row["c_0.5"] <= row["c_0.9"]
    assert (row["decided"], row["undecided"]) == (8, 0) and row["solves"] >= 8
    assert set(art["run_config"]) == {"command", "pattern", "n_list", "trials", "seed"}


def test_arrows_cnf_export(tmp_path, capsys):
    cnf = tmp_path / "enc.cnf"
    code, art = run_json(capsys, "arrows", "--host", "K3", "--pattern", "K3",
                         "--cnf-out", str(cnf))
    assert code == 0
    lines = cnf.read_text().strip().splitlines()
    assert lines[0] == "p cnf 3 2"
    assert lines[1] == "1 2 3 0" and lines[2] == "-1 -2 -3 0"


def test_artifact_reproducible_modulo_timestamp(capsys):
    code, a = run_json(capsys, "threshold", "--pattern", "K3", "--n", "8",
                       "--c", "0.5,1.5", "--trials", "5", "--seed", "11")
    code, b = run_json(capsys, "threshold", "--pattern", "K3", "--n", "8",
                       "--c", "0.5,1.5", "--trials", "5", "--seed", "11")
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_booster_subcommand_emits_hypergraph_stats(capsys):
    code, art = run_json(capsys, "booster", "--host", "K6-e", "--booster", "K2",
                         "--pattern", "K3", "--D", "4", "--delta", "1/12",
                         "--p", "0.5", "--alpha", "1/4", "--seed", "12",
                         "--restrict-L", "10")
    assert code == 0
    st = art["result"]["hypergraph_stats"]
    assert st["ell"] == 8 and st["e"] == 1 and st["m"] == 14
    assert st["degree_bounds"]["Delta1_within"] and st["degree_bounds"]["Delta2_within"]


def test_python_m_entry_point(capsys):
    # `python -m ramseylab` runs cli.main in a fresh interpreter, prints its
    # artifact and exits with its code: 3 for an exhausted budget, 2 for
    # invalid input
    src = str(Path(ramseylab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ramseylab", *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    done = run("arrows", "--host", "K5", "--pattern", "K3")
    assert done.returncode == 0
    assert json.loads(done.stdout)["result"]["verdict"] == "not_arrows"
    assert run("arrows", "--host", "K6", "--pattern", "K3",
               "--budget-nodes", "1").returncode == 3
    assert run("arrows", "--host", "K6", "--pattern", "nonsense").returncode == 2
    done = run("pattern", "K3")
    assert done.returncode == 0
    code, expected = run_json(capsys, "pattern", "K3")
    art = json.loads(done.stdout)
    assert code == 0 and art["result"]["m2"] == "2/1" and art["result"]["strictly_balanced"]
    del art["timestamp"], expected["timestamp"]
    assert art == expected


GOLDEN_CLI = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def _golden_cli_runs(tmp_path):
    """label -> argv of each run whose `result` tests/golden_cli.json pins."""
    def written(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    host8 = written("gnp8.txt", serialize_graph(gnp_sample(8, 0.5, Seed(7))))
    blocks = written("blocks.txt", serialize_graph(two_block_host(Seed(502))[0]))
    part = written("part.json", "[[0, 1, 2], [3, 4, 5], [6, 7]]")
    hypergraphs = {
        2: {"m": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3]]},
        3: {"m": 6, "edges": [[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5], [0, 4, 5], [1, 3, 5]]},
    }
    # K4-e ties its triangle for m2: the witness must stay the triangle
    runs = {f"pattern-{F}": ["pattern", F] for F in ("C5", "K4", "K4-e", "C7", "K5")}
    for ell, data in hypergraphs.items():
        h = written(f"h{ell}.json", json.dumps(data))
        runs[f"hstats-{ell}-uniform"] = ["hstats", "--hypergraph", h, "--tau", "1/3"]
        runs[f"cores-{ell}-uniform"] = ["cores", "--hypergraph", h, "--beta", "1/4",
                                        "--gamma", "0.5"]
    runs["janson"] = ["janson", "--pattern", "K3", "--host", "K5", "--q", "1/2"]
    regularity = ["regularity", "--host", host8, "--p", "0.5", "--partition", part,
                  "--d", "0.8", "--eps", "0.55"]
    runs["regularity-exact"] = regularity
    runs["regularity-sampled"] = regularity + ["--mode", "sampled", "--seed", "3"]
    runs["booster"] = ["booster", "--host", blocks, "--booster", "K2", "--pattern", "K3",
                       "--D", "4", "--delta", "1/12", "--p", "0.5", "--alpha", "1/4",
                       "--seed", "12", "--pool-size", "30", "--restrict-L", "10"]
    k3 = ["constants", "--pattern", "K3"]
    runs["constants-K3-3-vertices"] = k3 + ["--booster-vertices", "3", "--D", "1", "--ell", "3"]
    runs["constants-K3-P3"] = k3 + ["--booster", "P3", "--D", "1"]
    runs["constants-K3-P3-small-D"] = k3 + ["--booster", "P3", "--D", "1/1000000"]
    runs["constants-C4-C5-all"] = [
        "constants", "--pattern", "C4", "--booster", "C5", "--D", "1", "--C0", "1/2",
        "--C1", "2", "--lambda", "1/3", "--rho", "1/5", "--c0", "1/7", "--xi-cl", "1/11",
        "--eps-cl", "1/13", "--T0", "3", "--ell", "4"]
    return runs


def test_cli_results_match_golden(tmp_path, capsys):
    runs = _golden_cli_runs(tmp_path)
    assert set(runs) == set(GOLDEN_CLI)
    for label, argv in runs.items():
        code, out = run_cli(capsys, *argv)
        assert code == 0 and _strict_json(out)["result"] == GOLDEN_CLI[label], label
