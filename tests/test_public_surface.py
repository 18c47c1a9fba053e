"""Guards for the public surface that code outside the package relies on."""

import importlib.util
import inspect
import os
import re
import subprocess
import sys
from fractions import Fraction
from math import inf, nan
from pathlib import Path

import pytest

import ramseylab
from ramseylab.booster import (
    CoreFamily,
    Hypergraph,
    embedding_pool,
    make_booster_spec,
    profile_of,
    verify_core_properties,
)
from ramseylab.counting import check_T, extension_count, rho_d_dense_check
from ramseylab.density import classify
from ramseylab.experiments import estimate_arrow_probability, threshold_curve, z_property_rates
from ramseylab.graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    empty_graph,
    parse_graph,
    path_graph,
    pattern_by_name,
    serialize_graph,
)
from ramseylab.regularity import is_eps_p_regular, pair_density

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_traced_names_exist():
    # bench/tracer.py wraps these functions by name; a missing one breaks --trace 1
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "bench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for layer, names in tracer.LAYERS.items():
        module = importlib.import_module(f"ramseylab.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ramseylab.{layer}.{name}"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    src = str(Path(ramseylab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr


_K3, _P3, _K6 = complete_graph(3), path_graph(3), complete_graph(6)
# K3 on one edge of Z and both edges of the booster P3: that Z edge focuses on two
_TWO_FOCI = (Graph(3, [(0, 1)]), (0, 2, 1), make_booster_spec(_P3, _K3), _K3)


@pytest.mark.parametrize("call, message", [
    (lambda: embedding_pool(_P3, 4, size=0), "sampled pool needs a positive size"),
    (lambda: profile_of(*_TWO_FOCI), "profile undefined: an edge focuses on several booster edges"),
    (lambda: Hypergraph(-1, []), "vertex count must be an integer >= 0, got -1"),
    (lambda: verify_core_properties(CoreFamily([], []), Hypergraph(21, [])),
     "21 vertices exceed the exhaustive cap of 20"),
    (lambda: extension_count([0], _P3, [0, 1], _K6), "root lists must have equal length"),
    (lambda: check_T(classify(cycle_graph(5)), empty_graph(4), complete_graph(4), 1, 0.01),
     "G' is not a subgraph of G"),
    (lambda: rho_d_dense_check(complete_graph(21), 0.5, 0.5), "exact mode capped at 20 vertices"),
    (lambda: estimate_arrow_probability(_K3, 8, 0.5, 0, Seed(1)), "trials must be >= 1"),
    (lambda: threshold_curve(_K3, 8, [1.0, inf], 1), "c values must be finite"),
    (lambda: z_property_rates(_K3, cycle_graph(5), 24, 0.2, nan, 0.1, Fraction(1, 12), 1),
     "D must be finite, got nan"),
    (lambda: Graph(0, []), "graph needs at least one vertex"),
    (lambda: cycle_graph(2), "cycles need k >= 3"),
    (lambda: path_graph(0), "paths need k >= 1 vertices"),
    (lambda: pattern_by_name("C4-e"), "'-e' suffix only applies to complete graphs: 'C4-e'"),
    (lambda: parse_graph("  "), "empty graph description (offset 0)"),
    (lambda: serialize_graph(Graph(258048, []), "graph6"),
     "graph6 output limited to n <= 258047"),
    (lambda: pair_density(_K6, 0.5, [], [1]), "X and Y must be nonempty"),
    (lambda: is_eps_p_regular(empty_graph(34), 0.5, range(17), range(17, 34), 0.5),
     "exact mode capped at 16 per side"),
    (lambda: is_eps_p_regular(_K6, 0.5, [0, 1], [2, 3], 0.5, mode="fast"), "unknown mode 'fast'"),
], ids=["embedding_pool", "profile_of", "Hypergraph", "verify_core_properties",
        "extension_count", "check_T", "rho_d_dense_check", "estimate_arrow_probability",
        "threshold_curve", "z_property_rates", "Graph", "cycle_graph", "path_graph",
        "pattern_by_name", "parse_graph", "graph6", "pair_density", "is_eps_p_regular_cap",
        "is_eps_p_regular_mode"])
def test_refusals_name_their_input(call, message):
    # each case is a refusal of outside input that no other test reaches:
    # a ValueError with its own message, never another error or a record
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def _library_tour():
    """(module, backticked names) of each row of README's library-tour table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in tour.splitlines() if line.startswith("| `")]
    return [(re.fullmatch(r" `(ramseylab\.\w+)` ", module).group(1),
             re.findall(r"`([^`]*)`", names)) for module, names in rows]


def test_library_tour_names_exist():
    # README's library tour names each module's entry points; a name that
    # moved or went away breaks the tour, as a traced name breaks the tracer
    rows = _library_tour()
    assert len(rows) == 7
    for module, names in rows:
        assert names, module
        for name in names:
            assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_library_tour_names_every_exported_function():
    # each function the package root exports is named in its module's row
    rows = dict(_library_tour())
    missing = [f"{f.__module__}.{name}" for name, f in vars(ramseylab).items()
               if inspect.isfunction(f) and name not in rows.get(f.__module__, ())]
    assert not missing, missing
