"""Desk-scale laboratory for Ramsey arrowing properties of random graphs.

Library layout:

- :mod:`ramseylab.graphs` — host graphs, seeded G(n,p) sampling, graph6
  and edge-list serialization
- :mod:`ramseylab.density` — exact rational pattern densities and
  balancedness classification
- :mod:`ramseylab.counting` — copy enumeration, deleted-edge families,
  rooted extensions, basegraphs, denseness checks
- :mod:`ramseylab.arrowing` — the arrowing decision solver and its
  brute-force oracle
- :mod:`ramseylab.booster` — focus sets, normal families, activated
  sets, container hypergraph statistics, brute-force cores
- :mod:`ramseylab.regularity` — scaled pair densities and regularity
  verification
- :mod:`ramseylab.experiments` — Monte Carlo threshold estimation and
  the exact constant chain
- :mod:`ramseylab.cli` — one subcommand per capability
"""

__version__ = "0.1.0"

from .arrowing import (
    ArrowResult,
    brute_force_arrow,
    cnf_export,
    decide_arrow,
    decide_arrow_union,
    is_f_free,
)
from .counting import (
    CopyFamily,
    base_graph,
    check_T,
    count_f_minus,
    count_f_minus_through,
    count_P,
    enumerate_copies,
    enumerate_P,
    extension_count,
    rho_d_dense_check,
)
from .density import PatternProfile, booster_admissible, classify, d2, edge_density, m2, mad, rooted_density
from .experiments import (
    derive_proof_constants,
    estimate_arrow_probability,
    hitting_constant,
    janson_bound,
    sharpness_window,
    window_trend,
    threshold_curve,
    wilson_interval,
    z_property_rates,
)
from .graphs import (
    Graph,
    Seed,
    complete_graph,
    cycle_graph,
    edge_count_between,
    empty_graph,
    gnp_sample,
    parse_graph,
    path_graph,
    pattern_by_name,
    serialize_graph,
    union,
)
from .booster import (
    BoosterHypergraph,
    BoosterSpec,
    CoreFamily,
    Hypergraph,
    activated_set,
    brute_force_cores,
    build_hypergraph,
    check_interactive_regular,
    classify_bad,
    degree_bound_report,
    construct_normal_family,
    hypergraph_stats,
    make_booster_spec,
    pair_relations,
    restrict_index_consistent,
    verify_core_properties,
    verify_index_consistent,
    verify_normal_family,
)
from .regularity import (
    counting_lemma_check,
    fstar_overlap_count,
    is_eps_p_regular,
    pair_density,
    reduced_graph,
)
