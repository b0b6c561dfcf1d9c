"""Simplicial-contagion SIR toolkit on hypergraphs.

Core objects: Hypergraph and its derived algebra (weighted adjacency,
triangle channel, directed-link index), synthetic generators, the
two-channel SIR Monte-Carlo process, cavity message passing with the
weighted non-backtracking operator, collective-influence seed selection,
and dataset ingestion.
"""

from .hypergraph import (
    DEFAULT_TRIPLE_EDGE_CAP,
    AdjacencyView,
    Hypergraph,
    LinkIndex,
    TwoSimplexSet,
    build_adjacency,
    build_link_index,
    enumerate_two_simplices,
    giant_component,
    simplex_densities,
)
from .data_io import (
    DatasetStats,
    dataset_stats,
    load_benson,
    load_hyperedge_list,
    save_hyperedge_list,
    write_stats_table,
)
from .generators import (
    GenSpec,
    gen_d_uniform,
    gen_er_bipartite,
    gen_sf_chunglu,
    generate,
)
from .influence import (
    BASELINE_METHODS,
    baseline_select,
    cia_select,
    collective_influence,
    ranked_nodes,
    top_overlap_probability,
    top_overlap_curve,
)
from .message_passing import (
    MessageState,
    SpectralResult,
    WnbOperator,
    build_wnb,
    critical_beta1,
    initial_messages,
    leading_eigen,
    mp_solve,
    mp_step,
)
from .sir import (
    EpidemicParams,
    EpidemicState,
    OutbreakStats,
    classify_bistable,
    initial_state,
    rescale_params,
    run_sir,
    step,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TRIPLE_EDGE_CAP",
    "AdjacencyView",
    "Hypergraph",
    "LinkIndex",
    "TwoSimplexSet",
    "build_adjacency",
    "build_link_index",
    "enumerate_two_simplices",
    "giant_component",
    "simplex_densities",
    "GenSpec",
    "gen_d_uniform",
    "gen_er_bipartite",
    "gen_sf_chunglu",
    "generate",
    "EpidemicParams",
    "EpidemicState",
    "OutbreakStats",
    "classify_bistable",
    "initial_state",
    "rescale_params",
    "run_sir",
    "step",
    "DatasetStats",
    "dataset_stats",
    "load_benson",
    "load_hyperedge_list",
    "save_hyperedge_list",
    "write_stats_table",
    "BASELINE_METHODS",
    "baseline_select",
    "cia_select",
    "collective_influence",
    "ranked_nodes",
    "top_overlap_probability",
    "top_overlap_curve",
    "MessageState",
    "SpectralResult",
    "WnbOperator",
    "build_wnb",
    "critical_beta1",
    "initial_messages",
    "leading_eigen",
    "mp_solve",
    "mp_step",
    "__version__",
]
