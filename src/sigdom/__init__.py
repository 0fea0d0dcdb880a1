"""Exact solvers, extremal constructions and a verification harness for
signed and k-tuple total domination parameters on small graphs."""

from .graphs import (
    Graph,
    GraphFormatError,
    clique_number,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    girth,
    is_bipartite,
    is_connected,
    is_regular,
    is_tree,
    max_degree,
    min_degree,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    stream_graph6,
    write_graph6,
)
from .trees import MAX_TREE_ORDER, free_trees
from .solvers import (
    SIGNED_PROBLEMS,
    ParameterResult,
    enumerate_maximum_istdfs,
    is_feasible,
    istdn,
    ktuple_chain,
    ktuple_total_domination,
    optimize_signed,
    st2in,
    stdn,
    total_domination,
)
from .constructions import (
    TreeStructure,
    build_heawood,
    build_matched_multipartite,
    build_prescribed_weight_tree,
    floor_family_membership,
    leaf_floor,
    tree_structure,
)
from .verification import (
    CHECK_IDS,
    CheckReport,
    SuiteSummary,
    evaluate_check,
    run_suite,
)

__all__ = [name for name in dir() if not name.startswith("_")]
