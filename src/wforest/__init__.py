"""Weighted spanning forests on finite truncations: cycle-cutting under an
exact edge order, finite-proxy ends analysis, quotient collapse, concrete
(non)unimodular graph families, and seeded Bernoulli percolation."""

__version__ = "0.1.0"

from .graph import (
    Edge,
    Graph,
    build_graph,
    components,
    edge,
    edge_boundary,
    from_json,
    induced_subgraph,
    inner_boundary,
    is_cycle_invariant,
    outer_boundary,
    spanned_subgraph,
    to_json,
)
from .weights import (
    Cocycle,
    EdgeOrder,
    Potential,
    cocycle_from_potential,
    compare_edges,
    level_potential,
    potential_from_cocycle,
    unit_potential,
    validate_cocycle,
)
from .forest import (
    ForestResult,
    check_cut_witnesses,
    maximal_subforest,
    restrict_forest,
)
from .ends import (
    CollapseResult,
    FurcationFamily,
    ProxyParams,
    QuotientGraph,
    collapsed_maximal_subforest,
    find_furcation_vertices,
    maximal_disjoint_furcations,
    qualifier,
    quotient,
    visibility_masses,
)
from .generators import (
    build_family,
    cycle,
    free_product,
    gp_graph,
    lattice_box,
    random_gnm,
    regular_tree,
    windmill,
)
from .percolation import (
    ClusterReport,
    LabelAssignment,
    PercolationConfig,
    assign_labels,
    bernoulli_sample,
    cluster_report,
    equivariance_check,
    fwmsf,
    full_config,
    sweep,
)
