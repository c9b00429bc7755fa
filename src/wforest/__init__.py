"""Weighted spanning forests on finite truncations: cycle-cutting under an
exact edge order, finite-proxy ends analysis, quotient collapse, concrete
(non)unimodular graph families, and seeded Bernoulli percolation.

The names below are loaded on first use (PEP 562), so importing the package,
or one of its modules, compiles only the modules that are asked for."""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "graph": (
        "Edge", "Graph", "build_graph", "components", "edge", "edge_boundary",
        "from_json", "induced_subgraph", "inner_boundary", "is_cycle_invariant",
        "outer_boundary", "spanned_subgraph", "to_json",
    ),
    "weights": (
        "Cocycle", "EdgeOrder", "Potential", "ProxyParams", "cocycle_from_potential",
        "compare_edges", "level_potential", "potential_from_cocycle", "unit_potential",
        "validate_cocycle",
    ),
    "forest": ("ForestResult", "check_cut_witnesses", "maximal_subforest", "restrict_forest"),
    "ends": (
        "CollapseResult", "FurcationFamily", "QuotientGraph",
        "collapsed_maximal_subforest", "find_furcation_vertices",
        "maximal_disjoint_furcations", "qualifier", "quotient", "visibility_masses",
    ),
    "generators": (
        "build_family", "cycle", "free_product", "gp_graph", "lattice_box", "random_gnm",
        "regular_tree", "windmill",
    ),
    "percolation": (
        "ClusterReport", "LabelAssignment", "PercolationConfig", "assign_labels",
        "bernoulli_sample", "cluster_report", "equivariance_check", "fwmsf", "full_config",
        "sweep",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF})
