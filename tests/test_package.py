"""The package surface: what each command loads, the result types'
contracts, and the names `wforest` exports."""

import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import wforest
from wforest.ends import ProxyParams, collapsed_maximal_subforest
from wforest.errors import BadParams, InvariantViolation
from wforest.forest import ForestResult, maximal_subforest
from wforest.generators import windmill
from wforest.graph import to_json
from wforest.percolation import assign_labels, cluster_report, full_config
from wforest.weights import (
    EdgeOrder,
    cocycle_from_potential,
    potential_from_cocycle,
    unit_potential,
)

# The modules a command may load beyond errors and graph, which every
# command needs: only `gen` compiles the generators, and only `gen` and
# `percolate`, which can draw at random, compile rng.
LAYERS = ("generators", "rng", "weights", "forest", "ends", "percolation")
COMMANDS = {
    "gen": (["gen", "--family", "cycle", "--n", "4", "-o", "gen.json"], ("generators", "rng")),
    "forest": (["forest", "wm.json", "unit.json", "--check-witnesses", "-o", "f.json"],
               ("weights", "forest")),
    "collapse": (["collapse", "wm.json", "unit.json", "-o", "c.json",
                  "--family-out", "fam.json"], ("weights", "forest", "ends")),
    "analyze": (["analyze", "wm.json", "unit.json", "-o", "a.json"], ("weights", "ends")),
    "percolate": (["percolate", "wm.json", "unit.json", "--p-grid", "0.5", "-o", "r.jsonl"],
                  ("rng", "weights", "forest", "percolation")),
}
# Run one command through `main` in a fresh interpreter; print its exit code
# and the modules it added to sys.modules.
PROBE = """import json, sys
before = set(sys.modules)
from wforest.cli import main
rc = main(sys.argv[1:])
print(json.dumps([rc, sorted(set(sys.modules) - before)]))
"""


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_each_command_loads_only_its_layers(tmp_path, command):
    (tmp_path / "wm.json").write_text(to_json(windmill(3, 2)))
    (tmp_path / "unit.json").write_text('{"unit":true}')
    argv, layers = COMMANDS[command]
    src = os.path.dirname(os.path.dirname(wforest.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True).stdout
    rc, added = json.loads(out)
    assert rc == 0
    assert not {"dataclasses", "datetime", "tempfile"} & set(added)
    assert [x for x in LAYERS if f"wforest.{x}" in added] == list(layers)


def _instances():
    """One instance of each result type."""
    g = windmill(3, 2)
    pot = unit_potential(g)
    forest = maximal_subforest(g, EdgeOrder(g, pot))
    res = collapsed_maximal_subforest(g, pot, None, ProxyParams())
    cfg = full_config(g)
    report = cluster_report(cfg, pot, ProxyParams())
    cocycle = cocycle_from_potential(g, pot)
    return [g, forest, ProxyParams(), res.family, res.quot, res, cfg, assign_labels(g, 0),
            report.clusters[0], report, cocycle, potential_from_cocycle(g, cocycle, 0)]


def test_result_types_are_immutable():
    names = ["Graph", "ForestResult", "ProxyParams", "FurcationFamily", "QuotientGraph",
             "CollapseResult", "PercolationConfig", "LabelAssignment", "ClusterInfo",
             "ClusterReport", "Cocycle", "Potential"]
    objs = _instances()
    assert [type(x).__name__ for x in objs] == names
    for obj in objs:
        field = obj._fields[0]
        with pytest.raises(AttributeError):
            setattr(obj, field, getattr(obj, field))
        with pytest.raises(AttributeError):
            obj.extra = 1
        assert obj._replace() == obj


def test_checked_types_refuse_bad_fields_at_construction_and_replace():
    kept, fixed = frozenset({(0, 1), (1, 2)}), frozenset({(0, 1)})
    ok = ForestResult(kept=kept, deleted=frozenset({(0, 2)}), fixed=fixed)
    with pytest.raises(InvariantViolation, match="overlap"):
        ForestResult(kept=kept, deleted=frozenset({(1, 2)}), fixed=fixed)
    with pytest.raises(InvariantViolation, match="overlap"):
        ok._replace(deleted=frozenset({(0, 1)}))
    with pytest.raises(InvariantViolation, match="fixed edges must survive"):
        ForestResult(kept=kept, deleted=frozenset(), fixed=frozenset({(2, 3)}))
    with pytest.raises(InvariantViolation, match="fixed edges must survive"):
        ok._replace(fixed=frozenset({(0, 2)}))
    for bad in ({"heavy_tau": 0}, {"nonvanish_delta": F(-1)}):
        with pytest.raises(BadParams, match="strictly positive"):
            ProxyParams(**bad)
        with pytest.raises(BadParams, match="strictly positive"):
            ProxyParams()._replace(**bad)
    assert ProxyParams(F(1, 2))._replace(heavy_tau=F(9)) == ProxyParams(F(1, 2), F(9))


# Every name the package exported when it imported each module eagerly.
EXPORTED = {
    "graph": ["Edge", "Graph", "build_graph", "components", "edge", "edge_boundary",
              "from_json", "induced_subgraph", "inner_boundary", "is_cycle_invariant",
              "outer_boundary", "spanned_subgraph", "to_json"],
    "weights": ["Cocycle", "EdgeOrder", "Potential", "cocycle_from_potential",
                "compare_edges", "level_potential", "potential_from_cocycle",
                "unit_potential", "validate_cocycle"],
    "forest": ["ForestResult", "check_cut_witnesses", "maximal_subforest", "restrict_forest"],
    "ends": ["CollapseResult", "FurcationFamily", "ProxyParams", "QuotientGraph",
             "collapsed_maximal_subforest", "find_furcation_vertices",
             "maximal_disjoint_furcations", "qualifier", "quotient", "visibility_masses"],
    "generators": ["build_family", "cycle", "free_product", "gp_graph", "lattice_box",
                   "random_gnm", "regular_tree", "windmill"],
    "percolation": ["ClusterReport", "LabelAssignment", "PercolationConfig", "assign_labels",
                    "bernoulli_sample", "cluster_report", "equivariance_check", "fwmsf",
                    "full_config", "sweep"],
}


def test_package_exports_every_name_it_did():
    listed = dir(wforest)
    for module, names in EXPORTED.items():
        for name in names:
            namespace = {}
            exec(f"from wforest import {name}", namespace)
            assert namespace[name] is getattr(sys.modules[f"wforest.{module}"], name)
            assert name in listed
    assert "__version__" in listed
    with pytest.raises(AttributeError, match="no attribute 'frobnicate'"):
        wforest.frobnicate
    with pytest.raises(ImportError):
        exec("from wforest import frobnicate", {})

