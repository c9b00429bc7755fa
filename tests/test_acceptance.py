"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Criteria 1-3 stash every forest they produce so criterion 4 can
check cut witnesses on exactly those results.
"""

import os
import random
import time
from fractions import Fraction as F

import networkx as nx

from wforest.cli import main as cli_main
from wforest.ends import ProxyParams, collapsed_maximal_subforest, visibility_masses
from wforest.forest import (
    check_cut_witnesses,
    is_acyclic,
    maximal_subforest,
    restrict_forest,
)
from wforest.generators import cycle, free_product, gp_graph, lattice_box, windmill
from wforest.graph import build_graph, induced_subgraph, spanned_subgraph
from wforest.percolation import (
    assign_labels,
    bernoulli_sample,
    equivariance_check,
    fwmsf,
    largest_cluster_fraction,
)
from wforest.weights import (
    EdgeOrder,
    cocycle_from_potential,
    level_potential,
    potential_from_cocycle,
    unit_potential,
    validate_cocycle,
)

from conftest import (
    brute_visibility,
    edge_set,
    fmsf,
    greedy_max_forest,
    maximal_subforest_oracle,
    random_connected_graph,
    random_potential,
    random_tiebreak,
)
from test_forest import sample_block_union
from test_percolation import blade_swap

PRODUCED_FORESTS = []  # (graph, order, result) from criteria 1-3


def _remember(g, order, result):
    PRODUCED_FORESTS.append((g, order, result))


def atlas_connected_graphs():
    out = []
    for ng in nx.graph_atlas_g()[1:]:
        if ng.number_of_nodes() == 0 or not nx.is_connected(ng):
            continue
        out.append(build_graph(sorted(ng.nodes), [tuple(e) for e in ng.edges]))
    return out


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    rand = random.Random(101)
    graphs = atlas_connected_graphs()
    assert len(graphs) == 996  # connected graphs on 1..7 vertices
    failures = 0
    for g in graphs:
        for _ in range(3):
            order = EdgeOrder(g, random_potential(rand, g), random_tiebreak(rand, g))
            fast = maximal_subforest(g, order)
            slow = maximal_subforest_oracle(g, order)
            if fast.kept != slow.kept:
                failures += 1
            _remember(g, order, fast)
    for i in range(500):
        n = rand.randint(2, 12)
        m = rand.randint(0, min(n * (n - 1) // 2, 2 * n))
        from wforest.generators import random_gnm
        g = random_gnm(n, m, seed=10_000 + i)
        order = EdgeOrder(g, random_potential(rand, g), random_tiebreak(rand, g))
        fast = maximal_subforest(g, order)
        slow = maximal_subforest_oracle(g, order)
        if fast.kept != slow.kept:
            failures += 1
        _remember(g, order, fast)
    took = time.time() - t0
    assert failures == 0
    assert took < 120
    print(f"\nACCEPTANCE 1 PASS: oracle equivalence on 996 atlas graphs x3 "
          f"and 500 G(n,m) instances, 0 failures, {took:.1f}s")


def test_criterion_2_spanning_tree_identity():
    rand = random.Random(202)
    for _ in range(500):
        g = random_connected_graph(rand, rand.randint(2, 11))
        order = EdgeOrder(g, random_potential(rand, g), random_tiebreak(rand, g))
        result = maximal_subforest(g, order)
        assert result.kept == greedy_max_forest(g, order)
        _remember(g, order, result)
    print("\nACCEPTANCE 2 PASS: kept set equals the greedy maximum-spanning-"
          "tree oracle on 500 random connected weighted graphs")


def test_criterion_3_fmsf_specialization():
    rand = random.Random(303)
    for i in range(200):
        g = random_connected_graph(rand, rand.randint(2, 11))
        cfg = bernoulli_sample(g, rand.choice([0.4, 0.6, 0.8, 1.0]), seed=i)
        labels = assign_labels(g, seed=i + 1)
        weighted = fwmsf(cfg, unit_potential(g), labels)
        sub = spanned_subgraph(g, cfg.open_edges)
        independent = fmsf(sub, {e: labels.labels[e] for e in cfg.open_edges})
        assert weighted.kept == independent
        _remember(sub, EdgeOrder(sub, unit_potential(sub),
                                 list(labels.ranks(edge_set(sub)))), weighted)
    print("\nACCEPTANCE 3 PASS: constant-potential fwmsf equals the "
          "independent fmsf on 200 random configurations")


def test_criterion_4_cut_witnesses():
    assert PRODUCED_FORESTS, "criteria 1-3 must run first"
    violations = 0
    for g, order, result in PRODUCED_FORESTS:
        violations += len(check_cut_witnesses(g, result, order).violations)
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    pot = level_potential(fp, F(1, 2))
    for trial in range(20):
        cfg = bernoulli_sample(fp, 0.6, seed=4000 + trial)
        labels = assign_labels(fp, seed=trial)
        result = fwmsf(cfg, pot, labels)
        sub = spanned_subgraph(fp, cfg.open_edges)
        order = EdgeOrder(sub, pot, list(labels.ranks(edge_set(sub))))
        violations += len(check_cut_witnesses(sub, result, order).violations)
    assert violations == 0
    print(f"\nACCEPTANCE 4 PASS: zero cut-witness violations across "
          f"{len(PRODUCED_FORESTS)} stored forests and a 20-trial "
          f"grandparent-times-lattice sweep")


def test_criterion_5_restriction_property():
    rand = random.Random(505)
    done = 0
    while done < 200:
        g = random_connected_graph(rand, rand.randint(3, 12))
        y = sample_block_union(rand, g)
        order = EdgeOrder(g, random_potential(rand, g), random_tiebreak(rand, g))
        result = maximal_subforest(g, order)
        restricted = restrict_forest(g, result, order, y)  # raises on mismatch
        sub = induced_subgraph(g, y)
        assert restricted.kept == maximal_subforest(sub, order.restrict(sub)).kept
        done += 1
    print("\nACCEPTANCE 5 PASS: restrict-then-compute equals compute-then-"
          "restrict on 200 sampled cycle-invariant sets")


def test_criterion_6_cocycle_exactness():
    g = gp_graph(2, 3, 5)
    pot = level_potential(g, F(1, 2))
    c = cocycle_from_potential(g, pot)
    rep = validate_cocycle(g, c)
    assert rep.ok and rep.worst_defect == 0.0
    lv = g.meta["levels"]
    for u, v in g.sorted_edges():
        child, parent = (u, v) if lv[u] > lv[v] else (v, u)
        if lv[child] - lv[parent] == 1:
            assert c.ratio(child, parent) == F(1, 2)
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    cf = cocycle_from_potential(fp, level_potential(fp, F(1, 2)))
    gp_ratios, z2_ratios = set(), set()
    for u, v, fidx in fp.meta["edge_factors"]:
        target = gp_ratios if fidx == 0 else z2_ratios
        target.update((cf.ratio(u, v), cf.ratio(v, u)))
    assert gp_ratios == {F(1, 4), F(1, 2), F(2), F(4)}
    assert z2_ratios == {F(1)}
    print("\nACCEPTANCE 6 PASS: exact level cocycle on GP(2) up3/down5 with "
          "parent-child ratio 1/2; free-product ratios exactly "
          "{1/4,1/2,2,4} and 1")


def test_criterion_7_equivariance():
    c6 = cycle(6)
    rot = {v: (v + 1) % 6 for v in range(6)}
    ok = 0
    for seed in range(50):
        ok += equivariance_check(c6, unit_potential(c6), rot,
                                 assign_labels(c6, seed))
    assert ok == 50
    w = windmill(3, 2)
    sigma = blade_swap(w, 3, 2)
    ok2 = 0
    for seed in range(50):
        ok2 += equivariance_check(w, unit_potential(w), sigma,
                                  assign_labels(w, seed))
    assert ok2 == 50
    print("\nACCEPTANCE 7 PASS: 50/50 exact equalities on cycle rotations "
          "and 50/50 on windmill blade swaps")


def test_criterion_8_crossing_monotonicity():
    t0 = time.time()
    box = lattice_box(50, 50)
    wins = 0
    for seed in range(100):
        hi = largest_cluster_fraction(bernoulli_sample(box, 0.55, seed))
        lo = largest_cluster_fraction(bernoulli_sample(box, 0.45, seed))
        wins += hi > lo
    took = time.time() - t0
    assert wins >= 95
    assert took < 60
    print(f"\nACCEPTANCE 8 PASS: largest-cluster fraction at p=0.55 beats "
          f"p=0.45 in {wins}/100 paired seeds on the 50x50 box, {took:.1f}s")


def test_criterion_9_visibility_oracle():
    rand = random.Random(909)
    for _ in range(200):
        g = random_connected_graph(rand, rand.randint(2, 12))
        potential = random_potential(rand, g)
        c = cocycle_from_potential(g, potential)
        x = rand.choice(g.vertices)
        pot_x = potential_from_cocycle(g, c, x)
        brute_mass = sum(pot_x[y] for y in brute_visibility(g, pot_x, x))
        assert visibility_masses(g, potential)[x] == brute_mass
    d = 6
    g = gp_graph(2, 2, d)
    assert visibility_masses(g, level_potential(g, F(1, 2)))[g.meta["root"]] == d + 1
    print("\nACCEPTANCE 9 PASS: visibility mass equals brute-force path "
          "enumeration on 200 instances; GP(2) root mass equals d+1 exactly")


def test_criterion_10_collapse_pipeline():
    rand = random.Random(1010)
    cases = []
    w = windmill(3, 3)
    cases.append((w, unit_potential(w), w.meta["tiebreak"]))
    for _ in range(100):
        g = random_connected_graph(rand, rand.randint(4, 11))
        g = build_graph(g.vertices, edge_set(g), meta={
            "boundary": frozenset(v for v in g.vertices if rand.random() < 0.4)})
        cases.append((g, random_potential(rand, g), None))
    for g, pot, tb in cases:
        res = collapsed_maximal_subforest(g, pot, tb, ProxyParams())
        assert is_acyclic(g, res.forest.kept)
        lifted = {qe for qe in edge_set(res.quot.qgraph)
                  if res.quot.lift[qe] in res.forest.kept}
        assert lifted == set(res.qforest.kept)
    print("\nACCEPTANCE 10 PASS: collapsed forest modulo the family equals "
          "the quotient forest via the lift on 100 random instances plus "
          "windmill(3,3); lifted output acyclic in every case")


def test_criterion_11_determinism(tmp_path):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        (tmp_path / "unit.json").write_text('{"unit":true}')
        fixtures = [
            ("gen", "--family", "gp", "--k", "2", "--up", "2", "--down", "3",
             "-o", "g.json"),
            ("gen", "--family", "windmill", "--blades", "3", "--radius", "2",
             "-o", "wm.json"),
            ("forest", "g.json", "unit.json", "-o", "f.json"),
            ("collapse", "wm.json", "unit.json", "--tiebreak", "meta",
             "-o", "cf.json", "--family-out", "fam.json"),
            ("percolate", "g.json", "unit.json", "--p-grid", "0.3,0.7",
             "--trials", "2", "--seed", "21", "-o", "r.jsonl",
             "--summary", "s.csv"),
        ]
        for argv in fixtures:
            assert cli_main(list(argv)) == 0
        outputs = ("g.json", "wm.json", "f.json", "cf.json", "fam.json",
                   "r.jsonl", "s.csv")
        before = {name: (tmp_path / name).read_bytes() for name in outputs}
        for manifest in ("g.json.manifest.json", "wm.json.manifest.json",
                         "f.json.manifest.json", "cf.json.manifest.json",
                         "r.jsonl.manifest.json"):
            assert cli_main(["rerun", manifest]) == 0
        for name, data in before.items():
            assert (tmp_path / name).read_bytes() == data
    finally:
        os.chdir(cwd)
    print("\nACCEPTANCE 11 PASS: manifest reruns reproduce every bundled "
          "fixture output byte-identically")
