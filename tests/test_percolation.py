import json
from collections import Counter
from fractions import Fraction as F

import pytest

from wforest.ends import ProxyParams, qualifier, qualifying_side_counts
from wforest.errors import (
    BadParams,
    BadProbability,
    InvariantViolation,
    MissingVertex,
    NonPositiveWeight,
    NotAutomorphism,
    NotWeightPreserving,
)
from wforest.cli import main as cli_main
from wforest.forest import is_acyclic, maximal_subforest
from wforest.generators import cycle, free_product, gp_graph, lattice_box, regular_tree, windmill
from wforest.graph import (_host_edges, _path, _root, _side_counts, build_graph, components,
                           spanned_subgraph, to_json)
from wforest.percolation import (
    LabelAssignment,
    assign_labels,
    bernoulli_sample,
    cluster_report,
    equivariance_check,
    full_config,
    fwmsf,
    largest_cluster_fraction,
    records_to_jsonl,
    summary_csv,
    sweep,
)
from wforest.rng import subseed, u64, u64s
from wforest.weights import EdgeOrder, exact_potential, level_potential, unit_potential

from conftest import (
    edge_set,
    fmsf,
    is_heavy,
    random_connected_graph,
    random_order,
    random_potential,
    relative_potential,
    sweep_oracle,
    visibility,
)


def test_u64s_equals_one_u64_per_counter():
    for seed in (0, 1, -1, -(1 << 70), (1 << 64) - 1, 1 << 64, (1 << 64) + 5, 3 << 80):
        for domain in ("open", "label", "run", ""):
            for n in (0, 1, 7, 4096):
                assert u64s(seed, domain, n) == [u64(seed, domain, i) for i in range(n)]


def test_bernoulli_degenerate_and_deterministic():
    g = lattice_box(5, 5)
    assert bernoulli_sample(g, 0.0, 7).open_edges == frozenset()
    assert bernoulli_sample(g, 1.0, 7).open_edges == edge_set(g)
    a = bernoulli_sample(g, 0.37, 123)
    b = bernoulli_sample(g, 0.37, 123)
    assert a.open_edges == b.open_edges
    assert bernoulli_sample(g, 0.37, 124).open_edges != a.open_edges
    with pytest.raises(BadProbability):
        bernoulli_sample(g, 1.5, 0)


def test_monotone_coupling():
    g = lattice_box(6, 6)
    grid = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    for seed in range(5):
        opens = [bernoulli_sample(g, p, seed).open_edges for p in grid]
        for lo, hi in zip(opens, opens[1:]):
            assert lo <= hi


def test_delete_cut_edge_splits_cluster():
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3)])
    cfg = full_config(g)
    before = cluster_report(cfg, unit_potential(g), ProxyParams())
    assert before.counts["count"] == 1
    cut = cfg._replace(open_edges=cfg.open_edges - {(1, 2)})
    after = cluster_report(cut, unit_potential(g), ProxyParams())
    assert after.counts["count"] == 2


def test_labels_deterministic_with_collision_fallback():
    g = cycle(6)
    la = assign_labels(g, 99)
    assert la.labels == assign_labels(g, 99).labels
    assert la.collisions == ()
    # planted collision: ranks fall back to canonical edge order
    forced = LabelAssignment(labels={e: 1 for e in edge_set(g)})
    ranks = forced.ranks()
    assert [e for e, _ in sorted(ranks.items(), key=lambda kv: kv[1])] == g.sorted_edges()


def test_ranks_check_their_labels_for_ties(rand):
    """`ranks` finds equal labels itself: an assignment built with colliding
    labels but no recorded collisions still ranks as the full (-label,
    edge) sort does, on all its edges and on a subset."""
    tied = 0
    for case in range(300):
        g = random_connected_graph(rand, rand.randint(2, 9))
        top = 4 if case % 2 else 1 << 64
        labels = {e: rand.randrange(top) for e in edge_set(g)}
        la = LabelAssignment(labels=labels)
        tied += len(set(labels.values())) < len(labels)
        for edges in (None, [e for e in g.sorted_edges() if rand.random() < 0.6]):
            want = sorted(labels if edges is None else edges, key=lambda e: (-labels[e], e))
            assert la.ranks(edges) == {e: i for i, e in enumerate(want)}
    assert tied >= 100


def test_assign_labels_lists_colliding_neighbours(monkeypatch):
    import wforest.percolation as perc
    monkeypatch.setattr(perc, "u64s", lambda seed, domain, n: [i // 3 for i in range(n)])
    g = cycle(5)
    la = assign_labels(g, 0)
    e = g.sorted_edges()
    assert la.collisions == ((e[0], e[1]), (e[1], e[2]), (e[3], e[4]))
    assert list(la.ranks()) == [e[3], e[4], e[0], e[1], e[2]]


def test_tree_side_counts_equal_qualifying_side_counts(rand):
    """The one side-count pass over the `_root` rooting of the kept forest,
    with its depth as both disc and low, as the sweep runs it, gives the
    side counts of the forest as a graph: random forests (with isolated
    vertices, and the empty forest) and random qualifying sets."""
    for case in range(500):
        g = random_connected_graph(rand, rand.randint(1, 12))
        kept = maximal_subforest(g, random_order(rand, g)).kept
        if case % 5 == 0:
            kept = frozenset()
        elif case % 2:
            kept = frozenset(e for e in kept if rand.random() < 0.7)
        q = frozenset(v for v in g.vertices if rand.random() < 0.4)
        rooted = _root(g, _host_edges(g, kept))
        own = [int(v in q) for v in g.vertices]
        side = _side_counts(rooted.order, rooted.parent, rooted.depth, rooted.depth, own)
        assert dict(zip(g.vertices, side)) == \
            qualifying_side_counts(spanned_subgraph(g, kept), q.__contains__)


def test_sweep_cluster_and_tree_counts_agree_on_tree_hosts(rand):
    """On a host that is a forest, p = 1 opens every edge and keeps them all,
    so each cluster is one kept tree: the cluster side counts (low-link
    rooting) and the tree side counts (breadth-first rooting) must agree.
    Regular trees, whose leaves are flagged, and random trees and forests
    with random flags, at unit and random potentials."""
    hosts = [regular_tree(3, 4), regular_tree(4, 3), regular_tree(2, 6)]
    for _ in range(30):
        tree = random_connected_graph(rand, rand.randint(1, 30), extra=0)
        kept = [e for e in tree.ordered_edges if rand.random() < 0.85]
        flags = frozenset(v for v in tree.vertices if rand.random() < 0.4)
        hosts.append(build_graph(tree.vertices, rand.choice([tree.ordered_edges, kept]),
                                 {"boundary": flags}))
    for g in hosts:
        for pot in (unit_potential(g), random_potential(rand, g)):
            for delta in (F(1), F(1, 4)):
                rec = sweep(g, pot, [1.0], 1, rand.randrange(1000), ProxyParams(delta))[0]
                assert rec["forest"]["kept"] == len(g.ordered_edges)
                assert rec["clusters"]["clusters_with_3plus_sides"] == \
                    rec["forest"]["trees_with_3plus_nonvanishing_dirs"]
    tree = regular_tree(3, 4)
    rec = sweep(tree, unit_potential(tree), [1.0], 1, 7, ProxyParams())[0]
    assert rec["clusters"]["max_nonvanishing_sides"] == 3
    assert rec["forest"]["trees_with_3plus_nonvanishing_dirs"] == 1


def test_fwmsf_open_forest_kept_whole():
    g = lattice_box(4, 4)
    cfg = bernoulli_sample(g, 0.25, 3)
    labels = assign_labels(g, 3)
    r = fwmsf(cfg, unit_potential(g), labels)
    assert r.kept | r.deleted == cfg.open_edges
    assert is_acyclic(g, r.kept)
    sub = spanned_subgraph(g, cfg.open_edges)
    if is_acyclic(g, cfg.open_edges):
        assert r.kept == cfg.open_edges
    # spans every cluster: kept components equal open components
    assert components(spanned_subgraph(g, r.kept)) == components(sub)


def test_fwmsf_equals_fmsf_constant_weight(rand):
    for trial in range(50):
        g = random_connected_graph(rand, rand.randint(3, 10))
        cfg = bernoulli_sample(g, 0.7, trial)
        labels = assign_labels(g, trial + 1000)
        ours = fwmsf(cfg, unit_potential(g), labels)
        sub = spanned_subgraph(g, cfg.open_edges)
        independent = fmsf(sub, {e: labels.labels[e] for e in cfg.open_edges})
        assert ours.kept == independent


def test_fwmsf_per_cluster_restriction(rand):
    g = lattice_box(5, 5)
    pot = unit_potential(g)
    for seed in range(10):
        cfg = bernoulli_sample(g, 0.45, seed)
        labels = assign_labels(g, seed)
        whole = fwmsf(cfg, pot, labels)
        sub = spanned_subgraph(g, cfg.open_edges)
        for comp in components(sub):
            comp_edges = {e for e in cfg.open_edges
                          if e[0] in set(comp) and e[1] in set(comp)}
            cfg_c = full_config(spanned_subgraph(
                build_graph(g.vertices, comp_edges), comp_edges))
            part = fwmsf(cfg_c, pot, labels)
            assert part.kept == {e for e in whole.kept
                                 if e[0] in set(comp) and e[1] in set(comp)}


def test_cluster_report_degenerate():
    g = lattice_box(3, 3)
    pot = unit_potential(g)
    low = cluster_report(bernoulli_sample(g, 0.0, 0), pot, ProxyParams())
    assert low.counts["count"] == 9
    assert all(c.mass == 1 for c in low.clusters)
    high = cluster_report(bernoulli_sample(g, 1.0, 0), pot,
                          ProxyParams(heavy_tau=F(9)))
    assert high.counts["count"] == 1
    assert high.clusters[0].mass == 9
    assert high.clusters[0].cls == "heavy"


def test_cluster_report_lists_the_open_components(rand):
    """The clusters are the components of the open subgraph, each a sorted
    tuple of vertex ids, ordered by their least, on ids that are not
    positions."""
    for seed in range(20):
        g = random_connected_graph(rand, rand.randint(1, 14))
        to = dict(zip(g.vertices, rand.sample(range(100), len(g.vertices))))
        g = build_graph(to.values(), [(to[u], to[v]) for u, v in edge_set(g)])
        cfg = bernoulli_sample(g, 0.5, seed)
        report = cluster_report(cfg, unit_potential(g), ProxyParams())
        assert [c.vertices for c in report.clusters] == \
            components(spanned_subgraph(g, cfg.open_edges))


def test_cluster_mass_relative_to_heaviest():
    g = gp_graph(2, 1, 2)
    pot = level_potential(g, F(1, 2))
    rep = cluster_report(full_config(g), pot, ProxyParams())
    (c,) = rep.clusters
    top = max(pot[v] for v in g.vertices)
    assert c.mass == sum(pot[v] for v in g.vertices) / top


def test_equivariance_cycle_rotations():
    g = cycle(6)
    pot = unit_potential(g)
    for seed in range(50):
        labels = assign_labels(g, seed)
        rot = {v: (v + 1) % 6 for v in range(6)}
        assert equivariance_check(g, pot, rot, labels)


def test_equivariance_windmill_blade_swap():
    w = windmill(3, 2)
    pot = unit_potential(w)
    sigma = blade_swap(w, 3, 2)
    for seed in range(50):
        assert equivariance_check(w, pot, sigma, assign_labels(w, seed))


def blade_swap(w, blades, radius):
    """Reflection i -> blades-1-i of the hub chain, blades carried along."""
    R = radius
    cells = (R + 1) ** 2 - 1

    def vid(i, a, b):
        if a == 0 and b == 0:
            return i
        return blades + i * cells + (R + 1) * a + b - 1

    sigma = {}
    for i in range(blades):
        j = blades - 1 - i
        for a in range(R + 1):
            for b in range(R + 1):
                sigma[vid(i, a, b)] = vid(j, a, b)
    return sigma


def test_equivariance_identity_trivial(rand):
    g = random_connected_graph(rand, 8)
    sigma = {v: v for v in g.vertices}
    assert equivariance_check(g, random_potential(rand, g), sigma, assign_labels(g, 1))


def test_equivariance_rejects_bad_maps():
    g = cycle(4)
    labels = assign_labels(g, 0)
    with pytest.raises(NotAutomorphism):
        equivariance_check(g, unit_potential(g), {0: 0, 1: 1, 2: 3, 3: 3}, labels)
    path = build_graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(NotWeightPreserving):
        equivariance_check(path, {0: 1, 1: 2, 2: 3}, {0: 2, 1: 1, 2: 0},
                           assign_labels(path, 0))


def test_equivariance_rejects_bad_potentials():
    g = cycle(4)
    rot = {v: (v + 1) % 4 for v in range(4)}
    labels = assign_labels(g, 0)
    with pytest.raises(NonPositiveWeight):
        equivariance_check(g, {v: 0 for v in g.vertices}, rot, labels)
    with pytest.raises(MissingVertex):
        equivariance_check(g, {0: 1, 1: 1, 2: 1}, rot, labels)


def test_sweep_degenerate_grid():
    g = cycle(4)
    recs = sweep(g, unit_potential(g), [0.0, 1.0], 1, 5, ProxyParams())
    assert recs[0]["open"] == 0 and recs[1]["open"] == len(edge_set(g))
    assert recs[0]["clusters"]["count"] == 4
    assert recs[1]["forest"]["deleted"] == 1


def test_sweep_rejects_fewer_than_one_trial():
    g = cycle(4)
    for trials in (0, -1):
        with pytest.raises(BadParams, match="trials must be >= 1"):
            sweep(g, unit_potential(g), [0.5], trials, 0, ProxyParams())


def test_sweep_byte_identical():
    g = lattice_box(4, 4)
    args = (g, unit_potential(g), [0.3, 0.7], 3, 77, ProxyParams())
    a = records_to_jsonl(sweep(*args))
    b = records_to_jsonl(sweep(*args))
    assert a == b
    assert summary_csv(sweep(*args)) == summary_csv(sweep(*args))


def test_sweep_gp_z2_reports_trifurcation_clusters():
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    pot = level_potential(fp, F(1, 2))
    recs = sweep(fp, pot, [0.6], 10, 42, ProxyParams())
    hits = sum(1 for r in recs if r["clusters"]["clusters_with_3plus_sides"] >= 1)
    # empirical statistic at this fixed truncation and seed set, frozen once
    # measured (10/10 runs, per-run counts 3,6,6,3,5,3,3,4,7,2); a majority
    # is the reported claim, not a theorem
    assert hits == 10


def test_sweep_basepoints_equal_visibility(rand):
    """Each record's basepoint masses and heavy count are those of one
    visibility BFS per basepoint on the run's open subgraph."""
    gp, box = gp_graph(2, 2, 3), lattice_box(6, 6)
    cases = [(gp, level_potential(gp, F(1, 2)), ProxyParams(nonvanish_delta=F(1, 2))),
             (box, unit_potential(box), ProxyParams(heavy_tau=F(9)))]
    for _ in range(40):
        g = random_connected_graph(rand, rand.randint(2, 12))
        flagged = frozenset(v for v in g.vertices if rand.random() < 0.3)
        g = build_graph(g.vertices, edge_set(g), meta={"boundary": flagged})
        params = ProxyParams(nonvanish_delta=F(rand.randint(1, 4), 4),
                             heavy_tau=F(rand.randint(1, 6)))
        cases.append((g, random_potential(rand, g), params))
    seen = heavy_seen = 0
    for g, pot, params in cases:
        for rec in sweep(g, pot, [0.3, 0.7], 2, rand.randrange(1000), params):
            sub = spanned_subgraph(g, bernoulli_sample(g, rec["p"], rec["seed"]).open_edges)
            masses, heavy = [], 0
            for x in rec["visibility"]["basepoints"]:
                rel = visibility(sub, pot, x)
                mass = sum(rel.values())
                heavy += is_heavy(sub, params, mass, rel)
                masses.append(f"{mass.numerator}/{mass.denominator}")
            assert rec["visibility"]["masses"] == masses, (sorted(edge_set(g)), rec)
            assert rec["visibility"]["heavy"] == heavy, (sorted(edge_set(g)), rec)
            seen += len(masses)
            heavy_seen += heavy
    assert 0 < heavy_seen < seen


def _rank_rule_cases(rand):
    """GP(2,2,3) at level weights, a 6x6 box and 40 random flagged graphs,
    each with deltas equal to a flagged vertex's potential over the
    greatest, between two such ratios, above all of them and below all."""
    gp, box = gp_graph(2, 2, 3), lattice_box(6, 6)
    graphs = [(gp, level_potential(gp, F(1, 2))), (box, unit_potential(box))]
    for _ in range(40):
        g = random_connected_graph(rand, rand.randint(2, 12))
        flagged = frozenset(v for v in g.vertices if rand.random() < 0.4)
        g = build_graph(g.vertices, edge_set(g), meta={"boundary": flagged})
        values = [F(rand.randint(1, 4), rand.randint(1, 4)) for _ in range(3)]
        graphs.append((g, {v: rand.choice(values) for v in g.vertices}))
    for g, pot in graphs:
        exact = exact_potential(g, pot)
        top = max(exact.values())
        ratios = sorted({exact[v] / top for v in g.boundary_vertices()} | {F(1)})
        deltas = {ratios[0] / 2, F(2), rand.choice(ratios)}
        if len(ratios) > 1:
            i = rand.randrange(len(ratios) - 1)
            deltas.add((ratios[i] + ratios[i + 1]) / 2)
        for delta in sorted(deltas):
            yield g, pot, ProxyParams(nonvanish_delta=delta, heavy_tau=F(rand.randint(2, 40)))


def test_rank_rule_equals_relative_potential_rule(rand):
    """The sweep's rank-form nonvanishing rule (potential rank against the
    bisected delta * top) gives the side counts, heavy flags and masses of
    `qualifier`/`is_heavy` at cluster-relative potentials, on clusters
    and on forest trees.  Clusters with 0, 1 and 2 or more nonvanishing
    vertices all occur: the first two take the closed-form side count."""
    exact_hits = 0
    by_hits = Counter()  # clusters by their number of nonvanishing vertices, capped at 2
    for g, pot, params in _rank_rule_cases(rand):
        for rec in sweep(g, pot, [0.5, 1.0], 1, rand.randrange(1000), params):
            cfg = bernoulli_sample(g, rec["p"], rec["seed"])
            sub = spanned_subgraph(g, cfg.open_edges)
            rel = relative_potential(sub, pot)
            old_rule = qualifier(sub, rel, params)
            exact_hits += any(rel[v] == params.nonvanish_delta for v in g.boundary_vertices())
            side = qualifying_side_counts(sub, old_rule)
            report = cluster_report(cfg, pot, params)
            heavy = 0
            for info in report.clusters:
                crel = {v: rel[v] for v in info.vertices}
                mass = sum(crel.values())
                assert info.mass == mass
                assert info.nonvanishing_side_count_max == max(side[v] for v in info.vertices)
                by_hits[min(2, sum(map(old_rule, info.vertices)))] += 1
                heavy_here = is_heavy(sub, params, mass, crel)
                assert info.cls == ("heavy" if heavy_here else "light")
                heavy += heavy_here
            assert rec["clusters"]["heavy"] == heavy
            kept = fwmsf(cfg, pot, assign_labels(g, rec["seed"])).kept
            tree_side = qualifying_side_counts(spanned_subgraph(g, kept), old_rule)
            trees_3plus = sum(1 for comp in components(sub)
                              if max(tree_side[v] for v in comp) >= 3)
            assert rec["forest"]["trees_with_3plus_nonvanishing_dirs"] == trees_3plus
    assert exact_hits > 0
    assert min(by_hits[0], by_hits[1], by_hits[2]) > 0, by_hits


def _scattered(rand, g):
    """g with its vertex ids sent to random sparse ids, out of their order,
    levels and boundary flags carried along: ids are not positions, and the
    canonical edge order is not g's."""
    ids = rand.sample(range(10 * len(g.vertices)), len(g.vertices))
    to = dict(zip(g.vertices, ids))
    meta = {"levels": {to[v]: lv for v, lv in g.meta["levels"].items()},
            "boundary": frozenset(to[v] for v in g.boundary_vertices())}
    return build_graph(ids, [(to[u], to[v]) for u, v in edge_set(g)], meta=meta)


def _sweep_cases(rand):
    """Random flagged graphs at random potentials, GP with level weights on
    scattered ids, a box, windmills and a free product."""
    for _ in range(12):
        g = random_connected_graph(rand, rand.randint(1, 12))
        flagged = frozenset(v for v in g.vertices if rand.random() < 0.4)
        g = build_graph(g.vertices, edge_set(g), meta={"boundary": flagged})
        yield g, random_potential(rand, g), ProxyParams(
            nonvanish_delta=F(rand.randint(1, 4), 4), heavy_tau=F(rand.randint(1, 6)))
    gp = _scattered(rand, gp_graph(2, 2, 3))
    yield gp, level_potential(gp, F(1, 2)), ProxyParams(nonvanish_delta=F(1, 4))
    box, wm, wm2 = lattice_box(5, 6), windmill(3, 2), windmill(4, 2)
    yield box, unit_potential(box), ProxyParams(heavy_tau=F(9))
    yield wm, unit_potential(wm), ProxyParams()
    yield wm2, unit_potential(wm2), ProxyParams(heavy_tau=F(3))
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 2, "h": 2}], max_word=2)
    yield fp, level_potential(fp, F(1, 2)), ProxyParams()


def test_sweep_equals_sweep_oracle(rand):
    """The position-array sweep gives the records of the id-keyed oracle run,
    at p = 0 (every cluster a singleton), 0.3, 0.7 and 1 (the whole host)."""
    grid = [0.0, 0.3, 0.7, 1.0]
    seen = Counter()
    for g, pot, params in _sweep_cases(rand):
        for seed in rand.sample(range(1000), 2):
            recs = sweep(g, pot, grid, 1, seed, params)
            assert recs == sweep_oracle(g, pot, grid, 1, seed, params), (sorted(edge_set(g)), seed)
            for r in recs:
                seen["deleted"] += r["forest"]["deleted"] > 0
                seen["3plus"] += r["forest"]["trees_with_3plus_nonvanishing_dirs"] > 0
                seen["heavy"] += r["clusters"]["heavy"] > 0
    assert min(seen.values()) > 0, seen


def test_sweep_keys_equal_edge_order_keys(rand, monkeypatch):
    """Each sweep run's key at every open edge is the value `EdgeOrder`
    gives the spanned open subgraph under the tiebreak of the open edges
    by decreasing label (ties: the lesser edge first), on random graphs,
    GP(2,3,5) and a box."""
    import wforest.percolation as perc
    runs, real = [], perc._keys

    def recorded(host, opened, label):
        out = real(host, opened, label)
        runs.append((list(opened), list(label), out[0]))
        return out

    monkeypatch.setattr(perc, "_keys", recorded)
    gp, box = gp_graph(2, 3, 5), lattice_box(12, 12)
    cases = [(gp, level_potential(gp, F(1, 2))), (box, unit_potential(box)),
             (box, random_potential(rand, box))]
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(2, 12))
        cases.append((g, random_potential(rand, g)))
    for g, pot in cases:
        runs.clear()
        sweep(g, pot, [0.3, 0.7, 1.0], 1, rand.randrange(1000), ProxyParams())
        assert len(runs) == 3
        names = g.ordered_edges
        for opened, label, key in runs:
            sub = spanned_subgraph(g, map(names.__getitem__, opened))
            tiebreak = sorted(opened, key=lambda i: (-label[i], i))
            order = EdgeOrder(sub, pot, map(names.__getitem__, tiebreak))
            assert [key[i] for i in opened] == order.keys
            assert all(key[i] is None for i in set(range(len(names))) - set(opened))


def test_sweep_equals_sweep_oracle_on_colliding_labels(monkeypatch):
    """Labels drawn from a few values collide: the records count the
    collisions, and the (-label, edge) tie rule orders the forest as the
    oracle's tiebreak does."""
    import wforest.percolation as perc

    def few_labels(seed, domain, n):
        draws = u64s(seed, domain, n)
        return draws if domain == "open" else [x % 3 for x in draws]

    monkeypatch.setattr(perc, "u64s", few_labels)
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    pot = level_potential(fp, F(1, 2))
    for g, p in ((fp, pot), (lattice_box(5, 5), unit_potential(lattice_box(5, 5)))):
        recs = sweep(g, p, [0.6, 1.0], 2, 11, ProxyParams())
        assert recs == sweep_oracle(g, p, [0.6, 1.0], 2, 11, ProxyParams(), draws=few_labels)
        assert all(r["label_collisions"] > 0 for r in recs)
        assert any(r["forest"]["deleted"] > 0 for r in recs)


def test_sweep_validates_the_potential_once_before_any_run(monkeypatch):
    """A sweep validates its potential and prepares its host on positions
    once (`weights._host`), and a bad potential fails before any run starts."""
    import wforest.percolation as perc
    import wforest.weights as weights
    calls, layouts = [], []
    real, real_host = weights.exact_potential, weights._host

    def counted(g, potential):
        calls.append(len(g.vertices))
        return real(g, potential)

    def counted_host(g, potential):
        layouts.append(len(edge_set(g)))
        return real_host(g, potential)

    monkeypatch.setattr(weights, "exact_potential", counted)
    monkeypatch.setattr(perc, "_host", counted_host)
    g = lattice_box(4, 4)
    recs = sweep(g, unit_potential(g), [0.3, 0.6, 0.9], 2, 4, ProxyParams())
    assert len(recs) == 6 and calls == [len(g.vertices)] and layouts == [len(edge_set(g))]

    def no_runs(*args):
        raise AssertionError("a run started on a bad potential")

    monkeypatch.setattr(perc, "_run_once", no_runs)
    bad = unit_potential(g)
    del bad[5]
    with pytest.raises(MissingVertex):
        sweep(g, bad, [0.5], 1, 0, ProxyParams())


def test_sweep_records_follow_the_grid_then_the_trials():
    """Records come in p-grid order, unsorted grids included, then trial
    order, each run seeded by its p index and trial."""
    g = lattice_box(4, 4)
    grid = [0.9, 0.5, 0.7]
    recs = sweep(g, unit_potential(g), grid, 3, 6, ProxyParams())
    assert [(r["p"], r["trial"]) for r in recs] == [(p, t) for p in grid for t in range(3)]
    assert [r["seed"] for r in recs] == [subseed(6, "run", pi, t)
                                         for pi in range(3) for t in range(3)]


def test_largest_cluster_fraction_monotone_small():
    g = lattice_box(12, 12)
    wins = 0
    for seed in range(20):
        hi = largest_cluster_fraction(bernoulli_sample(g, 0.6, seed))
        lo = largest_cluster_fraction(bernoulli_sample(g, 0.4, seed))
        wins += hi > lo
    assert wins >= 18


def test_sweep_runs_witness_checks(rand):
    # the sweep itself asserts cut witnesses and trees == clusters on every
    # run; reaching here means no violation was raised
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 2, "h": 2}], max_word=2)
    recs = sweep(fp, level_potential(fp, F(1, 2)), [0.4, 0.8], 3, 9, ProxyParams())
    assert all(r["forest"]["witness_violations"] == 0 for r in recs)


def test_sweep_raises_when_forest_trees_differ_from_clusters(monkeypatch):
    import wforest.percolation as perc
    real = perc._greedy

    def drop_one_kept_edge(*args):
        kept, deleted = real(*args)
        return [e for e in kept if e != min(kept)], deleted

    monkeypatch.setattr(perc, "_greedy", drop_one_kept_edge)
    g = lattice_box(4, 4)
    run_seed = subseed(5, "run", 0, 0)
    with pytest.raises(InvariantViolation,
                       match=rf"p=0\.6, seed={run_seed}, trial=0"):
        sweep(g, unit_potential(g), [0.6], 1, 5, ProxyParams())


def test_sweep_raises_when_kept_edges_close_a_cycle(monkeypatch):
    """A kept edge off a deleted edge's kept path swapped for that deleted
    edge: the kept count, so trees == clusters, is unchanged, but the kept
    set closes a cycle, and the violation names the run."""
    import wforest.percolation as perc
    real = perc._greedy

    def swap_kept_for_deleted(g, edges):
        kept, deleted = real(g, edges)
        rooted = _root(g, kept)
        for d in deleted:
            on_path = set(_path(rooted, g.eu[d], g.ev[d]))
            off = [f for f in kept if f not in on_path]
            if off:
                kept = [f for f in kept if f != off[0]] + [d]
                deleted = [f for f in deleted if f != d] + [off[0]]
                return kept, deleted
        raise AssertionError("no kept edge off a deleted edge's path")

    monkeypatch.setattr(perc, "_greedy", swap_kept_for_deleted)
    g = lattice_box(4, 4)
    run_seed = subseed(5, "run", 0, 0)
    with pytest.raises(InvariantViolation,
                       match=rf"kept edges close a cycle \(p=0\.9, seed={run_seed}, trial=0\)"):
        sweep(g, unit_potential(g), [0.9], 1, 5, ProxyParams())


def test_cut_witness_violation_names_its_run_and_edge(monkeypatch, tmp_path, capsys):
    """A cut-witness violation in a sweep run names p, seed, trial and the
    first violating edge with its reason; `wforest percolate` reports it as
    exit 3 with an `invariant_violation` JSON line and writes nothing.  The
    planted check passes the first run of each sweep and fails the second."""
    import wforest.percolation as perc
    real, calls = perc._scan_witnesses, []

    def planted(g, rooted, key, deleted, edges):
        calls.append(1)
        if len(calls) % 2:
            return real(g, rooted, key, deleted, edges)
        names = g.ordered_edges
        return [(names.index((0, 1)), "planted reason"), (names.index((1, 2)), "later")], {}

    monkeypatch.setattr(perc, "_scan_witnesses", planted)
    g = lattice_box(4, 4)
    message = (rf"deleted edge \(0, 1\): planted reason "
               rf"\(p=0\.7, seed={subseed(5, 'run', 0, 1)}, trial=1\)$")
    with pytest.raises(InvariantViolation, match=message):
        sweep(g, unit_potential(g), [0.7], 2, 5, ProxyParams())
    (tmp_path / "g.json").write_text(to_json(g))
    (tmp_path / "w.json").write_text('{"unit":true}')
    out = tmp_path / "out.jsonl"
    assert cli_main(["percolate", str(tmp_path / "g.json"), str(tmp_path / "w.json"),
                     "--p-grid", "0.7", "--trials", "2", "--seed", "5",
                     "-o", str(out)]) == 3
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "invariant_violation"
    assert doc["message"] == ("cut-witness violation at deleted edge (0, 1): planted "
                              f"reason (p=0.7, seed={subseed(5, 'run', 0, 1)}, trial=1)")
    assert not out.exists()
