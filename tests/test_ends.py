from bisect import bisect_left
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import networkx as nx
import pytest

from wforest.ends import (
    _KINDS,
    FINITE,
    INFINITE,
    NONVANISHING,
    ProxyParams,
    _component_rows,
    _SideIndex,
    collapsed_maximal_subforest,
    find_furcation_vertices,
    maximal_disjoint_furcations,
    qualifier,
    qualifying_side_counts,
    quotient,
    visibility_masses,
)
from wforest.errors import (
    BadParams,
    MissingVertex,
    NonPositiveWeight,
    NotConnected,
    OverlappingBlocks,
    UnknownId,
)
from wforest.forest import is_acyclic, maximal_subforest
from wforest.generators import free_product, gp_graph, lattice_box, regular_tree, windmill
from wforest.graph import build_graph, components, edge, edge_boundary, spanned_subgraph
from wforest.weights import EdgeOrder, _host, level_potential, unit_potential

from conftest import (
    _side_orders,
    adjacency,
    brute_visibility,
    connected_subsets,
    edge_set,
    furcation_family_oracle,
    greedy_max_forest,
    is_heavy,
    mark_totals,
    qualifying_marks,
    quotient_oracle,
    quotient_order_oracle,
    random_connected_graph,
    random_potential,
    random_tiebreak,
    side_pieces,
    sides_order,
    visibility,
)


def test_proxy_params_positive():
    with pytest.raises(BadParams):
        ProxyParams(nonvanish_delta=F(0))


def gp_with_potential(up=2, down=3):
    g = gp_graph(2, up, down)
    return g, level_potential(g, F(1, 2))


def side_kind(g, pot, side, params):
    """A side's proxy class: the first kind that `qualifier` accepts one of
    its vertices for, else finite."""
    return next((kind for kind in (NONVANISHING, INFINITE)
                 if any(map(qualifier(g, pot, params, kind), side))), FINITE)


def test_classify_side_gp_directions():
    # grandparent edges keep single vertices from cutting the graph, so the
    # root's descendant cones detach only once its parent joins the cut set
    g, pot = gp_with_potential()
    root = g.meta["root"]
    lv = g.meta["levels"]
    par = next(v for v in g.neighbors(root) if lv[v] == lv[root] - 1)
    params = ProxyParams(nonvanish_delta=F(1))
    tagged = {s: side_kind(g, pot, s, params)
              for s in side_pieces(g, [root, par])}
    up_sides = [vs for vs in tagged if any(lv[v] < 0 for v in vs)]
    down_sides = [vs for vs in tagged if vs not in up_sides]
    assert up_sides and len(down_sides) == 2  # one per child cone of the root
    for vs in up_sides:
        assert tagged[vs] == NONVANISHING  # boundary ancestor weighs >= 1
    for vs in down_sides:
        assert tagged[vs] == INFINITE      # descendants weigh < 1 but reach the rim


def test_classify_side_interior_is_finite():
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3)],
                    meta={"boundary": frozenset({0})})
    params = ProxyParams()
    tagged = [side_kind(g, unit_potential(g), s, params) for s in side_pieces(g, [1])]
    assert sorted(tagged) == [FINITE, NONVANISHING]


def test_furcation_vertices_regular_tree():
    t = regular_tree(3, 3)
    pot = unit_potential(t)
    found = find_furcation_vertices(t, pot, 3, ProxyParams())
    interior = tuple(v for v in t.vertices if not t.is_boundary(v))
    assert found == interior


def test_lattice_interior_is_no_furcation():
    box = lattice_box(5, 5)
    pot = unit_potential(box)
    x = 12  # center: complement stays connected, one side only
    counts = qualifying_side_counts(box, qualifier(box, pot, ProxyParams(), INFINITE))
    assert counts[x] == 1


def test_gp_free_product_attachment_vertices():
    # frozen from brute enumeration: with delta = w(x), the distinguished-end
    # top of the root gp copy shows 3 nonvanishing sides (two child cones
    # reach nested up-chains, plus its own box); ordinary attachment vertices
    # show 2
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    pot = level_potential(fp, F(1, 2))
    gp_verts, z2_verts = set(), set()
    for u, v, fidx in fp.meta["edge_factors"]:
        (gp_verts if fidx == 0 else z2_verts).update((u, v))
    attach = sorted(gp_verts & z2_verts)
    orders = {}
    for x in attach:
        params = ProxyParams(nonvanish_delta=pot[x])
        orders[x] = qualifying_side_counts(fp, qualifier(fp, pot, params))[x]
    top = 0  # id of the root copy's top ancestor
    assert orders[top] == 3
    assert all(v == 2 for x, v in orders.items() if x != top)


def test_furcation_monotonicity(rand):
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(4, 9))
        g = build_graph(g.vertices, edge_set(g), meta={
            "boundary": frozenset(v for v in g.vertices if rand.random() < 0.4)})
        pot = random_potential(rand, g)
        params = ProxyParams(nonvanish_delta=F(1, 2))
        counts = {kind: qualifying_side_counts(g, qualifier(g, pot, params, kind))
                  for kind in (NONVANISHING, INFINITE)}
        for x in g.vertices:
            weighted, plain = counts[NONVANISHING][x], counts[INFINITE][x]
            assert weighted <= plain
            # a w-trifurcation is a w-bifurcation by definition of the counts
            if weighted >= 3:
                assert weighted >= 2


def test_connected_subsets_enumeration():
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    subs = list(connected_subsets(g, 3))
    assert len([s for s in subs if len(s) == 1]) == 4
    assert len([s for s in subs if len(s) == 2]) == 4
    assert len([s for s in subs if len(s) == 3]) == 4
    assert len(set(subs)) == len(subs)
    assert subs == sorted(subs, key=lambda t: (len(t), t))


def test_windmill_hubs_enter_phase_one():
    w = windmill(4, 2)
    pot = unit_potential(w)
    fam = maximal_disjoint_furcations(w, pot, ProxyParams())
    phase1 = [b for b, ph in zip(fam.blocks, fam.phases) if ph == 1]
    interior_hubs = {(i,) for i in range(1, 3)}
    assert interior_hubs <= set(phase1)


def test_family_empty_without_boundary(rand):
    g = random_connected_graph(rand, 8)
    fam = maximal_disjoint_furcations(g, unit_potential(g), ProxyParams())
    assert fam.blocks == ()


def test_family_disjoint_and_deterministic(rand):
    for _ in range(10):
        g = random_connected_graph(rand, rand.randint(5, 10))
        g = build_graph(g.vertices, edge_set(g), meta={
            "boundary": frozenset(v for v in g.vertices if rand.random() < 0.5)})
        pot = random_potential(rand, g)
        fam = maximal_disjoint_furcations(g, pot, ProxyParams(nonvanish_delta=F(1, 3)))
        seen = set()
        for b in fam.blocks:
            assert not (set(b) & seen)
            seen |= set(b)
        again = maximal_disjoint_furcations(g, pot, ProxyParams(nonvanish_delta=F(1, 3)))
        assert again.blocks == fam.blocks and again.phases == fam.phases


def test_quotient_identity_and_path():
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3)])
    pot = unit_potential(g)
    q0 = quotient(g, pot, ())
    assert edge_set(q0.qgraph) == edge_set(g) and q0.qgraph.vertices == g.vertices
    assert all(q0.lift[e] == e for e in edge_set(g))
    q = quotient(g, pot, [(1, 2)])
    assert q.qgraph.vertices == (0, 1, 3)
    assert edge_set(q.qgraph) == frozenset({(0, 1), (1, 3)})


def test_quotient_block_potential_is_max():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    q = quotient(g, {1: F(2), 2: F(5), 3: F(1)}, [(1, 2)])
    assert q.qpotential[1] == F(5)


def test_quotient_rejects_overlap():
    g = build_graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(OverlappingBlocks):
        quotient(g, unit_potential(g), [(0, 1), (1, 2)])


def test_quotient_rejects_bad_blocks():
    """Each block is checked in turn: an unknown id first, then
    connectivity (an empty block is not connected), then overlap with the
    blocks before it."""
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3)])
    pot = unit_potential(g)
    with pytest.raises(UnknownId):
        quotient(g, pot, [(0, 9)])
    with pytest.raises(UnknownId):
        quotient(g, pot, [(1, 2), (0, 3, 9)])  # unknown before disconnected
    with pytest.raises(NotConnected):
        quotient(g, pot, [()])
    with pytest.raises(NotConnected):
        quotient(g, pot, [(0, 2)])
    with pytest.raises(NotConnected):
        quotient(g, pot, [(0, 1), (1, 3)])  # disconnected before overlapping
    with pytest.raises(OverlappingBlocks):
        quotient(g, pot, [(0, 1), (1, 2), (0, 3, 9)])  # an earlier block decides


def test_quotient_follows_its_literal_rule(rand):
    """On random potentials, which tie often, and random disjoint edge
    blocks: each lift is the least host edge among those whose end
    potentials, greater first, are greatest; a block's potential is its
    members' greatest; and the quotient graph is the one `build_graph`
    gives on the block ids and the block pairs."""
    several = 0
    for _ in range(300):
        h = random_connected_graph(rand, rand.randint(2, 12))
        flags = frozenset(v for v in h.vertices if rand.random() < 0.3)
        g = build_graph(h.vertices, edge_set(h), {"boundary": flags})
        pot = random_potential(rand, g)
        used, family = set(), []
        for e in rand.sample(sorted(edge_set(g)), len(edge_set(g))):
            if not used.intersection(e) and rand.random() < 0.5:
                used.update(e)
                family.append(e)
        q = quotient(g, pot, family)
        hosts = {}
        for u, v in sorted(edge_set(g)):
            if q.block_of[u] != q.block_of[v]:
                hosts.setdefault(edge(q.block_of[u], q.block_of[v]), []).append((u, v))
        assert q.lift.keys() == hosts.keys()
        for qe, es in hosts.items():
            def pair(e):
                return sorted((pot[e[0]], pot[e[1]]), reverse=True)
            best = max(map(pair, es))
            assert q.lift[qe] == min(e for e in es if pair(e) == best)
            several += len(es) > 1
        assert q.qpotential == {b[0]: max(pot[v] for v in b) for b in q.blocks}
        qflags = frozenset(b[0] for b in q.blocks if flags.intersection(b))
        assert q.qgraph == build_graph([b[0] for b in q.blocks], hosts,
                                       {"generator": "quotient", "boundary": qflags})
    assert several >= 100


def random_blocks(rand, g):
    """Disjoint connected blocks of 1 to 5 vertices, each grown from a
    random free vertex through random free neighbours."""
    used, family = set(), []
    for root in rand.sample(g.vertices, len(g.vertices)):
        if root in used or rand.random() < 0.5:
            continue
        block, size = [root], rand.randint(1, 5)
        used.add(root)
        while len(block) < size:
            free = [y for x in block for y in g.neighbors(x) if y not in used]
            if not free:
                break
            y = rand.choice(free)
            used.add(y)
            block.append(y)
        family.append(tuple(rand.sample(block, len(block))))
    return family


def test_quotient_equals_its_oracle(rand):
    """`quotient` is `==` to the member-list oracle in every field, and its
    `lift`, `qpotential`, `block_of` and `inner_trees` list their keys in
    the oracle's order: on random graphs with random flags, potentials and
    blocks, and on the families' own furcation families."""
    cases = []
    for _ in range(200):
        h = random_connected_graph(rand, rand.randint(1, 16))
        if rand.random() < 0.3:  # a second component, on ids above the first
            k = random_connected_graph(rand, rand.randint(1, 6))
            shift = len(h.vertices) + rand.randint(0, 5)
            h = build_graph([*h.vertices, *(v + shift for v in k.vertices)],
                            [*edge_set(h), *((u + shift, v + shift) for u, v in edge_set(k))])
        flags = frozenset(v for v in h.vertices if rand.random() < 0.3)
        g = build_graph(h.vertices, edge_set(h), {"boundary": flags})
        cases.append((g, random_potential(rand, g), random_blocks(rand, g)))
    gp = gp_graph(2, 2, 4)
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 2},
                       {"family": "lattice_box", "w": 3, "h": 3}], 2)
    for g, pot in ((gp, level_potential(gp)), (lattice_box(12, 12), None),
                   (windmill(4, 3), None), (windmill(6, 6), None), (fp, level_potential(fp))):
        pot = pot or unit_potential(g)
        for s_max in (1, 3, 4):
            cases.append((g, pot, maximal_disjoint_furcations(g, pot, ProxyParams(), s_max).blocks))
        cases.append((g, pot, ()))
        cases.append((g, pot, random_blocks(rand, g)))
    assert sum(len(fam) > 1 for _, _, fam in cases) >= 150
    for g, pot, fam in cases:
        got, want = quotient(g, pot, fam), quotient_oracle(g, pot, fam)
        assert got == want
        for field in ("lift", "qpotential", "block_of", "inner_trees"):
            assert list(getattr(got, field)) == list(getattr(want, field))


def test_quotient_preserves_component_count(rand):
    for _ in range(20):
        a = random_connected_graph(rand, rand.randint(3, 8))
        shift = max(a.vertices) + 1
        b = random_connected_graph(rand, rand.randint(3, 8))
        g = build_graph(list(a.vertices) + [v + shift for v in b.vertices],
                        list(edge_set(a)) + [(u + shift, v + shift) for u, v in edge_set(b)])
        pot = random_potential(rand, g)
        fam = []
        for comp in components(g):
            fam.append(tuple(sorted(rand.sample(comp, 1))))
        q = quotient(g, pot, fam)
        assert len(components(q.qgraph)) == len(components(g))


def test_quotient_boundary_correspondence(rand):
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(4, 9))
        pot = random_potential(rand, g)
        # blocks: one random edge contracted
        e = sorted(edge_set(g))[rand.randrange(len(edge_set(g)))]
        q = quotient(g, pot, [e])
        blocks = {b[0]: set(b) for b in q.blocks}
        chosen = set(rand.sample(sorted(blocks), rand.randint(1, len(blocks))))
        union = set()
        for bid in chosen:
            union |= blocks[bid]
        host_bd = edge_boundary(g, union)
        q_bd = edge_boundary(q.qgraph, chosen)
        crossing_pairs = {
            tuple(sorted((q.block_of[u], q.block_of[v]))) for u, v in host_bd
            if q.block_of[u] != q.block_of[v]
        }
        assert crossing_pairs == set(q_bd)
        assert bool(host_bd) == bool(q_bd) or not crossing_pairs


def test_collapse_windmill_and_random(rand):
    w = windmill(3, 3)
    cases = [(w, unit_potential(w), w.meta["tiebreak"])]
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(4, 10))
        g = build_graph(g.vertices, edge_set(g), meta={
            "boundary": frozenset(v for v in g.vertices if rand.random() < 0.4)})
        cases.append((g, random_potential(rand, g), None))
    for g, pot, tb in cases:
        res = collapsed_maximal_subforest(g, pot, tb, ProxyParams())
        assert is_acyclic(g, res.forest.kept)
        inner = set()
        for t in res.quot.inner_trees.values():
            inner |= t
        lifted = {res.quot.lift[qe] for qe in res.qforest.kept}
        assert res.forest.kept == frozenset(lifted | inner)
        # forest mod family equals the quotient forest, via the lift map
        back = {qe for qe in edge_set(res.quot.qgraph)
                if res.quot.lift[qe] in res.forest.kept}
        assert back == set(res.qforest.kept)
        # every family block internally spanned
        for bid, tree in res.quot.inner_trees.items():
            block = next(b for b in res.quot.family if b[0] == bid)
            assert len(tree) == len(block) - 1


def test_collapse_quotient_order_equals_its_oracle(rand):
    """The quotient forest is the greedy forest under the (weight, host
    tiebreak rank of the lift) order: on random graphs with random flags,
    tiebreaks and potentials, on GP at delta 1 and 1/64, on windmills
    under the meta tiebreak and on a free product, at s_max 1 to 4."""
    cases = []
    for _ in range(40):
        g = random_connected_graph(rand, rand.randint(4, 12))
        g = build_graph(g.vertices, edge_set(g), meta={
            "boundary": frozenset(v for v in g.vertices if rand.random() < 0.4)})
        cases.append((g, random_potential(rand, g), random_tiebreak(rand, g), ProxyParams()))
    gp = gp_graph(2, 2, 4)
    for delta in (F(1), F(1, 64)):
        cases.append((gp, level_potential(gp), None, ProxyParams(nonvanish_delta=delta)))
    for w in (windmill(4, 3), windmill(6, 6)):
        cases.append((w, unit_potential(w), w.meta["tiebreak"], ProxyParams()))
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=1)
    cases.append((fp, level_potential(fp), random_tiebreak(rand, fp), ProxyParams()))
    merged = 0
    for g, pot, tb, params in cases:
        for s_max in (1, 2, 3, 4):
            res = collapsed_maximal_subforest(g, pot, tb, params, s_max)
            key = quotient_order_oracle(g.ordered_edges if tb is None else tb, res.quot)
            want = greedy_max_forest(res.quot.qgraph, SimpleNamespace(key=key))
            assert res.qforest.kept == want
            assert res.qforest.deleted == edge_set(res.quot.qgraph) - want
            merged += len(res.quot.lift) < len(edge_set(g)) - sum(
                len(t) for t in res.quot.inner_trees.values())
    assert merged >= 30


def test_collapse_with_empty_family_matches_plain(rand):
    g = random_connected_graph(rand, 8)
    pot = random_potential(rand, g)
    res = collapsed_maximal_subforest(g, pot, None, ProxyParams())
    assert res.family.blocks == ()
    plain = maximal_subforest(g, EdgeOrder(g, pot))
    assert res.forest.kept == plain.kept


def test_mf_3ends_finite_shadow():
    # a proxy w-trifurcation vertex keeps >= 3 nonvanishing directions in the
    # forest computed on the same graph
    w = windmill(5, 2)
    pot = unit_potential(w)
    params = ProxyParams()
    trifs = find_furcation_vertices(w, pot, 3, params)
    assert trifs
    o = EdgeOrder(w, pot, w.meta["tiebreak"])
    kept_sub = spanned_subgraph(w, maximal_subforest(w, o).kept)
    counts = qualifying_side_counts(kept_sub, qualifier(kept_sub, pot, params))
    for x in trifs:
        assert counts[x] >= 3


def brute_mass(g, potential, x):
    """x's visibility mass read off `brute_visibility`."""
    rel = {y: F(potential[y]) / F(potential[x]) for y in g.vertices}
    return sum(rel[y] for y in brute_visibility(g, rel, x))


def test_visibility_basics():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    for pot in ({1: 1, 2: 2, 3: 1}, unit_potential(g)):
        assert visibility_masses(g, pot) == {x: brute_mass(g, pot, x) for x in g.vertices}
    assert visibility_masses(g, {1: 1, 2: 2, 3: 1})[1] == 1  # 1 sees only itself
    assert visibility_masses(g, unit_potential(g))[2] == 3


def test_visibility_gp_descendant_cone():
    g, pot = gp_with_potential(up=2, down=4)
    root = g.meta["root"]
    vis = visibility(g, pot, root)
    lv = g.meta["levels"]
    # exactly the root's descendants inside the truncation
    assert all(lv[v] >= 0 for v in vis)
    assert len(vis) == 2 ** 5 - 1
    mass = visibility_masses(g, pot)[root]
    assert mass == sum(vis.values()) == 4 + 1
    assert is_heavy(g, ProxyParams(), mass, vis)


def test_visibility_mass_singleton_light():
    g = build_graph([1, 2], [(1, 2)])
    pot = {1: 1, 2: 3}
    mass = visibility_masses(g, pot)[1]
    assert mass == 1 == brute_mass(g, pot, 1)
    assert not is_heavy(g, ProxyParams(heavy_tau=F(2)), mass, visibility(g, pot, 1))


def test_visibility_constant_weight_box():
    box = lattice_box(4, 4)
    pot = unit_potential(box)
    vis = visibility(box, pot, 0)
    assert len(vis) == 16
    mass = visibility_masses(box, pot)[0]
    assert mass == 16
    assert not is_heavy(box, ProxyParams(heavy_tau=F(100), nonvanish_delta=F(2)), mass, vis)


def test_visibility_against_brute_force(rand):
    for _ in range(60):
        g = random_connected_graph(rand, rand.randint(2, 9))
        pot = random_potential(rand, g)
        x = rand.choice(g.vertices)
        assert visibility_masses(g, pot)[x] == brute_mass(g, pot, x)
    # open subgraphs are disconnected: only x's component may be read, and
    # the search reference agrees with the brute force
    for _ in range(60):
        host = random_connected_graph(rand, rand.randint(2, 9))
        g = spanned_subgraph(host, [e for e in host.sorted_edges() if rand.random() < 0.5])
        potential = random_potential(rand, g)
        x = rand.choice(g.vertices)
        rel = {y: potential[y] / potential[x] for y in g.vertices}
        vis = visibility(g, potential, x)
        assert set(vis) == brute_visibility(g, rel, x)
        assert vis == {y: rel[y] for y in vis}
        assert visibility_masses(g, potential)[x] == sum(vis.values())


def test_visibility_masses_equal_bfs(rand):
    cases = []
    for _ in range(300):
        g = random_connected_graph(rand, rand.randint(1, 10))
        if rand.random() < 0.5:
            g = spanned_subgraph(g, [e for e in g.sorted_edges() if rand.random() < 0.6])
        values = rand.sample([F(1, 2), F(1), F(3, 2), F(2)], rand.randint(2, 3))
        cases.append((g, {v: rand.choice(values) for v in g.vertices}))
    assert sum(1 for g, _ in cases if len(components(g)) > 1) > 50
    gp, w = gp_graph(2, 3, 5), windmill(6, 6)
    cases += [(gp, level_potential(gp, F(1, 2))), (w, unit_potential(w))]
    for g, pot in cases:
        masses = visibility_masses(g, pot)
        assert masses == {x: sum(visibility(g, pot, x).values()) for x in g.vertices}, \
            (sorted(edge_set(g)), pot)


def test_side_count_dp_matches_naive(rand):
    cases = [(g, pot, ProxyParams(nonvanish_delta=F(1, 2))) for g, pot in _family_cases()]
    for _ in range(300):
        g = _random_flagged_graph(rand)
        pot = random_potential(rand, g)
        if rand.random() < 0.4:  # the sweep counts sides on its kept forest
            g = spanned_subgraph(g, maximal_subforest(g, EdgeOrder(g, pot)).kept)
        cases.append((g, pot, _random_params(rand)))
    assert sum(1 for g, _, _ in cases if len(components(g)) > 1) > 40
    assert sum(1 for g, _, _ in cases if is_acyclic(g, edge_set(g)) and len(edge_set(g)) > 3) > 50
    for g, pot, params in cases:
        for kind in (NONVANISHING, INFINITE):
            dp = qualifying_side_counts(g, qualifier(g, pot, params, kind))
            naive = {x: sides_order(g, pot, (x,), params, kind) for x in g.vertices}
            assert dp == naive, (kind, sorted(edge_set(g)))
            for n in (1, 2, 3):
                assert find_furcation_vertices(g, pot, n, params, kind) == \
                    tuple(x for x in g.vertices if naive[x] >= n)


def test_component_rows_match_one_side_search_per_vertex(rand):
    """`analyze`'s per-component rows, on the prepared host: on random
    graphs of several components, with ids interleaved across them, random
    flags, potentials and delta (often a value the potential takes), and an
    isolated vertex flagged and one not, each row is its component's
    (`components`) size, least vertex and counts of vertices with n or
    more nonvanishing sides by one side search per singleton (`sides_order`)."""
    for _ in range(200):
        vertices, edges = [], []
        for _ in range(rand.randint(1, 4)):
            h, base = random_connected_graph(rand, rand.randint(1, 7)), len(vertices)
            vertices += [v + base for v in h.vertices]
            edges += [(u + base, v + base) for u, v in h.ordered_edges]
        lone = [len(vertices), len(vertices) + 1]  # isolated; the first is flagged
        to = dict(zip(vertices + lone, rand.sample(range(3 * len(vertices) + 6), len(vertices) + 2)))
        flags = {to[v] for v in vertices if rand.random() < 0.4} | {to[lone[0]]}
        g = build_graph(to.values(), [(to[u], to[v]) for u, v in edges],
                        {"boundary": frozenset(flags)})
        pot = random_potential(rand, g)
        delta = rand.choice([*pot.values(), F(rand.randint(1, 6), rand.randint(1, 6))])
        params = ProxyParams(nonvanish_delta=delta)
        want = []
        for comp in components(g):
            sides = [sides_order(g, pot, (x,), params, NONVANISHING) for x in comp]
            want.append({"size": len(comp), "least_vertex": comp[0],
                         "furcation_vertex_counts": {str(n): sum(1 for c in sides if c >= n)
                                                     for n in (1, 2, 3)}})
        assert _component_rows(_host(g, pot), params) == want, (sorted(edge_set(g)), flags)


def test_qualifier_rule():
    g = build_graph(range(3), [(0, 1), (1, 2)], meta={"boundary": frozenset({0, 2})})
    pot = {0: F(1), 1: F(5), 2: F(1, 3)}
    params = ProxyParams(nonvanish_delta=F(1, 2))
    assert [qualifier(g, pot, params)(v) for v in g.vertices] == [True, False, False]
    assert [qualifier(g, pot, params, INFINITE)(v) for v in g.vertices] == [True, False, True]
    # a potential on part of g serves every vertex it covers or that is unflagged
    assert [qualifier(g, {0: F(1)}, params)(v) for v in (0, 1)] == [True, False]
    with pytest.raises(ValueError):
        qualifier(g, pot, params, FINITE)


def test_connected_subsets_against_brute_force(rand):
    import itertools
    graphs = [random_connected_graph(rand, rand.randint(3, 8)) for _ in range(15)]
    for g in graphs[:5]:
        graphs += [_relabelled(g, {}, to)[0] for to in _relabellings(rand, g)]
    for g in graphs:
        from wforest.graph import is_connected_set
        brute = []
        for k in (1, 2, 3, 4, 5):
            for combo in itertools.combinations(g.vertices, k):
                if is_connected_set(g, combo):
                    brute.append(combo)
        brute.sort(key=lambda t: (len(t), t))
        for s_max in (3, 4, 5):
            assert list(connected_subsets(g, s_max)) == \
                [t for t in brute if len(t) <= s_max]


def test_connected_subsets_do_not_recurse():
    """Sets larger than the recursion limit allows are built without
    recursion: the limit is set 60 frames above the current depth."""
    import sys
    g = build_graph(range(120), [(v, v + 1) for v in range(119)])
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        subs = list(connected_subsets(g, 110))
    finally:
        sys.setrecursionlimit(limit)
    # every path segment of at most 110 vertices, shortest first
    assert subs == [tuple(range(v, v + k)) for k in range(1, 111) for v in range(121 - k)]


def test_family_memory_stays_small():
    """The family holds one candidate group at a time, not every candidate:
    at windmill(6,6) and s_max 4 the whole candidate list took about 1.1 MB
    of traced memory; the family, one group at a time and with its side
    index and merge-sort tree, peaks at about 0.18 MB."""
    import tracemalloc
    g = windmill(6, 6)
    pot = unit_potential(g)
    tracemalloc.start()
    try:
        maximal_disjoint_furcations(g, pot, ProxyParams(), s_max=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 400_000


def _random_flagged_graph(rand):
    """A random graph on 1-10 vertices, half the time with about a third
    of its edges dropped (often disconnected), with random boundary flags."""
    g = random_connected_graph(rand, rand.randint(1, 10))
    edges = edge_set(g)
    if rand.random() < 0.5:
        edges = [e for e in g.sorted_edges() if rand.random() < 0.7]
    share = rand.random()
    return build_graph(g.vertices, edges, meta={
        "boundary": frozenset(v for v in g.vertices if rand.random() < share)})


def _relabellings(rand, g):
    """Three renamings of g's ids, so that ids are not positions: random
    scattered ids, random negative ids, and v -> 5000 - 7v, which reverses
    their order."""
    n = len(g.vertices)
    return [dict(zip(g.vertices, rand.sample(range(10 * n), n))),
            dict(zip(g.vertices, rand.sample(range(-10 * n, 0), n))),
            {v: 5000 - 7 * v for v in g.vertices}]


def _relabelled(g, pot, to):
    """g and the potential pot with each vertex v renamed to[v], levels and
    boundary flags carried along."""
    meta = {"boundary": frozenset(to[v] for v in g.boundary_vertices())}
    if "levels" in g.meta:
        meta["levels"] = {to[v]: level for v, level in g.meta["levels"].items()}
    h = build_graph([to[v] for v in g.vertices], [(to[u], to[v]) for u, v in edge_set(g)], meta)
    return h, {to[v]: x for v, x in pot.items()}


def _random_params(rand):
    return ProxyParams(nonvanish_delta=F(rand.randint(1, 6), rand.randint(1, 6)))


def _family_cases():
    w = windmill(4, 3)
    gp = gp_graph(2, 2, 4)
    box = lattice_box(5, 5)
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=1)
    return [(w, unit_potential(w)), (gp, level_potential(gp, F(1, 2))),
            (box, unit_potential(box)), (fp, level_potential(fp, F(1, 2)))]


def test_family_equals_sides_oracle(rand):
    # (graph, potential, params, largest s_max); s_max 4 and 5 stream several
    # size groups, and run on the small random graphs, where the oracle is fast
    cases = [(g, pot, params, 3) for g, pot in _family_cases()
             for params in (ProxyParams(), ProxyParams(nonvanish_delta=F(1, 2)))]
    for _ in range(400):
        g = _random_flagged_graph(rand)
        cases.append((g, random_potential(rand, g), _random_params(rand), 5))
    # the same inputs on ids that are not positions, one renaming each
    for i, (g, pot, params, top) in enumerate(cases[:8] + cases[8::2]):
        cases.append((*_relabelled(g, pot, _relabellings(rand, g)[i % 3]), params, top))
    assert sum(1 for g, *_ in cases if len(components(g)) > 1) > 60
    for g, pot, params, top in cases:
        for s_max in range(1, top + 1):
            got = maximal_disjoint_furcations(g, pot, params, s_max=s_max)
            want = furcation_family_oracle(g, pot, params, s_max=s_max)
            assert got == want, (s_max, sorted(edge_set(g)), g.boundary_vertices())


def _positions(g, F):
    """The positions in g of the vertex ids F."""
    return tuple(bisect_left(g.vertices, v) for v in F)


def _side_index(g, pot, params):
    """A side index of g's components with two or more flagged vertices,
    each searched from its least vertex, the id-keyed marks, and each
    indexed vertex id's component totals.  `maximal_disjoint_furcations`
    searches from the flagged vertices instead; the index answers the same
    from any roots."""
    marks = qualifying_marks(g, pot, params)
    total_of = {}
    for comp in components(g):
        total = mark_totals(marks, comp)
        if total[1] >= 2:  # two flagged vertices: the family enumerates no other component
            total_of.update(dict.fromkeys(comp, total))
    flags = [[marks.get(v, (0, 0))[k] for v in g.vertices] for k in range(2)]
    return _SideIndex(g, _positions(g, sorted(total_of)), flags), marks, total_of


def _rule(index, g, F):
    """The rule of `_SideIndex.orders` that answers the positions F: (a) F
    a DFS subtree; (b) every DFS piece's least neighbour outside F, one
    side; (c) the pieces joined."""
    at = sorted(index.pos[v] for v in F)
    if sum(index.parent[i] not in at for i in at) == 1:
        return "a"
    kids = [c for c in {index.pos[y] for v in F for y in g.near[v]}
            if index.parent[c] in at and c not in at]
    if all(min(index._least(*span) for span in index._piece(c, at)) not in at for c in kids):
        return "b"
    return "c"


def _index_rules(g, pot, params, s_max, rules):
    """Holds the side index of `maximal_disjoint_furcations` equal to
    `_side_orders` on every connected candidate of g up to s_max that it
    would evaluate, and counts the rule that answers each."""
    index, marks, total_of = _side_index(g, pot, params)
    adj = adjacency(g)
    for cand in connected_subsets(g, s_max):
        if cand[0] in total_of:
            total = total_of[cand[0]]
            F = _positions(g, cand)
            rule = _rule(index, g, F)
            got = index.orders(F)
            assert got == _side_orders(adj, cand, marks, total), \
                (rule, cand, sorted(edge_set(g)), marks)
            rules[rule] += 1


def test_side_index_equals_side_orders(rand):
    rules = Counter()
    for _ in range(300):
        g = _random_flagged_graph(rand)
        _index_rules(g, random_potential(rand, g), _random_params(rand), 4, rules)
    for ng in nx.graph_atlas_g()[1:]:
        if ng.number_of_nodes() and nx.is_connected(ng) and rand.random() < 0.3:
            share = rand.random()
            g = build_graph(sorted(ng.nodes), [tuple(e) for e in ng.edges], meta={
                "boundary": frozenset(v for v in ng.nodes if rand.random() < share)})
            _index_rules(g, random_potential(rand, g), _random_params(rand), 4, rules)
    w = windmill(6, 6)
    for g, pot in _family_cases() + [(w, unit_potential(w))]:
        _index_rules(g, pot, ProxyParams(), 4, rules)
        for to in _relabellings(rand, g):  # ids that are not positions
            _index_rules(*_relabelled(g, pot, to), ProxyParams(), 3, rules)
    gp = gp_graph(2, 3, 5)  # true separators whose pieces nest: most of rule (c)'s work
    _index_rules(gp, level_potential(gp, F(1, 2)), ProxyParams(), 3, rules)
    assert min(rules[r] for r in "abc") > 0, rules


@pytest.mark.parametrize("edges, boundary, cand, want", [
    # F holds the DFS root 0, so no piece reaches above itself: three sides
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (5, 7), (0, 6)], {4, 6, 7}, (0, 5), 3),
    # DFS path 0-...-6: the piece {5, 6} under F's 4 meets both segments of
    # its ancestor path, {0, 1} and {3}, which are otherwise apart: one side
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 4), (1, 6), (3, 6)], {0, 3}, (2, 4), 1),
    # DFS path 0-...-6, then 7 under 4: F's 5 lies in the subtree of F's 3,
    # below 4 outside F, and that subtree goes on past 5's to 7, so the piece
    # under 2 leaves out the subtree of 3 once: sides {0}, {2, 4, 7} and {6}
    ([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 3), (3, 5), (2, 4), (4, 7)],
     {0, 2, 6, 7}, (1, 3, 5), 3),
])
def test_side_index_joins_pieces(edges, boundary, cand, want):
    g = build_graph(range(1 + max(map(max, edges))), edges, meta={"boundary": frozenset(boundary)})
    pot, params = unit_potential(g), ProxyParams()
    index, marks, total_of = _side_index(g, pot, params)
    F = _positions(g, cand)
    assert _rule(index, g, F) == "c"
    got = index.orders(F)
    assert got == _side_orders(adjacency(g), cand, marks, total_of[cand[0]])
    assert got == [sides_order(g, pot, cand, params, kind) for kind in _KINDS] == [want] * 2


def test_side_index_roots_at_flagged_vertices(monkeypatch):
    """The family's side index is searched from the flagged vertices only:
    it covers every component that holds one, among them an isolated
    flagged vertex and a path flagged at one end, and no other; its counts
    there equal the oracle's on every candidate, and the family asks it
    about none in a component with fewer than two flagged vertices."""
    import wforest.ends as ends

    built = []

    class Recorded(ends._SideIndex):
        def __init__(self, *args):
            super().__init__(*args)
            self.asked = []
            built.append(self)

        def orders(self, F):
            self.asked.append(F)
            return super().orders(F)

    monkeypatch.setattr(ends, "_SideIndex", Recorded)
    edges = [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4),  # a 4-cycle and a pendant, 2 flags
             (5, 6), (6, 7),                          # a path flagged at its end 7
             (8, 9), (9, 10), (8, 10),                # a triangle, no flag
             (11, 12), (11, 13), (11, 14)]            # a star flagged at its leaves
    boundary = {2, 4, 7, 12, 13, 14, 15}              # and 15 flagged alone, 16 not
    g = build_graph(range(17), edges, meta={"boundary": frozenset(boundary)})
    comps = components(g)
    assert [sum(v in boundary for v in c) for c in comps] == [2, 1, 0, 3, 1, 0]
    light = {v: F(1, 2) if v in (4, 13) else 1 for v in g.vertices}
    # at unit weights the star's centre has three nonvanishing sides and
    # the cycle's 3 two; two light leaves move both a phase down
    for pot, phases in ((unit_potential(g), (1, 2)), (light, (2, 3))):
        for s_max in (1, 2, 3):
            built.clear()
            got = maximal_disjoint_furcations(g, pot, ProxyParams(), s_max=s_max)
            assert got == furcation_family_oracle(g, pot, ProxyParams(), s_max=s_max)
            assert got.blocks == ((11,), (3,)) and got.phases == phases
            (index,) = built
            covered = {v for v, i in zip(g.vertices, index.pos) if i >= 0}
            assert covered == {v for c in comps if set(c) & boundary for v in c}
            enumerated = {v for c in comps if len(set(c) & boundary) >= 2 for v in c}
            assert index.asked and all(set(F) <= enumerated for F in index.asked)
        marks = qualifying_marks(g, pot, ProxyParams())
        adj = adjacency(g)
        for cand in connected_subsets(g, 3):
            if cand[0] in covered:
                comp = next(c for c in comps if cand[0] in c)
                assert index.orders(_positions(g, cand)) == \
                    _side_orders(adj, cand, marks, mark_totals(marks, comp)), cand


def test_furcation_order_equals_sides_count(rand):
    graphs = [(g, pot, ProxyParams()) for g, pot in _family_cases()[2:]]
    for _ in range(100):
        g = _random_flagged_graph(rand)
        graphs.append((g, random_potential(rand, g), _random_params(rand)))
    for g, pot, params in graphs:
        marks = qualifying_marks(g, pot, params)
        total_of = {}
        for comp in components(g):
            total_of.update(dict.fromkeys(comp, mark_totals(marks, comp)))
        adj = adjacency(g)
        for cand in connected_subsets(g, 3):
            orders = _side_orders(adj, cand, marks, total_of[cand[0]])
            for order, kind in zip(orders, _KINDS):
                assert order == sides_order(g, pot, cand, params, kind), \
                    (cand, kind, sorted(edge_set(g)))


def test_smax_below_one_is_rejected():
    g = windmill(3, 2)
    for s_max in (0, -1):
        with pytest.raises(BadParams):
            connected_subsets(g, s_max)
        with pytest.raises(BadParams):
            maximal_disjoint_furcations(g, unit_potential(g), ProxyParams(), s_max=s_max)


def test_bad_potential_raises_library_errors():
    """`visibility_masses`, `quotient` and both furcation entry points read
    the potential through `exact_potential`, and `qualifier` checks the
    values it is given, for either kind, and the flagged vertices it is
    asked about: a nonpositive or missing value is a `WForestError`, never
    accepted silently nor a raw ZeroDivisionError or KeyError."""
    path = build_graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(NonPositiveWeight):
        visibility_masses(path, {0: 1, 1: 0, 2: 1})
    with pytest.raises(MissingVertex):
        visibility_masses(path, {0: 1, 1: 1})
    with pytest.raises(MissingVertex):
        quotient(path, {0: 1, 1: 1}, [])
    w = windmill(3, 3)
    for bad, error in (({**unit_potential(w), 5: -2}, NonPositiveWeight),
                       ({v: 1 for v in w.vertices if v != 5}, MissingVertex)):
        with pytest.raises(error):
            maximal_disjoint_furcations(w, bad, ProxyParams())
        for kind in _KINDS:
            with pytest.raises(error):
                find_furcation_vertices(w, bad, 3, ProxyParams(), kind)
        with pytest.raises(error):
            qualifying_side_counts(w, qualifier(w, bad, ProxyParams()))
    # the INFINITE rule reads no value, but a value it is given must be positive
    with pytest.raises(NonPositiveWeight):
        qualifier(w, {**unit_potential(w), 5: -2}, ProxyParams(), INFINITE)
