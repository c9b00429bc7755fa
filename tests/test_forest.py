import re
from collections import Counter
from fractions import Fraction as F

import networkx as nx
import pytest

from wforest.errors import (
    FixedSetCyclic,
    InvariantViolation,
    NotCycleInvariant,
    UnknownId,
)
from wforest.forest import (
    ForestResult,
    check_cut_witnesses,
    is_acyclic,
    maximal_subforest,
    restrict_forest,
)
from wforest.generators import free_product, gp_graph, lattice_box, random_gnm, windmill
from wforest.graph import (_edge_blocks, build_graph, components, induced_subgraph,
                           spanned_subgraph)
from wforest.percolation import (PercolationConfig, assign_labels, bernoulli_sample,
                                 cluster_report, fwmsf)
from wforest.weights import EdgeOrder, ProxyParams, level_potential, unit_potential

from conftest import (
    _bfs,
    adjacency,
    cut_witnesses_oracle,
    edge_set,
    fmsf,
    greedy_max_forest,
    maximal_subforest_oracle,
    random_connected_graph,
    random_order,
    random_potential,
    random_tiebreak,
    side_pieces,
    simple_cycles,
)


def grow_acyclic(g, edges):
    """The edges taken in turn, each kept unless it closes a cycle with
    those kept before it."""
    h = frozenset()
    for e in edges:
        if is_acyclic(g, h | {e}):
            h |= {e}
    return h


def triangle_order():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    # weights: ab=2, bc=1, ca=1; tiebreak puts bc before ca
    o = EdgeOrder(g, {1: F(3), 2: F(2), 3: F(1)}, [(2, 3), (1, 3), (1, 2)])
    return g, o


def test_triangle_deletes_least():
    g, o = triangle_order()
    r = maximal_subforest(g, o)
    assert r.deleted == frozenset({(2, 3)})
    assert r.kept == frozenset({(1, 2), (1, 3)})


def test_tree_keeps_everything(rand):
    g = random_connected_graph(rand, 8, extra=0)
    r = maximal_subforest(g, random_order(rand, g))
    assert r.deleted == frozenset() and r.kept == edge_set(g)


def test_fixed_must_be_acyclic():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    o = EdgeOrder(g, unit_potential(g))
    with pytest.raises(FixedSetCyclic):
        maximal_subforest(g, o, fixed=edge_set(g))


def test_fixed_edges_survive(rand):
    for _ in range(40):
        g = random_connected_graph(rand, rand.randint(3, 9))
        o = random_order(rand, g)
        base = maximal_subforest(g, o)
        # grow a random acyclic fixed set
        h = grow_acyclic(g, random_tiebreak(rand, g)[:3])
        r = maximal_subforest(g, o, fixed=h)
        assert h <= r.kept and r.fixed == h
        # enlarging the fixed set keeps the enlarged set in the forest
        h2 = set(h)
        for e in random_tiebreak(rand, g):
            if e not in h2 and is_acyclic(g, h2 | {e}):
                h2.add(e)
                break
        r2 = maximal_subforest(g, o, fixed=h2)
        assert frozenset(h2) <= r2.kept


def test_is_acyclic_equals_networkx_and_rejects_non_edges(rand):
    path = build_graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(UnknownId):
        is_acyclic(path, [(0, 2)])  # both ends are vertices, the pair is no edge
    with pytest.raises(UnknownId):
        is_acyclic(path, [(0, 1), (1, 9)])  # an unknown endpoint
    answers = Counter()
    for _ in range(300):
        g = random_connected_graph(rand, rand.randint(2, 9))
        es = frozenset(e for e in edge_set(g) if rand.random() < 0.6)
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices)
        ref.add_edges_from(es)
        answer = is_acyclic(g, es)
        assert answer == nx.is_forest(ref)
        answers[answer] += 1
    assert min(answers[True], answers[False]) >= 50


def test_oracle_two_triangles_sharing_edge():
    # shared edge least in both triangles; simultaneous deletion also cuts
    # the outer square's least edge
    g = build_graph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
    # s = (1,2) shared; order: s least, then (0,1) < (0,2) < (1,3) < (2,3)
    o = EdgeOrder(g, unit_potential(g), [(1, 2), (0, 1), (0, 2), (1, 3), (2, 3)])
    assert len(simple_cycles(g)) == 3
    r = maximal_subforest_oracle(g, o)
    assert r.deleted == frozenset({(1, 2), (0, 1)})
    fast = maximal_subforest(g, o)
    assert fast.kept == r.kept


def test_oracle_equivalence_random(rand):
    for _ in range(200):
        n = rand.randint(2, 12)
        g = random_connected_graph(rand, n, extra=rand.randint(0, 6))
        o = random_order(rand, g)
        fast = maximal_subforest(g, o)
        slow = maximal_subforest_oracle(g, o)
        assert fast.kept == slow.kept
        assert is_acyclic(g, fast.kept)


def test_oracle_equivalence_with_fixed_sets(rand):
    for _ in range(60):
        g = random_connected_graph(rand, rand.randint(3, 9))
        o = random_order(rand, g)
        h = grow_acyclic(g, random_tiebreak(rand, g)[:2])
        assert maximal_subforest(g, o, h).kept == maximal_subforest_oracle(g, o, h).kept


def test_spanning_tree_identity(rand):
    for _ in range(100):
        g = random_connected_graph(rand, rand.randint(2, 10))
        o = random_order(rand, g)
        assert maximal_subforest(g, o).kept == greedy_max_forest(g, o)


def test_fmsf_single_cycle_and_tree(rand):
    c4 = build_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    labels = {(0, 1): 5, (1, 2): 9, (2, 3): 1, (0, 3): 4}
    assert fmsf(c4, labels) == g_edges_minus(c4, {(1, 2)})
    tree = random_connected_graph(rand, 7, extra=0)
    labels = {e: i for i, e in enumerate(tree.sorted_edges())}
    assert fmsf(tree, labels) == edge_set(tree)


def g_edges_minus(g, removed):
    return frozenset(edge_set(g) - set(removed))


def test_fmsf_rejects_duplicate_labels():
    g = build_graph([0, 1, 2], [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        fmsf(g, {(0, 1): 1, (1, 2): 1})


def test_fmsf_equals_constant_weight_forest(rand):
    for _ in range(200):
        g = random_connected_graph(rand, rand.randint(2, 10))
        labels = {e: rand.random() for e in edge_set(g)}
        tb = sorted(edge_set(g), key=lambda e: -labels[e])
        o = EdgeOrder(g, unit_potential(g), tb)
        assert maximal_subforest(g, o).kept == fmsf(g, labels)


def test_cut_witness_triangle():
    g, o = triangle_order()
    r = maximal_subforest(g, o)
    rep = check_cut_witnesses(g, r, o)
    assert rep.ok
    assert rep.witnesses[(2, 3)] in {(1, 2), (1, 3)}


def test_cut_witness_tree_vacuous(rand):
    g = random_connected_graph(rand, 6, extra=0)
    o = random_order(rand, g)
    rep = check_cut_witnesses(g, maximal_subforest(g, o), o)
    assert rep.ok and not rep.witnesses


def test_cut_witness_property(rand):
    for _ in range(500):
        g = random_connected_graph(rand, rand.randint(2, 10))
        o = random_order(rand, g)
        assert check_cut_witnesses(g, maximal_subforest(g, o), o).ok


def test_cut_witness_flags_planted_violation():
    g, o = triangle_order()
    fake = ForestResult(kept=frozenset({(2, 3), (1, 3)}),
                        deleted=frozenset({(1, 2)}), fixed=frozenset())
    rep = check_cut_witnesses(g, fake, o)
    assert not rep.ok


def test_restrict_identity_and_side(rand):
    g = build_graph(range(7),
                    [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)])
    o = random_order(rand, g)
    r = maximal_subforest(g, o)
    whole = restrict_forest(g, r, o, g.vertices)
    assert whole.kept == r.kept
    # a side of the articulation vertex 2 plus the vertex itself
    for side in side_pieces(g, [2]):
        y = set(side) | {2}
        restricted = restrict_forest(g, r, o, y)
        sub = induced_subgraph(g, y)
        again = maximal_subforest(sub, o.restrict(sub))
        assert restricted.kept == again.kept


def test_restrict_whole_box(rand):
    # the box has far too many simple cycles to enumerate
    g = lattice_box(6, 6)
    o = random_order(rand, g)
    r = maximal_subforest(g, o)
    assert restrict_forest(g, r, o, g.vertices) == r


def test_restrict_rejects_non_invariant():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    o = EdgeOrder(g, unit_potential(g))
    r = maximal_subforest(g, o)
    with pytest.raises(NotCycleInvariant):
        restrict_forest(g, r, o, [1, 2])


def sample_block_union(rand, g):
    """Random connected union of biconnected blocks: always cycle-invariant."""
    comp = components(g)[0]
    by_id: dict[int, set[int]] = {}
    for e, block in sorted(_edge_blocks(g).items()):
        if e[0] in comp:
            by_id.setdefault(block, set()).update(e)
    blocks = list(by_id.values())
    if not blocks:
        return set(comp)
    adj = {i: set() for i in range(len(blocks))}
    for i, a in enumerate(blocks):
        for j in range(i + 1, len(blocks)):
            if a & blocks[j]:
                adj[i].add(j)
                adj[j].add(i)
    start = rand.randrange(len(blocks))
    chosen = {start}
    frontier = [start]
    while frontier:
        b = frontier.pop()
        for nb in sorted(adj[b]):
            if nb not in chosen and rand.random() < 0.6:
                chosen.add(nb)
                frontier.append(nb)
    out = set()
    for b in chosen:
        out |= blocks[b]
    return out


def test_restriction_property_on_block_unions(rand):
    done = 0
    while done < 200:
        g = random_connected_graph(rand, rand.randint(3, 12))
        y = sample_block_union(rand, g)
        o = random_order(rand, g)
        r = maximal_subforest(g, o)
        restricted = restrict_forest(g, r, o, y)  # raises on any mismatch
        sub = induced_subgraph(g, y)
        assert restricted.kept == maximal_subforest(sub, o.restrict(sub)).kept
        done += 1


def random_fixed(rand, g):
    """A random acyclic subset of g's edges."""
    return grow_acyclic(g, (e for e in random_tiebreak(rand, g) if rand.random() < 0.3))


def test_cut_witnesses_equal_oracle(rand):
    """The rooted-index check equals the per-edge search on spanning results,
    non-spanning results (kept edges moved to deleted) and planted
    violations (the forest of a second order), all with random fixed sets."""
    cut_branch = violated = 0
    for case in range(3000):
        g = random_connected_graph(rand, rand.randint(2, 10))
        o = random_order(rand, g)
        fixed = random_fixed(rand, g) if case % 2 else frozenset()
        producer = random_order(rand, g) if case % 3 == 2 else o
        r = maximal_subforest(g, producer, fixed)
        if case % 5 >= 2:
            moved = frozenset(e for e in r.kept - fixed if rand.random() < 0.3)
            r = ForestResult(kept=r.kept - moved, deleted=r.deleted | moved, fixed=fixed)
        rep = check_cut_witnesses(g, r, o)
        assert rep == cut_witnesses_oracle(g, r, o)
        # a deleted edge that closes no kept cycle takes the cut branch
        cut_branch += any(is_acyclic(g, r.kept | {e}) for e in r.deleted)
        violated += not rep.ok
    assert cut_branch >= 500 and violated >= 500


def cut_branch_case():
    """Kept trees {0,1}, {3,4}, {2}; every deleted edge leaves {0,1}.  The
    tiebreak alone orders the edges: (1,2) < (1,4) < (3,4) < (0,3) < (0,1)."""
    g = build_graph(range(5), [(0, 1), (1, 2), (0, 3), (1, 4), (3, 4)])
    o = EdgeOrder(g, unit_potential(g), [(1, 2), (1, 4), (3, 4), (0, 3), (0, 1)])
    r = ForestResult(kept=frozenset({(0, 1), (3, 4)}),
                     deleted=frozenset({(1, 2), (1, 4), (0, 3)}), fixed=frozenset())
    return g, o, r


def test_cut_edge_witness_is_least_greater_partner():
    g, o, r = cut_branch_case()
    rep = check_cut_witnesses(g, r, o)
    # (1,2) has two greater boundary partners, (1,4) and (0,3)
    assert rep.witnesses == {(1, 2): (1, 4), (1, 4): (0, 3)}
    assert rep == cut_witnesses_oracle(g, r, o)


def test_cut_edge_without_greater_partner_is_a_violation():
    g, o, r = cut_branch_case()
    rep = check_cut_witnesses(g, r, o)
    assert rep.violations == (((0, 3), "no greater boundary partner for a cut edge"),)
    assert rep == cut_witnesses_oracle(g, r, o)


def test_cut_witnesses_reject_cyclic_kept_set():
    g, o = triangle_order()
    r = ForestResult(kept=edge_set(g), deleted=frozenset(), fixed=frozenset())
    with pytest.raises(InvariantViolation, match="kept edges close a cycle"):
        check_cut_witnesses(g, r, o)


def test_cut_witnesses_reject_a_kept_edge_outside_the_graph():
    g, o = triangle_order()
    r = ForestResult(kept=frozenset({(1, 2), (1, 4)}), deleted=frozenset(), fixed=frozenset())
    with pytest.raises(UnknownId, match=r"edge \(1, 4\) not in graph"):
        check_cut_witnesses(g, r, o)


def test_an_order_on_another_graph_is_refused(rand):
    """The forest and its certificate read the order's keys by edge position,
    so an order on another edge set is a `ValueError`; one on an equal graph
    object is read as it is."""
    for _ in range(10):
        g = random_connected_graph(rand, rand.randint(4, 9))
        o = random_order(rand, g)
        sub = induced_subgraph(g, g.vertices[1:])
        with pytest.raises(ValueError, match="the edge order is on another graph"):
            maximal_subforest(sub, o)
        with pytest.raises(ValueError, match="the edge order is on another graph"):
            check_cut_witnesses(sub, maximal_subforest(sub, o.restrict(sub)), o)
        twin = build_graph(g.vertices, g.ordered_edges)
        assert maximal_subforest(twin, o) == maximal_subforest(g, o)
        assert check_cut_witnesses(twin, maximal_subforest(g, o), o).ok


def test_every_edge_set_check_names_a_foreign_edge():
    """Every reader of an edge set raises `UnknownId` for a pair that is no
    canonical edge of the graph (a reversed pair is none), naming the first
    such pair the set iterates: the subgraph, the acyclicity test, the
    witness check's kept edges, the fixed edges, and the open edges of
    `fwmsf` and `cluster_report`."""
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    pot, o, labels = unit_potential(g), EdgeOrder(g, unit_potential(g)), assign_labels(g, 0)
    for edges in ({(0, 1), (1, 3)}, {(0, 1), (1, 0)}, {(2, 3), (3, 9)},
                  {(1, 3), (0, 2), (3, 9), (1, 0)}):
        edges = frozenset(edges)
        foreign = re.escape(str(next(e for e in edges if e not in edge_set(g))))
        cfg = PercolationConfig(g, edges, 0.5, 0)
        for check in (lambda: spanned_subgraph(g, edges), lambda: is_acyclic(g, edges),
                      lambda: check_cut_witnesses(g, ForestResult(edges, frozenset(),
                                                                  frozenset()), o),
                      lambda: fwmsf(cfg, pot, labels),
                      lambda: cluster_report(cfg, pot, ProxyParams())):
            with pytest.raises(UnknownId, match=rf"^edge {foreign} not in graph$"):
                check()
        with pytest.raises(UnknownId, match=rf"^fixed edge {foreign} not in graph$"):
            maximal_subforest(g, o, fixed=edges)


def _balls(g, radii):
    """The balls of growing `radii` around meta["root"], as induced subgraphs
    (within the root's component)."""
    dist = {}
    for v, parent in _bfs(adjacency(g), g.meta["root"]).items():
        dist[v] = 0 if parent is None else dist[parent] + 1
    return [induced_subgraph(g, [v for v, d in dist.items() if d <= r]) for r in radii]


def _centred_boxes(w, radii):
    """A w-by-w box and its centred sub-boxes of growing half-widths."""
    box = lattice_box(w, w)
    c = w // 2
    return box, [induced_subgraph(box, [r * w + col for r in range(w) for col in range(w)
                                        if abs(r - c) <= h and abs(col - c) <= h])
                  for h in radii]


def test_deletion_is_monotone_under_growing_truncations(rand):
    """Cycle-cutting deletes e exactly when H and the edges above e join its
    ends, and a larger truncation has more such paths: under the restricted
    order, every edge deleted on a truncation is deleted on each larger one.
    Nested centred boxes, and balls around the root of GP, of windmills, of
    a free product and of a random graph, under `maximal_subforest` with a
    potential and under `fwmsf` with labels on the whole truncation and on a
    sample.  Under each forest some edge kept on a smaller truncation is
    deleted on a larger one, so the inclusion is not equality."""
    box, boxes = _centred_boxes(20, [2, 4, 6, 10])
    gp, wm = gp_graph(2, 3, 6), windmill(5, 6)
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    gnm = random_gnm(40, 80, rand.randrange(1000))
    cases = [(box, unit_potential(box), random_tiebreak(rand, box), boxes),
             (gp, level_potential(gp, F(1, 2)), random_tiebreak(rand, gp),
              _balls(gp, [1, 2, 3, 4, 5, 8])),
             (wm, unit_potential(wm), wm.meta["tiebreak"], _balls(wm, [1, 2, 4, 6, 9, 16])),
             (fp, level_potential(fp, F(1, 2)), random_tiebreak(rand, fp),
              _balls(fp, [1, 2, 3, 4, 6, 9])),
             (gnm, random_potential(rand, gnm), random_tiebreak(rand, gnm),
              _balls(gnm, [1, 2, 3, 5]))]
    grown = Counter()
    for case, (host, pot, tiebreak, nested) in enumerate(cases):
        order = EdgeOrder(host, pot, tiebreak)
        seed = rand.randrange(1000)
        labels = assign_labels(host, seed)
        sample = bernoulli_sample(host, 0.7, seed).open_edges
        forests = [
            lambda sub: maximal_subforest(sub, order.restrict(sub)).deleted,
            lambda sub: fwmsf(PercolationConfig(sub, edge_set(sub), 1.0, seed),
                              pot, labels).deleted,
            lambda sub: fwmsf(PercolationConfig(sub, edge_set(sub) & sample, 0.7, seed),
                              pot, labels).deleted,
        ]
        for kind, deleted_on in enumerate(forests):
            smaller = None
            for sub in nested:
                deleted = deleted_on(sub)
                if smaller is not None:
                    assert smaller[1] <= deleted
                    grown[case, kind] += len((edge_set(smaller[0]) - smaller[1]) & deleted)
                smaller = (sub, deleted)
    # one case may show no growth: on GP at level weights, the potential
    # order can delete the same edges of each ball as of the whole graph
    for kind in range(len(forests)):
        assert sum(grown[case, kind] for case in range(len(cases))) > 0, grown


from hypothesis import given, settings
from hypothesis import strategies as st


@given(st.integers(0, 2**30), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_forest_always_acyclic_and_spanning(seed, n):
    import random as _random
    r = _random.Random(seed)
    g = random_connected_graph(r, n)
    o = random_order(r, g)
    result = maximal_subforest(g, o)
    assert is_acyclic(g, result.kept)
    assert len(result.kept) == len(g.vertices) - 1  # spanning tree, g connected
    assert result.kept | result.deleted == edge_set(g)
