import json

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wforest.errors import (
    DanglingEndpoint,
    DuplicateEdge,
    DuplicateVertexId,
    MissingVertex,
    NotConnected,
    SelfLoop,
    UnknownId,
)
from wforest.ends import (
    ProxyParams,
    maximal_disjoint_furcations,
    qualifying_side_counts,
    quotient,
)
from wforest.generators import (
    cycle,
    free_product,
    gp_graph,
    lattice_box,
    random_gnm,
    regular_tree,
    windmill,
)
from wforest.graph import (
    Graph,
    _edge_at,
    _edge_blocks,
    _lowlink,
    _root,
    _side_counts,
    build_graph,
    components,
    edge,
    edge_boundary,
    from_json,
    induced_subgraph,
    inner_boundary,
    is_connected_set,
    is_cycle_invariant,
    outer_boundary,
    spanned_subgraph,
    to_json,
)
from wforest.weights import (
    EdgeOrder,
    cocycle_from_potential,
    potential_from_cocycle,
    unit_potential,
)

from conftest import (
    CycleLimitExceeded,
    SpansComponents,
    canonical_cycle_vertices,
    cycle_invariant_oracle,
    cycles_by_permutation,
    edge_set,
    random_connected_graph,
    side_pieces,
    sides_oracle,
    simple_cycles,
)


def path_graph(n):
    return build_graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def triangle():
    return build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])


def complete(n):
    return build_graph(range(n), [(a, b) for a in range(n) for b in range(a + 1, n)])


def test_build_graph_path():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    assert g.vertices == (1, 2, 3)
    assert g.neighbors(2) == (1, 3)
    assert edge_set(g) == frozenset({(1, 2), (2, 3)})


def test_build_graph_rejects_bad_input():
    with pytest.raises(SelfLoop):
        build_graph([1], [(1, 1)])
    with pytest.raises(DanglingEndpoint):
        build_graph([1, 2], [(1, 3)])
    with pytest.raises(DuplicateVertexId):
        build_graph([1, 1], [])
    for edges in ([(1, 2), (2, 1)], [(1, 2), (1, 2)]):
        with pytest.raises(DuplicateEdge, match=r"edge \(1, 2\) listed twice"):
            build_graph([1, 2], edges)


def test_components():
    assert components(path_graph(3)) == [(1, 2, 3)]
    assert components(build_graph([1, 2], [])) == [(1,), (2,)]
    two_tri = build_graph(range(6), [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert components(two_tri) == [(0, 1, 2), (3, 4, 5)]


def test_sides_star_path_triangle():
    star = build_graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3)])
    p, t = path_graph(5), triangle()
    assert side_pieces(star, [0]) == [(1,), (2,), (3,)]
    assert side_pieces(p, [3]) == [(1, 2), (4, 5)]
    assert side_pieces(t, [1]) == [(2, 3)]
    # the library counts the same sides, every vertex qualifying
    every = lambda v: True
    assert qualifying_side_counts(star, every)[0] == 3
    assert qualifying_side_counts(p, every)[3] == 2
    assert qualifying_side_counts(t, every)[1] == 1


def random_graph(rand):
    """A random graph on up to 9 vertices, disconnected about half the time."""
    g = random_connected_graph(rand, rand.randint(1, 9))
    if rand.random() < 0.5:
        g = spanned_subgraph(g, [e for e in g.sorted_edges() if rand.random() < 0.6])
    return g


def test_sides_equal_oracle(rand):
    for _ in range(600):
        g = random_graph(rand)
        F = {rand.choice(g.vertices)}
        for _ in range(rand.randint(0, 2)):
            grow = sorted({y for x in F for y in g.neighbors(x)} - F)
            if grow:
                F.add(rand.choice(grow))
        pieces = sides_oracle(g, F)
        # the piece search starts only from F's neighbours
        assert all(s.contact for s in pieces)
        assert side_pieces(g, F) == [s.vertices for s in pieces]


def test_sides_errors_equal_oracle(rand):
    """Where `sides_oracle` refuses F, its error is what the library's own
    primitives say of F, in the same order: empty, an unknown vertex
    (`is_connected_set` raises `UnknownId`), in no one of the `components`,
    not connected."""
    def library_error(g, F):
        if not F:
            return NotConnected
        try:
            if is_connected_set(g, F):
                return None
        except UnknownId:
            return UnknownId
        if not any(set(F) <= set(c) for c in components(g)):
            return SpansComponents
        return NotConnected

    def error_of(g, F):
        try:
            sides_oracle(g, F)
        except (NotConnected, SpansComponents, UnknownId) as exc:
            return type(exc)
        return None

    cases = 0
    for _ in range(300):
        g = random_graph(rand)
        F = set(rand.sample(g.vertices, rand.randint(0, min(3, len(g.vertices)))))
        if rand.random() < 0.2:
            F.add(100)
        want = library_error(g, F)
        assert error_of(g, F) is want, (sorted(edge_set(g)), F)
        cases += want is not None
    assert cases > 100
    two = build_graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    for F, exc in (([], NotConnected), ([1, 9], UnknownId),
                   ([2, 3], SpansComponents)):
        assert error_of(two, F) is library_error(two, F) is exc
    p = path_graph(5)
    assert error_of(p, [1, 3]) is library_error(p, [1, 3]) is NotConnected


def test_sides_preconditions():
    p = path_graph(5)
    assert not is_connected_set(p, [1, 3]) and not is_connected_set(p, [])
    with pytest.raises(NotConnected):
        sides_oracle(p, [1, 3])
    with pytest.raises(NotConnected):
        sides_oracle(p, [])
    g = build_graph([1, 2, 3, 4], [(1, 2), (3, 4)])
    assert components(g) == [(1, 2), (3, 4)]
    with pytest.raises(SpansComponents):
        sides_oracle(g, [2, 3])


def test_boundaries():
    p = path_graph(3)
    assert edge_boundary(p, [1]) == frozenset({(1, 2)})
    assert edge_boundary(p, [1, 2, 3]) == frozenset()
    c4 = build_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert len(edge_boundary(c4, [0, 1])) == 2
    assert inner_boundary(p, [1, 2]) == frozenset({2})
    assert outer_boundary(p, [1, 2]) == frozenset({3})


@given(st.integers(0, 2**30), st.integers(2, 9))
@settings(max_examples=60, deadline=None)
def test_boundary_symmetric_under_complement(seed, n):
    import random
    rand = random.Random(seed)
    g = random_connected_graph(rand, n)
    a = {v for v in g.vertices if rand.random() < 0.5}
    assert edge_boundary(g, a) == edge_boundary(g, set(g.vertices) - a)


def test_simple_cycles_basics():
    assert len(simple_cycles(triangle())) == 1
    assert simple_cycles(path_graph(4)) == []
    assert len(simple_cycles(complete(4))) == 7  # 4 triangles + 3 squares


def test_simple_cycles_limit():
    with pytest.raises(CycleLimitExceeded):
        simple_cycles(complete(6), limit=3)


def test_simple_cycles_against_permutation_scan(rand):
    for trial in range(25):
        n = rand.randint(3, 7)
        g = random_connected_graph(rand, n)
        ours = {canonical_cycle_vertices(c) for c in simple_cycles(g)}
        assert ours == cycles_by_permutation(g)


def test_simple_cycles_eight_vertices(rand):
    for trial in range(5):
        g = random_connected_graph(rand, 8, extra=4)
        ours = {canonical_cycle_vertices(c) for c in simple_cycles(g)}
        assert ours == cycles_by_permutation(g)


def test_cycle_invariance():
    t = triangle()
    assert is_cycle_invariant(t, [1, 2, 3])
    assert not is_cycle_invariant(t, [1, 2])
    # side plus vertex is cycle-invariant for every vertex
    g = build_graph(range(6), [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (3, 5)])
    for x in g.vertices:
        for side in side_pieces(g, [x]):
            assert is_cycle_invariant(g, set(side) | {x})


def test_cycle_invariance_equal_oracle(rand):
    outcomes = {True: 0, False: 0}
    for _ in range(4000):
        g = random_graph(rand)
        keep = rand.random()
        Y = {v for v in g.vertices if rand.random() < keep}
        got = is_cycle_invariant(g, Y)
        assert got == cycle_invariant_oracle(g, Y), (sorted(edge_set(g)), sorted(Y))
        outcomes[got] += 1
    assert min(outcomes.values()) > 500


def test_edge_blocks_equal_networkx(rand):
    graphs = [lattice_box(6, 5), gp_graph(2, 2, 4), windmill(4, 3),
              free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                            {"family": "lattice_box", "w": 3, "h": 3}], max_word=1)]
    for _ in range(1500):
        g = random_graph(rand)
        isolated = range(100, 100 + rand.randint(0, 2))
        graphs.append(build_graph([*g.vertices, *isolated], edge_set(g)))
    assert sum(1 for g in graphs if len(components(g)) > 1) > 500
    for g in graphs:
        blocks = _edge_blocks(g)
        assert set(blocks) == edge_set(g)
        by_block = {}
        for e, block in blocks.items():
            by_block.setdefault(block, []).append(e)
        nxg = nx.Graph(list(edge_set(g)))
        want_edges = [sorted(edge(*e) for e in es) for es in nx.biconnected_component_edges(nxg)]
        want_vertices = [sorted(vs) for vs in nx.biconnected_components(nxg)]
        assert sorted(sorted(es) for es in by_block.values()) == sorted(want_edges), \
            sorted(edge_set(g))
        assert sorted(sorted({v for e in es for v in e}) for es in by_block.values()) == \
            sorted(want_vertices)


def test_subgraphs():
    p = path_graph(3)
    sub = induced_subgraph(p, [1, 2])
    assert edge_set(sub) == frozenset({(1, 2)})
    assert induced_subgraph(p, []).vertices == ()
    sp = spanned_subgraph(p, [])
    assert sp.vertices == (1, 2, 3) and edge_set(sp) == frozenset()
    with pytest.raises(UnknownId, match=r"^edge \(1, 3\) not in graph$"):
        spanned_subgraph(p, [(1, 2), (1, 3)])


def test_subgraphs_equal_build_graph(rand):
    """Both subgraphs filter the host's edges instead of rebuilding them;
    each must be the Graph `build_graph` gives on the same vertices, edges
    and meta.  Hosts: random graphs (disconnected and edgeless ones too, with
    random levels and boundary flags), the box and GP with their meta."""
    hosts = [build_graph([], []), build_graph(range(5), []), lattice_box(6, 5),
             gp_graph(2, 2, 3)]
    for _ in range(150):
        g = random_graph(rand)
        hosts.append(build_graph(g.vertices, edge_set(g), meta={
            "boundary": frozenset(v for v in g.vertices if rand.random() < 0.3),
            "levels": {v: rand.randint(-2, 2) for v in g.vertices},
            "generator": "random",
        }))
    for g in hosts:
        for _ in range(4):
            E = [e for e in g.sorted_edges() if rand.random() < 0.5]
            assert spanned_subgraph(g, E) == build_graph(g.vertices, E, meta=g.meta)
            A = {v for v in g.vertices if rand.random() < 0.6}
            meta = dict(g.meta)
            if "levels" in meta:
                meta["levels"] = {v: l for v, l in meta["levels"].items() if v in A}
            if "boundary" in meta:
                meta["boundary"] = meta["boundary"] & A
            want = build_graph(A, [e for e in edge_set(g) if e[0] in A and e[1] in A], meta)
            assert induced_subgraph(g, A) == want
            assert induced_subgraph(g, A).meta.keys() == g.meta.keys()


def test_subgraphs_restrict_the_meta_edge_lists(rand):
    """A subgraph's meta lists only its own edges, in the host's order: the
    windmill's tiebreak then sorts the subgraph's edges as the host order
    restricted to it does, and a free product's edge factors name each edge
    once.  The subgraph's document reads back to it."""
    w = windmill(3, 2)
    host = EdgeOrder(w, unit_potential(w), w.meta["tiebreak"])
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    subs = [induced_subgraph(w, w.vertices[:-1]), spanned_subgraph(w, w.ordered_edges[:-1])]
    for g in (w, fp):
        for _ in range(10):
            subs.append(induced_subgraph(g, [v for v in g.vertices if rand.random() < 0.7]))
            subs.append(spanned_subgraph(g, [e for e in edge_set(g) if rand.random() < 0.7]))
    for sub in subs:
        kept = edge_set(sub)
        if "tiebreak" in sub.meta:
            own = EdgeOrder(sub, unit_potential(sub), sub.meta["tiebreak"])
            want = sorted(kept, key=host.restrict(sub).key)
            assert sorted(kept, key=own.key) == want
            assert sub.meta["tiebreak"] == [e for e in w.meta["tiebreak"] if e in kept]
            assert from_json(to_json(sub)) == sub
        else:
            factors = sub.meta["edge_factors"]
            assert factors == [t for t in fp.meta["edge_factors"] if t[:2] in kept]
            assert sorted(t[:2] for t in factors) == sub.sorted_edges()
            assert to_json(from_json(to_json(sub))) == to_json(sub)


def test_sorted_edges_are_the_canonical_order(rand):
    """However a graph is built, its edges are kept in canonical (sorted)
    order beside sorted neighbours: `build_graph` fed shuffled, reversed
    and flipped edges, `from_json`, every generator, both subgraphs and the
    quotient.  `sorted_edges` hands out a new list each call, so shuffling
    one leaves the next unchanged."""
    graphs = []
    for _ in range(40):
        h = random_graph(rand)
        pairs = [(v, u) if rand.random() < 0.5 else (u, v) for u, v in edge_set(h)]
        rand.shuffle(pairs)
        graphs.append(build_graph(h.vertices[::-1], pairs))
        graphs.append(build_graph(h.vertices, sorted(edge_set(h), reverse=True)))
        doc = {"vertices": [{"id": v} for v in h.vertices], "edges": [list(e) for e in pairs]}
        graphs.append(from_json(json.dumps(doc)))
    w = windmill(3, 2)
    graphs += [gp_graph(2, 2, 3), lattice_box(5, 4), regular_tree(3, 3), cycle(7),
               random_gnm(12, 20, seed=5), w,
               free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                             {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)]
    for g in list(graphs):
        graphs.append(spanned_subgraph(g, [e for e in edge_set(g) if rand.random() < 0.5]))
        graphs.append(induced_subgraph(g, [v for v in g.vertices if rand.random() < 0.6]))
    family = maximal_disjoint_furcations(w, {v: 1 for v in w.vertices}, ProxyParams())
    assert family.blocks
    graphs.append(quotient(w, {v: 1 for v in w.vertices}, family.blocks).qgraph)
    for g in graphs:
        assert g.sorted_edges() == sorted(edge_set(g))
        assert all(list(g.neighbors(v)) == sorted(g.neighbors(v)) for v in g.vertices)
        assert sorted(edge(u, v) for u in g.vertices for v in g.neighbors(u)) == \
            sorted(e for e in edge_set(g) for _ in range(2))
        handed = g.sorted_edges()
        rand.shuffle(handed)
        assert g.sorted_edges() == sorted(edge_set(g))


def test_a_graph_stores_one_edge_list(rand):
    """`ordered_edges` is a graph's only edge list: strictly increasing, and
    each pair in it canonical, however the graph was built."""
    assert Graph._fields == ("vertices", "ordered_edges", "meta", "eu", "ev", "near")
    graphs = [build_graph([], []), build_graph([5, -3, 9], [(9, -3), (5, -3)]),
              gp_graph(2, 1, 2), windmill(3, 2), random_gnm(12, 20, seed=5)]
    for _ in range(20):
        graphs.append(random_graph(rand))
    for g in list(graphs):
        graphs.append(from_json(to_json(g)))
        graphs.append(spanned_subgraph(g, g.ordered_edges[::2]))
        graphs.append(induced_subgraph(g, g.vertices[1:]))
    for g in graphs:
        es = g.ordered_edges
        assert all(a < b for a, b in zip(es, es[1:])), es
        assert all(u < v for u, v in es), es


def test_edge_at_bisects_the_edges():
    """`_edge_at` gives each edge's index in `ordered_edges`, and -1 for a
    reversed pair, a non-edge and anything that is not an edge at all."""
    g = build_graph([-40, -7, 3, 15, 1000], [(-40, 3), (3, 1000), (-7, 15), (15, 1000)])
    assert [_edge_at(g, e) for e in g.ordered_edges] == list(range(len(g.ordered_edges)))
    for e in ((3, -40), (1000, 15), (-40, -7), (3, 15), (-41, 0), (1000, 1001),
              (1,), "a", None):
        assert _edge_at(g, e) == -1, e
    assert _edge_at(build_graph([], []), (0, 1)) == -1


def test_every_builder_lays_the_graph_out_on_positions(rand):
    """A vertex's position is its index in the sorted `vertices` and an
    edge's its index in `ordered_edges`: each edge's `eu` and `ev` are its
    lesser and greater end, and each vertex's `near` lists the positions of
    the neighbours `ordered_edges` gives it, in increasing order.  Builders: `build_graph` on scattered, negative and
    non-monotone ids, `from_json(to_json(g))`, both subgraphs, the quotient
    and the empty graph."""
    graphs = [build_graph([], []),
              build_graph([40, -7, 3, 1000, -2, 15],
                          [(1000, -7), (3, 40), (-2, 15), (15, 1000), (-7, 3), (40, -2)])]
    for _ in range(30):
        ids = rand.sample(range(-500, 500), rand.randint(1, 12))
        pairs = [(u, v) for u in ids for v in ids if u < v and rand.random() < 0.4]
        rand.shuffle(pairs)
        graphs.append(build_graph(ids, pairs))
    for g in list(graphs):
        graphs.append(from_json(to_json(g)))
        graphs.append(induced_subgraph(g, [v for v in g.vertices if rand.random() < 0.6]))
        graphs.append(spanned_subgraph(g, [e for e in edge_set(g) if rand.random() < 0.5]))
    w = windmill(3, 2)
    family = maximal_disjoint_furcations(w, {v: 1 for v in w.vertices}, ProxyParams())
    graphs.append(quotient(w, {v: 1 for v in w.vertices}, family.blocks).qgraph)
    for g in graphs:
        assert list(g.vertices) == sorted(g.vertices)
        assert len(g.eu) == len(g.ev) == len(g.ordered_edges)
        for j, (a, b) in enumerate(zip(g.eu, g.ev)):
            assert (g.vertices[a], g.vertices[b]) == g.ordered_edges[j]
        assert len(g.near) == len(g.vertices)
        named = {v: [] for v in g.vertices}
        for u, v in g.ordered_edges:
            named[u].append(v)
            named[v].append(u)
        for i, ns in enumerate(g.near):
            assert [g.vertices[w] for w in ns] == sorted(named[g.vertices[i]])


@pytest.mark.parametrize("query", [is_connected_set, edge_boundary, inner_boundary,
                                   outer_boundary, is_cycle_invariant, induced_subgraph,
                                   Graph.neighbors, Graph.degree])
def test_set_queries_reject_unknown_ids(query):
    """Every vertex-set query names the first id outside the graph, and
    every one-vertex query its vertex."""
    p = build_graph(range(3), [(0, 1), (1, 2)])
    with pytest.raises(UnknownId, match=r"^vertex 9 not in graph$"):
        query(p, 9 if query in (Graph.neighbors, Graph.degree) else [1, 9])


def test_lookups_bisect_scattered_ids():
    """A vertex is found by bisecting the sorted ids: an id below, between
    or above them, or one that is not an integer, is no vertex, and each
    vertex is found with its neighbours."""
    g = build_graph([-40, -7, 3, 15, 1000], [(-40, 3), (3, 1000), (-7, 15), (15, 1000)])
    for v in (-41, -8, -6, 0, 4, 999, 1001, "a", None):
        assert v not in g
        with pytest.raises(UnknownId, match=rf"^vertex {v} not in graph$"):
            g.neighbors(v)
        with pytest.raises(MissingVertex, match=rf"^basepoint {v} not in graph$"):
            potential_from_cocycle(g, cocycle_from_potential(g, unit_potential(g)), v)
    assert [(v in g, g.neighbors(v), g.degree(v)) for v in g.vertices] == [
        (True, (3,), 1), (True, (15,), 1), (True, (-40, 1000), 2), (True, (-7, 1000), 2),
        (True, (3, 15), 2)]
    assert build_graph([], []).__contains__(0) is False


def test_components_equal_networkx(rand):
    """Random graphs, about half disconnected, with isolated vertices among
    their ids and past them: each component sorted, ordered by least id."""
    graphs = []
    for _ in range(400):
        g = random_graph(rand)
        isolated = [-1 - i for i in range(rand.randint(0, 2))] + \
            list(range(100, 100 + rand.randint(0, 2)))
        graphs.append(build_graph([*g.vertices, *isolated], edge_set(g)))
    assert sum(1 for g in graphs if len(components(g)) > 2) > 100
    for g in graphs:
        nxg = nx.Graph(list(edge_set(g)))
        nxg.add_nodes_from(g.vertices)
        want = sorted(tuple(sorted(c)) for c in nx.connected_components(nxg))
        assert components(g) == want, sorted(edge_set(g))


def test_components_partition_properties(rand):
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(2, 9))
        extra = build_graph(
            list(g.vertices) + [100, 101], list(edge_set(g)) + [(100, 101)])
        comps = components(extra)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == list(extra.vertices)
        for c in comps:
            assert len(set(c)) == len(c)
        # no edges between blocks
        where = {v: i for i, c in enumerate(comps) for v in c}
        assert all(where[u] == where[v] for u, v in edge_set(extra))


def test_sides_partition_component(rand):
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(3, 9))
        x = rand.choice(g.vertices)
        pieces = side_pieces(g, [x])
        got = sorted(v for s in pieces for v in s) + [x]
        assert sorted(got) == list(g.vertices)
        # in the library's counts, every other vertex lies on exactly one side
        for v in g.vertices:
            assert qualifying_side_counts(g, {v}.__contains__)[x] == (v != x)


def test_side_counts_agree_on_both_rootings_of_a_forest(rand):
    """The one side-count pass gives the same counts on a forest of host
    edges whether the forest is rooted by the low-link DFS over its own
    neighbour lists or by `_root` with its depth as disc and low, and those
    are the forest's side counts by definition (`side_pieces`): the empty
    graph, the empty forest, isolated vertices and several trees, under
    random flags."""
    shapes = set()
    for case in range(400):
        g = build_graph([], []) if case == 0 else random_connected_graph(rand, rand.randint(1, 14))
        kept = [i for i, e in enumerate(g.ordered_edges) if rand.random() < 0.6]
        if case % 7 == 1:
            kept = []
        adj: list[list[int]] = [[] for _ in g.vertices]
        for i in kept:
            adj[g.eu[i]].append(g.ev[i])
            adj[g.ev[i]].append(g.eu[i])
        rooted = _root(g, kept)
        if len(kept) != len(g.vertices) - rooted.trees:
            continue  # the edges close a cycle
        own = [int(rand.random() < 0.4) for _ in g.vertices]
        by_dfs = _side_counts(*_lowlink(adj, range(len(adj))), own)
        by_root = _side_counts(rooted.order, rooted.parent, rooted.depth, rooted.depth, own)
        assert by_dfs == by_root
        forest = build_graph(g.vertices, map(g.ordered_edges.__getitem__, kept))
        flagged = {v for v, f in zip(g.vertices, own) if f}
        assert by_root == [sum(1 for side in side_pieces(forest, [x]) if flagged.intersection(side))
                           for x in g.vertices]
        shapes.add((len(g.vertices) == 0, not kept, not all(adj), rooted.trees >= 3))
    assert {(True, True, False, False), (False, True, True, True)} <= shapes
    assert any(not bare and isolated and trees for _, bare, isolated, trees in shapes)


def test_json_round_trip():
    from wforest.generators import gp_graph, windmill
    for g in (gp_graph(2, 1, 2), windmill(3, 2), path_graph(4)):
        back = from_json(to_json(g))
        assert back.vertices == g.vertices
        assert edge_set(back) == edge_set(g)
        assert back.meta.get("levels") == g.meta.get("levels")
        assert back.boundary_vertices() == g.boundary_vertices()
        assert to_json(back) == to_json(g)
