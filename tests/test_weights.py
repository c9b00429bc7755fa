import math
from fractions import Fraction as F

import pytest

from wforest.errors import CrossComponent, InvalidCocycle, NonPositiveWeight, UnknownId
from wforest.graph import build_graph, components, edge, induced_subgraph
from wforest.weights import (
    Cocycle,
    EdgeOrder,
    cocycle_from_potential,
    compare_edges,
    level_potential,
    potential_from_cocycle,
    unit_potential,
    validate_cocycle,
)
from wforest.generators import gp_graph, random_gnm

from conftest import (
    edge_set,
    random_connected_graph,
    random_potential,
    random_tiebreak,
    tuple_key,
    validate_cocycle_oracle,
)


def test_cocycle_from_potential_path():
    g = build_graph([1, 2], [(1, 2)])
    c = cocycle_from_potential(g, {1: 1, 2: 2})
    assert c.ratio(1, 2) == F(1, 2)
    assert c.ratio(2, 1) == F(2)


def test_constant_potential_gives_unit_ratios():
    g = build_graph(range(4), [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = cocycle_from_potential(g, unit_potential(g))
    assert all(r == 1 for r in c.ratios.values())


def test_positive_weights_required():
    g = build_graph([1, 2], [(1, 2)])
    with pytest.raises(NonPositiveWeight):
        cocycle_from_potential(g, {1: 0, 2: 1})


def test_validate_cocycle_detects_bad_triangle():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    ratios = {(1, 2): F(1, 2), (2, 1): F(2),
              (2, 3): F(1, 2), (3, 2): F(2),
              (3, 1): F(1, 2), (1, 3): F(2)}
    from wforest.weights import Cocycle
    bad = Cocycle(ratios=ratios)
    rep = validate_cocycle(g, bad)
    assert not rep.ok and rep.worst_defect > 0
    # a product past float range, around the cycle or across one edge, is
    # reported from its exact numerator and denominator
    for k in (2000, -2000):
        unit = dict.fromkeys(ratios, F(1))
        for back in (F(2) ** -k, F(1)):
            rep = validate_cocycle(g, Cocycle(ratios={**unit, (1, 2): F(2) ** k, (2, 1): back}))
            assert not rep.ok and math.isclose(rep.worst_defect, 2000 * math.log(2))
    for r in (F(0), F(-1)):
        with pytest.raises(NonPositiveWeight, match=r"directed edge \(3, 2\)"):
            validate_cocycle(g, Cocycle(ratios={**ratios, (3, 2): r}))


def test_gp_level_cocycle_exact():
    g = gp_graph(2, 2, 3)
    c = cocycle_from_potential(g, level_potential(g, F(1, 2)))
    rep = validate_cocycle(g, c)
    assert rep.ok and rep.worst_defect == 0.0


def test_potential_from_cocycle_path_and_base_change():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    c = cocycle_from_potential(g, {1: 1, 2: 2, 3: 4})
    pa = potential_from_cocycle(g, c, 1)
    assert [pa[v] for v in (1, 2, 3)] == [1, 2, 4]
    pb = potential_from_cocycle(g, c, 2)
    scale = pb[1] / pa[1]
    assert all(pb[v] == pa[v] * scale for v in g.vertices)


def test_potential_detects_path_dependence():
    g = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
    from wforest.weights import Cocycle
    ratios = {(1, 2): F(2), (2, 1): F(1, 2),
              (2, 3): F(2), (3, 2): F(1, 2),
              (1, 3): F(2), (3, 1): F(1, 2)}
    with pytest.raises(InvalidCocycle):
        potential_from_cocycle(g, Cocycle(ratios=ratios), 1)


def test_cocycle_identity_many_fundamental_cycles(rand):
    checked = 0
    while checked < 1000:
        g = random_connected_graph(rand, rand.randint(3, 10))
        c = cocycle_from_potential(g, random_potential(rand, g))
        pot = potential_from_cocycle(g, c, g.vertices[0])
        for u, v in g.sorted_edges():
            # product around the fundamental cycle through (u,v)
            assert c.ratio(u, v) * pot[v] / pot[u] == 1
            checked += 1


def test_path_independence_on_disjoint_paths(rand):
    # two vertex-disjoint paths between the poles of a theta graph
    g = build_graph(range(6), [(0, 1), (1, 5), (0, 2), (2, 5), (0, 3), (3, 5)])
    for _ in range(20):
        potmap = random_potential(rand, g)
        c = cocycle_from_potential(g, potmap)
        p = potential_from_cocycle(g, c, 0)
        via1 = c.ratio(5, 1) * c.ratio(1, 0)
        via2 = c.ratio(5, 2) * c.ratio(2, 0)
        via3 = c.ratio(5, 3) * c.ratio(3, 0)
        assert via1 == via2 == via3 == p[5]


def test_compare_edges_basics():
    g = build_graph([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)])
    o = EdgeOrder(g, {1: 1, 2: 1, 3: 2, 4: 2}, [(1, 2), (2, 3), (3, 4)])
    assert compare_edges(o, (1, 2), (3, 4)) == -1   # weight 1 vs 2
    assert compare_edges(o, (1, 2), (2, 3)) == -1   # tie on weight, rank breaks
    with pytest.raises(ValueError):
        compare_edges(o, (1, 2), (1, 2))


def test_sequence_tiebreak_lists_each_edge_once():
    """A sequence tiebreak must list exactly the graph's edges: a missing
    edge, a repeated edge and a non-edge are each a `ValueError`."""
    tri = build_graph(range(3), [(0, 1), (1, 2), (0, 2)])
    for tiebreak, why in (([(0, 1), (1, 2)], "missing edge"),
                          ([(0, 1), (0, 1), (1, 2), (0, 2)], "repeats an edge"),
                          ([(0, 1), (1, 2), (0, 2), (5, 6)], r"names \(5, 6\)"),
                          ([(0, 1), (0, 1), (1, 2), (0, 2), (5, 6)], r"names \(5, 6\)")):
        with pytest.raises(ValueError, match=why):
            EdgeOrder(tri, unit_potential(tri), tiebreak)
    assert EdgeOrder(tri, unit_potential(tri), [(0, 2), (0, 1), (1, 2)]).tiebreak[0] == (0, 2)


def test_tiebreak_missing_edges_name_the_least():
    """With several edges missing, the message names the least of them in
    canonical order."""
    path = build_graph(range(11), [(i, i + 1) for i in range(10)])
    for tiebreak in ([(0, 1)], [(8, 9), (0, 1)]):
        with pytest.raises(ValueError, match=r"^tiebreak missing edge \(1, 2\)$"):
            EdgeOrder(path, unit_potential(path), tiebreak)


def test_mapping_tiebreak_is_refused():
    """A tiebreak is one edge sequence: a mapping of ranks is a `TypeError`
    that names the accepted form, not an order read off its key order."""
    tri = build_graph(range(3), [(0, 1), (1, 2), (0, 2)])
    for tiebreak in ({(0, 1): 0, (1, 2): 1, (0, 2): 2}, {(0, 2): 5, (0, 1): -3, (1, 2): 9}):
        with pytest.raises(TypeError, match="one sequence of the graph's edges, least first"):
            EdgeOrder(tri, unit_potential(tri), tiebreak)


def test_one_pass_tiebreak_gives_the_list_keys(rand):
    """The tiebreak is read once: a generator or an iterator over the edges
    gives the keys the same list gives."""
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(1, 9))
        pot, tb = random_potential(rand, g), random_tiebreak(rand, g)
        want = EdgeOrder(g, pot, tb)
        for once in ((e for e in tb), iter(tb)):
            got = EdgeOrder(g, pot, once)
            assert got.keys == want.keys and got.tiebreak == tuple(tb)


@pytest.mark.parametrize("e", [(5, 6), (1, 0), (0, 7), (3, 3)])
def test_key_of_a_non_edge_is_unknown(e):
    """`key` of a pair that is not a canonical edge (a non-edge, a reversed
    edge, a pair with a foreign end) is `UnknownId`, as in `compare_edges`."""
    tri = build_graph(range(3), [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(UnknownId, match=rf"^edge \({e[0]}, {e[1]}\) not in graph$"):
        EdgeOrder(tri, unit_potential(tri)).key(e)


def test_compare_edges_cross_component():
    g = build_graph(range(4), [(0, 1), (2, 3)])
    o = EdgeOrder(g, unit_potential(g))
    with pytest.raises(CrossComponent):
        compare_edges(o, (0, 1), (2, 3))


@pytest.mark.parametrize("e1, e2, outside", [
    ((1, 2), (7, 8), (7, 8)),
    ((1, 2), (1, 3), (1, 3)),
    ((7, 8), (1, 2), (7, 8)),
    ((1, 2), (2, 9), (2, 9)),
])
def test_compare_edges_rejects_an_edge_outside_the_graph(e1, e2, outside):
    g = build_graph([1, 2, 3], [(1, 2), (2, 3)])
    o = EdgeOrder(g, unit_potential(g))
    with pytest.raises(UnknownId, match=rf"edge \({outside[0]}, {outside[1]}\) not in graph"):
        compare_edges(o, e1, e2)


def test_order_invariant_under_rescaling(rand):
    for _ in range(30):
        g = random_connected_graph(rand, rand.randint(3, 9))
        potmap = random_potential(rand, g)
        tb = random_tiebreak(rand, g)
        base = EdgeOrder(g, potmap, tb)
        scaled = EdgeOrder(g, {v: x * 5 for v, x in potmap.items()}, tb)
        ranked = sorted(edge_set(g), key=base.key)
        assert ranked == sorted(edge_set(g), key=scaled.key)


def test_basepoint_independence_of_full_order(rand):
    for _ in range(20):
        g = random_connected_graph(rand, rand.randint(3, 9))
        c = cocycle_from_potential(g, random_potential(rand, g))
        tb = random_tiebreak(rand, g)
        orders = []
        for base in (g.vertices[0], g.vertices[-1]):
            pot = potential_from_cocycle(g, c, base)
            o = EdgeOrder(g, pot.values, tb)
            orders.append(sorted(edge_set(g), key=o.key))
        assert orders[0] == orders[1]


def test_strict_total_order_exhaustive(rand):
    g = random_gnm(9, 18, seed=5)   # up to 30 edges per the contract
    o = EdgeOrder(g, random_potential(rand, g), random_tiebreak(rand, g))
    edges = g.sorted_edges()
    comps = {v: i for i, c in enumerate(components(g)) for v in c}
    for e1 in edges:
        for e2 in edges:
            if e1 == e2 or comps[e1[0]] != comps[e2[0]]:
                continue
            assert compare_edges(o, e1, e2) == -compare_edges(o, e2, e1)
    for e1 in edges:
        for e2 in edges:
            for e3 in edges:
                if len({e1, e2, e3}) != 3:
                    continue
                if comps[e1[0]] != comps[e2[0]] or comps[e2[0]] != comps[e3[0]]:
                    continue
                if compare_edges(o, e1, e2) == -1 and compare_edges(o, e2, e3) == -1:
                    assert compare_edges(o, e1, e3) == -1



def test_int_key_equals_tuple_key(rand):
    """The int key orders edges exactly as (exact weight, tiebreak) does:
    potentials drawn from 1-3 values so weight ties are common."""
    graphs = [build_graph([], []), build_graph(range(4), [])]
    for _ in range(150):
        g = random_connected_graph(rand, rand.randint(2, 9))
        if rand.random() < 0.3:   # a second component
            h = random_connected_graph(rand, rand.randint(1, 4))
            g = build_graph(range(len(g.vertices) + len(h.vertices)),
                            list(edge_set(g)) + [(u + len(g.vertices), v + len(g.vertices))
                                             for u, v in edge_set(h)])
        graphs.append(g)
    for g in graphs:
        values = [F(rand.randint(1, 5), rand.randint(1, 5))
                  for _ in range(rand.randint(1, 3))]
        pot = {v: rand.choice(values) for v in g.vertices}
        edges = random_tiebreak(rand, g)
        o = EdgeOrder(g, pot, edges)
        old = tuple_key(o)
        assert all(type(o.key(e)) is int for e in edges)
        assert sorted(edges, key=o.key) == sorted(edges, key=old)
        comp = {v: i for i, c in enumerate(components(g)) for v in c}
        for e1 in edges:
            for e2 in edges:
                assert (o.key(e1) < o.key(e2)) == (old(e1) < old(e2))
                if e1 != e2 and comp[e1[0]] == comp[e2[0]]:
                    assert compare_edges(o, e1, e2) == (-1 if old(e1) < old(e2) else 1)
        if g.vertices:
            sub = induced_subgraph(g, rand.sample(g.vertices, rand.randint(1, len(g.vertices))))
            ro = o.restrict(sub)
            assert sorted(edge_set(sub), key=ro.key) == sorted(edge_set(sub), key=old)
            assert sorted(edge_set(sub), key=ro.key) == sorted(edge_set(sub), key=tuple_key(ro))


def test_worst_cycle_is_a_cycle_of_the_worst_defect(rand):
    """On perturbed cocycles (each ratio still the inverse of its reverse),
    `worst_cycle` is a simple closed walk of g, its last vertex joined to its
    first, and |log| of its ratio product is `worst_defect`."""
    inconsistent = 0
    for _ in range(300):
        g = random_connected_graph(rand, rand.randint(3, 9))
        if rand.random() < 0.3:   # a second component
            h = random_connected_graph(rand, rand.randint(1, 5))
            n = len(g.vertices)
            g = build_graph(range(n + len(h.vertices)),
                            list(edge_set(g)) + [(u + n, v + n) for u, v in edge_set(h)])
        ratios = dict(cocycle_from_potential(g, random_potential(rand, g)).ratios)
        for u, v in rand.sample(g.sorted_edges(), rand.randint(1, 2)):
            f = F(rand.randint(1, 5), rand.randint(1, 5))
            ratios[u, v] *= f
            ratios[v, u] /= f
        rep = validate_cocycle(g, Cocycle(ratios=ratios))
        if rep.ok:   # only bridges were perturbed, or by a factor of 1
            assert rep.worst_cycle == () and rep.worst_defect == 0.0
            continue
        inconsistent += 1
        cyc = rep.worst_cycle
        assert len(cyc) >= 3 and len(set(cyc)) == len(cyc), (sorted(edge_set(g)), cyc)
        closed = list(zip(cyc, cyc[1:] + cyc[:1]))
        edges = edge_set(g)
        assert all(edge(a, b) in edges for a, b in closed), (sorted(edges), cyc)
        prod = math.prod(ratios[a, b] for a, b in closed)
        # either orientation: the two products are exact inverses
        assert rep.worst_defect in {abs(math.log(float(x))) for x in (prod, 1 / prod)}
    assert inconsistent > 100


def _perturbed(rand, g, ratios):
    """`ratios` with one or two edges' ratios scaled: both directions by
    inverse factors, or, at one edge in four, one direction only."""
    ratios = dict(ratios)
    for u, v in rand.sample(g.sorted_edges(), min(len(edge_set(g)), rand.randint(1, 2))):
        f = F(rand.randint(1, 5), rand.randint(1, 5))
        ratios[u, v] *= f
        if rand.random() < 0.75:
            ratios[v, u] /= f
    return Cocycle(ratios=ratios)


def test_validate_cocycle_equals_id_keyed_oracle(rand):
    """The whole report, the exact `worst_cycle` included, equals the
    reading on a BFS forest keyed by id: connected and disconnected random
    graphs on consecutive, scattered and negative ids, and GP(2,1,2)."""
    inconsistent = 0
    for case in range(400):
        g = random_connected_graph(rand, rand.randint(2, 9))
        if case % 3 == 0:   # a second component
            h = random_connected_graph(rand, rand.randint(1, 5))
            n = len(g.vertices)
            g = build_graph(range(n + len(h.vertices)),
                            list(edge_set(g)) + [(u + n, v + n) for u, v in edge_set(h)])
        if case % 2:   # scattered ids, half of them negative
            ids = rand.sample(range(-60, 60), len(g.vertices))
            g = build_graph(ids, [(ids[u], ids[v]) for u, v in edge_set(g)])
        c = _perturbed(rand, g, cocycle_from_potential(g, random_potential(rand, g)).ratios)
        rep = validate_cocycle(g, c)
        assert rep == validate_cocycle_oracle(g, c), (sorted(edge_set(g)), c.ratios)
        inconsistent += not rep.ok
    gp = gp_graph(2, 1, 2)
    consistent = cocycle_from_potential(gp, level_potential(gp, F(1, 2)))
    assert validate_cocycle(gp, consistent) == validate_cocycle_oracle(gp, consistent)
    for _ in range(50):
        c = _perturbed(rand, gp, consistent.ratios)
        rep = validate_cocycle(gp, c)
        assert rep == validate_cocycle_oracle(gp, c)
        inconsistent += not rep.ok
    assert inconsistent > 200
