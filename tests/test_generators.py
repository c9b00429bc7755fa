from fractions import Fraction as F

import pytest

from wforest.errors import BadParams, MalformedDocument
from wforest.generators import (
    FAMILIES,
    MAX_PAIRS,
    MAX_VERTICES,
    _gnm_pairs,
    _vertex_count,
    build_family,
    cycle,
    free_product,
    gp_graph,
    lattice_box,
    random_gnm,
    regular_tree,
    windmill,
)
from wforest.graph import from_json, to_json
from wforest.weights import (
    cocycle_from_potential,
    level_potential,
    unit_potential,
    validate_cocycle,
)

from conftest import edge_set


def test_determinism_byte_identical():
    specs = [
        {"family": "gp", "k": 2, "up": 2, "down": 3},
        {"family": "windmill", "blades": 3, "radius": 2},
        {"family": "random_gnm", "n": 10, "m": 14, "seed": 9},
        {"family": "free_product", "max_word": 1,
         "factors": [{"family": "gp", "k": 2, "up": 1, "down": 1},
                     {"family": "lattice_box", "w": 3, "h": 3}]},
    ]
    for spec in specs:
        assert to_json(build_family(dict(spec))) == to_json(build_family(dict(spec)))


def test_every_family_survives_its_json_round_trip():
    """`from_json(to_json(g)) == g` for every family, nested free products
    among them: the meta comes back as the generator stored it."""
    gp = {"family": "gp", "k": 2, "up": 1, "down": 1}
    box = {"family": "lattice_box", "w": 3, "h": 3}
    specs = [gp, box, {"family": "regular_tree", "d": 3, "radius": 2},
             {"family": "windmill", "blades": 3, "radius": 2}, {"family": "cycle", "n": 5},
             {"family": "random_gnm", "n": 8, "m": 11, "seed": 2},
             {"family": "free_product", "max_word": 2, "factors": [gp, box]},
             {"family": "free_product", "max_word": 1, "factors": [
                 {"family": "free_product", "max_word": 1, "factors": [gp, box]},
                 {"family": "cycle", "n": 3}]}]
    assert sorted({spec["family"] for spec in specs}) == sorted(FAMILIES)
    for spec in specs:
        g = build_family(spec)
        assert from_json(to_json(g)) == g, spec


def test_build_family_checks_every_field():
    """random_gnm's seed defaults to 0.  A missing field or one the family
    does not take, in a factor spec too, is BadParams; a field of the wrong
    JSON type is MalformedDocument."""
    assert to_json(build_family({"family": "random_gnm", "n": 6, "m": 4})) == \
        to_json(random_gnm(6, 4, 0))
    box = {"family": "lattice_box", "w": 2, "h": 2}
    for spec, error in (
        ({"family": "free_product", "max_word": 1, "factors": [box, {"family": "cycle"}]},
         BadParams),
        ({"family": "free_product", "max_word": 1, "factors": [box, {**box, "n": 3}]},
         BadParams),
        ({"family": "cycle", "n": 3.0}, MalformedDocument),
        ({"family": "free_product", "max_word": 1, "factors": box}, MalformedDocument),
    ):
        with pytest.raises(error):
            build_family(spec)


def test_gp_2_1_1_hand_audit():
    g = gp_graph(2, 1, 1)
    assert len(g.vertices) == 7
    root = g.meta["root"]
    lv = g.meta["levels"]
    assert lv[root] == 0
    ancestor = [v for v in g.vertices if lv[v] == -1]
    assert len(ancestor) == 1
    a = ancestor[0]
    zeros = [v for v in g.vertices if lv[v] == 0]
    ones = [v for v in g.vertices if lv[v] == 1]
    assert len(zeros) == 2 and len(ones) == 4
    # parent edges ancestor-row0 and row0-row1, grandparent edges ancestor-row1
    for z in zeros:
        assert (min(a, z), max(a, z)) in edge_set(g)
    for o in ones:
        assert (min(a, o), max(a, o)) in edge_set(g)
    assert len(edge_set(g)) == 2 + 4 + 4


def test_gp_interior_degree_audit():
    for k, up, down in ((2, 3, 5), (3, 2, 4)):
        g = gp_graph(k, up, down)
        expect = (k + 1) + k * k + 1  # children+parent, grandchildren, grandparent
        for v in g.vertices:
            if not g.is_boundary(v):
                assert g.degree(v) == expect


def test_gp_boundary_bands():
    g = gp_graph(2, 3, 5)
    lv = g.meta["levels"]
    for v in g.vertices:
        expect = lv[v] in (-3, -2, 4, 5)
        assert g.is_boundary(v) == expect


def test_gp_parent_child_ratio():
    g = gp_graph(2, 1, 3)
    c = cocycle_from_potential(g, level_potential(g, F(1, 2)))
    lv = g.meta["levels"]
    for u, v in g.sorted_edges():
        child, parent = (u, v) if lv[u] > lv[v] else (v, u)
        if lv[child] - lv[parent] == 1:
            assert c.ratio(child, parent) == F(1, 2)
        else:
            assert c.ratio(child, parent) == F(1, 4)
    assert validate_cocycle(g, c).ok


def test_small_families():
    box = lattice_box(2, 2)
    assert len(box.vertices) == 4 and len(edge_set(box)) == 4
    star = regular_tree(3, 1)
    assert len(star.vertices) == 4 and star.degree(0) == 3
    tri = cycle(3)
    assert len(edge_set(tri)) == 3
    g = random_gnm(8, 11, seed=2)
    assert len(edge_set(g)) == 11
    assert edge_set(random_gnm(8, 11, seed=2)) == edge_set(g)
    assert edge_set(random_gnm(8, 11, seed=3)) != edge_set(g)


def test_lattice_box_boundary():
    box = lattice_box(4, 3)
    per = {v for v in box.vertices if box.is_boundary(v)}
    assert len(per) == 4 * 3 - 2  # all but the two interior cells


def test_bad_params():
    for call in (lambda: gp_graph(1, 1, 1), lambda: cycle(2),
                 lambda: windmill(2, 2), lambda: lattice_box(0, 3),
                 lambda: random_gnm(4, 99, 0),
                 lambda: free_product([{"family": "cycle", "n": 3}], 1)):
        with pytest.raises(BadParams):
            call()


def test_free_product_vertex_audit():
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=1)
    assert len(fp.vertices) == 7 + 7 * (9 - 1)


def test_free_product_edge_ratios():
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 3, "h": 3}], max_word=2)
    c = cocycle_from_potential(fp, level_potential(fp, F(1, 2)))
    assert validate_cocycle(fp, c).ok
    gp_ratios, z2_ratios = set(), set()
    for u, v, fidx in fp.meta["edge_factors"]:
        target = gp_ratios if fidx == 0 else z2_ratios
        target.add(c.ratio(u, v))
        target.add(c.ratio(v, u))
    assert gp_ratios == {F(1, 4), F(1, 2), F(2), F(4)}
    assert z2_ratios == {F(1)}


def test_free_product_factor_recovery():
    # contracting every attached box leaves the base gp adjacency intact
    fp = free_product([{"family": "gp", "k": 2, "up": 1, "down": 1},
                       {"family": "lattice_box", "w": 2, "h": 2}], max_word=1)
    base = gp_graph(2, 1, 1)
    gp_edges = {(u, v) for u, v, fidx in fp.meta["edge_factors"] if fidx == 0}
    # depth-0 copy keeps factor vertex ids, so its edges match the base graph
    assert {e for e in gp_edges if max(e) < len(base.vertices)} == set(edge_set(base))


def test_windmill_hand_audit():
    w = windmill(3, 2)
    assert len(w.vertices) == 3 + 3 * 8
    assert len(edge_set(w)) == 2 + 3 * 12
    assert set(w.meta["tiebreak"]) == set(edge_set(w))
    # hubs 0 and 2 are chain ends, flagged; hub 1 interior
    assert w.is_boundary(0) and w.is_boundary(2) and not w.is_boundary(1)


def test_windmill_emitted_order_shape():
    w = windmill(4, 3)
    rank = {e: i for i, e in enumerate(w.meta["tiebreak"])}
    chain = [e for e in edge_set(w) if e[0] < 4 and e[1] < 4]
    solid = []
    dotted_rows = {}
    R = 3
    blade_cells = (R + 1) ** 2 - 1

    def coords(vid):
        i = (vid - 4) // blade_cells
        r = (vid - 4) % blade_cells + 1
        return i, r // (R + 1), r % (R + 1)

    for e in edge_set(w):
        if e in chain:
            continue
        u, v = e
        iu, au, bu = coords(u) if u >= 4 else (u, 0, 0)
        iv, av, bv = coords(v) if v >= 4 else (v, 0, 0)
        if bu == bv:
            dotted_rows.setdefault((iu, bu), []).append((au, e))
        else:
            solid.append(e)
    # every dotted edge precedes every solid edge
    max_dotted = max(rank[e] for row in dotted_rows.values() for _, e in row)
    min_solid = min(rank[e] for e in solid)
    assert max_dotted < min_solid
    # each row strictly increasing along the blade
    for row in dotted_rows.values():
        row.sort()
        ranks = [rank[e] for _, e in row]
        assert ranks == sorted(ranks)


def test_windmill_forest_three_rays_at_hubs():
    from wforest.forest import maximal_subforest
    from wforest.weights import EdgeOrder

    from conftest import maximal_subforest_oracle
    w = windmill(3, 3)
    o = EdgeOrder(w, unit_potential(w), w.meta["tiebreak"])
    r = maximal_subforest_oracle(w, o)
    assert maximal_subforest(w, o).kept == r.kept
    for hub in (1,):  # interior hub
        incident = sorted(e for e in r.kept if hub in e)
        assert len(incident) == 3
        chain_edges = [e for e in incident if e[0] < 3 and e[1] < 3]
        assert len(chain_edges) == 2  # both chain directions plus one blade ray


def test_vertex_count_is_the_built_count():
    """`build_family`'s closed-form count is each family's vertex count,
    for free products by their factors' counts, nested too, with 1- and
    2-vertex factors whose copies add no vertex or one."""
    box = lambda w, h: {"family": "lattice_box", "w": w, "h": h}
    gp = {"family": "gp", "k": 3, "up": 1, "down": 2}
    specs = [gp, {"family": "gp", "k": 2, "up": 2, "down": 1}, box(3, 4), box(1, 1),
             {"family": "regular_tree", "d": 3, "radius": 3},
             {"family": "regular_tree", "d": 2, "radius": 4},
             {"family": "windmill", "blades": 4, "radius": 3}, {"family": "cycle", "n": 5},
             {"family": "random_gnm", "n": 7, "m": 3}]
    for max_word in (1, 2, 3):
        for factors in ([gp, box(2, 2)], [box(1, 2), box(2, 1)], [box(1, 1), box(1, 2)],
                        [box(1, 1), box(1, 1)], [box(1, 2), box(1, 1), box(2, 1)],
                        [box(2, 2), {"family": "cycle", "n": 3}, box(1, 1)],
                        [{"family": "free_product", "max_word": 1,
                          "factors": [box(1, 2), box(2, 1)]}, box(2, 1)]):
            specs.append({"family": "free_product", "max_word": max_word, "factors": factors})
    for spec in specs:
        assert _vertex_count(spec) == len(build_family(spec).vertices), spec


def test_build_family_refuses_from_the_count_alone():
    """Specs past the bounds are refused before anything is built: each
    value here would take far more memory or time than any test allows."""
    pair = [{"family": "lattice_box", "w": 1, "h": 2}, {"family": "lattice_box", "w": 2, "h": 1}]
    for spec in ({"family": "lattice_box", "w": 10**8, "h": 10**8},
                 {"family": "gp", "k": 2, "up": 3, "down": 10**18},
                 {"family": "regular_tree", "d": 2, "radius": MAX_VERTICES},
                 {"family": "cycle", "n": MAX_VERTICES + 1},
                 {"family": "random_gnm", "n": 10**9, "m": 0},
                 {"family": "free_product", "max_word": 10**18, "factors": pair},
                 {"family": "free_product", "max_word": 1, "factors": [
                     {"family": "lattice_box", "w": 5000, "h": 1000},
                     {"family": "lattice_box", "w": 2, "h": 2}]}):
        with pytest.raises(BadParams, match="vertices"):
            build_family(spec)


def test_random_gnm_refuses_past_the_pair_bound():
    """random_gnm shuffles all n(n-1)/2 pairs, so n is bounded by the pair
    count, n = 2000 being the last n within MAX_PAIRS; each refused value
    here is refused before a pair is made."""
    assert _gnm_pairs(2000) == 1999000 <= MAX_PAIRS < 2001 * 2000 // 2
    assert _vertex_count({"family": "random_gnm", "n": 2000, "m": 1}) == 2000
    for n in (2001, 10**5, MAX_VERTICES):
        with pytest.raises(BadParams, match="vertex pairs"):
            random_gnm(n, 1, 0)
        with pytest.raises(BadParams, match="vertex pairs"):
            build_family({"family": "random_gnm", "n": n, "m": 1})
        with pytest.raises(BadParams, match="vertex pairs"):
            build_family({"family": "free_product", "max_word": 1, "factors": [
                {"family": "cycle", "n": 3}, {"family": "random_gnm", "n": n, "m": 0}]})
