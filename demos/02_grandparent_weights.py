"""The grandparent family: level weights, exact cocycles, visibility cones,
and an empirical look at how forest decisions stabilize as the truncation
grows.

Run: python demos/02_grandparent_weights.py
"""

from fractions import Fraction as F

from wforest import (
    EdgeOrder,
    ProxyParams,
    cocycle_from_potential,
    components,
    gp_graph,
    induced_subgraph,
    maximal_subforest,
    qualifier,
    validate_cocycle,
    visibility_masses,
)
from wforest.weights import level_potential

print("== GP(2), two ancestor levels, three descendant levels ==")
g = gp_graph(2, 2, 3)
levels = g.meta["levels"]
print(f"  {len(g.vertices)} vertices, {len(g.ordered_edges)} edges "
      f"(parent + grandparent), root id {g.meta['root']}")

potential = level_potential(g, F(1, 2))
cocycle = cocycle_from_potential(g, potential)
rep = validate_cocycle(g, cocycle)
print(f"  level weights 2^(-level); cocycle exact: {rep.ok}, "
      f"defect {rep.worst_defect}")
root = g.meta["root"]
child = next(v for v in g.neighbors(root) if levels[v] == 1)
print(f"  ratio child-to-parent at the root: {cocycle.ratio(child, root)}")

print("\n== Visibility from the root ==")
# the visible set: the root's component among the vertices no heavier than it
sublevel = induced_subgraph(g, [v for v in g.vertices if potential[v] <= potential[root]])
vis = next(comp for comp in components(sublevel) if root in comp)
mass = visibility_masses(g, potential)[root]
params = ProxyParams()
rel = {v: potential[v] / potential[root] for v in vis}
heavy = mass >= params.heavy_tau or any(map(qualifier(g, rel, params), vis))
cls = "heavy" if heavy else "light"
print(f"  |N(root)| = {len(vis)} (the descendant cone), mass = {mass} "
      f"= depth+1, class {cls}")
print("  every escape from the cone climbs past an ancestor of weight > 1")

print("\n== Do forest decisions stabilize as the truncation grows? ==")
# Identify vertices across truncations by their child-index path from the
# top ancestor, so the same structural edge can be compared at two radii.


def signatures(graph):
    lv = graph.meta["levels"]
    kids: dict[int, list[int]] = {}
    parent = {}
    for u, v in graph.sorted_edges():
        a, b = (u, v) if lv[u] < lv[v] else (v, u)
        if lv[b] - lv[a] == 1:
            kids.setdefault(a, []).append(b)
            parent[b] = a
    sig = {}
    top = min(graph.vertices, key=lambda v: (lv[v], v))
    sig[top] = ()
    order = [top]
    while order:
        x = order.pop()
        for i, c in enumerate(sorted(kids.get(x, ()))):
            sig[c] = sig[x] + (i,)
            order.append(c)
    return sig


def forest_decisions(graph):
    sig = signatures(graph)
    pot = level_potential(graph, F(1, 2))
    tiebreak = sorted(graph.ordered_edges, key=lambda e: tuple(sorted((sig[e[0]], sig[e[1]]))))
    result = maximal_subforest(graph, EdgeOrder(graph, pot, tiebreak))
    return {
        tuple(sorted((sig[u], sig[v]))): ((u, v) in result.kept)
        for u, v in graph.ordered_edges
    }


small = forest_decisions(gp_graph(2, 2, 3))
large = forest_decisions(gp_graph(2, 2, 4))
common = set(small) & set(large)
agree = sum(1 for key in common if small[key] == large[key])
print(f"  common structural edges: {len(common)}; decisions agreeing after "
      f"one more level: {agree} ({100 * agree / len(common):.1f}%)")
print("  (reported empirically; no convergence theorem is claimed)")
