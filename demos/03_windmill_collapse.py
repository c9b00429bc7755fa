"""The windmill: quadrant blades on a hub line, the dotted/solid edge order,
the furcation family, and the collapse pipeline.

Run: python demos/03_windmill_collapse.py
"""

from wforest import (
    ProxyParams,
    check_cut_witnesses,
    collapsed_maximal_subforest,
    find_furcation_vertices,
    maximal_disjoint_furcations,
    maximal_subforest,
    windmill,
)
from wforest.forest import is_acyclic
from wforest.weights import EdgeOrder, unit_potential

B, R = 4, 3
g = windmill(B, R)
pot = unit_potential(g)
params = ProxyParams()

print(f"== windmill({B}, {R}) ==")
print(f"  {len(g.vertices)} vertices, {len(g.ordered_edges)} edges; "
      f"hubs 0..{B - 1} on a line, one lattice-quadrant blade each")
print(f"  trifurcation-proxy vertices: "
      f"{find_furcation_vertices(g, pot, 3, params)} (the interior hubs)")

print("\n== The emitted dotted/solid order ==")
tiebreak = g.meta["tiebreak"]
order = EdgeOrder(g, pot, tiebreak)
result = maximal_subforest(g, order)
print(f"  the cycle-cutting forest keeps {len(result.kept)} edges, "
      f"deletes {len(result.deleted)}")
report = check_cut_witnesses(g, result, order)
print(f"  cut witnesses clean: {report.ok}; each of the {len(report.witnesses)} "
      "deleted edges is least on the cycle its witness closes")
for hub in range(1, B - 1):
    incident = sorted(e for e in result.kept if hub in e)
    print(f"  hub {hub} keeps exactly {len(incident)} directions: {incident}")
print("  three rays at every interior hub: chain-left, chain-right, blade")

print("\n== Furcation family and collapse ==")
family = maximal_disjoint_furcations(g, pot, params)
by_phase: dict[int, list] = {}
for block, phase in zip(family.blocks, family.phases):
    by_phase.setdefault(phase, []).append(block)
for phase in sorted(by_phase):
    print(f"  phase {phase}: {len(by_phase[phase])} blocks, "
          f"first few {by_phase[phase][:3]}")

res = collapsed_maximal_subforest(g, pot, tiebreak, params)
print(f"  quotient: {len(res.quot.qgraph.vertices)} blocks, "
      f"{len(res.quot.qgraph.ordered_edges)} edges")
print(f"  lifted forest: {len(res.forest.kept)} kept edges, "
      f"acyclic = {is_acyclic(g, res.forest.kept)}")
lifted = {qe for qe in res.quot.qgraph.ordered_edges
          if res.quot.lift[qe] in res.forest.kept}
print(f"  forest modulo family equals the quotient forest: "
      f"{lifted == set(res.qforest.kept)}")
