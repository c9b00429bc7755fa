"""Walkthrough of the cycle-cutting forest on tiny graphs.

Run: python demos/01_weighted_forest_basics.py
"""

from fractions import Fraction as F

from wforest import (
    EdgeOrder,
    build_graph,
    check_cut_witnesses,
    compare_edges,
    maximal_subforest,
)

print("== A weighted triangle ==")
g = build_graph([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
potential = {1: F(3), 2: F(2), 3: F(1)}
order = EdgeOrder(g, potential, tiebreak=[(2, 3), (1, 3), (1, 2)])
for e in g.sorted_edges():
    print(f"  edge {e}: weight min of endpoints = {order.weight(e)}, "
          f"tiebreak rank {order.tiebreak.index(e)}")
print("  order says (2,3) before (1,3):",
      compare_edges(order, (2, 3), (1, 3)) == -1)

result = maximal_subforest(g, order)
print(f"  kept {sorted(result.kept)}, deleted {sorted(result.deleted)}")
print("  (the unique cycle loses its order-least edge)")

report = check_cut_witnesses(g, result, order)
print(f"  cut witnesses clean: {report.ok}; partner for (2,3): "
      f"{report.witnesses[(2, 3)]}")

print("\n== Two triangles sharing an edge ==")
g2 = build_graph(range(4), [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
order2 = EdgeOrder(g2, {v: F(1) for v in g2.vertices},
                   tiebreak=[(1, 2), (0, 1), (0, 2), (1, 3), (2, 3)])
print("  cycles: the two triangles and the outer square")
fast = maximal_subforest(g2, order2)
print(f"  greedy deletes {sorted(fast.deleted)}")
report2 = check_cut_witnesses(g2, fast, order2)
print(f"  cut witnesses clean: {report2.ok}")
for e in sorted(fast.deleted):
    print(f"  deleted {e}: least on the cycle it closes through the kept forest, "
          f"whose greatest edge {report2.witnesses[e]} is its witness")
print("  the shared edge (1,2) is least in both triangles; (0,1) is least on the")
print("  outer square, which (1,2) is not on, so it goes too - deletion is simultaneous")

print("\n== Fixing a subforest ==")
fixed = frozenset({(1, 2)})
pinned = maximal_subforest(g2, order2, fixed=fixed)
print(f"  with (1,2) fixed: kept {sorted(pinned.kept)}, "
      f"deleted {sorted(pinned.deleted)}")
print("  fixed edges always survive; the cut falls elsewhere")
