"""Cycle-cutting subforests.

The normative semantics: an edge e outside the fixed subforest H is deleted
iff some simple cycle through e has e as its order-least non-H edge;
equivalently e is kept iff its endpoints are not connected by H together
with the strictly greater edges.  On a finite graph with a strict total
order this is exactly the maximum spanning forest constrained to contain H,
which `maximal_subforest` computes greedily.  `check_cut_witnesses` is its
polynomial certificate: each deleted edge is shown least on one cycle, or
below a partner across a cut.  The literal cycle-enumeration reading and
the classical free minimal spanning forest are exponential or quadratic, so
they live with the test suite, which holds the greedy equal to both.
"""

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import (
    FixedSetCyclic,
    InvariantViolation,
    NotConnected,
    NotCycleInvariant,
    UnknownId,
)
from .graph import (
    Edge,
    Graph,
    _adjacency,
    _bfs_forest,
    _host_edges,
    _tree_walk,
    induced_subgraph,
    is_connected_set,
    is_cycle_invariant,
)
from .unionfind import UnionFind
from .weights import EdgeOrder


@dataclass(frozen=True)
class ForestResult:
    kept: frozenset[Edge]
    deleted: frozenset[Edge]
    fixed: frozenset[Edge]

    def __post_init__(self):
        if self.kept & self.deleted:
            raise InvariantViolation("kept and deleted edge sets overlap")
        if not self.fixed <= self.kept:
            raise InvariantViolation("fixed edges must survive into the forest")


def maximal_subforest(g: Graph, order: EdgeOrder, fixed: Iterable[Edge] = ()) -> ForestResult:
    """Delete from each simple cycle its order-least edge outside `fixed`.

    Greedy realization: insert fixed edges, then the remaining edges in
    decreasing order; an edge is deleted exactly when it would close a
    cycle.  Pure function of (graph, potentials, tiebreak, fixed).
    """
    h = frozenset(fixed)
    for e in h:
        if e not in g.edges:
            raise UnknownId(f"fixed edge {e} not in graph")
    uf = UnionFind(g.vertices)
    for u, v in sorted(h):
        if not uf.union(u, v):
            raise FixedSetCyclic(f"fixed edge set closes a cycle at {(u, v)}")
    kept = set(h)
    deleted = []
    rest = sorted((e for e in g.edges if e not in h), key=order.key, reverse=True)
    for e in rest:
        if uf.union(*e):
            kept.add(e)
        else:
            deleted.append(e)
    return ForestResult(kept=frozenset(kept), deleted=frozenset(deleted), fixed=h)


class CutWitnessReport(NamedTuple):
    violations: tuple[tuple[Edge, str], ...]
    witnesses: dict[Edge, Edge]

    @property
    def ok(self) -> bool:
        return not self.violations


def _root_forest(g: Graph, kept: frozenset[Edge]):
    """Root every tree of the kept forest at its least vertex (`_bfs_forest`
    on the kept edges' own adjacency).  A tree has one path from each vertex
    to its root, so the parents and depths do not depend on the order of
    the neighbours, and any breadth-first order lists a parent before its
    children: the kept edges are not sorted.

    Returns (parent, depth, root).  A kept set with a cycle cannot come from
    any producer and raises `InvariantViolation`: a forest with t trees on n
    vertices has exactly n - t edges.
    """
    adjacency = _adjacency(g.vertices, _host_edges(g, kept))
    parent, depth, root = _bfs_forest(adjacency, g.vertices)
    trees = sum(1 for p in parent.values() if p is None)
    if len(kept) != len(g.vertices) - trees:
        raise InvariantViolation("kept edges close a cycle")
    return parent, depth, root


def check_cut_witnesses(g: Graph, result: ForestResult, order: EdgeOrder) -> CutWitnessReport:
    """Verify the finite step of the increasing-sequence argument.

    For each deleted edge e: if its endpoints are joined in the kept forest,
    every non-fixed edge on that path must be order-greater than e (the
    fundamental cycle witnesses the deletion, and cutting any such greater
    edge leaves e crossing a cut with a greater partner).  If the endpoints
    lie in distinct kept components, some other non-fixed boundary edge of
    the component must be order-greater.  Report-only, except that a kept
    set with a cycle raises `InvariantViolation`.
    """
    return _cut_witnesses(g, result, order, _root_forest(g, result.kept))


def _cut_witnesses(g: Graph, result: ForestResult, order: EdgeOrder,
                   rooted) -> CutWitnessReport:
    """`check_cut_witnesses` on the kept forest as `_root_forest` rooted it.
    Each kept path is one `_tree_walk`, read in walk order: the first loose
    (non-fixed) edge below e is the violation, else the greatest loose edge
    is the witness."""
    violations: list[tuple[Edge, str]] = []
    witnesses: dict[Edge, Edge] = {}
    parent, depth, root = rooted
    key = order.key
    loose_key = {f: key(f) for f in result.kept if f not in result.fixed}
    for e in sorted(result.deleted):
        u, v = e
        floor = key(e)
        if root[u] == root[v]:
            walk = _tree_walk(parent, depth, u, v)
            best, top = None, floor
            for a, b in zip(walk, walk[1:]):
                f = (a, b) if a < b else (b, a)
                k = loose_key.get(f)
                if k is None:
                    continue
                if k < floor:
                    violations.append((e, f"kept-path edge {f} is below the deleted edge"))
                    break
                if k > top:
                    best, top = f, k
            else:
                if best is not None:
                    witnesses[e] = best
            continue
        r = root[u]
        # no kept (so no fixed) edge crosses the cut, and e is not above itself
        partners = [f for f in g.edges
                    if (root[f[0]] == r) != (root[f[1]] == r) and key(f) > floor]
        if partners:
            witnesses[e] = min(partners, key=key)
        else:
            violations.append((e, "no greater boundary partner for a cut edge"))
    return CutWitnessReport(violations=tuple(violations), witnesses=witnesses)


def restrict_forest(g: Graph, result: ForestResult, order: EdgeOrder,
                    Y: Iterable[int]) -> ForestResult:
    """Restrict a forest result to a cycle-invariant connected vertex set.

    Verifies the restriction property: restricting must equal recomputing on
    the induced subgraph with the restricted order and fixed set.
    """
    yset = set(Y)
    if not is_connected_set(g, yset):
        raise NotConnected("restriction set is empty or not connected")
    if not is_cycle_invariant(g, yset):
        raise NotCycleInvariant("restriction set is not cycle-invariant")
    inside = lambda e: e[0] in yset and e[1] in yset
    restricted = ForestResult(
        kept=frozenset(e for e in result.kept if inside(e)),
        deleted=frozenset(e for e in result.deleted if inside(e)),
        fixed=frozenset(e for e in result.fixed if inside(e)),
    )
    sub = induced_subgraph(g, yset)
    recomputed = maximal_subforest(sub, order.restrict(sub), restricted.fixed)
    if recomputed.kept != restricted.kept:
        raise InvariantViolation(
            "restriction differs from recomputation on the induced subgraph")
    return restricted


def is_acyclic(g: Graph, edges: Iterable[Edge]) -> bool:
    uf = UnionFind(g.vertices)
    return all(uf.union(u, v) for u, v in edges)
