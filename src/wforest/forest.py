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

Both run on the graph's dense integer positions: a vertex is its position
in ``g.vertices`` and an edge its position in ``g.ordered_edges``, with
each edge's end positions in ``g.eu`` and ``g.ev``, as the graph lays them
out, and its int key in `EdgeOrder.keys`.  `_greedy` and `_scan_witnesses`
are that array core, and the kept forest is rooted by `graph._root`;
`maximal_subforest` and `check_cut_witnesses` translate a graph and an
`EdgeOrder` into it and its answer back into edges, and a percolation
sweep calls it directly on every run.  Vertex ids appear only in messages.
"""

from typing import Iterable, NamedTuple, Sequence

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
    _edge_at,
    _host_edges,
    _path,
    _root,
    _Rooted,
    induced_subgraph,
    is_connected_set,
    is_cycle_invariant,
)
from .weights import EdgeOrder


class _ForestSets(NamedTuple):
    kept: frozenset[Edge]
    deleted: frozenset[Edge]
    fixed: frozenset[Edge]


class ForestResult(_ForestSets):
    """Kept, deleted and fixed edges, checked at construction (and by
    `_replace`): kept and deleted are disjoint, and fixed lies in kept."""
    __slots__ = ()

    def __new__(cls, kept, deleted, fixed):
        if kept & deleted:
            raise InvariantViolation("kept and deleted edge sets overlap")
        if not fixed <= kept:
            raise InvariantViolation("fixed edges must survive into the forest")
        return super().__new__(cls, kept, deleted, fixed)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _greedy(g: Graph, edges: Iterable[int]) -> tuple[list[int], list[int]]:
    """Take the edge positions `edges` of g in turn: an edge whose ends some
    earlier kept edges join is deleted, every other edge is kept.  Returns
    (kept, deleted), each in the order taken.  A list union-find, by size
    with path halving."""
    eu, ev = g.eu, g.ev
    parent = list(range(len(g.vertices)))
    size = [1] * len(parent)
    kept: list[int] = []
    deleted: list[int] = []
    for i in edges:
        a, b = eu[i], ev[i]
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a == b:
            deleted.append(i)
            continue
        if size[a] < size[b]:
            a, b = b, a
        parent[b] = a
        size[a] += size[b]
        kept.append(i)
    return kept, deleted


def maximal_subforest(g: Graph, order: EdgeOrder, fixed: Iterable[Edge] = ()) -> ForestResult:
    """Delete from each simple cycle its order-least edge outside `fixed`.

    Greedy realization: insert fixed edges, then the remaining edges in
    decreasing order; an edge is deleted exactly when it would close a
    cycle.  Pure function of (graph, potentials, tiebreak, fixed).
    """
    h = frozenset(fixed)
    pinned = []
    for e in h:
        i = _edge_at(g, e)
        if i < 0:
            raise UnknownId(f"fixed edge {e} not in graph")
        pinned.append(i)
    pinned.sort()
    if order.graph is not g and order.graph.ordered_edges != g.ordered_edges:
        raise ValueError("the edge order is on another graph")  # keys are by its positions
    edges, key = g.ordered_edges, order.keys
    rest = sorted((i for i, e in enumerate(edges) if e not in h),
                  key=key.__getitem__, reverse=True)
    kept, deleted = _greedy(g, pinned + rest)
    # the pinned edges go first, so one of them closes a cycle iff the
    # first deleted edge is pinned
    if deleted and edges[deleted[0]] in h:
        raise FixedSetCyclic(f"fixed edge set closes a cycle at {edges[deleted[0]]}")
    return ForestResult(kept=frozenset(map(edges.__getitem__, kept)),
                        deleted=frozenset(map(edges.__getitem__, deleted)), fixed=h)


class CutWitnessReport(NamedTuple):
    violations: tuple[tuple[Edge, str], ...]
    witnesses: dict[Edge, Edge]

    @property
    def ok(self) -> bool:
        return not self.violations


def _scan_witnesses(g: Graph, rooted: _Rooted, key: Sequence[int | None],
                    deleted: Iterable[int], edges: Iterable[int]):
    """`check_cut_witnesses` on g's positions: the kept forest as `_root`
    rooted it, each edge's int key (None at a fixed edge, which is never a
    violation or a witness), the deleted edges in the order their
    violations are listed, and the edges a cut edge's partner is sought
    among; an edge's name in the messages is its canonical pair.

    Each kept path is one `_path`, read in walk order: the first loose
    (non-fixed) edge below e is the violation, else the greatest loose edge
    is the witness.  Returns the violations as (edge, reason) and the
    witnesses as {edge: witness}, both on positions.
    """
    eu, ev, names, root = g.eu, g.ev, g.ordered_edges, rooted.root
    violations: list[tuple[int, str]] = []
    witnesses: dict[int, int] = {}
    for d in deleted:
        u, v, floor = eu[d], ev[d], key[d]
        if root[u] == root[v]:
            best, top = -1, floor
            for f in _path(rooted, u, v):
                k = key[f]
                if k is None:
                    continue
                if k < floor:
                    violations.append((d, f"kept-path edge {names[f]} is below the deleted edge"))
                    break
                if k > top:
                    best, top = f, k
            else:
                if best >= 0:
                    witnesses[d] = best
            continue
        r = root[u]
        # no kept (so no fixed) edge crosses the cut, and e is not above itself
        partners = [f for f in edges
                    if (root[eu[f]] == r) != (root[ev[f]] == r) and key[f] > floor]
        if partners:
            witnesses[d] = min(partners, key=key.__getitem__)
        else:
            violations.append((d, "no greater boundary partner for a cut edge"))
    return violations, witnesses


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
    names = g.ordered_edges
    kept = _host_edges(g, result.kept)
    rooted = _root(g, kept)
    # a forest with t trees on n vertices has exactly n - t edges
    if len(kept) != len(g.vertices) - rooted.trees:
        raise InvariantViolation("kept edges close a cycle")
    if order.graph is not g and order.graph.ordered_edges != g.ordered_edges:
        raise ValueError("the edge order is on another graph")  # keys are by its positions
    key = [None if e in result.fixed else k for e, k in zip(names, order.keys)]
    violations, witnesses = _scan_witnesses(
        g, rooted, key, _host_edges(g, result.deleted), range(len(names)))
    return CutWitnessReport(
        violations=tuple((names[d], why) for d, why in violations),
        witnesses={names[d]: names[f] for d, f in witnesses.items()})


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
    restricted = ForestResult(*(frozenset(e for e in edges if e[0] in yset and e[1] in yset)
                                for edges in result))
    sub = induced_subgraph(g, yset)
    recomputed = maximal_subforest(sub, order.restrict(sub), restricted.fixed)
    if recomputed.kept != restricted.kept:
        raise InvariantViolation(
            "restriction differs from recomputation on the induced subgraph")
    return restricted


def is_acyclic(g: Graph, edges: Iterable[Edge]) -> bool:
    """Whether the set of `edges`, all edges of g, is a forest: `_greedy`
    deletes none of them.  A pair that is not an edge of g raises
    `UnknownId`."""
    return not _greedy(g, _host_edges(g, edges))[1]
