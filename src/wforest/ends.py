"""Finite-proxy analysis of ends: side counts, furcations, the
quotient-collapse pipeline, and visibility masses.

"Infinite" and "nonvanishing" are undecidable on a finite truncation.  The
proxy used throughout: a side is infinite-proxy when it reaches a flagged
truncation-boundary vertex, and nonvanishing-proxy when it reaches one whose
potential is at least ``nonvanish_delta`` (in the scale of the potential
passed in, i.e. relative to its basepoint).  Every report carries the active
ProxyParams (from `weights`) so results stay honest about the approximation.
Each public function prepares its input once (`weights._host`) and runs a
private core on it, which `analyze` and the collapse call on the one host
they prepare; `_flags` is `qualifier` as a rank cut on positions.
"""

from bisect import bisect_left
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .errors import BadParams, MissingVertex, NotConnected, OverlappingBlocks
from .graph import (
    Edge,
    Graph,
    _at,
    _bfs,
    _lowlink,
    _runs,
    _side_counts,
    _subgraph,
    _vertex_set,
    edge,
)
from .weights import EdgeOrder, ProxyParams, _host, _Host, _positive_weight

if TYPE_CHECKING:  # `collapsed_maximal_subforest` imports forest, which `analyze` never runs
    from .forest import ForestResult

NONVANISHING = "nonvanishing"
INFINITE = "infinite"
FINITE = "finite"
_KINDS = (NONVANISHING, INFINITE)  # the order of every per-kind count


def qualifier(g: Graph, potential: Mapping[int, object], params: ProxyParams,
              kind: str = NONVANISHING) -> Callable[[int], bool]:
    """The vertex rule behind every side count: a side is of `kind` when it
    contains a vertex the rule accepts.

    NONVANISHING: flagged with potential >= nonvanish_delta; INFINITE:
    flagged.  The potential need not cover g: every value it holds must be
    positive, and the NONVANISHING rule raises `MissingVertex` when asked
    about a flagged vertex it lacks.
    """
    flagged = g.boundary_vertices()
    values = {v: _positive_weight(x) for v, x in potential.items()}
    if kind == INFINITE:
        return flagged.__contains__
    if kind != NONVANISHING:
        raise ValueError(f"unknown side kind {kind!r}")

    def rule(v: int) -> bool:
        if v not in flagged:
            return False
        if v not in values:
            raise MissingVertex(f"potential missing flagged vertex {v}")
        return values[v] >= params.nonvanish_delta
    return rule


def _flags(host: _Host, params: ProxyParams, kind: str) -> list[int]:
    """Each position's 0/1 `qualifier` flag of `kind` on a prepared host: a
    value is at least nonvanish_delta exactly when its rank is at least the
    first level position not below it (`bisect_left`)."""
    if kind == INFINITE:
        return list(map(int, host.flagged))
    if kind != NONVANISHING:
        raise ValueError(f"unknown side kind {kind!r}")
    cut = bisect_left(host.levels, params.nonvanish_delta)
    return [int(f and r >= cut) for f, r in zip(host.flagged, host.rank)]


class _SideIndex:
    """The side orders of small connected sets, read off one low-link DFS
    from each root position that no earlier one reached (`graph._lowlink`).

    Every non-tree edge of a DFS joins an ancestor to a descendant (Tarjan
    1972), so a vertex's lesser neighbours are its ancestors.  The DFS lays
    the components' preorders end to end and every array is indexed by
    preorder position, so the subtree of position i is the interval
    [i, end[i]) and its children are i + 1, end[i + 1], ... below end[i];
    `pos`, the DFS's `disc`, maps each graph position to its preorder one.
    `upto[k][i]` counts the vertices qualifying for kind k before position
    i.  `mins[0]` holds each vertex's least neighbour position, and
    `mins[j][i]` the least over [i, i + 2**j): a sparse table of range
    minima.  `lesser` is a merge-sort tree (Bentley 1979) on the iterative
    segment tree over the positions: node j holds, sorted, the lesser
    neighbour positions of every position below it.  `total[i]` holds per
    kind the qualifying vertices of the component of position i, read off
    `upto` over its root r's interval [r, end[r]).

    `orders(F)` gives, per kind, the number of sides of a connected F of
    graph positions, in a component the DFS reached, that hold a qualifying
    vertex; `flags` holds per kind each position's 0/1 flag, and `marks`
    the flags of the few positions that qualify for some kind.  The tree
    less F falls into pieces: the one that holds the root, unless F does,
    and under each kid, a child c outside F of a vertex of F, the subtree of
    c less the subtrees of F inside it.
    - (a) F a subtree of the DFS tree, topped by t: each kid c with
      low[c] >= t is a side of its own, with its subtree's counts, and the
      rest of the component is one more, by subtraction.
    - (b) Otherwise a piece's least neighbour lies above its kid c, as c's
      parent is in F; if it lies outside F, the piece joins one that starts
      before c.  So if every piece's does, G - F has one side, by induction
      on c.  This never holds when F holds the root, as the neighbours above
      the first piece are then all in F.
    - (c) Otherwise the pieces are joined exactly.  The piece under c can
      meet only the pieces holding the segments of c's ancestor path between
      F's vertices, and meets one exactly when one of its positions has a
      lesser neighbour in that segment's position range, which `lesser`
      answers by bisection; a union-find over the pieces counts the sides.
    """

    def __init__(self, g: Graph, roots: Iterable[int], flags: list[list[int]]):
        self.marks = {v: f for v, f in enumerate(zip(*flags)) if any(f)}
        order, parent, disc, low = _lowlink(g.near, roots)
        self.pos: list[int] = disc
        self.parent: list[int] = [-1 if parent[v] < 0 else disc[parent[v]] for v in order]
        self.low: list[int] = list(map(low.__getitem__, order))
        self.upto: list[list[int]] = [[0] for _ in _KINDS]
        least: list[int] = []
        lesser: list[list[int]] = []
        for i, v in enumerate(order):
            for upto, own in zip(self.upto, flags):
                upto.append(upto[-1] + own[v])
            near = sorted(map(disc.__getitem__, g.near[v]))
            # an isolated vertex lies in no piece, so its entry is never read
            least.append(near[0] if near else i)
            lesser.append(near[:bisect_left(near, i)])
        self.end: list[int] = list(range(1, len(order) + 1))
        for i in range(len(order) - 1, 0, -1):
            p = self.parent[i]
            if p >= 0:
                self.end[p] = max(self.end[p], self.end[i])
        self.total: list[list[int]] = []
        for i, p in enumerate(self.parent):
            self.total.append(self.total[p] if p >= 0 else
                              [upto[self.end[i]] - upto[i] for upto in self.upto])
        self.mins = [least]
        while 1 << len(self.mins) <= len(least):
            row, half = self.mins[-1], 1 << (len(self.mins) - 1)
            self.mins.append(list(map(min, row[:len(row) - half], row[half:])))
        self.lesser = [[] for _ in lesser] + lesser
        for j in range(len(lesser) - 1, 0, -1):
            self.lesser[j] = sorted(self.lesser[2 * j] + self.lesser[2 * j + 1])

    def _least(self, lo: int, hi: int) -> int:
        """The least neighbour position over the positions [lo, hi)."""
        j = (hi - lo).bit_length() - 1
        row = self.mins[j]
        return min(row[lo], row[hi - (1 << j)])

    def _meets(self, lo: int, hi: int, a: int, b: int) -> bool:
        """Whether a position in [lo, hi) has a lesser neighbour in [a, b)."""
        tree, lo, hi = self.lesser, lo + len(self.parent), hi + len(self.parent)
        while lo < hi:
            if lo & 1:
                if bisect_left(tree[lo], a) < bisect_left(tree[lo], b):
                    return True
                lo += 1
            if hi & 1:
                hi -= 1
                if bisect_left(tree[hi], a) < bisect_left(tree[hi], b):
                    return True
            lo >>= 1
            hi >>= 1
        return False

    def _piece(self, c: int, at: list[int]) -> list[tuple[int, int]]:
        """The piece under c, a kid of the sorted positions `at` of F: its
        positions as disjoint intervals, in increasing order."""
        end = self.end
        spans, lo = [], c
        for i in at:
            if lo <= i < end[c]:  # below c, and not below an earlier i
                if lo < i:
                    spans.append((lo, i))
                lo = end[i]
        if lo < end[c]:
            spans.append((lo, end[c]))
        return spans

    def orders(self, F: tuple[int, ...]) -> list[int]:
        at = sorted(map(self.pos.__getitem__, F))
        parent, end, low = self.parent, self.end, self.low
        tops = [i for i in at if parent[i] not in at]
        kids = []  # the children outside F of F's vertices
        for i in at:
            c, stop = i + 1, end[i]
            while c < stop:
                if c not in at:
                    kids.append(c)
                c = end[c]
        rest = list(self.total[at[0]])  # per kind, the qualifying vertices outside F
        for v in F:
            if v in self.marks:
                rest = [r - f for r, f in zip(rest, self.marks[v])]
        if len(tops) == 1:  # rule (a)
            apart = [0] * len(rest)  # per kind, the qualifying sides cut off
            for c in kids:
                if low[c] >= tops[0]:  # c's subtree is a side of its own
                    for k, upto in enumerate(self.upto):
                        if upto[end[c]] > upto[c]:
                            apart[k] += 1
                            rest[k] -= upto[end[c]] - upto[c]
            return [a + (r > 0) for a, r in zip(apart, rest)]
        for c in kids:  # rule (b)
            j = bisect_left(at, c)
            if j < len(at) and at[j] < end[c]:  # F reaches below c
                least = min(self._least(lo, hi) for lo, hi in self._piece(c, at))
            else:
                least = low[c]
            if least in at:
                return self._join(at, tops, kids, rest)
        return [int(r > 0) for r in rest]

    def _join(self, at: list[int], tops: list[int], kids: list[int],
              rest: list[int]) -> list[int]:
        """Rule (c): the side orders from a union-find over the pieces under
        `kids` and, last, the root's; `rest` counts the qualifying vertices
        outside F."""
        parent, end = self.parent, self.end
        kids = sorted(kids)  # a kid below another comes after it
        pieces = [self._piece(c, at) for c in kids]
        up = list(range(len(kids) + 1))

        def find(j: int) -> int:
            while up[j] != j:
                up[j] = j = up[up[j]]
            return j

        holder = {}  # each top of F below a root: the piece holding its parent
        for t in tops:
            if parent[t] >= 0:
                holder[t] = max((j for j, c in enumerate(kids) if c <= parent[t] < end[c]),
                                default=len(kids))
        apart = len(kids)  # the joins still missing for one side
        for j, (c, spans) in enumerate(zip(kids, pieces)):
            least = min(self._least(lo, hi) for lo, hi in spans)
            prev = -1  # the vertex of F above the segment, -1 above the root
            for t in at:
                if t < c < end[t]:
                    # the segment is the positions (prev, t): the piece meets
                    # it if least lies in it, and cannot if least lies past it
                    if t in holder and least < t and find(j) != find(holder[t]):
                        if prev < least or any(self._meets(lo, hi, prev + 1, t) for lo, hi in spans):
                            up[find(j)] = find(holder[t])
                            apart -= 1
                    prev = t
        if not apart:
            return [int(r > 0) for r in rest]
        counts = [[sum(upto[hi] - upto[lo] for lo, hi in spans) for upto in self.upto]
                  for spans in pieces]
        counts.append([r - sum(n[k] for n in counts) for k, r in enumerate(rest)])
        # a side qualifies when one of its pieces does, as no count is negative
        return [len({find(j) for j, n in enumerate(counts) if n[k]}) for k in range(len(rest))]


def find_furcation_vertices(g: Graph, potential: Mapping[int, object], n: int,
                            params: ProxyParams,
                            kind: str = NONVANISHING) -> tuple[int, ...]:
    """Vertices x whose singleton {x} has at least n qualifying sides."""
    own = _flags(_host(g, potential), params, kind)
    counts = _side_counts(*_lowlink(g.near, range(len(g.near))), own)
    return tuple(x for x, c in zip(g.vertices, counts) if c >= n)


def _check_s_max(s_max: int) -> None:
    if s_max < 1:
        raise BadParams(f"s_max must be >= 1, got {s_max}")


def _subsets_by_size(adj: Sequence[Sequence[int]], roots: Iterable[int],
                     s_max: int) -> Iterator[tuple[int, ...]]:
    """The connected sets of positions of size <= s_max whose least position
    is one of `roots`, in (size, positions) order, with `adj` each
    position's neighbour positions.  A root with no set of some size has
    none larger (drop a non-cut vertex other than the root), so it leaves
    the scan."""
    live = list(roots)
    for size in range(1, s_max + 1):
        if not live:
            return
        rest = []
        for root in live:
            group = _sets_of_size(adj, root, size)
            if group:
                rest.append(root)
                group.sort()
                yield from group
        live = rest


def _sets_of_size(adj: Sequence[Sequence[int]], root: int,
                  size: int) -> list[tuple[int, ...]]:
    """The connected sets of exactly `size` positions with least position root,
    unsorted: exclusive-neighbour extension (Wernicke's ESU, 2006), each set
    built once, on an explicit stack, so no recursion limit bounds `size`.
    `seen` holds the chosen vertices and every extension offered on the
    current path; a frame is [its extensions, the next branch, the vertices
    it offered], and those leave `seen` with the frame.
    """
    if size == 1:
        return [(root,)]
    found = []
    chosen = [root]
    ext = [u for u in adj[root] if u > root]
    seen = {root, *ext}
    stack = [[ext, 0, ()]]
    while stack:
        frame = stack[-1]
        ext, i, offered = frame
        if i == len(ext):
            stack.pop()
            seen.difference_update(offered)
            chosen.pop()
            continue
        frame[1] = i + 1
        w = ext[i]
        chosen.append(w)
        if len(chosen) == size:
            found.append(tuple(sorted(chosen)))
            chosen.pop()
            continue
        fresh = [u for u in adj[w] if u > root and u not in seen]
        seen.update(fresh)
        stack.append([ext[i + 1:] + fresh, 0, fresh])
    return found


class FurcationFamily(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]
    phases: tuple[int, ...]  # 1: w-trifurcation, 2: w-bifurcation, 3: plain bifurcation


def maximal_disjoint_furcations(g: Graph, potential: Mapping[int, object],
                                params: ProxyParams,
                                s_max: int = 3) -> FurcationFamily:
    """Greedy three-phase family per the collapse recipe: weighted
    trifurcations, then weighted bifurcations, then plain bifurcations.

    Candidates are scanned in the deterministic (size, ids) order, capped at
    s_max vertices; the result is pairwise disjoint and maximal under the
    scan within each phase.

    One pass over the candidate stream runs phase 1, evaluating each free
    candidate once for both kinds, and keeps the untaken ones with >= 2
    infinite sides; phases 2 and 3 scan only those.  This is exact: `used`
    only grows, and a nonvanishing side is also infinite.  A component with
    fewer than 2 flagged vertices has no such candidate and is not enumerated.

    Every candidate's side orders come from one `_SideIndex`, searched from
    the flagged vertices, so it covers exactly the components that hold
    one, and its flag sums pick the components to enumerate.  The scan runs
    on vertex positions, which follow the sorted ids, and a block is named
    by its ids once the family is complete.
    """
    return _family(_host(g, potential), params, s_max)


def _family(host: _Host, params: ProxyParams, s_max: int) -> FurcationFamily:
    """`maximal_disjoint_furcations` on a prepared host."""
    _check_s_max(s_max)
    g, flags = host.g, [_flags(host, params, kind) for kind in _KINDS]
    nv, inf = _KINDS.index(NONVANISHING), _KINDS.index(INFINITE)
    index = _SideIndex(g, [v for v, f in enumerate(host.flagged) if f], flags)
    roots = [v for v, i in enumerate(index.pos) if i >= 0 and index.total[i][inf] >= 2]
    candidates = _subsets_by_size(g.near, roots, s_max)
    used: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    phases: list[int] = []
    later: list[tuple[tuple[int, ...], bool]] = []  # (candidate, >= 2 nonvanishing sides)
    for cand in candidates:
        if any(v in used for v in cand):
            continue
        orders = index.orders(cand)
        if orders[nv] >= 3:
            blocks.append(cand)
            phases.append(1)
            used.update(cand)
        elif orders[inf] >= 2:
            later.append((cand, orders[nv] >= 2))
    for phase in (2, 3):
        for cand, weighted in later:
            if (weighted or phase == 3) and not any(v in used for v in cand):
                blocks.append(cand)
                phases.append(phase)
                used.update(cand)
    ids = g.vertices
    return FurcationFamily(blocks=tuple(tuple([ids[v] for v in b]) for b in blocks),
                           phases=tuple(phases))


class QuotientGraph(NamedTuple):
    blocks: tuple[tuple[int, ...], ...]        # family blocks plus singletons
    family: tuple[tuple[int, ...], ...]
    qgraph: Graph
    qpotential: dict[int, Fraction]
    lift: dict[Edge, Edge]                     # quotient edge -> chosen host edge
    inner_trees: dict[int, frozenset[Edge]]    # family block id -> spanning tree
    block_of: dict[int, int]


def quotient(g: Graph, potential: Mapping[int, object],
             family: Iterable[tuple[int, ...]]) -> QuotientGraph:
    """Collapse each family block to a single vertex (id: least member).

    Block potential is the max over members; the lift picks, per quotient
    edge, the host edge with the largest endpoint potentials, ties broken by
    canonical edge order.

    One pass over the vertices meets each block at its least member, so the
    blocks come out sorted by id; one pass over the canonical edge order
    keeps, per quotient edge, the first host edge with the greatest ranks.
    """
    return _quotient(_host(g, potential), family)


def _quotient(host: _Host, family: Iterable[tuple[int, ...]]) -> QuotientGraph:
    """`quotient` on a prepared host."""
    g, levels, rank = host.g, host.levels, host.rank
    fam = tuple(tuple(sorted(b)) for b in family)
    block_of: dict[int, int] = {}
    inner_trees: dict[int, frozenset[Edge]] = {}
    lead = {}  # per family block's least member, the block and its greatest rank
    ids = g.vertices
    for b in fam:
        inside = {_at(g, v) for v in _vertex_set(g, b)}
        # one search from the least vertex: the block's connectivity and,
        # on the sorted neighbours, the inner tree the induced subgraph gives
        tree = _bfs(g.near, min(inside), inside.__contains__) if b else {}
        if not b or len(tree) != len(inside):
            raise NotConnected(f"family block {b} is not connected")
        inner_trees[b[0]] = frozenset(edge(ids[p], ids[y])
                                      for y, p in tree.items() if p is not None)
        lead[b[0]] = b, max(map(rank.__getitem__, inside))
        for v in b:
            if v in block_of:
                raise OverlappingBlocks(f"vertex {v} lies in two family blocks")
            block_of[v] = b[0]
    merged = set(block_of)  # the vertices of the family's blocks
    blocks, qpotential = [], {}
    for i, v in enumerate(ids):
        if block_of.setdefault(v, v) == v:  # v is its block's least member
            b, r = lead.get(v, ((v,), rank[i]))
            blocks.append(b)
            qpotential[v] = levels[r]
    lift, best = {}, {}  # per quotient edge, its host edge and that edge's end ranks
    for i, e in enumerate(g.ordered_edges):
        u, v = e
        if u not in merged and v not in merged:  # the one host edge of its quotient edge
            lift[e] = e
            continue
        bu, bv = block_of[u], block_of[v]
        if bu != bv:
            a, b = rank[g.eu[i]], rank[g.ev[i]]
            pots, qe = ((a, b) if a > b else (b, a)), edge(bu, bv)  # greater rank first
            if pots > best.get(qe, (-1,)):  # so a tie keeps the lesser edge
                lift[qe], best[qe] = e, pots
    qboundary = frozenset(block_of[ids[v]] for v, f in enumerate(host.flagged) if f)
    # the block ids are vertices of g and the keys canonical edges: nothing to validate
    qgraph = _subgraph(list(qpotential), tuple(sorted(lift)),
                       {"generator": "quotient", "boundary": qboundary})
    return QuotientGraph(
        blocks=tuple(blocks),
        family=fam,
        qgraph=qgraph,
        qpotential=qpotential,
        lift=lift,
        inner_trees=inner_trees,
        block_of=block_of,
    )


class CollapseResult(NamedTuple):
    forest: "ForestResult"        # on the host graph
    family: FurcationFamily
    quot: QuotientGraph
    qforest: "ForestResult"       # on the quotient graph


def collapsed_maximal_subforest(g: Graph, potential: Mapping[int, object],
                                tiebreak, params: ProxyParams,
                                s_max: int = 3) -> CollapseResult:
    """Full pipeline: furcation family, quotient, forest on the quotient,
    then lift back with a deterministic spanning tree inside each block.

    The quotient tiebreak is the host tiebreak kept at the lifts and read
    as their quotient edges, so the pipeline is a pure function of its inputs.
    The family and the quotient read the host order's prepared host.
    """
    from .forest import ForestResult, maximal_subforest

    host_order = EdgeOrder(g, potential, tiebreak)
    family = _family(host_order.host, params, s_max)
    quot = _quotient(host_order.host, family.blocks)
    down = {lifted: qe for qe, lifted in quot.lift.items()}
    qorder = EdgeOrder(quot.qgraph, quot.qpotential,
                       [down[e] for e in host_order.tiebreak if e in down])
    qforest = maximal_subforest(quot.qgraph, qorder)
    kept = frozenset().union(*quot.inner_trees.values(), map(quot.lift.__getitem__, qforest.kept))
    forest = ForestResult(kept=kept, fixed=frozenset(),
                          deleted=frozenset(e for e in g.ordered_edges if e not in kept))
    return CollapseResult(forest=forest, family=family, quot=quot, qforest=qforest)


def visibility_masses(g: Graph, potential: Mapping[int, object]) -> dict[int, Fraction]:
    """Every vertex x's visibility mass, from one pass: the sum of
    potential[y] / potential[x] over x's visible set, the vertices y that x
    reaches along paths whose every vertex weighs at most potential[x].

    The visible set of x is x's component in the subgraph induced by
    {y : potential[y] <= potential[x]}.  The vertices join one union-find in
    increasing potential, each set carrying its potential sum; once a whole
    equal-potential group and its edges down are in, the mass of each x in
    the group is its set's sum over potential[x].  This is the component
    tree of Najman and Couprie (2006) on Tarjan's union-find (1975), a list
    over vertex positions, by size with path halving, as in
    `forest._greedy`.  The groups are the prepared host's ranks (`_host`),
    so no `Fraction` is hashed or sorted here.
    """
    return _visibility_masses(_host(g, potential))


def _visibility_masses(host: _Host) -> dict[int, Fraction]:
    """`visibility_masses` on a prepared host."""
    ids, adj, levels, rank = host.g.vertices, host.g.near, host.levels, host.rank
    groups: list[list[int]] = [[] for _ in levels]
    for v, r in enumerate(rank):
        groups[r].append(v)
    parent = list(range(len(ids)))
    size = [1] * len(ids)
    total = list(map(levels.__getitem__, rank))  # per root, its set's sum
    masses = {}
    for r, (level, group) in enumerate(zip(levels, groups)):
        for v in group:
            for y in adj[v]:
                if rank[y] <= r:  # y has joined
                    a, b = v, y
                    while parent[a] != a:
                        parent[a] = a = parent[parent[a]]
                    while parent[b] != b:
                        parent[b] = b = parent[parent[b]]
                    if a != b:
                        if size[a] < size[b]:
                            a, b = b, a
                        parent[b] = a
                        size[a] += size[b]
                        total[a] += total[b]
        for v in group:
            a = v
            while parent[a] != a:
                parent[a] = a = parent[parent[a]]
            masses[ids[v]] = total[a] / level
    return masses


def qualifying_side_counts(g: Graph, qualifies: Callable[[int], bool]) -> dict[int, int]:
    """For every vertex x, the number of components of (component minus x)
    containing at least one vertex with qualifies(v) True.

    One low-link DFS over the neighbour positions g carries, and one
    `graph._side_counts` pass over its forest.  Linear in the graph's size;
    `find_furcation_vertices` and `analyze`'s per-component rows
    (`_component_rows`) run the same pass on their `_flags`, and the sweep
    runs it over its clusters and its kept forest.
    """
    own = [int(qualifies(v)) for v in g.vertices]
    return dict(zip(g.vertices, _side_counts(*_lowlink(g.near, range(len(g.near))), own)))


def _component_rows(host: _Host, params: ProxyParams) -> list[dict]:
    """`analyze`'s row per component of a prepared host, ordered by least
    vertex: its size, its least vertex, and for n = 1, 2, 3 how many of its
    vertices x have n or more nonvanishing sides.  The rows are the runs
    (`graph._runs`) of the one low-link DFS whose forest gives the side
    counts, as in `qualifying_side_counts`."""
    order, parent, disc, low = _lowlink(host.g.near, range(len(host.rank)))
    counts = _side_counts(order, parent, disc, low, _flags(host, params, NONVANISHING))
    ids = host.g.vertices
    return [{"size": len(run), "least_vertex": ids[run[0]],
             "furcation_vertex_counts": {str(n): sum(1 for v in run if counts[v] >= n)
                                         for n in (1, 2, 3)}}
            for run in _runs(order, parent)]
