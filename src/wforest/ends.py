"""Finite-proxy analysis of ends: side counts, furcations, the
quotient-collapse pipeline, and visibility masses.

"Infinite" and "nonvanishing" are undecidable on a finite truncation.  The
proxy used throughout: a side is infinite-proxy when it reaches a flagged
truncation-boundary vertex, and nonvanishing-proxy when it reaches one whose
potential is at least ``nonvanish_delta`` (in the scale of the potential
passed in, i.e. relative to its basepoint).  Every report carries the active
ProxyParams so results stay honest about the approximation.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping

from .errors import BadParams, MissingVertex, NotConnected, OverlappingBlocks, UnknownId
from .forest import ForestResult, maximal_subforest
from .graph import (
    Edge,
    Graph,
    _bfs,
    _lowlink,
    build_graph,
    components,
    edge,
)
from .unionfind import UnionFind
from .weights import EdgeOrder, _positive_weight, exact_potential, ranked_potential

NONVANISHING = "nonvanishing"
INFINITE = "infinite"
FINITE = "finite"
_KINDS = (NONVANISHING, INFINITE)  # the order of every per-kind count


@dataclass(frozen=True)
class ProxyParams:
    nonvanish_delta: Fraction = Fraction(1)
    heavy_tau: Fraction = Fraction(4)

    def __post_init__(self):
        if self.nonvanish_delta <= 0 or self.heavy_tau <= 0:
            raise BadParams("proxy thresholds must be strictly positive")


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
    if kind == NONVANISHING:
        delta = params.nonvanish_delta
        values = {v: _positive_weight(x) for v, x in potential.items()}

        def rule(v: int) -> bool:
            if v not in flagged:
                return False
            if v not in values:
                raise MissingVertex(f"potential missing flagged vertex {v}")
            return values[v] >= delta
        return rule
    if kind == INFINITE:
        return flagged.__contains__
    raise ValueError(f"unknown side kind {kind!r}")


def _qualifying_marks(g: Graph, potential: Mapping[int, object], params: ProxyParams,
                      vertices: Iterable[int]) -> dict[int, tuple[int, ...]]:
    """Each vertex that qualifies for some kind, mapped to its 0/1 flag per
    kind, so `qualifier` runs once per vertex and never per visit."""
    rules = [qualifier(g, potential, params, kind) for kind in _KINDS]
    marks = {}
    for v in vertices:
        flags = tuple(int(rule(v)) for rule in rules)
        if any(flags):
            marks[v] = flags
    return marks


def _mark_totals(marks: Mapping[int, tuple[int, ...]], vertices: Iterable[int]) -> list[int]:
    """Per kind, the number of qualifying vertices among `vertices`."""
    total = [0] * len(_KINDS)
    for v in vertices:
        for k, flag in enumerate(marks.get(v, ())):
            total[k] += flag
    return total


def _side_orders(adj: Mapping[int, tuple[int, ...]], F: Iterable[int],
                 marks: Mapping[int, tuple[int, ...]], total: list[int]) -> list[int]:
    """Per kind, the number of sides of the connected set F that hold a
    qualifying vertex; `total` counts the qualifying vertices of F's component.

    One F-avoiding search starts at each neighbour of F.  The searches still
    growing take one vertex each in turn; two that meet merge (union-find over
    search ids, joining frontiers and counts), and one whose frontier empties
    is a finished side.  Every side touches F, so once at most one search
    grows it holds all of the component that F and the finished sides leave,
    and its counts follow by subtraction.  The work is that of the smaller
    sides, as in Even and Shiloach's decremental connectivity (1981).
    """
    fset = set(F)
    zero = (0,) * len(total)
    owner: dict[int, int] = {}
    parent: list[int] = []
    frontier: list[list[int]] = []
    counts: list[list[int]] = []
    for x in fset:
        for y in adj[x]:
            if y not in fset and y not in owner:
                owner[y] = len(parent)
                parent.append(len(parent))
                frontier.append([y])
                counts.append(list(marks.get(y, zero)))

    def find(s: int) -> int:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    growing = list(range(len(parent)))
    while len(growing) > 1:
        for s in growing:
            if parent[s] != s or not frontier[s]:
                continue  # absorbed or finished earlier in this round
            for z in adj[frontier[s].pop()]:
                if z in fset:
                    continue
                o = owner.get(z)
                if o is None:
                    owner[z] = s
                    frontier[s].append(z)
                    if z in marks:
                        counts[s] = [a + b for a, b in zip(counts[s], marks[z])]
                    continue
                r = find(o)
                if r != s:
                    parent[r] = s  # the growing search stays the root
                    big, small = frontier[s], frontier[r]
                    if len(big) < len(small):
                        big, small = small, big
                    big.extend(small)
                    frontier[s], frontier[r] = big, []
                    counts[s] = [a + b for a, b in zip(counts[s], counts[r])]
        growing = [s for s in growing if parent[s] == s and frontier[s]]

    finished = [counts[s] for s in range(len(parent)) if parent[s] == s and not frontier[s]]
    own = _mark_totals(marks, fset)
    orders = []
    for k in range(len(total)):
        rest = total[k] - own[k] - sum(c[k] for c in finished)
        orders.append(sum(1 for c in finished if c[k]) + (rest > 0))
    return orders


class _SideIndex:
    """The side orders of small connected sets, read off one low-link DFS per
    component (`graph._lowlink`) where the DFS tree decides them.

    Every non-tree edge of a DFS joins an ancestor to a descendant (Tarjan
    1972).  The components' preorders are laid end to end and every array
    is indexed by preorder position, so the subtree of position i is the
    interval [i, end[i]) and its children are i + 1, end[i + 1], ... below
    end[i].  `mins[0]` holds each vertex's least neighbour position, and
    `mins[j][i]` the least over [i, i + 2**j): a sparse table of range minima.

    `orders(F, total)` answers `_side_orders` for a connected F, or None:
    - F a subtree of the DFS tree, topped by t: each child c outside F of a
      vertex of F with low[c] >= t is a side of its own, with its subtree's
      counts, and the rest of the component is one more, by subtraction;
    - otherwise the tree less F falls into the piece that holds the root
      and, under each child c outside F of a vertex of F, the subtree of c
      less the subtrees of F inside it.  Its least neighbour lies above c,
      as c's parent is in F; if it lies outside F, the piece joins one that
      starts before c.  So if every piece's does, G - F has one side, by
      induction on c.  Else it gives up; it always does when F holds the
      root, as the neighbours above the first piece are then all in F.
    """

    def __init__(self, adj: Mapping[int, tuple[int, ...]], comps: Iterable[tuple[int, ...]],
                 marks: Mapping[int, tuple[int, ...]], mirror: bool = False):
        self.marks = marks
        self.pos: dict[int, int] = {}
        self.parent: list[int] = []  # -1 at a root
        self.end: list[int] = []
        self.low: list[int] = []
        self.below: list[list[int]] = [[] for _ in _KINDS]
        least: list[int] = []
        zero = (0,) * len(_KINDS)
        for comp in comps:
            base = len(self.parent)
            if mirror:  # from the greatest vertex, each neighbour list reversed
                walk = {v: adj[v][::-1] for v in comp}
                order, parent, _, low = _lowlink(walk, comp[-1])
            else:
                order, parent, _, low = _lowlink(adj, comp[0])
            for i, v in enumerate(order, base):
                self.pos[v] = i
            for v in order:
                p = parent[v]
                self.parent.append(-1 if p is None else self.pos[p])
                self.low.append(base + low[v])
                for k, flag in enumerate(marks.get(v, zero)):
                    self.below[k].append(flag)
                least.append(min(map(self.pos.__getitem__, adj[v])))
            self.end.extend(range(base + 1, len(self.parent) + 1))
            for i in range(len(self.parent) - 1, base, -1):
                p = self.parent[i]
                self.end[p] = max(self.end[p], self.end[i])
                for below in self.below:
                    below[p] += below[i]
        self.mins = [least]
        while 1 << len(self.mins) <= len(least):
            row, half = self.mins[-1], 1 << (len(self.mins) - 1)
            self.mins.append(list(map(min, row[:len(row) - half], row[half:])))

    def _least(self, lo: int, hi: int) -> int:
        """The least neighbour position over the positions [lo, hi)."""
        j = (hi - lo).bit_length() - 1
        row = self.mins[j]
        return min(row[lo], row[hi - (1 << j)])

    def orders(self, F: tuple[int, ...], total: list[int]) -> list[int] | None:
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
        rest = list(total)  # per kind, the qualifying vertices outside F
        for v in F:
            if v in self.marks:
                rest = [r - f for r, f in zip(rest, self.marks[v])]
        if len(tops) == 1:
            apart = [0] * len(rest)  # per kind, the qualifying sides cut off
            for c in kids:
                if low[c] >= tops[0]:  # c's subtree is a side of its own
                    for k, below in enumerate(self.below):
                        if below[c]:
                            apart[k] += 1
                            rest[k] -= below[c]
            return [a + (r > 0) for a, r in zip(apart, rest)]
        for c in kids:
            holes = [i for i in at if c < i < end[c]]
            least = self._piece_least(c, holes) if holes else low[c]
            if least in at:  # c's parent is in F, so least < c
                return None
        return [int(r > 0) for r in rest]

    def _piece_least(self, c: int, holes: list[int]) -> int:
        """The least neighbour position over the subtree of c less the
        subtrees of `holes`, the positions of F inside it, in increasing
        order."""
        least = lo = c
        for i in holes:
            if lo < i:
                least = min(least, self._least(lo, i))
            lo = max(lo, self.end[i])  # a hole inside an earlier one ends there too
        if lo < self.end[c]:
            least = min(least, self._least(lo, self.end[c]))
        return least


def find_furcation_vertices(g: Graph, potential: Mapping[int, object], n: int,
                            params: ProxyParams,
                            kind: str = NONVANISHING) -> tuple[int, ...]:
    """Vertices x whose singleton {x} has at least n qualifying sides."""
    rule = qualifier(g, exact_potential(g, potential), params, kind)
    counts = qualifying_side_counts(g, rule)
    return tuple(x for x in g.vertices if counts[x] >= n)


def connected_subsets(g: Graph, s_max: int) -> Iterator[tuple[int, ...]]:
    """All connected vertex sets of size <= s_max, yielded in (size, ids) order.

    The sets are built one (size, least vertex) group at a time and sorted
    within the group, so memory holds one group, never the whole family.
    A bad `s_max` raises here, before any set is built.
    """
    _check_s_max(s_max)
    return _subsets_by_size(g.adjacency, g.vertices, s_max)


def _check_s_max(s_max: int) -> None:
    if s_max < 1:
        raise BadParams(f"s_max must be >= 1, got {s_max}")


def _subsets_by_size(adj: Mapping[int, tuple[int, ...]], roots: Iterable[int],
                     s_max: int) -> Iterator[tuple[int, ...]]:
    """The connected sets of size <= s_max whose least vertex is one of
    `roots`, in (size, ids) order.  A root with no set of some size has
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


def _sets_of_size(adj: Mapping[int, tuple[int, ...]], root: int,
                  size: int) -> list[tuple[int, ...]]:
    """The connected sets of exactly `size` vertices with least vertex root,
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


@dataclass(frozen=True)
class FurcationFamily:
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

    A candidate's side orders come from `_SideIndex` where its DFS tree
    decides them, else from a second index rooted at each component's other
    end, and only else from the search of `_side_orders`.
    """
    _check_s_max(s_max)
    adj = g.adjacency
    marks = _qualifying_marks(g, exact_potential(g, potential), params, g.vertices)
    nv, inf = _KINDS.index(NONVANISHING), _KINDS.index(INFINITE)
    total_of: dict[int, list[int]] = {}
    comps = []
    for comp in components(g):
        total = _mark_totals(marks, comp)
        if total[inf] >= 2:
            total_of.update(dict.fromkeys(comp, total))
            comps.append(comp)
    index = _SideIndex(adj, comps, marks)
    mirror = None  # built on first use
    candidates = _subsets_by_size(adj, sorted(total_of), s_max)
    used: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    phases: list[int] = []
    later: list[tuple[tuple[int, ...], bool]] = []  # (candidate, >= 2 nonvanishing sides)
    for cand in candidates:
        if any(v in used for v in cand):
            continue
        total = total_of[cand[0]]
        orders = index.orders(cand, total)
        if orders is None:
            if mirror is None:
                mirror = _SideIndex(adj, comps, marks, mirror=True)
            orders = mirror.orders(cand, total)
        if orders is None:
            orders = _side_orders(adj, cand, marks, total)
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
    return FurcationFamily(blocks=tuple(blocks), phases=tuple(phases))


@dataclass(frozen=True)
class QuotientGraph:
    blocks: tuple[tuple[int, ...], ...]        # family blocks plus singletons
    family: tuple[tuple[int, ...], ...]
    qgraph: Graph
    qpotential: dict[int, Fraction]
    lift: dict[Edge, Edge]                     # quotient edge -> chosen host edge
    inner_trees: dict[int, frozenset[Edge]]    # family block id -> spanning tree
    block_of: dict[int, int] = field(repr=False, default_factory=dict)


def quotient(g: Graph, potential: Mapping[int, object],
             family: Iterable[tuple[int, ...]]) -> QuotientGraph:
    """Collapse each family block to a single vertex (id: least member).

    Block potential is the max over members; the lift picks, per quotient
    edge, the host edge with the largest endpoint potentials, ties broken by
    canonical edge order.
    """
    fam = tuple(tuple(sorted(b)) for b in family)
    block_of: dict[int, int] = {}
    inner_trees: dict[int, frozenset[Edge]] = {}
    for b in fam:
        for v in b:
            if v not in g.adjacency:
                raise UnknownId(f"vertex {v} not in graph")
        # one search from the least vertex: the block's connectivity and,
        # on the sorted adjacency, the inner tree the induced subgraph gives
        bset = set(b)
        tree = _bfs(g.adjacency, b[0], bset.__contains__) if b else {}
        if not b or len(tree) != len(bset):
            raise NotConnected(f"family block {b} is not connected")
        inner_trees[b[0]] = frozenset(edge(p, y) for y, p in tree.items() if p is not None)
        for v in b:
            if v in block_of:
                raise OverlappingBlocks(f"vertex {v} lies in two family blocks")
            block_of[v] = b[0]
    for v in g.vertices:
        block_of.setdefault(v, v)
    potential = exact_potential(g, potential)

    all_blocks: dict[int, list[int]] = {}
    for v in g.vertices:
        all_blocks.setdefault(block_of[v], []).append(v)

    host_by_qedge: dict[Edge, list[Edge]] = {}
    for e in g.ordered_edges:
        bu, bv = block_of[e[0]], block_of[e[1]]
        if bu == bv:
            continue
        host_by_qedge.setdefault(edge(bu, bv), []).append(e)

    def pick(cands: list[Edge]) -> Edge:
        def pots(e: Edge):
            return tuple(sorted((potential[e[0]], potential[e[1]]), reverse=True))
        best = max(pots(e) for e in cands)
        return min(e for e in cands if pots(e) == best)

    lift = {qe: pick(cands) for qe, cands in host_by_qedge.items()}
    qpotential = {bid: max(potential[v] for v in members)
                  for bid, members in all_blocks.items()}

    qboundary = frozenset(
        bid for bid, members in all_blocks.items()
        if any(g.is_boundary(v) for v in members)
    )
    qmeta = {"generator": "quotient", "boundary": qboundary}
    qgraph = build_graph(sorted(all_blocks), host_by_qedge.keys(), meta=qmeta)
    return QuotientGraph(
        blocks=tuple(tuple(sorted(m)) for _, m in sorted(all_blocks.items())),
        family=fam,
        qgraph=qgraph,
        qpotential=qpotential,
        lift=lift,
        inner_trees=inner_trees,
        block_of=block_of,
    )


@dataclass(frozen=True)
class CollapseResult:
    forest: ForestResult          # on the host graph
    family: FurcationFamily
    quot: QuotientGraph
    qforest: ForestResult         # on the quotient graph


def collapsed_maximal_subforest(g: Graph, potential: Mapping[int, object],
                                tiebreak, params: ProxyParams,
                                s_max: int = 3) -> CollapseResult:
    """Full pipeline: furcation family, quotient, forest on the quotient,
    then lift back with a deterministic spanning tree inside each block.

    The quotient tiebreak is inherited from the host tiebreak through the
    lift map, so the whole pipeline is a pure function of its inputs.
    """
    host_order = EdgeOrder(g, potential, tiebreak)
    family = maximal_disjoint_furcations(g, potential, params, s_max=s_max)
    quot = quotient(g, potential, family.blocks)
    qrank = {qe: host_order.rank[lifted] for qe, lifted in quot.lift.items()}
    qorder = EdgeOrder(quot.qgraph, quot.qpotential, qrank)
    qforest = maximal_subforest(quot.qgraph, qorder)
    kept = set()
    for tree in quot.inner_trees.values():
        kept |= tree
    for qe in qforest.kept:
        kept.add(quot.lift[qe])
    forest = ForestResult(
        kept=frozenset(kept),
        deleted=frozenset(g.edges - kept),
        fixed=frozenset(),
    )
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
    tree of Najman and Couprie (2006) on Tarjan's union-find (1975).  The
    groups are the potential's `ranked_potential` ranks, so no `Fraction`
    is hashed or sorted here.
    """
    ranked = ranked_potential(g, potential)
    groups: list[list[int]] = [[] for _ in ranked.levels]
    for v, r in ranked.rank.items():
        groups[r].append(v)
    uf = UnionFind()
    masses = {}
    for level, group in zip(ranked.levels, groups):
        for v in group:
            uf.add(v, level)
        for v in group:
            for y in g.adjacency[v]:
                if y in uf.parent:
                    uf.union(v, y)
        for v in group:
            masses[v] = uf.total[uf.find(v)] / level
    return masses


def qualifying_side_counts(g: Graph, qualifies: Callable[[int], bool]) -> dict[int, int]:
    """For every vertex x, the number of components of (component minus x)
    containing at least one vertex with qualifies(v) True.

    One low-link DFS per component (`_component_side_counts`).  Linear in
    the graph's size; used for nonvanishing-proxy side counts on
    percolation clusters and forest trees.
    """
    counts: dict[int, int] = {}
    for root in g.vertices:
        if root not in counts:
            counts.update(_component_side_counts(g.adjacency, root, qualifies))
    return counts


def _component_side_counts(adj: Mapping[int, tuple[int, ...]], root: int,
                           qualifies: Callable[[int], bool]) -> dict[int, int]:
    """`qualifying_side_counts` on root's component: one low-link DFS, with
    qualifying counts summed up the DFS tree.  A child c of x with
    low[c] >= disc[x] holds one side of its own, and everything else
    outside x is one more side, counted by subtraction."""
    order, parent, disc, low = _lowlink(adj, root)
    own = {v: int(qualifies(v)) for v in order}
    below = dict(own)  # qualifying vertices in v's DFS subtree
    apart = dict.fromkeys(order, 0)  # ... in the child subtrees v cuts off
    sides = dict.fromkeys(order, 0)  # those child subtrees that qualify
    for v in reversed(order[1:]):
        p = parent[v]
        below[p] += below[v]
        if low[v] >= disc[p]:
            apart[p] += below[v]
            sides[p] += below[v] > 0
    total = below[root]
    return {v: sides[v] + (total - own[v] - apart[v] > 0) for v in order}
