"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the library's own machinery: simple
cycles by path search (and by permutation scan, to check that search), the
cycle-cutting forest by marking each cycle's least edge, the classical free
minimal spanning forest by one connectivity search per edge, spanning
forests by BFS connectivity, visibility by exhaustive simple-path search
(and by one search per vertex, where that is too slow), cut witnesses by
one kept-forest search per deleted edge, sides by a search of F's whole
component (and by one search per neighbour of F), side orders of small
sets by growing one search per neighbour of F, cycle-invariance by
cycle enumeration, the furcation family by one side search per candidate
per phase, a sweep run on edge and vertex ids with a fresh graph, order and
search per stage, the cocycle check on a BFS forest keyed by vertex id,
and the quotient from a member list per block and a candidate list per
quotient edge.  Most are exponential or quadratic, which is why they
live here and not in the library.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple

import pytest

from wforest.ends import (
    _KINDS,
    INFINITE,
    NONVANISHING,
    FurcationFamily,
    ProxyParams,
    QuotientGraph,
    connected_subsets,
    qualifier,
    qualifying_side_counts,
)
from wforest.errors import NotConnected, OverlappingBlocks, UnknownId
from wforest.forest import CutWitnessReport, ForestResult
from wforest.graph import (
    Edge,
    Graph,
    _subgraph,
    _vertex_set,
    build_graph,
    components,
    edge,
    spanned_subgraph,
)
from wforest.rng import subseed, threshold, u64s
from wforest.weights import (
    Cocycle,
    CocycleReport,
    EdgeOrder,
    exact_potential,
    ranked_potential,
)


def edge_set(g: Graph) -> frozenset[Edge]:
    """g's edges as a set, for membership tests: build it once per graph and
    keep it, since each call makes a new one."""
    return frozenset(g.ordered_edges)


def adjacency(g: Graph) -> dict[int, tuple[int, ...]]:
    """Each vertex id mapped to its neighbours' ids, in increasing order: the
    id-keyed view the oracles search."""
    return {v: g.neighbors(v) for v in g.vertices}


def _bfs(adjacency, root: int, keep=None) -> dict[int, int | None]:
    """One breadth-first search on ids from root: each reached vertex mapped
    to its BFS parent (None at the root), in visit order.  Past the root,
    only the vertices that `keep` accepts are entered.  The oracles' own
    search, beside the library's on positions."""
    parent: dict[int, int | None] = {root: None}
    queue = [root]
    for x in queue:
        for y in adjacency[x]:
            if y not in parent and (keep is None or keep(y)):
                parent[y] = x
                queue.append(y)
    return parent


def random_connected_graph(rand: random.Random, n: int, extra=None) -> Graph:
    """Random tree on n vertices plus `extra` random chords (default random)."""
    vertices = list(range(n))
    edges = set()
    for v in range(1, n):
        edges.add(edge(v, rand.randrange(v)))
    max_extra = n * (n - 1) // 2 - (n - 1)
    if extra is None:
        extra = rand.randint(0, min(max_extra, n))
    pool = [edge(u, v) for u in range(n) for v in range(u + 1, n)
            if edge(u, v) not in edges]
    rand.shuffle(pool)
    edges.update(pool[:extra])
    return build_graph(vertices, edges)


def random_potential(rand: random.Random, g: Graph) -> dict[int, Fraction]:
    return {v: Fraction(rand.randint(1, 6), rand.randint(1, 6)) for v in g.vertices}


def random_tiebreak(rand: random.Random, g: Graph) -> list:
    order = g.sorted_edges()
    rand.shuffle(order)
    return order


def random_order(rand: random.Random, g: Graph) -> EdgeOrder:
    return EdgeOrder(g, random_potential(rand, g), random_tiebreak(rand, g))


def tuple_key(order: EdgeOrder):
    """The edge key before integer ranks: (exact weight, index in the
    tiebreak).  Reference for `EdgeOrder.key`."""
    index = {e: i for i, e in enumerate(order.tiebreak)}
    return lambda e: (order.weight(e), index[e])


def quotient_order_oracle(host_tiebreak: Iterable[Edge], quot: QuotientGraph):
    """The quotient's edge key as a (weight, rank) pair: its weight under
    the block potential, then the rank of its lift in the host tiebreak, a
    gapped rank.  Reference for the quotient order of
    `ends.collapsed_maximal_subforest`."""
    rank = {e: i for i, e in enumerate(host_tiebreak)}
    qpot, lift = quot.qpotential, quot.lift
    return lambda qe: (min(qpot[qe[0]], qpot[qe[1]]), rank[lift[qe]])


def relative_potential(g: Graph, potential) -> dict:
    """Each vertex's exact potential over the greatest in its component: the
    cluster-relative potential a sweep run once divided out per vertex.
    With `qualifier` and `is_heavy`, reference for the sweep's rank-form
    nonvanishing rule."""
    rel = {}
    for comp in components(g):
        top = max(Fraction(potential[v]) for v in comp)
        rel.update((v, Fraction(potential[v]) / top) for v in comp)
    return rel


class CycleLimitExceeded(Exception):
    """`simple_cycles` found more cycles than its limit allows."""


def simple_cycles(g: Graph, limit: int = 100_000) -> list[list[Edge]]:
    """All simple cycles (length >= 3), each exactly once, as edge lists.

    Canonical form: the vertex sequence starts at the cycle's least vertex
    and proceeds toward the smaller of its two cycle-neighbors.  Exponential,
    so it stops with `CycleLimitExceeded` past `limit` cycles.
    """
    cycles: list[tuple[int, ...]] = []
    adj = adjacency(g)
    for s in g.vertices:
        # DFS over paths s, v1, ..., vk with every vi > s; a cycle is closed
        # when vk is adjacent to s; reflections deduped by v1 < vk.
        stack: list[tuple[int, list[int]]] = [(s, [s])]
        while stack:
            last, path = stack.pop()
            on_path = set(path)
            for y in adj[last]:
                if y == s and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
                    if len(cycles) > limit:
                        raise CycleLimitExceeded(f"more than {limit} simple cycles")
                elif y > s and y not in on_path:
                    stack.append((y, path + [y]))
    cycles.sort(key=lambda seq: (len(seq), seq))
    out = []
    for seq in cycles:
        es = [edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1)]
        es.append(edge(seq[-1], seq[0]))
        out.append(es)
    return out


def maximal_subforest_oracle(g: Graph, order: EdgeOrder, fixed=()) -> ForestResult:
    """Literal reading of the cycle-cutting forest: enumerate every simple
    cycle, mark its order-least non-fixed edge, delete all marked edges
    simultaneously.  Reference for `forest.maximal_subforest`; `fixed` must
    be an acyclic edge set of g."""
    h = frozenset(fixed)
    marked: set[Edge] = set()
    for cyc in simple_cycles(g):
        marked.add(min((e for e in cyc if e not in h), key=order.key))
    return ForestResult(kept=frozenset(edge_set(g) - marked), deleted=frozenset(marked), fixed=h)


def fmsf(g: Graph, labels: dict) -> frozenset:
    """Classical free minimal spanning forest: delete the largest-label edge
    of each cycle, by one connectivity search per edge on the smaller-label
    subgraph.  Labels must be injective."""
    edges = edge_set(g)
    vals = [labels[e] for e in edges]
    if len(set(vals)) != len(vals):
        raise ValueError("edge labels are not injective")
    kept = set()
    for e in sorted(edges):
        below = [f for f in edges if f != e and labels[f] < labels[e]]
        adj: dict[int, list[int]] = {x: [] for x in g.vertices}
        for a, b in below:
            adj[a].append(b)
            adj[b].append(a)
        if e[1] not in _reach(adj, e[0]):
            kept.add(e)
    return frozenset(kept)


def cycles_by_permutation(g: Graph) -> set[tuple[int, ...]]:
    """Every simple cycle as its canonical vertex tuple, by scanning all
    permutations of all vertex subsets.  Usable up to ~8 vertices."""
    eset = edge_set(g)
    found = set()
    verts = list(g.vertices)
    for k in range(3, len(verts) + 1):
        for subset in itertools.combinations(verts, k):
            first = subset[0]
            for perm in itertools.permutations(subset[1:]):
                seq = (first,) + perm
                if seq[1] > seq[-1]:
                    continue  # canonical: second vertex below the last
                ok = all(edge(seq[i], seq[i + 1]) in eset for i in range(k - 1))
                if ok and edge(seq[-1], seq[0]) in eset:
                    found.add(seq)
    return found


def canonical_cycle_vertices(cycle_edges) -> tuple[int, ...]:
    """Recover the canonical vertex tuple from an edge-list cycle."""
    adj = {}
    for u, v in cycle_edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = min(adj)
    nxt = min(adj[start])
    seq = [start, nxt]
    while True:
        a, b = seq[-2], seq[-1]
        nxt = adj[b][0] if adj[b][1] == a else adj[b][1]
        if nxt == start:
            return tuple(seq)
        seq.append(nxt)


def greedy_max_forest(g: Graph, order: EdgeOrder, fixed=frozenset()) -> frozenset:
    """Maximum spanning forest by explicit greedy with BFS connectivity
    (no union-find): independent realization of the cut criterion."""
    kept = set(fixed)

    def connected(u, v):
        seen = {u}
        stack = [u]
        adj = {}
        for a, b in kept:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for y in adj.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return v in seen

    for e in sorted((e for e in edge_set(g) if e not in fixed),
                    key=order.key, reverse=True):
        if not connected(*e):
            kept.add(e)
    return frozenset(kept)


def _kept_adjacency(g: Graph, kept) -> dict[int, list[int]]:
    adj: dict[int, list[int]] = {x: [] for x in g.vertices}
    for a, b in kept:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _kept_path(g: Graph, kept, u: int, v: int):
    """Path between u and v inside the kept forest, as edges, by a fresh DFS."""
    adj = _kept_adjacency(g, kept)
    prev = {u: u}
    stack = [u]
    while stack:
        x = stack.pop()
        if x == v:
            break
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                stack.append(y)
    if v not in prev:
        return None
    path = []
    x = v
    while x != u:
        path.append(tuple(sorted((x, prev[x]))))
        x = prev[x]
    return path[::-1]


def _kept_component(g: Graph, kept, start: int) -> set[int]:
    adj = _kept_adjacency(g, kept)
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def cut_witnesses_oracle(g: Graph, result, order: EdgeOrder) -> CutWitnessReport:
    """Literal cut-witness check: rebuild and search the kept forest for every
    deleted edge.  Reference for `forest.check_cut_witnesses`."""
    violations = []
    witnesses = {}
    kept = result.kept
    for e in sorted(result.deleted):
        path = _kept_path(g, kept, *e)
        if path is not None:
            loose = [f for f in path if f not in result.fixed]
            bad = [f for f in loose if order.key(f) < order.key(e)]
            if bad:
                violations.append((e, f"kept-path edge {bad[0]} is below the deleted edge"))
            elif loose:
                witnesses[e] = max(loose, key=order.key)
            continue
        comp = _kept_component(g, kept, e[0])
        partners = [
            f for f in edge_set(g)
            if f != e and f not in result.fixed
            and (f[0] in comp) != (f[1] in comp)
            and order.key(f) > order.key(e)
        ]
        if partners:
            witnesses[e] = min(partners, key=order.key)
        else:
            violations.append((e, "no greater boundary partner for a cut edge"))
    return CutWitnessReport(violations=tuple(violations), witnesses=witnesses)


def _reach(adjacency, start, blocked=frozenset(), allowed=None):
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adjacency[x]:
            if y in seen or y in blocked:
                continue
            if allowed is not None and y not in allowed:
                continue
            seen.add(y)
            stack.append(y)
    return seen


class SpansComponents(Exception):
    """`sides_oracle` was given an F that meets two components."""


class Side(NamedTuple):
    """One component of (component of F) minus F, with its vertices adjacent
    to F."""
    vertices: tuple[int, ...]
    contact: tuple[int, ...]


def sides_oracle(g: Graph, F) -> list[Side]:
    """Literal sides: search F's whole component, then split what F leaves
    of it into pieces.  Reference for `side_pieces`; F must be nonempty,
    known, inside one component and connected, checked in that order."""
    fset = set(F)
    if not fset:
        raise NotConnected("F is empty")
    adj = adjacency(g)
    for v in fset:
        if v not in adj:
            raise UnknownId(f"vertex {v} not in graph")
    comp = _reach(adj, min(fset))
    if not fset <= comp:
        raise SpansComponents("F spans more than one component")
    if _reach(adj, min(fset), allowed=fset) != fset:
        raise NotConnected(f"F={sorted(fset)} is not connected")
    rest = comp - fset
    out = []
    seen: set[int] = set()
    for v in sorted(rest):
        if v in seen:
            continue
        piece = _reach(adj, v, blocked=fset)
        seen |= piece
        contact = tuple(sorted(x for x in piece if any(y in fset for y in adj[x])))
        out.append(Side(tuple(sorted(piece)), contact))
    return out


def cycle_invariant_oracle(g: Graph, Y) -> bool:
    """Every simple cycle with an edge inside Y lies entirely in Y, read off
    the enumeration of all simple cycles.  Reference for
    `graph.is_cycle_invariant`."""
    yset = set(Y)
    for cyc in simple_cycles(g):
        verts = {v for e in cyc for v in e}
        if verts <= yset:
            continue
        if any(u in yset and v in yset for u, v in cyc):
            return False
    return True


def side_pieces(g: Graph, F) -> list[tuple[int, ...]]:
    """The sides of a connected F as sorted vertex tuples, in order: one
    F-avoiding search from each neighbour of F that no earlier one reached.
    Every side touches F, so nothing else is read."""
    fset = set(F)
    adj = adjacency(g)
    seen, pieces = set(fset), []
    for x in fset:
        for y in adj[x]:
            if y not in seen:
                piece = _reach(adj, y, blocked=fset)
                seen |= piece
                pieces.append(tuple(sorted(piece)))
    return sorted(pieces)


def sides_order(g: Graph, potential, F, params: ProxyParams, kind: str) -> int:
    """The number of sides of F holding a vertex `qualifier` accepts."""
    qualifies = qualifier(g, potential, params, kind)
    return sum(1 for side in side_pieces(g, F) if any(map(qualifies, side)))


def qualifying_marks(g: Graph, potential, params: ProxyParams) -> dict[int, tuple[int, ...]]:
    """Each vertex id that qualifies for some kind, mapped to its 0/1 flag
    per kind, in `_KINDS` order: the marks `_side_orders` reads."""
    rules = [qualifier(g, potential, params, kind) for kind in _KINDS]
    flags = {v: tuple(int(rule(v)) for rule in rules) for v in g.vertices}
    return {v: f for v, f in flags.items() if any(f)}


def mark_totals(marks: Mapping[int, tuple[int, ...]], vertices: Iterable[int]) -> list[int]:
    """Per kind, the number of qualifying vertices among `vertices`."""
    return [sum(marks[v][k] for v in vertices if v in marks) for k in range(len(_KINDS))]


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
    Reference for `ends._SideIndex`.
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
    own = mark_totals(marks, fset)
    orders = []
    for k in range(len(total)):
        rest = total[k] - own[k] - sum(c[k] for c in finished)
        orders.append(sum(1 for c in finished if c[k]) + (rest > 0))
    return orders


def furcation_family_oracle(g: Graph, potential, params: ProxyParams,
                            s_max: int = 3) -> FurcationFamily:
    """The greedy three-phase family with a fresh `sides_order` per candidate
    per phase.  Reference for `ends.maximal_disjoint_furcations`."""
    candidates = list(connected_subsets(g, s_max))
    used: set[int] = set()
    blocks: list[tuple[int, ...]] = []
    phases: list[int] = []
    spec = ((1, NONVANISHING, 3), (2, NONVANISHING, 2), (3, INFINITE, 2))
    for phase, kind, need in spec:
        for cand in candidates:
            if any(v in used for v in cand):
                continue
            if sides_order(g, potential, cand, params, kind) >= need:
                blocks.append(cand)
                phases.append(phase)
                used.update(cand)
    return FurcationFamily(blocks=tuple(blocks), phases=tuple(phases))


def brute_visibility(g: Graph, pot_x, x: int) -> set[int]:
    """Endpoints of simple paths from x whose vertices all weigh <= 1."""
    reachable = set()

    def walk(v, on_path):
        reachable.add(v)
        for y in g.neighbors(v):
            if y not in on_path and pot_x[y] <= 1:
                walk(y, on_path | {y})

    if pot_x[x] <= 1:
        walk(x, {x})
    else:
        reachable.add(x)
    return reachable


def visibility(g: Graph, potential, x: int) -> dict[int, Fraction]:
    """The vertices that x reaches along paths whose every vertex weighs at
    most potential[x], by one search, each mapped to its weight relative to
    x.  Reference for `ends.visibility_masses` where `brute_visibility` is
    too slow."""
    top = Fraction(potential[x])
    light = {y for y in g.vertices if potential[y] <= top}
    return {y: potential[y] / top for y in _reach(adjacency(g), x, allowed=light)}


def is_heavy(g: Graph, params: ProxyParams, mass, rel) -> bool:
    """The heavy class of a visible set with relative weights `rel`: mass >=
    heavy_tau, or a vertex `qualifier` accepts at its relative weight."""
    return mass >= params.heavy_tau or any(map(qualifier(g, rel, params), rel))


def sweep_oracle(g: Graph, potential, p_grid, trials: int, seed: int,
                 params: ProxyParams, draws=u64s) -> list[dict]:
    """The records of `percolation.sweep`, run by run on edge and vertex
    ids: the open subgraph as a `Graph`, its forest by `greedy_max_forest`
    under an `EdgeOrder` with the (-label, edge) tiebreak, the certificate by
    `cut_witnesses_oracle`, the nonvanishing rule by `qualifier` at
    cluster-relative potentials, and side counts by the low-link
    `qualifying_side_counts` on the clusters and on the kept forest.
    `draws` stands in for `rng.u64s`.  Reference for `percolation.sweep`."""
    exact = exact_potential(g, potential)
    edges = g.sorted_edges()
    records = []
    for pi, p in enumerate(p_grid):
        p = float(p)
        for trial in range(trials):
            run_seed = subseed(seed, "run", pi, trial)
            cut = threshold(p)
            opened = {e for e, x in zip(edges, draws(run_seed, "open", len(edges))) if x < cut}
            values = draws(run_seed, "label", len(edges))
            label = dict(zip(edges, values))
            sub = spanned_subgraph(g, opened)
            order = EdgeOrder(sub, exact, sorted(opened, key=lambda e: (-label[e], e)))
            kept = greedy_max_forest(sub, order)
            forest = ForestResult(kept=kept, deleted=frozenset(opened - kept), fixed=frozenset())
            assert cut_witnesses_oracle(sub, forest, order).ok
            clusters = components(sub)
            assert len(g.vertices) - len(kept) == len(clusters)

            rel = relative_potential(sub, exact)
            nonvanishing = qualifier(sub, rel, params)
            side = qualifying_side_counts(sub, nonvanishing)
            tree_side = qualifying_side_counts(spanned_subgraph(g, kept), nonvanishing)
            infos = []  # per cluster: its vertices, mass, heaviness and side count
            for comp in clusters:
                mass = sum(rel[v] for v in comp)
                heavy = is_heavy(sub, params, mass, {v: rel[v] for v in comp})
                infos.append((comp, mass, heavy, max(side[v] for v in comp)))
            n_heavy = sum(1 for info in infos if info[2])
            by_size = sorted(infos, key=lambda info: (-len(info[0]), info[0][0]))
            base = by_size[:8]
            records.append({
                "p": p,
                "trial": trial,
                "seed": run_seed,
                "host_edges": len(edges),
                "clusters": {
                    "count": len(clusters),
                    "heavy": n_heavy,
                    "light": len(clusters) - n_heavy,
                    "largest_fraction": (max(map(len, clusters)) / len(g.vertices)
                                         if g.vertices else 0.0),
                    "max_nonvanishing_sides": max((info[3] for info in infos), default=0),
                    "clusters_with_3plus_sides": sum(1 for info in infos if info[3] >= 3),
                },
                "forest": {
                    "kept": len(kept),
                    "deleted": len(forest.deleted),
                    "trees": len(clusters),
                    "trees_with_3plus_nonvanishing_dirs": sum(
                        1 for comp in clusters if max(tree_side[v] for v in comp) >= 3),
                    "witness_violations": 0,
                },
                "visibility": {
                    "basepoints": [max(info[0], key=lambda v: (exact[v], -v)) for info in base],
                    "masses": [f"{info[1].numerator}/{info[1].denominator}" for info in base],
                    "heavy": sum(1 for info in base if info[2]),
                },
                "open": len(opened),
                "label_collisions": sum(c - 1 for c in Counter(values).values()),
            })
    return records


def _bfs_forest(adjacency, roots: Iterable[int]):
    """Root every component at the first of `roots` it holds, by `_bfs`.

    Returns (parent, depth, root), each keyed by vertex; `parent` lists
    every tree in visit order, so a parent precedes its children.
    """
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    root: dict[int, int] = {}
    for r in roots:
        if r not in root:
            for y, p in _bfs(adjacency, r).items():
                parent[y] = p
                depth[y] = 0 if p is None else depth[p] + 1
                root[y] = r
    return parent, depth, root


def _tree_walk(parent, depth, u: int, v: int) -> list[int]:
    """The vertices of the u-v path of a rooted forest (u and v in one tree),
    in walk order from u to v: climb from both ends to where they meet."""
    head, tail = [u], [v]
    while depth[u] > depth[v]:
        u = parent[u]
        head.append(u)
    while depth[v] > depth[u]:
        v = parent[v]
        tail.append(v)
    while u != v:
        u, v = parent[u], parent[v]
        head.append(u)
        tail.append(v)
    return head + tail[-2::-1]


def validate_cocycle_oracle(g: Graph, c: Cocycle) -> CocycleReport:
    """`weights.validate_cocycle` on a BFS forest keyed by vertex id, read
    off the sorted adjacency: the per-edge check, then every non-tree edge's
    fundamental cycle, walked through the tree."""
    worst = 0.0
    worst_cycle: tuple[int, ...] = ()

    def defect_of(product) -> float:
        return 0.0 if product == 1 else abs(math.log(float(product)))

    for u, v in g.ordered_edges:
        d = defect_of(c.ratio(u, v) * c.ratio(v, u))
        if d > worst:
            worst, worst_cycle = d, (u, v, u)
    parent, depth, _ = _bfs_forest(adjacency(g), g.vertices)
    value: dict[int, Fraction] = {}
    for y, x in parent.items():
        value[y] = Fraction(1) if x is None else c.ratio(y, x) * value[x]
    for u, v in g.ordered_edges:
        if parent[u] == v or parent[v] == u:
            continue
        d = defect_of(c.ratio(u, v) * value[v] / value[u])
        if d > worst:
            worst, worst_cycle = d, tuple(_tree_walk(parent, depth, u, v))
    return CocycleReport(ok=worst == 0.0, worst_defect=worst, worst_cycle=worst_cycle)


def quotient_oracle(g: Graph, potential, family) -> QuotientGraph:
    """The quotient from a member list per block and a candidate list per
    quotient edge, each lift the first greatest candidate by `max`.
    Reference for `ends.quotient`, field by field and key order by key
    order."""
    fam = tuple(tuple(sorted(b)) for b in family)
    block_of: dict[int, int] = {}
    inner_trees: dict[int, frozenset[Edge]] = {}
    adj = adjacency(g)
    for b in fam:
        bset = _vertex_set(g, b)
        tree = _bfs(adj, b[0], bset.__contains__) if b else {}
        if not b or len(tree) != len(bset):
            raise NotConnected(f"family block {b} is not connected")
        inner_trees[b[0]] = frozenset(edge(p, y) for y, p in tree.items() if p is not None)
        for v in b:
            if v in block_of:
                raise OverlappingBlocks(f"vertex {v} lies in two family blocks")
            block_of[v] = b[0]
    for v in g.vertices:
        block_of.setdefault(v, v)
    ranked = ranked_potential(g, potential)
    rank = ranked.rank

    all_blocks: dict[int, list[int]] = {}
    for v in g.vertices:
        all_blocks.setdefault(block_of[v], []).append(v)

    host_by_qedge: dict[Edge, list[Edge]] = {}
    for e in g.ordered_edges:
        bu, bv = block_of[e[0]], block_of[e[1]]
        if bu == bv:
            continue
        host_by_qedge.setdefault(edge(bu, bv), []).append(e)

    def pots(e: Edge) -> tuple[int, int]:
        a, b = rank[e[0]], rank[e[1]]
        return (a, b) if a > b else (b, a)

    lift = {qe: max(cands, key=pots) for qe, cands in host_by_qedge.items()}
    qpotential = {bid: ranked.levels[max(map(rank.__getitem__, members))]
                  for bid, members in all_blocks.items()}
    qboundary = frozenset(
        bid for bid, members in all_blocks.items()
        if any(g.is_boundary(v) for v in members)
    )
    qmeta = {"generator": "quotient", "boundary": qboundary}
    qgraph = _subgraph(sorted(all_blocks), tuple(sorted(host_by_qedge)), qmeta)
    return QuotientGraph(
        blocks=tuple(tuple(sorted(m)) for _, m in sorted(all_blocks.items())),
        family=fam,
        qgraph=qgraph,
        qpotential=qpotential,
        lift=lift,
        inner_trees=inner_trees,
        block_of=block_of,
    )


@pytest.fixture
def rand():
    return random.Random(1729)
