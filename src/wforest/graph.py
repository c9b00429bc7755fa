"""Immutable finite graphs with the connectivity, boundary, and
cycle-invariance primitives every other module builds on.

Vertices are opaque integer ids; edges are canonical pairs ``(u, v)`` with
``u < v``.  Determinism everywhere comes from sorting on ids, never from
hash order.  A graph's canonical edge order is its edges sorted, and every
keyed draw indexes an edge by its position there: `build_graph` sorts once,
a subgraph filters its host's order, and ``Graph.ordered_edges`` is read,
never sorted again.  `_subgraph`, the one builder of a Graph, also lays it
out on dense integer positions once: a vertex is its index in the sorted
``Graph.vertices`` and an edge its index in ``Graph.ordered_edges``, and
``Graph.eu``, ``Graph.ev`` and ``Graph.near`` hold each edge's end
positions and each vertex's neighbour positions.  Every low-link DFS,
union-find and rooting in the package reads that layout, and this module
owns the traversals on it: `_root`, the one breadth-first forest of a set
of edge positions, with `_path` to climb it, `_bfs`, one search from a
position within a set, and `_lowlink`, the one search of all components: a
depth-first search whose preorder `_runs` splits into the components.
`_side_counts` is the one side count: a pass over a rooted spanning
forest, which `_lowlink` gives of any graph and `_root` of a forest.
``near`` is the one neighbour structure and ``ordered_edges`` the one edge
list: `_at` finds an id's position by bisecting the sorted ids, `_edge_at`
an edge's by bisecting the edges, and `_host_edges` checks a whole edge
set in one pass over them.  Per-vertex
"level" integers and truncation-boundary flags are carried in
``Graph.meta`` (keys ``"levels"`` and ``"boundary"``) because only the
generator that built a truncation knows which vertices are artifacts of
cutting off an infinite graph.
"""

import json
from bisect import bisect_left
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DanglingEndpoint,
    DuplicateEdge,
    DuplicateVertexId,
    MalformedDocument,
    SelfLoop,
    UnknownId,
)

Edge = tuple[int, int]


def edge(u: int, v: int) -> Edge:
    """Canonical undirected edge: endpoints sorted, self-loops rejected."""
    if u == v:
        raise SelfLoop(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph(NamedTuple):
    vertices: tuple[int, ...]
    # the canonical edges in increasing order, the one edge list a graph
    # stores; `_edge_at` and `_host_edges` find edges in it
    ordered_edges: tuple[Edge, ...]
    meta: dict
    # the layout on positions, derived from the two above: per edge
    # position, the positions of its lesser and of its greater end, and per
    # vertex position, its neighbours' positions in increasing order
    eu: tuple[int, ...]
    ev: tuple[int, ...]
    near: tuple[tuple[int, ...], ...]

    def __contains__(self, v: int) -> bool:
        return _at(self, v) >= 0

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbours, in increasing order."""
        i = _at(self, v)
        if i < 0:
            raise UnknownId(f"vertex {v} not in graph")
        return tuple([self.vertices[w] for w in self.near[i]])

    def degree(self, v: int) -> int:
        return len(self.neighbors(v))

    def sorted_edges(self) -> list[Edge]:
        """A new list of the edges in canonical order."""
        return list(self.ordered_edges)

    # meta accessors

    def is_boundary(self, v: int) -> bool:
        return v in self.meta.get("boundary", ())

    def boundary_vertices(self) -> frozenset[int]:
        return frozenset(self.meta.get("boundary", ()))


def _index(items: Sequence, x) -> int:
    """The index of x in the strictly increasing `items`, by bisection; -1
    when x is none of them."""
    try:
        i = bisect_left(items, x)
    except TypeError:  # x does not compare with items, so it is none of them
        return -1
    return i if i < len(items) and items[i] == x else -1


def _at(g: Graph, v) -> int:
    """The position of v in g.vertices; -1 when v is not a vertex of g."""
    return _index(g.vertices, v)


def _edge_at(g: Graph, e) -> int:
    """The position of e in g.ordered_edges; -1 when e is not a canonical
    edge of g (a reversed pair is not)."""
    return _index(g.ordered_edges, e)


def build_graph(vertices: Iterable[int], edges: Iterable[tuple[int, int]],
                meta: dict | None = None) -> Graph:
    """Validate and canonicalize a vertex/edge description into a Graph; an
    edge listed twice, in either orientation, is `DuplicateEdge`."""
    vlist = list(vertices)
    vset = set(vlist)
    if len(vset) != len(vlist):
        seen, dup = set(), None
        for v in vlist:
            if v in seen:
                dup = v
                break
            seen.add(v)
        raise DuplicateVertexId(f"vertex id {dup} listed twice")
    eset = set()
    for u, v in edges:
        e = edge(u, v)
        if e[0] not in vset or e[1] not in vset:
            missing = e[0] if e[0] not in vset else e[1]
            raise DanglingEndpoint(f"edge {e} references unknown vertex {missing}")
        if e in eset:
            raise DuplicateEdge(f"edge {e} listed twice")
        eset.add(e)
    return _subgraph(sorted(vset), tuple(sorted(eset)), dict(meta) if meta else {})


def components(g: Graph) -> list[tuple[int, ...]]:
    """Connected components as sorted vertex tuples, ordered by least id."""
    ids = g.vertices
    order, parent, _, _ = _lowlink(g.near, range(len(ids)))
    return [tuple([ids[v] for v in sorted(run)]) for run in _runs(order, parent)]


def _bfs(adj: Sequence[Sequence[int]], root: int, keep=None) -> dict[int, int | None]:
    """One breadth-first search from position root: each reached position
    mapped to its BFS parent (None at the root), in visit order.  Past the
    root, only the positions that `keep` accepts are entered.  Neighbours
    are scanned in list order, so on a graph's `near` the tree is canonical.
    """
    parent: dict[int, int | None] = {root: None}
    queue = [root]
    for x in queue:
        for y in adj[x]:
            if y not in parent and (keep is None or keep(y)):
                parent[y] = x
                queue.append(y)
    return parent


class _Rooted(NamedTuple):
    """A breadth-first forest on vertex positions, each tree rooted at its
    least vertex: per vertex its parent and the edge to it (-1 at a root),
    its depth and its root, a breadth-first order, which lists a parent
    before its children, and the number of trees."""
    parent: list[int]
    up: list[int]
    depth: list[int]
    root: list[int]
    order: list[int]
    trees: int


def _root(g: Graph, edges: Iterable[int]) -> _Rooted:
    """Root the breadth-first forest of the edge positions `edges` on g's
    vertices, scanning each vertex's edges in the order given.

    Given in increasing position, each vertex's edges lead to its
    neighbours in sorted order, so on all of g's edges this is the
    canonical BFS forest of g.  On a forest the parents and depths do not
    depend on the order.  The edges span a forest exactly when there are
    ``len(g.vertices) - trees`` of them.
    """
    n, eu, ev = len(g.vertices), g.eu, g.ev
    adj: list[list[int]] = [[] for _ in range(n)]
    for i in edges:
        adj[eu[i]].append(i)
        adj[ev[i]].append(i)
    parent, up, depth, root = [-1] * n, [-1] * n, [0] * n, [-1] * n
    order: list[int] = []
    trees = 0
    for r in range(n):
        if root[r] >= 0:
            continue
        trees += 1
        root[r] = r
        queue = [r]
        for x in queue:
            for i in adj[x]:
                y = eu[i] + ev[i] - x  # the other end
                if root[y] < 0:
                    root[y] = r
                    parent[y] = x
                    up[y] = i
                    depth[y] = depth[x] + 1
                    queue.append(y)
        order += queue
    return _Rooted(parent, up, depth, root, order, trees)


def _path(rooted: _Rooted, u: int, v: int) -> list[int]:
    """The edges of the u-v path of a rooted forest (u and v in one tree),
    in walk order from u to v: climb from both ends to where they meet."""
    parent, up, depth = rooted.parent, rooted.up, rooted.depth
    head: list[int] = []
    tail: list[int] = []
    while depth[u] > depth[v]:
        head.append(up[u])
        u = parent[u]
    while depth[v] > depth[u]:
        tail.append(up[v])
        v = parent[v]
    while u != v:
        head.append(up[u])
        tail.append(up[v])
        u, v = parent[u], parent[v]
    tail.reverse()
    return head + tail


def _vertex_set(g: Graph, A: Iterable[int]) -> set[int]:
    """A as a set, checked to hold only vertices of g."""
    aset = set(A)
    for v in aset:
        if _at(g, v) < 0:
            raise UnknownId(f"vertex {v} not in graph")
    return aset


def is_connected_set(g: Graph, A: Iterable[int]) -> bool:
    """True iff the induced subgraph on A is connected (and A nonempty)."""
    inside = {_at(g, v) for v in _vertex_set(g, A)}
    return bool(inside) and len(_bfs(g.near, min(inside), inside.__contains__)) == len(inside)


def edge_boundary(g: Graph, A: Iterable[int]) -> frozenset[Edge]:
    """Edges with exactly one endpoint in A."""
    aset = _vertex_set(g, A)
    return frozenset(e for e in g.ordered_edges if (e[0] in aset) != (e[1] in aset))


def inner_boundary(g: Graph, A: Iterable[int]) -> frozenset[int]:
    """Vertices of A adjacent to the complement."""
    aset = _vertex_set(g, A)
    return frozenset(v for v in aset if any(y not in aset for y in g.neighbors(v)))


def outer_boundary(g: Graph, A: Iterable[int]) -> frozenset[int]:
    """Inner boundary of the complement: outside vertices adjacent to A."""
    aset = _vertex_set(g, A)
    return frozenset(
        y for v in aset for y in g.neighbors(v) if y not in aset
    )


def is_cycle_invariant(g: Graph, Y: Iterable[int]) -> bool:
    """True iff every simple cycle with an edge inside Y lies entirely in Y.

    Every simple cycle lies in one biconnected block, and any two edges of a
    block share a simple cycle, so this holds iff no block has both an edge
    inside Y and an edge that is not.  Linear time.
    """
    yset = _vertex_set(g, Y)
    inside, outside = set(), set()
    for (u, v), block in _edge_blocks(g).items():
        (inside if u in yset and v in yset else outside).add(block)
    return not inside & outside


def _lowlink(adj: Sequence[Sequence[int]], roots: Iterable[int]):
    """One iterative depth-first search from each of `roots` that no earlier
    one reached, on positions.

    Returns the components reached, laid end to end in preorder, and per
    position its DFS parent (-1 at a root), its preorder index `disc` (-1 if
    unreached) and its low-link `low`: the least `disc` of v and of the
    neighbours of v's DFS subtree.  Every edge of a DFS joins an ancestor to
    a descendant, so x cuts the subtree of its child c off from the rest of
    the component exactly when low[c] >= disc[x] (Tarjan 1972).
    """
    n = len(adj)
    order: list[int] = []
    parent, disc, low = [-1] * n, [-1] * n, [-1] * n
    for root in roots:
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = len(order)
        order.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if disc[w] < 0:
                    parent[w] = v
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    stack.append((w, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                p = parent[v]
                if p >= 0 and low[v] < low[p]:
                    low[p] = low[v]
    return order, parent, disc, low


def _runs(order: Sequence[int], parent: Sequence[int]) -> list[list[int]]:
    """The trees of a `_lowlink` forest, each the run of its preorder that
    starts at its root; from roots taken in increasing position, a root is
    its component's least position."""
    runs: list[list[int]] = []
    for v in order:
        if parent[v] < 0:
            runs.append([])
        runs[-1].append(v)
    return runs


def _side_counts(order: Sequence[int], parent: Sequence[int], disc: Sequence[int],
                 low: Sequence[int], own: Sequence[int]) -> list[int]:
    """Per position, the sides of its component less it that hold a qualifying
    position (`ends.qualifying_side_counts`), with `own` each position's 0/1
    qualifying flag, over a rooted spanning forest of some components (0
    elsewhere): `order` lists each tree's root first, in one run, and every
    parent before its children; `parent` is -1 at a root; and the subtree
    of a child c of x is a side of x's own exactly when low[c] >= disc[x].

    `_lowlink` gives such a forest of any graph.  On a forest, every child
    subtree is a side of its own, so a rooting of it with its depth as both
    `disc` and `low` (`_root`) serves too.  Qualifying counts are summed up
    the tree; everything outside x but in no side of its own is one more
    side, counted by subtraction."""
    n = len(parent)
    below = list(own)  # qualifying vertices in v's subtree
    apart = [0] * n  # ... in the child subtrees that are sides of v's own
    sides = [0] * n  # those child subtrees that qualify
    for v in reversed(order):
        p = parent[v]
        if p >= 0:
            below[p] += below[v]
            if low[v] >= disc[p]:
                apart[p] += below[v]
                sides[p] += below[v] > 0
    counts = [0] * n
    total = 0
    for v in order:  # each tree's run starts at its root
        if parent[v] < 0:
            total = below[v]
        counts[v] = sides[v] + (total - own[v] - apart[v] > 0)
    return counts


def _edge_blocks(g: Graph) -> dict[Edge, int]:
    """Each edge mapped to its biconnected block, named by the vertex whose
    DFS tree edge opens the block.

    The tree edge into v opens a block when low[v] >= disc[parent], and
    otherwise continues its parent's block; a back edge joins the block of
    the tree edge into its lower end.
    """
    ids, adj = g.vertices, g.near
    order, parent, disc, low = _lowlink(adj, range(len(adj)))
    blocks: dict[Edge, int] = {}
    opened = [-1] * len(adj)
    for v in order:
        p = parent[v]
        if p < 0:
            continue
        opened[v] = v if low[v] >= disc[p] else opened[p]
        for w in adj[v]:
            if disc[w] < disc[v]:
                blocks[edge(ids[v], ids[w])] = ids[opened[v]]
    return blocks


def _restrict_meta(meta: dict, keep: set[int] | None, ordered: tuple[Edge, ...]) -> dict:
    """`meta` on a subgraph with the vertices `keep` (None: all of them) and
    the edges `ordered`: the per-vertex entries and the edge lists lose what
    the subgraph lacks, and each edge list keeps its order."""
    out = dict(meta)
    if keep is not None and "levels" in out:
        out["levels"] = {v: l for v, l in out["levels"].items() if v in keep}
    if keep is not None and "boundary" in out:
        out["boundary"] = frozenset(v for v in out["boundary"] if v in keep)
    if "tiebreak" in out or "edge_factors" in out:
        kept = frozenset(ordered)
        if "tiebreak" in out:
            out["tiebreak"] = [e for e in out["tiebreak"] if e in kept]
        if "edge_factors" in out:
            out["edge_factors"] = [t for t in out["edge_factors"] if (t[0], t[1]) in kept]
    return out


def induced_subgraph(g: Graph, A: Iterable[int]) -> Graph:
    """Restriction to a vertex set, preserving ids and meta annotations."""
    aset = _vertex_set(g, A)
    ordered = tuple(e for e in g.ordered_edges if e[0] in aset and e[1] in aset)
    return _subgraph(sorted(aset), ordered, _restrict_meta(g.meta, aset, ordered))


def _host_edges(g: Graph, E: Iterable[Edge]) -> list[int]:
    """The positions of the edge set E in g.ordered_edges, increasing, from
    one pass over them; an E holding a pair that is not a canonical edge of
    g raises `UnknownId`, naming the first such pair E's set iterates."""
    eset = frozenset(E)
    found = [i for i, e in enumerate(g.ordered_edges) if e in eset]
    if len(found) < len(eset):
        raise UnknownId(f"edge {next(e for e in eset if _edge_at(g, e) < 0)} not in graph")
    return found


def spanned_subgraph(g: Graph, E: Iterable[Edge]) -> Graph:
    """Subgraph on all vertices of g keeping only the given edges."""
    ordered = tuple(map(g.ordered_edges.__getitem__, _host_edges(g, E)))
    return _subgraph(g.vertices, ordered, _restrict_meta(g.meta, None, ordered))


def _subgraph(vertices, ordered: tuple[Edge, ...], meta: dict) -> Graph:
    """The graph on sorted `vertices` with the canonical edges `ordered`
    between them, listed in increasing order; the one builder of a Graph,
    which validates and sorts nothing, and lays the graph out on positions.

    Positions follow the sorted ids.  Each edge is appended to the
    neighbours of both its ends in turn, so every vertex gets its lesser
    neighbours and then its greater ones, each in increasing order, without
    sorting a list per vertex."""
    vertices = tuple(vertices)
    at = {v: i for i, v in enumerate(vertices)}
    eu = tuple([at[u] for u, _ in ordered])
    ev = tuple([at[v] for _, v in ordered])
    lists: list[list[int]] = [[] for _ in vertices]
    for a, b in zip(eu, ev):
        lists[a].append(b)
        lists[b].append(a)
    return Graph(vertices=vertices, ordered_edges=ordered, meta=meta,
                 eu=eu, ev=ev, near=tuple(map(tuple, lists)))


# JSON interchange (the contract used by the CLI)

def compact_json(doc) -> str:
    """The one form of every JSON output but a manifest: sorted keys, no
    spaces, one closing newline."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def to_json(g: Graph) -> str:
    levels = g.meta.get("levels", {})
    boundary = set(g.meta.get("boundary", ()))
    verts = []
    for v in g.vertices:
        rec: dict = {"id": v}
        if v in levels:
            rec["level"] = levels[v]
        if v in boundary:
            rec["boundary"] = True
        verts.append(rec)
    meta = {k: _jsonable(v) for k, v in g.meta.items() if k not in ("levels", "boundary")}
    doc = {
        "vertices": verts,
        "edges": [list(e) for e in g.ordered_edges],
        "meta": meta,
    }
    return compact_json(doc)


def _jsonable(v):
    if isinstance(v, (frozenset, set)):
        return sorted(v, key=repr)
    if isinstance(v, tuple):
        return list(v)
    return v


def _json_int(x, what: str) -> int:
    """A JSON integer, and not a bool (JSON true is not vertex 1)."""
    if type(x) is not int:
        raise MalformedDocument(f"{what} {x!r} is not an integer")
    return x


def id_pair(x, what: str) -> tuple[int, int]:
    """A JSON edge: a list of exactly two integer ids, in the given order."""
    if not isinstance(x, list) or len(x) != 2:
        raise MalformedDocument(f"{what} {x!r} is not a pair of ids")
    return _json_int(x[0], what), _json_int(x[1], what)


def _json_list(x, what: str) -> list:
    if not isinstance(x, list):
        raise MalformedDocument(f"{what} is not a JSON list")
    return x


def parse_json(text: str, what: str):
    """`json.loads`, except that a document nested past the parser's
    recursion limit raises `MalformedDocument`, not `RecursionError`."""
    try:
        return json.loads(text)
    except RecursionError:
        raise MalformedDocument(f"{what} is nested too deeply to parse") from None


def from_json(text: str) -> Graph:
    """Parse and validate the graph JSON document; any deviation from the
    format raises a `WForestError`, never a `TypeError`."""
    return from_doc(parse_json(text, "graph document"))


def from_doc(doc) -> Graph:
    """Validate a parsed graph JSON document into a Graph."""
    if not isinstance(doc, dict):
        raise MalformedDocument("graph document is not a JSON object")
    vertices = []
    levels = {}
    boundary = set()
    for rec in _json_list(doc.get("vertices"), "graph 'vertices'"):
        if not isinstance(rec, dict):
            raise MalformedDocument(f"vertex record {rec!r} is not a JSON object")
        v = _json_int(rec.get("id"), "vertex record id")
        vertices.append(v)
        if "level" in rec:
            levels[v] = _json_int(rec["level"], f"level of vertex {v}")
        flag = rec.get("boundary", False)
        if type(flag) is not bool:
            raise MalformedDocument(f"boundary flag of vertex {v} is not true/false")
        if flag:
            boundary.add(v)
    edges = [id_pair(e, "graph edge") for e in _json_list(doc.get("edges"), "graph 'edges'")]
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise MalformedDocument("graph 'meta' is not a JSON object")
    if "levels" in meta or "boundary" in meta:
        raise MalformedDocument("levels and boundary flags belong on the vertex records")
    meta = dict(meta)
    if "tiebreak" in meta:
        meta["tiebreak"] = [edge(*id_pair(e, "tiebreak edge"))
                            for e in _json_list(meta["tiebreak"], "meta 'tiebreak'")]
    if "edge_factors" in meta:
        factors = _json_list(meta["edge_factors"], "meta 'edge_factors'")
        if not all(isinstance(t, list) and len(t) == 3 for t in factors):
            raise MalformedDocument("meta 'edge_factors' entries are not [u, v, factor]")
        meta["edge_factors"] = [tuple(t) for t in factors]
    if levels:
        meta["levels"] = levels
    if boundary:
        meta["boundary"] = frozenset(boundary)
    return build_graph(vertices, edges, meta=meta)
