"""Seeded Bernoulli bond percolation, cluster analysis, the free weighted
maximal spanning forest over a configuration, and sweep harnesses.

All randomness is counter-based and keyed by (seed, domain, edge index), so
edge decisions are order-independent: the same seed gives monotone-coupled
configurations across p, and records are byte-reproducible.

Every stage runs on the host graph's dense integer positions, as `forest`
does: a vertex is its position in ``g.vertices`` and an edge its position
in ``g.ordered_edges``, the index its draws are keyed by, and the graph
carries each edge's end positions.  A sweep ranks its host's potential
on positions once (`_Host`); each run then keeps its open edges, label
ranks, keys, clusters, union-find forest and rooting in lists, and names a
vertex by its id only in a record's basepoints and in a message.  The
clusters and the rooting are `graph`'s two breadth-first traversals on
positions, `_components` and `_root`, and both the clusters' and the
kept trees' side counts are `graph._side_counts`, over the low-link forest
of the clusters and over the rooting.
`bernoulli_sample`, `assign_labels`, `fwmsf` and `cluster_report` translate
edges and vertices into that same core and back.
"""

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from typing import Mapping, NamedTuple, Sequence

from .errors import (
    BadParams,
    BadProbability,
    InvariantViolation,
    NotAutomorphism,
    NotWeightPreserving,
)
from .forest import ForestResult, _greedy, _scan_witnesses
from .graph import (Edge, Graph, _components, _host_edges, _lowlink, _root, _side_counts,
                    compact_json, components, edge, spanned_subgraph)
from .rng import check_seed, subseed, threshold, u64s
from .weights import (ProxyParams, RankedPotential, _edge_keys, _lesser_ranks, exact_potential,
                      ranked_potential)

# Clusters per sweep run whose heaviest vertex is a visibility basepoint.
VISIBILITY_BASEPOINTS = 8


class PercolationConfig(NamedTuple):
    host: Graph
    open_edges: frozenset[Edge]
    p: float
    seed: int


def _opened(p: float, seed: int, m: int) -> list[int]:
    """The open edge positions of m edges: each edge's keyed 64-bit draw
    compared against the p-threshold (hence monotone in p)."""
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p={p} outside [0, 1]")
    cut = threshold(p)
    return [i for i, x in enumerate(u64s(seed, "open", m)) if x < cut]


def bernoulli_sample(g: Graph, p: float, seed: int) -> PercolationConfig:
    """Each edge open independently with probability p, decided by comparing
    its keyed 64-bit draw against the p-threshold (hence monotone in p).
    An edge's draw index is its position in the canonical edge order."""
    edges = g.ordered_edges
    open_edges = frozenset(map(edges.__getitem__, _opened(p, seed, len(edges))))
    return PercolationConfig(host=g, open_edges=open_edges, p=p, seed=seed)


def full_config(g: Graph) -> PercolationConfig:
    return PercolationConfig(host=g, open_edges=frozenset(g.ordered_edges), p=1.0, seed=0)


def _by_label(label, items: Sequence) -> list:
    """`items`, listed in increasing order, sorted by decreasing label; the
    sort is stable, so equal labels keep the lesser item first."""
    return sorted(items, key=label.__getitem__, reverse=True)


class LabelAssignment(NamedTuple):
    """Uniform 64-bit label per edge; the derived tiebreak puts larger
    labels earlier (so the order-least edge of a cycle has the largest
    label, matching minimal-forest deletion)."""
    labels: dict[Edge, int]
    collisions: tuple[tuple[Edge, Edge], ...] = ()

    def ranks(self, edges=None) -> dict[Edge, int]:
        ordered = _by_label(self.labels, sorted(self.labels if edges is None else edges))
        return {e: i for i, e in enumerate(ordered)}


def assign_labels(g: Graph, seed: int) -> LabelAssignment:
    """One keyed draw per edge, indexed by position in the canonical edge
    order."""
    edges = g.ordered_edges
    values = u64s(seed, "label", len(edges))
    labels = dict(zip(edges, values))
    if len(set(values)) == len(values):
        return LabelAssignment(labels=labels)
    by_value: dict[int, list[Edge]] = {}
    for e, val in labels.items():
        by_value.setdefault(val, []).append(e)
    collisions = []
    for val, es in sorted(by_value.items()):
        if len(es) > 1:
            es.sort()
            collisions.extend((es[i], es[i + 1]) for i in range(len(es) - 1))
    return LabelAssignment(labels=labels, collisions=tuple(collisions))


class _Host(NamedTuple):
    """A graph and a ranked potential on its positions, built once per
    sweep: the open subgraph of every run has the host's vertex set, so the
    host's ranks serve it unchanged."""
    g: Graph
    low: list[int]           # per edge, the lesser potential rank of its ends
    rank: list[int]          # per vertex, its potential rank
    levels: list[Fraction]   # the distinct potential values, increasing
    flagged: list[bool]      # per vertex, its truncation-boundary flag


def _host(g: Graph, ranked: RankedPotential) -> _Host:
    rank = list(map(ranked.rank.__getitem__, g.vertices))
    flags = g.boundary_vertices()
    return _Host(g, _lesser_ranks(g, rank), rank, ranked.levels, [v in flags for v in g.vertices])


def _keys(host: _Host, opened: list[int],
          label: Sequence[int] | Mapping[int, int]) -> tuple[list[int | None], list[int]]:
    """`weights._edge_keys` on the open edges by decreasing label `label`
    (by edge position), as `EdgeOrder` keys the open subgraph under that
    tiebreak, and the open edges in decreasing key order."""
    ranked = _by_label(label, opened)
    key = _edge_keys(host.low, ranked)
    # decreasing label rank, stably sorted by decreasing end rank: a sort
    # over the few distinct end ranks
    ranked.reverse()
    return key, sorted(ranked, key=host.low.__getitem__, reverse=True)


def fwmsf(cfg: PercolationConfig, potential: Mapping[int, object],
          labels: LabelAssignment) -> ForestResult:
    """Weighted maximal subforest of the open subgraph under the random
    tiebreak; the weighted generalization of the free minimal forest."""
    host = _host(cfg.host, ranked_potential(cfg.host, potential))
    opened = _host_edges(cfg.host, cfg.open_edges)
    names = cfg.host.ordered_edges
    _, desc = _keys(host, opened, {i: labels.labels[names[i]] for i in opened})
    kept, deleted = _greedy(cfg.host, desc)
    return ForestResult(kept=frozenset(map(names.__getitem__, kept)),
                        deleted=frozenset(map(names.__getitem__, deleted)), fixed=frozenset())


def _clusters(host: _Host, opened: list[int]
              ) -> tuple[list[list[int]], list[int], list[list[int]]]:
    """The clusters of the open subgraph, by `graph._components` over its
    adjacency lists, in search order from their least vertex and ordered by
    it.  Returns them, each one's greatest vertex rank, and the adjacency
    lists."""
    eu, ev, rank = host.g.eu, host.g.ev, host.rank
    adj: list[list[int]] = [[] for _ in rank]
    for i in opened:
        adj[eu[i]].append(ev[i])
        adj[ev[i]].append(eu[i])
    clusters = _components(adj)
    return clusters, [max(map(rank.__getitem__, comp)) for comp in clusters], adj


def _nonvanishing(host: _Host, clusters: list[list[int]], tops: list[int],
                  delta: Fraction) -> list[int]:
    """Per vertex, 1 when it is flagged and its potential is at least delta
    times its cluster's greatest, `ends.qualifier` at cluster-relative
    potentials, and 0 otherwise.

    potential >= delta * top is rank >= the first level position not below
    delta * top (`bisect_left`): one multiplication per distinct top, then
    int comparisons.
    """
    levels, rank, flagged = host.levels, host.rank, host.flagged
    cuts: dict[int, int] = {}  # by top rank: one bisection per distinct top
    own = [0] * len(rank)
    for comp, top in zip(clusters, tops):
        if top not in cuts:
            cuts[top] = bisect_left(levels, delta * levels[top])
        cut = cuts[top]
        for v in comp:
            if flagged[v] and rank[v] >= cut:
                own[v] = 1
    return own


class _ClusterStat(NamedTuple):
    mass: Fraction
    cls: str                      # "heavy" | "light"
    side_max: int


def _cluster_report(host: _Host, adj: list[list[int]], clusters: list[list[int]],
                    tops: list[int], own: list[int],
                    params: ProxyParams) -> tuple[list[_ClusterStat], dict]:
    """`cluster_report` on positions: each cluster's mass, class and side
    count, and the counts, with `own` the 0/1 nonvanishing flags.  A
    cluster is heavy when its mass relative to its heaviest vertex is at
    least heavy_tau, or when it holds a nonvanishing vertex.

    Only the clusters with two or more nonvanishing vertices run the low-link
    DFS for their side counts, all in one `graph._side_counts` pass.  With
    none, every count is 0; with one, q, every other vertex has q on exactly
    one of its sides and q has none, so the greatest count is 1 unless q is
    alone.
    """
    levels, rank = host.levels, host.rank
    hits = [sum(map(own.__getitem__, comp)) for comp in clusters]
    side = _side_counts(*_lowlink(adj, [comp[0] for comp, h in zip(clusters, hits) if h >= 2]),
                        own)
    stats = []
    n_heavy = 0
    for comp, top, h in zip(clusters, tops, hits):
        if h >= 2:
            side_max = max(map(side.__getitem__, comp))
        else:
            side_max = int(h == 1 and len(comp) > 1)
        if len(comp) == 1:
            mass = Fraction(1)  # a vertex relative to itself
        else:
            # the exact potential sum, one Fraction product per distinct value
            per_level = Counter(map(rank.__getitem__, comp))
            mass = sum(levels[r] * n for r, n in per_level.items()) / levels[top]
        heavy = mass >= params.heavy_tau or h > 0
        n_heavy += heavy
        stats.append(_ClusterStat(mass, "heavy" if heavy else "light", side_max))
    counts = {
        "count": len(stats),
        "heavy": n_heavy,
        "light": len(stats) - n_heavy,
        "largest": max(map(len, clusters), default=0),
    }
    return stats, counts


class ClusterInfo(NamedTuple):
    vertices: tuple[int, ...]
    mass: Fraction
    cls: str                      # "heavy" | "light"
    nonvanishing_side_count_max: int


class ClusterReport(NamedTuple):
    clusters: tuple[ClusterInfo, ...]
    counts: dict


def cluster_report(cfg: PercolationConfig, potential: Mapping[int, object],
                   params: ProxyParams) -> ClusterReport:
    """Clusters of the open subgraph with masses relative to each cluster's
    heaviest vertex, heavy/light proxy classes, and the max number of
    nonvanishing-proxy sides over single-vertex furcations."""
    host = _host(cfg.host, ranked_potential(cfg.host, potential))
    clusters, tops, adj = _clusters(host, _host_edges(cfg.host, cfg.open_edges))
    own = _nonvanishing(host, clusters, tops, params.nonvanish_delta)
    stats, counts = _cluster_report(host, adj, clusters, tops, own, params)
    ids = cfg.host.vertices
    infos = tuple(ClusterInfo(vertices=tuple(sorted(map(ids.__getitem__, comp))), mass=s.mass,
                              cls=s.cls, nonvanishing_side_count_max=s.side_max)
                  for comp, s in zip(clusters, stats))
    return ClusterReport(clusters=infos, counts=counts)


def largest_cluster_fraction(cfg: PercolationConfig) -> float:
    if not cfg.host.vertices:
        return 0.0
    clusters = components(spanned_subgraph(cfg.host, cfg.open_edges))
    return max(map(len, clusters)) / len(cfg.host.vertices)


def _apply_vertex_map(sigma: Mapping[int, int], e: Edge) -> Edge:
    return edge(sigma[e[0]], sigma[e[1]])


def equivariance_check(g: Graph, potential: Mapping[int, object],
                       sigma: Mapping[int, int], labels: LabelAssignment,
                       cfg: PercolationConfig | None = None) -> bool:
    """The forest must transport along a weight-preserving automorphism the
    same way its inputs do: pushing labels (and the configuration) forward
    through sigma pushes the forest forward edge-for-edge."""
    if sorted(sigma) != list(g.vertices) or sorted(sigma.values()) != list(g.vertices):
        raise NotAutomorphism("sigma is not a vertex bijection of the graph")
    image = {_apply_vertex_map(sigma, e) for e in g.ordered_edges}
    if image != set(g.ordered_edges):
        raise NotAutomorphism("sigma does not preserve the edge set")
    pot = exact_potential(g, potential)
    for comp in components(g):
        scale = pot[sigma[comp[0]]] / pot[comp[0]]
        for v in comp:
            if pot[sigma[v]] != pot[v] * scale:
                raise NotWeightPreserving(
                    f"potential not preserved up to a constant at vertex {v}")
    if cfg is None:
        cfg = full_config(g)
    pushed_labels = LabelAssignment(
        labels={_apply_vertex_map(sigma, e): val for e, val in labels.labels.items()},
        collisions=labels.collisions,
    )
    pushed_cfg = cfg._replace(open_edges=frozenset(
        _apply_vertex_map(sigma, e) for e in cfg.open_edges))
    base = fwmsf(cfg, potential, labels)
    moved = fwmsf(pushed_cfg, potential, pushed_labels)
    pushed_kept = frozenset(_apply_vertex_map(sigma, e) for e in base.kept)
    return pushed_kept == moved.kept


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def sweep(g: Graph, potential: Mapping[int, object], p_grid, trials: int,
          seed: int, params: ProxyParams) -> list[dict]:
    """One record per (p, trial), in p-grid order and then trial order:
    configuration stats, forest stats, and a visibility summary at
    deterministic basepoints.  Each run re-derives its own seed from
    (seed, p index, trial), so records are reproducible byte-for-byte.
    """
    if trials < 1:
        raise BadParams(f"trials must be >= 1, got {trials}")
    check_seed(seed)
    jobs = [(float(p), t, subseed(seed, "run", pi, t))
            for pi, p in enumerate(p_grid) for t in range(trials)]
    # validated, ranked and laid out once, here, so a bad potential fails
    # before any run
    host = _host(g, ranked_potential(g, potential))
    return [_run_once(host, params, job) for job in jobs]


def _run_once(host: _Host, params: ProxyParams, job: tuple[float, int, int]) -> dict:
    p, trial, run_seed = job
    g = host.g
    n, m = len(g.vertices), len(g.ordered_edges)
    opened = _opened(p, run_seed, m)
    labels = u64s(run_seed, "label", m)
    key, desc = _keys(host, opened, labels)
    kept, deleted = _greedy(g, desc)
    clusters, tops, adj = _clusters(host, opened)
    # a forest has n - |kept| trees; kept is one (checked once it is rooted),
    # so its trees are exactly the clusters iff the counts agree, and the
    # tree stages below rely on it
    trees = n - len(kept)
    if trees != len(clusters):
        raise InvariantViolation(
            f"forest has {trees} trees but the open subgraph has "
            f"{len(clusters)} clusters (p={p}, seed={run_seed}, trial={trial})")
    # the 0/1 nonvanishing flags, read by the cluster and the tree counts
    own = _nonvanishing(host, clusters, tops, params.nonvanish_delta)
    stats, counts = _cluster_report(host, adj, clusters, tops, own, params)

    # the kept forest, rooted once for its side counts and its witnesses
    rooted = _root(g, kept)
    if len(kept) != n - rooted.trees:
        raise InvariantViolation(
            f"kept edges close a cycle (p={p}, seed={run_seed}, trial={trial})")
    # count the trees whose internal structure shows >= 3 nonvanishing-proxy
    # directions; a tree's vertices and relative weights are its cluster's.
    # Every child subtree of a tree is a side of its own, and with the depth
    # as both disc and low, low[c] >= disc[parent] always holds
    tree_side = _side_counts(rooted.order, rooted.parent, rooted.depth, rooted.depth, own)
    trees_3plus = len({rooted.root[v] for v, s in enumerate(tree_side) if s >= 3})

    violations, _ = _scan_witnesses(g, rooted, key, sorted(deleted), opened)
    if violations:
        d, reason = violations[0]
        raise InvariantViolation(
            f"cut-witness violation at deleted edge {g.ordered_edges[d]}: {reason} "
            f"(p={p}, seed={run_seed}, trial={trial})")

    # a cluster's heaviest vertex sees its whole cluster, at the cluster's
    # relative weights, so its mass and class are the cluster report's
    by_size = sorted(range(len(clusters)), key=lambda c: (-len(clusters[c]), clusters[c][0]))
    baseclusters = by_size[:VISIBILITY_BASEPOINTS]
    rank = host.rank
    basepoints = [g.vertices[max(clusters[c], key=lambda v: (rank[v], -v))]
                  for c in baseclusters]

    return {
        "p": p,
        "trial": trial,
        "seed": run_seed,
        "host_edges": m,
        "clusters": {
            "count": counts["count"],
            "heavy": counts["heavy"],
            "light": counts["light"],
            "largest_fraction": counts["largest"] / n if n else 0.0,
            "max_nonvanishing_sides": max((s.side_max for s in stats), default=0),
            "clusters_with_3plus_sides": sum(1 for s in stats if s.side_max >= 3),
        },
        "forest": {
            "kept": len(kept),
            "deleted": len(deleted),
            "trees": trees,
            "trees_with_3plus_nonvanishing_dirs": trees_3plus,
            "witness_violations": 0,
        },
        "visibility": {
            "basepoints": basepoints,
            "masses": [_fraction_str(stats[c].mass) for c in baseclusters],
            "heavy": sum(1 for c in baseclusters if stats[c].cls == "heavy"),
        },
        "open": len(opened),
        "label_collisions": m - len(set(labels)),
    }


def records_to_jsonl(records: list[dict]) -> str:
    return "".join(map(compact_json, records))


def summary_csv(records: list[dict]) -> str:
    """One row per (p, statistic), averaged over trials."""
    stats = (
        ("open_fraction", lambda r: r["open"] / max(1, r["host_edges"])),
        ("largest_cluster_fraction", lambda r: r["clusters"]["largest_fraction"]),
        ("heavy_clusters", lambda r: r["clusters"]["heavy"]),
        ("clusters_with_3plus_sides", lambda r: r["clusters"]["clusters_with_3plus_sides"]),
        ("trees_with_3plus_nonvanishing_dirs",
         lambda r: r["forest"]["trees_with_3plus_nonvanishing_dirs"]),
        ("visibility_heavy_basepoints", lambda r: r["visibility"]["heavy"]),
    )
    by_p: dict[float, list[dict]] = {}
    for r in records:
        by_p.setdefault(r["p"], []).append(r)
    lines = ["p,statistic,value"]
    for p in sorted(by_p):
        runs = by_p[p]
        for name, f in stats:
            value = sum(float(f(r)) for r in runs) / len(runs)
            lines.append(f"{p},{name},{value}")
    return "\n".join(lines) + "\n"
