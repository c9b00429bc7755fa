"""Seeded Bernoulli bond percolation, cluster analysis, the free weighted
maximal spanning forest over a configuration, and sweep harnesses.

All randomness is counter-based and keyed by (seed, domain, edge index), so
edge decisions are order-independent: the same seed gives monotone-coupled
configurations across p, and records are byte-reproducible.
"""

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import (
    BadParams,
    BadProbability,
    InvariantViolation,
    NotAutomorphism,
    NotWeightPreserving,
)
from .ends import ProxyParams, _component_side_counts
from .forest import ForestResult, _cut_witnesses, _root_forest, maximal_subforest
from .graph import Edge, Graph, components, edge, spanned_subgraph
from .rng import subseed, threshold, u64s
from .weights import EdgeOrder, RankedPotential, exact_potential, ranked_potential

# Clusters per sweep run whose heaviest vertex is a visibility basepoint.
VISIBILITY_BASEPOINTS = 8


@dataclass(frozen=True)
class PercolationConfig:
    host: Graph
    open_edges: frozenset[Edge]
    p: float
    seed: int


def bernoulli_sample(g: Graph, p: float, seed: int) -> PercolationConfig:
    """Each edge open independently with probability p, decided by comparing
    its keyed 64-bit draw against the p-threshold (hence monotone in p).
    An edge's draw index is its position in the canonical edge order."""
    if not 0.0 <= p <= 1.0:
        raise BadProbability(f"p={p} outside [0, 1]")
    cut = threshold(p)
    edges = g.ordered_edges
    open_edges = frozenset(e for e, x in zip(edges, u64s(seed, "open", len(edges))) if x < cut)
    return PercolationConfig(host=g, open_edges=open_edges, p=p, seed=seed)


def full_config(g: Graph) -> PercolationConfig:
    return PercolationConfig(host=g, open_edges=frozenset(g.edges), p=1.0, seed=0)


@dataclass(frozen=True)
class LabelAssignment:
    """Uniform 64-bit label per edge; the derived tiebreak puts larger
    labels earlier (so the order-least edge of a cycle has the largest
    label, matching minimal-forest deletion)."""
    labels: dict[Edge, int]
    collisions: tuple[tuple[Edge, Edge], ...] = ()

    def ranks(self, edges=None) -> dict[Edge, int]:
        label = self.labels.__getitem__
        ordered = sorted(self.labels if edges is None else edges, key=label, reverse=True)
        if len(set(map(label, ordered))) < len(ordered):
            # equal labels: break the tie by the edge itself
            ordered.sort(key=lambda e: (-label(e), e))
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


@dataclass(frozen=True)
class _OpenRun:
    """The open subgraph of one configuration, with what every stage of a
    sweep run reads from it; built once per run.  The open subgraph has the
    host's vertex set, so the host's ranked potential serves it unchanged."""
    sub: Graph
    ranked: RankedPotential
    clusters: list[tuple[int, ...]]
    tops: list[int]                   # per cluster, its greatest vertex rank


def _open_run(host: Graph, opened: Iterable[Edge], ranked: RankedPotential) -> _OpenRun:
    """The run of the open edges `opened`."""
    sub = spanned_subgraph(host, opened)
    clusters = components(sub)
    rank = ranked.rank
    tops = [max(map(rank.__getitem__, comp)) for comp in clusters]
    return _OpenRun(sub=sub, ranked=ranked, clusters=clusters, tops=tops)


def _nonvanishing(run: _OpenRun, delta: Fraction) -> frozenset[int]:
    """The flagged vertices whose potential is at least delta times their
    cluster's greatest, `ends.qualifier` at cluster-relative potentials.

    potential >= delta * top is rank >= the first level position not below
    delta * top (`bisect_left`): one multiplication per cluster, then int
    comparisons.
    """
    flagged = run.sub.boundary_vertices()
    levels, rank = run.ranked.levels, run.ranked.rank
    out = []
    for comp, top in zip(run.clusters, run.tops):
        cut = bisect_left(levels, delta * levels[top])
        out.extend(v for v in comp if v in flagged and rank[v] >= cut)
    return frozenset(out)


def _forest(run: _OpenRun, labels: LabelAssignment) -> tuple[EdgeOrder, ForestResult]:
    order = EdgeOrder._ranked(run.sub, run.ranked, labels.ranks(run.sub.edges))
    return order, maximal_subforest(run.sub, order)


def fwmsf(cfg: PercolationConfig, potential: Mapping[int, object],
          labels: LabelAssignment) -> ForestResult:
    """Weighted maximal subforest of the open subgraph under the random
    tiebreak; the weighted generalization of the free minimal forest."""
    run = _open_run(cfg.host, cfg.open_edges, ranked_potential(cfg.host, potential))
    return _forest(run, labels)[1]


@dataclass(frozen=True)
class ClusterInfo:
    vertices: tuple[int, ...]
    mass: Fraction
    cls: str                      # "heavy" | "light"
    nonvanishing_side_count_max: int


@dataclass(frozen=True)
class ClusterReport:
    clusters: tuple[ClusterInfo, ...]
    counts: dict


def cluster_report(cfg: PercolationConfig, potential: Mapping[int, object],
                   params: ProxyParams) -> ClusterReport:
    """Clusters of the open subgraph with masses relative to each cluster's
    heaviest vertex, heavy/light proxy classes, and the max number of
    nonvanishing-proxy sides over single-vertex furcations."""
    run = _open_run(cfg.host, cfg.open_edges, ranked_potential(cfg.host, potential))
    return _cluster_report(run, params, _nonvanishing(run, params.nonvanish_delta))


def _cluster_report(run: _OpenRun, params: ProxyParams,
                    nonvanishing: frozenset[int]) -> ClusterReport:
    """`cluster_report` of one run.  A cluster is heavy when its mass
    relative to its heaviest vertex is at least heavy_tau, or when it holds
    a nonvanishing vertex.

    Only a cluster with two or more nonvanishing vertices runs the low-link
    DFS for its side counts.  With none, every count is 0; with one, q,
    every other vertex has q on exactly one of its sides and q has none, so
    the greatest count is 1 unless q is alone.
    """
    adj = run.sub.adjacency
    levels, rank = run.ranked.levels, run.ranked.rank
    infos = []
    n_heavy = 0
    for comp, top in zip(run.clusters, run.tops):
        hits = len(nonvanishing.intersection(comp))
        if hits >= 2:
            side_max = max(_component_side_counts(adj, comp[0], nonvanishing.__contains__)
                           .values())
        else:
            side_max = int(hits == 1 and len(comp) > 1)
        if len(comp) == 1:
            mass = Fraction(1)  # a vertex relative to itself
        else:
            # the exact potential sum, one Fraction product per distinct value
            per_level = Counter(map(rank.__getitem__, comp))
            mass = sum(levels[r] * n for r, n in per_level.items()) / levels[top]
        heavy = mass >= params.heavy_tau or hits > 0
        cls = "heavy" if heavy else "light"
        n_heavy += cls == "heavy"
        infos.append(ClusterInfo(
            vertices=comp,
            mass=mass,
            cls=cls,
            nonvanishing_side_count_max=side_max,
        ))
    counts = {
        "count": len(infos),
        "heavy": n_heavy,
        "light": len(infos) - n_heavy,
        "largest": max((len(c.vertices) for c in infos), default=0),
    }
    return ClusterReport(clusters=tuple(infos), counts=counts)


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
    image = {_apply_vertex_map(sigma, e) for e in g.edges}
    if image != set(g.edges):
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
    pushed_cfg = replace(cfg, open_edges=frozenset(
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
    jobs = [(float(p), t, subseed(seed, "run", pi, t))
            for pi, p in enumerate(p_grid) for t in range(trials)]
    # validated and ranked once, here, so a bad potential fails before any run
    ranked = ranked_potential(g, potential)
    return [_run_once(g, ranked, params, job) for job in jobs]


def _run_once(g: Graph, ranked: RankedPotential, params: ProxyParams,
              job: tuple[float, int, int]) -> dict:
    p, trial, run_seed = job
    opened = bernoulli_sample(g, p, run_seed).open_edges
    labels = assign_labels(g, run_seed)
    run = _open_run(g, opened, ranked)
    order, forest = _forest(run, labels)
    # kept is acyclic, so it has |V| - |kept| trees; they are exactly the
    # clusters iff the counts agree, and the tree stages below rely on it
    trees = len(g.vertices) - len(forest.kept)
    if trees != len(run.clusters):
        raise InvariantViolation(
            f"forest has {trees} trees but the open subgraph has "
            f"{len(run.clusters)} clusters (p={p}, seed={run_seed}, trial={trial})")
    nonvanishing = _nonvanishing(run, params.nonvanish_delta)
    report = _cluster_report(run, params, nonvanishing)

    # the kept forest, rooted once for its side counts and its witnesses
    rooted = _root_forest(run.sub, forest.kept)
    # count the trees whose internal structure shows >= 3 nonvanishing-proxy
    # directions; a tree's vertices and relative weights are its cluster's
    tree_side = _tree_side_counts(rooted, nonvanishing)
    trees_3plus = sum(1 for comp in run.clusters
                      if max(tree_side[v] for v in comp) >= 3)

    witness_report = _cut_witnesses(run.sub, forest, order, rooted)
    if not witness_report.ok:
        e, reason = witness_report.violations[0]
        raise InvariantViolation(
            f"cut-witness violation at deleted edge {e}: {reason} "
            f"(p={p}, seed={run_seed}, trial={trial})")

    # a cluster's heaviest vertex sees its whole cluster, at the cluster's
    # relative weights, so its mass and class are the cluster report's
    by_size = sorted(report.clusters, key=lambda c: (-len(c.vertices), c.vertices[0]))
    baseclusters = by_size[:VISIBILITY_BASEPOINTS]
    rank = ranked.rank
    basepoints = [max(c.vertices, key=lambda v: (rank[v], -v)) for c in baseclusters]

    return {
        "p": p,
        "trial": trial,
        "seed": run_seed,
        "host_edges": len(g.edges),
        "clusters": {
            "count": report.counts["count"],
            "heavy": report.counts["heavy"],
            "light": report.counts["light"],
            "largest_fraction": (report.counts["largest"] / len(g.vertices)
                                 if g.vertices else 0.0),
            "max_nonvanishing_sides": max(
                (c.nonvanishing_side_count_max for c in report.clusters), default=0),
            "clusters_with_3plus_sides": sum(
                1 for c in report.clusters if c.nonvanishing_side_count_max >= 3),
        },
        "forest": {
            "kept": len(forest.kept),
            "deleted": len(forest.deleted),
            "trees": trees,
            "trees_with_3plus_nonvanishing_dirs": trees_3plus,
            "witness_violations": 0,
        },
        "visibility": {
            "basepoints": basepoints,
            "masses": [_fraction_str(c.mass) for c in baseclusters],
            "heavy": sum(1 for c in baseclusters if c.cls == "heavy"),
        },
        "open": len(opened),
        "label_collisions": len(labels.collisions),
    }


def _tree_side_counts(rooted, qualifying: frozenset[int]) -> dict[int, int]:
    """`qualifying_side_counts` on the forest that `forest._root_forest`
    rooted.  In a tree every child subtree is one side of its parent, and
    the rest of the tree is one more: each vertex's qualifying count below
    it is summed up the BFS order, and the rest is the tree's total less it.
    """
    parent, _, root = rooted
    below = dict.fromkeys(parent, 0)
    for v in qualifying:
        below[v] = 1
    sides = dict.fromkeys(parent, 0)
    for v in reversed(parent):
        p = parent[v]
        if p is not None:
            below[p] += below[v]
            sides[p] += below[v] > 0
    return {v: sides[v] + (below[root[v]] > below[v]) for v in parent}


def records_to_jsonl(records: list[dict]) -> str:
    return "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
                   for r in records)


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
