"""Relative weight functions (cocycles), basepoint potentials, and the
strict total order on edges that drives the cycle-cutting algorithm.

All arithmetic is exact (``Fraction``): the generated families only ever
produce ratios that are powers of small integers, and the edge order must be
deterministic — float ties would corrupt the forest.  The order reads the
potential only through comparisons, so ``ranked_potential`` sorts its
distinct values once and replaces each vertex's value by its rank; every
edge key is then one exact int and no ``Fraction`` is compared per edge.
"""

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    BadParams,
    CrossComponent,
    InvalidCocycle,
    MissingVertex,
    NonPositiveWeight,
    UnknownId,
)
from .graph import Edge, Graph, _at, _bfs, _edge_at, _path, _root, edge


def exact_potential(g: Graph, potential: Mapping[int, object]) -> dict[int, Fraction]:
    """The potential on every vertex of g as exact positive Fractions."""
    out = {}
    for v in g.vertices:
        if v not in potential:
            raise MissingVertex(f"potential missing vertex {v}")
        out[v] = _positive_weight(potential[v])
    return out


def _positive_weight(value: object) -> Fraction:
    """One potential value as an exact positive Fraction; an exact
    Fraction is taken as it is."""
    val = value if type(value) is Fraction else Fraction(value)
    if val.numerator <= 0:  # a Fraction's denominator is positive
        raise NonPositiveWeight(f"weight {value!r} is not positive")
    return val


class RankedPotential(NamedTuple):
    """An exact positive potential with every vertex's rank among its
    distinct values: ``levels[rank[v]] == values[v]``."""
    values: dict[int, Fraction]
    levels: list[Fraction]   # the distinct values, increasing
    rank: dict[int, int]


def ranked_potential(g: Graph, potential: Mapping[int, object]) -> RankedPotential:
    """Validate the potential on g (`exact_potential`) and rank its values.

    Rank preserves order and ties, so comparing ranks is comparing values.
    The value objects are told apart by identity first (a generated
    potential shares one per value), and only they are grouped by
    (numerator, denominator), which names a normalised ``Fraction`` exactly
    and hashes faster than the ``Fraction`` itself.
    """
    exact = exact_potential(g, potential)
    objects = {id(x): x for x in exact.values()}
    groups: dict[tuple[int, int], Fraction] = {}
    for x in objects.values():
        groups.setdefault((x.numerator, x.denominator), x)
    levels = sorted(groups.values())
    index = {(x.numerator, x.denominator): i for i, x in enumerate(levels)}
    of_object = {i: index[x.numerator, x.denominator] for i, x in objects.items()}
    rank = {v: of_object[id(x)] for v, x in exact.items()}
    # one shared Fraction per distinct value: a sweep holds this for the
    # whole host through all of its runs
    values = {v: levels[r] for v, r in rank.items()}
    return RankedPotential(values=values, levels=levels, rank=rank)


class Cocycle(NamedTuple):
    """Positive ratio per directed edge with product 1 around every cycle.

    ``ratio(x, y)`` is the weight of x relative to y, for adjacent x, y.
    """
    ratios: dict[tuple[int, int], Fraction]

    def ratio(self, x: int, y: int):
        try:
            return self.ratios[(x, y)]
        except KeyError:
            raise MissingVertex(f"no ratio stored for directed edge ({x}, {y})") from None


def cocycle_from_potential(g: Graph, potential: Mapping[int, object]) -> Cocycle:
    """ratio(x, y) := potential(x) / potential(y) on every edge."""
    vals = exact_potential(g, potential)
    ratios: dict[tuple[int, int], Fraction] = {}
    for u, v in g.ordered_edges:
        ratios[(u, v)] = vals[u] / vals[v]
        ratios[(v, u)] = vals[v] / vals[u]
    return Cocycle(ratios=ratios)


class CocycleReport(NamedTuple):
    ok: bool
    worst_defect: float            # |log of cycle product|, 0.0 when consistent
    worst_cycle: tuple[int, ...]   # vertex sequence of the worst cycle, or ()


def validate_cocycle(g: Graph, c: Cocycle) -> CocycleReport:
    """Check the cocycle identity on every fundamental cycle of a BFS forest.

    Sufficient because every cycle is a symmetric difference of fundamental
    cycles.  Also checks ratio(x,y) * ratio(y,x) = 1 per edge.  Report-only,
    except that a ratio <= 0 is `NonPositiveWeight`.
    """
    worst = 0.0
    worst_cycle: tuple[int, ...] = ()

    def defect_of(product) -> float:
        if product == 1:
            return 0.0
        try:
            f = float(product)
        except OverflowError:
            f = 0.0
        if f:
            return abs(math.log(f))
        # past float range: the log of the exact ratio, from its two integers
        return abs(math.log(product.numerator) - math.log(product.denominator))

    for u, v in g.ordered_edges:
        for x, y in ((u, v), (v, u)):
            if c.ratio(x, y) <= 0:
                raise NonPositiveWeight(f"ratio {c.ratio(x, y)} of directed edge ({x}, {y}) "
                                        "is not positive")
        d = defect_of(c.ratio(u, v) * c.ratio(v, u))
        if d > worst:
            worst, worst_cycle = d, (u, v, u)

    # BFS forest rooted at each component's least vertex, on positions;
    # value[x] is the tree-path product from x down to its root: for a
    # non-tree edge (u,v), the fundamental-cycle product is
    # ratio(u,v) * value(v) / value(u).
    ids, eu, ev = g.vertices, g.eu, g.ev
    rooted = _root(g, range(len(eu)))
    parent, up = rooted.parent, rooted.up
    value: list[Fraction] = [Fraction(1)] * len(ids)
    for y in rooted.order:
        x = parent[y]
        if x >= 0:
            value[y] = c.ratio(ids[y], ids[x]) * value[x]
    for i, (u, v) in enumerate(g.ordered_edges):
        a, b = eu[i], ev[i]
        if up[a] == i or up[b] == i:
            continue
        prod = c.ratio(u, v) * value[b] / value[a]
        d = defect_of(prod)
        if d > worst:
            walk = [a]
            for f in _path(rooted, a, b):
                walk.append(eu[f] + ev[f] - walk[-1])
            worst, worst_cycle = d, tuple([ids[x] for x in walk])
    return CocycleReport(ok=worst == 0.0, worst_defect=worst, worst_cycle=worst_cycle)


class Potential(NamedTuple):
    """Absolute weights on one component obtained by fixing a basepoint."""
    base: int
    values: dict[int, Fraction]

    def __getitem__(self, v: int):
        try:
            return self.values[v]
        except KeyError:
            raise MissingVertex(f"vertex {v} outside the potential's component") from None


def potential_from_cocycle(g: Graph, c: Cocycle, base: int) -> Potential:
    """value(x) = product of ratios along any path from x to base; value(base)=1.

    Raises InvalidCocycle if two paths disagree.
    """
    root = _at(g, base)
    if root < 0:
        raise MissingVertex(f"basepoint {base} not in graph")
    ids, near = g.vertices, g.near
    values: dict[int, Fraction] = {base: Fraction(1)}
    # a vertex's first scan is from its BFS parent, which sets its value
    for i in _bfs(near, root):
        x = ids[i]
        for j in near[i]:
            y = ids[j]
            w = c.ratio(y, x) * values[x]
            if y not in values:
                values[y] = w
            elif values[y] != w:
                raise InvalidCocycle(
                    f"path-dependent value at vertex {y}: {values[y]} vs {w}")
    return Potential(base=base, values=values)


def _lesser_ranks(g: Graph, rank: Sequence[int]) -> list[int]:
    """Per edge position, the lesser of its ends' ranks `rank` (by vertex position)."""
    return list(map(min, map(rank.__getitem__, g.eu), map(rank.__getitem__, g.ev)))


def _edge_keys(low: Sequence[int], sequence: Sequence[int]) -> list[int | None]:
    """The int keys by edge position of the edges `sequence` lists, least first
    by tiebreak: an edge's lesser end rank `low` times len(sequence), plus its
    index there; so they order as (weight, tiebreak).  None off the sequence."""
    k = len(sequence)
    key: list[int | None] = [None] * len(low)
    for r, i in enumerate(sequence):
        key[i] = low[i] * k + r
    return key


class EdgeOrder:
    """The strict total order: by edge weight min of endpoint potentials,
    then by the tiebreak, one sequence of all of g's edges, least first
    (default: canonical), read once into the tuple ``tiebreak``.  ``keys``
    holds `_edge_keys` on the `ranked_potential` ranks, one int per edge
    position.  Comparisons within a component are invariant under rescaling
    its potential, so the order does not depend on basepoints.
    """

    def __init__(self, g: Graph, potential: Mapping[int, object],
                 tiebreak: Iterable[Edge] | None = None):
        if isinstance(tiebreak, Mapping):
            raise TypeError("tiebreak is one sequence of the graph's edges, least first")
        ranked = ranked_potential(g, potential)
        self.graph = g
        self.potential = ranked.values
        edges = g.ordered_edges
        self.tiebreak: tuple[Edge, ...] = edges if tiebreak is None else tuple(tiebreak)
        index = {e: i for i, e in enumerate(self.tiebreak)}
        at = list(map(index.get, edges))  # each edge's index in the tiebreak
        if None in at:
            raise ValueError(f"tiebreak missing edge {edges[at.index(None)]}")
        if len(self.tiebreak) != len(edges):
            # every edge is listed: so the sequence repeats one or lists a non-edge
            extra = next((e for e in index if _edge_at(g, e) < 0), None)
            raise ValueError("tiebreak repeats an edge" if extra is None
                             else f"tiebreak names {extra}, which is not an edge")
        sequence = [0] * len(at)
        for i, r in enumerate(at):
            sequence[r] = i
        low = _lesser_ranks(g, list(map(ranked.rank.__getitem__, g.vertices)))
        self.keys: list[int] = _edge_keys(low, sequence)

    def weight(self, e: Edge):
        return min(self.potential[e[0]], self.potential[e[1]])

    def key(self, e: Edge) -> int:
        i = _edge_at(self.graph, e)
        if i < 0:
            raise UnknownId(f"edge {e} not in graph")
        return self.keys[i]

    def restrict(self, sub: Graph) -> "EdgeOrder":
        """The same order on a subgraph: its tiebreak filtered to sub's edges."""
        inside = frozenset(sub.ordered_edges)
        return EdgeOrder(sub, self.potential, [e for e in self.tiebreak if e in inside])


def compare_edges(o: EdgeOrder, e1: Edge, e2: Edge) -> int:
    """-1 if e1 comes first, +1 if e2 does; never 0 for distinct edges.
    An edge outside the graph raises `UnknownId`, and edges in two
    components `CrossComponent`."""
    g = o.graph
    e1, e2 = edge(*e1), edge(*e2)
    if e1 == e2:
        raise ValueError("compare_edges requires distinct edges")
    i1, i2 = _edge_at(g, e1), _edge_at(g, e2)
    if min(i1, i2) < 0:
        # the first foreign edge the pair's set iterates, as `graph._host_edges` names it
        foreign = next(e for e in frozenset((e1, e2)) if _edge_at(g, e) < 0)
        raise UnknownId(f"edge {foreign} not in graph")
    if g.eu[i2] not in _bfs(g.near, g.eu[i1]):
        raise CrossComponent(f"{e1} and {e2} lie in different components")
    return -1 if o.keys[i1] < o.keys[i2] else 1


def unit_potential(g: Graph) -> dict[int, Fraction]:
    return dict.fromkeys(g.vertices, Fraction(1))


# The most bits |level| times the base ratio's bit length may reach in
# `level_potential`, about the size of one power: GP(2,3,12)'s levels at
# ratio 1/2 reach 24, and a level of 10**9 would spend seconds on one.
MAX_LEVEL_BITS = 100_000


def level_potential(g: Graph, base_ratio=Fraction(1, 2)) -> dict[int, Fraction]:
    """Potential base_ratio**level from per-vertex level metadata.

    With base_ratio 1/k this realizes the grandparent-family weights, where
    the ratio across a parent->child edge is 1/k.  A level whose power would
    pass MAX_LEVEL_BITS is `BadParams`.
    """
    levels = g.meta.get("levels")
    if not levels:
        raise MissingVertex("graph has no per-vertex levels in meta")
    r = Fraction(base_ratio)
    if r <= 0:
        raise NonPositiveWeight(f"base ratio {base_ratio} is not positive")
    bits = max(r.numerator.bit_length(), r.denominator.bit_length())
    powers: dict[int, Fraction] = {}  # one power per distinct level
    out = {}
    for v in g.vertices:
        if v not in levels:
            raise MissingVertex(f"no level for vertex {v}")
        level = levels[v]
        if level not in powers:
            if abs(level) * bits > MAX_LEVEL_BITS:
                raise BadParams(f"level {level} of vertex {v} needs more than "
                                f"{MAX_LEVEL_BITS} bits at base ratio {r}")
            powers[level] = r ** level
        out[v] = powers[level]
    return out


class _Thresholds(NamedTuple):
    nonvanish_delta: Fraction
    heavy_tau: Fraction


class ProxyParams(_Thresholds):
    """The thresholds of the finite proxies for ends (see `ends`), checked at
    construction (and by `_replace`) to be strictly positive.  Kept here, so
    a percolation sweep reads them without loading `ends`."""
    __slots__ = ()

    def __new__(cls, nonvanish_delta=Fraction(1), heavy_tau=Fraction(4)):
        if nonvanish_delta <= 0 or heavy_tau <= 0:
            raise BadParams("proxy thresholds must be strictly positive")
        return super().__new__(cls, nonvanish_delta, heavy_tau)

    @classmethod
    def _make(cls, fields):
        return cls(*fields)
