"""Deterministic constructors for the concrete graph families.

Every generator emits a Graph whose meta carries per-vertex levels (where
weights are level-derived), truncation-boundary flags, a designated root,
and the generator name and parameters.  Identical parameters produce
byte-identical JSON.
"""

from .errors import BadParams, MalformedDocument
from .graph import Edge, Graph, build_graph, edge
from .rng import check_seed, u64


def gp_graph(k: int, up_levels: int, down_levels: int) -> Graph:
    """Truncation of the grandparent family GP(k).

    Start from the top ancestor at level -up_levels and grow the complete
    k-ary descendant tree down to level down_levels; connect every vertex to
    its parent and its grandparent.  The canonical root is the level-0 vertex
    reached by first-child steps from the top.  Levels increase away from
    the distinguished direction, so the weight k**(-level) makes each
    parent->child ratio exactly 1/k.

    Boundary flags mark the four level bands whose neighborhoods the
    truncation cut short: the top two (missing parent or grandparent) and
    the bottom two (missing children or grandchildren).
    """
    if k < 2 or up_levels < 1 or down_levels < 1:
        raise BadParams("gp_graph requires k >= 2 and levels >= 1")
    levels: dict[int, int] = {}
    parent: dict[int, int] = {}
    edges: list[Edge] = []
    next_id = 0

    def grow(level: int, par: int | None) -> int:
        nonlocal next_id
        v = next_id
        next_id += 1
        levels[v] = level
        if par is not None:
            parent[v] = par
            edges.append(edge(v, par))
            if par in parent:
                edges.append(edge(v, parent[par]))
        if level < down_levels:
            for _ in range(k):
                grow(level + 1, v)
        return v

    grow(-up_levels, None)
    top_band = {-up_levels, -up_levels + 1}
    bottom_band = {down_levels, down_levels - 1}
    boundary = frozenset(v for v, l in levels.items() if l in top_band | bottom_band)
    meta = {
        "generator": "gp",
        "params": {"k": k, "up": up_levels, "down": down_levels},
        "root": up_levels,  # the first-child chain from the top has ids 0..up
        "levels": levels,
        "boundary": boundary,
    }
    return build_graph(range(next_id), edges, meta=meta)


def lattice_box(w: int, h: int) -> Graph:
    """w-by-h box of the square lattice; perimeter flagged as boundary."""
    if w < 1 or h < 1:
        raise BadParams("lattice_box requires w, h >= 1")
    vid = lambda c, r: r * w + c
    edges = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                edges.append(edge(vid(c, r), vid(c + 1, r)))
            if r + 1 < h:
                edges.append(edge(vid(c, r), vid(c, r + 1)))
    boundary = frozenset(
        vid(c, r) for r in range(h) for c in range(w)
        if c in (0, w - 1) or r in (0, h - 1)
    )
    meta = {
        "generator": "lattice_box",
        "params": {"w": w, "h": h},
        "root": 0,
        "boundary": boundary,
    }
    return build_graph(range(w * h), edges, meta=meta)


def regular_tree(d: int, radius: int) -> Graph:
    """d-regular tree truncated at the given radius; leaves flagged."""
    if d < 2 or radius < 1:
        raise BadParams("regular_tree requires d >= 2 and radius >= 1")
    edges = []
    depth = {0: 0}
    next_id = 1
    frontier = [0]
    for dist in range(1, radius + 1):
        new_frontier = []
        for v in frontier:
            n_children = d if depth[v] == 0 else d - 1
            for _ in range(n_children):
                c = next_id
                next_id += 1
                depth[c] = dist
                edges.append(edge(v, c))
                new_frontier.append(c)
        frontier = new_frontier
    boundary = frozenset(v for v, dist in depth.items() if dist == radius)
    meta = {
        "generator": "regular_tree",
        "params": {"d": d, "radius": radius},
        "root": 0,
        "boundary": boundary,
    }
    return build_graph(range(next_id), edges, meta=meta)


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParams("cycle requires n >= 3")
    edges = [edge(i, (i + 1) % n) for i in range(n)]
    meta = {"generator": "cycle", "params": {"n": n}, "root": 0}
    return build_graph(range(n), edges, meta=meta)


def random_gnm(n: int, m: int, seed: int) -> Graph:
    """Uniform random simple graph with n vertices and m edges, fixed seed."""
    check_seed(seed)
    if n < 1 or m < 0:
        raise BadParams("random_gnm requires n >= 1 and m >= 0")
    total = _gnm_pairs(n)
    if m > total:
        raise BadParams(f"m={m} exceeds the {total} possible edges")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    # keyed Fisher-Yates: deterministic and platform-independent
    for i in range(len(pairs) - 1, 0, -1):
        j = u64(seed, "gnm", i) % (i + 1)
        pairs[i], pairs[j] = pairs[j], pairs[i]
    meta = {"generator": "random_gnm", "params": {"n": n, "m": m, "seed": seed},
            "root": 0}
    return build_graph(range(n), pairs[:m], meta=meta)


def free_product(factors: list[dict], max_word: int) -> Graph:
    """Tree-of-copies truncation of the free product of rooted factors.

    A copy of the first factor sits at depth 0; at every vertex created in a
    depth-d copy, one copy of each *other* factor is glued by identifying
    its root with that vertex, while d+1 <= max_word.  Levels compose
    additively along the copy tree, so a level-derived weight restricts to
    every GP-type copy correctly and is constant across lattice copies.

    Boundary flags: a factor's own truncation flags carry over (except at
    the identification vertex, whose flag belongs to its creating copy), and
    every non-root vertex of a depth-max_word copy is flagged because its
    glued copies are missing.
    """
    if len(factors) < 2:
        raise BadParams("free_product requires at least 2 factors")
    if max_word < 1:
        raise BadParams("free_product requires max_word >= 1")
    built = [build_family(dict(spec)) for spec in factors]
    roots = []
    for fg in built:
        if "root" not in fg.meta:
            raise BadParams("free_product factors must designate a root")
        roots.append(fg.meta["root"])

    levels: dict[int, int] = {}
    boundary: set[int] = set()
    edges_with_factor: list[tuple[int, int, int]] = []
    next_id = 0
    any_levels = any(fg.meta.get("levels") for fg in built)

    def place(fidx: int, attach: int | None, depth: int) -> list[int]:
        """Glue one copy; return global ids of vertices created here."""
        nonlocal next_id
        fg = built[fidx]
        flev = fg.meta.get("levels", {})
        root = roots[fidx]
        base_level = levels.get(attach, 0) if attach is not None else 0
        mapping: dict[int, int] = {}
        created = []
        for v in fg.vertices:
            if attach is not None and v == root:
                mapping[v] = attach
                continue
            gid = next_id
            next_id += 1
            mapping[v] = gid
            created.append(gid)
            levels[gid] = base_level + flev.get(v, 0) - flev.get(root, 0)
            if fg.is_boundary(v) or depth == max_word:
                boundary.add(gid)
        for u, v in fg.ordered_edges:
            gu, gv = mapping[u], mapping[v]
            a, b = (gu, gv) if gu < gv else (gv, gu)
            edges_with_factor.append((a, b, fidx))
        return created

    queue: list[tuple[int, int | None, int]] = [(0, None, 0)]
    qi = 0
    while qi < len(queue):
        fidx, attach, depth = queue[qi]
        qi += 1
        created = place(fidx, attach, depth)
        if depth + 1 <= max_word:
            for gid in created:
                for j in range(len(built)):
                    if j != fidx:
                        queue.append((j, gid, depth + 1))

    meta = {
        "generator": "free_product",
        "params": {"factors": [dict(s) for s in factors], "max_word": max_word},
        "root": roots[0],
        "boundary": frozenset(boundary),
        "edge_factors": sorted(edges_with_factor),
    }
    if any_levels:
        meta["levels"] = levels
    return build_graph(range(next_id), [(u, v) for u, v, _ in edges_with_factor],
                       meta=meta)


def windmill(blades: int, radius: int) -> Graph:
    """Chain of hub vertices, each the corner of a square-lattice quadrant
    blade truncated at the given radius, with the dotted/solid edge order.

    The hub line stands in for the infinite spine of the family, so the two
    chain-end hubs are flagged as truncation boundary along with each
    blade's far rim; with the constant weight this makes every interior hub
    a three-sided furcation proxy (left chain, right chain, own blade).

    The emitted tiebreak order lives in ``meta["tiebreak"]`` (edges listed
    least to greatest): chain edges first and increasing along the chain,
    then each blade row of horizontal "dotted" edges strictly increasing,
    then all vertical "solid" edges.  Cutting the order-least edge of every
    cycle then keeps exactly the verticals, each blade's far rim row, and
    the chain, leaving three forest directions at every interior hub.
    """
    if blades < 3 or radius < 2:
        raise BadParams("windmill requires blades >= 3 and radius >= 2")
    R = radius
    blade_cells = (R + 1) * (R + 1) - 1  # corner is the hub itself

    def vid(i: int, a: int, b: int) -> int:
        if a == 0 and b == 0:
            return i
        rank = (R + 1) * a + b - 1  # lexicographic over (a, b), skipping (0,0)
        return blades + i * blade_cells + rank

    chain = [edge(i, i + 1) for i in range(blades - 1)]
    # dotted horizontals in row order (i, b, a): each row increases along a
    dotted = [
        edge(vid(i, a, b), vid(i, a + 1, b))
        for i in range(blades) for b in range(R + 1) for a in range(R)
    ]
    solid = [
        edge(vid(i, a, b), vid(i, a, b + 1))
        for i in range(blades) for a in range(R + 1) for b in range(R)
    ]
    tiebreak = chain + dotted + solid
    boundary = {0, blades - 1}
    for i in range(blades):
        for a in range(R + 1):
            for b in range(R + 1):
                if (a == R or b == R) and not (a == 0 and b == 0):
                    boundary.add(vid(i, a, b))
    n_vertices = blades + blades * blade_cells
    meta = {
        "generator": "windmill",
        "params": {"blades": blades, "radius": radius},
        "root": 0,
        "boundary": frozenset(boundary),
        "tiebreak": tiebreak,
    }
    return build_graph(range(n_vertices), tiebreak, meta=meta)


# The most vertices `build_family` generates, and the deepest it nests
# free_product factors: both are checked on the spec, before anything is
# built, so an absurd spec is `BadParams`, not a memory kill or a
# RecursionError.
MAX_VERTICES = 10**7
MAX_NESTING = 32
# The most vertex pairs random_gnm shuffles.  Its keyed Fisher-Yates draws
# over all n(n-1)/2 pairs whatever m is (a shorter shuffle would change its
# output), so this bound, n <= 2000, is on n and not on m.
MAX_PAIRS = 2 * 10**6


def _gnm_pairs(n: int) -> int:
    """random_gnm's n(n-1)/2 vertex pairs (0 for n < 1), or `BadParams`
    past MAX_PAIRS."""
    pairs = max(n, 0) * (n - 1) // 2
    if pairs > MAX_PAIRS:
        raise BadParams(f"random_gnm with n={n} would shuffle {pairs} vertex pairs, "
                        f"more than the {MAX_PAIRS} allowed")
    return pairs


def _series(k: int, terms: int) -> int:
    """1 + k + ... + k**(terms - 1), or `terms` for k <= 1.  For k >= 2 the
    first 64 terms already pass MAX_VERTICES, so no more are summed."""
    return terms if k <= 1 else (k ** min(terms, 64) - 1) // (k - 1)


def _product_count(counts: list[int], max_word: int) -> int:
    """free_product's vertex count from its factors' counts, by its own
    recurrence: the first factor's copy at depth 0, then at each vertex made
    at depth d < max_word a copy of every other factor, less the root it
    shares.  Once depth 2 makes a vertex, every later depth does too, so the
    count stops as soon as that floor passes MAX_VERTICES."""
    made = counts[:1] + [0] * (len(counts) - 1)  # per factor, made at this depth
    total = sum(made)
    for depth in range(1, max_word + 1):
        spread = sum(made)
        made = [max(n - 1, 0) * (spread - m) for n, m in zip(counts, made)]
        total += sum(made)
        if not any(made):
            break
        if depth >= 2 and total + max_word - depth > MAX_VERTICES:
            return total + max_word - depth
    return total


# Each family's constructor, the FamilySpec fields it takes, in argument
# order, and its vertex count from those fields (None for free_product,
# which counts its factors).  Every field is a JSON integer but
# free_product's factor specs.
_FAMILIES = {
    "gp": (gp_graph, ("k", "up", "down"), lambda k, up, down: _series(k, up + down + 1)),
    "regular_tree": (regular_tree, ("d", "radius"), lambda d, r: 1 + d * _series(d - 1, r)),
    "lattice_box": (lattice_box, ("w", "h"), lambda w, h: w * h),
    "free_product": (free_product, ("factors", "max_word"), None),
    "windmill": (windmill, ("blades", "radius"), lambda blades, r: blades * (r + 1) ** 2),
    "cycle": (cycle, ("n",), lambda n: n),
    "random_gnm": (random_gnm, ("n", "m", "seed"), lambda n, m, seed: n),
}
FAMILIES = tuple(_FAMILIES)
# Every integer field of some family, once each.
SIZE_FIELDS = tuple(dict.fromkeys(
    key for _, fields, _ in _FAMILIES.values() for key in fields if key != "factors"))


def build_family(spec: dict) -> Graph:
    """Dispatch a FamilySpec mapping to the matching constructor, once its
    size is known to be within the bounds (`_vertex_count`).

    A missing field (but random_gnm's seed, which defaults to 0) or one the
    family does not take is `BadParams`; a field of the wrong JSON type is
    `MalformedDocument`, and no constructor sees it.
    """
    _vertex_count(spec)
    fam, args = _fields(spec)
    return _FAMILIES[fam][0](*args)


def _vertex_count(spec: dict, depth: int = 0) -> int:
    """The vertex count of the graph a FamilySpec describes, from closed
    forms, without building it: `BadParams` past MAX_VERTICES, for a
    random_gnm past MAX_PAIRS, or for free_product factors nested past
    MAX_NESTING.  A value its constructor refuses may count as anything,
    as the constructor then names it."""
    fam, args = _fields(spec)
    if fam == "free_product":
        if depth == MAX_NESTING:
            raise BadParams(f"free_product factors nest more than {MAX_NESTING} deep")
        factors, max_word = args
        n = _product_count([_vertex_count(f, depth + 1) for f in factors], max_word)
    else:
        n = max(_FAMILIES[fam][2](*args), 0)
    if n > MAX_VERTICES:
        raise BadParams(f"family {fam!r} would have at least {n} vertices, "
                        f"more than the {MAX_VERTICES} allowed")
    if fam == "random_gnm":
        _gnm_pairs(n)
    return n


def _fields(spec: dict) -> tuple[str, list]:
    """The family a FamilySpec names and its constructor's arguments, each
    field checked as `build_family` documents."""
    fam = spec.get("family")
    if fam not in FAMILIES:
        raise BadParams(f"unknown family {fam!r}; expected one of {FAMILIES}")
    fields = _FAMILIES[fam][1]
    if fam == "random_gnm":
        spec = {"seed": 0, **spec}
    for key in spec:
        if key != "family" and key not in fields:
            raise BadParams(f"family {fam!r} takes no field {key!r}; its fields are {fields}")
    args = []
    for key in fields:
        if key not in spec:
            raise BadParams(f"family {fam!r} needs the field {key!r}")
        val = spec[key]
        if key == "factors":
            if not (isinstance(val, list) and all(isinstance(f, dict) for f in val)):
                raise MalformedDocument(f"factors {val!r} is not a list of JSON objects")
        elif type(val) is not int:  # bools excluded
            raise MalformedDocument(f"{fam} field {key!r}={val!r} is not an integer")
        args.append(val)
    return fam, args
