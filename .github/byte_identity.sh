#!/usr/bin/env bash
# Byte identity of wforest outputs between two source trees.
#
#   .github/byte_identity.sh BASE_TREE [HEAD_TREE]
#
# Runs the same commands once per tree, with that tree's src on PYTHONPATH
# and in a fresh directory, then compares every output file, and the stdout
# of each of that tree's demos, with cmp.
# Manifests are not compared: they record paths and input hashes, not
# results.  HEAD_TREE defaults to the current directory.  Exits nonzero on
# the first difference or failed command.
set -euo pipefail

base=$(cd "$1" && pwd)
head=$(cd "${2:-.}" && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

outputs=(gp.json box.json windmill.json tree.json cycle.json gnm.json fp.json
         gp-1.jsonl gp-1.csv gp-2.jsonl gp-2.csv gp-3.jsonl gp-3.csv
         gp-delta.jsonl gp-delta.csv gp-ends.jsonl gp-ends.csv gp-order.jsonl gp-order.csv
         box-forest.json gp-forest-fixed.json
         box-sweep.jsonl box-sweep.csv windmill-collapse.json windmill-family.json
         windmill-analyze.json gp-analyze.json
         windmill66-collapse.json windmill66-family.json windmill66-analyze.json
         gp-collapse4.json gp-family4.json gp-analyze4.json
         box-analyze.json box-collapse.json box-family.json cycle-collapse.json
         cycle-family.json fp-forest.json fp-collapse.json fp-family.json fp-analyze.json
         fp-sweep.jsonl fp-sweep.csv gnm-sweep.jsonl gnm-sweep.csv
         windmill66-sweep.jsonl windmill66-sweep.csv gp-forest.json windmill66-forest.json
         gpx.json gpx-forest.json gpx-collapse.json gpx-family.json gpx-analyze.json
         gpx-collapse4.json gpx-family4.json gpx-analyze4.json
         gpx-sweep.jsonl gpx-sweep.csv tree-sweep.jsonl tree-sweep.csv tree-analyze.json
         library.out)
demos=(01_weighted_forest_basics 02_grandparent_weights 03_windmill_collapse
       04_percolation_sweep)
for d in "${demos[@]}"; do
    outputs+=("demo-$d.out")
done

run_tree() {
    local tree=$1 dir=$2
    mkdir -p "$dir"
    (
        cd "$dir"
        wf() { PYTHONPATH="$tree/src" python3 -m wforest.cli "$@"; }
        printf '{"levels_from_meta":true,"base_ratio":"1/2"}' > levels.json
        printf '{"unit":true}' > unit.json
        wf gen --family gp --k 2 --up 3 --down 5 -o gp.json
        wf gen --family lattice_box --w 12 --h 12 -o box.json
        wf gen --family windmill --blades 4 --radius 3 -o windmill.json
        wf gen --family windmill --blades 6 --radius 6 -o windmill66.json
        wf gen --family regular_tree --d 3 --radius 4 -o tree.json
        wf gen --family cycle --n 9 -o cycle.json
        wf gen --family random_gnm --n 30 --m 60 --seed 5 -o gnm.json
        wf gen --family free_product --max-word 2 -o fp.json --factors \
            '[{"family":"gp","k":2,"up":1,"down":2},{"family":"lattice_box","w":3,"h":3}]'
        for seed in 1 2 3; do
            wf percolate gp.json levels.json --p-grid 0.5,0.7,0.9 --seed "$seed" \
                -o "gp-$seed.jsonl" --summary "gp-$seed.csv"
        done
        wf percolate gp.json levels.json --p-grid 0.5,0.7,0.9 --seed 1 --delta 1/4 \
            -o gp-delta.jsonl --summary gp-delta.csv
        # p = 0 leaves every cluster a singleton; p = 1 opens the whole graph
        wf percolate gp.json levels.json --p-grid 0,1 --seed 1 \
            -o gp-ends.jsonl --summary gp-ends.csv
        # an unsorted grid with trials: the record order and the summary's sort by p
        wf percolate gp.json levels.json --p-grid 0.9,0.5,0.7 --trials 3 --seed 2 \
            -o gp-order.jsonl --summary gp-order.csv
        wf percolate box.json unit.json --p-grid 0.5,0.7 --trials 2 --seed 4 \
            -o box-sweep.jsonl --summary box-sweep.csv
        # the sweep core on ids that are a free product's, on a random graph,
        # and at a delta that flags part of each windmill cluster
        wf percolate fp.json levels.json --p-grid 0.4,0.7,1 --seed 3 \
            -o fp-sweep.jsonl --summary fp-sweep.csv
        wf percolate gnm.json unit.json --p-grid 0.3,0.6,0.9 --trials 2 --seed 5 \
            -o gnm-sweep.jsonl --summary gnm-sweep.csv
        wf percolate windmill66.json unit.json --p-grid 0.6,0.8 --delta 1/2 --seed 6 \
            -o windmill66-sweep.jsonl --summary windmill66-sweep.csv
        # a host that is a tree: each cluster is then one kept tree, so the
        # cluster and tree side counts, on their two rootings, coincide at p = 1
        wf percolate tree.json unit.json --p-grid 0.7,1 --seed 7 \
            -o tree-sweep.jsonl --summary tree-sweep.csv
        wf analyze tree.json unit.json -o tree-analyze.json
        wf forest box.json unit.json --check-witnesses -o box-forest.json
        wf forest gp.json levels.json --check-witnesses -o gp-forest.json
        wf forest windmill66.json unit.json --tiebreak meta --check-witnesses \
            -o windmill66-forest.json
        printf '[[0,1],[1,3],[0,256]]' > fixed.json  # a path of GP edges
        wf forest gp.json levels.json --fixed fixed.json --check-witnesses \
            -o gp-forest-fixed.json
        wf forest fp.json levels.json --tiebreak canonical --check-witnesses \
            -o fp-forest.json
        wf collapse windmill.json unit.json --tiebreak meta \
            -o windmill-collapse.json --family-out windmill-family.json
        wf analyze windmill.json unit.json -o windmill-analyze.json
        wf analyze gp.json levels.json -o gp-analyze.json
        # larger furcation families: every rule of the side index; on GP with
        # level weights most candidates need the joined pieces
        wf collapse windmill66.json unit.json --tiebreak meta --smax 4 \
            -o windmill66-collapse.json --family-out windmill66-family.json
        wf analyze windmill66.json unit.json --smax 4 -o windmill66-analyze.json
        wf collapse gp.json levels.json --smax 4 \
            -o gp-collapse4.json --family-out gp-family4.json
        wf analyze gp.json levels.json --smax 4 -o gp-analyze4.json
        wf analyze box.json unit.json -o box-analyze.json
        # a 4-block family in a 144-vertex host, whose quotient edges are
        # mostly host edges; and the 9-cycle, unflagged, whose family is
        # empty and whose quotient is the host itself
        wf collapse box.json unit.json -o box-collapse.json --family-out box-family.json
        wf collapse cycle.json unit.json -o cycle-collapse.json --family-out cycle-family.json
        # a free product under level weights: a family in all three phases,
        # and lifts chosen among unequal potentials
        wf collapse fp.json levels.json -o fp-collapse.json --family-out fp-family.json
        wf analyze fp.json levels.json -o fp-analyze.json
        # GP on ids that are not positions: every id v sent to 5000 - 7v,
        # which also reverses the canonical edge order
        python3 -c '
import json
f = lambda v: 5000 - 7 * v
doc = json.load(open("gp.json"))
for rec in doc["vertices"]:
    rec["id"] = f(rec["id"])
doc["edges"] = [[f(u), f(v)] for u, v in doc["edges"]]
doc["meta"]["root"] = f(doc["meta"]["root"])
json.dump(doc, open("gpx.json", "w"))'
        wf forest gpx.json levels.json --check-witnesses -o gpx-forest.json
        wf collapse gpx.json levels.json -o gpx-collapse.json --family-out gpx-family.json
        wf analyze gpx.json levels.json -o gpx-analyze.json
        # the candidate enumeration past size 3 on ids that are not positions
        wf collapse gpx.json levels.json --smax 4 \
            -o gpx-collapse4.json --family-out gpx-family4.json
        wf analyze gpx.json levels.json --smax 4 -o gpx-analyze4.json
        wf percolate gpx.json levels.json --p-grid 0.5,0.9 --trials 2 --seed 8 \
            -o gpx-sweep.jsonl --summary gpx-sweep.csv
        # library paths no command reaches: the cocycle check on inconsistent
        # ratios, which names its worst cycle; the potential of a cocycle,
        # the edge comparison and the vertex lookups, which find a vertex
        # by its id; the edge-set checks, which name a foreign edge, and the
        # tiebreak checks; the edge order's least edges, also restricted
        # and under a meta tiebreak; and the components and set queries of
        # a graph that is not connected
        PYTHONPATH="$tree/src" python3 -c '
from fractions import Fraction
from wforest.errors import InvalidCocycle, UnknownId
from wforest.forest import is_acyclic, maximal_subforest
from wforest.graph import (components, edge_boundary, from_json, induced_subgraph,
                           inner_boundary, is_connected_set, outer_boundary, spanned_subgraph)
from wforest.weights import (Cocycle, EdgeOrder, cocycle_from_potential, compare_edges,
                             level_potential, potential_from_cocycle, validate_cocycle)
def refusal(f, *args, **kwargs):
    try:
        f(*args, **kwargs)
    except (UnknownId, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return "accepted"
with open("library.out", "w") as out:
    for name in ("gp.json", "gpx.json"):
        g = from_json(open(name).read())
        good = cocycle_from_potential(g, level_potential(g))
        ratios = dict(good.ratios)
        for u, v in g.sorted_edges()[::7]:   # every 7th canonical edge
            ratios[u, v] *= Fraction(3, 2)
            ratios[v, u] /= Fraction(3, 2)
        print(name, validate_cocycle(g, Cocycle(ratios=ratios)), file=out)
        base = g.vertices[len(g.vertices) // 2]
        pot = potential_from_cocycle(g, good, base)
        print(name, "potential from", base, *(f"{v}:{x}" for v, x in pot.values.items()),
              file=out)
        try:
            potential_from_cocycle(g, Cocycle(ratios=ratios), base)
        except InvalidCocycle as exc:
            print(name, "InvalidCocycle:", exc, file=out)
        order = EdgeOrder(g, level_potential(g))
        es = g.sorted_edges()[::11]
        print(name, "compare", [compare_edges(order, a, b) for a, b in zip(es, es[1:])],
              [compare_edges(order, b, a) for a, b in zip(es, es[3:])], file=out)
        for v in g.vertices[::37]:
            print(name, v, g.neighbors(v), g.degree(v), file=out)
        lo, hi = g.vertices[0], g.vertices[-1]
        print(name, "in", [x for x in range(lo - 3, lo + 60) if x in g],
              [x in g for x in (hi, hi + 1, lo - 1, "a", None)], file=out)
        es = g.sorted_edges()
        far, off = (lo, hi), (lo - 2, lo - 1)   # two vertices, no edge; no vertices
        u, v = es[3]
        print(name, "refusals", refusal(spanned_subgraph, g, es[:5] + [far, off]),
              refusal(spanned_subgraph, g, [es[0], (v, u)]),
              refusal(maximal_subforest, g, order, fixed=[es[0], far]),
              refusal(is_acyclic, g, es[:3] + [far]),
              refusal(compare_edges, order, es[0], far), refusal(compare_edges, order, far, off),
              refusal(EdgeOrder, g, level_potential(g), es + [far]),
              refusal(EdgeOrder, g, level_potential(g), es[1:]), sep="\n  ", file=out)
        print(name, "every 3rd edge", spanned_subgraph(g, es[::3]).ordered_edges[:20], file=out)
        # the order itself: its least edges, on g and restricted to an
        # induced subgraph, under the canonical and the reversed tiebreak
        sub = induced_subgraph(g, [v for i, v in enumerate(g.vertices) if i % 3])
        for o in (order, EdgeOrder(g, level_potential(g), es[::-1])):
            print(name, "least edges", sorted(g.ordered_edges, key=o.key)[:20],
                  sorted(sub.ordered_edges, key=o.restrict(sub).key)[:20], file=out)
    w = from_json(open("windmill.json").read())
    meta = EdgeOrder(w, {v: 1 for v in w.vertices}, w.meta["tiebreak"])
    print("windmill.json least edges, meta tiebreak",
          sorted(w.ordered_edges, key=meta.key)[:20], file=out)
    box = from_json(open("box.json").read())   # 12 by 12, ids r * 12 + c
    cut = induced_subgraph(box, [v for v in box.vertices if v % 12 != 6])
    print("box.json less column 6", components(cut), file=out)
    for cols in ((0, 1, 2, 3, 4, 5), (5, 7), (4, 5, 7, 8)):
        A = [v for v in cut.vertices if v % 12 in cols and v // 12 < 9]
        print("columns", cols, is_connected_set(cut, A), sorted(edge_boundary(cut, A)),
              sorted(inner_boundary(cut, A)), sorted(outer_boundary(cut, A)), file=out)'
        for d in "${demos[@]}"; do
            PYTHONPATH="$tree/src" python3 "$tree/demos/$d.py" > "demo-$d.out"
        done
    )
}

run_tree "$base" "$work/base"
run_tree "$head" "$work/head"
for f in "${outputs[@]}"; do
    cmp "$work/base/$f" "$work/head/$f"
    echo "identical: $f"
done
