"""Command-line entry point: generate families, compute forests, run the
collapse pipeline, analyze ends proxies, and drive percolation sweeps.

Every command writes its outputs atomically and drops a manifest next to
the primary output recording the exact argv, input hashes, and output
hashes; `wforest rerun manifest.json` re-executes the recorded command and
verifies byte-identical outputs.  All randomness flows from --seed flags.
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .errors import (
    BadParams,
    InputDrift,
    InvariantViolation,
    MalformedDocument,
    UsageError,
    WForestError,
)
from .graph import Edge, Graph, compact_json, edge, from_doc, id_pair, parse_json, to_json

# Each command imports the layers it runs, so `gen` alone compiles the
# generators, `gen` and `forest` neither ends nor percolation, `analyze`
# not forest, and `percolate` not ends.


def _sha256(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha256(fh.read())


def _atomic_write(path: str, data: str) -> None:
    """Write via a fresh temp file beside `path`, named by this process's id
    and the first free count, which `O_EXCL` takes atomically, so concurrent
    writers of one path never share a temp name; it gets `open`'s mode (0666
    less the umask) and goes on failure."""
    n = 0
    while True:
        tmp = f"{path}.{os.getpid()}.{n}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            n += 1
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_with_manifest(command: str, argv: list[str], inputs: list[str],
                         outputs: list[tuple[str, str]], seed) -> None:
    """Write each (path, data) output and a manifest beside the first.

    The inputs are hashed before anything is written, and nothing is
    written when two outputs, an output and an input, or an output and the
    manifest name the same file, which would lose data."""
    input_hashes = {p: _file_sha256(p) for p in inputs}
    manifest_path = outputs[0][0] + ".manifest.json"
    targets = [p for p, _ in outputs] + [manifest_path]
    claimed = {os.path.realpath(p): "input" for p in inputs}
    for path in targets:
        real = os.path.realpath(path)
        if real in claimed:
            raise BadParams(f"output {path} is the same file as an {claimed[real]}")
        claimed[real] = "output"
    for path, data in outputs:
        _atomic_write(path, data)
    manifest = {
        "tool": "wforest",
        "version": __version__,
        "command": command,
        "argv": argv,
        "inputs": input_hashes,
        "outputs": {p: _sha256(d.encode()) for p, d in outputs},
        "seed": seed,
        "timestamp": _utc_iso(time.time()),
    }
    _atomic_write(manifest_path, json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _utc_iso(t: float) -> str:
    """The text `datetime.fromtimestamp(t, timezone.utc).isoformat()` gives,
    rounded to the microsecond as it rounds, without importing `datetime`."""
    frac, whole = math.modf(t)
    us = round(frac * 1e6)
    if us >= 1000000:
        whole, us = whole + 1, us - 1000000
    elif us < 0:
        whole, us = whole - 1, us + 1000000
    tm = time.gmtime(whole)
    text = (f"{tm.tm_year:04d}-{tm.tm_mon:02d}-{tm.tm_mday:02d}"
            f"T{tm.tm_hour:02d}:{tm.tm_min:02d}:{tm.tm_sec:02d}")
    return text + (f".{us:06d}" if us else "") + "+00:00"


def _read_json(path: str):
    """The document in a JSON input file: graph, weights, fixed edges or
    manifest."""
    with open(path) as fh:
        return parse_json(fh.read(), path)


def load_graph(path: str) -> Graph:
    return from_doc(_read_json(path))


# The largest decimal exponent a rational may be written with, Python's
# default limit on the digits of an int: `Fraction("1e-10000000")` alone
# spends seconds building its power of ten.
MAX_EXPONENT = 4300


def _huge_exponent(text: str) -> bool:
    """Whether text, as `Fraction` would read it, carries a decimal exponent
    of magnitude past MAX_EXPONENT; checked before anything is parsed."""
    _, e, exponent = text.lower().partition("e")
    try:
        return bool(e) and abs(int(exponent)) > MAX_EXPONENT
    except ValueError:  # no exponent `Fraction` accepts either
        return False


def _exact(value):
    """An exact rational from a number or a string such as "3/2"; a
    `ValueError` naming value when it is none, or carries a decimal
    exponent past MAX_EXPONENT."""
    from fractions import Fraction

    if type(value) is str and _huge_exponent(value):
        raise ValueError(f"{value!r} has a decimal exponent past {MAX_EXPONENT}")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError):
        raise ValueError(f"{value!r} is not a finite rational") from None


def _fraction(value, what: str):
    """An exact rational from a JSON number or a string such as "3/2"."""
    if type(value) not in (int, float, str):
        raise MalformedDocument(f"{what} {value!r} is not a number or fraction string")
    try:
        return _exact(value)
    except ValueError as exc:
        raise MalformedDocument(f"{what} {exc}") from None


def load_weights(path: str, g: Graph) -> dict:
    """Weight JSON: explicit potential, level-derived, or unit; a dict of
    vertex to Fraction."""
    from .weights import level_potential, unit_potential

    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise MalformedDocument(f"weight file {path} is not a JSON object")
    for flag in ("unit", "levels_from_meta"):
        if type(doc.get(flag, False)) is not bool:
            raise MalformedDocument(f"weight file {path}: {flag!r} is not true/false")
    if doc.get("unit"):
        return unit_potential(g)
    if doc.get("levels_from_meta"):
        return level_potential(g, _fraction(doc.get("base_ratio", "1/2"), "base_ratio"))
    if "potential" in doc:
        if not isinstance(doc["potential"], dict):
            raise MalformedDocument(f"weight file {path}: 'potential' is not a JSON object")
        return {_vertex_key(k, path, g): _fraction(v, f"potential of vertex {k}")
                for k, v in doc["potential"].items()}
    raise BadParams(f"weight file {path} has no potential/levels_from_meta/unit key")


def _vertex_key(key: str, path: str, g: Graph) -> int:
    """A vertex of g written as a JSON object key: the canonical decimal form
    of an integer, as `str` writes it (so "01", " 1" and "+1" are refused,
    and no two keys name one vertex).  A key that names no vertex of g is
    refused too, so a weight file for another graph cannot pass."""
    try:
        v = int(key)
    except ValueError:
        v = None
    if v is None or str(v) != key:
        raise MalformedDocument(
            f"weight file {path}: potential key {key!r} is not a decimal vertex id")
    if v not in g:
        raise MalformedDocument(
            f"weight file {path}: potential key {key!r} names no vertex of the graph")
    return v


def load_fixed(path: str) -> list[Edge]:
    """Fixed-edge JSON: a list of [u, v] pairs, or an object with one under
    "edges"; each pair in either orientation, as in a graph document."""
    doc = _read_json(path)
    edges = doc.get("edges") if isinstance(doc, dict) else doc
    if not isinstance(edges, list):
        raise MalformedDocument(f"fixed-edge file {path} holds no list of edges")
    return [edge(*id_pair(e, "fixed edge")) for e in edges]


def _tiebreak(g: Graph, choice: str):
    if choice == "canonical":
        return None
    tb = g.meta.get("tiebreak")  # choice is "meta": argparse allows no other
    if not tb:
        raise BadParams("graph meta carries no tiebreak order")
    return tb  # `from_doc` made each edge canonical


def _forest_json(g: Graph, result, witness_report=None) -> str:
    """The forest document of a result on g: each of its kept, deleted and
    fixed edge sets listed in g's canonical edge order."""
    doc = {name: [list(e) for e in g.ordered_edges if e in edges]
           for name, edges in result._asdict().items()}
    if witness_report is not None:
        doc["cut_witnesses"] = {
            "ok": witness_report.ok,
            "violations": [[list(e), why] for e, why in witness_report.violations],
            "witnesses": [[list(e), list(w)]
                          for e, w in sorted(witness_report.witnesses.items())],
        }
    return compact_json(doc)


def _family_parts(family, quot, params) -> tuple[dict, dict]:
    """What `collapse`'s family document and `analyze`'s report share: the
    family's blocks and phases, and apart from them the quotient's sizes and
    the proxy parameters."""
    fam = {"blocks": [list(b) for b in family.blocks], "phases": list(family.phases)}
    rest = {
        "quotient": {"vertices": len(quot.qgraph.vertices),
                     "edges": len(quot.qgraph.ordered_edges)},
        "proxy_params": {"nonvanish_delta": str(params.nonvanish_delta),
                         "heavy_tau": str(params.heavy_tau)},
    }
    return fam, rest


def cmd_gen(args, argv) -> int:
    from .generators import SIZE_FIELDS, build_family

    spec = {"family": args.family}
    for key in SIZE_FIELDS:
        val = getattr(args, key)
        if val is not None:
            spec[key] = val
    if args.factors is not None:
        spec["factors"] = parse_json(args.factors, "--factors")
    g = build_family(spec)
    _write_with_manifest("gen", argv, [], [(args.output, to_json(g))],
                         getattr(args, "seed", None))
    return 0


def cmd_forest(args, argv) -> int:
    from .forest import check_cut_witnesses, maximal_subforest
    from .weights import EdgeOrder

    g = load_graph(args.graph)
    potential = load_weights(args.weights, g)
    order = EdgeOrder(g, potential, _tiebreak(g, args.tiebreak))
    fixed = ()
    inputs = [args.graph, args.weights]
    if args.fixed:
        fixed = load_fixed(args.fixed)
        inputs.append(args.fixed)
    result = maximal_subforest(g, order, fixed)
    report = check_cut_witnesses(g, result, order) if args.check_witnesses else None
    _write_with_manifest("forest", argv, inputs,
                         [(args.output, _forest_json(g, result, report))], None)
    return 0


def _rational(text: str):
    """argparse type of --delta and --tau: an exact rational such as "3/2"."""
    try:
        return _exact(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def cmd_collapse(args, argv) -> int:
    from .ends import ProxyParams, collapsed_maximal_subforest

    g = load_graph(args.graph)
    potential = load_weights(args.weights, g)
    params = ProxyParams(nonvanish_delta=args.delta)
    res = collapsed_maximal_subforest(g, potential, _tiebreak(g, args.tiebreak),
                                      params, s_max=args.smax)
    fam, rest = _family_parts(res.family, res.quot, params)
    _write_with_manifest("collapse", argv, [args.graph, args.weights], [
        (args.output, _forest_json(g, res.forest)),
        (args.family_out, compact_json({**fam, **rest})),
    ], None)
    return 0


def cmd_analyze(args, argv) -> int:
    from .ends import ProxyParams, _component_rows, _family, _quotient, _visibility_masses
    from .weights import _host

    g = load_graph(args.graph)
    host = _host(g, load_weights(args.weights, g))  # read by every stage below
    params = ProxyParams(nonvanish_delta=args.delta)
    if args.max_basepoints < 1:
        raise BadParams(f"--max-basepoints must be >= 1, got {args.max_basepoints}")
    comps = _component_rows(host, params)
    family = _family(host, params, args.smax)
    quot = _quotient(host, family.blocks)
    verts = list(g.vertices)
    if len(verts) > args.max_basepoints:
        stride = len(verts) / args.max_basepoints
        verts = [verts[int(i * stride)] for i in range(args.max_basepoints)]
    mass_of = _visibility_masses(host)
    masses = sorted(float(mass_of[x]) for x in verts)
    quantiles = {}
    for q in (0.0, 0.25, 0.5, 0.75, 1.0):
        idx = min(len(masses) - 1, int(q * (len(masses) - 1) + 0.5))
        quantiles[str(q)] = masses[idx] if masses else 0.0
    fam, rest = _family_parts(family, quot, params)
    report = {
        "components": comps,
        "family": fam,
        "visibility": {"basepoints": len(verts), "mass_quantiles": quantiles},
        **rest,
    }
    _write_with_manifest("analyze", argv, [args.graph, args.weights], [
        (args.output, compact_json(report)),
    ], None)
    return 0


def cmd_percolate(args, argv) -> int:
    from .percolation import records_to_jsonl, summary_csv, sweep
    from .weights import ProxyParams

    g = load_graph(args.graph)
    potential = load_weights(args.weights, g)
    params = ProxyParams(nonvanish_delta=args.delta, heavy_tau=args.tau)
    p_grid = [float(p) for p in args.p_grid.split(",") if p != ""]
    if not p_grid:
        raise BadParams("--p-grid names no probability")
    records = sweep(g, potential, p_grid, args.trials, args.seed, params)
    outputs = [(args.output, records_to_jsonl(records))]
    if args.summary:
        outputs.append((args.summary, summary_csv(records)))
    _write_with_manifest("percolate", argv, [args.graph, args.weights],
                         outputs, args.seed)
    return 0


def _load_manifest(path: str) -> dict:
    """A manifest as `_write_with_manifest` writes it; its argv must name a
    command that writes one, so a manifest can never rerun `rerun`."""
    manifest = _read_json(path)
    argv = manifest.get("argv") if isinstance(manifest, dict) else None
    if not (isinstance(argv, list) and all(isinstance(a, str) for a in argv)
            and argv[:1] in (["gen"], ["forest"], ["collapse"], ["analyze"], ["percolate"])
            and isinstance(manifest.get("inputs"), dict)
            and isinstance(manifest.get("outputs"), dict)):
        raise MalformedDocument(f"{path} is not a wforest manifest")
    return manifest


def cmd_rerun(args, argv) -> int:
    manifest = _load_manifest(args.manifest)
    drifted = [p for p, digest in manifest["inputs"].items() if _file_sha256(p) != digest]
    if drifted:
        raise InputDrift(f"inputs changed since the manifest was written: {drifted}")
    rc = main(manifest["argv"])
    if rc != 0:
        return rc
    mismatched = [p for p, digest in manifest["outputs"].items() if _file_sha256(p) != digest]
    if mismatched:
        raise InvariantViolation(
            f"rerun outputs differ from the manifest: {mismatched}")
    print(f"rerun ok: {len(manifest['outputs'])} outputs byte-identical")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as `UsageError`, so `main` reports it like any
    other bad input; the subcommand parsers inherit the class."""

    def error(self, message):
        raise UsageError(message)


def _gen_arguments(g) -> None:
    from .generators import SIZE_FIELDS

    g.add_argument("--family", required=True)
    for key in SIZE_FIELDS:
        g.add_argument("--" + key.replace("_", "-"), type=int, dest=key)
    g.add_argument("--factors", help="JSON list of factor FamilySpecs")
    g.add_argument("-o", "--output", required=True)


def _forest_arguments(f) -> None:
    f.add_argument("graph")
    f.add_argument("weights")
    f.add_argument("--fixed")
    f.add_argument("--check-witnesses", action="store_true", dest="check_witnesses")
    f.add_argument("--tiebreak", default="canonical", choices=["canonical", "meta"])
    f.add_argument("-o", "--output", required=True)


def _collapse_arguments(c) -> None:
    c.add_argument("graph")
    c.add_argument("weights")
    c.add_argument("--delta", default="1", type=_rational)
    c.add_argument("--smax", type=int, default=3)
    c.add_argument("--tiebreak", default="canonical", choices=["canonical", "meta"])
    c.add_argument("-o", "--output", required=True)
    c.add_argument("--family-out", required=True, dest="family_out")


def _analyze_arguments(a) -> None:
    a.add_argument("graph")
    a.add_argument("weights")
    a.add_argument("--delta", default="1", type=_rational)
    a.add_argument("--smax", type=int, default=3)
    a.add_argument("--max-basepoints", type=int, default=512, dest="max_basepoints")
    a.add_argument("-o", "--output", required=True)


def _percolate_arguments(p) -> None:
    p.add_argument("graph")
    p.add_argument("weights")
    p.add_argument("--p-grid", required=True, dest="p_grid")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", default="1", type=_rational)
    p.add_argument("--tau", default="4", type=_rational)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--summary")


def _rerun_arguments(r) -> None:
    r.add_argument("manifest")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `wforest` parser, with every subcommand and its help line.

    Only the subcommand that `command` names gets its arguments, as it is
    the only one an argv starting with that name can reach; any other
    `command` (None, an option, an unknown name) gives every subcommand its
    arguments.  Either way an argv parses, and every help and usage message
    reads, as under the full parser."""
    commands = (
        ("gen", "generate a graph family", _gen_arguments, cmd_gen),
        ("forest", "weighted maximal subforest", _forest_arguments, cmd_forest),
        ("collapse", "furcation collapse pipeline", _collapse_arguments, cmd_collapse),
        ("analyze", "furcation/visibility report", _analyze_arguments, cmd_analyze),
        ("percolate", "Bernoulli sweep", _percolate_arguments, cmd_percolate),
        ("rerun", "re-execute a manifest and verify outputs", _rerun_arguments, cmd_rerun),
    )
    every = command not in [name for name, *_ in commands]
    ap = _Parser(prog="wforest")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_line, add_arguments, func in commands:
        p = sub.add_parser(name, help=help_line)
        if every or name == command:
            add_arguments(p)
        p.set_defaults(func=func)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    ap = build_parser(argv[0] if argv else None)
    try:
        args = ap.parse_args(argv)
        return args.func(args, list(argv))
    except InvariantViolation as exc:
        _err("invariant_violation", exc)
        return 3
    except WForestError as exc:
        _err(type(exc).__name__, exc)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        _err(type(exc).__name__, exc)
        return 2


def _err(code: str, exc: Exception) -> None:
    sys.stderr.write(json.dumps({"error": code, "message": str(exc)}) + "\n")


if __name__ == "__main__":
    sys.exit(main())
