"""Outside-in tracer for the wforest command line.

As a program it runs one wforest command with tracing on:

    python3 perfbench/tracer.py SPANS_JSON JOB_ID wforest-args...

It wraps every module-level function of the layer modules (``graph``,
``weights``, ``forest``, ``ends``, ``percolation``, ``generators``, ``cli``)
in every ``wforest`` namespace that binds it, so functions imported with
``from .forest import ...`` are traced too.  Each call becomes a span
(id, parent id, name, start, end); spans stay in memory and are written to
SPANS_JSON when the command returns.  The library itself is not changed.

Spans recorded in forked pool workers stay in the workers and are lost, so
a pooled sweep shows only as one ``cli._parallel_sweep`` span.

As a module it turns span files into per-function and per-layer figures.
"""

import functools
import inspect
import json
import sys
import time

LAYERS = ("graph", "weights", "forest", "ends", "percolation", "generators", "cli")

# Not wrapped: a span per call would cost more than the work it measures.
# Their time counts as self time of the calling function.
SKIPPED = (
    "graph.edge (per-edge canonicalisation)",
    "rng.u64 (per-draw hash; rng is not a layer)",
    "unionfind, errors (not layers)",
    "class methods (EdgeOrder.key, Graph.neighbors, UnionFind.find, ...)",
    "nested functions and lambdas",
)
SKIP = {"graph.edge"}

# Functions the per-layer metrics name.  Several are private helpers that
# later refactors may delete; a missing one is reported as absent.
EXPECTED = (
    "cli.main", "cli._atomic_write", "cli._bounded_visibility", "cli._parallel_sweep",
    "forest.maximal_subforest", "forest.check_cut_witnesses", "forest._kept_path",
    "graph.build_graph", "graph.components", "graph.sides",
    "ends.furcation_at", "ends.maximal_disjoint_furcations",
    "ends.qualifying_side_counts", "weights.potential_from_cocycle",
    "percolation._run_once", "percolation.bernoulli_sample", "percolation.fwmsf",
    "percolation.cluster_report",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Counters read from a traced call's arguments or result.
PROBES = {
    "forest.check_cut_witnesses":
        ("forest.deleted_checked", lambda a, k, r: len(_arg(a, k, 1, "result").deleted)),
    "ends.maximal_disjoint_furcations":
        ("ends.family_blocks", lambda a, k, r: len(r.blocks)),
    "cli._atomic_write":
        ("cli.bytes_written", lambda a, k, r: len(_arg(a, k, 1, "data").encode())),
}


class Tracer:
    """Spans and counters of one traced process, kept in memory."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, int] = {}
        self.probe_errors: list[str] = []
        self.wrapped: list[str] = []
        self.absent: list[str] = []
        self._stack: list[int | None] = [None]
        self._next_id = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if probe is not None:
                self._count(probe, args, kwargs, result)
            return result

        return traced

    def _count(self, probe, args, kwargs, result) -> None:
        counter, read = probe
        try:
            value = read(args, kwargs, result)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            self.probe_errors.append(f"{counter}: {type(exc).__name__}: {exc}")
            return
        self.counters[counter] = self.counters.get(counter, 0) + value

    def install(self) -> None:
        """Wrap the layer functions and rebind them in every wforest namespace."""
        import wforest.cli  # noqa: F401  (imports every layer module)

        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"wforest.{layer}")
            if module is None:
                continue
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and name not in SKIP):
                    wrappers[obj] = self.wrap(name, obj)
                    self.wrapped.append(name)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "wforest" or modname.startswith("wforest.")):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
        self.absent = [n for n in EXPECTED if n not in self.wrapped]

    def dump(self, path: str) -> None:
        doc = {
            "job": self.job,
            "spans": self.spans,
            "counters": self.counters,
            "probe_errors": self.probe_errors,
            "absent": self.absent,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def run_traced(spans_path: str, job: str, argv: list[str]) -> int:
    tracer = Tracer(job)
    tracer.install()
    import wforest.cli

    try:
        return wforest.cli.main(argv)
    finally:
        tracer.dump(spans_path)


def summarize(docs: list[dict]) -> dict:
    """Per-function calls, self and inclusive seconds, summed over span files.

    A span's self time is its duration minus the durations of its direct
    children; calls nest strictly in one thread, so children never overlap.
    ``root_s`` sums the spans without a parent.  ``absent`` lists expected
    functions the library no longer has.
    """
    funcs: dict[str, list] = {}
    durations: dict[str, list[float]] = {}
    counters: dict[str, int] = {}
    absent: set[str] = set()
    probe_errors: list[str] = []
    root_s = 0.0
    for doc in docs:
        child_s: dict[int, float] = {}
        for sid, parent, name, start, end in doc["spans"]:
            if parent is not None:
                child_s[parent] = child_s.get(parent, 0.0) + (end - start)
        for sid, parent, name, start, end in doc["spans"]:
            dur = end - start
            row = funcs.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur - child_s.get(sid, 0.0)
            row[2] += dur
            durations.setdefault(name, []).append(dur)
            if parent is None:
                root_s += dur
        for name, value in doc["counters"].items():
            counters[name] = counters.get(name, 0) + value
        absent.update(doc["absent"])
        probe_errors.extend(doc["probe_errors"])
    return {"funcs": funcs, "durations": durations, "counters": counters, "root_s": root_s,
            "absent": sorted(absent), "probe_errors": probe_errors}


if __name__ == "__main__":
    if len(sys.argv) < 4:
        sys.stderr.write("usage: tracer.py SPANS_JSON JOB_ID wforest-args...\n")
        sys.exit(2)
    sys.exit(run_traced(sys.argv[1], sys.argv[2], sys.argv[3:]))
