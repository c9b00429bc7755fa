"""Benchmark of the wforest command line on three fixed workloads.

    python3 perfbench/run.py --workload sweep-gp --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is taken from ``src/``.
A run builds its inputs from ``--seed``, sets up (``wforest gen`` plus a
weights file) several times, then repeats the workload's timed commands back
to back for ``--seconds``.  Every command runs as its own child process, as a
user runs it.  Afterwards it checks every output and re-executes one
manifest with ``wforest rerun``.  The last line of standard output is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from
traced child processes with ``--trace 1``.  Lines before it give the same
figures, and those that fit only some workloads, for people.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

DEFAULT_SEED = 0       # the seed whose output digests are pinned in digests.json
SETUPS = 5             # set-ups per run; setup_s is their median
RUN_DEADLINE_S = 170   # a command still running then is killed and counts as failed


@dataclass(frozen=True)
class Step:
    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    env: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class Workload:
    gen: tuple[str, ...]
    weights: dict
    steps: tuple[Step, ...]
    rerun: str            # manifest re-executed after the timed region
    seeded: tuple[str, ...]  # outputs that depend on --seed
    why: str


GRAPH = "graph.json"
WEIGHTS = "weights.json"
POOLED = (("WFOREST_WORKERS", "2"),)

WORKLOADS = {
    "sweep-gp": Workload(
        gen=("--family", "gp", "--k", "2", "--up", "3", "--down", "7"),
        weights={"levels_from_meta": True, "base_ratio": "1/2"},
        steps=(Step("percolate", ("percolate", GRAPH, WEIGHTS, "--p-grid", "0.5,0.7,0.9",
                                  "--trials", "1", "--seed", "{seed}", "-o", "records.jsonl"),
                    ("records.jsonl",)),),
        rerun="records.jsonl.manifest.json",
        seeded=("records.jsonl",),
        why="GP(2) up=3 down=7, level weights 1/2, serial sweep p=0.5,0.7,0.9 seeded by --seed: "
            "the cut-witness check dominates; the furcation family never runs",
    ),
    "forest-sweep-box": Workload(
        gen=("--family", "lattice_box", "--w", "40", "--h", "40"),
        weights={"unit": True},
        steps=(Step("forest", ("forest", GRAPH, WEIGHTS, "--check-witnesses", "-o", "forest.json"),
                    ("forest.json",)),
               Step("percolate", ("percolate", GRAPH, WEIGHTS, "--p-grid", "0.4,0.5,0.6",
                                  "--trials", "2", "--seed", "{seed}", "-o", "records.jsonl"),
                    ("records.jsonl",), POOLED)),
        rerun="records.jsonl.manifest.json",
        seeded=("records.jsonl",),
        why="40x40 box, unit weights: witnesses on one deep spanning tree, then a 6-run sweep "
            "seeded by --seed on 2 pool workers, the only pooled path; giant clusters",
    ),
    "collapse-analyze-windmill": Workload(
        gen=("--family", "windmill", "--blades", "6", "--radius", "6"),
        weights={"unit": True},
        steps=(Step("collapse", ("collapse", GRAPH, WEIGHTS, "--tiebreak", "meta",
                                 "-o", "collapse.json", "--family-out", "family.json"),
                    ("collapse.json", "family.json")),
               Step("analyze", ("analyze", GRAPH, WEIGHTS, "-o", "report.json"),
                    ("report.json",))),
        rerun="collapse.json.manifest.json",
        seeded=(),
        why="windmill(6,6), unit weights, collapse then analyze at all 294 basepoints: "
            "furcation family and visibility; no cut-witness check; ignores the seed",
    ),
}


@dataclass
class Op:
    """One child process: a CLI command, or a traced one."""
    label: str
    wall_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs wforest commands as child processes and keeps every outcome."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.ops: list[Op] = []
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(SRC)
        self.env.pop("WFOREST_WORKERS", None)

    def cli(self, label: str, args, env=(), spans: Path | None = None) -> Op:
        """Run one wforest command in the work directory and record it."""
        if spans is None:
            argv = [sys.executable, "-m", "wforest.cli", *args]
        else:
            argv = [sys.executable, str(TRACER), str(spans), label, *args]
        env_all = dict(self.env, **dict(env))
        out_path, err_path = self.workdir / "last.stdout", self.workdir / "last.stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            # A session of its own, so a kill reaches pool workers too.
            proc = subprocess.Popen(argv, cwd=self.workdir, env=env_all,
                                    stdout=out, stderr=err, start_new_session=True)
            limit = max(1.0, RUN_DEADLINE_S - (t0 - self.started))
            killer = threading.Timer(limit, _kill_group, (proc.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        op = Op(label, wall, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            op.problems.append(f"exit code {proc.returncode}")
        for line in err_path.read_text(errors="replace").splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "error" in doc:
                op.problems.append(f"error on stderr: {line[:200]}")
        self.ops.append(op)
        return op

    def stdout(self) -> str:
        return (self.workdir / "last.stdout").read_text(errors="replace")

    def past_deadline(self) -> bool:
        return time.perf_counter() - self.started > RUN_DEADLINE_S


def sha256(path: Path) -> str:
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def setup(run: Runner, wl: Workload, spans: Path | None = None) -> tuple[float, Op]:
    """`wforest gen` plus the weights file: everything before the first timed command."""
    t0 = time.perf_counter()
    op = run.cli("setup/gen", ("gen", *wl.gen, "-o", GRAPH), spans=spans)
    tmp = run.workdir / (WEIGHTS + ".tmp")
    tmp.write_text(json.dumps(wl.weights, sort_keys=True) + "\n")
    os.replace(tmp, run.workdir / WEIGHTS)
    return time.perf_counter() - t0, op


def step_args(step: Step, seed: int) -> tuple[str, ...]:
    return tuple(a.format(seed=seed) for a in step.args)


def run_job(run: Runner, wl: Workload, seed: int, rep: str, serial: bool = False,
            spans_dir: Path | None = None) -> list[Op]:
    """The workload's timed commands, back to back, one child process each."""
    ops = []
    for step in wl.steps:
        spans = None if spans_dir is None else spans_dir / f"{rep}-{step.name}.json"
        env = () if serial else step.env
        ops.append(run.cli(f"{rep}/{step.name}", step_args(step, seed), env, spans))
    return ops


def digests(run: Runner, wl: Workload) -> dict[str, str]:
    names = [GRAPH] + [o for s in wl.steps for o in s.outputs]
    return {n: sha256(run.workdir / n) for n in names if (run.workdir / n).exists()}


# ---------------------------------------------------------------- output checks

def _load_graph(path: Path) -> tuple[int, set[tuple[int, int]]]:
    doc = json.loads(path.read_text())
    return len(doc["vertices"]), {tuple(e) for e in doc["edges"]}


def _acyclic(edges) -> bool:
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def check_forest(workdir: Path, name: str, witnesses: bool) -> list[str]:
    _, edges = _load_graph(workdir / GRAPH)
    doc = json.loads((workdir / name).read_text())
    kept = [tuple(e) for e in doc["kept"]]
    deleted = [tuple(e) for e in doc["deleted"]]
    problems = []
    if len(kept) + len(deleted) != len(edges) or set(kept) | set(deleted) != edges:
        problems.append(f"{name}: kept and deleted do not partition the edge set")
    if not _acyclic(kept):
        problems.append(f"{name}: kept edges contain a cycle")
    if witnesses:
        cw = doc.get("cut_witnesses", {})
        if cw.get("ok") is not True or cw.get("violations"):
            problems.append(f"{name}: cut-witness violations reported")
        if sorted(tuple(w[0]) for w in cw.get("witnesses", [])) != sorted(deleted):
            problems.append(f"{name}: witnesses do not cover the deleted edges")
    return problems


def check_records(workdir: Path, step: Step, seed: int) -> list[str]:
    args = step_args(step, seed)
    grid = [float(p) for p in args[args.index("--p-grid") + 1].split(",")]
    trials = int(args[args.index("--trials") + 1])
    _, edges = _load_graph(workdir / GRAPH)
    records = [json.loads(line) for line in
               (workdir / "records.jsonl").read_text().splitlines()]
    problems = []
    expected = [(p, t) for p in grid for t in range(trials)]
    if [(r["p"], r["trial"]) for r in records] != expected:
        problems.append("records.jsonl: records do not follow the (p, trial) grid")
    for r in records:
        where = f"records.jsonl p={r['p']} trial={r['trial']}"
        if r["forest"]["trees"] != r["clusters"]["count"]:
            problems.append(f"{where}: forest.trees != clusters.count")
        if r["forest"]["kept"] + r["forest"]["deleted"] != r["open"]:
            problems.append(f"{where}: forest.kept + forest.deleted != open")
        if r["forest"]["witness_violations"] != 0 or r["host_edges"] != len(edges):
            problems.append(f"{where}: witness violations or wrong host size")
    return problems


def check_family(workdir: Path) -> list[str]:
    family = json.loads((workdir / "family.json").read_text())
    members = [v for b in family["blocks"] for v in b]
    if len(members) != len(set(members)) or len(family["blocks"]) != len(family["phases"]):
        return ["family.json: blocks overlap or phases do not match blocks"]
    return []


def check_report(workdir: Path) -> list[str]:
    n, _ = _load_graph(workdir / GRAPH)
    report = json.loads((workdir / "report.json").read_text())
    problems = []
    if sum(c["size"] for c in report["components"]) != n:
        problems.append("report.json: component sizes do not sum to the vertex count")
    if report["visibility"]["basepoints"] != n:
        problems.append("report.json: not every vertex was a basepoint")
    family = workdir / "family.json"
    if family.exists() and report["family"]["blocks"] != json.loads(family.read_text())["blocks"]:
        problems.append("report.json: analyze and collapse disagree on the family")
    return problems


def check_step(step: Step, workdir: Path, seed: int) -> list[str]:
    if step.name == "forest":
        return check_forest(workdir, "forest.json", witnesses=True)
    if step.name == "percolate":
        return check_records(workdir, step, seed)
    if step.name == "collapse":
        return check_forest(workdir, "collapse.json", witnesses=False) + check_family(workdir)
    if step.name == "analyze":
        return check_report(workdir)
    return [f"{step.name}: no output check"]


def check_outputs(name: str, wl: Workload, workdir: Path, seed: int,
                  got: dict[str, str]) -> dict[str, list[str]]:
    """Problems found in the outputs, keyed by the step that wrote them.

    Invariants are checked at every seed; digests are compared with the
    pinned ones for seed-independent outputs always and for the others at
    DEFAULT_SEED.  The graph from set-up counts against the first step.
    """
    problems: dict[str, list[str]] = {}
    for step in wl.steps:
        try:
            found = check_step(step, workdir, seed)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            found = [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems[step.name] = found
    pinned = json.loads(DIGESTS.read_text()).get(name, {})
    for fname, digest in pinned.items():
        if fname in wl.seeded and seed != DEFAULT_SEED:
            continue
        if got.get(fname) != digest:
            owner = next((s.name for s in wl.steps if fname in s.outputs), wl.steps[0].name)
            problems[owner].append(f"{fname}: digest {got.get(fname)} differs from "
                                   f"the pinned {digest}")
    return problems


# ---------------------------------------------------------------- metrics

def median(values) -> float:
    return statistics.median(values) if values else 0.0


def quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def metric(value, unit):
    return {"value": value, "unit": unit}


LAYER_METRICS = {
    "forest.self_s": "s", "forest.check_cut_witnesses.s": "s",
    "forest.deleted_checked": "count", "forest.kept_path.calls": "count",
    "forest.maximal_subforest.self_s": "s",
    "graph.self_s": "s", "graph.sides.calls": "count", "graph.sides.self_s": "s",
    "graph.build_graph.calls": "count", "graph.components.calls": "count",
    "ends.self_s": "s", "ends.furcation_at.calls": "count", "ends.family_blocks": "count",
    "ends.family_hit_ratio": "ratio", "ends.qualifying_side_counts.self_s": "s",
    "weights.self_s": "s", "weights.potential_from_cocycle.calls": "count",
    "weights.potential_from_cocycle.self_s": "s",
    "percolation.self_s": "s", "percolation.runs": "count",
    "percolation.run_s.p50": "s", "percolation.run_s.max": "s",
    "percolation.bernoulli_sample.self_s": "s", "percolation.fwmsf.self_s": "s",
    "percolation.cluster_report.self_s": "s",
    "cli.self_s": "s", "cli.bounded_visibility.self_s": "s", "cli.bytes_written": "bytes",
    "cli.parallel_sweep.s": "s", "generators.self_s": "s",
    "trace.gap_s": "s", "trace.overhead_ratio": "ratio",
}


def layer_self(summary: dict, layer: str) -> float:
    return sum((row[1] for n, row in summary["funcs"].items() if n.split(".")[0] == layer), 0.0)


def layer_figures(summary: dict) -> dict[str, float]:
    """Per-layer metrics of one traced job (all its commands summed)."""
    funcs, counters = summary["funcs"], summary["counters"]

    def calls(name):
        return funcs.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return funcs.get(name, [0, 0.0, 0.0])[1]

    runs = summary["durations"].get("percolation._run_once", [])
    attempts = calls("ends.furcation_at")
    blocks = counters.get("ends.family_blocks", 0)
    return {
        "forest.self_s": layer_self(summary, "forest"),
        "forest.check_cut_witnesses.s": funcs.get("forest.check_cut_witnesses", [0, 0.0, 0.0])[2],
        "forest.deleted_checked": counters.get("forest.deleted_checked", 0),
        "forest.kept_path.calls": calls("forest._kept_path"),
        "forest.maximal_subforest.self_s": self_s("forest.maximal_subforest"),
        "graph.self_s": layer_self(summary, "graph"),
        "graph.sides.calls": calls("graph.sides"),
        "graph.sides.self_s": self_s("graph.sides"),
        "graph.build_graph.calls": calls("graph.build_graph"),
        "graph.components.calls": calls("graph.components"),
        "ends.self_s": layer_self(summary, "ends"),
        "ends.furcation_at.calls": attempts,
        "ends.family_blocks": blocks,
        "ends.family_hit_ratio": blocks / attempts if attempts else 0.0,
        "ends.qualifying_side_counts.self_s": self_s("ends.qualifying_side_counts"),
        "weights.self_s": layer_self(summary, "weights"),
        "weights.potential_from_cocycle.calls": calls("weights.potential_from_cocycle"),
        "weights.potential_from_cocycle.self_s": self_s("weights.potential_from_cocycle"),
        "percolation.self_s": layer_self(summary, "percolation"),
        "percolation.runs": len(runs),
        "percolation.run_s.p50": median(runs),
        "percolation.run_s.max": max(runs, default=0.0),
        "percolation.bernoulli_sample.self_s": self_s("percolation.bernoulli_sample"),
        "percolation.fwmsf.self_s": self_s("percolation.fwmsf"),
        "percolation.cluster_report.self_s": self_s("percolation.cluster_report"),
        "cli.self_s": layer_self(summary, "cli"),
        "cli.bounded_visibility.self_s": self_s("cli._bounded_visibility"),
        "cli.bytes_written": counters.get("cli.bytes_written", 0),
    }


def load_spans(paths, ops=None) -> dict:
    """Summarize span files; a missing one fails the matching op, if given."""
    docs = []
    for i, path in enumerate(paths):
        if path.exists():
            docs.append(json.loads(path.read_text()))
        elif ops is not None:
            ops[i].problems.append("traced command wrote no spans")
    return tracer.summarize(docs)


def traced_job(ops: list[Op], spans_dir: Path, rep: str, wl: Workload) -> tuple[dict, float]:
    """The summed spans of one traced job, and its untraced gap.

    The gap is the job's wall time less its root spans: interpreter start,
    imports, installing the tracer and writing the spans.
    """
    summary = load_spans([spans_dir / f"{rep}-{s.name}.json" for s in wl.steps], ops)
    return summary, job_s(ops) - summary["root_s"]


def job_s(ops: list[Op]) -> float:
    return sum(op.wall_s for op in ops)


# ---------------------------------------------------------------- the run

def timed_loop(run: Runner, name: str, wl: Workload, seed: int, seconds: int,
               spans_dir: Path | None):
    """Repeat the job for `seconds`.  With `spans_dir`, alternate untraced and
    traced jobs, every step serial, so both kinds run the same commands."""
    trace = spans_dir is not None
    jobs, traced, reference = [], [], None
    t0 = time.perf_counter()
    while (not jobs or (trace and not traced) or time.perf_counter() - t0 < seconds) \
            and not run.past_deadline():
        rep = f"rep{len(jobs) + len(traced)}"
        use_trace = trace and len(traced) < len(jobs)
        ops = run_job(run, wl, seed, rep, serial=trace,
                      spans_dir=spans_dir if use_trace else None)
        (traced if use_trace else jobs).append((rep, ops))
        got = digests(run, wl)
        if reference is None:
            reference = got
            found = check_outputs(name, wl, run.workdir, seed, got)
            for op, step in zip(ops, wl.steps):
                op.problems += found[step.name]
        elif got != reference:
            ops[-1].problems.append("outputs differ from the first repetition")
    return jobs, traced, reference


def pooled_sweep_s(run: Runner, wl: Workload, seed: int, spans_dir: Path,
                   reference) -> float:
    """One traced pooled sweep, timed as its `cli._parallel_sweep` span.

    The workers' spans are not visible, which is why the traced jobs run the
    sweep serially."""
    step = next(s for s in wl.steps if s.env)
    path = spans_dir / "pooled.json"
    op = run.cli(f"pooled/{step.name}", step_args(step, seed), step.env, path)
    if digests(run, wl) != reference:
        op.problems.append("pooled outputs differ from the serial ones")
    summary = load_spans([path], [op])
    return sum(summary["durations"].get("cli._parallel_sweep", []))


def per_layer(run: Runner, wl: Workload, seed: int, jobs, traced, spans_dir: Path,
              reference) -> dict:
    figures, gaps = [], []
    for rep, ops in traced:
        summary, gap = traced_job(ops, spans_dir, rep, wl)
        figures.append(layer_figures(summary))
        gaps.append(gap)
    values = {key: median([f[key] for f in figures]) for key in figures[0]} if figures else {}
    setup_summary = load_spans([spans_dir / "setup.json"], run.ops[:1])
    values["generators.self_s"] = layer_self(setup_summary, "generators")
    untraced = median([job_s(ops) for _, ops in jobs])
    values["trace.gap_s"] = median(gaps)
    values["trace.overhead_ratio"] = \
        median([job_s(ops) for _, ops in traced]) / untraced if untraced else 0.0
    print(f"traced jobs {len(traced)}, untraced jobs {len(jobs)}, every step serial "
          "so that the sweep's layers are visible")
    if any(s.env for s in wl.steps):
        values["cli.parallel_sweep.s"] = pooled_sweep_s(run, wl, seed, spans_dir, reference)
        print("cli.parallel_sweep.s comes from one extra traced run with the pool; "
              "its workers' spans are not visible")
    everything = load_spans(sorted(spans_dir.glob("*.json")))
    print(f"skipped, not wrapped: {'; '.join(tracer.SKIPPED)}")
    print(f"absent functions, their metrics read 0: {', '.join(everything['absent']) or 'none'}")
    for err in everything["probe_errors"]:
        print(f"counter not read: {err}")
    return {key: metric(values.get(key, 0), unit) for key, unit in LAYER_METRICS.items()}


def measure(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    workdir = WORK / name
    shutil.rmtree(workdir, ignore_errors=True)
    spans_dir = workdir / "spans" if trace else None
    (workdir / "spans").mkdir(parents=True)
    run = Runner(workdir)
    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    print(f"why: {wl.why}")

    if trace:
        setup(run, wl, spans_dir / "setup.json")
        setup_times = []
    else:
        setup_times = [setup(run, wl)[0] for _ in range(SETUPS)]
    jobs, traced, reference = timed_loop(run, name, wl, seed, seconds, spans_dir)
    layers = per_layer(run, wl, seed, jobs, traced, spans_dir, reference) if trace else None

    # Outside the timed region: re-execute one manifest and verify its outputs.
    step = next(s for s in wl.steps if s.outputs[0] + ".manifest.json" == wl.rerun)
    rerun = run.cli("rerun", ("rerun", wl.rerun), step.env)
    if "rerun ok" not in run.stdout():
        rerun.problems.append("rerun did not report byte-identical outputs")

    walls = [job_s(ops) for _, ops in jobs]
    q1, q3 = quartiles(walls)
    print(f"untraced jobs {len(walls)}: job_s median {median(walls):.4f} s, "
          f"quartiles {q1:.4f} .. {q3:.4f} s")
    print("job_s samples " + " ".join(f"{w:.3f}" for w in walls))
    for i, step in enumerate(wl.steps):
        step_s = median([ops[i].wall_s for _, ops in jobs])
        print(f"{step.name}_s {step_s:.4f} s")
        if step.name == "percolate":
            args = step_args(step, seed)
            n_runs = len(args[args.index("--p-grid") + 1].split(",")) \
                * int(args[args.index("--trials") + 1])
            pool = "2 workers" if step.env and not trace else "serial"
            print(f"sweep_runs_per_s {n_runs / step_s if step_s else 0.0:.4f} 1/s "
                  f"({n_runs} runs, {pool})")
    metrics = layers or {
        "job_s": metric(median(walls), "s"),
        "setup_s": metric(median(setup_times), "s"),
        "peak_rss_mb": metric(median([max(op.rss_mb for op in ops) for _, ops in jobs]), "MB"),
    }

    for fname, digest in sorted((reference or {}).items()):
        print(f"digest {fname} {digest}")
    failed = [op for op in run.ops if op.problems]
    for op in failed:
        for problem in op.problems:
            print(f"FAILED {op.label}: {problem}")
    attempted = len(run.ops)
    print(f"operations attempted {attempted}, failed {len(failed)}, "
          f"failed_ratio {len(failed) / attempted:.4f}")
    for key, m in metrics.items():
        print(f"{key} {m['value']} {m['unit']}")
    return {"correct": not failed, "attempted": attempted, "failed": len(failed),
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "wforest" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no wforest sources under {SRC}; "
                         "run from the root of a wforest checkout\n")
        return 2
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
