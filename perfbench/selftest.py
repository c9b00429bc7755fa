"""Self-test of the benchmark and its tracer.

    python3 perfbench/selftest.py

For every workload at the default seed it runs the timed commands once
untraced and once traced, in separate directories, and checks that

- tracing changes no primary output byte, and both runs match the pinned
  digests;
- the per-layer self times of the traced job sum to its wall time less the
  untraced gaps the tracer reports (interpreter start, imports, span dump);
- no span has negative self time.

Exits 1 if any check fails.
"""

import json
import shutil
import sys

import run
import tracer

LAYERS = set(tracer.LAYERS)


def check(name: str) -> list[str]:
    wl = run.WORKLOADS[name]
    seed = run.DEFAULT_SEED
    got, problems = {}, []
    for mode in ("plain", "traced"):
        workdir = run.WORK / "selftest" / name / mode
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runner = run.Runner(workdir)
        run.setup(runner, wl)
        spans_dir = workdir if mode == "traced" else None
        ops = run.run_job(runner, wl, seed, "job", serial=True, spans_dir=spans_dir)
        got[mode] = run.digests(runner, wl)
        problems += [f"{mode} {op.label}: {p}" for op in runner.ops for p in op.problems]
        found = run.check_outputs(name, wl, workdir, seed, got[mode])
        problems += [f"{mode} {step}: {p}" for step, ps in found.items() for p in ps]
        if mode == "traced":
            problems += self_time_problems(ops, workdir, wl)
    if got["plain"] != got["traced"]:
        problems.append(f"tracing changed outputs: {got['plain']} vs {got['traced']}")
    return problems


def self_time_problems(ops, spans_dir, wl) -> list[str]:
    job, gap = run.traced_job(ops, spans_dir, "job", wl)
    layer_self = {}
    for fname, (calls, self_s, incl_s) in job["funcs"].items():
        layer = fname.split(".")[0]
        if layer not in LAYERS:
            return [f"span {fname} belongs to no layer"]
        if self_s < -1e-9 * calls:
            return [f"{fname} has negative self time {self_s}"]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s
    wall = sum(op.wall_s for op in ops)
    total = sum(layer_self.values())
    print(f"  traced job_s {wall:.6f} = layer self {total:.6f} + gap {gap:.6f}  "
          + " ".join(f"{k}={v:.4f}" for k, v in sorted(layer_self.items())))
    if abs(total + gap - wall) > 1e-6:
        return [f"layer self times {total} + gap {gap} != traced job_s {wall}"]
    if not 0.0 <= gap < wall:
        return [f"gap {gap} outside [0, job_s)"]
    return []


def main() -> int:
    if not (run.SRC / "wforest" / "cli.py").is_file():
        sys.stderr.write(f"selftest: no wforest sources under {run.SRC}\n")
        return 2
    failed = 0
    for name in run.WORKLOADS:
        print(f"{name}:")
        problems = check(name)
        for p in problems:
            print(f"  FAIL {p}")
        print(f"  {'PASS' if not problems else 'FAIL'}")
        failed += bool(problems)
    print(json.dumps({"selftest": "pass" if not failed else "fail",
                      "workloads": len(run.WORKLOADS), "failed": failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
