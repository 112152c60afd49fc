"""Run every gfbench workload at the given seeds, time cold starts and run
tier-1 once; write BENCH_<label>.json.

    python3 tools/bench_pr.py --label 8 --seeds 11 12 13 --seconds 32

Run from anywhere; paths resolve from the repository root.  Each workload
runs once per seed as `python3 gfbench/run.py ... --trace 0`, a separate
program whose last two output lines (metadata, result) are read; nothing
under gfbench/ is imported.  The file holds per-workload medians of each
end-to-end metric over the seeds, attempted/failed/correct per seed with the
run's failure map (`op:check` -> count, from the metadata line), the src/
line count in total and by module and the tier-1 wall time; the label names
the measured change.
per_layer.scenarios, per_layer.levels and per_layer.expansion each hold, as
gfbench prints it, the metrics dict of one traced run of that workload
(`--trace 1`, the first seed): span calls, busy and self time per layer and
the derived ratios.
Their times carry the tracing overhead; the end-to-end figures come from the
untraced runs alone.
git_head is the commit checked out at the start and dirty says whether
tracked files differed from it, so that the numbers are not that commit's.
Standard library only.

cold_start holds the median wall time of COLD_RUNS fresh
`python -m gradedframes.cli run <scenario> --truncation <t> --format csv`
processes per scenario and truncation (the process's whole life: interpreter
start, imports, run, report write), and the median time a fresh interpreter
takes for `import gradedframes` beside the same for `import numpy`, the one
dependency a run loads, and for DEPS_IMPORT, the reference import gfbench
scales its set-up time by.  Like gfbench's set-up timing these processes run
with PYTHONDONTWRITEBYTECODE=1, so each compiles the package afresh.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scenarios", "levels", "expansion")
TRACED = ("scenarios", "levels", "expansion")
SCENARIOS = ("exf1", "exf2", "custom", "runo")
TRUNCATIONS = (256, 1024, 4096, 16384)
COLD_RUNS = 5
DEPS_IMPORT = "import numpy, scipy.sparse, scipy.sparse.linalg"
NUMPY_IMPORT = "import numpy"


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip()


def gfbench(workload, seed, seconds, trace=0):
    """The run's result line, with the failure map of its metadata line."""
    cmd = [sys.executable, "gfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    *_, meta, result = out.stdout.strip().splitlines()
    return dict(json.loads(result),
                failures=json.loads(meta)["metadata"]["failures"])


def src_env(**extra):
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    return env


def fresh_import(statement):
    code = ("import sys, time; t = time.perf_counter(); %s; "
            "sys.stdout.write(repr(time.perf_counter() - t))" % statement)
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         env=src_env(PYTHONDONTWRITEBYTECODE="1"),
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def cold_run(scenario, truncation, out):
    cmd = [sys.executable, "-m", "gradedframes.cli", "run", scenario, "--truncation",
           str(truncation), "--format", "csv", "--out", out]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, env=src_env(PYTHONDONTWRITEBYTECODE="1"),
                          capture_output=True, text=True)
    # exit 1 is a failed verdict, but an uncaught exception exits 1 too
    if done.returncode not in (0, 1) or "Traceback" in done.stderr:
        raise RuntimeError("%s failed: %s" % (" ".join(cmd[1:]), done.stderr))
    return time.perf_counter() - start, done.returncode


def cold_start():
    """Fresh-process timings, repetitions outermost so that a slow spell of
    the host spreads over every cell."""
    cells = [(s, t) for s in SCENARIOS for t in TRUNCATIONS]
    runs = {cell: [] for cell in cells}
    imports = {"gradedframes": [], "dependencies": [], "numpy": []}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(COLD_RUNS):
            imports["dependencies"].append(fresh_import(DEPS_IMPORT))
            imports["numpy"].append(fresh_import(NUMPY_IMPORT))
            imports["gradedframes"].append(fresh_import("import gradedframes"))
            for cell in cells:
                runs[cell].append(cold_run(*cell, os.path.join(tmp, "report.csv")))
    return {"runs": COLD_RUNS, "dependencies": DEPS_IMPORT, "numpy": NUMPY_IMPORT,
            "import_s": {k: statistics.median(v) for k, v in imports.items()},
            "run_s": {s: {str(t): statistics.median(x for x, _ in runs[s, t])
                          for t in TRUNCATIONS} for s in SCENARIOS},
            "exit_codes": {s: {str(t): sorted({c for _, c in runs[s, t]})
                               for t in TRUNCATIONS} for s in SCENARIOS}}


def tier1():
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=src_env(), capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    return {"wall_s": time.perf_counter() - start, "exit_code": out.returncode,
            "summary": lines[-1] if lines else ""}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=32)
    args = parser.parse_args(argv)
    sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    workloads = {}
    for name in WORKLOADS:
        runs = [dict(seed=s, **gfbench(name, s, args.seconds)) for s in args.seeds]
        metrics = runs[0]["metrics"]
        workloads[name] = {
            "median": {m: {"value": statistics.median(r["metrics"][m]["value"]
                                                      for r in runs),
                           "unit": metrics[m]["unit"]} for m in metrics},
            "runs": [{k: r[k] for k in ("seed", "correct", "attempted", "failed",
                                        "failures", "metrics")} for r in runs]}
    src = {p.relative_to(ROOT / "src").as_posix(): len(p.read_text().splitlines())
           for p in sorted((ROOT / "src").rglob("*.py"))}
    report = {"label": args.label, "git_head": sha, "dirty": dirty, "seeds": args.seeds,
              "seconds": args.seconds, "python": sys.version.split()[0],
              "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count(), "src_lines": sum(src.values()),
              "src_lines_by_module": src, "cold_start": cold_start(),
              "tier1": tier1(), "workloads": workloads,
              "per_layer": {name: gfbench(name, args.seeds[0], args.seconds,
                                          trace=1)["metrics"]
                            for name in TRACED}}
    path = ROOT / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
