"""Run every gfbench workload at the given seeds and tier-1 once; write
BENCH_<label>.json.

    python3 tools/bench_pr.py --label 7 --seeds 11 12 13 --seconds 32

Run from anywhere; paths resolve from the repository root.  Each workload
runs once per seed as `python3 gfbench/run.py ... --trace 0`, a separate
program whose last output line is read; nothing under gfbench/ is imported.
The file holds per-workload medians of each end-to-end metric over the
seeds, attempted/failed/correct per seed, the src/ line count and the tier-1
wall time; the label names the measured change.  git_head is the commit
checked out at the start and dirty says whether tracked files differed from
it, so that the numbers are not that commit's.  Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scenarios", "levels", "expansion")


def git(*args):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip()


def gfbench(workload, seed, seconds):
    cmd = [sys.executable, "gfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def tier1():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
    start = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
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
                                        "metrics")} for r in runs]}
    src = sum(len(p.read_text().splitlines())
              for p in sorted((ROOT / "src").rglob("*.py")))
    report = {"label": args.label, "git_head": sha, "dirty": dirty, "seeds": args.seeds,
              "seconds": args.seconds, "python": sys.version.split()[0],
              "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count(), "src_lines": src, "tier1": tier1(),
              "workloads": workloads}
    path = ROOT / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
