"""Benchmark entry point for gradedframes.

    python3 gfbench/run.py --workload {scenarios,levels,expansion} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from `src/` in the
same process (one closed loop, one client).  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the line before it carries run metadata and the failure
breakdown by check.  With `--trace 0` the metrics are the end-to-end ones;
with `--trace 1` they are the per-layer ones from a traced run, and the
span table is written to `.gfbench/trace-<workload>.json`.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else (os.cpu_count() or 1)
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("scenarios", "levels", "expansion"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gradedframes" / "__init__.py").is_file():
        print("error: %s/gradedframes not found; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    # cap BLAS threads before numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import measure
    return measure.run(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
