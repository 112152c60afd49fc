"""Record the scenario report projection the `scenarios` workload checks against.

    python3 gfbench/record_reference.py

Run from the repository root at the commit whose reports are the reference.
For each scenario it runs the same CLI command the benchmark times (CSV at
the benchmark truncation), reads the report back with `load_report`, and
writes the projection to gfbench/reference/scenarios.json.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from gradedframes import reportio  # noqa: E402


def main() -> int:
    out = {}
    with tempfile.TemporaryDirectory(dir=str(ROOT)) as tmp:
        for scenario in sorted({s for s, _ in workloads.SCENARIO_RUNS}):
            path = Path(tmp) / ("%s.csv" % scenario)
            code = workloads._cli(["run", scenario, "--truncation",
                                   str(workloads.SCENARIO_TRUNCATION),
                                   "--format", "csv", "--out", str(path)])
            if code != 0:
                print("error: %s exited with %d" % (scenario, code),
                      file=sys.stderr)
                return 1
            loaded = reportio.load_report(path.read_text(encoding="ascii"), "csv")
            out[scenario] = workloads.report_projection(loaded)
    workloads.REFERENCE.parent.mkdir(exist_ok=True)
    with open(workloads.REFERENCE, "w", encoding="ascii") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % workloads.REFERENCE)
    return 0


if __name__ == "__main__":
    sys.exit(main())
