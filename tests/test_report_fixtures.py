"""Byte-for-byte pins of the CSV and JSON reports of every scenario.

`tests/data/reports/` holds the CSV report of each scenario at truncations
256, 1024 and 4096 (default config otherwise), and `json.sha256` the digests
of the matching JSON reports.  Regenerate them only together with a
deliberate schema or numerics change:

    PYTHONPATH=src python -c "from tests.test_report_fixtures import write; write()"
"""

import hashlib
import pathlib

import pytest

from gradedframes.reportio import emit_report
from gradedframes.scenarios import ScenarioConfig, run_scenario

DATA = pathlib.Path(__file__).parent / "data" / "reports"
CASES = [(name, n) for name in ("exf1", "exf2", "custom", "runo")
         for n in (256, 1024, 4096)]


def _json_digests() -> dict:
    out = {}
    for line in (DATA / "json.sha256").read_text().splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write():
    """Rewrite the fixtures from the current code."""
    lines = []
    for name, n in CASES:
        result = run_scenario(ScenarioConfig(name, truncation=n))
        stem = "%s_%d" % (name, n)
        (DATA / (stem + ".csv")).write_text(emit_report(result, "csv"))
        lines.append("%s  %s.json\n" % (_sha256(emit_report(result, "json")), stem))
    (DATA / "json.sha256").write_text("".join(lines))


def test_manifest_lists_every_case():
    assert sorted(_json_digests()) == sorted("%s_%d.json" % c for c in CASES)


@pytest.mark.parametrize("name,n", CASES)
def test_reports_are_byte_identical(name, n):
    result = run_scenario(ScenarioConfig(name, truncation=n))
    stem = "%s_%d" % (name, n)
    assert emit_report(result, "csv") == (DATA / (stem + ".csv")).read_text()
    assert _sha256(emit_report(result, "json")) == _json_digests()[stem + ".json"]
