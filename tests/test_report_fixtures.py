"""Byte-for-byte pins of the CSV and JSON reports of every scenario.

`tests/data/reports/` holds the CSV report of each scenario at truncations
256, 1024 and 4096 (default config otherwise), plus exf1, exf2 and custom at
three non-default configs: r = 1, r = 3, and 20 levels with a strictness
budget too small to pass.  `json.sha256` holds the digests of the matching
JSON reports.  Regenerate them only together with a deliberate schema or
numerics change:

    PYTHONPATH=src python -c "from tests.test_report_fixtures import write; write()"
"""

import hashlib
import pathlib

import pytest

from gradedframes.reportio import emit_report
from gradedframes.scenarios import ScenarioConfig, run_scenario

DATA = pathlib.Path(__file__).parent / "data" / "reports"
NON_DEFAULT = (dict(r=1, levels=4, n_max=16, truncation=64),
               dict(r=3, levels=3, n_max=20, truncation=128),
               dict(levels=20, n_max=8, truncation=64))
CASES = ([(name, dict(truncation=n)) for name in ("exf1", "exf2", "custom", "runo")
          for n in (256, 1024, 4096)]
         + [(name, kw) for name in ("exf1", "exf2", "custom") for kw in NON_DEFAULT])


def _stem(name: str, kw: dict) -> str:
    extra = "".join("_%s%s" % (k, v) for k, v in sorted(kw.items())
                    if k != "truncation")
    return "%s_%d%s" % (name, kw["truncation"], extra)


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
    for name, kw in CASES:
        result = run_scenario(ScenarioConfig(name, **kw))
        stem = _stem(name, kw)
        (DATA / (stem + ".csv")).write_text(emit_report(result, "csv"))
        lines.append("%s  %s.json\n" % (_sha256(emit_report(result, "json")), stem))
    (DATA / "json.sha256").write_text("".join(lines))


def test_manifest_lists_every_case():
    assert sorted(_json_digests()) == sorted(_stem(*c) + ".json" for c in CASES)


@pytest.mark.parametrize("name,kw", CASES,
                         ids=[_stem(*c).replace("_", "-", 1) for c in CASES])
def test_reports_are_byte_identical(name, kw):
    result = run_scenario(ScenarioConfig(name, **kw))
    stem = _stem(name, kw)
    assert emit_report(result, "csv") == (DATA / (stem + ".csv")).read_text()
    assert _sha256(emit_report(result, "json")) == _json_digests()[stem + ".json"]
