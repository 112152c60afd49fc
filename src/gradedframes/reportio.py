"""Delimited report output and parsing.

Reports carry a schema version, a config echo, the config digest and one
record per row.  Float payloads are written with 12 significant digits, and
the writers are deterministic: the same result serializes to the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Optional

from .scenarios import ReportRow, ScenarioResult, fmt_sig

SCHEMA_VERSION = 1

COLUMNS = ("scenario", "kind", "label", "level", "lower_level", "upper_level",
           "plan_lower", "plan_upper", "optimal_lower", "optimal_upper",
           "witness_lower", "witness_upper", "verdict", "detail", "residuals",
           "config_hash")

_INT_COLUMNS = {"level", "lower_level", "upper_level"}
_FLOAT_COLUMNS = {"plan_lower", "plan_upper", "optimal_lower", "optimal_upper"}


class ReportFormatError(ValueError):
    """Malformed or unsupported report content."""


def _cell(value, column: str) -> str:
    if value is None:
        return ""
    if column in _FLOAT_COLUMNS:
        return fmt_sig(value)
    return str(value)


def round_row(row: ReportRow) -> ReportRow:
    """Row with float payloads rounded to the serialized precision."""
    changes = {}
    for col in _FLOAT_COLUMNS:
        v = getattr(row, col)
        if v is not None:
            changes[col] = float(fmt_sig(v))
    if not changes:
        return row
    data = {col: getattr(row, col) for col in COLUMNS}
    data.update(changes)
    return ReportRow(**data)


def _config_echo(result: ScenarioResult) -> list:
    items = []
    for key, value in result.config.as_dict().items():
        items.append("%s=%s" % (key, fmt_sig(value)
                                if isinstance(value, float) else value))
    return items


def to_csv(result: ScenarioResult) -> str:
    buf = io.StringIO()
    buf.write("# schema_version=%d\n" % SCHEMA_VERSION)
    buf.write("# config %s\n" % " ".join(_config_echo(result)))
    buf.write("# sha256=%s\n" % result.config.digest())
    buf.write("# passed=%s\n" % ("true" if result.passed else "false"))
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in result.rows:
        writer.writerow([_cell(getattr(row, col), col) for col in COLUMNS])
    return buf.getvalue()


def to_json(result: ScenarioResult) -> str:
    rows = []
    for row in result.rows:
        rounded = round_row(row)
        rows.append({col: getattr(rounded, col) for col in COLUMNS})
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": result.config.scenario,
        "config": result.config.as_dict(),
        "config_sha256": result.config.digest(),
        "passed": result.passed,
        "rows": rows,
    }
    return json.dumps(doc, indent=2) + "\n"


def emit_report(result: ScenarioResult, fmt: str = "csv") -> str:
    if fmt == "csv":
        return to_csv(result)
    if fmt == "json":
        return to_json(result)
    raise ReportFormatError("unknown report format %r" % (fmt,))


@dataclass(frozen=True)
class LoadedReport:
    schema_version: int
    scenario: str
    config: dict
    config_sha256: str
    passed: Optional[bool]
    rows: tuple


def _typed(column: str, text: str):
    if text == "":
        return None if column in _INT_COLUMNS | _FLOAT_COLUMNS else ""
    if column in _INT_COLUMNS:
        return int(text)
    if column in _FLOAT_COLUMNS:
        return float(text)
    return text


def _checked(column: str, value):
    """JSON cell `value`, refused unless its type fits `column`."""
    if column not in _INT_COLUMNS | _FLOAT_COLUMNS:
        kinds = str
    elif value is None:
        return None
    else:
        kinds = int if column in _INT_COLUMNS else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError("bad %s value %r" % (column, value))
    return float(value) if column in _FLOAT_COLUMNS else value


def _rows_from_dicts(dicts, cell) -> tuple:
    """ReportRows from one mapping per row; `cell(column, value)` types each
    value and raises ValueError on one that does not fit its column."""
    rows = []
    for i, d in enumerate(dicts, 1):
        missing = set(COLUMNS) - set(d)
        if missing:
            raise ReportFormatError("row lacks columns: %s"
                                    % ", ".join(sorted(missing)))
        try:
            values = {col: cell(col, d[col]) for col in COLUMNS}
            rows.append(ReportRow(**values))
        except ValueError as exc:
            raise ReportFormatError("row %d: %s" % (i, exc)) from exc
    return tuple(rows)


def from_csv(text: str) -> LoadedReport:
    header = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            payload = line[2:]
            if payload.startswith("config "):
                header["config"] = payload[len("config "):]
            elif "=" in payload:
                key, _, value = payload.partition("=")
                header[key] = value
        else:
            body.append(line)
    try:
        version = header["schema_version"]
        digest = header["sha256"]
    except KeyError as exc:
        raise ReportFormatError("missing header field %s" % exc) from exc
    if version != str(SCHEMA_VERSION):
        raise ReportFormatError("unsupported schema version %r, expected %d"
                                % (version, SCHEMA_VERSION))
    config = {}
    for item in header.get("config", "").split():
        key, _, value = item.partition("=")
        config[key] = value
    reader = csv.reader(body)
    table = [row for row in reader if row]
    if not table or tuple(table[0]) != COLUMNS:
        raise ReportFormatError("unexpected column header")
    dicts = []
    for raw in table[1:]:
        if len(raw) != len(COLUMNS):
            raise ReportFormatError("row has %d cells, expected %d"
                                    % (len(raw), len(COLUMNS)))
        dicts.append(dict(zip(COLUMNS, raw)))
    passed = {"true": True, "false": False}.get(header.get("passed", ""))
    return LoadedReport(SCHEMA_VERSION, config.get("scenario", ""), config,
                        digest, passed, _rows_from_dicts(dicts, _typed))


def from_json(text: str) -> LoadedReport:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReportFormatError("invalid JSON: %s" % exc) from exc
    try:
        version, passed = doc["schema_version"], doc["passed"]
        if type(version) is not int or version != SCHEMA_VERSION:
            raise ReportFormatError("unsupported schema version %r, expected %d"
                                    % (version, SCHEMA_VERSION))
        if not isinstance(passed, bool):
            raise ReportFormatError("passed must be true or false, not %r"
                                    % (passed,))
        return LoadedReport(version, doc["scenario"], dict(doc["config"]),
                            doc["config_sha256"], passed,
                            _rows_from_dicts(doc["rows"], _checked))
    except (KeyError, TypeError) as exc:
        raise ReportFormatError("malformed report document: %s" % exc) from exc


def load_report(text: str, fmt: str) -> LoadedReport:
    if fmt == "csv":
        return from_csv(text)
    if fmt == "json":
        return from_json(text)
    raise ReportFormatError("unknown report format %r" % (fmt,))
