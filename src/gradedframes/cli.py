"""Command line front end.

Two subcommands: `run` executes a named scenario and writes its report,
`report` re-reads a written report file and summarizes it.  Exit status is
0 when every check passed, 1 when the run or the loaded report contains a
failure, 2 for usage and configuration errors, weight tables and frame
weights that overflow, norms above the largest double, and unreadable
reports.

Configuration uses INI files:

    [scenario]
    name = exf1
    r = 2
    truncation = 4096
    levels = 8
    n_max = 32
    p = 1.5
    q = 3.0

    [report]
    format = csv
    out = exf1.csv

Command line flags override file values.  A config naming a scenario other
than the one requested is refused.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import sys
from pathlib import Path

from .frames import FrameFormError
from .gradings import LevelError, NormOverflowError
from .reportio import ReportFormatError, emit_report, load_report
from .scenarios import SCENARIOS, ScenarioConfig, run_scenario

_INT_KEYS = ("r", "truncation", "levels", "n_max")
_FLOAT_KEYS = ("p", "q")


class ConfigError(ValueError):
    pass


def _read_ini(path: str) -> dict:
    parser = configparser.ConfigParser()
    loaded = parser.read(path)
    if not loaded:
        raise ConfigError("config file %s not found or unreadable" % path)
    out = {"scenario": {}, "report": {}}
    for section in parser.sections():
        if section not in out:
            raise ConfigError("unknown config section [%s]" % section)
        out[section] = dict(parser.items(section))
    return out


def _build_config(args) -> ScenarioConfig:
    values = {}
    if args.config:
        ini = _read_ini(args.config)
        section = ini["scenario"]
        if "name" in section and section["name"] not in SCENARIOS:
            raise ConfigError("unknown scenario %r in config" % section["name"])
        if section.get("name", args.scenario) != args.scenario:
            raise ConfigError("config names scenario %r but %r was requested"
                              % (section["name"], args.scenario))
        for key in _INT_KEYS + _FLOAT_KEYS:
            if key in section:
                values[key] = section[key]
        args.ini_report = ini["report"]
    else:
        args.ini_report = {}
    for key in _INT_KEYS + _FLOAT_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        for key in list(values):
            values[key] = float(values[key]) if key in _FLOAT_KEYS \
                else int(values[key])
        return ScenarioConfig(args.scenario, **values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _run(args) -> int:
    cfg = _build_config(args)
    fmt = args.format or args.ini_report.get("format") or "csv"
    if fmt not in ("csv", "json"):
        raise ConfigError("unknown report format %r" % fmt)
    out = args.out or args.ini_report.get("out")
    result = run_scenario(cfg)
    text = emit_report(result, fmt)
    if out:
        Path(out).write_text(text, encoding="ascii")
        print("wrote %s (%s, passed=%s)" % (out, cfg.scenario, result.passed))
    else:
        sys.stdout.write(text)
    return 0 if result.passed else 1


def _report(args) -> int:
    path = Path(args.path)
    if not path.is_file():
        raise ConfigError("report file %s not found" % path)
    fmt = "json" if path.suffix == ".json" else "csv"
    loaded = load_report(path.read_text(encoding="ascii"), fmt)
    if loaded.passed is None:
        raise ReportFormatError("report lacks a pass/fail record")
    for row in loaded.rows:
        if row.kind == "verdict":
            print("%s/%s: %s" % (row.scenario, row.label, row.verdict))
    print("scenario=%s schema=%d rows=%d passed=%s"
          % (loaded.scenario, loaded.schema_version, len(loaded.rows),
             loaded.passed))
    return 0 if loaded.passed else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared afterwards."""
    parser = argparse.ArgumentParser(
        prog="gradedframes",
        description="Frame bound scenarios over graded sequence spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a named scenario")
    runp.add_argument("scenario", choices=SCENARIOS)
    runp.add_argument("--config", help="INI file with [scenario] and [report]")
    runp.add_argument("--r", type=int, help="weight exponent")
    runp.add_argument("--truncation", type=int, help="coordinate count")
    runp.add_argument("--levels", type=int, help="number of report levels")
    runp.add_argument("--n-max", dest="n_max", type=int,
                      help="strictness candidate budget")
    runp.add_argument("--p", type=float, help="lower lp exponent, 1 < p < 2")
    runp.add_argument("--q", type=float, help="upper lp exponent, q > 2")
    runp.add_argument("--format", choices=("csv", "json"))
    runp.add_argument("--out", help="output path (default: stdout)")
    runp.set_defaults(func=_run)

    repp = sub.add_parser("report", help="summarize a written report file")
    repp.add_argument("path")
    repp.set_defaults(func=_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FrameFormError, LevelError, NormOverflowError,
            ReportFormatError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
