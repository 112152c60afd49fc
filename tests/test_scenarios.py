import json
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import gradedframes
from gradedframes import frames, multilevel, reconstruction, scenarios
from gradedframes.cli import main
from gradedframes.gradings import GradedVector, graded_norm
from gradedframes.reportio import (
    COLUMNS,
    ReportFormatError,
    emit_report,
    from_csv,
    from_json,
    load_report,
    round_row,
)
from gradedframes.scenarios import (
    ReportRow,
    ScenarioConfig,
    run_custom,
    run_exf1,
    run_exf2,
    run_runo,
    run_scenario,
)

SQRT2 = 1.4142135623730951


@pytest.fixture(scope="module")
def exf1_small():
    return run_exf1(ScenarioConfig("exf1", r=2, truncation=64, levels=4))


@pytest.fixture(scope="module")
def exf2_small():
    return run_exf2(ScenarioConfig("exf2", r=1, truncation=64, levels=4))


# -- config --------------------------------------------------------------------

def test_config_rejects_unknown_scenario():
    with pytest.raises(ValueError):
        ScenarioConfig("exf3")


@pytest.mark.parametrize("kw", [dict(truncation=8), dict(levels=1),
                                dict(r=0), dict(n_max=0),
                                dict(p=2.5), dict(q=1.5), dict(p=1.0)])
def test_config_rejects_bad_values(kw):
    with pytest.raises(ValueError):
        ScenarioConfig("exf1", **kw)


@pytest.mark.parametrize("name, value", [("truncation", 4096.7), ("r", 2.5),
                                         ("levels", 8.9), ("n_max", 32.2)])
def test_config_refuses_non_integer_fields_by_name(name, value):
    with pytest.raises(ValueError, match="^%s must be an integer, got %r$"
                                         % (name, value)):
        ScenarioConfig("exf1", **{name: value})


def test_config_stores_integral_floats_as_int():
    cfg = ScenarioConfig("exf1", truncation=4096.0, r=2.0, levels=8.0, n_max=32.0)
    assert [type(getattr(cfg, k)) for k in ("truncation", "r", "levels", "n_max")] \
        == [int] * 4
    assert cfg.digest() == ScenarioConfig("exf1").digest()


def test_config_digest_depends_on_values():
    a = ScenarioConfig("exf1", truncation=64)
    b = ScenarioConfig("exf1", truncation=128)
    assert a.digest() == ScenarioConfig("exf1", truncation=64).digest()
    assert a.digest() != b.digest()
    assert len(a.digest()) == 64


def test_report_row_rejects_unknown_kind():
    with pytest.raises(ValueError):
        ReportRow("exf1", "table", "base")


# -- exf1 ------------------------------------------------------------------------

def test_exf1_row_shape(exf1_small):
    levels = [r for r in exf1_small.rows if r.kind == "level"]
    verdicts = [r for r in exf1_small.rows if r.kind == "verdict"]
    assert len(levels) == 4
    assert len(verdicts) == 2
    assert exf1_small.passed


def test_exf1_bounds_are_one(exf1_small):
    for row in exf1_small.rows:
        if row.kind != "level":
            continue
        assert row.plan_lower == row.plan_upper == 1.0
        assert row.optimal_lower == row.optimal_upper == 1.0
        assert row.witness_lower == row.witness_upper == "1"
        assert row.lower_level == row.level
        assert row.upper_level == row.level + 2


def test_exf1_verdicts(exf1_small):
    verdicts = {r.label: r.verdict for r in exf1_small.rows
                if r.kind == "verdict"}
    assert verdicts == {"base": "NotStrict", "variant": "Strict"}


def test_exf1_residuals_start_at_probe_norm(exf1_small):
    from gradedframes.gradings import WeightGrading
    probe = GradedVector.from_pairs({1: 1.0, 2: 0.5, 3: -0.25, 5: 2.0})
    x = WeightGrading("power", 8, 64)
    for row in exf1_small.rows:
        if row.kind != "level":
            continue
        first = float(row.residuals.split(";")[0])
        assert first == pytest.approx(graded_norm(probe, x, row.level), rel=1e-11)
        assert row.residuals.split(";")[-1] == "0"


def test_exf1_level_rows_truncation_invariant():
    small = run_exf1(ScenarioConfig("exf1", r=2, truncation=64, levels=3))
    large = run_exf1(ScenarioConfig("exf1", r=2, truncation=256, levels=3))
    strip = lambda row: tuple(getattr(row, c) for c in COLUMNS
                              if c != "config_hash")
    assert [strip(r) for r in small.rows] == [strip(r) for r in large.rows]


# -- exf2 ------------------------------------------------------------------------

def test_exf2_level0_frozen(exf2_small):
    row = next(r for r in exf2_small.rows if r.kind == "level" and r.level == 0)
    assert row.plan_lower == 1.0
    assert row.plan_upper == pytest.approx(SQRT2, rel=1e-15)
    assert row.optimal_upper == pytest.approx(SQRT2, rel=1e-12)
    assert row.witness_upper == "2"
    assert row.optimal_lower == pytest.approx(SQRT2, rel=1e-12)
    assert row.witness_lower == "1"
    assert exf2_small.passed


def test_exf2_chain_row(exf2_small):
    chain = next(r for r in exf2_small.rows if r.kind == "chain")
    parts = [float(v) for v in chain.residuals.split(";")]
    assert parts[0] == 1.0
    assert parts[1] == pytest.approx(SQRT2, rel=1e-11)
    assert parts[2] == pytest.approx(2 * SQRT2, rel=1e-11)
    assert chain.verdict == "pass"


def test_exf2_verdicts(exf2_small):
    verdicts = {r.label: r.verdict for r in exf2_small.rows
                if r.kind == "verdict"}
    assert verdicts == {"base": "NotStrict", "roundtrip": "pass"}


def test_exf2_verdicts_truncation_invariant():
    keep = lambda res: [(r.label, r.verdict) for r in res.rows
                        if r.kind == "verdict"]
    a = run_exf2(ScenarioConfig("exf2", r=1, truncation=32, levels=3))
    b = run_exf2(ScenarioConfig("exf2", r=1, truncation=128, levels=3))
    assert keep(a) == keep(b)


def test_exf2_round_trip_builds_each_witness_once(monkeypatch):
    # every module that binds a function gets the counting wrapper, so calls
    # inside reconstruction (SynthesisOp.dual, verify_equivalences) count too
    calls = Counter()
    for name in ("projection_from_V", "V_from_projection", "build_dual_from_V"):
        orig = getattr(reconstruction, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        for mod in (gradedframes, reconstruction, scenarios):
            for key, value in list(vars(mod).items()):
                if value is orig:
                    monkeypatch.setattr(mod, key, counted)
    result = scenarios.run_scenario(ScenarioConfig("exf2", r=1, truncation=64, levels=4))
    assert result.passed
    assert calls == Counter(projection_from_V=1, V_from_projection=1)


@pytest.mark.parametrize("run", [run_exf1, run_exf2])
def test_coordinate_round_trips_take_no_general_product(monkeypatch, run):
    # exf1's diagonal and exf2's pair-collapse rules are block-local, so the
    # round trip checks them per coordinate; the plan check's one sample
    # product runs outside it and shows that the counter sees calls
    calls = Counter()
    scope = []
    for cls, name in ((reconstruction.Compressed, "__matmul__"),
                      (reconstruction.SequenceOperator, "apply_columns")):
        orig = getattr(cls, name)

        def counted(*args, _orig=orig, _name=name, **kwargs):
            calls[_name, "round trip" if scope else "outside"] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    orig_verify = scenarios.verify_equivalences

    def scoped(*args, **kwargs):
        scope.append(True)
        try:
            return orig_verify(*args, **kwargs)
        finally:
            scope.pop()

    monkeypatch.setattr(scenarios, "verify_equivalences", scoped)
    result = run(ScenarioConfig(run.__name__[4:], r=1, truncation=64, levels=4))
    assert result.passed
    assert calls["__matmul__", "round trip"] == 0
    assert calls["apply_columns", "round trip"] == 0
    assert calls["__matmul__", "outside"] >= 1


def test_level_rows_take_the_plan_check_constants(monkeypatch):
    # inside _graded_case, frame_bounds_analytic runs for the plan check only
    calls = Counter()
    scope = []
    orig = frames.frame_bounds_analytic

    def counted(*args, **kwargs):
        calls[scope[-1] if scope else "outside"] += 1
        return orig(*args, **kwargs)

    def scoped(name, run):
        def wrapper(*args, **kwargs):
            scope.append(name)
            try:
                return run(*args, **kwargs)
            finally:
                scope.pop()
        return wrapper

    for mod in (gradedframes, frames, multilevel, reconstruction, scenarios):
        for key, value in list(vars(mod).items()):
            if value is orig:
                monkeypatch.setattr(mod, key, counted)
    monkeypatch.setattr(scenarios, "_graded_case",
                        scoped("case", scenarios._graded_case))
    monkeypatch.setattr(scenarios, "verify_pre_f_frame",
                        scoped("plan", scenarios.verify_pre_f_frame))
    result = run_scenario(ScenarioConfig("exf1", r=2, truncation=64, levels=4))
    assert result.passed
    assert calls["case"] == 0
    assert calls["plan"] == 4
    assert sum(r.kind == "level" for r in result.rows) == 4


# -- runo ------------------------------------------------------------------------

def test_runo_frozen_chain():
    res = run_runo(ScenarioConfig("runo"))
    assert res.passed
    chains = {r.label: r.residuals for r in res.rows if r.kind == "chain"}
    assert chains["ones2"] == "1.25992104989;1.41421356237;1.58740105197"
    assert chains["e1"] == "1;1;1"
    witness = [r for r in res.rows if r.kind == "witness"]
    assert [r.level for r in witness] == [10, 100, 1000, 10000]
    growth = [float(r.residuals.split(";")[1]) for r in witness]
    assert all(a < b for a, b in zip(growth, growth[1:]))


# -- custom ----------------------------------------------------------------------

def test_custom_subcases():
    res = run_custom(ScenarioConfig("custom", truncation=32, levels=3))
    assert res.passed
    verdicts = {r.label: r.verdict for r in res.rows if r.kind == "verdict"}
    assert verdicts == {"identity": "Strict", "cube": "Strict",
                        "golden": "pass"}
    golden = next(r for r in res.rows if r.label == "golden"
                  and r.kind == "level")
    assert golden.optimal_lower == pytest.approx(0.6180339887498949, rel=1e-12)
    assert golden.optimal_upper == pytest.approx(1.6180339887498949, rel=1e-12)


def test_run_scenario_dispatch():
    res = run_scenario(ScenarioConfig("runo"))
    assert res.config.scenario == "runo"


# -- serialization -----------------------------------------------------------------

def test_csv_emission_is_deterministic(exf1_small):
    assert emit_report(exf1_small, "csv") == emit_report(exf1_small, "csv")


def test_json_emission_is_deterministic(exf1_small):
    assert emit_report(exf1_small, "json") == emit_report(exf1_small, "json")


def test_csv_round_trip(exf1_small):
    text = emit_report(exf1_small, "csv")
    loaded = from_csv(text)
    assert loaded.schema_version == 1
    assert loaded.scenario == "exf1"
    assert loaded.passed is True
    assert loaded.config_sha256 == exf1_small.config.digest()
    assert loaded.rows == tuple(round_row(r) for r in exf1_small.rows)
    assert loaded.config["truncation"] == "64"


def test_json_round_trip(exf2_small):
    text = emit_report(exf2_small, "json")
    loaded = from_json(text)
    assert loaded.schema_version == 1
    assert loaded.passed is True
    assert loaded.rows == tuple(round_row(r) for r in exf2_small.rows)
    assert loaded.config["r"] == 1


def test_json_floats_carry_12_significant_digits(exf2_small):
    doc = json.loads(emit_report(exf2_small, "json"))
    row0 = next(r for r in doc["rows"] if r["kind"] == "level")
    assert row0["plan_upper"] == 1.41421356237


def test_unknown_format_rejected(exf1_small):
    with pytest.raises(ReportFormatError):
        emit_report(exf1_small, "xml")
    with pytest.raises(ReportFormatError):
        load_report("", "xml")


def test_malformed_reports_rejected():
    with pytest.raises(ReportFormatError):
        from_json("{not json")
    with pytest.raises(ReportFormatError):
        from_json(json.dumps({"schema_version": 1}))
    with pytest.raises(ReportFormatError):
        from_csv("a,b\n1,2\n")


# -- cli ---------------------------------------------------------------------------

def test_cli_run_writes_report_and_reads_back(tmp_path, capsys):
    out = tmp_path / "runo.json"
    assert main(["run", "runo", "--format", "json", "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "runo/witness: pass"
    assert lines[-1].endswith("passed=True")


def test_cli_stdout_output(capsys):
    rc = main(["run", "runo"])
    text = capsys.readouterr().out
    assert rc == 0
    assert text.startswith("# schema_version=1")


def test_cli_rejects_bad_truncation(capsys):
    assert main(["run", "exf1", "--truncation", "4"]) == 2
    assert "at least 16" in capsys.readouterr().err


def test_cli_rejects_unknown_scenario():
    with pytest.raises(SystemExit) as exc:
        main(["run", "exf9"])
    assert exc.value.code == 2


def test_cli_reports_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "runo.json"
    main(["run", "runo", "--format", "json", "--out", str(out)])
    text = out.read_text().replace('"passed": true', '"passed": false')
    broken = tmp_path / "broken.json"
    broken.write_text(text)
    capsys.readouterr()
    assert main(["report", str(broken)]) == 1


def test_cli_report_missing_file(tmp_path, capsys):
    assert main(["report", str(tmp_path / "absent.csv")]) == 2


def test_cli_report_without_pass_record_exits_2(exf2_small, tmp_path, capsys):
    text = emit_report(exf2_small, "csv")
    lines = [line for line in text.splitlines(keepends=True)
             if not line.startswith("# passed=")]
    assert len(lines) == len(text.splitlines()) - 1
    path = tmp_path / "nopass.csv"
    path.write_text("".join(lines), encoding="ascii")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err == "error: report lacks a pass/fail record\n"


@pytest.mark.parametrize("fmt,old,new", [
    ("csv", "# schema_version=1", "# schema_version=abc"),
    ("csv", "# schema_version=1", "# schema_version=7"),
    ("csv", "\nexf2,level,base,0,", "\nexf2,level,base,x,"),
    ("csv", "\nexf2,level,", "\nexf2,bogus,"),
    ("json", '"schema_version": 1', '"schema_version": "v1"'),
    ("json", '"schema_version": 1', '"schema_version": 7'),
    ("json", '"passed": true', '"passed": "false"'),
    ("json", '"level": 3', '"level": "3"'),
    ("csv", "\nexf2,level,base,", "\nexf2,level,b\u00e4se,"),
], ids=["csv-version-abc", "csv-version-7", "csv-level-x", "csv-kind-bogus",
        "json-version-v1", "json-version-7", "json-passed-string",
        "json-level-string", "csv-not-ascii"])
def test_cli_malformed_report_exits_2(exf2_small, tmp_path, capsys, fmt, old,
                                      new):
    text = emit_report(exf2_small, fmt)
    broken = text.replace(old, new, 1)
    assert broken != text
    path = tmp_path / ("broken." + fmt)
    path.write_text(broken, encoding="utf-8")
    assert main(["report", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_ini_config_with_flag_override(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("\n".join([
        "[scenario]",
        "name = exf1",
        "r = 1",
        "truncation = 4",
        "levels = 3",
        "",
        "[report]",
        "format = json",
    ]) + "\n")
    out = tmp_path / "exf1.json"
    rc = main(["run", "exf1", "--config", str(ini),
               "--truncation", "32", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["truncation"] == 32
    assert doc["config"]["r"] == 1
    assert doc["config"]["levels"] == 3


def test_cli_missing_config_file_exits_2(tmp_path, capsys):
    ini = tmp_path / "absent.ini"
    assert main(["run", "runo", "--config", str(ini)]) == 2
    assert capsys.readouterr().err == \
        "error: config file %s not found or unreadable\n" % ini


@pytest.mark.parametrize("text,message", [
    ("[scenario]\nname = bogus\n", "unknown scenario 'bogus' in config"),
    ("[report]\nformat = xml\n", "unknown report format 'xml'"),
], ids=["scenario-bogus", "format-xml"])
def test_cli_ini_unknown_value_exits_2(tmp_path, capsys, text, message):
    ini = tmp_path / "cfg.ini"
    ini.write_text(text)
    assert main(["run", "runo", "--config", str(ini)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: %s\n" % message)


def test_cli_ini_unknown_section(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[plotting]\nenable = yes\n")
    assert main(["run", "exf1", "--config", str(ini)]) == 2


def test_cli_ini_scenario_name_conflict_rejected(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[scenario]\nname = exf2\ntruncation = 32\n")
    assert main(["run", "exf1", "--config", str(ini)]) == 2
    assert "exf2" in capsys.readouterr().err


def test_cli_ini_matching_scenario_name_accepted(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[scenario]\nname = runo\n")
    assert main(["run", "runo", "--config", str(ini)]) == 0


def test_cli_p_q_flags_override_ini(tmp_path, capsys):
    ini = tmp_path / "cfg.ini"
    ini.write_text("[scenario]\nname = runo\np = 1.75\nq = 5.0\n")
    out = tmp_path / "runo.json"
    assert main(["run", "runo", "--config", str(ini), "--p", "1.25",
                 "--out", str(out), "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["p"] == 1.25
    assert doc["config"]["q"] == 5.0
    assert main(["run", "runo", "--q", "2.5", "--out", str(out),
                 "--format", "json"]) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["p"] == 1.5
    assert doc["config"]["q"] == 2.5


def test_cli_p_flag_out_of_range_exits_2(capsys):
    assert main(["run", "runo", "--p", "2.5"]) == 2


def _env_with_src():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("args", [
    ["exf1", "--levels", "200"],
    ["exf2", "--levels", "200"],
    ["exf1", "--n-max", "400"],
    ["exf1", "--r", "200"],
    ["exf2", "--r", "200"],
], ids=["exf1-levels", "exf2-levels", "exf1-n-max", "exf1-frame-weights",
        "exf2-frame-weights"])
def test_cli_overflowing_weights_exit_2(args):
    done = subprocess.run([sys.executable, "-m", "gradedframes.cli", "run", *args,
                           "--truncation", "256", "--format", "csv"],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith("error: ") and "not finite" in done.stderr
    assert "Traceback" not in done.stderr


_COLD_RUN = """
import json, sys
import gradedframes

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

on_import = scipy_modules()
from gradedframes.cli import main
out = sys.argv[1]
codes = [main(["run", name, "--truncation", "256", "--format", "csv", "--out", out])
         for name in ("exf1", "exf2", "custom", "runo")]
codes.append(main(["report", out]))
print(json.dumps([codes, on_import, scipy_modules()]))
"""


def test_cli_runs_load_no_dense_or_sparse_solvers(tmp_path):
    # a fresh interpreter: this one may already hold the modules
    done = subprocess.run([sys.executable, "-c", _COLD_RUN, str(tmp_path / "r.csv")],
                          env=_env_with_src(), capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    codes, on_import, after_runs = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * 5
    # no scipy module at all, neither after the import nor after the runs
    assert on_import == []
    assert after_runs == []


def test_every_public_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from gradedframes import *`
    assert [n for n in gradedframes.__all__ if not hasattr(gradedframes, n)] == []
