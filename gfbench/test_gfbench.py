"""Tests of the benchmark itself: repeatable inputs and checks that bite.

    python3 -m pytest gfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from gradedframes import frames, multilevel, reconstruction  # noqa: E402


def _vec(v):
    return (v.indices.tolist(), v.values.tolist())


def _levels_digest(cases):
    out = []
    for case, samples, continuity, norm_samples, norm_args in cases:
        out.append((case.shape, case.n, case.r_odd, case.r_even, case.spike,
                    case.frame.dense_matrix().sum(),
                    [_vec(v) for v in samples], continuity,
                    [_vec(v) for v in norm_samples], norm_args))
    return out


def test_levels_inputs_repeat_per_seed():
    a = _levels_digest(workloads.generate_levels(5))
    assert a == _levels_digest(workloads.generate_levels(5))
    assert a != _levels_digest(workloads.generate_levels(6))


def test_expansion_inputs_repeat_per_seed():
    def digest(seed):
        return [(c.shape, c.n, c.weights, c.r_odd, _vec(f), _vec(g))
                for c, f, g in workloads.generate_expansion(seed)]
    assert digest(5) == digest(5)
    assert digest(5) != digest(6)


def test_levels_spikes_miss_plan_samples():
    for seed in range(4):
        cases = workloads.generate_levels(seed)
        spiked = [c for c, *_ in cases if c.spike]
        assert len(spiked) == workloads.LEVEL_FRAMES // 8
        for case in spiked:
            assert workloads.PLAN_SUPPORT < case.spike < case.n // 4
            r = case.r_odd if case.spike % 2 else case.r_even
            assert r == case.r_max


@pytest.fixture(scope="module")
def plain_case():
    """A diagonal frame without a spike, with its generated inputs."""
    for case, samples, continuity, norm_samples, norm_args in \
            workloads.generate_levels(0):
        if case.shape == "diag" and not case.spike:
            return case, samples, continuity, norm_samples, norm_args
    raise AssertionError("no plain diagonal frame")


def test_plan_check_catches_flipped_verdict(plain_case):
    case, samples = plain_case[:2]
    report = multilevel.verify_pre_f_frame(case.frame, case.x, case.theta,
                                           case.plan, samples)
    assert workloads.check_plan(case, report) is None
    flipped = dataclasses.replace(report, passed=not report.passed)
    assert workloads.check_plan(case, flipped) == "plan_false_fail"


def test_plan_check_catches_negative_slack(plain_case):
    case = plain_case[0]
    level = multilevel.LevelCheck(0, 1.0, 1.0, 1.0, 10.0, 0.0, -9.0, 8)
    report = multilevel.PlanReport(True, None, (level,))
    assert workloads.check_plan(case, report) == "plan_false_pass"


def test_chain_check_catches_flipped_verdict(plain_case):
    case, samples, continuity = plain_case[:3]
    sel = multilevel.select_subsequence(case.plan, continuity)
    report = multilevel.verify_selected_chain(case.frame, case.x, case.theta,
                                              sel, samples)
    assert workloads.check_chain(case, sel, report) is None
    flipped = dataclasses.replace(report, passed=not report.passed)
    assert workloads.check_chain(case, sel, flipped) == "chain_false_fail"


def test_strictness_check_catches_flipped_verdict():
    strict = workloads.FrameCase("diag", 1024, 2, 2)
    mixed = workloads.FrameCase("block", 1024, 0, 3)
    for case in (strict, mixed):
        verdict = multilevel.classify_strictness(case.frame, case.x,
                                                 case.theta,
                                                 n_max=workloads.N_MAX)
        assert workloads.check_strictness(case, verdict) is None
        other = "NotStrict" if verdict.verdict == "Strict" else "Strict"
        fake = types.SimpleNamespace(verdict=other)
        assert workloads.check_strictness(case, fake) == "strictness"


def test_norm_check_catches_perturbed_norm(plain_case):
    case, _, _, norm_samples, norm_args = plain_case
    unscaled = norm_samples[:8]
    got = workloads._norm_batch(case, unscaled, norm_args)
    assert workloads.check_norms(case, unscaled, norm_args, got) is None
    bad = list(got)
    bad[3] = (bad[3][0] * (1 + 1e-9),) + bad[3][1:]
    assert workloads.check_norms(case, unscaled, norm_args, bad) \
        == "norm_accuracy"


def test_norm_check_names_underflow_on_scaled_samples_only(plain_case):
    case, _, _, norm_samples, norm_args = plain_case
    first = norm_samples[:16]
    ref = [workloads._mp_norms(v, case, norm_args) for v in first]
    assert workloads.check_norms(case, first, norm_args, ref) is None
    ref[15] = (0.0,) + ref[15][1:]
    assert workloads.check_norms(case, first, norm_args, ref) \
        == "norm_underflow"


def test_bounds_check_passes_on_plain_frames():
    for case in (workloads.FrameCase("diag", 1024, 1, 3),
                 workloads.FrameCase("block", 1024, 0, 2)):
        assert workloads.check_bounds_numeric(case, 3) is None


def test_expansion_checks_catch_failed_report():
    wl = workloads.expansion(0, HERE)
    op = wl.ops[0]
    report = op.run()
    assert op.check(report) is None
    assert op.check(dataclasses.replace(report, passed=False)) == "expansion"


def test_scenario_check_catches_changed_reference_row(tmp_path):
    wl = workloads.scenarios(0, tmp_path)
    op = next(o for o in wl.ops if o.name == "scenarios.custom.json")
    codes = op.run()
    assert op.check(codes) is None
    reference = workloads.load_reference()
    path = tmp_path / "custom.json"
    assert workloads.check_scenario(reference, "custom", path, [1]) \
        == "exit_code"
    row = reference["custom"]["rows"]["level/golden/0"]
    row[2] = row[2] * (1 + 1e-11)
    assert workloads.check_scenario(reference, "custom", path, codes) \
        == "scenario_reference"


def test_frame_bounds_abort_is_known_on_untimed_abort_ops_only():
    abort_case = workloads.ABORT_CASES[0]
    abort_op = workloads._abort_op(*abort_case)
    with pytest.raises(ValueError) as info:
        abort_op.run()
    raised = measure.Raised(info.value)
    assert raised.category() == "frame_bounds_abort"

    untimed = measure.Ledger()
    untimed.add(abort_op, raised.category())
    assert untimed.correct

    case = workloads.FrameCase("block", *abort_case[1:])
    timed_plan = workloads._levels_ops(0, case, [], None, [], None)[0]
    timed = measure.Ledger()
    timed.add(timed_plan, raised.category())
    assert not timed.correct
    assert timed.unexpected() == ["levels.plan:frame_bounds_abort"]

    with pytest.raises(ValueError) as info:
        multilevel.IndexPlan.shifted(workloads.BUDGET, 1, lower_const=2.0,
                                     upper_const=1.0)
    assert measure.Raised(info.value).category() == "raised:ValueError"


def test_ledger_counts_each_op_once_however_many_passes():
    ok = workloads.Op("expansion.primal", lambda: None, lambda r: None)
    bad = workloads.Op("expansion.dual", lambda: None, lambda r: None)
    ledger = measure.Ledger()
    for _ in range(5):
        ledger.add(ok, None, ("timed", 0))
        ledger.add(bad, "dual_expansion_nondyadic", ("timed", 1))
    assert (ledger.attempted, ledger.failed) == (2, 1)
    # a failure in a later pass sticks; a later pass does not clear it
    ledger.add(ok, "nondeterministic", ("timed", 0))
    ledger.add(ok, None, ("timed", 0))
    assert (ledger.attempted, ledger.failed) == (2, 2)
    assert not ledger.correct


def test_tracer_counts_calls_and_restores_functions(plain_case):
    case, samples = plain_case[:2]
    original = frames.analyze
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert reconstruction.analyze is not original
        tracer.run_op("op.probe", 0, lambda: frames.analysis_norm(
            case.frame, samples[0], case.theta, 2))
    finally:
        tracer.uninstall()
    assert frames.analyze is original and reconstruction.analyze is original
    calls, busy, own = tracer.totals("frames.analysis_norm")
    assert calls == 1 and 0 < own <= busy
    assert tracer.totals("frames.analyze")[0] == 1
    assert tracer.totals("gradings.graded_norm")[0] == 1
    op_busy = tracer.busy_by_op()[(0, "op.probe")]
    assert busy <= op_busy


def test_benchmark_json_lists_the_printed_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["end_to_end"]] == list(measure.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == measure.per_layer_spec()
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "gfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "gfbench/run.py", "--workload", "levels", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
