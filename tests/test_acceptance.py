"""Acceptance gate: one test per criterion, named so `pytest -v` prints a
pass/fail line for each.  Tolerances follow the stated targets; the tenfold
witness growth check is expected to fail for a documented reason and is
marked strict-xfail rather than weakened."""

import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gradedframes.frames import (
    BlockFrame,
    DiagonalFrame,
    analyze,
    frame_bounds_analytic,
    frame_bounds_numeric,
    runo_demo,
)
from gradedframes.gradings import GradedVector, WeightGrading, graded_norm
from gradedframes.multilevel import (
    ContinuityData,
    IndexPlan,
    classify_strictness,
    select_subsequence,
    verify_selected_chain,
)
from gradedframes.reconstruction import (
    SequenceOperator,
    V_from_projection,
    projection_from_V,
    synthesis_from_rule,
    verify_dual_expansion,
    verify_equivalences,
    verify_expansion,
)
from gradedframes.scenarios import ScenarioConfig, run_exf2

SQRT2 = 1.4142135623730951


def alternating(n, r):
    j = np.arange(1, n + 1)
    return DiagonalFrame(np.where(j % 2 == 1, 1.0, j.astype(float) ** r))


def exf2_frame(n, r):
    j = np.arange(1, n + 1)
    return BlockFrame(np.where(j % 2 == 1, 1.0, (2.0 * j) ** r))


def dyadic_vectors(rng, count, n, scale=16.0):
    out = []
    for _ in range(count):
        size = int(rng.integers(1, 9))
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=size, replace=False))
        vals = rng.integers(-64, 65, size=size) / scale
        out.append(GradedVector(idx, vals + 0j))
    return out


def test_criterion_1_alternating_bounds_are_unit():
    n = 4096
    start = time.perf_counter()
    for r in (1, 2, 3):
        frame = alternating(n, r)
        theta = WeightGrading("power", 8, n)
        x = WeightGrading("power", 8 + r, n)
        for k in range(9):
            fb = frame_bounds_analytic(frame, theta, k, x, k, k + r)
            assert abs(fb.lower - 1.0) <= 1e-12, (r, k, fb.lower)
            assert abs(fb.upper - 1.0) <= 1e-12, (r, k, fb.upper)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, "bounds took %.2fs" % elapsed


def test_criterion_2_strictness_verdicts():
    n = 4096
    x = WeightGrading("power", 32, n)
    theta = WeightGrading("power", 8, n)
    base = classify_strictness(alternating(n, 2), x, theta, n_max=32)
    assert base.verdict == "NotStrict"
    assert tuple(w.candidate for w in base.witnesses) == tuple(range(33))
    for r in (1, 2, 3):
        j = np.arange(1, n + 1).astype(float)
        variant = classify_strictness(DiagonalFrame(j ** r), x, theta, n_max=32)
        assert variant.verdict == "Strict"
        for cert in variant.certificates:
            assert cert.admissible_level == cert.level + r


def test_criterion_3_paired_frame_report_and_projection():
    n = 4096
    result = run_exf2(ScenarioConfig("exf2", r=1, truncation=n, levels=8))
    assert result.passed
    row0 = next(r for r in result.rows if r.kind == "level" and r.level == 0)
    assert row0.plan_lower == 1.0 and row0.verdict == "pass"
    assert abs(row0.optimal_upper - SQRT2) <= 1e-12
    assert row0.witness_upper == "2"

    frame = exf2_frame(n, 1)
    x = WeightGrading("shifted_power", 8, n, shift=2)
    theta = WeightGrading("power", 4, 2 * n)
    plan = IndexPlan.shifted(4, 1, upper_const=SQRT2)
    op = synthesis_from_rule(
        SequenceOperator.pair_collapse(np.zeros(n), np.ones(n), frame.b_pair),
        x, theta, plan)
    proj = projection_from_V(frame, op, theta)
    assert proj.idempotence_defect == 0.0

    rng = np.random.default_rng(33)
    for level in range(5):
        for _ in range(500):
            size = int(rng.integers(1, 7))
            idx = np.sort(rng.choice(np.arange(1, 2 * n + 1), size=size,
                                     replace=False))
            d = GradedVector(idx, rng.normal(size=size) + 0j)
            assert graded_norm(proj.apply(d), theta, level) <= \
                SQRT2 * graded_norm(d, theta, level) * (1 + 1e-12)

    for _ in range(50):
        size = int(rng.integers(1, 7))
        idx = np.sort(rng.choice(np.arange(1, n + 1), size=size, replace=False))
        f = GradedVector(idx, rng.normal(size=size) + 0j)
        d = analyze(frame, f)
        pd = proj.apply(d)
        assert graded_norm(pd - d, theta, 0) <= 1e-9 * graded_norm(d, theta, 0)
        e = GradedVector(np.sort(rng.choice(np.arange(1, 2 * n + 1),
                                            size=size, replace=False)),
                         rng.normal(size=size) + 0j)
        pe = proj.apply(e)
        back = analyze(frame, op.rule.apply(pe))
        scale = max(graded_norm(pe, theta, 0), 1e-30)
        assert graded_norm(back - pe, theta, 0) <= 1e-9 * scale

    equiv = verify_equivalences(frame, V_from_projection(frame, proj, x, theta, plan),
                                x, theta, plan)
    assert equiv.passed


def test_criterion_4_two_route_bound_agreement():
    rng = np.random.default_rng(44)
    for case in range(100):
        n = int(rng.integers(16, 257)) if case % 5 else int(rng.integers(256, 513))
        b = rng.uniform(0.25, 8.0, size=n)
        if case % 2:
            frame = DiagonalFrame(b)
            m = n
        else:
            frame = BlockFrame(b[: n // 2])
            m = 2 * (n // 2)
            n = n // 2
        theta = WeightGrading("power", 6, m)
        x = WeightGrading("power", 6, n)
        k = int(rng.integers(0, 7))
        hi = int(rng.integers(k, 7))
        ana = frame_bounds_analytic(frame, theta, k, x, k, hi)
        num = frame_bounds_numeric(frame, theta, k, x, k, hi)
        assert num.lower == pytest.approx(ana.lower, rel=1e-9)
        assert num.upper == pytest.approx(ana.upper, rel=1e-9)


def test_criterion_5_expansion_tail_bounds():
    n = 64
    frame = alternating(n, 2)
    x = WeightGrading("power", 8, n)
    theta = WeightGrading("power", 6, n)
    plan = IndexPlan.shifted(6, 2)
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(n), frame.b),
                             x, theta, plan)
    rng = np.random.default_rng(55)
    samples = dyadic_vectors(rng, 100, n)
    report = verify_expansion(frame, op, x, theta, plan, samples)
    assert report.passed
    for row in report.rows:
        assert all(res <= bound * (1 + 1e-12)
                   for res, bound in zip(row.profile, row.tail_bounds))
        assert all(res == 0.0 for g, res in zip(row.grid, row.profile)
                   if g >= row.support)

    duals = [GradedVector(v.indices, frame.b[v.indices - 1] * v.values)
             for v in dyadic_vectors(rng, 100, n)]
    dual_report = verify_dual_expansion(frame, op, x, theta, plan, duals)
    assert dual_report.passed
    for row in dual_report.rows:
        assert all(res <= bound * (1 + 1e-12)
                   for res, bound in zip(row.profile, row.tail_bounds))
        assert all(res == 0.0 for g, res in zip(row.grid, row.profile)
                   if g >= row.support)


def test_criterion_6_worked_selection_and_chain():
    plan = IndexPlan.shifted(10, 2)
    selection = select_subsequence(
        plan, ContinuityData((0, 3, 3, 5, 8), (1.0,) * 5))
    assert selection.inflated_levels == (0, 3, 3, 5, 8)
    assert selection.chosen_indices == (0, 1, 3, 4)
    assert selection.lower_levels == (0, 1, 3, 4)
    assert selection.mid_levels == (0, 3, 5, 8)
    assert selection.upper_levels == (2, 5, 7, 10)

    n = 16
    frame = alternating(n, 2)
    x = WeightGrading("power", 12, n)
    theta = WeightGrading("power", 10, n)
    chain = verify_selected_chain(
        frame, x, theta, selection,
        [GradedVector.canonical(i) for i in range(1, n + 1)])
    assert chain.passed


def test_criterion_7_norm_chain_values():
    rep = runo_demo(1.5, 3.0, [GradedVector.from_pairs({1: 1.0, 2: 1.0})])
    assert rep.passed
    _, nq, n2, np_, ok = rep.chain_rows[0]
    assert ok
    assert abs(nq - 2.0 ** (1.0 / 3.0)) <= 1e-12
    assert abs(n2 - 2.0 ** 0.5) <= 1e-12
    assert abs(np_ - 2.0 ** (2.0 / 3.0)) <= 1e-12


@pytest.mark.xfail(
    strict=True,
    reason="norm interpolation caps the p-to-2 norm ratio of any length-10^4 "
           "vector at 10^(4/6) ~ 4.64, so no witness family reaches a tenfold "
           "gap by that prefix; the family's measured ratio is ~2.58")
def test_criterion_7_witness_tenfold_gap():
    rep = runo_demo(1.5, 3.0, [GradedVector.canonical(1)])
    n, l2, lp = rep.witness_rows[-1]
    assert n == 10000
    assert lp >= 10.0 * l2


def test_criterion_8_property_suites():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "tests/test_properties.py"],
        cwd=root, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "passed" in proc.stdout and "failed" not in proc.stdout
