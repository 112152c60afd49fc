import re

import numpy as np
import pytest

from gradedframes.frames import BlockFrame, DiagonalFrame
from gradedframes.gradings import (
    GradedVector,
    LevelError,
    TruncationError,
    WeightGrading,
)
from gradedframes.multilevel import (
    ContinuityData,
    IndexPlan,
    RatioWitness,
    SelectionResult,
    StrictnessVerdict,
    classify_strictness,
    select_subsequence,
    verify_pre_f_frame,
    verify_selected_chain,
)


def alternating_diag(n, r):
    j = np.arange(1, n + 1)
    return DiagonalFrame(np.where(j % 2 == 1, 1.0, j.astype(float) ** r))


def canonicals(n):
    return [GradedVector.canonical(i) for i in range(1, n + 1)]


# -- plan and continuity types -------------------------------------------------

def test_plan_rejects_decreasing_levels():
    with pytest.raises(ValueError):
        IndexPlan((0, 2, 1), (2, 3, 4), (1, 1, 1), (1, 1, 1))


def test_plan_rejects_lower_above_upper():
    with pytest.raises(ValueError):
        IndexPlan((0, 3), (2, 2), (1, 1), (1, 1))


def test_plan_rejects_bad_constants():
    with pytest.raises(ValueError):
        IndexPlan((0, 1), (1, 2), (2.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        IndexPlan((0, 1), (1, 2), (0.0, 1.0), (1.0, 1.0))


def test_shifted_plan_shape():
    plan = IndexPlan.shifted(4, 3)
    assert plan.lower_levels == (0, 1, 2, 3, 4)
    assert plan.upper_levels == (3, 4, 5, 6, 7)
    assert plan.budget == 4


def test_continuity_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        ContinuityData((0, 1), (1.0,))


# -- verify_pre_f_frame ----------------------------------------------------------

def test_verify_alternating_r2_passes_on_canonicals():
    frame = alternating_diag(16, 2)
    x = WeightGrading("power", 12, 16)
    theta = WeightGrading("power", 10, 16)
    plan = IndexPlan.shifted(8, 2)
    report = verify_pre_f_frame(frame, x, theta, plan, canonicals(16))
    assert report.passed
    assert report.first_violation is None
    assert len(report.levels) == 9
    # plan constants are admissible, so optimal slack is nonnegative
    for check in report.levels:
        assert check.slack_lower >= -1e-12
        assert check.slack_upper >= -1e-12


def test_verify_strict_plan_fails_on_even_canonical():
    frame = alternating_diag(16, 2)
    x = WeightGrading("power", 12, 16)
    theta = WeightGrading("power", 10, 16)
    plan = IndexPlan.shifted(8, 0)
    report = verify_pre_f_frame(frame, x, theta, plan, canonicals(16))
    assert not report.passed
    level, pos, side, *_ = report.first_violation
    assert level == 0
    assert side == "upper"
    assert pos == 1  # the first even canonical vector


def spiked_diag(n, j, value):
    b = np.ones(n)
    b[j - 1] = value
    return DiagonalFrame(b)


def test_verify_fails_plan_contradicted_by_optimal_upper_bound():
    # no sample touches coordinate 50, so only the optimal bound sees it
    x = WeightGrading("power", 4, 64)
    theta = WeightGrading("power", 4, 64)
    plan = IndexPlan.shifted(2, 0)
    report = verify_pre_f_frame(spiked_diag(64, 50, 10.0), x, theta, plan,
                                canonicals(8))
    assert report.levels[0].optimal_upper == 10.0
    assert report.levels[0].slack_upper == -9.0
    assert not report.passed
    assert report.first_violation == (0, 50, "upper_slack", 1.0, 10.0)


def test_verify_fails_plan_contradicted_by_optimal_lower_bound():
    x = WeightGrading("power", 4, 64)
    theta = WeightGrading("power", 4, 64)
    plan = IndexPlan.shifted(2, 0)
    report = verify_pre_f_frame(spiked_diag(64, 50, 0.5), x, theta, plan,
                                canonicals(8))
    assert not report.passed
    assert report.first_violation == (0, 50, "lower_slack", 1.0, 0.5)


def test_verify_sample_violation_reported_before_slack():
    x = WeightGrading("power", 4, 64)
    theta = WeightGrading("power", 4, 64)
    plan = IndexPlan.shifted(2, 0)
    report = verify_pre_f_frame(spiked_diag(64, 5, 10.0), x, theta, plan,
                                canonicals(8))
    assert not report.passed
    assert report.first_violation[:3] == (0, 4, "upper")


def test_verify_identity_frame_trivial_plan():
    frame = DiagonalFrame(np.ones(8))
    x = WeightGrading("power", 6, 8)
    theta = WeightGrading("power", 6, 8)
    plan = IndexPlan.shifted(6, 0)
    report = verify_pre_f_frame(frame, x, theta, plan, canonicals(8))
    assert report.passed


def test_verify_rejects_plan_beyond_budgets():
    frame = alternating_diag(8, 1)
    x = WeightGrading("power", 4, 8)
    theta = WeightGrading("power", 2, 8)
    with pytest.raises(LevelError):
        verify_pre_f_frame(frame, x, theta, IndexPlan.shifted(3, 1), canonicals(4))
    with pytest.raises(LevelError):
        verify_pre_f_frame(frame, x, theta, IndexPlan.shifted(2, 4), canonicals(4))


# -- strictness ---------------------------------------------------------------

def test_alternating_frame_is_not_strict():
    frame = alternating_diag(64, 1)
    x = WeightGrading("power", 10, 64)
    theta = WeightGrading("power", 2, 64)
    verdict = classify_strictness(frame, x, theta, n_max=10)
    assert verdict.verdict == "NotStrict"
    assert verdict.n_max == 10
    by_candidate = {w.candidate: w for w in verdict.witnesses}
    assert sorted(by_candidate) == list(range(11))
    w0 = by_candidate[0]
    assert w0.level == 0
    assert w0.mode == "upper_unbounded"
    assert w0.coordinates == (2, 4, 6, 8)
    assert w0.ratios == (2.0, 4.0, 6.0, 8.0)
    for n in range(1, 11):
        wn = by_candidate[n]
        assert wn.mode == "lower_vanishing"
        assert wn.coordinates == (1, 3, 5, 7)
        assert wn.ratios == (1.0, 3.0 ** -n, 5.0 ** -n, 7.0 ** -n)


def test_power_weight_frame_is_strict_with_shift():
    r = 2
    j = np.arange(1, 65)
    frame = DiagonalFrame(j.astype(float) ** r)
    x = WeightGrading("power", 16, 64)
    theta = WeightGrading("power", 3, 64)
    verdict = classify_strictness(frame, x, theta)
    assert verdict.verdict == "Strict"
    assert len(verdict.certificates) == 4
    for cert in verdict.certificates:
        assert cert.admissible_level == cert.level + r
        assert abs(cert.lower - 1.0) < 1e-12
        assert abs(cert.upper - 1.0) < 1e-12


def test_unit_frame_is_strict_in_place():
    frame = DiagonalFrame(np.ones(32))
    x = WeightGrading("power", 8, 32)
    theta = WeightGrading("power", 2, 32)
    verdict = classify_strictness(frame, x, theta)
    assert verdict.verdict == "Strict"
    assert [c.admissible_level for c in verdict.certificates] == [0, 1, 2]


def test_strictness_verdict_stable_under_scaling():
    frame = alternating_diag(64, 2)
    x = WeightGrading("power", 10, 64)
    theta = WeightGrading("power", 2, 64)
    base = classify_strictness(frame, x, theta, n_max=10)
    scaled = classify_strictness(DiagonalFrame(5.0 * frame.b), x, theta,
                                 n_max=10)
    assert base.verdict == scaled.verdict == "NotStrict"
    assert [w.coordinates for w in base.witnesses] == \
        [w.coordinates for w in scaled.witnesses]
    assert [w.mode for w in base.witnesses] == [w.mode for w in scaled.witnesses]


def test_block_frame_strictness_not_strict():
    j = np.arange(1, 33)
    frame = BlockFrame(np.where(j % 2 == 1, 1.0, (2.0 * j) ** 1))
    x = WeightGrading("shifted_power", 8, 32, shift=2)
    theta = WeightGrading("power", 2, 64)
    verdict = classify_strictness(frame, x, theta, n_max=8)
    assert verdict.verdict == "NotStrict"


def test_exponential_weights_are_undetermined():
    frame = alternating_diag(16, 1)
    alphas = tuple(float(j) for j in range(1, 17))
    x = WeightGrading("exponential", 4, 16, alphas=alphas)
    theta = WeightGrading("power", 1, 16)
    verdict = classify_strictness(frame, x, theta, n_max=4)
    assert verdict.verdict == "Undetermined"
    assert verdict.detail


def test_classify_rejects_candidates_beyond_budget():
    frame = alternating_diag(16, 1)
    x = WeightGrading("power", 3, 16)
    theta = WeightGrading("power", 2, 16)
    with pytest.raises(LevelError):
        classify_strictness(frame, x, theta, n_max=5)


def test_not_strict_verdict_requires_complete_witnesses():
    with pytest.raises(ValueError):
        StrictnessVerdict("NotStrict", witnesses=(), n_max=2)


def _witness(candidate):
    return RatioWitness(1, candidate, "upper_unbounded", (2,), (1.0,), 1.0)


@pytest.mark.parametrize("build,message", [
    (lambda: IndexPlan((0.5,), (1,), (1.0,), (1.0,)), "levels must be integers"),
    (lambda: IndexPlan((), (), (), ()),
     "plan entries must be nonempty and of equal length"),
    (lambda: IndexPlan((0, 1), (1, 2), (1.0,), (1.0, 1.0)),
     "plan entries must be nonempty and of equal length"),
    (lambda: ContinuityData((-1,), (1.0,)), "continuity levels must be nonnegative"),
    (lambda: ContinuityData((0,), (0.0,)), "continuity constants must be positive"),
    (lambda: SelectionResult((0, 3), (1, 2), (1, 2), (1.0, 1.0), (1.0, 1.0),
                             (0, 1), (0, 1)),
     "lower level must not exceed the upper level"),
    (lambda: StrictnessVerdict("Maybe"), "unknown verdict 'Maybe'"),
    (lambda: StrictnessVerdict("NotStrict", witnesses=(_witness(0), _witness(2)),
                               n_max=2),
     "witnesses must cover every candidate up to n_max"),
], ids=["plan-fractional-level", "plan-empty", "plan-short-consts",
        "continuity-negative-level", "continuity-zero-const",
        "selection-lower-above-upper", "verdict-unknown", "witnesses-gap"])
def test_level_types_name_what_they_refuse(build, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        build()


# -- subsequence selection --------------------------------------------------------

def test_selection_worked_example():
    plan = IndexPlan.shifted(10, 2)
    continuity = ContinuityData((0, 3, 3, 5, 8), (1.0,) * 5)
    got = select_subsequence(plan, continuity)
    assert got.inflated_levels == (0, 3, 3, 5, 8)
    assert got.chosen_indices == (0, 1, 3, 4)
    assert got.lower_levels == (0, 1, 3, 4)
    assert got.mid_levels == (0, 3, 5, 8)
    assert got.upper_levels == (2, 5, 7, 10)
    assert got.lower_consts == (1.0, 1.0, 1.0, 1.0)
    assert got.upper_consts == (1.0, 1.0, 1.0, 1.0)


def test_selection_without_inflation():
    plan = IndexPlan.shifted(6, 2)
    continuity = ContinuityData((0, 1, 2, 3), (2.0, 2.0, 2.0, 2.0))
    got = select_subsequence(plan, continuity)
    assert got.chosen_indices == (0, 1, 2, 3)
    assert got.lower_levels == (0, 1, 2, 3)
    assert got.mid_levels == (0, 1, 2, 3)
    assert got.upper_levels == (2, 3, 4, 5)


def test_selection_doubling_plan():
    ks = tuple(range(7))
    plan = IndexPlan(ks, tuple(2 * k for k in ks), (1.0,) * 7, (1.0,) * 7)
    continuity = ContinuityData((0, 2, 4, 6), (1.0,) * 4)
    got = select_subsequence(plan, continuity)
    assert got.lower_levels == (0, 1, 2, 3)
    assert got.mid_levels == (0, 2, 4, 6)
    assert got.upper_levels == (0, 4, 8, 12)


def test_selection_outputs_satisfy_plan_invariants():
    plan = IndexPlan.shifted(12, 1, lower_const=0.5, upper_const=2.0)
    continuity = ContinuityData((1, 0, 4, 4, 6, 9), (1.0,) * 6)
    got = select_subsequence(plan, continuity)
    assert all(a < b for a, b in zip(got.mid_levels, got.mid_levels[1:]))
    assert all(w <= wt for w, wt in zip(got.lower_levels, got.upper_levels))


def test_selection_rejects_short_plan():
    plan = IndexPlan.shifted(4, 2)
    continuity = ContinuityData((0, 3, 3, 5, 8), (1.0,) * 5)
    with pytest.raises(ValueError):
        select_subsequence(plan, continuity)


def test_selection_result_validates_monotonicity():
    with pytest.raises(ValueError):
        SelectionResult((0, 0), (0, 1), (1, 2), (1.0, 1.0), (1.0, 1.0),
                        (0, 1), (0, 1))


def test_selected_chain_reverifies_on_canonicals():
    frame = alternating_diag(16, 2)
    x = WeightGrading("power", 12, 16)
    theta = WeightGrading("power", 10, 16)
    plan = IndexPlan.shifted(10, 2)
    continuity = ContinuityData((0, 3, 3, 5, 8), (1.0,) * 5)
    selection = select_subsequence(plan, continuity)
    report = verify_selected_chain(frame, x, theta, selection, canonicals(16))
    assert report.passed


@pytest.mark.parametrize("short", ["x", "theta"])
def test_selected_chain_refuses_a_short_grading(short):
    # the samples stay within the short grading, so only the optimal
    # constants read past it
    frame = alternating_diag(16, 2)
    x = WeightGrading("power", 12, 15 if short == "x" else 16)
    theta = WeightGrading("power", 10, 15 if short == "theta" else 16)
    selection = select_subsequence(IndexPlan.shifted(10, 2),
                                   ContinuityData((0, 3, 3, 5, 8), (1.0,) * 5))
    with pytest.raises(TruncationError,
                       match="^coordinate 16 beyond truncation 15$"):
        verify_selected_chain(frame, x, theta, selection, canonicals(15))
