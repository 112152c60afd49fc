"""Plan and chain verification against per-sample reference loops.

verify_pre_f_frame and verify_selected_chain check every sample at every
level on one sparse sample matrix.  The references below are the
sample-by-sample loops they replace, built on analyze and graded_norm; the
chain reference adds the optimal-constant gate from per-coordinate ratios.
Diagonal and block frames must agree bit for bit; dense frames sum their
coefficients in another order and may differ in the last bits only.
"""

import math
import re

import numpy as np
import pytest

from gradedframes.frames import (
    BlockFrame,
    DenseFrame,
    DiagonalFrame,
    FrameFormError,
    analysis_norm,
    frame_bounds_analytic,
)
from gradedframes.gradings import (
    GradedVector,
    LevelError,
    TruncationError,
    WeightGrading,
    graded_norm,
)
from gradedframes.multilevel import (
    REL_SLACK,
    ContinuityData,
    IndexPlan,
    LevelCheck,
    PlanReport,
    select_subsequence,
    verify_pre_f_frame,
    verify_selected_chain,
)

N = 64
BUDGET = 6


def _sample_checks(frame, x, theta, level, s, t, a, b, samples, first):
    for pos, f in enumerate(samples):
        mid = analysis_norm(frame, f, theta, level)
        lo = a * graded_norm(f, x, s)
        hi = b * graded_norm(f, x, t)
        if lo > mid * (1 + REL_SLACK) and first is None:
            first = (level, pos, "lower", lo, mid)
        if mid > hi * (1 + REL_SLACK) and first is None:
            first = (level, pos, "upper", mid, hi)
    return first


def _slack_check(level, a, b, opt, samples, checks, first):
    """opt: (lower, lower witness, upper, upper witness) or None."""
    if opt is None:
        checks.append(LevelCheck(level, a, b, None, None, None, None,
                                 len(samples)))
        return first
    lower, wit_lower, upper, wit_upper = opt
    checks.append(LevelCheck(level, a, b, lower, upper, lower - a, b - upper,
                             len(samples), wit_lower, wit_upper))
    if lower - a < -REL_SLACK * a and first is None:
        first = (level, wit_lower, "lower_slack", a, lower)
    if b - upper < -REL_SLACK * b and first is None:
        first = (level, wit_upper, "upper_slack", b, upper)
    return first


def reference_plan(frame, x, theta, plan, samples):
    first = None
    checks = []
    for k in range(plan.budget + 1):
        s, t = plan.lower_levels[k], plan.upper_levels[k]
        a, b = plan.lower_consts[k], plan.upper_consts[k]
        first = _sample_checks(frame, x, theta, k, s, t, a, b, samples, first)
        try:
            fb = frame_bounds_analytic(frame, theta, k, x, s, t)
            opt = (fb.lower, fb.witness_lower, fb.upper, fb.witness_upper)
        except FrameFormError:
            opt = None
        first = _slack_check(k, a, b, opt, samples, checks, first)
    return PlanReport(first is None, first, tuple(checks))


def _extreme(ratios, lowest):
    value = float(ratios.min() if lowest else ratios.max())
    near = ratios <= value * (1 + 1e-13) if lowest else ratios >= value * (1 - 1e-13)
    return value, int(np.flatnonzero(near)[0]) + 1


def _chain_optimal(frame, x, theta, n, s, t):
    j = np.arange(1, frame.truncation + 1)
    if isinstance(frame, DiagonalFrame):
        size = frame.b * theta.weight_values(n, j)
    elif isinstance(frame, BlockFrame):
        size = frame.b_pair * np.hypot(theta.weight_values(n, 2 * j - 1),
                                       theta.weight_values(n, 2 * j))
    else:
        return None
    return (_extreme(size / x.weight_values(s, j), True)
            + _extreme(size / x.weight_values(t, j), False))


def reference_chain(frame, x, theta, selection, samples):
    first = None
    checks = []
    for s, n, t, a, b in zip(selection.lower_levels, selection.mid_levels,
                             selection.upper_levels, selection.lower_consts,
                             selection.upper_consts):
        first = _sample_checks(frame, x, theta, n, s, t, a, b, samples, first)
        first = _slack_check(n, a, b, _chain_optimal(frame, x, theta, n, s, t),
                             samples, checks, first)
    return PlanReport(first is None, first, tuple(checks))


def _same(got, want, rel):
    if isinstance(want, float) and rel:
        return got == pytest.approx(want, rel=rel, abs=0.0)
    return type(got) is type(want) and got == want


def assert_reports_match(got, want, rel=0.0):
    assert got.passed == want.passed
    if want.first_violation is None:
        assert got.first_violation is None
    else:
        assert len(got.first_violation) == len(want.first_violation)
        for g, w in zip(got.first_violation, want.first_violation):
            assert _same(g, w, rel), (got.first_violation, want.first_violation)
    assert len(got.levels) == len(want.levels)
    for g, w in zip(got.levels, want.levels):
        for field in LevelCheck.__dataclass_fields__:
            assert _same(getattr(g, field), getattr(w, field), rel), field


# -- frames and samples -----------------------------------------------------------

def _parity_weights(base, r_odd, r_even):
    j = np.arange(1, base.size + 1)
    return np.where(j % 2 == 1, base ** r_odd, base ** r_even)


def _spiked(b, at, factor):
    b = b.copy()
    b[at - 1] *= factor
    return b


def _case(shape, r_odd=0, r_even=2, spike=None):
    """(frame, x, theta, plan) in the pairing the benchmark uses: power X for
    diagonal frames, shift-2 X and a sqrt(2) upper constant for blocks."""
    j = np.arange(1, N + 1).astype(float)
    r = max(r_odd, r_even)
    theta_levels = BUDGET + r + 2
    if shape == "diag":
        b = _parity_weights(j, r_odd, r_even)
        frame = DiagonalFrame(_spiked(b, *spike) if spike else b)
        x = WeightGrading("power", theta_levels + r, N)
        theta = WeightGrading("power", theta_levels, N)
        return frame, x, theta, IndexPlan.shifted(BUDGET, r)
    b = _parity_weights(2 * j, r_odd, r_even)
    frame = BlockFrame(_spiked(b, *spike) if spike else b)
    x = WeightGrading("shifted_power", theta_levels + r, N, shift=2)
    theta = WeightGrading("power", theta_levels, 2 * N)
    return frame, x, theta, IndexPlan.shifted(BUDGET, r,
                                              upper_const=math.sqrt(2))


def _dense_case(rows, seed):
    rng = np.random.default_rng(seed)
    frame = DenseFrame(rng.standard_normal((rows, N)))
    x = WeightGrading("power", BUDGET + 3, N)
    theta = WeightGrading("power", BUDGET + 2, rows)
    return frame, x, theta, IndexPlan.shifted(BUDGET, 1, 0.25, 4.0)


def _samples(seed, support=40):
    rng = np.random.default_rng(seed)
    out = [GradedVector.canonical(i) for i in (1, 2, 7)]
    for _ in range(6):
        count = int(rng.integers(1, 6))
        idx = rng.choice(np.arange(1, support + 1), size=count, replace=False)
        re = rng.integers(-16, 17, size=count) / 8.0
        im = rng.integers(-16, 17, size=count) / 8.0 * rng.integers(0, 2)
        out.append(GradedVector(idx, re + 1j * im))
    out.append(GradedVector.zero())
    out.append(GradedVector([5, 9], [0.0, 0.375 - 1.5j]))
    out.append(GradedVector([support], [math.ldexp(1.0, -540)]))
    return out


STRUCTURED = {
    "diag-alternating": lambda: _case("diag", 0, 2),
    "diag-flat": lambda: _case("diag", 1, 1),
    "diag-spiked-up": lambda: _case("diag", 2, 0, spike=(51, 10.0)),
    "diag-spiked-down": lambda: _case("diag", 0, 0, spike=(50, 0.5)),
    "block-exf2": lambda: _case("block", 0, 1),
    "block-reversed": lambda: _case("block", 1, 1),
    "block-spiked": lambda: _case("block", 3, 1, spike=(47, 10.0)),
}
DENSE = {
    "dense-tall": lambda: _dense_case(80, 5),
    "dense-wide": lambda: _dense_case(40, 6),
}
CONTINUITY = ContinuityData((0, 3, 3, 5, 2, 6), (1.0,) * 6)


def _tight_plans(plan):
    """The case's plan, and copies whose constants fail some samples."""
    yield plan
    ones = (1.0,) * len(plan.lower_consts)
    yield IndexPlan(plan.lower_levels, plan.lower_levels, ones, ones)
    yield IndexPlan(plan.lower_levels, plan.upper_levels,
                    (0.5,) * len(ones), (0.5,) * len(ones))
    yield IndexPlan(plan.lower_levels, plan.upper_levels,
                    (4.0,) * len(ones), (4.0,) * len(ones))


# -- plan ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_plan_matches_reference_bit_for_bit(name):
    frame, x, theta, plan = STRUCTURED[name]()
    for variant in _tight_plans(plan):
        for samples in (_samples(1), _samples(2)[::-1], []):
            try:
                want = reference_plan(frame, x, theta, variant, samples)
            except ValueError as exc:   # FrameBounds refuses reversed bounds
                with pytest.raises(type(exc), match=re.escape(str(exc))):
                    verify_pre_f_frame(frame, x, theta, variant, samples)
                continue
            got = verify_pre_f_frame(frame, x, theta, variant, samples)
            assert_reports_match(got, want)


@pytest.mark.parametrize("name", sorted(DENSE))
def test_plan_matches_reference_on_dense_frames(name):
    frame, x, theta, plan = DENSE[name]()
    for variant in _tight_plans(plan):
        for samples in (_samples(3), _samples(4), []):
            want = reference_plan(frame, x, theta, variant, samples)
            got = verify_pre_f_frame(frame, x, theta, variant, samples)
            assert_reports_match(got, want, rel=1e-14)


def test_plan_outcomes_cover_every_verdict():
    """The cases above see passes, sample failures and slack failures."""
    kinds = set()
    for make in STRUCTURED.values():
        frame, x, theta, plan = make()
        for variant in _tight_plans(plan):
            try:
                report = verify_pre_f_frame(frame, x, theta, variant, _samples(1))
            except ValueError:
                kinds.add("refused")
                continue
            kinds.add(report.first_violation[2] if report.first_violation
                      else "pass")
    assert {"pass", "lower", "upper", "upper_slack", "lower_slack",
            "refused"} <= kinds


def test_plan_reports_earlier_slack_before_later_sample_failure():
    # level 0 holds on every sample but its upper constant misses the spike at
    # 50; level 1's constants fail the samples themselves
    frame = DiagonalFrame(_spiked(np.ones(N), 50, 10.0))
    x = WeightGrading("power", 4, N)
    theta = WeightGrading("power", 4, N)
    plan = IndexPlan((0, 1), (0, 1), (1.0, 2.0), (1.0, 2.0))
    samples = [GradedVector.canonical(i) for i in range(1, 9)]
    want = reference_plan(frame, x, theta, plan, samples)
    got = verify_pre_f_frame(frame, x, theta, plan, samples)
    assert want.first_violation == (0, 50, "upper_slack", 1.0, 10.0)
    assert_reports_match(got, want)
    later = IndexPlan((0, 1), (0, 1), (1.0, 0.5), (10.0, 0.5))
    got = verify_pre_f_frame(frame, x, theta, later, samples)
    assert got.first_violation[:3] == (1, 0, "upper")
    assert_reports_match(got, reference_plan(frame, x, theta, later, samples))


def test_plan_refusals_keep_types_and_messages():
    frame, x, theta, plan = _case("diag")
    beyond = [GradedVector.canonical(2), GradedVector.canonical(N + 1)]
    with pytest.raises(ValueError, match="sample support 65 exceeds frame "
                                         "truncation 64"):
        verify_pre_f_frame(frame, x, theta, plan, beyond)
    short_x = WeightGrading("power", x.levels, 32)
    with pytest.raises(TruncationError) as want:
        reference_plan(frame, short_x, theta, plan, _samples(1))
    with pytest.raises(TruncationError) as got:
        verify_pre_f_frame(frame, short_x, theta, plan, _samples(1))
    assert str(got.value) == str(want.value)
    negative = IndexPlan((-1, 0), (0, 1), (1.0, 1.0), (1.0, 1.0))
    with pytest.raises(LevelError):
        verify_pre_f_frame(frame, x, theta, negative, _samples(1))


# -- chain ----------------------------------------------------------------------------

def _selections(plan):
    yield select_subsequence(plan, CONTINUITY)
    yield select_subsequence(plan, ContinuityData((1,) * 4, (1.0,) * 4))
    for variant in _tight_plans(plan):
        yield select_subsequence(variant, CONTINUITY)


@pytest.mark.parametrize("name", sorted(STRUCTURED))
def test_chain_matches_reference_bit_for_bit(name):
    frame, x, theta, plan = STRUCTURED[name]()
    for selection in _selections(plan):
        for samples in (_samples(5), _samples(6)[::-1], []):
            want = reference_chain(frame, x, theta, selection, samples)
            got = verify_selected_chain(frame, x, theta, selection, samples)
            assert_reports_match(got, want)


@pytest.mark.parametrize("name", sorted(DENSE))
def test_chain_matches_reference_on_dense_frames(name):
    frame, x, theta, plan = DENSE[name]()
    for selection in _selections(plan):
        for samples in (_samples(7), []):
            want = reference_chain(frame, x, theta, selection, samples)
            got = verify_selected_chain(frame, x, theta, selection, samples)
            assert_reports_match(got, want, rel=1e-14)
            assert all(c.optimal_lower is None for c in got.levels)


def test_chain_fails_on_constants_the_optimal_ratios_contradict():
    # no sample touches coordinate 50, so only the optimal ratios see it
    frame = DiagonalFrame(_spiked(np.ones(N), 50, 10.0))
    x = WeightGrading("power", 4, N)
    theta = WeightGrading("power", 4, N)
    selection = select_subsequence(IndexPlan.shifted(2, 0),
                                   ContinuityData((0, 1, 2), (1.0,) * 3))
    samples = [GradedVector.canonical(i) for i in range(1, 9)]
    report = verify_selected_chain(frame, x, theta, selection, samples)
    assert not report.passed
    assert report.first_violation == (0, 50, "upper_slack", 1.0, 10.0)
    assert report.levels[0].optimal_upper == 10.0
    assert report.levels[0].slack_upper == -9.0
    assert report.levels[0].optimal_lower == 1.0


def test_chain_gates_reversed_entries_the_plan_bounds_refuse():
    # shift-2 X weights make every chain entry's optimal lower constant exceed
    # its optimal upper one; the chain still reports both sides
    frame, x, theta, plan = _case("block", 1, 1)
    selection = select_subsequence(plan, CONTINUITY)
    report = verify_selected_chain(frame, x, theta, selection, _samples(5))
    assert report.passed
    assert any(c.optimal_lower > c.optimal_upper for c in report.levels)


def _tight_upper_plan(below):
    """ROADMAP item 2's repro: a 256-coordinate diagonal frame, b_j = 1 on odd
    j and j^2 on even j, a shift-2 plan whose every upper constant sits below
    the optimal one, and the samples e_1..e_6."""
    n = 256
    j = np.arange(1, n + 1).astype(float)
    frame = DiagonalFrame(np.where(j % 2 == 1, 1.0, j ** 2))
    x = WeightGrading("power", 9, n)
    theta = WeightGrading("power", 7, n)
    base = IndexPlan.shifted(7, 2, lower_const=0.5)
    samples = [GradedVector.canonical(i) for i in range(1, 7)]
    optimal = [c.optimal_upper for c in verify_pre_f_frame(frame, x, theta, base,
                                                           samples).levels]
    plan = IndexPlan(base.lower_levels, base.upper_levels, base.lower_consts,
                     tuple(b - below for b in optimal))
    return verify_pre_f_frame(frame, x, theta, plan, samples), plan


def test_upper_constants_2e_12_below_optimal_fail_on_e_1():
    report, plan = _tight_upper_plan(2e-12)
    assert not report.passed
    assert report.first_violation == (0, 0, "upper", 1.0, plan.upper_consts[0])


@pytest.mark.xfail(strict=True, reason="REL_SLACK = 1e-12 passes a sample whose mid "
                   "norm exceeds its upper bound by 5e-13 (ROADMAP item 2)")
def test_upper_constants_5e_13_below_optimal_fail_on_e_1():
    # e_1's mid norm 1.0 is above its upper bound 0.9999999999995
    report, plan = _tight_upper_plan(5e-13)
    assert plan.upper_consts[0] == 1.0 - 5e-13
    assert not report.passed
    assert report.first_violation == (0, 0, "upper", 1.0, plan.upper_consts[0])
