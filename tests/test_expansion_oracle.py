"""Expansion verification against per-grid-point reference loops.

verify_expansion and verify_dual_expansion check a sample's whole grid with
a few sparse operations and one column_norms call per matrix over every
level, and judge each row on arrays.  The references below are the loops they replace:
one partial reconstruction (or co-analysis), one GradedVector and one norm
call per sample, grid point and level, judged point by point by
ref_expansion_row, and the dual constants taken from frame_bounds_analytic.
Coordinate frames must agree bit for bit, verdicts and refusals included;
dense frames co-analyze with one matrix product and may differ in the last
bits of the dual profiles only.
"""

import numpy as np
import pytest

from gradedframes import reconstruction
from gradedframes.compressed import Compressed
from gradedframes.frames import (
    BlockFrame,
    CoordinateFrame,
    DenseFrame,
    DiagonalFrame,
    FrameFormError,
    analyze,
    coanalyze,
    frame_bounds_analytic,
    frame_bounds_numeric,
)
from gradedframes.gradings import (
    GradedVector,
    TruncationError,
    WeightGrading,
    column_norms,
    dual_norm,
    graded_norm,
    stack_columns,
)
from gradedframes.multilevel import IndexPlan
from gradedframes.reconstruction import (
    ExpansionReport,
    ExpansionRow,
    SequenceOperator,
    _check_prefix,
    _default_grid,
    synthesis_from_rule,
    synthesize,
    verify_dual_expansion,
    verify_expansion,
)

N = 12
LEVELS = 5

# -- per-grid-point reference loops ------------------------------------------------


def ref_expansion_row(pos, level, grid, profile, bounds, support, floor):
    """Judge one tail profile: within its bounds everywhere, and at most
    floor from the first grid point covering the support on."""
    ok = all(r <= max(b * (1 + 1e-12), floor) for r, b in zip(profile, bounds))
    zero_from = next((n for n, r in zip(grid, profile)
                      if n >= support and r <= floor), None)
    # The verifiers judge by the first check alone.  A point covering the
    # support has a coefficient tail of stored zeros only, so its bound is 0
    # (NaN when the constant is inf) and that check already demands r <= floor
    # there.  The reference keeps tail_ok, so the two judges stay independent.
    tail_ok = all(r <= floor for n, r in zip(grid, profile) if n >= support)
    ok =ok and tail_ok and (zero_from is not None or support > max(grid))
    return ExpansionRow(pos, level, grid, profile, bounds, support, zero_from, ok)


def ref_verify_expansion(frame, op, x, theta, plan, samples, n_grid=None):
    exact = op.rule.divisor is not None
    rows = []
    for pos, f in enumerate(samples):
        coeff = analyze(frame, f)
        support = coeff.trim().max_index
        grid = tuple(n_grid) if n_grid is not None \
            else _default_grid(support, op.rule.in_dim)
        residuals = [f - synthesize(op, coeff, n) for n in grid]
        tails = [coeff.tail(n) for n in grid]
        for k in range(plan.budget + 1):
            s_k = plan.lower_levels[k]
            b_k = plan.upper_consts[k]
            floor = 0.0 if exact else 1e-12 * max(graded_norm(f, x, s_k), 1.0)
            profile = tuple(graded_norm(r, x, s_k) for r in residuals)
            bounds = tuple(b_k * graded_norm(t, theta, k) for t in tails)
            rows.append(ref_expansion_row(pos, k, grid, profile, bounds, support,
                                          floor))
    return ExpansionReport(all(r.ok for r in rows), tuple(rows))


def ref_verify_dual_expansion(frame, op, x, theta, plan, dual_samples, n_grid=None):
    for n in n_grid or ():
        _check_prefix(n, frame.functional_count)
    tilde = []
    for k in range(plan.budget + 1):
        t_k = plan.upper_levels[k]
        try:
            tilde.append(frame_bounds_analytic(frame, theta, k, x, t_k, t_k).upper)
        except FrameFormError:
            tilde.append(frame_bounds_numeric(frame, theta, k, x, t_k, t_k).upper)
    exact = op.rule.divisor is not None
    rows = []
    for pos, g in enumerate(dual_samples):
        c = op.rule.transpose_apply(g)
        support = c.trim().max_index
        grid = tuple(n_grid) if n_grid is not None \
            else _default_grid(support, frame.functional_count)
        residuals = [g - coanalyze(frame, c.prefix(n)) for n in grid]
        tails = [c.tail(n) for n in grid]
        for k in range(plan.budget + 1):
            t_k = plan.upper_levels[k]
            floor = 0.0 if exact else 1e-12 * max(dual_norm(g, x.dual(), t_k), 1.0)
            profile = tuple(dual_norm(r, x.dual(), t_k) for r in residuals)
            bounds = tuple(tilde[k] * dual_norm(t, theta.dual(), k) for t in tails)
            rows.append(ref_expansion_row(pos, k, grid, profile, bounds, support,
                                          floor))
    return ExpansionReport(all(r.ok for r in rows), tuple(rows))


# -- comparable signatures ----------------------------------------------------------


def _hex(values):
    return tuple(float(v).hex() for v in values)


def report_sig(report):
    """Everything a report holds, floats as their exact hex images."""
    return (report.passed, tuple(
        (r.sample, r.level, r.grid, _hex(r.profile), _hex(r.tail_bounds),
         r.support, r.zero_from, r.ok) for r in report.rows))


def outcome(fn, sig=report_sig):
    try:
        return ("ok", sig(fn()))
    except ValueError as exc:
        return ("error", type(exc).__name__, str(exc))


def assert_close_reports(got, want, rel):
    """Same verdicts and rows, floats within rel of the reference."""
    assert got.passed == want.passed
    assert len(got.rows) == len(want.rows)
    for g, w in zip(got.rows, want.rows):
        assert (g.sample, g.level, g.grid, g.support, g.zero_from, g.ok) \
            == (w.sample, w.level, w.grid, w.support, w.zero_from, w.ok)
        for a, b in ((g.profile, w.profile), (g.tail_bounds, w.tail_bounds)):
            assert a == pytest.approx(b, rel=rel, abs=0.0)


# -- cases ---------------------------------------------------------------------------

J = np.arange(1, N + 1)
DYADIC = 2.0 ** np.floor(np.log2(J))
INTEGER = J.astype(float) ** 2


def reader_average(frame, divided=True):
    """Each coordinate from the mean of its readers: a divisor rule, or the
    same map with every entry already divided (matrix-backed)."""
    starts = frame.reader_starts
    m = frame.functional_count
    div = np.diff(starts) * frame.b
    if divided:
        num = Compressed(starts, np.arange(m), np.ones(m), (frame.truncation, m))
        return SequenceOperator(num, div)
    num = Compressed(starts, np.arange(m), 1.0 / np.repeat(div, np.diff(starts)),
                     (frame.truncation, m))
    return SequenceOperator(num)


FRAMES = {
    "diag-dyadic": DiagonalFrame(DYADIC),
    "diag-integer": DiagonalFrame(INTEGER),
    "block-dyadic": BlockFrame(2 * DYADIC),
    "block-integer": BlockFrame(INTEGER + 1),
    "threefold-dyadic": CoordinateFrame(np.repeat(np.arange(N), 3), DYADIC),
    "threefold-integer": CoordinateFrame(np.repeat(np.arange(N), 3), INTEGER),
    "mixed-readers": CoordinateFrame(np.repeat(np.arange(N), 1 + np.arange(N) % 3),
                                     DYADIC),
}


def rules_for(frame):
    out = {"average": reader_average(frame),
           "average-matrix": reader_average(frame, divided=False)}
    if isinstance(frame, BlockFrame):
        # a numerator with stored zeros: every odd input reaches its output
        n = frame.truncation
        out["even-pick"] = SequenceOperator.pair_collapse(np.zeros(n), np.ones(n),
                                                          frame.b_pair)
    return out


def setting(frame):
    x = WeightGrading("power", LEVELS, frame.truncation)
    theta = WeightGrading("power", LEVELS, frame.functional_count)
    return x, theta


PLANS = {
    "loose": IndexPlan.shifted(2, 1, upper_const=4.0),
    "tight": IndexPlan.shifted(2, 1, lower_const=0.25, upper_const=0.25),
}


def samples():
    return [
        GradedVector([1, 4, 7], [0.5, -1.25, 2.0]),
        GradedVector([2, 3, 9], [0.5 + 0.25j, -1j, 1.5]),
        GradedVector([3, 5, 8], [0.0, 0.75, 0.0]),
        GradedVector.zero(),
        GradedVector.canonical(N, -3.0),
        GradedVector([2, 6], [0.1, 1.0 / 3.0]),
    ]


def grids(m):
    # (0, 1) ends before every sample's support; (m, m, 0) starts covered
    return (None, (0, 5, 2, 2, m, 1), (m,), (0, 1), (m, m, 0))


def dual_grids(m):
    # refused: prefixes outside [0, m]
    return grids(m) + ((-2, 0, 3, m + 5),)


CASES = [(f, r, p) for f, frame in FRAMES.items() for r in rules_for(frame)
         for p in PLANS]


# -- coordinate frames: bit for bit -----------------------------------------------------


@pytest.mark.parametrize("frame_name,rule_name,plan_name", CASES)
def test_expansion_matches_reference_bit_for_bit(frame_name, rule_name, plan_name):
    frame = FRAMES[frame_name]
    x, theta = setting(frame)
    plan = PLANS[plan_name]
    op = synthesis_from_rule(rules_for(frame)[rule_name], x, theta, plan)
    for grid in grids(frame.functional_count):
        for chosen in (samples(), samples()[::-1], []):
            want = outcome(lambda: ref_verify_expansion(frame, op, x, theta, plan,
                                                        chosen, grid))
            got = outcome(lambda: verify_expansion(frame, op, x, theta, plan,
                                                   chosen, grid))
            assert got == want


@pytest.mark.parametrize("frame_name,rule_name,plan_name", CASES)
def test_dual_expansion_matches_reference_bit_for_bit(frame_name, rule_name,
                                                      plan_name):
    frame = FRAMES[frame_name]
    x, theta = setting(frame)
    plan = PLANS[plan_name]
    op = synthesis_from_rule(rules_for(frame)[rule_name], x, theta, plan)
    for grid in dual_grids(frame.functional_count):
        for chosen in (samples(), samples()[::-1], []):
            want = outcome(lambda: ref_verify_dual_expansion(frame, op, x, theta,
                                                             plan, chosen, grid))
            got = outcome(lambda: verify_dual_expansion(frame, op, x, theta, plan,
                                                        chosen, grid))
            assert got == want


def test_cases_cover_every_verdict():
    """The cases above see passing and failing rows, exact zeros and the
    nonzero floor of matrix-backed rules."""
    kinds = set()
    for frame_name, rule_name, plan_name in CASES:
        frame = FRAMES[frame_name]
        x, theta = setting(frame)
        plan = PLANS[plan_name]
        op = synthesis_from_rule(rules_for(frame)[rule_name], x, theta, plan)
        for verify in (verify_expansion, verify_dual_expansion):
            report = verify(frame, op, x, theta, plan, samples())
            for row in report.rows:
                kinds.add("pass" if row.ok else "fail")
                tail = [r for n, r in zip(row.grid, row.profile) if n >= row.support]
                if tail and max(tail) > 0.0:
                    kinds.add("floor")
                if row.zero_from is not None and row.support:
                    kinds.add("zero")
    assert kinds == {"pass", "fail", "floor", "zero"}


# -- dense frames: the dual may differ in the last bits --------------------------------

G_DENSE = np.array([[1.0, 1.0, 0.0, 0.0, 0.0],
                    [0.0, 1.0, 0.5, 0.0, 0.0],
                    [0.0, 0.0, 1.0, -2.0, 0.0],
                    [0.0, 0.0, 0.0, 1.0, 3.0],
                    [0.0, 0.0, 0.0, 0.0, 1.0],
                    [1.0, 0.0, 0.0, 0.0, 1.0],
                    [0.0, 0.25, 0.0, 0.0, 0.0]])


@pytest.mark.parametrize("plan_name", sorted(PLANS))
def test_dense_frame_matches_reference_closely(plan_name):
    frame = DenseFrame(G_DENSE)
    x = WeightGrading("power", LEVELS, 5)
    theta = WeightGrading("power", LEVELS, 7)
    plan = PLANS[plan_name]
    op = synthesis_from_rule(SequenceOperator.dense(np.linalg.pinv(G_DENSE)),
                             x, theta, plan)
    chosen = [GradedVector([1, 3], [0.5, -1.0]), GradedVector([2, 5], [1j, 0.25]),
              GradedVector([4], [0.0]), GradedVector.zero()]
    for grid in (None, (0, 3, 1, 7)):
        # the primal never co-analyzes, so it stays bit for bit
        assert outcome(lambda: verify_expansion(frame, op, x, theta, plan, chosen,
                                                grid)) \
            == outcome(lambda: ref_verify_expansion(frame, op, x, theta, plan,
                                                    chosen, grid))
        got = verify_dual_expansion(frame, op, x, theta, plan, chosen, grid)
        want = ref_verify_dual_expansion(frame, op, x, theta, plan, chosen, grid)
        assert_close_reports(got, want, rel=1e-14)


# -- refusals ----------------------------------------------------------------------------


def _both(fn_got, fn_want):
    got, want = outcome(fn_got), outcome(fn_want)
    assert got == want
    return got


def test_both_refuse_grid_points_outside_the_coefficients():
    frame = FRAMES["block-dyadic"]
    x, theta = setting(frame)
    plan = PLANS["loose"]
    op = synthesis_from_rule(rules_for(frame)["even-pick"], x, theta, plan)
    m = frame.functional_count
    for grid, bad in (((0, m + 1), m + 1), ((3, -1, m + 7), -1)):
        got = _both(lambda: verify_expansion(frame, op, x, theta, plan, samples(), grid),
                    lambda: ref_verify_expansion(frame, op, x, theta, plan, samples(),
                                                 grid))
        assert got == ("error", "ValueError",
                       "prefix length %d out of range [0, %d]" % (bad, m))
        got = _both(lambda: verify_dual_expansion(frame, op, x, theta, plan,
                                                  samples(), grid),
                    lambda: ref_verify_dual_expansion(frame, op, x, theta, plan,
                                                      samples(), grid))
        assert got == ("error", "ValueError",
                       "prefix length %d out of range [0, %d]" % (bad, m))


@pytest.mark.parametrize("verify", [verify_expansion, verify_dual_expansion])
def test_empty_grid_is_refused(verify):
    frame = FRAMES["diag-dyadic"]
    x, theta = setting(frame)
    plan = PLANS["loose"]
    op = synthesis_from_rule(rules_for(frame)["average"], x, theta, plan)
    with pytest.raises(ValueError, match="^n_grid is empty"):
        verify(frame, op, x, theta, plan, samples(), ())


@pytest.mark.parametrize("lower,want", [
    ((0, 0, 9), "level 9 out of range [0, 3]"),
    # X levels in range: the tails' Θ levels refuse next
    ((0, 0, 1), "level 1 out of range [0, 0]"),
])
@pytest.mark.parametrize("rule_name", ["average", "average-matrix"])
def test_no_samples_refuse_levels_as_one_sample_does(lower, want, rule_name):
    # with no samples the plan is still checked against the gradings
    frame = DiagonalFrame(np.ones(6))
    x = WeightGrading("power", 3, 6)
    theta = WeightGrading("power", 0, 6)
    op = synthesis_from_rule(rules_for(frame)[rule_name], x, theta,
                             IndexPlan.shifted(0, 0))
    plan = IndexPlan(lower, (0, 0, 9), (1.0,) * 3, (1.0,) * 3)
    none = outcome(lambda: verify_expansion(frame, op, x, theta, plan, []))
    one = outcome(lambda: verify_expansion(frame, op, x, theta, plan,
                                           [GradedVector([2], [1.0])]))
    assert none == one == ("error", "LevelError", want)


def test_samples_beyond_the_frame_are_refused_as_before():
    frame = FRAMES["diag-dyadic"]
    x, theta = setting(frame)
    plan = PLANS["loose"]
    op = synthesis_from_rule(rules_for(frame)["average"], x, theta, plan)
    beyond = samples()[:2] + [GradedVector.canonical(N + 1)]
    got = _both(lambda: verify_expansion(frame, op, x, theta, plan, beyond),
                lambda: ref_verify_expansion(frame, op, x, theta, plan, beyond))
    assert got == ("error", "ValueError",
                   "sample support %d exceeds frame truncation %d" % (N + 1, N))
    got = _both(lambda: verify_dual_expansion(frame, op, x, theta, plan, beyond),
                lambda: ref_verify_dual_expansion(frame, op, x, theta, plan, beyond))
    assert got == ("error", "ValueError",
                   "input support %d exceeds dimension %d" % (N + 1, N))


def test_residual_past_the_x_truncation_raises_as_before():
    frame = FRAMES["block-dyadic"]
    x, theta = setting(frame)
    short = WeightGrading("power", LEVELS, 8)
    plan = PLANS["loose"]
    op = synthesis_from_rule(rules_for(frame)["even-pick"], x, theta, plan)
    m = frame.functional_count
    cases = (
        (GradedVector([2, 10], [1.0, 0.5]), None, 10),
        # only reconstructed zeros reach past 8: the stored pattern still does
        (GradedVector([2, 10], [1.0, 0.5]), (m,), 10),
        (GradedVector([3, 11], [0.25, 0.0]), (m, 0), 11),
        # the sample's own stored zero, before any coefficient is used
        (GradedVector([3, 11], [0.25, 0.0]), (0,), 11),
    )
    for f, grid, top in cases:
        got = _both(lambda: verify_expansion(frame, op, short, theta, plan, [f], grid),
                    lambda: ref_verify_expansion(frame, op, short, theta, plan, [f],
                                                 grid))
        assert got == ("error", "TruncationError",
                       "coordinate %d beyond truncation 8" % top)


def test_dual_residual_past_the_x_truncation_raises_as_before():
    # the dual bounds read the X weights on the whole frame, so only a
    # functional reaching past the frame through a wider rule gets there
    frame = FRAMES["diag-dyadic"]
    x, _ = setting(frame)
    wide = SequenceOperator.diagonal(np.ones(N + 2), np.append(DYADIC, [1.0, 1.0]))
    theta = WeightGrading("power", LEVELS, N + 2)
    plan = PLANS["loose"]
    op = synthesis_from_rule(wide, WeightGrading("power", LEVELS, N + 2), theta, plan)
    for g, grid in ((GradedVector([2, N + 2], [1.0, 0.5]), None),
                    (GradedVector([2, N + 2], [1.0, 0.0]), (N,))):
        got = _both(lambda: verify_dual_expansion(frame, op, x, theta, plan, [g], grid),
                    lambda: ref_verify_dual_expansion(frame, op, x, theta, plan, [g],
                                                      grid))
        assert got == ("error", "TruncationError",
                       "coordinate %d beyond truncation %d" % (N + 2, N))


def test_dual_constants_read_x_before_theta():
    # tilde reads the X weights at (Θ level k, X level t_k) before the Θ
    # weights, so a grading bad on both sides refuses with X's error
    frame = FRAMES["block-dyadic"]
    x, theta = setting(frame)
    op = synthesis_from_rule(rules_for(frame)["even-pick"], x, theta, PLANS["loose"])
    m = frame.functional_count
    cases = (
        (x, WeightGrading("power", 1, m), IndexPlan.shifted(2, 4),
         ("error", "LevelError", "level 6 out of range [0, %d]" % LEVELS)),
        (WeightGrading("power", LEVELS, 10), WeightGrading("power", LEVELS, m - 1),
         PLANS["loose"],
         ("error", "TruncationError", "coordinate %d beyond truncation 10" % N)),
    )
    for x_bad, theta_bad, plan, refusal in cases:
        got = _both(lambda: verify_dual_expansion(frame, op, x_bad, theta_bad, plan,
                                                  samples()),
                    lambda: ref_verify_dual_expansion(frame, op, x_bad, theta_bad,
                                                      plan, samples()))
        assert got == refusal


def test_dual_refuses_prefixes_beyond_the_functionals_as_before():
    # a rule with more inputs than the frame has functionals
    frame = FRAMES["diag-dyadic"]
    x, _ = setting(frame)
    theta = WeightGrading("power", LEVELS, 2 * N)
    plan = PLANS["loose"]
    rule = SequenceOperator.pair_collapse(np.ones(N), np.ones(N), DYADIC)
    op = synthesis_from_rule(rule, x, theta, plan)
    chosen = [GradedVector([1, 9], [1.0, 0.5])]
    got = _both(lambda: verify_dual_expansion(frame, op, x, theta, plan, chosen,
                                              (0, 4, 2 * N, N + 3)),
                lambda: ref_verify_dual_expansion(frame, op, x, theta, plan, chosen,
                                                  (0, 4, 2 * N, N + 3)))
    assert got == ("error", "ValueError",
                   "prefix length %d out of range [0, %d]" % (2 * N, N))


def test_first_grid_point_to_fail_names_the_refusal():
    # coefficient 1 reconstructs at coordinate 20 and coefficient 2 at 30,
    # both past the X truncation of 8: the refusal names what the first
    # grid point's residual reaches, whatever the order of the prefixes
    frame = FRAMES["diag-dyadic"]
    x, theta = WeightGrading("power", LEVELS, 30), setting(frame)[1]
    short = WeightGrading("power", LEVELS, 8)
    plan = PLANS["loose"]
    cols = [GradedVector([20], [1.0]), GradedVector([30], [1.0])] \
        + [GradedVector.zero()] * (N - 2)
    op = synthesis_from_rule(SequenceOperator(stack_columns(cols, 30).T), x, theta, plan)
    f = [GradedVector([1, 2], [1.0, 1.0])]
    for grid, top in (((2, 1), 30), ((1, 2), 20)):
        got = _both(lambda: verify_expansion(frame, op, short, theta, plan, f, grid),
                    lambda: ref_verify_expansion(frame, op, short, theta, plan, f,
                                                 grid))
        assert got == ("error", "TruncationError",
                       "coordinate %d beyond truncation 8" % top)


@pytest.mark.parametrize("verify", [verify_expansion, verify_dual_expansion])
def test_one_norm_column_per_distinct_prefix(verify, monkeypatch):
    # a sample with s stored coefficients has at most s + 1 distinct
    # prefixes, however many grid points the default grid holds
    widths = []

    def counting(mat, grading, levels):
        widths.append(mat.shape[0])
        return column_norms(mat, grading, levels)

    monkeypatch.setattr(reconstruction, "column_norms", counting)
    checked = 0
    for frame_name, rule_name, plan_name in CASES:
        frame = FRAMES[frame_name]
        x, theta = setting(frame)
        plan = PLANS[plan_name]
        op = synthesis_from_rule(rules_for(frame)[rule_name], x, theta, plan)
        coefficients = analyze if verify is verify_expansion \
            else lambda _, g: op.rule.transpose_apply(g)
        for v in samples():
            widths.clear()
            report = verify(frame, op, x, theta, plan, [v])
            if len(report.rows[0].grid) >= 13:
                checked += 1
                assert max(widths) <= coefficients(frame, v).support_size + 1
    assert checked >= len(CASES)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_reconstruction_is_refused_as_before():
    frame = FRAMES["diag-dyadic"]
    x, theta = setting(frame)
    plan = PLANS["loose"]
    rule = SequenceOperator.diagonal(np.full(N, 1e300), np.full(N, 1e-300))
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(N), DYADIC),
                             x, theta, plan)
    op = type(op)(rule, op.bounds)
    for verify, ref in ((verify_expansion, ref_verify_expansion),
                        (verify_dual_expansion, ref_verify_dual_expansion)):
        got = _both(lambda: verify(frame, op, x, theta, plan, samples()[:1]),
                    lambda: ref(frame, op, x, theta, plan, samples()[:1]))
        assert got == ("error", "ValueError", "entries must be finite")


# -- column_norms with a dual weighting ------------------------------------------------


def test_column_norms_take_dual_weights_as_dual_norm():
    theta = WeightGrading("exponential", 3, 9, alphas=tuple(np.linspace(0, 2, 9)))
    cols = [GradedVector([1, 4, 9], [0.3, -1j, 2.5]), GradedVector.zero(),
            GradedVector([2], [0.0]), GradedVector([5, 6], [1e-3, 7.0 + 1j])]
    # the 9 x 4 matrix of the columns, held by its transpose
    indptr = np.cumsum([0] + [c.support_size for c in cols])
    mat = Compressed(indptr, np.concatenate([c.indices - 1 for c in cols]),
                     np.concatenate([c.values for c in cols]), (len(cols), 9))
    for level in range(4):
        got = column_norms(mat, theta.dual(), [level])[0]
        want = [dual_norm(c, theta.dual(), level) for c in cols]
        assert _hex(got) == _hex(want)
    with pytest.raises(TruncationError, match="coordinate 9 beyond truncation 8"):
        column_norms(mat, WeightGrading("power", 3, 8).dual(), (0,))
