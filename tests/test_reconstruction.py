import math
from collections import Counter

import numpy as np
import pytest

from gradedframes.compressed import Compressed
from gradedframes.frames import (
    DENSE_LIMIT,
    BlockFrame,
    CoordinateFrame,
    DenseFrame,
    DiagonalFrame,
    analyze,
)
from gradedframes.gradings import (
    GradedVector,
    TruncationError,
    WeightGrading,
    graded_norm,
    stack_columns,
)
from gradedframes.multilevel import (
    ContinuityData,
    IndexPlan,
    classify_strictness,
    select_subsequence,
    verify_pre_f_frame,
    verify_selected_chain,
)
from gradedframes import reconstruction
from gradedframes.reconstruction import (
    ProjectionOp,
    SequenceOperator,
    SynthesisOp,
    V_from_projection,
    build_V_from_dual,
    build_dual_from_V,
    projection_from_V,
    synthesis_from_rule,
    synthesize,
    verify_dual_expansion,
    verify_equivalences,
    verify_expansion,
)

SQRT2 = 1.4142135623730951
GOLDEN = 1.618033988749895


def dual_vector(dual, i):
    """f_{i+1}, row i of a dual matrix, as a GradedVector."""
    lo, hi = dual.indptr[i:i + 2]
    return GradedVector(dual.indices[lo:hi] + 1, dual.data[lo:hi])


def alternating_diag(n, r):
    j = np.arange(1, n + 1)
    return DiagonalFrame(np.where(j % 2 == 1, 1.0, j.astype(float) ** r))


def pair_block(n, r):
    j = np.arange(1, n + 1)
    return BlockFrame(np.where(j % 2 == 1, 1.0, (2.0 * j) ** r))


def power_grading(levels, truncation):
    return WeightGrading("power", levels, truncation)


def shifted_grading(levels, truncation):
    return WeightGrading("shifted_power", levels, truncation, shift=2)


def even_pick_rule(frame):
    """Reconstruct from the even member of each pair."""
    n = frame.truncation
    return SequenceOperator.pair_collapse(np.zeros(n), np.ones(n), frame.b_pair)


def average_rule(frame):
    """Reconstruct from the pair average."""
    n = frame.truncation
    half = np.full(n, 0.5)
    return SequenceOperator.pair_collapse(half, half, frame.b_pair)


# -- operator construction and application ------------------------------------

def test_divisor_of_wrong_length_rejected():
    with pytest.raises(ValueError, match="divisor must have length 2"):
        SequenceOperator(np.eye(2), np.ones(3))


def test_operator_arrays_are_read_only():
    rule = SequenceOperator.diagonal(np.ones(3), 2.0)
    with pytest.raises(ValueError):
        rule.numerator.data[0] = 5.0
    with pytest.raises(ValueError):
        rule.divisor[0] = 1.0


def test_zero_divisor_rejected():
    with pytest.raises(ValueError):
        SequenceOperator.diagonal(np.ones(3), np.array([1.0, 0.0, 1.0]))


def test_empty_numerator_rejected():
    with pytest.raises(ValueError, match="^dimensions must be positive$"):
        SequenceOperator(Compressed.zero(0, 3))


@pytest.mark.parametrize("matrix", [np.ones(3), np.zeros((0, 2))], ids=["1-d", "empty"])
def test_dense_rule_needs_a_nonempty_matrix(matrix):
    with pytest.raises(ValueError, match="^matrix must be 2-d and nonempty$"):
        SequenceOperator.dense(matrix)


@pytest.mark.parametrize("build,name", [
    (lambda z: SequenceOperator(np.eye(2), z), "divisor"),
    (lambda z: SequenceOperator.diagonal(z, np.ones(2)), "mult"),
    (lambda z: SequenceOperator.diagonal(np.ones(2), z), "div"),
    (lambda z: SequenceOperator.pair_collapse(z, np.ones(2), np.ones(2)), "co_odd"),
    (lambda z: SequenceOperator.pair_collapse(np.ones(2), z, np.ones(2)), "co_even"),
    (lambda z: SequenceOperator.pair_collapse(np.ones(2), np.ones(2), z), "div"),
    (lambda z: SequenceOperator.dense(np.diag(z)), "matrix"),
], ids=["divisor", "diagonal-mult", "diagonal-div", "pair-odd", "pair-even",
        "pair-div", "dense"])
def test_complex_coefficients_are_refused_not_made_real(build, name):
    # a cast to float would keep [1, 2] and drop the imaginary part
    with pytest.raises(ValueError, match="^%s must be real, not complex$" % name):
        build(np.array([1.0, 2.0 + 1.0j]))


@pytest.mark.parametrize("build,message", [
    (lambda: SequenceOperator.diagonal(np.ones(3), np.ones(4)),
     "mult has length 3, expected 1 or 4"),
    (lambda: SequenceOperator.diagonal(np.ones(4), np.ones(3)),
     "div has length 3, expected 1 or 4"),
    (lambda: SequenceOperator.pair_collapse(np.ones(3), 1.0, np.ones(4)),
     "co_odd has length 3, expected 1 or 4"),
    (lambda: SequenceOperator.pair_collapse(1.0, np.ones(5), np.ones(4)),
     "co_even has length 5, expected 1 or 4"),
    (lambda: SequenceOperator.pair_mix(np.ones(3), 1.0, 2),
     "co_odd has length 3, expected 1 or 2"),
], ids=["diagonal-mult", "diagonal-div", "pair-odd", "pair-even", "pair-mix"])
def test_coefficients_of_the_wrong_length_are_refused_by_name(build, message):
    with pytest.raises(ValueError, match="^%s$" % message):
        build()


def test_coefficients_of_length_1_broadcast():
    ref = SequenceOperator.pair_collapse(2.0, 3.0, np.ones(3))
    got = SequenceOperator.pair_collapse([2.0], np.array([3.0]), np.ones(3))
    assert np.array_equal(got.numerator.toarray(), ref.numerator.toarray())
    assert np.array_equal(SequenceOperator.diagonal([2.0], np.ones(3)).numerator.data,
                          np.full(3, 2.0))


def test_identity_and_zero_apply():
    v = GradedVector.from_pairs({1: 1.0, 3: -2.0})
    assert SequenceOperator.identity(4).apply(v) == v
    assert not np.any(SequenceOperator.zero_map(4, 4).apply(v).values)


def test_diagonal_apply_divides_exactly():
    rule = SequenceOperator.diagonal(np.ones(4), np.array([1.0, 2.0, 1.0, 4.0]))
    out = rule.apply(GradedVector.from_pairs({2: 2.0, 4: 4.0}))
    assert out == GradedVector.from_pairs({2: 1.0, 4: 1.0})


def test_pair_collapse_even_selection():
    rule = even_pick_rule(pair_block(4, 1))
    assert rule.apply(GradedVector.canonical(2)) == GradedVector.canonical(1)
    assert not np.any(rule.apply(GradedVector.canonical(1)).values)


def test_pair_mix_duplicates_combined_value():
    rule = SequenceOperator.pair_mix(0.0, 1.0, 2)
    out = rule.apply(GradedVector.from_dense([1.0, 2.0, 3.0, 4.0]))
    assert out == GradedVector.from_dense([2.0, 2.0, 4.0, 4.0])


def test_apply_rejects_support_beyond_dimension():
    with pytest.raises(ValueError):
        SequenceOperator.identity(3).apply(GradedVector.canonical(4))


def test_transpose_of_pair_mix_sums_each_pair():
    rule = SequenceOperator.pair_mix([0.5, 2.0], [1.0, -1.0], 2)
    out = rule.transpose_apply(GradedVector.from_dense([1.0, 3.0, 0.0, 4.0]))
    # column 2j-1 of the map holds co_odd_j twice, column 2j co_even_j twice
    assert out == GradedVector.from_dense([2.0, 4.0, 8.0, -4.0])


def test_transpose_of_pair_collapse_spreads_pairs():
    rule = average_rule(pair_block(2, 1))
    out = rule.transpose_apply(GradedVector.canonical(1))
    expect = GradedVector.from_pairs({1: 0.5, 2: 0.5})
    assert out == expect


def test_columns_matches_matrix_product():
    cols = (GradedVector.from_pairs({1: 1.0, 2: 1.0}),
            GradedVector.canonical(2, -1.0))
    rule = SequenceOperator(stack_columns(cols, 2).T)
    out = rule.apply(GradedVector.from_dense([2.0, 3.0]))
    assert out.allclose(GradedVector.from_dense([2.0, -1.0]), 1e-15)


def test_dense_transpose_apply():
    rule = SequenceOperator.dense(np.array([[1.0, 1.0], [0.0, 1.0]]))
    out = rule.transpose_apply(GradedVector.canonical(1))
    assert out.allclose(GradedVector.from_dense([1.0, 1.0]), 1e-15)


# -- weighted operator norms ---------------------------------------------------

def test_identity_norm_is_weight_ratio():
    w_out = np.arange(1, 9).astype(float)
    w_in = np.ones(8)
    rule = SequenceOperator.identity(8)
    assert rule.weighted_norm(w_out, w_in) == 8.0


def test_orthogonal_rows_of_unequal_length_norm():
    # no column holds two entries, so the norm is the largest row norm
    rule = SequenceOperator(np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]]), np.ones(2))
    assert rule.weighted_norm(np.ones(2), np.ones(3)) == 5.0


def hypot_row_norm(rule, ow, iw):
    """The largest weighted row norm by hypot over each row, as the
    orthogonal-rows norm reads it whatever the rows store."""
    terms = (np.abs(rule._values.data) * ow[rule._rows]) / iw[rule.numerator.indices]
    return float(np.max(np.hypot.reduceat(terms, rule._orthogonal_rows), initial=0.0))


# zero and 65 magnitudes from 2^-1074 to 2^1000, each with its own mantissa
MAGNITUDES = np.append(0.0, np.ldexp(1.0 + np.arange(65) / 67.0,
                                     np.linspace(-1074, 1000, 65).round().astype(int)))


@pytest.mark.parametrize("make", [
    lambda v: SequenceOperator.pair_collapse(0.0, v, np.ones(v.size)),
    lambda v: SequenceOperator.pair_collapse(-v, 0.0, np.linspace(0.5, 4.0, v.size)),
    lambda v: SequenceOperator.diagonal(v, np.linspace(1.0, 3.0, v.size)),
], ids=["pair_collapse_0_1", "pair_collapse_1_0", "diagonal"])
def test_one_nonzero_rows_take_the_hypot_norm_bit_for_bit(make):
    # each magnitude in a row of its own, then all of them together
    for v in [*MAGNITUDES[:, None], MAGNITUDES]:
        rule = make(v)
        assert rule._one_nonzero_rows
        for ow, iw in ((np.ones(rule.out_dim), np.ones(rule.in_dim)),
                       (np.linspace(0.75, 1.5, rule.out_dim),
                        np.linspace(1.25, 0.5, rule.in_dim))):
            got, want = rule.weighted_norm(ow, iw), hypot_row_norm(rule, ow, iw)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_rows_with_two_nonzeros_keep_the_hypot():
    rule = SequenceOperator.pair_collapse(3.0, 4.0, np.ones(3))
    assert not rule._one_nonzero_rows
    assert rule.weighted_norm(np.ones(3), np.ones(6)) == 5.0


def test_an_infinite_weight_on_a_stored_zero_reads_as_the_hypot_does():
    # 0 * inf is NaN, and hypot(NaN, inf) = inf; the largest term would be NaN
    rule = SequenceOperator.pair_collapse(0.0, 1.0, np.ones(2))
    ow = np.array([1.0, np.inf])
    with np.errstate(invalid="ignore"):
        assert rule.weighted_norm(ow, np.ones(4)) == hypot_row_norm(rule, ow, np.ones(4))
        assert rule.weighted_norm(ow, np.ones(4)) == np.inf


def test_pair_collapse_norm_matches_dense_svd():
    rng = np.random.default_rng(7)
    n = 6
    rule = SequenceOperator.pair_collapse(rng.uniform(0.5, 2.0, n),
                                          rng.uniform(0.5, 2.0, n),
                                          rng.uniform(0.5, 2.0, n))
    ow = rng.uniform(0.5, 3.0, n)
    iw = rng.uniform(0.5, 3.0, 2 * n)
    num = rule.numerator.toarray()
    mat = np.zeros((n, 2 * n))
    for j in range(n):
        mat[j, 2 * j] = num[j, 2 * j] / rule.divisor[j]
        mat[j, 2 * j + 1] = num[j, 2 * j + 1] / rule.divisor[j]
    dense = float(np.linalg.svd((ow[:, None] * mat) / iw[None, :],
                                compute_uv=False)[0])
    assert rule.weighted_norm(ow, iw) == pytest.approx(dense, rel=1e-12)


def test_pair_mix_norm_matches_dense_svd():
    rng = np.random.default_rng(11)
    n = 5
    rule = SequenceOperator.pair_mix(rng.uniform(-1.0, 1.0, n),
                                     rng.uniform(-1.0, 1.0, n), n)
    ow = rng.uniform(0.5, 3.0, 2 * n)
    num = rule.numerator.toarray()
    mat = np.zeros((2 * n, 2 * n))
    for j in range(n):
        mat[2 * j, 2 * j] = mat[2 * j + 1, 2 * j] = num[2 * j, 2 * j]
        mat[2 * j, 2 * j + 1] = mat[2 * j + 1, 2 * j + 1] = num[2 * j, 2 * j + 1]
    iw = rng.uniform(0.5, 3.0, 2 * n)
    dense = float(np.linalg.svd((ow[:, None] * mat) / iw[None, :],
                                compute_uv=False)[0])
    assert rule.weighted_norm(ow, iw) == pytest.approx(dense, rel=1e-12)


def test_short_weight_table_rejected():
    with pytest.raises(ValueError):
        SequenceOperator.identity(8).weighted_norm(np.ones(4), np.ones(8))


def test_weighted_norm_refuses_a_large_operator_with_shared_inputs():
    n = DENSE_LIMIT + 1
    # input 1 feeds outputs 1 and 2, so the rows are not orthogonal
    rule = SequenceOperator(Compressed.from_triplets([0, 1], [0, 0], [1.0, 1.0], (n, n)))
    with pytest.raises(ValueError, match="^operator too large for dense norm "
                                         "computation$"):
        rule.weighted_norm(np.ones(n), np.ones(n))


# -- dual systems and synthesis -------------------------------------------------

def test_dual_from_even_selection_rule():
    frame = pair_block(3, 1)
    dual = build_dual_from_V(even_pick_rule(frame))
    assert dual.shape[0] == 6
    assert not np.any(dual_vector(dual, 0).values)
    assert dual_vector(dual, 1) == GradedVector.canonical(1)
    assert dual_vector(dual, 3) == GradedVector.canonical(2, 1.0 / frame.b_pair[1])


def test_build_V_from_canonical_dual_is_identity_table():
    n = 8
    x = power_grading(4, n)
    theta = power_grading(4, n)
    plan = IndexPlan.shifted(3, 0)
    dual = stack_columns(
        tuple(GradedVector.canonical(i) for i in range(1, n + 1)), n)
    op = build_V_from_dual(dual, x, theta, plan)
    assert np.array_equal(op.rule.numerator.toarray(), np.eye(n))
    assert np.array_equal(op.rule.divisor, np.ones(n))
    assert op.bounds.consts == (1.0, 1.0, 1.0, 1.0)


def test_build_V_from_doubled_dual_doubles_bounds():
    n = 8
    x = power_grading(4, n)
    theta = power_grading(4, n)
    plan = IndexPlan.shifted(3, 0)
    dual = stack_columns(
        tuple(GradedVector.canonical(i, 2.0) for i in range(1, n + 1)), n)
    op = build_V_from_dual(dual, x, theta, plan)
    assert op.bounds.consts == (2.0, 2.0, 2.0, 2.0)


def test_build_V_detects_pair_structure():
    frame = pair_block(4, 1)
    dual = build_dual_from_V(even_pick_rule(frame))
    op = build_V_from_dual(dual, shifted_grading(3, 4), power_grading(3, 8),
                           IndexPlan.shifted(2, 1, upper_const=SQRT2))
    # row j reads the pair (2j-1, 2j), even member only, undivided
    assert np.array_equal(op.rule.numerator.indptr, np.arange(0, 9, 2))
    assert np.array_equal(op.rule.numerator.indices, np.arange(8))
    assert np.array_equal(op.rule.numerator.data,
                          np.stack([np.zeros(4), 1.0 / frame.b_pair], axis=1).ravel())
    assert np.array_equal(op.rule.divisor, np.ones(4))
    for i in range(1, 9):
        assert op.rule.apply(GradedVector.canonical(i)) \
            .allclose(dual_vector(dual, i - 1), 1e-15)


def test_build_V_falls_back_to_columns():
    n = 4
    vecs = [GradedVector.canonical(i) for i in range(1, n + 1)]
    vecs[0] = GradedVector.from_pairs({1: 1.0, 2: 0.5})
    op = build_V_from_dual(stack_columns(tuple(vecs), n),
                           power_grading(2, n), power_grading(2, n),
                           IndexPlan.shifted(1, 0))
    assert op.rule.divisor is None
    assert np.array_equal(op.rule.numerator.toarray(),
                          np.column_stack([v.to_dense(n) for v in vecs]))


def test_dual_vector_beyond_truncation_rejected():
    n = 4
    dual = stack_columns((GradedVector.canonical(1), GradedVector.canonical(5)), n)
    with pytest.raises(ValueError, match="^dual vector 2 exceeds truncation$"):
        build_V_from_dual(dual, power_grading(2, n), power_grading(2, n),
                          IndexPlan.shifted(1, 0))


def test_synthesize_prefix_bounds():
    frame = alternating_diag(8, 1)
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(8), frame.b),
                             power_grading(3, 8), power_grading(3, 8),
                             IndexPlan.shifted(2, 1))
    d = analyze(frame, GradedVector.from_pairs({1: 1.0, 2: 1.0}))
    assert synthesize(op, d, 2) == GradedVector.from_pairs({1: 1.0, 2: 1.0})
    assert not np.any(synthesize(op, d, 0).values)
    with pytest.raises(ValueError):
        synthesize(op, d, 9)


def test_exf1_bound_table_is_one():
    n = 16
    frame = alternating_diag(n, 2)
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(n), frame.b),
                             power_grading(6, n), power_grading(6, n),
                             IndexPlan.shifted(3, 2))
    assert op.bounds.consts == (1.0, 1.0, 1.0, 1.0)


def test_exf2_bound_table_is_one():
    n = 8
    frame = pair_block(n, 1)
    op = synthesis_from_rule(even_pick_rule(frame), shifted_grading(3, n),
                             power_grading(3, 2 * n),
                             IndexPlan.shifted(2, 1, upper_const=SQRT2))
    for c in op.bounds.consts:
        assert c == pytest.approx(1.0, rel=1e-12)


def test_zero_rule_bound_table_rejected():
    with pytest.raises(ValueError):
        synthesis_from_rule(SequenceOperator.zero_map(4, 4), power_grading(2, 4),
                            power_grading(2, 4), IndexPlan.shifted(1, 0))


@pytest.mark.parametrize("c", [math.inf, math.nan])
def test_synthesis_op_refuses_a_non_finite_bound(c):
    with pytest.raises(ValueError, match="^synthesis bound table contains "
                                         "non-finite entries$"):
        SynthesisOp(SequenceOperator.identity(2), ContinuityData((0, 1), (1.0, c)))


# -- projections ----------------------------------------------------------------

def test_projection_identity_for_bijective_diagonal():
    n = 16
    frame = alternating_diag(n, 2)
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(n), frame.b),
                             power_grading(4, n), power_grading(4, n),
                             IndexPlan.shifted(2, 2))
    proj = projection_from_V(frame, op, power_grading(4, n))
    assert np.array_equal(proj.rule.numerator.toarray(), np.eye(n))
    assert np.array_equal(proj.rule.divisor, np.ones(n))
    assert proj.idempotence_defect == 0.0
    assert proj.continuity == (1.0,) * 5


def test_projection_even_selection_values_and_defect():
    n = 8
    frame = pair_block(n, 1)
    op = synthesis_from_rule(even_pick_rule(frame), shifted_grading(4, n),
                             power_grading(4, 2 * n),
                             IndexPlan.shifted(3, 1, upper_const=SQRT2))
    proj = projection_from_V(frame, op, power_grading(4, 2 * n))
    assert np.array_equal(proj.rule.numerator.toarray(),
                          SequenceOperator.pair_mix(0.0, 1.0, n).numerator.toarray())
    assert np.array_equal(proj.rule.divisor, np.ones(2 * n))
    assert proj.idempotence_defect == 0.0
    out = proj.apply(GradedVector.from_dense([1.0, 2.0, 3.0, 4.0]))
    assert out == GradedVector.from_dense([2.0, 2.0, 4.0, 4.0])
    assert proj.continuity[0] == pytest.approx(SQRT2, rel=1e-15)
    for c in proj.continuity:
        assert c <= SQRT2 * (1 + 1e-12)


def test_projection_fixes_analysis_range_exactly():
    frame = pair_block(16, 2)
    op = synthesis_from_rule(even_pick_rule(frame), shifted_grading(3, 16),
                             power_grading(3, 32),
                             IndexPlan.shifted(2, 2, upper_const=SQRT2))
    proj = projection_from_V(frame, op, power_grading(3, 32))
    for f in (GradedVector.from_pairs({1: 0.5, 7: 3.0}),
              GradedVector.canonical(16, -2.0)):
        d = analyze(frame, f)
        assert proj.apply(d) == d


def test_pair_average_projection_idempotent():
    frame = pair_block(8, 1)
    op = synthesis_from_rule(average_rule(frame), shifted_grading(3, 8),
                             power_grading(3, 16),
                             IndexPlan.shifted(2, 1, upper_const=SQRT2))
    proj = projection_from_V(frame, op, power_grading(3, 16))
    assert proj.idempotence_defect == 0.0
    d = GradedVector.from_dense([1.0, 3.0, 5.0, 7.0])
    assert proj.apply(proj.apply(d)) == proj.apply(d)


def test_projection_requires_left_inverse():
    frame = DiagonalFrame(np.full(4, 2.0))
    op = synthesis_from_rule(SequenceOperator.identity(4), power_grading(2, 4),
                             power_grading(2, 4),
                             IndexPlan.shifted(1, 0, upper_const=2.0))
    with pytest.raises(ValueError):
        projection_from_V(frame, op, power_grading(2, 4))


def test_projection_unequal_reader_weights_is_not_folded():
    # both functionals read coordinate 1, with weights 1 and 2: no single
    # weight per coordinate, so P = U V must be composed, not folded
    frame = DenseFrame(np.array([[1.0], [2.0]]))
    rule = SequenceOperator(np.array([[0.2, 0.4]]), np.ones(1))
    op = SynthesisOp(rule, ContinuityData((0,), (1.0,)))
    proj = projection_from_V(frame, op, power_grading(1, 2))
    assert np.allclose(proj.rule._values.toarray().real,
                       [[0.2, 0.4], [0.4, 0.8]], rtol=0.0, atol=1e-15)


def reader_average_rule(frame):
    """Reconstruct each coordinate from the mean of its readers."""
    starts = frame.reader_starts
    m = frame.functional_count
    numerator = Compressed(starts, np.arange(m), np.ones(m), (frame.truncation, m))
    return SequenceOperator(numerator, np.diff(starts) * frame.b)


@pytest.mark.parametrize("reads", [np.repeat(np.arange(700), 3),
                                   np.repeat(np.arange(1100), 1 + np.arange(1100) % 3)])
def test_projection_folds_every_coordinate_frame(reads):
    # more functionals than DENSE_LIMIT, where the dense composition and the
    # dense solve refuse: both directions must fold
    n = int(reads[-1]) + 1
    frame = CoordinateFrame(reads, 1.0 + np.arange(n) % 5)
    m = frame.functional_count
    assert m > DENSE_LIMIT
    x, theta, plan = power_grading(2, n), power_grading(2, m), IndexPlan.shifted(1, 0)
    op = synthesis_from_rule(reader_average_rule(frame), x, theta, plan)
    proj = projection_from_V(frame, op, theta)
    assert np.array_equal(proj.rule.divisor, np.ones(m))
    back = V_from_projection(frame, proj, x, theta, plan)
    assert np.array_equal(back.rule.divisor, frame.b)


@pytest.mark.parametrize("shape", ["diagonal", "block"])
def test_projection_refuses_a_short_theta_grading(shape):
    frame = alternating_diag(8, 1) if shape == "diagonal" else pair_block(8, 1)
    m = frame.functional_count
    rule = reader_average_rule(frame)
    op = synthesis_from_rule(rule, power_grading(2, 8), power_grading(1, m),
                             IndexPlan.shifted(1, 0, upper_const=2.0))
    with pytest.raises(ValueError, match="^weight tables shorter than the "
                                         "operator dimensions$"):
        projection_from_V(frame, op, power_grading(1, m - 1))


def test_projection_refuses_a_much_shorter_theta_grading_by_name():
    # a block frame read its reader hypot from a short table first and
    # raised an IndexError once a reader fell beyond it
    frame = pair_block(8, 1)
    m = frame.functional_count
    op = synthesis_from_rule(reader_average_rule(frame), power_grading(2, 8),
                             power_grading(1, m), IndexPlan.shifted(1, 0, upper_const=2.0))
    with pytest.raises(ValueError, match="^weight tables shorter than the "
                                         "operator dimensions$"):
        projection_from_V(frame, op, power_grading(1, m - 3))


class CountingTables(dict):
    """A reader-table memo that counts how often each key is stored."""

    def __init__(self):
        super().__init__()
        self.builds = Counter()

    def __setitem__(self, key, value):
        self.builds[key] += 1
        super().__setitem__(key, value)


def test_each_reader_table_is_built_once_per_frame():
    frame = pair_block(16, 1)
    n, m = frame.truncation, frame.functional_count
    tables = frame.__dict__["_reader_tables"] = CountingTables()
    x, theta = power_grading(6, n), power_grading(3, m)
    plan = IndexPlan.shifted(3, 1, lower_const=0.5, upper_const=50.0)
    samples = [GradedVector([1, 4], [1.0, -2.0]), GradedVector([7], [0.5j])]
    verify_pre_f_frame(frame, x, theta, plan, samples)
    classify_strictness(frame, x, theta, 4)
    selection = select_subsequence(plan, ContinuityData((0, 1, 3, 3), (1.0,) * 4))
    verify_selected_chain(frame, x, theta, selection, samples)
    op = synthesis_from_rule(reader_average_rule(frame), x, theta, plan)
    projection_from_V(frame, op, theta)
    dual = [GradedVector([2, 5], [1.0, 3.0])]
    first = verify_dual_expansion(frame, op, x, theta, plan, dual)
    again = verify_dual_expansion(frame, op, x, theta, plan, dual)
    assert first.rows[0].tail_bounds == again.rows[0].tail_bounds
    assert tables.builds == {(theta, k): 1 for k in range(theta.levels + 1)}


def test_equivalences_keep_the_rule_of_a_uniform_threefold_frame():
    # 2,100 functionals exceed DENSE_LIMIT: the projection folds only from
    # a rule with a divisor, so one rebuilt from the dual must keep it
    n = 700
    frame = CoordinateFrame(np.repeat(np.arange(n), 3), 1.0 + np.arange(n) % 5)
    x, theta, plan = power_grading(2, n), power_grading(2, 3 * n), IndexPlan.shifted(1, 0)
    rule = reader_average_rule(frame)
    op = synthesis_from_rule(rule, x, theta, plan)
    rebuilt = build_V_from_dual(op.rule.canonical_images, x, theta, plan)
    assert rebuilt.rule.divisor is not None
    report = verify_equivalences(frame, op, x, theta, plan)
    assert report.passed, report.notes


def test_projection_op_validation():
    with pytest.raises(ValueError):
        ProjectionOp(SequenceOperator.zero_map(2, 3), (1.0,), 0.0)
    with pytest.raises(ValueError):
        ProjectionOp(SequenceOperator.identity(2), (1.0,), 1e-6)


def test_projection_refuses_a_large_frame_it_cannot_fold():
    n = DENSE_LIMIT + 1
    # a left inverse without a divisor takes the dense composition
    op = SynthesisOp(SequenceOperator(Compressed.identity(n)), ContinuityData((0,), (1.0,)))
    with pytest.raises(ValueError, match="^truncation too large to compose a "
                                         "dense projection$"):
        projection_from_V(DiagonalFrame(np.ones(n)), op, power_grading(0, n))


def test_V_from_projection_refuses_a_large_dense_solve():
    n = DENSE_LIMIT + 1
    # a projection without a divisor is not solved row by row
    proj = ProjectionOp(SequenceOperator(Compressed.identity(n)), (1.0,), 0.0)
    with pytest.raises(ValueError, match="^truncation too large for a dense solve$"):
        V_from_projection(DiagonalFrame(np.ones(n)), proj, power_grading(0, n),
                          power_grading(0, n), IndexPlan.shifted(0, 0))


# -- reconstruction from a projection --------------------------------------------

def test_V_from_identity_projection_inverts_diagonal():
    n = 8
    frame = alternating_diag(n, 1)
    proj = ProjectionOp(SequenceOperator.identity(n), (1.0,), 0.0)
    op = V_from_projection(frame, proj, power_grading(3, n), power_grading(3, n),
                           IndexPlan.shifted(2, 1))
    for j in range(1, n + 1):
        e = GradedVector.canonical(j)
        assert op.rule.apply(analyze(frame, e)) == e


def test_V_from_even_selection_projection():
    frame = pair_block(4, 1)
    prule = SequenceOperator.pair_mix(0.0, 1.0, 4)
    proj = ProjectionOp(prule, (SQRT2,), 0.0)
    op = V_from_projection(frame, proj, shifted_grading(2, 4),
                           power_grading(2, 8),
                           IndexPlan.shifted(1, 1, upper_const=SQRT2))
    assert op.rule.apply(GradedVector.canonical(2)) == GradedVector.canonical(1)


def test_V_from_zero_projection_rejected():
    frame = alternating_diag(4, 1)
    proj = ProjectionOp(SequenceOperator.zero_map(4, 4), (1.0,), 0.0)
    with pytest.raises(ValueError):
        V_from_projection(frame, proj, power_grading(2, 4), power_grading(2, 4),
                          IndexPlan.shifted(1, 0))


def test_V_from_dense_projection_solves_golden():
    frame = DenseFrame(np.array([[1.0, 1.0], [0.0, 1.0]]))
    proj = ProjectionOp(SequenceOperator.identity(2), (1.0,), 0.0)
    op = V_from_projection(frame, proj, power_grading(2, 2), power_grading(2, 2),
                           IndexPlan.shifted(1, 0, upper_const=GOLDEN))
    assert op.rule.divisor is None
    assert np.allclose(op.rule.numerator.toarray(), [[1.0, -1.0], [0.0, 1.0]],
                       atol=1e-12)
    assert op.bounds.consts[0] == pytest.approx(GOLDEN, rel=1e-12)


def test_V_from_non_commuting_projection_rejected():
    frame = DenseFrame(np.array([[1.0, 1.0], [0.0, 1.0]]))
    proj = ProjectionOp(SequenceOperator.dense(np.array([[1.0, 0.0], [0.0, 0.0]])),
                        (1.0,), 0.0)
    with pytest.raises(ValueError):
        V_from_projection(frame, proj, power_grading(1, 2), power_grading(1, 2),
                          IndexPlan.shifted(0, 0, upper_const=2.0))


def test_V_from_projection_outside_range_rejected():
    frame = DenseFrame(np.array([[1.0], [0.0]]))
    proj = ProjectionOp(SequenceOperator.identity(2), (1.0,), 0.0)
    with pytest.raises(ValueError):
        V_from_projection(frame, proj, power_grading(1, 1), power_grading(1, 2),
                          IndexPlan.shifted(0, 0))


@pytest.mark.parametrize("s", [1.0, 1e100, 1e200])
def test_V_from_projection_outside_range_names_the_residual_at_any_scale(s):
    # at 1e200 the unscaled Frobenius norm of P overflows
    frame = DenseFrame(np.array([[1.0], [0.0]]))
    proj = ProjectionOp(SequenceOperator.dense(s * np.eye(2)), (1.0,), 0.0)
    with pytest.raises(ValueError, match=r"^projection output leaves the analysis "
                                         r"range \(relative residual 0\.707\)$"):
        V_from_projection(frame, proj, power_grading(1, 1), power_grading(1, 2),
                          IndexPlan.shifted(0, 0))


@pytest.mark.parametrize("frame", [
    DenseFrame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])),
    DiagonalFrame(np.ones(3)),
], ids=["dense", "diagonal"])
@pytest.mark.parametrize("size", [2, 4])
def test_V_from_projection_refuses_mis_sized_projection(frame, size):
    proj = ProjectionOp(SequenceOperator.identity(size), (1.0,), 0.0)
    with pytest.raises(ValueError, match="^projection maps %d coefficients to %d, "
                                         "the frame has 3 functionals$" % (size, size)):
        V_from_projection(frame, proj, power_grading(1, 3), power_grading(1, 4),
                          IndexPlan.shifted(0, 0))


# -- expansion verification -------------------------------------------------------

def exf1_setup(n, r, levels):
    frame = alternating_diag(n, r)
    x = power_grading(levels + r, n)
    theta = power_grading(levels, n)
    plan = IndexPlan.shifted(levels, r)
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(n), frame.b),
                             x, theta, plan)
    return frame, x, theta, plan, op


def test_expansion_profile_frozen_example():
    frame, x, theta, plan, op = exf1_setup(16, 1, 1)
    f = GradedVector.from_pairs({1: 1.0, 2: 1.0})
    report = verify_expansion(frame, op, x, theta, plan, [f], n_grid=(0, 1, 2, 3))
    assert report.passed
    row0 = report.row(0, 0)
    assert row0.profile == (SQRT2, 1.0, 0.0, 0.0)
    assert row0.tail_bounds == (2.23606797749979, 2.0, 0.0, 0.0)
    row1 = report.row(0, 1)
    assert row1.profile == (2.23606797749979, 2.0, 0.0, 0.0)
    assert row1.tail_bounds == (4.123105625617661, 4.0, 0.0, 0.0)
    assert row1.zero_from == 2
    with pytest.raises(KeyError) as err:
        report.row(1, 0)
    assert err.value.args == ((1, 0),)


def test_expansion_exact_zero_beyond_support():
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    report = verify_expansion(frame, op, x, theta, plan,
                              [GradedVector.canonical(5)])
    assert report.passed
    for k in range(plan.budget + 1):
        row = report.row(0, k)
        assert row.support == 5
        assert row.zero_from == 5
        assert all(v == 0.0 for n, v in zip(row.grid, row.profile) if n >= 5)
        assert all(v > 0.0 for n, v in zip(row.grid, row.profile) if n < 5)


def test_expansion_profile_monotone_for_dyadic_samples():
    frame, x, theta, plan, op = exf1_setup(32, 1, 3)
    rng = np.random.default_rng(3)
    samples = []
    for _ in range(5):
        idx = np.sort(rng.choice(np.arange(1, 33), size=6, replace=False))
        vals = rng.integers(-8, 9, size=6) / 16.0
        samples.append(GradedVector(idx, vals + 0j))
    report = verify_expansion(frame, op, x, theta, plan, samples)
    assert report.passed
    for row in report.rows:
        for a, b in zip(row.profile, row.profile[1:]):
            assert b <= a * (1 + 1e-12)


def test_expansion_flags_understated_bound():
    frame, x, theta, _, op = exf1_setup(16, 1, 1)
    tight = IndexPlan((0, 1), (1, 2), (0.25, 0.25), (0.25, 0.25))
    report = verify_expansion(frame, op, x, theta, tight,
                              [GradedVector.canonical(2)], n_grid=(0, 1, 2))
    assert not report.passed


def test_block_expansion_exact_zero():
    n = 8
    frame = pair_block(n, 1)
    x = shifted_grading(3, n)
    theta = power_grading(2, 2 * n)
    plan = IndexPlan.shifted(2, 1, upper_const=SQRT2)
    op = synthesis_from_rule(even_pick_rule(frame), x, theta, plan)
    f = GradedVector.from_pairs({1: 0.75, 3: -1.5})
    report = verify_expansion(frame, op, x, theta, plan, [f])
    assert report.passed
    row = report.row(0, 0)
    assert row.support == 6
    assert row.zero_from == 6


# -- dual expansion ----------------------------------------------------------------

def test_dual_expansion_frozen_example():
    frame, x, theta, plan0, op = exf1_setup(16, 2, 1)
    gamma = GradedVector(np.arange(1, 6),
                         frame.b[:5] * np.array([1.0, 0.5, 0.25, 2.0, 1.0]))
    report = verify_dual_expansion(frame, op, x, theta, plan0, [gamma],
                                   n_grid=tuple(range(7)))
    assert report.passed
    row0 = report.row(0, 0)
    assert row0.profile == (2.2918053156710916, 2.062127931273487,
                            2.0005928133776427, 2.000399960007998,
                            0.04, 0.0, 0.0)
    assert row0.tail_bounds == (2.5124689052802225, 2.3048861143232218,
                                2.25, 2.23606797749979, 1.0, 0.0, 0.0)
    row1 = report.row(0, 1)
    assert row1.profile == pytest.approx(
        (1.1457092710989252, 0.5591509043916769, 0.5001497114685064,
         0.5000639959045242, 0.008, 0.0, 0.0), rel=1e-12, abs=0.0)
    assert row1.profile[5:] == (0.0, 0.0)
    assert row1.zero_from == 5


def test_dual_expansion_coordinate_functional():
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    report = verify_dual_expansion(frame, op, x, theta, plan,
                                   [GradedVector.canonical(2)])
    assert report.passed
    for k in range(plan.budget + 1):
        assert report.row(0, k).zero_from == 2


def test_dual_expansion_zero_functional():
    frame, x, theta, plan, op = exf1_setup(16, 2, 1)
    report = verify_dual_expansion(frame, op, x, theta, plan,
                                   [GradedVector.zero()])
    assert report.passed
    assert report.row(0, 0).profile[0] == 0.0


def test_block_dual_expansion_exact_zero():
    n = 8
    frame = pair_block(n, 1)
    x = shifted_grading(3, n)
    theta = power_grading(2, 2 * n)
    plan = IndexPlan.shifted(2, 1, upper_const=SQRT2)
    op = synthesis_from_rule(even_pick_rule(frame), x, theta, plan)
    gamma = GradedVector(np.arange(1, 4), frame.b_pair[:3] * np.array([1.0, 0.5, 2.0]))
    report = verify_dual_expansion(frame, op, x, theta, plan, [gamma])
    assert report.passed
    assert report.row(0, 0).zero_from == 6


@pytest.mark.parametrize("short", ["x", "theta"])
def test_dual_expansion_refuses_a_short_grading(short):
    frame, x, theta, plan, op = exf1_setup(16, 2, 1)
    if short == "x":
        x = power_grading(x.levels, 15)
    else:
        theta = power_grading(theta.levels, 15)
    with pytest.raises(TruncationError,
                       match="^coordinate 16 beyond truncation 15$"):
        verify_dual_expansion(frame, op, x, theta, plan, [GradedVector.canonical(2)])


@pytest.mark.parametrize("verify", [verify_expansion, verify_dual_expansion],
                         ids=["primal", "dual"])
def test_expansion_rows_by_sample_then_level_on_the_default_grid(verify):
    frame, x, theta, plan, op = exf1_setup(16, 1, 2)
    samples = [GradedVector.canonical(3), GradedVector.zero(),
               GradedVector.from_pairs({2: 0.5, 9: -1.0})]
    report = verify(frame, op, x, theta, plan, samples)
    assert report.passed
    assert [(row.sample, row.level) for row in report.rows] \
        == [(s, k) for s in range(3) for k in range(plan.budget + 1)]
    assert [row.support for row in report.rows[::plan.budget + 1]] == [3, 0, 9]
    for row in report.rows:
        assert row.grid == tuple(range(min(row.support + 8, 16) + 1))
        assert len(row.profile) == len(row.tail_bounds) == len(row.grid)


def test_integer_weight_exact_for_reconstruction_not_for_dual():
    # 14 is an integer weight but no power of two: (14 f) / 14 gives the
    # dyadic f back exactly, 14 (g / 14) misses the dyadic g by an ulp, and
    # a rule with a divisor allows no residual past the support
    frame, x, theta, plan, op = exf1_setup(16, 1, 1)
    v = GradedVector.canonical(14, 1.8125)
    primal = verify_expansion(frame, op, x, theta, plan, [v])
    assert primal.passed
    assert all(row.zero_from == 14 for row in primal.rows)
    dual = verify_dual_expansion(frame, op, x, theta, plan, [v])
    assert not dual.passed
    for row in dual.rows:
        assert row.zero_from is None
        assert all(0.0 < r < 1e-16 for n, r in zip(row.grid, row.profile) if n >= 14)


# -- equivalence round trip -----------------------------------------------------

def test_equivalences_from_V_diagonal():
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    report = verify_equivalences(frame, op, x, theta, plan)
    assert report.passed
    # P is composed from the op's own rule, (b_j * 1) / b_j, so the folded
    # diagonal is exactly 1
    assert report.projection.idempotence_defect == 0.0
    assert report.bound_tables == ((1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


def test_equivalences_flag_a_wrong_bound_table_level():
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    consts = list(op.bounds.consts)
    consts[1] *= 2.0
    wrong = SynthesisOp(op.rule, ContinuityData(op.bounds.theta_levels, consts))
    report = verify_equivalences(frame, wrong, x, theta, plan)
    assert not report.passed
    assert report.notes == ("bound table mismatch at level 1",)
    assert report.bound_tables == (tuple(consts), op.bounds.consts)


def test_equivalences_flag_the_table_of_another_plan():
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    # V'' = V here, bit for bit, so only the plan can tell the tables apart
    other = IndexPlan((0, 1, 3), plan.upper_levels, plan.lower_consts,
                      plan.upper_consts)
    report = verify_equivalences(frame, op, x, theta, other)
    assert not report.passed
    assert report.notes == ("bound table mismatch at level 2",)
    assert report.bound_tables == (op.bounds.consts,
                                   synthesis_from_rule(op.rule, x, theta,
                                                       other).bounds.consts)


def test_equivalences_reuse_only_a_table_built_from_their_inputs(monkeypatch):
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    calls = Counter()
    table = reconstruction._bound_table

    def counted(*args):
        calls["tables"] += 1
        return table(*args)

    monkeypatch.setattr(reconstruction, "_bound_table", counted)
    assert verify_equivalences(frame, op, x, theta, plan).passed
    assert calls["tables"] == 0
    # a hand-built op never stands for V'', even with V's own table
    verify_equivalences(frame, SynthesisOp(op.rule, op.bounds), x, theta, plan)
    assert calls["tables"] == 1


def test_equivalences_from_projection_even_selection():
    n = 8
    frame = pair_block(n, 1)
    x = shifted_grading(3, n)
    theta = power_grading(3, 2 * n)
    plan = IndexPlan.shifted(2, 1, upper_const=SQRT2)
    proj = ProjectionOp(SequenceOperator.pair_mix(0.0, 1.0, n), (SQRT2,), 0.0)
    report = verify_equivalences(frame, V_from_projection(frame, proj, x, theta, plan),
                                 x, theta, plan)
    assert report.passed
    for table in report.bound_tables[1:]:
        for a, b in zip(report.bound_tables[0], table):
            assert b == pytest.approx(a, rel=1e-9)


def test_equivalences_average_projection_recovers_equal_pair_dual():
    n = 6
    frame = pair_block(n, 1)
    x = shifted_grading(2, n)
    theta = power_grading(2, 2 * n)
    plan = IndexPlan.shifted(1, 1, upper_const=SQRT2)
    proj = ProjectionOp(SequenceOperator.pair_mix(0.5, 0.5, n), (1.0,), 0.0)
    op = V_from_projection(frame, proj, x, theta, plan)
    for j in range(1, n + 1):
        odd = dual_vector(op.rule.canonical_images, 2 * j - 2)
        even = dual_vector(op.rule.canonical_images, 2 * j - 1)
        assert odd == even
        assert odd == GradedVector.canonical(j, 0.5 / frame.b_pair[j - 1])
    report = verify_equivalences(frame, op, x, theta, plan)
    assert report.passed


def test_equivalences_from_dual_identity():
    n = 8
    frame = DiagonalFrame(np.ones(n))
    x = power_grading(3, n)
    theta = power_grading(3, n)
    plan = IndexPlan.shifted(2, 0)
    dual = stack_columns(
        tuple(GradedVector.canonical(i) for i in range(1, n + 1)), n)
    report = verify_equivalences(frame, build_V_from_dual(dual, x, theta, plan),
                                 x, theta, plan)
    assert report.passed
    for table in report.bound_tables:
        assert table == (1.0, 1.0, 1.0)


def invariant_cases():
    """name -> (frame, x, theta, plan, op, refusal) for ops from every
    SynthesisOp constructor; a refusal of None marks a round trip that
    passes."""
    unit = (DiagonalFrame(np.ones(4)), power_grading(2, 4), power_grading(2, 4),
            IndexPlan.shifted(1, 0))
    diag = (alternating_diag(8, 2), power_grading(4, 8), power_grading(2, 8),
            IndexPlan.shifted(2, 2))
    block = (pair_block(8, 1), shifted_grading(3, 8), power_grading(2, 16),
             IndexPlan.shifted(2, 1, upper_const=SQRT2))
    g = np.array([[1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    dense = (DenseFrame(g), power_grading(1, 2), power_grading(1, 3),
             IndexPlan.shifted(1, 0, upper_const=2.0))

    def from_rule(setting, rule, refusal=None):
        return (*setting, synthesis_from_rule(rule, *setting[1:]), refusal)

    def from_dual(vectors, refusal=None):
        dual = stack_columns(vectors, 4)
        return (*unit, build_V_from_dual(dual, *unit[1:]), refusal)

    def from_projection(setting, prule):
        proj = ProjectionOp(prule, (1.0,), 0.0)
        return (*setting, V_from_projection(setting[0], proj, *setting[1:]), None)

    stored_zero = [GradedVector([1, 2], [1.0, 0.0])] \
        + [GradedVector.canonical(i) for i in range(2, 5)]
    complex_entry = [GradedVector.canonical(i, 1j if i == 2 else 1.0) for i in range(1, 5)]
    return {
        "rule-diagonal": from_rule(diag, SequenceOperator.diagonal(np.ones(8), diag[0].b)),
        "rule-pair-collapse": from_rule(block, even_pick_rule(block[0])),
        "rule-dense": from_rule(dense, SequenceOperator.dense(np.linalg.pinv(g))),
        "dual-stored-zero": from_dual(stored_zero),
        "dual-complex": from_dual(complex_entry, "not a left inverse at coordinate 2"),
        "projection-pair-mix-average": from_projection(
            block, SequenceOperator.pair_mix(0.5, 0.5, 8)),
        "projection-dense-lstsq": from_projection(
            dense, SequenceOperator.dense(g @ np.linalg.pinv(g))),
    }


def assert_same_arrays(got, want):
    assert got.shape == want.shape
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def applied_images(rule):
    """Row i holds apply(e_{i+1}) with its zero entries dropped, one
    canonical vector at a time."""
    rows, cols, values = [], [], []
    for i in range(rule.in_dim):
        col = rule.apply(GradedVector.canonical(i + 1))
        keep = col.values != 0
        rows += [i] * int(keep.sum())
        cols += list(col.indices[keep] - 1)
        values += list(col.values[keep])
    return Compressed.from_triplets(rows, np.array(cols, dtype=np.int64),
                                    np.array(values, dtype=np.complex128),
                                    (rule.in_dim, rule.out_dim))


@pytest.mark.parametrize("name", list(invariant_cases()))
def test_every_dual_is_its_rules_canonical_images(name):
    frame, x, theta, plan, op, refusal = invariant_cases()[name]
    images = applied_images(op.rule)
    assert_same_arrays(build_dual_from_V(op.rule), images)
    assert_same_arrays(op.rule.canonical_images, images)
    assert op.rule.canonical_images.shape == (op.rule.in_dim, op.rule.out_dim)
    if name == "dual-complex":
        assert op.rule.divisor is None
    if refusal is None:
        report = verify_equivalences(frame, op, x, theta, plan)
        assert report.passed, report.notes
        prule = report.projection.rule
        assert_same_arrays(prule.canonical_images, applied_images(prule))
    else:
        with pytest.raises(ValueError, match=refusal):
            verify_equivalences(frame, op, x, theta, plan)


# -- norm contraction property for the even-selection projection -------------------

def test_even_selection_projection_contracts_within_sqrt2():
    n = 64
    frame = pair_block(n, 1)
    theta = power_grading(3, 2 * n)
    op = synthesis_from_rule(even_pick_rule(frame), shifted_grading(3, n), theta,
                             IndexPlan.shifted(2, 1, upper_const=SQRT2))
    proj = projection_from_V(frame, op, theta)
    rng = np.random.default_rng(21)
    for _ in range(50):
        d = GradedVector.from_dense(rng.normal(size=2 * n))
        for s in range(4):
            lhs = graded_norm(proj.apply(d), theta, s)
            rhs = graded_norm(d, theta, s)
            assert lhs <= SQRT2 * rhs * (1 + 1e-12)
