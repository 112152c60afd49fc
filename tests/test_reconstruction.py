import math

import numpy as np
import pytest
import scipy.sparse as sp

from gradedframes.frames import (
    DENSE_LIMIT,
    BlockFrame,
    CoordinateFrame,
    DenseFrame,
    DiagonalFrame,
    analyze,
)
from gradedframes.gradings import GradedVector, WeightGrading, graded_norm
from gradedframes.multilevel import ContinuityData, IndexPlan
from gradedframes.reconstruction import (
    DualSystem,
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


def test_identity_and_zero_apply():
    v = GradedVector.from_pairs({1: 1.0, 3: -2.0})
    assert SequenceOperator.identity(4).apply(v) == v
    assert SequenceOperator.zero_map(4, 4).apply(v).is_zero()


def test_diagonal_apply_divides_exactly():
    rule = SequenceOperator.diagonal(np.ones(4), np.array([1.0, 2.0, 1.0, 4.0]))
    out = rule.apply(GradedVector.from_pairs({2: 2.0, 4: 4.0}))
    assert out == GradedVector.from_pairs({2: 1.0, 4: 1.0})


def test_pair_collapse_even_selection():
    rule = even_pick_rule(pair_block(4, 1))
    assert rule.apply(GradedVector.canonical(2)) == GradedVector.canonical(1)
    assert rule.apply(GradedVector.canonical(1)).trim().is_zero()


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
    rule = SequenceOperator.from_columns(cols, 2)
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


def test_pair_collapse_norm_matches_dense_svd():
    rng = np.random.default_rng(7)
    n = 6
    rule = SequenceOperator.pair_collapse(rng.uniform(0.5, 2.0, n),
                                          rng.uniform(0.5, 2.0, n),
                                          rng.uniform(0.5, 2.0, n))
    ow = rng.uniform(0.5, 3.0, n)
    iw = rng.uniform(0.5, 3.0, 2 * n)
    mat = np.zeros((n, 2 * n))
    for j in range(n):
        mat[j, 2 * j] = rule.numerator[j, 2 * j] / rule.divisor[j]
        mat[j, 2 * j + 1] = rule.numerator[j, 2 * j + 1] / rule.divisor[j]
    dense = float(np.linalg.svd((ow[:, None] * mat) / iw[None, :],
                                compute_uv=False)[0])
    assert rule.weighted_norm(ow, iw) == pytest.approx(dense, rel=1e-12)


def test_pair_mix_norm_matches_dense_svd():
    rng = np.random.default_rng(11)
    n = 5
    rule = SequenceOperator.pair_mix(rng.uniform(-1.0, 1.0, n),
                                     rng.uniform(-1.0, 1.0, n), n)
    ow = rng.uniform(0.5, 3.0, 2 * n)
    mat = np.zeros((2 * n, 2 * n))
    for j in range(n):
        mat[2 * j, 2 * j] = mat[2 * j + 1, 2 * j] = rule.numerator[2 * j, 2 * j]
        mat[2 * j, 2 * j + 1] = mat[2 * j + 1, 2 * j + 1] = \
            rule.numerator[2 * j, 2 * j + 1]
    iw = rng.uniform(0.5, 3.0, 2 * n)
    dense = float(np.linalg.svd((ow[:, None] * mat) / iw[None, :],
                                compute_uv=False)[0])
    assert rule.weighted_norm(ow, iw) == pytest.approx(dense, rel=1e-12)


def test_short_weight_table_rejected():
    with pytest.raises(ValueError):
        SequenceOperator.identity(8).weighted_norm(np.ones(4), np.ones(8))


# -- dual systems and synthesis -------------------------------------------------

def test_dual_from_even_selection_rule():
    frame = pair_block(3, 1)
    dual = build_dual_from_V(even_pick_rule(frame))
    assert len(dual) == 6
    assert dual[0].trim().is_zero()
    assert dual[1] == GradedVector.canonical(1)
    assert dual[3] == GradedVector.canonical(2, 1.0 / frame.b_pair[1])


def test_build_V_from_canonical_dual_is_identity_table():
    n = 8
    x = power_grading(4, n)
    theta = power_grading(4, n)
    plan = IndexPlan.shifted(3, 0)
    dual = DualSystem.from_vectors(
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
    dual = DualSystem.from_vectors(
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
            .allclose(dual[i - 1], 1e-15)


def test_build_V_falls_back_to_columns():
    n = 4
    vecs = [GradedVector.canonical(i) for i in range(1, n + 1)]
    vecs[0] = GradedVector.from_pairs({1: 1.0, 2: 0.5})
    op = build_V_from_dual(DualSystem.from_vectors(tuple(vecs), n),
                           power_grading(2, n), power_grading(2, n),
                           IndexPlan.shifted(1, 0))
    assert op.rule.divisor is None
    assert np.array_equal(op.rule.numerator.toarray(),
                          np.column_stack([v.to_dense(n) for v in vecs]))


def test_dual_vector_beyond_truncation_rejected():
    with pytest.raises(ValueError):
        DualSystem.from_vectors((GradedVector.canonical(5),), 4)


def test_synthesize_prefix_bounds():
    frame = alternating_diag(8, 1)
    op = synthesis_from_rule(SequenceOperator.diagonal(np.ones(8), frame.b),
                             power_grading(3, 8), power_grading(3, 8),
                             IndexPlan.shifted(2, 1))
    d = analyze(frame, GradedVector.from_pairs({1: 1.0, 2: 1.0})).coefficients
    assert synthesize(op, d, 2) == GradedVector.from_pairs({1: 1.0, 2: 1.0})
    assert synthesize(op, d, 0).is_zero()
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
        d = analyze(frame, f).coefficients
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
    op = SynthesisOp(rule, build_dual_from_V(rule), ContinuityData((0,), (1.0,)))
    proj = projection_from_V(frame, op, power_grading(1, 2))
    assert np.allclose(proj.rule.apply_columns(np.eye(2)).toarray().real,
                       [[0.2, 0.4], [0.4, 0.8]], rtol=0.0, atol=1e-15)


def reader_average_rule(frame):
    """Reconstruct each coordinate from the mean of its readers."""
    starts = frame.reader_starts
    m = frame.functional_count
    numerator = sp.csr_matrix((np.ones(m), np.arange(m), starts),
                              shape=(frame.truncation, m))
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


def test_equivalences_keep_the_rule_of_a_uniform_threefold_frame():
    # 2,100 functionals exceed DENSE_LIMIT: the rule rebuilt from the dual
    # must keep its divisor so that the projection folds
    n = 700
    frame = CoordinateFrame(np.repeat(np.arange(n), 3), 1.0 + np.arange(n) % 5)
    x, theta, plan = power_grading(2, n), power_grading(2, 3 * n), IndexPlan.shifted(1, 0)
    rule = reader_average_rule(frame)
    op = synthesis_from_rule(rule, x, theta, plan)
    rebuilt = build_V_from_dual(op.dual, x, theta, plan)
    assert rebuilt.rule.divisor is not None
    report = verify_equivalences(frame, x, theta, plan, "V", rule)
    assert report.passed, report.notes


def test_projection_op_validation():
    with pytest.raises(ValueError):
        ProjectionOp(SequenceOperator.zero_map(2, 3), (1.0,), 0.0)
    with pytest.raises(ValueError):
        ProjectionOp(SequenceOperator.identity(2), (1.0,), 1e-6)


# -- reconstruction from a projection --------------------------------------------

def test_V_from_identity_projection_inverts_diagonal():
    n = 8
    frame = alternating_diag(n, 1)
    proj = ProjectionOp(SequenceOperator.identity(n), (1.0,), 0.0)
    op = V_from_projection(frame, proj, power_grading(3, n), power_grading(3, n),
                           IndexPlan.shifted(2, 1))
    for j in range(1, n + 1):
        e = GradedVector.canonical(j)
        assert op.rule.apply(analyze(frame, e).coefficients) == e


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


# -- equivalence round trip -----------------------------------------------------

def test_equivalences_from_V_diagonal():
    frame, x, theta, plan, op = exf1_setup(16, 2, 2)
    report = verify_equivalences(frame, x, theta, plan, "V", op)
    assert report.passed
    assert report.canonical_match and report.left_inverse_ok
    # the rebuilt dual stores 1/b_j, so the folded diagonal is one ulp off 1
    assert report.idempotence_defect <= 1e-15
    for table in report.bound_tables:
        assert table == (1.0, 1.0, 1.0)


def test_equivalences_from_projection_even_selection():
    n = 8
    frame = pair_block(n, 1)
    x = shifted_grading(3, n)
    theta = power_grading(3, 2 * n)
    plan = IndexPlan.shifted(2, 1, upper_const=SQRT2)
    proj = ProjectionOp(SequenceOperator.pair_mix(0.0, 1.0, n), (SQRT2,), 0.0)
    report = verify_equivalences(frame, x, theta, plan, "projection", proj)
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
        odd = op.dual[2 * j - 2]
        even = op.dual[2 * j - 1]
        assert odd == even
        assert odd == GradedVector.canonical(j, 0.5 / frame.b_pair[j - 1])
    report = verify_equivalences(frame, x, theta, plan, "projection", proj)
    assert report.passed


def test_equivalences_from_dual_identity():
    n = 8
    frame = DiagonalFrame(np.ones(n))
    x = power_grading(3, n)
    theta = power_grading(3, n)
    plan = IndexPlan.shifted(2, 0)
    dual = DualSystem.from_vectors(
        tuple(GradedVector.canonical(i) for i in range(1, n + 1)), n)
    report = verify_equivalences(frame, x, theta, plan, "dual", dual)
    assert report.passed
    for table in report.bound_tables:
        assert table == (1.0, 1.0, 1.0)


def test_equivalences_unknown_source_kind():
    frame, x, theta, plan, op = exf1_setup(8, 1, 1)
    with pytest.raises(ValueError):
        verify_equivalences(frame, x, theta, plan, "matrix", op)


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
