import re

import numpy as np
import pytest

from gradedframes.frames import (
    BlockFrame,
    CoordinateFrame,
    DenseFrame,
    DiagonalFrame,
    FrameBounds,
    FrameFormError,
    analyze,
    analysis_norm,
    coanalyze,
    frame_bounds_analytic,
    frame_bounds_numeric,
    runo_demo,
)
from gradedframes.gradings import (
    GradedVector,
    LevelError,
    TruncationError,
    WeightGrading,
    graded_norm,
)

SQRT2 = 1.4142135623730951


def alternating_diag(n, r):
    """Odd coordinates pass through, even ones are scaled by j**r."""
    j = np.arange(1, n + 1)
    return DiagonalFrame(np.where(j % 2 == 1, 1.0, j.astype(float) ** r))


def pair_block(n, r):
    """Pair weight 1 at odd pair indices, (2j)**r at even ones."""
    j = np.arange(1, n + 1)
    return BlockFrame(np.where(j % 2 == 1, 1.0, (2.0 * j) ** r))


def power_grading(levels, truncation):
    return WeightGrading("power", levels, truncation)


def shifted_grading(levels, truncation):
    return WeightGrading("shifted_power", levels, truncation, shift=2)


# -- construction ------------------------------------------------------------

def test_diagonal_rejects_nonpositive_weight():
    with pytest.raises(ValueError):
        DiagonalFrame(np.array([1.0, 0.0, 2.0]))


def test_block_rejects_negative_weight():
    with pytest.raises(ValueError):
        BlockFrame(np.array([1.0, -2.0]))


def test_dense_rejects_nonfinite():
    with pytest.raises(ValueError):
        DenseFrame(np.array([[1.0, np.inf], [0.0, 1.0]]))


@pytest.mark.parametrize("build,name", [
    (lambda: CoordinateFrame(np.array([0, 1]), np.array([1.0, 2.0 + 1.0j])), "b"),
    (lambda: DenseFrame(np.array([[1, 1j], [0, 1]])), "matrix"),
], ids=["coordinate-b", "dense-matrix"])
def test_complex_frame_data_is_refused_not_made_real(build, name):
    # a cast to float would keep the real parts: b = [1, 2], the identity
    with pytest.raises(ValueError, match="^%s must be real, not complex$" % name):
        build()


def test_counts():
    assert alternating_diag(8, 1).functional_count == 8
    blk = pair_block(8, 1)
    assert blk.functional_count == 16
    assert blk.truncation == 8
    assert DenseFrame(np.eye(3)).functional_count == 3


@pytest.mark.parametrize("frame", [
    DiagonalFrame([1.0, 4.0, 0.5, 3.0]),
    BlockFrame([2.0, 1.0, 8.0]),
    CoordinateFrame(np.array([0, 0, 0, 1, 2, 2]), [1.0, 2.0, 0.25]),
    DenseFrame([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0], [3.0, 0.5, 0.0]]),
], ids=["diagonal", "block", "uneven", "dense"])
def test_coefficient_columns_are_the_transposed_rows(frame):
    got, want = frame.coefficient_columns(), frame.coefficient_rows().T
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_coordinate_frame_rejects_unsorted_reads():
    with pytest.raises(ValueError, match="nondecreasing"):
        CoordinateFrame(np.array([0, 1, 0]), np.ones(2))


@pytest.mark.parametrize("reads,coordinate", [([0, 0, 2], 2), ([1, 1, 2], 1)])
def test_coordinate_frame_rejects_unread_coordinate(reads, coordinate):
    # coordinates count from 1, as in the weight message
    with pytest.raises(ValueError, match="^coordinate %d has no reader$" % coordinate):
        CoordinateFrame(np.array(reads), np.ones(3))


@pytest.mark.parametrize("reads", [[0, 1, 2], [-1, 0, 1]])
def test_coordinate_frame_rejects_reads_out_of_range(reads):
    with pytest.raises(ValueError, match="must lie in"):
        CoordinateFrame(np.array(reads), np.ones(2))


# -- analyze -----------------------------------------------------------------

def test_analyze_diagonal_single_coordinate():
    frame = DiagonalFrame(np.array([1.0, 2.0, 1.0, 4.0]))
    out = analyze(frame, GradedVector.canonical(2))
    assert out == GradedVector.canonical(2, 2.0)


def test_analyze_block_duplicates_pair():
    out = analyze(pair_block(4, 1), GradedVector.canonical(1))
    assert out == GradedVector.from_pairs({1: 1.0, 2: 1.0})


def test_analyze_block_uses_pair_weight():
    out = analyze(pair_block(4, 1), GradedVector.canonical(2, 3.0))
    assert out == GradedVector.from_pairs({3: 12.0, 4: 12.0})


def test_analyze_dense_identity_is_identity():
    f = GradedVector.from_pairs({1: 0.5, 3: -2.0})
    out = analyze(DenseFrame(np.eye(4)), f)
    assert out == f


def test_analyze_rejects_support_beyond_truncation():
    with pytest.raises(ValueError):
        analyze(alternating_diag(4, 1), GradedVector.canonical(5))


def test_analyze_linear_on_dyadic_inputs():
    frame = alternating_diag(16, 2)
    f = GradedVector.from_pairs({1: 0.25, 4: 1.5})
    g = GradedVector.from_pairs({4: 0.75, 9: -2.0})
    lhs = analyze(frame, f * 2.0 + g)
    rhs = analyze(frame, f) * 2.0 + analyze(frame, g)
    assert lhs == rhs


# -- analytic bounds -----------------------------------------------------------

def test_analytic_alternating_r2_is_tight():
    frame = alternating_diag(64, 2)
    w = power_grading(4, 64)
    got = frame_bounds_analytic(frame, w, 0, w, 0, 2)
    assert got.lower == 1.0
    assert got.upper == 1.0
    assert got.witness_lower == 1
    # the maximum is attained at j=1 and every even coordinate; smallest wins
    assert got.witness_upper == 1


def test_analytic_unit_diagonal_isometry():
    frame = DiagonalFrame(np.ones(32))
    w = power_grading(3, 32)
    got = frame_bounds_analytic(frame, w, 2, w, 2, 2)
    assert got.lower == 1.0 and got.upper == 1.0


def test_analytic_block_r1_gives_sqrt2():
    frame = pair_block(16, 1)
    theta = power_grading(2, 32)
    x = shifted_grading(2, 16)
    got = frame_bounds_analytic(frame, theta, 0, x, 0, 1)
    assert abs(got.lower - SQRT2) < 1e-12
    assert abs(got.upper - SQRT2) < 1e-12
    assert got.witness_lower == 1
    assert got.witness_upper == 2


def test_analytic_rejects_dense_form():
    # a dense frame has no reader tables: the analytic route refuses it
    w = power_grading(2, 4)
    with pytest.raises(FrameFormError, match="need a coordinate frame"):
        frame_bounds_analytic(DenseFrame(np.eye(4)), w, 0, w, 0, 1)
    assert not hasattr(DenseFrame(np.eye(4)), "reader_hypot")


def test_analytic_rejects_dominance_violation():
    frame = alternating_diag(8, 1)
    w = power_grading(3, 8)
    with pytest.raises(ValueError):
        frame_bounds_analytic(frame, w, 0, w, 2, 0)


@pytest.mark.parametrize("shape", ["diagonal", "block"])
def test_analytic_refuses_short_gradings(shape):
    # n coordinates, m functionals: every full-length weight read must refuse
    # a grading that stops one short, naming the coordinate it lacks
    frame = alternating_diag(8, 1) if shape == "diagonal" else pair_block(8, 1)
    n, m = frame.truncation, frame.functional_count
    x, theta = power_grading(3, n), power_grading(2, m)
    short_x, short_theta = power_grading(3, n - 1), power_grading(2, m - 1)
    for args, size in [((theta, 0, short_x, 0, 1), n),
                       ((theta, 0, x, 0, 1, short_x), n),
                       ((short_theta, 0, x, 0, 1), m)]:
        with pytest.raises(TruncationError, match="^coordinate %d beyond "
                                                  "truncation %d$" % (size, size - 1)):
            frame_bounds_analytic(frame, *args)


def test_bounds_type_rejects_inverted_pair():
    with pytest.raises(ValueError):
        FrameBounds(2.0, 1.0, 1, 1)


# -- (X1, Θ, X2) frames -----------------------------------------------------------
# The lower side reads X1 = power weights j^s, the upper side X2 = (2j)^t.

@pytest.mark.parametrize("frame", [alternating_diag(64, 2), pair_block(64, 1)],
                         ids=["diagonal", "block"])
@pytest.mark.parametrize("k,s,t", [(0, 0, 1), (1, 1, 1), (2, 0, 2)])
def test_two_x_gradings_analytic_matches_numeric(frame, k, s, t):
    theta = power_grading(2, frame.functional_count)
    x1, x2 = power_grading(2, 64), shifted_grading(2, 64)
    ana = frame_bounds_analytic(frame, theta, k, x1, s, t, x_upper=x2)
    num = frame_bounds_numeric(frame, theta, k, x1, s, t, x_upper=x2)
    assert ana.lower == pytest.approx(num.lower, rel=1e-9)
    assert ana.upper == pytest.approx(num.upper, rel=1e-9)


@pytest.mark.parametrize("frame", [alternating_diag(64, 2), pair_block(64, 1)],
                         ids=["diagonal", "block"])
def test_two_x_gradings_swapped_are_refused(frame):
    # (2j)^1 > j^1 at every j, so X2 below X1 is not dominated
    theta = power_grading(2, frame.functional_count)
    with pytest.raises(ValueError, match="^lower X weight must be dominated by "
                                         "the upper one$"):
        frame_bounds_analytic(frame, theta, 1, shifted_grading(2, 64), 1, 1,
                              x_upper=power_grading(2, 64))


# -- numeric bounds ------------------------------------------------------------

def test_numeric_identity_dense():
    w = power_grading(0, 4)
    got = frame_bounds_numeric(DenseFrame(np.eye(4)), w, 0, w, 0, 0)
    assert abs(got.lower - 1.0) < 1e-12
    assert abs(got.upper - 1.0) < 1e-12


def test_numeric_golden_ratio_matrix():
    frame = DenseFrame(np.array([[1.0, 1.0], [0.0, 1.0]]))
    w = power_grading(0, 2)
    got = frame_bounds_numeric(frame, w, 0, w, 0, 0)
    assert abs(got.lower - 0.6180339887498949) < 1e-12
    assert abs(got.upper - 1.6180339887498949) < 1e-12


def test_numeric_matches_analytic_alternating_r1():
    frame = alternating_diag(256, 1)
    w = power_grading(4, 256)
    ana = frame_bounds_analytic(frame, w, 1, w, 1, 2)
    num = frame_bounds_numeric(frame, w, 1, w, 1, 2)
    assert abs(num.lower - 1.0) < 1e-9
    assert abs(num.upper - 1.0) < 1e-9
    assert abs(num.lower - ana.lower) < 1e-9
    assert abs(num.upper - ana.upper) < 1e-9


def test_numeric_matches_analytic_random_block():
    rng = np.random.default_rng(11)
    frame = BlockFrame(rng.uniform(0.5, 3.0, 24))
    theta = power_grading(3, 48)
    x = power_grading(4, 24)
    ana = frame_bounds_analytic(frame, theta, 1, x, 0, 2)
    num = frame_bounds_numeric(frame, theta, 1, x, 0, 2)
    assert abs(num.lower - ana.lower) <= 1e-9 * ana.lower
    assert abs(num.upper - ana.upper) <= 1e-9 * ana.upper


def test_numeric_witnesses_attain_the_quotients():
    rng = np.random.default_rng(3)
    frame = DiagonalFrame(rng.uniform(0.5, 2.0, 16))
    w = power_grading(3, 16)
    got = frame_bounds_numeric(frame, w, 1, w, 0, 2)
    for witness, level, bound in ((got.witness_lower, 0, got.lower),
                                  (got.witness_upper, 2, got.upper)):
        quot = analysis_norm(frame, witness, w, 1) / graded_norm(witness, w, level)
        assert abs(quot - bound) < 1e-9


def test_numeric_rejects_oversized_truncation():
    frame = DiagonalFrame(np.ones(2049))
    w = power_grading(1, 2049)
    with pytest.raises(ValueError):
        frame_bounds_numeric(frame, w, 0, w, 0, 0)
    # the dense limit is refused before any grading is read
    short = power_grading(1, 1)
    with pytest.raises(ValueError, match=r"^truncation 2049 too large for dense "
                                         r"mode \(limit 2048\)$"):
        frame_bounds_numeric(DenseFrame(np.ones((1, 2049))), short, 0, short, 0, 0)


# 5 functionals on 4 coordinates; each short grading lacks a different size
_NUM_FRAME = DenseFrame(np.arange(1.0, 21.0).reshape(5, 4))
_X, _THETA = power_grading(2, 4), power_grading(2, 5)
_SHORT_LO, _SHORT_HI, _SHORT_THETA = (power_grading(2, 3), power_grading(2, 2),
                                      power_grading(2, 4))


@pytest.mark.parametrize("args, error, message", [
    # X lower, X upper, then Θ: the first short grading read is named
    ((_THETA, 0, _SHORT_LO, 0, 1), TruncationError,
     "coordinate 4 beyond truncation 3"),
    ((_THETA, 0, _X, 0, 1, _SHORT_HI), TruncationError,
     "coordinate 4 beyond truncation 2"),
    ((_SHORT_THETA, 0, _X, 0, 1), TruncationError,
     "coordinate 5 beyond truncation 4"),
    ((_SHORT_THETA, 0, _SHORT_LO, 0, 1, _SHORT_HI), TruncationError,
     "coordinate 4 beyond truncation 3"),
    ((_SHORT_THETA, 0, _X, 0, 1, _SHORT_HI), TruncationError,
     "coordinate 4 beyond truncation 2"),
    # a grading's level is checked before its length
    ((_SHORT_THETA, 0, _SHORT_LO, 3, 1), LevelError,
     "level 3 out of range [0, 2]"),
    ((_THETA, 3, _SHORT_LO, 0, 1), TruncationError,
     "coordinate 4 beyond truncation 3"),
    ((_THETA, 3, _X, 0, 1), LevelError, "level 3 out of range [0, 2]"),
])
def test_numeric_refusals_name_x_before_theta(args, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        frame_bounds_numeric(_NUM_FRAME, *args)


def test_scaling_covariance_spot():
    frame = alternating_diag(32, 2)
    w = power_grading(4, 32)
    base = frame_bounds_analytic(frame, w, 1, w, 0, 3)
    scaled = frame_bounds_analytic(DiagonalFrame(3.0 * frame.b), w, 1, w, 0, 3)
    assert abs(scaled.lower - 3.0 * base.lower) < 1e-12 * scaled.lower
    assert abs(scaled.upper - 3.0 * base.upper) < 1e-12 * scaled.upper
    assert scaled.witness_lower == base.witness_lower
    assert scaled.witness_upper == base.witness_upper


def test_bound_validity_on_random_samples():
    rng = np.random.default_rng(5)
    frame = pair_block(32, 2)
    theta = power_grading(3, 64)
    x = shifted_grading(5, 32)
    got = frame_bounds_analytic(frame, theta, 1, x, 1, 3)
    for _ in range(25):
        support = rng.choice(32, size=6, replace=False) + 1
        f = GradedVector(support, rng.normal(size=6))
        mid = analysis_norm(frame, f, theta, 1)
        assert got.lower * graded_norm(f, x, 1) <= mid * (1 + 1e-12)
        assert mid <= got.upper * graded_norm(f, x, 3) * (1 + 1e-12)


def test_injectivity_when_lower_bound_positive():
    frame = alternating_diag(16, 1)
    w = power_grading(2, 16)
    got = frame_bounds_analytic(frame, w, 0, w, 0, 1)
    assert got.lower > 0
    f = GradedVector.from_pairs({3: 1e-7, 11: -2.0})
    assert np.any(analyze(frame, f).values)


# -- dense subset extension --------------------------------------------------------
# Bounds of these norms found on finitely supported vectors hold on the whole
# space with factor 1: the frame inequality holds on a sample and on its prefix.

def frame_inequality_failures(frame, theta, theta_level, x, lower_level,
                              upper_level, bounds, vectors):
    """(position, side) for each side of the frame inequality a vector breaks."""
    failures = []
    for i, vec in enumerate(vectors):
        mid = analysis_norm(frame, vec, theta, theta_level)
        if bounds.lower * graded_norm(vec, x, lower_level) > mid * (1 + 1e-12):
            failures.append((i, "lower"))
        if mid > bounds.upper * graded_norm(vec, x, upper_level) * (1 + 1e-12):
            failures.append((i, "upper"))
    return failures


def test_extension_check_canonicals_pass():
    frame = alternating_diag(32, 1)
    w = power_grading(3, 32)
    got = frame_bounds_analytic(frame, w, 0, w, 0, 1)
    samples = [GradedVector.canonical(i) for i in range(1, 33)]
    assert frame_inequality_failures(frame, w, 0, w, 0, 1, got, samples) == []


def test_extension_check_flags_scaled_frame():
    frame = alternating_diag(16, 1)
    w = power_grading(2, 16)
    got = frame_bounds_analytic(frame, w, 0, w, 0, 1)
    shrunk = DiagonalFrame(0.5 * frame.b)
    samples = [GradedVector.canonical(1)]
    assert frame_inequality_failures(shrunk, w, 0, w, 0, 1, got, samples) \
        == [(0, "lower")]


def test_extension_check_random_vectors_and_prefixes():
    rng = np.random.default_rng(17)
    frame = alternating_diag(64, 2)
    w = power_grading(4, 64)
    got = frame_bounds_analytic(frame, w, 1, w, 1, 3)
    full, dense = [], []
    for _ in range(500):
        support = rng.choice(64, size=8, replace=False) + 1
        v = GradedVector(support, rng.normal(size=8))
        full.append(v)
        dense.append(v.prefix(32))
    assert all(d == v.prefix(d.max_index) for d, v in zip(dense, full))
    assert frame_inequality_failures(frame, w, 1, w, 1, 3, got, dense + full) == []


# -- norm chain demo -------------------------------------------------------------

def test_runo_chain_two_ones():
    c = GradedVector.from_pairs({1: 1.0, 2: 1.0})
    report = runo_demo(1.5, 3.0, [c])
    assert report.passed
    (_, nq, n2, np_, ok) = report.chain_rows[0]
    assert ok
    assert abs(nq - 1.2599210498948732) < 1e-12
    assert abs(n2 - 1.4142135623730951) < 1e-12
    assert abs(np_ - 1.5874010519681994) < 1e-12


def test_runo_chain_single_spike():
    report = runo_demo(1.5, 3.0, [GradedVector.canonical(1)])
    (_, nq, n2, np_, ok) = report.chain_rows[0]
    assert ok and nq == 1.0 and n2 == 1.0 and np_ == 1.0


def test_runo_witness_growth_table():
    report = runo_demo(1.5, 3.0, [])
    rows = dict((n, (l2, lp)) for (n, l2, lp) in report.witness_rows)
    expected = {
        10: (1.5173156741745519, 2.0884447296716897),
        100: (1.7717387325521787, 3.1329883273966357),
        1000: (1.8917829770643275, 4.1037862657979707),
        10000: (1.9505889286042073, 5.0355230166851239),
    }
    for n, (l2, lp) in expected.items():
        assert abs(rows[n][0] - l2) < 1e-12
        assert abs(rows[n][1] - lp) < 1e-12
    # square-summable tail keeps the l2 column bounded while the l^p column climbs
    l2s = [l2 for (_, l2, _) in report.witness_rows]
    lps = [lp for (_, _, lp) in report.witness_rows]
    assert max(l2s) < 2.0
    assert all(a < b for a, b in zip(lps, lps[1:]))
    assert report.witness_exponent == 1.0 / 1.55
    assert report.p_sum_diverges
    assert report.l2_sum_converges


def test_runo_rejects_bad_exponents():
    with pytest.raises(ValueError):
        runo_demo(2.5, 3.0, [])
    with pytest.raises(ValueError):
        runo_demo(1.5, 1.9, [])


# -- coordinate frames given as data ---------------------------------------------

def triple_repeat(n):
    """Every coordinate read by three functionals."""
    return CoordinateFrame(np.repeat(np.arange(n), 3), 1.0 + np.arange(n) % 5)


def mixed_readers(n):
    """Coordinate j (0-based) read by 1 + j mod 3 functionals."""
    return CoordinateFrame(np.repeat(np.arange(n), 1 + np.arange(n) % 3),
                           0.5 + np.arange(n) % 4)


@pytest.mark.parametrize("build", [triple_repeat, mixed_readers])
def test_coordinate_frame_matches_its_dense_form(build):
    frame = build(12)
    dense = DenseFrame(frame.coefficient_rows().toarray())
    rng = np.random.default_rng(5)
    for _ in range(20):
        f = GradedVector(np.sort(rng.choice(12, 4, replace=False)) + 1,
                         rng.normal(size=4))
        assert analyze(frame, f) == analyze(dense, f)
        m = frame.functional_count
        c = GradedVector(np.sort(rng.choice(m, 6, replace=False)) + 1,
                         rng.normal(size=6) + 1j * rng.normal(size=6))
        assert coanalyze(frame, c).allclose(coanalyze(dense, c), 1e-14)


@pytest.mark.parametrize("build", [triple_repeat, mixed_readers])
def test_coordinate_frame_analytic_matches_numeric(build):
    frame = build(40)
    theta = power_grading(2, frame.functional_count)
    x = power_grading(3, 40)
    for k, lower, upper in ((0, 0, 0), (1, 0, 2), (2, 1, 3)):
        ana = frame_bounds_analytic(frame, theta, k, x, lower, upper)
        num = frame_bounds_numeric(frame, theta, k, x, lower, upper)
        assert abs(num.lower - ana.lower) <= 1e-12 * ana.lower
        assert abs(num.upper - ana.upper) <= 1e-12 * ana.upper


def ref_analyze(frame, f):
    """Per-form analysis of the diagonal and block frames."""
    if isinstance(frame, DiagonalFrame):
        return GradedVector(f.indices, frame.b[f.indices - 1] * f.values)
    idx = np.stack([2 * f.indices - 1, 2 * f.indices], axis=1).ravel()
    return GradedVector(idx, np.repeat(frame.b_pair[f.indices - 1] * f.values, 2))


def ref_coanalyze(frame, c):
    """Per-form co-analysis: a diagonal coordinate passes its one value
    through, a pair is summed into zeros with np.add.at."""
    if isinstance(frame, DiagonalFrame):
        return GradedVector(c.indices, frame.b[c.indices - 1] * c.values)
    uniq, inverse = np.unique((c.indices + 1) // 2, return_inverse=True)
    vals = np.zeros(uniq.size, dtype=np.complex128)
    np.add.at(vals, inverse, c.values)
    return GradedVector(uniq, frame.b_pair[uniq - 1] * vals)


def test_analysis_maps_match_per_form_reference_bitwise():
    # signed zeros included: the block sum turns -0.0 into +0.0, the
    # diagonal pass-through keeps it
    rng = np.random.default_rng(23)
    parts = np.array([-0.0, 0.0, -1.5, 0.75, 3.0])

    def sample(m):
        idx = np.sort(rng.choice(m, int(rng.integers(0, m + 1)), replace=False)) + 1
        vals = rng.choice(parts, idx.size).astype(np.complex128)
        vals.imag = rng.choice(parts, idx.size)   # 1j * -0.0 would lose the sign
        return GradedVector(idx, vals)

    for frame in (alternating_diag(12, 1), pair_block(12, 1)):
        for _ in range(200):
            f, c = sample(12), sample(frame.functional_count)
            pairs = ((analyze(frame, f), ref_analyze(frame, f)),
                     (coanalyze(frame, c), ref_coanalyze(frame, c)))
            for got, want in pairs:
                assert np.array_equal(got.indices, want.indices)
                assert got.values.tobytes() == want.values.tobytes()


# -- Θ reader tables ---------------------------------------------------------

READER_FRAMES = {
    "diagonal": lambda: alternating_diag(12, 1),
    "block": lambda: pair_block(12, 1),
    "threefold": lambda: triple_repeat(12),
}


def theta_gradings(m):
    return [power_grading(4, m), WeightGrading("shifted_power", 4, m, shift=3),
            WeightGrading("exponential", 4, m,
                          alphas=tuple(np.linspace(0.0, 2.5, m) ** 1.5))]


@pytest.mark.parametrize("name", sorted(READER_FRAMES))
def test_reader_tables_match_a_fresh_hypot_bit_for_bit(name):
    frame = READER_FRAMES[name]()
    m = frame.functional_count
    for theta in theta_gradings(m):
        for k in range(theta.levels + 1):
            want = np.hypot.reduceat(theta.weights(k)[:m], frame.reader_starts[:-1])
            got = frame.reader_hypot(theta, k)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                got[0] = 1.0
            if name == "diagonal":
                # one reader per coordinate: the weight prefix itself
                assert np.shares_memory(got, theta.weights(k))
            else:
                # built once: the second read is the same table
                assert frame.reader_hypot(theta, k) is got
    assert len(frame._reader_tables) == (0 if name == "diagonal" else 3 * 5)


@pytest.mark.parametrize("name", sorted(READER_FRAMES))
def test_reader_tables_refuse_bad_levels_and_keep_nothing(name):
    frame = READER_FRAMES[name]()
    theta = power_grading(4, frame.functional_count)
    for level in (-1, 5, 1.5):
        with pytest.raises(LevelError, match="^level %s out of range" % level):
            frame.reader_hypot(theta, level)
    with pytest.raises(TruncationError):
        frame.reader_hypot(power_grading(4, frame.functional_count - 1), 1)
    assert frame._reader_tables == {}
