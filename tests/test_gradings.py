"""Norm and weight-family behaviour, pinned against hand-evaluated values."""

import contextlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradedframes import gradings
from gradedframes.gradings import (
    DualWeighting,
    GradedVector,
    LevelError,
    NormOverflowError,
    TruncationError,
    WeightGrading,
    column_norms,
    dual_norm,
    graded_norm,
    lp_norm,
    stack_columns,
)

POWER = WeightGrading("power", levels=12, truncation=64)


def vec(*pairs):
    return GradedVector([p[0] for p in pairs], [p[1] for p in pairs])


class TestWeightFamilies:
    def test_power_table(self):
        w = POWER.weights(2)
        assert w[0] == 1.0 and w[1] == 4.0 and w[63] == 64.0**2

    def test_shifted_power_table(self):
        g = WeightGrading("shifted_power", levels=4, truncation=8, shift=2)
        assert list(g.weights(1)[:3]) == [2.0, 4.0, 6.0]
        assert g.weights(0)[5] == 1.0

    def test_exponential_matches_power_for_log_table(self):
        n = 40
        alphas = tuple(math.log(j) for j in range(1, n + 1))
        g = WeightGrading("exponential", levels=6, truncation=n, alphas=alphas)
        for s in (0, 1, 3, 6):
            assert np.allclose(g.weights(s), POWER.weights(s)[:n], rtol=1e-12)

    def test_level_monotonicity_all_kinds(self):
        gradings = [
            POWER,
            WeightGrading("shifted_power", levels=8, truncation=32, shift=3),
            WeightGrading("exponential", levels=8, truncation=32,
                          alphas=tuple(0.25 * j for j in range(32))),
        ]
        for g in gradings:
            for s in range(g.levels):
                assert np.all(g.weights(s) <= g.weights(s + 1))
                assert np.all(g.weights(s) > 0)

    def test_invalid_families_rejected(self):
        with pytest.raises(ValueError):
            WeightGrading("power", levels=-1, truncation=8)
        with pytest.raises(ValueError):
            WeightGrading("banana", levels=2, truncation=8)
        with pytest.raises(ValueError):
            WeightGrading("shifted_power", levels=2, truncation=8, shift=0)
        with pytest.raises(ValueError):
            WeightGrading("exponential", levels=2, truncation=8)
        with pytest.raises(ValueError):
            WeightGrading("exponential", levels=2, truncation=8,
                          alphas=(0.0, -1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0))
        with pytest.raises(ValueError):
            WeightGrading("exponential", levels=2, truncation=8,
                          alphas=(0.0, 2.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0))

    @pytest.mark.parametrize("alphas,message", [
        ((0.0, math.nan, 1.0), "alpha 2 is not finite"),
        ((math.nan, 0.5, 1.0), "alpha 1 is not finite"),
        ((0.0, 0.5, math.inf), "alpha 3 is not finite"),
        ((0.0, 0.5, 1.0, math.inf), "alpha 4 is not finite"),
    ])
    def test_non_finite_alpha_refused_by_name(self, alphas, message):
        with pytest.raises(ValueError, match="^%s$" % message):
            WeightGrading("exponential", 2, 3, alphas=alphas)

    @pytest.mark.parametrize("field,value", [("levels", 2.5), ("truncation", 10.5)])
    def test_non_integer_levels_or_truncation_refused_by_name(self, field, value):
        args = {"levels": 2, "truncation": 16, field: value}
        with pytest.raises(ValueError, match="^%s must be an integer, got %r$"
                           % (field, value)):
            WeightGrading("power", **args)

    def test_integral_levels_and_truncation_stored_as_int(self):
        g = WeightGrading("power", np.int64(3), 16.0)
        assert type(g.levels) is int and type(g.truncation) is int
        same = WeightGrading("power", 3, 16)
        assert g == same and hash(g) == hash(same)

    @pytest.mark.parametrize("kind,levels,truncation,extra", [
        ("power", 127, 256, {}),
        ("shifted_power", 127, 128, {"shift": 2}),
        ("exponential", 88, 8, {"alphas": (0.0,) * 7 + (8.0,)}),
    ])
    def test_overflowing_top_weight_refused(self, kind, levels, truncation, extra):
        # the top weight is finite at `levels` and overflows one level up
        top = WeightGrading(kind, levels, truncation, **extra)
        assert math.isfinite(top.weights(levels)[-1])
        with pytest.raises(LevelError,
                           match="level %d, coordinate %d" % (levels + 1, truncation)):
            WeightGrading(kind, levels + 1, truncation, **extra)

    def test_equal_exponential_gradings_share_one_table(self):
        # the hash is taken once at construction; equality stays by value
        alphas = np.linspace(0.0, 3.0, 64)
        a = WeightGrading("exponential", 4, 64, alphas=tuple(alphas))
        b = WeightGrading("exponential", 4, 64, alphas=list(alphas))
        assert a == b and hash(a) == hash(b)
        assert a.weights(2) is b.weights(2)
        c = WeightGrading("exponential", 4, 64, alphas=tuple(2 * alphas))
        assert c != a and c.weights(2) is not a.weights(2)

    def test_level_out_of_range(self):
        with pytest.raises(LevelError):
            POWER.weights(13)
        with pytest.raises(LevelError):
            graded_norm(vec((1, 1.0)), POWER, -1)

    def test_weights_refuses_a_fractional_level(self):
        # weights(2.5) once returned the level-2 table; it now refuses the
        # level as weight_values does
        for read in (POWER.weights, lambda s: POWER.weight_values(s, [1, 2])):
            with pytest.raises(LevelError,
                               match=r"^level 2\.5 out of range \[0, 12\]$"):
                read(2.5)

    @pytest.mark.parametrize("grading", [
        WeightGrading("power", 32, 4096),
        WeightGrading("shifted_power", 32, 4096, shift=3),
        # x * x passes 2^53 here, where pow and squaring can round apart
        WeightGrading("shifted_power", 20, 4096, shift=10 ** 9 + 7),
        WeightGrading("exponential", 32, 4096,
                      alphas=tuple(np.log1p(np.arange(4096.0)) / 4)),
    ], ids=["power", "shifted_power", "large_shift", "exponential"])
    def test_one_power_weight_rows_are_weight_values(self, grading):
        # classify_strictness builds every candidate's weights in one power
        levels = np.arange(grading.levels + 1)[:, None]
        read = np.array([1, 3, 5, 7, 2049, 3073, 4095, 2, 4, 6, 8, 2050, 3074, 4096])
        for idx in (read, np.arange(1, grading.truncation + 1)):
            rows = grading._weights_at(levels, idx)
            assert rows.shape == (levels.size, idx.size)
            for level, row in enumerate(rows):
                assert row.tobytes() == grading.weight_values(level, idx).tobytes()

    def test_weight_values_refuse_non_integer_coordinates(self):
        # weight_values(1, [2.5]) once returned the weight at coordinate 2
        g = WeightGrading("power", 3, 8)
        for idx, name in (([2.5], "2.5"), (np.array([1.0, 7.999]), "7.999")):
            with pytest.raises(ValueError, match="^non-integer coordinate %s$" % name):
                g.weight_values(1, idx)
        assert g.weight_values(1, np.array([2.0, 3.0])).tolist() == [2.0, 3.0]

    def test_truncation_guard(self):
        # the largest coordinate is named, wherever it was given, and the
        # level is checked first
        v = vec((70, 2.0), (3, 1.0), (65, 1.0))
        for norm, weighting in [(graded_norm, POWER), (dual_norm, POWER.dual())]:
            with pytest.raises(TruncationError,
                               match="^coordinate 70 beyond truncation 64$"):
                norm(v, weighting, 0)
            with pytest.raises(LevelError, match="^level 13 out of range"):
                norm(v, weighting, 13)


class TestGradedVector:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            GradedVector([0], [1.0])
        with pytest.raises(ValueError):
            GradedVector([1, 1], [1.0, 2.0])
        with pytest.raises(ValueError):
            GradedVector([1], [float("nan")])

    def test_algebra(self):
        a = vec((1, 1.0), (3, 2.0))
        b = vec((3, -2.0), (5, 1.0))
        s = a + b
        assert np.array_equal(s.to_dense(5), [1.0, 0.0, 0.0, 0.0, 1.0])
        assert (a - a).trim() == GradedVector.zero()
        assert (2.0 * a).to_dense(3)[2] == 4.0

    def test_prefix_tail_partition(self):
        a = vec((2, 1.0), (5, -1.0), (9, 3.0))
        assert a.prefix(5) + a.tail(5) == a
        assert a.prefix(1) == GradedVector.zero()
        assert a.tail(9) == GradedVector.zero()

    def test_immutability(self):
        a = vec((1, 1.0))
        with pytest.raises(AttributeError):
            a.values = None
        with pytest.raises(ValueError):
            a.values[0] = 2.0

    def test_sorted_input_kept_as_given(self):
        idx = np.array([2, 5, 9])
        val = np.array([1.0, -2.0, 0.0 + 3j])
        a = GradedVector(idx, val)
        assert a.indices.tolist() == [2, 5, 9]
        assert a.values.tolist() == [1.0, -2.0, 3j]
        # the vector owns its arrays: the caller's stay writable and apart
        idx[0] = 7
        val[0] = 8.0
        assert a.indices[0] == 2 and a.values[0] == 1.0

    def test_unsorted_input_reordered(self):
        a = GradedVector([9, 2, 5], [3.0, 1.0, -2.0])
        assert a.indices.tolist() == [2, 5, 9]
        assert a.values.tolist() == [1.0, -2.0, 3.0]
        assert a == vec((2, 1.0), (5, -2.0), (9, 3.0))

    def test_bad_coordinates_rejected_in_any_order(self):
        for idx in ([3, 3], [2, 5, 2], [5, 2, 5]):
            with pytest.raises(ValueError, match="duplicate coordinate"):
                GradedVector(idx, [1.0] * len(idx))
        for idx in ([0, 1], [2, 0], [-1]):
            with pytest.raises(ValueError, match="coordinates are 1-based"):
                GradedVector(idx, [1.0] * len(idx))

    def test_non_integer_coordinates_refused_by_name(self):
        # GradedVector([1.5, 2.7], ...) once stored the coordinates [1, 2]
        for idx, name in (([1.5, 2.7], "1.5"), (np.array([3.0, 4.25]), "4.25"),
                          ([2.0, float("nan")], "nan"), ([float("inf")], "inf"),
                          ([1 + 2j], r"\(1\+2j\)")):
            with pytest.raises(ValueError, match="^non-integer coordinate %s$" % name):
                GradedVector(idx, [1.0] * len(idx))
        # whole floats are coordinates; integers keep their dtype check only
        assert GradedVector(np.array([2.0, 5.0]), [1.0, 2.0]) == vec((2, 1.0), (5, 2.0))
        assert GradedVector([], []).indices.dtype == np.int64

    def test_refusals_on_doubly_invalid_input_pinned(self):
        # the first of: non-integer coordinate, shape, 1-based, duplicate,
        # non-finite entry
        nan, inf = float("nan"), float("inf")
        shape = "indices and values must be 1-d and of equal length"
        for idx, val, message in (
                ([1.5, 2], [1.0], "non-integer coordinate 1.5"),
                ([2.0, nan, 2.0], [1.0, 2.0, 3.0], "non-integer coordinate nan"),
                ([1 + 1j, 1 + 1j], [1.0, 1.0], "non-integer coordinate (1+1j)"),
                ([[1, 2]], [[1.0, 2.0]], shape),
                ([0, 1], [1.0], shape),
                ([2, 2], [1.0], shape),
                ([], [1.0], shape),
                ([3, 0, 3], [1.0, 2.0, 3.0], "coordinates are 1-based"),
                ([-1, -1], [1.0, 1.0], "coordinates are 1-based"),
                ([0], [nan], "coordinates are 1-based"),
                ([2, 2], [nan, 1.0], "duplicate coordinate"),
                ([5, 2, 5], [1.0, inf, 1.0], "duplicate coordinate"),
                (np.array([4.0, 1.0, 4.0]), [1.0, 2.0, 3.0], "duplicate coordinate"),
                (np.array([4, 1, 4], dtype=np.int32), [1.0, nan, 3.0],
                 "duplicate coordinate"),
                ([3, 1], [1.0, inf], "entries must be finite")):
            assert first_refusal(lambda: GradedVector(idx, val)) == (ValueError,
                                                                     message)

    @pytest.mark.parametrize("idx", ([9, 2, 5], np.array([9, 2, 5], dtype=np.int32),
                                     np.array([2.0, 5.0, 9.0]), np.array([2, 5, 9]),
                                     range(2, 10, 3)))
    def test_stored_arrays_sorted_private_and_read_only(self, idx):
        val = np.array([3.0, 1.0, -2j]) if len(idx) == 3 else [1.0] * len(idx)
        a = GradedVector(idx, val)
        assert a.indices.dtype == np.int64 and a.values.dtype == np.complex128
        assert (a.indices[1:] > a.indices[:-1]).all()
        assert not a.indices.flags.writeable and not a.values.flags.writeable
        assert not np.shares_memory(a.indices, idx)
        assert not np.shares_memory(a.values, val)
        pairs = dict(zip(np.asarray(idx).tolist(), np.asarray(val).tolist()))
        assert [pairs[j] for j in a.indices.tolist()] == a.values.tolist()


class TestNorms:
    def test_graded_norm_pinned(self):
        # |e1 + e2| at power level 1: sqrt(1 + 4)
        f = vec((1, 1.0), (2, 1.0))
        assert graded_norm(f, POWER, 1) == pytest.approx(math.sqrt(5), abs=1e-15)

    def test_dual_norm_pinned(self):
        # |e2 + e4| with reciprocal power weights at level 2: sqrt(1/16 + 1/256)
        f = vec((2, 1.0), (4, 1.0))
        got = dual_norm(f, DualWeighting(POWER), 2)
        assert got == pytest.approx(math.sqrt(17) / 16, abs=1e-15)

    def test_lp_norm_pinned(self):
        f = vec((1, 1.0), (2, 1.0))
        assert lp_norm(f, 3.0) == pytest.approx(2 ** (1 / 3), abs=1e-15)
        assert lp_norm(f, 1.5) == pytest.approx(2 ** (2 / 3), abs=1e-15)

    def test_lp_norm_scale_free(self):
        # |x|^p once underflowed into subnormals (or overflowed to inf):
        # lp_norm(3.7844e-107 e1, 3) read above lp_norm(3.7844e-107 e1, 2)
        for x, p, q in ((3.7844e-107, 1.5, 3.0), (8.68767e-42, 1.5, 7.746),
                        (1.65216e-157, 1.5, 3.0), (5e-324, 1.01, 16.0)):
            f = vec((1, x))
            lq, l2, lp = lp_norm(f, q), lp_norm(f, 2.0), lp_norm(f, p)
            assert lq <= l2 * (1 + 1e-12) and l2 <= lp * (1 + 1e-12)
            assert lq == x
        assert lp_norm(vec((1, 1.1754943508222875e-38)), 8.375) == 1.1754943508222875e-38
        assert lp_norm(vec((3, 1e-107), (7, -1e-107)), 3.0) == pytest.approx(
            2 ** (1 / 3) * 1e-107, rel=1e-15)
        assert lp_norm(vec((1, 0.0), (2, 0.0)), 3.0) == 0.0
        with np.errstate(over="ignore"):
            assert lp_norm(vec((1, 1e300), (2, 1e300)), 2.0) == pytest.approx(
                math.sqrt(2) * 1e300, rel=1e-15)

    def test_lp_norm_range_check(self):
        f = vec((1, 1.0))
        for bad in (1.0, 0.5, math.inf):
            with pytest.raises(ValueError):
                lp_norm(f, bad)

    def test_complex_entries(self):
        f = vec((1, 1j), (2, 1.0 + 1.0j))
        assert graded_norm(f, POWER, 0) == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_zero_vector(self):
        assert graded_norm(GradedVector.zero(), POWER, 3) == 0.0
        assert dual_norm(GradedVector.zero(), DualWeighting(POWER), 3) == 0.0


class TestTailProfile:
    def test_prefix_sum_profile_pinned(self):
        target = vec((1, 1.0), (2, 1.0))
        partials = [GradedVector.zero(), target.prefix(1), target.prefix(2)]
        prof = [graded_norm(target - p, POWER, 1) for p in partials]
        assert prof[0] == pytest.approx(math.sqrt(5), abs=1e-15)
        assert prof[1] == pytest.approx(2.0, abs=1e-15)
        assert prof[2] == 0.0

    def test_profile_eventually_exact_zero(self):
        rng = np.random.default_rng(3)
        idx = np.sort(rng.choice(np.arange(1, 40), size=9, replace=False))
        target = GradedVector(idx, rng.normal(size=9))
        partials = [target.prefix(n) for n in range(0, 45)]
        prof = [graded_norm(target - p, POWER, 2) for p in partials]
        assert all(p == 0.0 for p in prof[target.max_index:])
        assert all(p > 0.0 for p in prof[:int(idx[-2]) + 1])


class TestDuality:
    def test_dual_is_involution(self):
        dual = POWER.dual()
        assert dual.dual() is POWER
        assert isinstance(dual, DualWeighting)


finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


@st.composite
def graded_vectors(draw, max_index=64, max_size=10):
    size = draw(st.integers(min_value=0, max_value=max_size))
    idx = draw(st.lists(st.integers(min_value=1, max_value=max_index),
                        min_size=size, max_size=size, unique=True))
    vals = draw(st.lists(finite_floats, min_size=size, max_size=size))
    return GradedVector(idx, vals)


def dense_allclose(a, b, tol):
    """Reference: np.allclose on dense arrays up to the larger max index."""
    n = max(a.max_index, b.max_index)
    if n == 0:
        return True
    return bool(np.allclose(a.to_dense(n), b.to_dense(n), rtol=tol, atol=tol))


@st.composite
def nearby_pairs(draw):
    """A vector and a relative with perturbed, dropped, added and zeroed
    entries, so that supports overlap, differ and hold stored zeros."""
    a = draw(graded_vectors(max_index=16, max_size=8))
    pairs = {}
    for j, v in zip(a.indices.tolist(), a.values.tolist()):
        change = draw(st.sampled_from(("keep", "nudge", "drop", "zero")))
        if change == "keep":
            pairs[j] = v
        elif change == "nudge":
            pairs[j] = v + draw(st.sampled_from((1e-13, -2e-12, 1e-9, 5e-13j)))
        elif change == "zero":
            pairs[j] = 0.0
    for j in draw(st.lists(st.integers(1, 16), max_size=3, unique=True)):
        if j not in pairs:
            pairs[j] = draw(st.sampled_from((0.0, 1e-13, 1.0)))
    return a, GradedVector.from_pairs(pairs)


class TestAllclose:
    @settings(max_examples=300, deadline=None)
    @given(nearby_pairs(), st.sampled_from((1e-12, 1e-10)))
    def test_matches_dense_reference(self, pair, tol):
        a, b = pair
        assert a.allclose(b, tol) == dense_allclose(a, b, tol)
        assert b.allclose(a, tol) == dense_allclose(b, a, tol)

    def test_disjoint_supports_and_stored_zeros(self):
        zero_at_9 = GradedVector([9], [0.0])
        assert zero_at_9.allclose(GradedVector.zero())
        assert vec((2, 1e-13)).allclose(vec((7, -1e-13)))
        assert not vec((2, 1.0)).allclose(vec((7, 1.0)))
        assert vec((3, 1.0)).allclose(vec((3, 1.0 + 1e-12)), 1e-12)
        assert not vec((3, 0.0)).allclose(vec((3, 3e-12)), 1e-12)


class TestNormProperties:
    @settings(max_examples=200, deadline=None)
    @given(graded_vectors())
    def test_norm_monotone_in_level(self, v):
        norms = [graded_norm(v, POWER, s) for s in range(POWER.levels + 1)]
        for a, b in zip(norms, norms[1:]):
            assert a <= b * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(graded_vectors())
    def test_prefix_never_beats_full(self, v):
        for s in (0, 3):
            full = graded_norm(v, POWER, s)
            for n in (1, 7, 32, 64):
                assert graded_norm(v.prefix(n), POWER, s) <= full * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(graded_vectors(), st.floats(min_value=1.01, max_value=1.99),
           st.floats(min_value=2.01, max_value=16.0))
    def test_lp_ordering(self, v, p, q):
        lq = lp_norm(v, q)
        l2 = lp_norm(v, 2.0)
        lp = lp_norm(v, p)
        assert lq <= l2 * (1 + 1e-12)
        assert l2 <= lp * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(graded_vectors())
    def test_dual_norm_reciprocal_consistency(self, v):
        # on the level-0 power grading the dual and primal norms coincide
        assert dual_norm(v, DualWeighting(POWER), 0) == pytest.approx(
            graded_norm(v, POWER, 0), rel=1e-12, abs=1e-300)


@st.composite
def complex_vectors(draw, max_index=64, max_size=6):
    v = draw(graded_vectors(max_index=max_index, max_size=max_size))
    imag = draw(st.lists(finite_floats, min_size=v.support_size,
                         max_size=v.support_size))
    return GradedVector(v.indices, v.values + 1j * np.array(imag, dtype=float))


EXP = WeightGrading("exponential", levels=5, truncation=64,
                    alphas=tuple(0.3 * math.log(j) for j in range(1, 65)))


def norm_rows(vectors, grading, levels):
    """graded_norm (dual_norm for a DualWeighting) of every vector at every
    level, one row per level."""
    norm = dual_norm if isinstance(grading, DualWeighting) else graded_norm
    return [[norm(v, grading, level) for v in vectors] for level in levels]


def first_refusal(call):
    try:
        call()
    except ValueError as err:
        return type(err), str(err)
    return None


class TestColumnNorms:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(complex_vectors(), max_size=5),
           st.sampled_from((POWER, EXP, POWER.dual(), EXP.dual())),
           st.lists(st.integers(0, 5), max_size=6))
    @example([GradedVector.zero(), vec((3, 1.5 - 2j), (64, 0.25j)),
              vec((2, 0.0), (7, math.ldexp(1.0, -540)), (9, -3.0))], POWER, [4])
    @example([vec((3, 1.5 - 2j), (64, 0.25j))], EXP.dual(), [5, 0, 5, 2])
    @example([vec((3, 1.5 - 2j))], POWER, [])
    def test_matches_graded_norm_bit_for_bit(self, vectors, grading, levels):
        # level lists come unsorted, with repeats, or empty: row i is levels[i]
        got = column_norms(stack_columns(vectors, 64), grading, levels)
        assert got.shape == (len(levels), len(vectors))
        assert got.tolist() == norm_rows(vectors, grading, levels)

    def test_refuses_like_graded_norm(self):
        short = WeightGrading("power", levels=3, truncation=8)
        vectors = [vec((2, 1.0)), vec((5, 1.0), (9, 2.0), (12, 1.0)),
                   vec((20, 1.0))]
        mat = stack_columns(vectors, 32)
        with pytest.raises(TruncationError) as want:
            graded_norm(vectors[1], short, 1)
        with pytest.raises(TruncationError) as got:
            column_norms(mat, short, [1])
        assert str(got.value) == str(want.value)
        for level in (-1, 4, 1.5):
            with pytest.raises(LevelError):
                graded_norm(GradedVector.zero(), short, level)
            with pytest.raises(LevelError):
                column_norms(stack_columns([], 8), short, [level])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.sampled_from((0, 2, 3, -1, 4, 1.5)), max_size=4),
           st.booleans(), st.booleans())
    def test_refusal_order_is_that_of_one_call_per_level(self, levels, beyond, dual):
        # one call refuses with the type and message the first failing
        # one-level call raised, in the order of the levels; an empty list
        # checks nothing
        short = WeightGrading("power", levels=3, truncation=8)
        grading = short.dual() if dual else short
        top = 12 if beyond else 8
        mat = stack_columns([vec((2, 1.0)), vec((5, 1.0), (top, 2.0))], 16)
        want = None
        for level in levels:
            want = first_refusal(lambda: column_norms(mat, grading, [level]))
            if want is not None:
                break
        assert first_refusal(lambda: column_norms(mat, grading, levels)) == want

    def test_refusal_order_pinned(self):
        short = WeightGrading("power", levels=3, truncation=8)
        mat = stack_columns([vec((2, 1.0)), vec((5, 1.0), (12, 2.0))], 16)
        assert first_refusal(lambda: column_norms(mat, short, [1, 5])) == (
            TruncationError, "coordinate 12 beyond truncation 8")
        assert first_refusal(lambda: column_norms(mat, short, [5, 1])) == (
            LevelError, "level 5 out of range [0, 3]")
        assert column_norms(mat, short, []).shape == (0, 2)


@contextlib.contextmanager
def fsum_calls():
    """The lengths of the math.fsum calls made within the block."""
    fsum, calls = math.fsum, []
    gradings.math.fsum = lambda xs: calls.append(len(xs)) or fsum(xs)
    try:
        yield calls
    finally:
        gradings.math.fsum = fsum


def fsum_outcome(terms):
    try:
        return math.fsum(terms)
    except OverflowError as err:
        return OverflowError, str(err)


def segment_sums_outcome(terms, counts):
    try:
        return gradings._segment_sums(np.array(terms, dtype=float),
                                      np.array(counts, dtype=np.int64)).tolist()
    except OverflowError as err:
        return OverflowError, str(err)


def fsum_segments(segments):
    """Per-segment math.fsum, or the first OverflowError it raises."""
    out = []
    for seg in segments:
        got = fsum_outcome(seg)
        if isinstance(got, tuple):
            return got
        out.append(got)
    return out


# nonnegative doubles of every binade, subnormals and zero included
wide_terms = st.one_of(
    st.builds(math.ldexp, st.integers(0, 2 ** 53), st.integers(-1126, 970)),
    st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
    st.sampled_from((0.0, 5e-324, 2.2250738585072014e-308, 1.0)))


@st.composite
def near_ties(draw):
    """1 + k 2^-53 (a tie whenever k is odd) in pieces, with an optional
    term far below the long-double resolution that decides the tie."""
    k = draw(st.integers(0, 15))
    seg = [1.0] + [math.ldexp(1.0, -53)] * k + draw(
        st.lists(st.sampled_from((math.ldexp(1.0, -120), math.ldexp(1.0, -1074),
                                  math.ldexp(3.0, -54))), max_size=1))
    return draw(st.permutations(seg))


segment_lists = st.lists(st.one_of(st.lists(wide_terms, max_size=16), near_ties()),
                         max_size=12)


@st.composite
def wide_vectors(draw):
    """Up to 16 entries whose squares span subnormals to overflow, or
    1 + k 2^-54 with an optional 2^-120 from powers of two, exactly."""
    if draw(st.booleans()):
        vals = draw(st.lists(st.builds(math.ldexp, st.integers(1, 2 ** 26),
                                       st.integers(-560, 485)), max_size=16))
    else:
        vals = [1.0] + [math.ldexp(1.0, -27)] * draw(st.integers(0, 14)) \
            + draw(st.lists(st.just(math.ldexp(1.0, -60)), max_size=1))
    return GradedVector(draw(st.permutations(range(1, len(vals) + 1))), vals)


class TestCertifiedSums:
    """column_norms sums in long double and keeps a rounded sum only under
    its error-bound certificate; everything else goes to math.fsum."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(wide_vectors(), max_size=5), st.sampled_from((POWER, POWER.dual())),
           st.lists(st.integers(0, 3), max_size=3))
    def test_column_norms_match_fsum_bit_for_bit(self, vectors, grading, levels):
        mat = stack_columns(vectors, 64)
        with np.errstate(over="ignore"):
            try:
                want = norm_rows(vectors, grading, levels)
            except OverflowError as err:
                want = OverflowError, str(err)
            try:
                got = column_norms(mat, grading, levels).tolist()
            except OverflowError as err:
                got = OverflowError, str(err)
        assert got == want

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(segment_lists)
    @example([[1.0, math.ldexp(1.0, -53)], [], [1.0, math.ldexp(1.0, -53),
                                                math.ldexp(1.0, -120)]])
    @example([[2.0 ** 1023, 2.0 ** 1023], [1.0]])
    def test_segment_sums_match_fsum_bit_for_bit(self, segments):
        terms = [t for seg in segments for t in seg]
        counts = [len(seg) for seg in segments]
        assert segment_sums_outcome(terms, counts) == fsum_segments(segments)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_segment_sums_match_fsum_on_both_sides_of_the_gate(self, offset):
        # up to _FSUM_SEGMENTS segments go to math.fsum one by one; more take
        # the certified long-double sums first
        tiny, top = math.ldexp(1.0, -1074), np.finfo(float).max
        pool = [[], [1.0, math.ldexp(1.0, -53)], [tiny] * 3, [0.1, 0.2, 0.3],
                [1.0, math.ldexp(1.0, -53), math.ldexp(1.0, -120)], [tiny, 1.0, tiny],
                [top / 2, top / 2], [], [2.5], [tiny]]
        segments = [pool[i % len(pool)] for i in range(gradings._FSUM_SEGMENTS + offset)]
        terms = [t for seg in segments for t in seg]
        counts = [len(seg) for seg in segments]
        with fsum_calls() as calls:
            got = segment_sums_outcome(terms, counts)
        assert [x.hex() for x in got] == [x.hex() for x in fsum_segments(segments)]
        filled = len([seg for seg in segments if seg])
        if offset <= 0:
            assert len(calls) == filled
        elif np.finfo(np.longdouble).eps < 2.0 ** -52:
            assert len(calls) < filled
        # a sum at the tie above the largest double: fsum refuses it
        over = segments[:-1] + [[top, math.ldexp(1.0, 970)]]
        assert fsum_segments(over)[0] is OverflowError
        assert segment_sums_outcome([t for seg in over for t in seg],
                                    [len(seg) for seg in over]) == fsum_segments(over)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_segment_sums_gate_on_the_term_count(self, extra):
        # a few long segments past _FSUM_TERMS terms in all take the certified
        # long-double sums first, as more segments do
        rng = np.random.default_rng(5)
        counts = [0, 200, 200, 200, 200, gradings._FSUM_TERMS - 800 + extra]
        terms = rng.random(sum(counts)) ** 4
        terms[::97] = math.ldexp(1.0, -1074)
        starts = np.cumsum(counts) - counts
        segments = [terms[a:a + k].tolist() for a, k in zip(starts, counts)]
        with fsum_calls() as calls:
            got = segment_sums_outcome(terms, counts)
        assert [x.hex() for x in got] == [x.hex() for x in fsum_segments(segments)]
        if not extra:
            assert len(calls) == 5
        elif np.finfo(np.longdouble).eps < 2.0 ** -52:
            assert len(calls) < 5

    def test_non_finite_and_overflowing_sums_pinned(self):
        top = np.finfo(float).max
        inf, nan = float("inf"), float("nan")
        sums = segment_sums_outcome([inf, 1.0, nan, 1.0, inf, nan, 2.0],
                                    [2, 2, 2, 0, 1])
        assert sums[0] == inf and sums[3:] == [0.0, 2.0]
        assert math.isnan(sums[1]) and math.isnan(sums[2])
        # a sum up to half an ulp above the largest double rounds to it and
        # passes; from the tie on, fsum refuses it
        assert segment_sums_outcome([top, math.ldexp(1.0, 969)], [2]) == [top]
        assert segment_sums_outcome([top / 2, top / 2], [2]) == [top]
        with pytest.raises(OverflowError):
            math.fsum([top, math.ldexp(1.0, 970)])
        assert segment_sums_outcome([1.0, top, math.ldexp(1.0, 970)], [1, 2]) \
            == fsum_outcome([top, math.ldexp(1.0, 970)])
        # in column_norms: a square or a sum of squares that would overflow
        # is taken scaled, bit for bit as graded_norm takes it
        assert column_norms(stack_columns([vec((1, 1e200))], 2), POWER,
                            [0]).tolist() == [[1e200]]
        v = vec((1, 1e154), (2, 1e154))
        want = graded_norm(v, POWER, 0)
        assert want == pytest.approx(math.sqrt(2) * 1e154, rel=2.3e-16)
        assert column_norms(stack_columns([v], 2), POWER, [0]).tolist() == [[want]]
        # a norm above the largest double is refused by both, by name
        v = vec((1, top), (2, top / 2))
        with pytest.raises(NormOverflowError) as want:
            graded_norm(v, POWER, 0)
        with pytest.raises(NormOverflowError) as got:
            column_norms(stack_columns([v], 2), POWER, [0])
        assert str(got.value) == str(want.value)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(segment_lists)
    def test_double_accumulator_falls_back_and_stays_exact(self, segments):
        # with a plain-double accumulator (eps 2^-52), as where long double
        # is double, the certificate cannot pass a sum that rounded, so
        # every multi-term segment goes to math.fsum and the sums stay exact
        terms = [t for seg in segments for t in seg]
        counts = [len(seg) for seg in segments]
        want = fsum_segments(segments)
        with fsum_calls() as calls, pytest.MonkeyPatch.context() as mp:
            mp.setattr(gradings, "_ACC", np.float64)
            got = segment_sums_outcome(terms, counts)
        assert got == want
        if not isinstance(want, tuple):
            assert len([c for c in calls if c > 1]) == len([c for c in counts if c > 1])

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 2.0 ** -52,
                        reason="long double is plain double here")
    def test_long_double_certifies_ordinary_sums(self):
        # a 16-term sum lands within the certificate's margin of a tie about
        # once in 60 draws; the rest need no fsum
        rng = np.random.default_rng(7)
        vectors = [GradedVector(np.arange(1, 17), rng.standard_normal(16))
                   for _ in range(32)]
        with fsum_calls() as calls:
            got = column_norms(stack_columns(vectors, 64), POWER, range(5))
        assert len(calls) < 16
        assert got.tolist() == norm_rows(vectors, POWER, range(5))
