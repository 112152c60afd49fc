"""graded_norm, dual_norm, lp_norm and column_norms against 50-digit mpmath
values over the whole double range: entries from 2^-1074 to near 2^1023,
complex ones included (of subnormal modulus too), and weights of every
kind up to near 2^1023.  No call may raise a RuntimeWarning, and a norm
above the largest double must be refused by name."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from gradedframes.gradings import (
    GradedVector,
    NormOverflowError,
    WeightGrading,
    column_norms,
    dual_norm,
    graded_norm,
    lp_norm,
    stack_columns,
)

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

N = 64
TOP = np.finfo(float).max
FLT_MIN = float(np.finfo(np.float32).tiny)
# each top weight is finite and above 2^1000
POWER = WeightGrading("power", 170, N)
SHIFTED = WeightGrading("shifted_power", 134, N, shift=3)
EXPONENTIAL = WeightGrading("exponential", 100, N,
                            alphas=tuple(7.0 * math.log(j) / math.log(N)
                                         for j in range(1, N + 1)))
GRADINGS = (POWER, SHIFTED, EXPONENTIAL)
# the Baseline repros and the plan oracle's spiked-down sample, 2^-540 e_40
WIDE = WeightGrading("power", 60, 4096)
PLAN_THETA = WeightGrading("power", 11, N)
# two vectors on which a shift in the scaled body, where none was needed,
# changed a tie that a subnormal term decides: graded_norm went past its
# bound, column_norms did not.  At level 1 the largest product 1.5 * 2^479
# has frexp exponent 481, 2^453 makes a half-ulp tie and 2^-537 breaks it.
STEEP = WeightGrading("power", 1, N)
STEEP_TIE = GradedVector([1, 2, 4], [1.5 * 2.0 ** 479, 2.0 ** 452, 2.0 ** -539])
# 32 products 1.5 * 2^-453 (exponent -451), the tie and its breaker lower
# down, and a stored zero at the coordinate of weight e^700
LATE = WeightGrading("exponential", 50, N, alphas=(0.0,) * (N - 1) + (14.0,))
LATE_TIE = GradedVector(list(range(1, 36)) + [N],
                        [1.5 * 2.0 ** -453] * 32 + [2.0 ** -477] * 2
                        + [2.0 ** -538, 0.0])
# modulus sqrt(34) 2^-1074, which np.abs rounds to 6 2^-1074, 3% high; the
# weight 64^170 brings the product up to 2^-51
SUBNORMAL = GradedVector([N], [complex(3 * 2.0 ** -1074, 5 * 2.0 ** -1074)])
ULPS = 4


def magnitudes():
    """Nonnegative doubles of every binade, subnormals, 0 and the largest."""
    return st.one_of(
        st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True),
                  st.integers(-1073, 1023)),
        st.sampled_from((0.0, 5e-324, FLT_MIN, 1.0, 1e-160, 1e200, TOP)))


@st.composite
def entries(draw):
    """A real entry, or a complex one of modulus at most 2^1022."""
    m = draw(magnitudes())
    if draw(st.booleans()):
        return m * draw(st.sampled_from((1.0, -1.0)))
    m = min(m, math.ldexp(1.0, 1022))
    angle = draw(st.floats(0.0, 2 * math.pi))
    return complex(m * math.cos(angle), m * math.sin(angle))


@st.composite
def vectors(draw, max_size=12):
    size = draw(st.integers(1, max_size))
    idx = draw(st.lists(st.integers(1, N), min_size=size, max_size=size, unique=True))
    return GradedVector(idx, draw(st.lists(entries(), min_size=size, max_size=size)))


@st.composite
def graded_cases(draw):
    grading = draw(st.sampled_from(GRADINGS))
    return draw(vectors()), grading, draw(st.integers(0, grading.levels))


def reference(v, weights, dual):
    """sqrt(sum (|v_j| w_j)^2), or with |v_j| / w_j, to 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.mpf(0)
        for z, w in zip(v.values.tolist(), weights):
            a = abs(mpmath.mpc(z.real, z.imag))
            t = a / mpmath.mpf(w) if dual else a * mpmath.mpf(w)
            total += t * t
        return mpmath.sqrt(total)


def lp_reference(v, p):
    """(sum |v_j|^p)^(1/p) to 50 digits."""
    with mpmath.workdps(50):
        total = mpmath.fsum(abs(mpmath.mpc(z.real, z.imag)) ** mpmath.mpf(p)
                            for z in v.values.tolist())
        return total ** (1 / mpmath.mpf(p))


def assert_matches(call, ref, ulps=ULPS):
    """call() within ulps of ref, or NormOverflowError when ref is above
    the largest double; either within 2^-50 of the largest double."""
    with mpmath.workdps(50):
        edge = abs(ref / mpmath.mpf(TOP) - 1) < mpmath.ldexp(1, -50)
        if ref > TOP and not edge:
            with pytest.raises(NormOverflowError,
                               match="^norm exceeds the largest double$"):
                call()
            return None
        try:
            got = call()
        except NormOverflowError:
            assert edge
            return None
        want = float(ref)
        assert abs(mpmath.mpf(got) - ref) <= ulps * math.ulp(want), (got, want)
        return got


class TestScalarNorms:
    @settings(max_examples=300, deadline=None)
    @given(graded_cases())
    @example((GradedVector([1], [1e-160]), POWER, 0))
    @example((GradedVector([4096], [1.0]), WIDE, 50))
    @example((GradedVector([1], [1e200]), POWER, 0))
    @example((GradedVector([40], [math.ldexp(1.0, -540)]), PLAN_THETA, 0))
    @example((GradedVector([1, 2], [TOP, TOP / 2]), POWER, 0))
    @example((SUBNORMAL, POWER, 170))
    def test_graded_norm(self, case):
        v, grading, level = case
        ref = reference(v, grading.weight_values(level, v.indices), False)
        assert_matches(lambda: graded_norm(v, grading, level), ref)

    @settings(max_examples=300, deadline=None)
    @given(graded_cases())
    @example((GradedVector([1], [1e-160]), POWER, 0))
    @example((GradedVector([3, 64], [1e-300, 2.0 ** -1074]), POWER, 170))
    @example((GradedVector([1, 2], [TOP, TOP / 2]), POWER, 0))
    def test_dual_norm(self, case):
        v, grading, level = case
        ref = reference(v, grading.weight_values(level, v.indices), True)
        assert_matches(lambda: dual_norm(v, grading.dual(), level), ref)

    @settings(max_examples=300, deadline=None)
    @given(vectors(), st.floats(1.01, 16.0))
    @example(GradedVector([1], [FLT_MIN]), 8.375)
    @example(GradedVector([1], [1e300]), 2.0)
    @example(GradedVector([1, 2], [TOP, TOP]), 1.01)
    @example(GradedVector([1], [1.2345678 * 2.0 ** 813]), 1.25)
    @example(GradedVector([1, 2], [0.75 * 2.0 ** -700, 2.0 ** -700]), 1.25)
    def test_lp_norm(self, v, p):
        # the root is taken of the sum over top ** p, so the rounding of 1/p
        # is magnified by at most ln(size) / p, not by |ln total| / p: a
        # root of the sum itself was 174 ulps off on 1.2345678 2^813 e_1
        assert_matches(lambda: lp_norm(v, p), lp_reference(v, p))


def test_lp_norm_rescales_where_a_sum_of_powers_could_overflow():
    # top^p * k >= 2^1023: the moduli are powered divided by the largest,
    # which leaves out the rounding of 1/p that total ** (1 / p) magnifies
    # by |ln total| / p (101 ulps off here)
    v = GradedVector(range(1, 11), [1.3 * 2.0 ** 1000] + [1.0] * 9)
    assert_matches(lambda: lp_norm(v, 1.02), lp_reference(v, 1.02), ulps=1)


class TestColumnNorms:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(vectors(max_size=8), min_size=1, max_size=4),
           st.sampled_from(GRADINGS), st.booleans(), st.data())
    @example([GradedVector([1], [1e200]), GradedVector([1, 2], [1e154, 1e154])],
             POWER, False, None)
    @example([GradedVector([40], [math.ldexp(1.0, -540)]), GradedVector.zero(),
              GradedVector([5, 9], [0.0, 0.375 - 1.5j])], PLAN_THETA, False, None)
    @example([STEEP_TIE], STEEP, False, None)
    @example([LATE_TIE], LATE, False, None)
    @example([SUBNORMAL, GradedVector([1, 2], [1.0, 2.0])], POWER, False, None)
    # the edges of column_norms' rule for the pairs it sums again: at level
    # 0, four products 1.5 * 2^479 whose sum passes 2^960 with none clamped;
    # products of exactly 2^480; a largest product just below 2^-480; an
    # all-zero column beside a 2^-540 one
    @example([GradedVector(range(1, 5), [1.5 * 2.0 ** 479] * 4)], STEEP, False, None)
    @example([GradedVector([1], [2.0 ** 480]), GradedVector([2], [2.0 ** 479])],
             STEEP, False, None)
    @example([GradedVector([1, 2], [math.nextafter(2.0 ** -480, 0.0), 2.0 ** -500])],
             STEEP, False, None)
    @example([GradedVector([40], [math.ldexp(1.0, -540)]),
              GradedVector([3, 7], [0.0, 0.0])], PLAN_THETA, False, None)
    def test_column_norms_match_the_scalar_norms_and_mpmath(self, vecs, grading,
                                                             dual, data):
        # every (level, column) value is the scalar norm's, bit for bit, and
        # within a few ulps of mpmath; a norm beyond the double range is
        # refused by both with the same error
        levels = [0, grading.levels] if data is None else data.draw(
            st.lists(st.integers(0, grading.levels), min_size=1, max_size=3))
        weighting = grading.dual() if dual else grading
        norm = dual_norm if dual else graded_norm
        want, refused = [], None
        for level in levels:
            row = []
            for v in vecs:
                ref = reference(v, grading.weight_values(level, v.indices), dual)
                got = assert_matches(lambda: norm(v, weighting, level), ref)
                if got is None:
                    with pytest.raises(NormOverflowError) as err:
                        norm(v, weighting, level)
                    refused = refused or str(err.value)
                row.append(got)
            want.append(row)
        mat = stack_columns(vecs, N)
        if refused:
            with pytest.raises(NormOverflowError, match="^%s$" % refused):
                column_norms(mat, weighting, levels)
        else:
            assert column_norms(mat, weighting, levels).tolist() == want


@pytest.mark.filterwarnings("ignore:overflow encountered in absolute")
def test_a_modulus_above_the_double_range_is_refused():
    # |TOP + TOP i| overflows in np.abs itself; no norm may return inf or nan
    v = GradedVector([1, 3], [1.0, TOP + TOP * 1j])
    for call in (lambda: graded_norm(v, POWER, 2),
                 lambda: dual_norm(v, POWER.dual(), 2),
                 lambda: lp_norm(v, 1.5),
                 lambda: column_norms(stack_columns([v], N), POWER, [0, 2])):
        with pytest.raises(NormOverflowError,
                           match="^norm exceeds the largest double$"):
            call()
