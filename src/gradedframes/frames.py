"""Functional families acting on truncated sequences and their frame bounds.

Two frame forms are supported.  Coordinate: functional i reads the single
coordinate reads[i] and scales it by that coordinate's positive weight b_j.
The diagonal frame (one reader per coordinate) and the paired block frame
(two readers) only build reads; other reader counts are given as data.
Dense: an explicit M x N matrix of functional values.

Frame bounds sandwich the analysis coefficients between two graded norms,

    lower * |f|_{s1}  <=  ||| analyze(f) |||_k  <=  upper * |f|_{s2},

and are computed two ways: analytically from per-coordinate ratio sequences
(coordinate frames), and numerically from extremal singular values of the
weighted coefficient matrix.  The two routes are kept independent so one can
serve as an oracle for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .gradings import (
    DualWeighting,
    GradedVector,
    WeightGrading,
    graded_norm,
    lp_norm,
    stack_columns,
)

# Numeric bounds build a dense weighted matrix; refuse beyond this many columns.
DENSE_LIMIT = 2048
# Dense SVD is used when the smaller matrix dimension is at most this,
# otherwise a sparse Lanczos iteration with a fixed start vector.
SPARSE_CUTOVER = 1200


class FrameFormError(ValueError):
    """Operation not defined for this frame form."""


def _readonly(arr, dtype=float) -> np.ndarray:
    out = np.asarray(arr, dtype=dtype).copy()
    out.setflags(write=False)
    return out


def _runs(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions lo_k, lo_k + 1, ..., lo_k + counts_k - 1 for every k, in turn."""
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


class FrameSystem:
    """Base class; concrete forms implement the coefficient matrix."""

    truncation: int
    functional_count: int

    def coefficient_rows(self) -> sp.csr_matrix:
        raise NotImplementedError

    def dense_matrix(self) -> np.ndarray:
        return self.coefficient_rows().toarray()


@dataclass(frozen=True, eq=False)
class CoordinateFrame(FrameSystem):
    """Functional i reads the 0-based coordinate reads[i], scaled by the
    positive weight b of that coordinate.

    reads is nondecreasing and covers every coordinate, so the readers of
    coordinate j are the functionals reader_starts[j] .. reader_starts[j+1]-1.
    """

    reads: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        b = _readonly(self.b)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a nonempty vector")
        if not np.all(b > 0) or not np.all(np.isfinite(b)):
            raise ValueError("coordinate weights must be positive and finite")
        reads = np.asarray(self.reads)
        if reads.ndim != 1 or reads.size < 1 or reads.dtype.kind not in "iu":
            raise ValueError("reads must be a nonempty integer vector")
        if np.any(np.diff(reads) < 0):
            raise ValueError("reads must be nondecreasing")
        if reads[0] < 0 or reads[-1] >= b.size:
            raise ValueError("reads must lie in [0, %d)" % b.size)
        counts = np.bincount(reads, minlength=b.size)
        if np.any(counts == 0):
            raise ValueError("coordinate %d has no reader" % np.argmin(counts))
        object.__setattr__(self, "reads", _readonly(reads, np.int64))
        object.__setattr__(self, "b", b)

    @cached_property
    def reader_starts(self) -> np.ndarray:
        """First reader of every coordinate, then the functional count."""
        return np.searchsorted(self.reads, np.arange(self.b.size + 1))

    @property
    def truncation(self) -> int:
        return int(self.b.size)

    @property
    def functional_count(self) -> int:
        return int(self.reads.size)

    def coefficient_rows(self) -> sp.csr_matrix:
        m = self.functional_count
        return sp.csr_matrix((self.b[self.reads], self.reads, np.arange(m + 1)),
                             shape=(m, self.truncation))

    def scaled(self, c: float) -> "CoordinateFrame":
        out = object.__new__(type(self))
        CoordinateFrame.__init__(out, self.reads, self.b * c)
        return out


class DiagonalFrame(CoordinateFrame):
    """Functional i reads coordinate i with positive weight b_i."""

    def __init__(self, b):
        super().__init__(np.arange(np.size(b)), b)


class BlockFrame(CoordinateFrame):
    """Functionals 2j-1 and 2j both read coordinate j with weight b_pair(j)."""

    def __init__(self, b_pair):
        super().__init__(np.repeat(np.arange(np.size(b_pair)), 2), b_pair)

    @property
    def b_pair(self) -> np.ndarray:
        return self.b


@dataclass(frozen=True, eq=False)
class DenseFrame(FrameSystem):
    """Explicit matrix of functional values, row i = functional i."""

    matrix: np.ndarray

    def __post_init__(self):
        g = _readonly(self.matrix)
        if g.ndim != 2 or 0 in g.shape:
            raise ValueError("matrix must be 2-d and nonempty")
        if not np.all(np.isfinite(g)):
            raise ValueError("matrix entries must be finite")
        object.__setattr__(self, "matrix", g)

    @property
    def truncation(self) -> int:
        return int(self.matrix.shape[1])

    @property
    def functional_count(self) -> int:
        return int(self.matrix.shape[0])

    def coefficient_rows(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.matrix)

    def dense_matrix(self) -> np.ndarray:
        return self.matrix

    def scaled(self, c: float) -> "DenseFrame":
        return DenseFrame(self.matrix * c)


@dataclass(frozen=True, eq=False)
class AnalysisResult:
    """Coefficient sequence {g_i(f)} over functional indices 1..M."""

    coefficients: GradedVector
    functional_count: int

    def __post_init__(self):
        if self.coefficients.max_index > self.functional_count:
            raise ValueError("coefficient index beyond functional count")


def check_support(frame: FrameSystem, f: GradedVector):
    """Refuse a sample reaching beyond the frame truncation."""
    if f.max_index > frame.truncation:
        raise ValueError("sample support %d exceeds frame truncation %d"
                         % (f.max_index, frame.truncation))


def analyze(frame: FrameSystem, f: GradedVector) -> AnalysisResult:
    """Apply every frame functional to f."""
    check_support(frame, f)
    if isinstance(frame, CoordinateFrame):
        pos = f.indices - 1
        lo = frame.reader_starts[pos]
        counts = frame.reader_starts[pos + 1] - lo
        coeff = GradedVector(_runs(lo, counts) + 1,
                             np.repeat(frame.b[pos] * f.values, counts))
    else:
        out = frame.dense_matrix().astype(np.complex128) @ f.to_dense(frame.truncation)
        coeff = GradedVector.from_dense(out).trim()
    return AnalysisResult(coeff, frame.functional_count)


def analysis_norm(frame: FrameSystem, f: GradedVector, theta: WeightGrading,
                  level: int) -> float:
    return graded_norm(analyze(frame, f).coefficients, theta, level)


def coanalyze(frame: FrameSystem, c: GradedVector) -> GradedVector:
    """Apply the transposed coefficient matrix: coordinate j of the result
    collects sum_i c_i * g_i(e_j).  Coordinate frames stay exact."""
    if c.max_index > frame.functional_count:
        raise ValueError("coefficient support %d exceeds functional count %d"
                         % (c.max_index, frame.functional_count))
    if isinstance(frame, CoordinateFrame):
        _, coord, values = _reader_sums(frame, np.zeros(c.indices.size, np.int64),
                                        c.indices - 1, c.values)
        return GradedVector(coord + 1, values)
    g = frame.dense_matrix().T.astype(np.complex128)
    return GradedVector.from_dense(g @ c.to_dense(frame.functional_count)).trim()


def _reader_sums(frame: CoordinateFrame, col: np.ndarray, funcs: np.ndarray,
                 values: np.ndarray) -> tuple:
    """coanalyze of several coefficient columns given entry by entry: values[e]
    is the coefficient of the 0-based functional funcs[e] in column col[e],
    ordered by column and then functional.  Returns (column, 0-based
    coordinate, value) for every coordinate a stored entry reads, zeros
    included, ordered by column and then coordinate."""
    key = col * frame.truncation + frame.reads[funcs]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    col, coord = np.divmod(key[first], frame.truncation)
    sums = np.add.reduceat(values, first)
    # a coordinate with several readers sums them from zero, 0 + c_1 + ...,
    # so a -0.0 sum comes out +0.0; a single reader passes c_i through
    shared = frame.reader_starts[coord + 1] - frame.reader_starts[coord] > 1
    sums = np.where(shared, 0.0 + sums, sums)
    return col, coord, frame.b[coord] * sums


# ---------------------------------------------------------------------------
# frame bounds


@dataclass(frozen=True, eq=False)
class FrameBounds:
    """Optimal two-sided constants at truncation with attaining witnesses.

    Witnesses are coordinate indices for the analytic route and unit vectors
    for the numeric route.
    """

    lower: float
    upper: float
    witness_lower: Union[int, GradedVector]
    witness_upper: Union[int, GradedVector]

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper * (1 + 1e-9)):
            raise ValueError("bounds must satisfy 0 <= lower <= upper, got (%r, %r)"
                             % (self.lower, self.upper))


def _functional_sizes(frame: FrameSystem, theta: WeightGrading,
                      theta_level: int) -> np.ndarray:
    """Per-coordinate Θ-weighted size of the functionals acting on it: b_j
    times the hypot of its readers' Θ weights.  The ratio sequence against
    an X level is this divided by the X weights."""
    if not isinstance(frame, CoordinateFrame):
        raise FrameFormError("analytic bounds need a coordinate frame")
    w = theta.weight_values(theta_level, np.arange(1, frame.functional_count + 1))
    return frame.b * np.hypot.reduceat(w, frame.reader_starts[:-1])


def _ratios(size: np.ndarray, x: WeightGrading, x_level: int) -> np.ndarray:
    """Ratio sequence of functional sizes against the X weights at x_level."""
    return size / x.weight_values(x_level, np.arange(1, size.size + 1))


def _smallest_ratio(ratios: np.ndarray) -> tuple:
    """(min, 1-based coordinate); coordinates whose ratios agree up to
    rounding count as tied, so the witness is the smallest such index, not
    an argmin artifact."""
    lo = float(np.min(ratios))
    return lo, int(np.flatnonzero(ratios <= lo * (1 + 1e-13))[0]) + 1


def _largest_ratio(ratios: np.ndarray) -> tuple:
    """(max, 1-based coordinate), ties resolved as in _smallest_ratio."""
    hi = float(np.max(ratios))
    return hi, int(np.flatnonzero(ratios >= hi * (1 - 1e-13))[0]) + 1


def frame_bounds_analytic(frame: FrameSystem, theta: WeightGrading,
                          theta_level: int, x_lower: WeightGrading,
                          lower_level: int, upper_level: int,
                          x_upper: Optional[WeightGrading] = None) -> FrameBounds:
    """Optimal bounds for coordinate frames from per-coordinate ratios.

    The lower constant is the smallest ratio against the x_lower weights, the
    upper constant the largest against the x_upper weights; ties resolve to
    the smallest coordinate.
    """
    if x_upper is None:
        x_upper = x_lower
    n = frame.truncation
    j = np.arange(1, n + 1)
    v_lo = x_lower.weight_values(lower_level, j)
    v_hi = x_upper.weight_values(upper_level, j)
    if np.any(v_lo > v_hi):
        raise ValueError("lower X weight must be dominated by the upper one")
    size = _functional_sizes(frame, theta, theta_level)
    lo, i_lo = _smallest_ratio(size / v_lo)
    hi, i_hi = _largest_ratio(size / v_hi)
    return FrameBounds(lo, hi, witness_lower=i_lo, witness_upper=i_hi)


def _weighted_matrix(frame: FrameSystem, theta: WeightGrading, theta_level: int,
                     x: WeightGrading, x_level: int) -> np.ndarray:
    m = frame.functional_count
    n = frame.truncation
    w = theta.weight_values(theta_level, np.arange(1, m + 1))
    v = x.weight_values(x_level, np.arange(1, n + 1))
    g = frame.dense_matrix()
    return (w[:, None] * g) / v[None, :]


def _unit_witness(direction: np.ndarray, scale: np.ndarray) -> GradedVector:
    f = direction / scale
    f = f / np.linalg.norm(f)
    k = int(np.argmax(np.abs(f)))
    if f[k] < 0:
        f = -f
    return GradedVector.from_dense(f)


def frame_bounds_numeric(frame: FrameSystem, theta: WeightGrading,
                         theta_level: int, x_lower: WeightGrading,
                         lower_level: int, upper_level: int,
                         x_upper: Optional[WeightGrading] = None) -> FrameBounds:
    """Extremal singular values of the weighted coefficient matrix.

    Works for every frame form and serves as the numeric oracle for the
    analytic route.  Dense linear algebra; refuses truncations beyond
    DENSE_LIMIT columns.
    """
    if x_upper is None:
        x_upper = x_lower
    n = frame.truncation
    if n > DENSE_LIMIT:
        raise ValueError("truncation %d too large for dense mode (limit %d)"
                         % (n, DENSE_LIMIT))
    j = np.arange(1, n + 1)
    v_lo = x_lower.weight_values(lower_level, j)
    v_hi = x_upper.weight_values(upper_level, j)

    a_lo = _weighted_matrix(frame, theta, theta_level, x_lower, lower_level)
    if frame.functional_count < n:
        _, s_lo, vh_lo = np.linalg.svd(a_lo, full_matrices=True)
        lower = 0.0
        wit_lo = _unit_witness(vh_lo[-1], v_lo)
    else:
        _, s_lo, vh_lo = np.linalg.svd(a_lo, full_matrices=False)
        lower = float(s_lo[-1])
        wit_lo = _unit_witness(vh_lo[-1], v_lo)

    a_hi = _weighted_matrix(frame, theta, theta_level, x_upper, upper_level)
    _, s_hi, vh_hi = np.linalg.svd(a_hi, full_matrices=False)
    upper = float(s_hi[0])
    wit_hi = _unit_witness(vh_hi[0], v_hi)
    return FrameBounds(lower, upper, witness_lower=wit_lo, witness_upper=wit_hi)


def bessel_bound(dual_candidates: Sequence[GradedVector],
                 theta_dual: DualWeighting, theta_level: int,
                 x_dual: DualWeighting, x_level: int) -> float:
    """Smallest constant bounding the dual-coefficient map of the candidates.

    Computed as the largest singular value of the matrix with rows f_i,
    scaled by the reciprocal Θ weights on the left and the X weights on the
    right (the extremal quotient of the coefficient map between the two dual
    norms).
    """
    if not dual_candidates:
        raise ValueError("empty candidate list")
    m = len(dual_candidates)
    n = max((f.max_index for f in dual_candidates), default=0)
    n = max(n, 1)
    if n > x_dual.truncation:
        raise ValueError("candidate support beyond truncation")
    w = theta_dual.base.weight_values(theta_level, np.arange(1, m + 1))
    v = x_dual.base.weight_values(x_level, np.arange(1, n + 1))

    mat = stack_columns(dual_candidates, n).T
    if not mat.nnz:
        return 0.0
    if np.all(mat.data.imag == 0):
        mat = mat.real
    mat = sp.diags(1.0 / w) @ mat @ sp.diags(v)
    if min(m, n) <= SPARSE_CUTOVER:
        return float(np.linalg.svd(mat.toarray(), compute_uv=False)[0])
    v0 = np.ones(min(m, n))
    sigma = spla.svds(mat, k=1, which="LM", v0=v0, return_singular_vectors=False)
    return float(sigma[0])


@dataclass(frozen=True, eq=False)
class ExtensionReport:
    """Outcome of the dense-subset extension check (prefix samples vs full)."""

    passed: bool
    truncation_factor: float
    failures: tuple = ()
    notes: tuple = ()


def dense_subset_extension_check(frame: FrameSystem, theta: WeightGrading,
                                 theta_level: int, x: WeightGrading,
                                 lower_level: int, upper_level: int,
                                 lower: float, upper: float,
                                 dense_samples: Sequence[GradedVector],
                                 full_samples: Sequence[GradedVector]) -> ExtensionReport:
    """Check the frame inequality on prefixes with (lower, upper) and on the
    full samples with (lower, λ·upper), λ = 1 for these norms."""
    lam = 1.0
    failures = []
    notes = []
    slack = 1 + 1e-12
    for i, (dsample, fsample) in enumerate(zip(dense_samples, full_samples)):
        if dsample != fsample.prefix(dsample.max_index):
            notes.append("sample %d: dense part is not a prefix of the full vector" % i)
        for tag, vec, cap in (("dense", dsample, upper), ("full", fsample, lam * upper)):
            if vec.trim().is_zero():
                continue
            mid = analysis_norm(frame, vec, theta, theta_level)
            lo = lower * graded_norm(vec, x, lower_level)
            hi = cap * graded_norm(vec, x, upper_level)
            if lo > mid * slack:
                failures.append((i, tag, "lower", lo, mid, vec))
            if mid > hi * slack:
                failures.append((i, tag, "upper", mid, hi, vec))
    return ExtensionReport(not failures, lam, tuple(failures), tuple(notes))


@dataclass(frozen=True, eq=False)
class RunoReport:
    """Norm-chain check plus the non-closedness witness growth table."""

    passed: bool
    chain_rows: tuple      # (sample index, |.|_q, |.|_2, |.|_p, ok)
    witness_rows: tuple    # (n, |prefix|_2, |prefix|_p)
    witness_exponent: float
    p_sum_diverges: bool
    l2_sum_converges: bool


def runo_demo(p: float, q: float, samples: Sequence[GradedVector],
              epsilon: float = 0.05,
              prefix_grid: Sequence[int] = (10, 100, 1000, 10000)) -> RunoReport:
    """Verify |c|_q <= |c|_2 <= |c|_p on the samples and grow a witness family.

    The witness prefixes come from c_j = j**(-1/(p+epsilon)), which sums to a
    convergent series in the square but a divergent one in the p-th power, so
    its prefixes stay in an l2 ball while leaving every l^p ball.
    """
    if not (1.0 < p < 2.0):
        raise ValueError("p must lie in (1, 2)")
    if not (2.0 < q < math.inf):
        raise ValueError("q must lie in (2, inf)")
    slack = 1 + 1e-12
    chain_rows = []
    ok_all = True
    for i, c in enumerate(samples):
        nq = lp_norm(c, q)
        n2 = lp_norm(c, 2.0)
        np_ = lp_norm(c, p)
        ok = nq <= n2 * slack and n2 <= np_ * slack
        ok_all = ok_all and ok
        chain_rows.append((i, nq, n2, np_, ok))

    t = 1.0 / (p + epsilon)
    witness_rows = []
    top = max(prefix_grid)
    j = np.arange(1, top + 1, dtype=float)
    terms = j ** (-t)
    sq = np.cumsum(terms ** 2)
    pp = np.cumsum(terms ** p)
    for n in sorted(prefix_grid):
        witness_rows.append((int(n), math.sqrt(sq[n - 1]), pp[n - 1] ** (1.0 / p)))
    growing = all(a[2] < b[2] for a, b in zip(witness_rows, witness_rows[1:]))
    return RunoReport(
        passed=ok_all and growing,
        chain_rows=tuple(chain_rows),
        witness_rows=tuple(witness_rows),
        witness_exponent=t,
        p_sum_diverges=p * t < 1.0,
        l2_sum_converges=2.0 * t > 1.0,
    )
