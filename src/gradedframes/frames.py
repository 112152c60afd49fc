"""Functional families acting on truncated sequences and their frame bounds.

Two frame forms are supported.  Coordinate: functional i reads the single
coordinate reads[i] and scales it by that coordinate's positive weight b_j.
The diagonal frame (one reader per coordinate) and the paired block frame
(two readers) only build reads; other reader counts are given as data.
Dense: an explicit M x N matrix of functional values.  analyze returns the
coefficient vector {g_i(f)}; co-analysis has one body for one or many
coefficient columns, and coanalyze is its one-column call.

Frame bounds sandwich the analysis coefficients between two graded norms,

    lower * |f|_{s1}  <=  ||| analyze(f) |||_k  <=  upper * |f|_{s2},

and are computed two ways: analytically from per-coordinate ratio sequences
(coordinate frames), and numerically from extremal singular values of the
weighted coefficient matrix.  The two routes are kept independent so one can
serve as an oracle for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .compressed import Compressed, runs
from .gradings import (
    GradedVector,
    WeightGrading,
    graded_norm,
    lp_norm,
)

# Numeric bounds build a dense weighted matrix; refuse beyond this many columns.
DENSE_LIMIT = 2048
# runo_demo's witness family: exponent offset and the prefix lengths read.
RUNO_EPSILON = 0.05
RUNO_PREFIXES = (10, 100, 1000, 10000)


class FrameFormError(ValueError):
    """Operation not defined for this frame form, or a frame whose weights
    overflow."""


def _real(arr, name: str) -> np.ndarray:
    """arr as floats; complex input is refused, not cast to its real part."""
    if np.iscomplexobj(arr):
        raise ValueError("%s must be real, not complex" % name)
    return np.asarray(arr, dtype=float)


def _readonly(arr, dtype=float) -> np.ndarray:
    out = np.asarray(arr, dtype=dtype).copy()
    out.setflags(write=False)
    return out


class FrameSystem:
    """Base class; concrete forms implement the coefficient matrix."""

    truncation: int
    functional_count: int

    def coefficient_rows(self) -> Compressed:
        raise NotImplementedError

    def coefficient_columns(self) -> Compressed:
        """coefficient_rows().T: row j lists the readers of coordinate j + 1."""
        return self.coefficient_rows().T

    def dense_matrix(self) -> np.ndarray:
        return self.coefficient_rows().toarray()


@dataclass(frozen=True, eq=False)
class CoordinateFrame(FrameSystem):
    """Functional i reads the 0-based coordinate reads[i], scaled by the
    positive weight b of that coordinate.

    reads is nondecreasing and covers every coordinate, so the readers of
    coordinate j are the functionals reader_starts[j] .. reader_starts[j+1]-1.
    The frame keeps its Θ reader tables (see reader_hypot).
    """

    reads: np.ndarray
    b: np.ndarray
    _reader_tables: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        b = _readonly(_real(self.b, "b"))
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a nonempty vector")
        if not np.all(np.isfinite(b)):
            raise FrameFormError("coordinate weight %d is not finite"
                                 % (np.flatnonzero(~np.isfinite(b))[0] + 1))
        if not np.all(b > 0):
            raise ValueError("coordinate weights must be positive")
        reads = np.asarray(self.reads)
        if reads.ndim != 1 or reads.size < 1 or reads.dtype.kind not in "iu":
            raise ValueError("reads must be a nonempty integer vector")
        if np.any(np.diff(reads) < 0):
            raise ValueError("reads must be nondecreasing")
        if reads[0] < 0 or reads[-1] >= b.size:
            raise ValueError("reads must lie in [0, %d)" % b.size)
        counts = np.bincount(reads, minlength=b.size)
        if np.any(counts == 0):
            raise ValueError("coordinate %d has no reader" % (np.argmin(counts) + 1))
        object.__setattr__(self, "reads", _readonly(reads, np.int64))
        object.__setattr__(self, "b", b)
        # first reader of every coordinate, then the functional count
        starts = _readonly(np.append(0, np.cumsum(counts)), np.int64)
        object.__setattr__(self, "reader_starts", starts)

    def reader_hypot(self, theta: WeightGrading, level: int) -> np.ndarray:
        """Per coordinate, the hypot of its readers' Θ weights at level, built
        once per (theta, level), read-only; one reader each: the prefix."""
        m = self.functional_count
        if m == self.truncation:
            return _weight_prefix(theta, level, m)
        table = self._reader_tables.get((theta, level))
        if table is None:
            table = np.hypot.reduceat(_weight_prefix(theta, level, m),
                                      self.reader_starts[:-1])
            table.setflags(write=False)
            self._reader_tables[theta, level] = table
        return table

    @property
    def truncation(self) -> int:
        return int(self.b.size)

    @property
    def functional_count(self) -> int:
        return int(self.reads.size)

    def coefficient_rows(self) -> Compressed:
        m = self.functional_count
        return Compressed(np.arange(m + 1), self.reads, self.b[self.reads],
                          (m, self.truncation))

    def coefficient_columns(self) -> Compressed:
        m = self.functional_count
        return Compressed(self.reader_starts, np.arange(m), self.b[self.reads],
                          (self.truncation, m))


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
        g = _readonly(_real(self.matrix, "matrix"))
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

    def coefficient_rows(self) -> Compressed:
        return Compressed.from_dense(self.matrix)

    def dense_matrix(self) -> np.ndarray:
        return self.matrix


def check_support(frame: FrameSystem, f: GradedVector):
    """Refuse a sample reaching beyond the frame truncation."""
    if f.max_index > frame.truncation:
        raise ValueError("sample support %d exceeds frame truncation %d"
                         % (f.max_index, frame.truncation))


def analyze(frame: FrameSystem, f: GradedVector) -> GradedVector:
    """Apply every frame functional to f: the coefficients {g_i(f)}, i <= M."""
    check_support(frame, f)
    if isinstance(frame, CoordinateFrame):
        pos = f.indices - 1
        lo = frame.reader_starts[pos]
        counts = frame.reader_starts[pos + 1] - lo
        return GradedVector(runs(lo, counts) + 1,
                            np.repeat(frame.b[pos] * f.values, counts))
    out = frame.dense_matrix().astype(np.complex128) @ f.to_dense(frame.truncation)
    return GradedVector.from_dense(out).trim()


def analysis_norm(frame: FrameSystem, f: GradedVector, theta: WeightGrading,
                  level: int) -> float:
    return graded_norm(analyze(frame, f), theta, level)


def coanalyze(frame: FrameSystem, c: GradedVector) -> GradedVector:
    """Apply the transposed coefficient matrix: coordinate j of the result
    collects sum_i c_i * g_i(e_j).  Coordinate frames stay exact."""
    if c.max_index > frame.functional_count:
        raise ValueError("coefficient support %d exceeds functional count %d"
                         % (c.max_index, frame.functional_count))
    _, coord, values = _coanalyze_columns(
        frame, np.zeros(c.indices.size, np.int64), c.indices - 1, c.values, 1)
    return GradedVector(coord + 1, values)


def _coanalyze_columns(frame: FrameSystem, col: np.ndarray, funcs: np.ndarray,
                       values: np.ndarray, count: int) -> tuple:
    """coanalyze of count coefficient columns given entry by entry: values[e]
    is the coefficient of the 0-based functional funcs[e] in column col[e],
    ordered by column and then functional.  Returns (column, 0-based
    coordinate, value) ordered by column and then coordinate: on a coordinate
    frame exactly, for every coordinate a stored entry reads, zeros included;
    on a dense frame from one matrix product (whose sums may round differently
    for one column than for many), nonzero entries only."""
    if not isinstance(frame, CoordinateFrame):
        coeff = np.zeros((frame.functional_count, count), dtype=np.complex128)
        coeff[funcs, col] = values
        out = frame.dense_matrix().T.astype(np.complex128) @ coeff
        col, coord = np.nonzero(out.T)
        return col, coord, out[coord, col]
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


def _weight_prefix(grading: WeightGrading, level: int, n: int) -> np.ndarray:
    """Weights w_level(1..n), read from the cached full table; a grading
    shorter than n refuses as weight_values does."""
    w = grading.weights(level)       # refuses a bad level first
    grading._check_coordinate(n)
    return w[:n]


def _functional_sizes(frame: FrameSystem, theta: WeightGrading,
                      theta_level: int) -> np.ndarray:
    """Per-coordinate Θ-weighted size of the functionals acting on it: b_j
    times the hypot of its readers' Θ weights.  The ratio sequence against
    an X level is this divided by the X weights."""
    if not isinstance(frame, CoordinateFrame):
        raise FrameFormError("analytic bounds need a coordinate frame")
    return frame.b * frame.reader_hypot(theta, theta_level)


def _ratios(size: np.ndarray, x: WeightGrading, x_level: int) -> np.ndarray:
    """Ratio sequence of functional sizes against the X weights at x_level."""
    return size / _weight_prefix(x, x_level, size.size)


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
    v_lo = _weight_prefix(x_lower, lower_level, n)
    v_hi = _weight_prefix(x_upper, upper_level, n)
    if np.any(v_lo > v_hi):
        raise ValueError("lower X weight must be dominated by the upper one")
    size = _functional_sizes(frame, theta, theta_level)
    lo, i_lo = _smallest_ratio(size / v_lo)
    hi, i_hi = _largest_ratio(size / v_hi)
    return FrameBounds(lo, hi, witness_lower=i_lo, witness_upper=i_hi)


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
    v_lo = _weight_prefix(x_lower, lower_level, n)
    v_hi = _weight_prefix(x_upper, upper_level, n)
    m = frame.functional_count
    # the Θ-weighted matrix, divided by each side's X weights
    g = _weight_prefix(theta, theta_level, m)[:, None] * frame.dense_matrix()
    _, s_lo, vh_lo = np.linalg.svd(g / v_lo, full_matrices=m < n)
    _, s_hi, vh_hi = np.linalg.svd(g / v_hi, full_matrices=False)
    # fewer functionals than coordinates leave a kernel: the lower bound is 0
    lower = 0.0 if m < n else float(s_lo[-1])
    return FrameBounds(lower, float(s_hi[0]),
                       witness_lower=_unit_witness(vh_lo[-1], v_lo),
                       witness_upper=_unit_witness(vh_hi[0], v_hi))


@dataclass(frozen=True, eq=False)
class RunoReport:
    """Norm-chain check plus the non-closedness witness growth table."""

    passed: bool
    chain_rows: tuple      # (sample index, |.|_q, |.|_2, |.|_p, ok)
    witness_rows: tuple    # (n, |prefix|_2, |prefix|_p)
    witness_exponent: float
    p_sum_diverges: bool
    l2_sum_converges: bool


def runo_demo(p: float, q: float, samples: Sequence[GradedVector]) -> RunoReport:
    """Verify |c|_q <= |c|_2 <= |c|_p on the samples and grow a witness family.

    The witness prefixes, read at the lengths RUNO_PREFIXES, come from
    c_j = j**(-1/(p+RUNO_EPSILON)), which sums to a convergent series in the
    square but a divergent one in the p-th power, so its prefixes stay in an
    l2 ball while leaving every l^p ball.
    """
    if not (1.0 < p < 2.0):
        raise ValueError("p must lie in (1, 2)")
    if not (2.0 < q < math.inf):
        raise ValueError("q must lie in (2, inf)")
    slack = 1 + 1e-12
    chain_rows = []
    for i, c in enumerate(samples):
        nq, n2, np_ = lp_norm(c, q), lp_norm(c, 2.0), lp_norm(c, p)
        chain_rows.append((i, nq, n2, np_, nq <= n2 * slack and n2 <= np_ * slack))

    t = 1.0 / (p + RUNO_EPSILON)
    terms = np.arange(1, RUNO_PREFIXES[-1] + 1, dtype=float) ** (-t)
    sq = np.cumsum(terms ** 2)
    pp = np.cumsum(terms ** p)
    witness_rows = [(n, math.sqrt(sq[n - 1]), pp[n - 1] ** (1.0 / p))
                    for n in RUNO_PREFIXES]
    growing = all(a[2] < b[2] for a, b in zip(witness_rows, witness_rows[1:]))
    return RunoReport(
        passed=all(row[4] for row in chain_rows) and growing,
        chain_rows=tuple(chain_rows),
        witness_rows=tuple(witness_rows),
        witness_exponent=t,
        p_sum_diverges=p * t < 1.0,
        l2_sum_converges=2.0 * t > 1.0,
    )
