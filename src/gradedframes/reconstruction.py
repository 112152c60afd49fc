"""Left inverses, dual systems, synthesis and projection operators.

The analysis map U sends a coordinate vector to its frame coefficients.  A
reconstruction operator V is a concrete left inverse of U at truncation.
Every operator here is one sparse numerator M with an optional row divisor d,
out = (M @ x) / d.  From V the module derives the dual system f_i = V(e_i),
the synthesis operator d -> sum d_i f_i with its per-level bound table, and
the projection P = U V onto the coefficient range of U, and verifies the
expansion identities with their tail bounds.

A rule with a divisor sums its products first and divides once per output.
The division is deliberate: for dyadic data and integer weights the quotient
is exact in floating point, which makes prefix reconstruction residuals reach
zero exactly once the support is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .frames import (
    DENSE_LIMIT,
    CoordinateFrame,
    FrameFormError,
    FrameSystem,
    analyze,
    frame_bounds_analytic,
    frame_bounds_numeric,
    _reader_sums,
    _runs,
)
from .gradings import (
    GradedVector,
    WeightGrading,
    column_norms,
    dual_norm,
    graded_norm,
    stack_columns,
    union_values,
)
from .multilevel import ContinuityData, IndexPlan

LEFT_INVERSE_TOL = 1e-10
RANGE_TOL = 1e-9
IDEMPOTENCE_TOL = 1e-12
BOUND_MATCH_TOL = 1e-9


def _exact_div(values: np.ndarray, div) -> np.ndarray:
    # numpy routes complex-by-real division through the complex kernel,
    # which rounds quotients the componentwise real division gets exact
    # (e.g. -1458/2916); divide the parts separately to keep the zero
    # residuals the division-structured rules promise
    return values.real / div + 1j * (values.imag / div)


def _pattern(rows, cols, vals, shape) -> sp.csr_matrix:
    """CSR matrix holding vals at (rows, cols), zeros included, in the dtype
    of vals; entries ordered by row and then column.  Its transpose is the
    CSC matrix of the same entries with rows and columns swapped."""
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return sp.csr_matrix((np.asarray(vals), cols, indptr), shape=shape)


def _gather(mat, pos, values, out_div, in_div, col=None) -> tuple:
    """Apply a compressed matrix to sparse columns given entry by entry:
    values[e] sits at the 0-based input pos[e] of column col[e] (of the one
    column when col is None), ordered by column and then input.

    Slice j of mat lists the outputs input j reaches; every product is
    divided by in_div of its input, the products are summed per column and
    output in input order, and each sum is divided by out_div.  Returns
    (column, 0-based output, value) for every output an entry reaches, zero
    sums included, ordered by column and then output.
    """
    dim = mat.indptr.size - 1
    if pos.size and pos.max() >= dim:
        raise ValueError("input support %d exceeds dimension %d" % (pos.max() + 1, dim))
    lo = mat.indptr[pos]
    counts = mat.indptr[pos + 1] - lo
    take = _runs(lo, counts)
    out = mat.indices[take]
    prods = np.repeat(values, counts) * mat.data[take]
    if in_div is not None:
        prods = _exact_div(prods, np.repeat(in_div[pos], counts))
    key = out
    if col is not None:
        width = int(out.max()) + 1 if out.size else 1
        key = np.repeat(col, counts) * width + out
    if key.size > 1 and not np.all(key[1:] > key[:-1]):
        key, inverse = np.unique(key, return_inverse=True)
        prods = (np.bincount(inverse, prods.real)
                 + 1j * np.bincount(inverse, prods.imag))
    if col is not None:
        col, key = np.divmod(key, width)
    if out_div is not None:
        prods = _exact_div(prods, out_div[key])
    return col, key, prods


@dataclass(frozen=True, eq=False)
class SequenceOperator:
    """Linear map out = (M @ x) / d between truncated coordinate spaces.

    The numerator M is a sparse out x in matrix; its stored pattern, zeros
    included, decides which outputs an input reaches.  The row divisor d
    marks a division-structured rule with exact zero residuals; a
    matrix-backed map whose entries are already rounded values has none.
    """

    numerator: sp.csr_matrix
    divisor: Optional[np.ndarray] = None

    def __post_init__(self):
        num = sp.csr_matrix(self.numerator, copy=True)
        num.sum_duplicates()
        if 0 in num.shape:
            raise ValueError("dimensions must be positive")
        d = self.divisor
        if d is not None:
            d = np.array(d, dtype=float)
            if d.shape != (num.shape[0],):
                raise ValueError("divisor must have length %d" % num.shape[0])
            if np.any(d == 0):
                raise ValueError("zero divisor")
            d.setflags(write=False)
        for arr in (num.data, num.indices, num.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "divisor", d)

    @cached_property
    def _csc(self) -> sp.csc_matrix:
        """Column slices for apply()."""
        return self.numerator.tocsc()

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row of every stored entry."""
        num = self.numerator
        return np.repeat(np.arange(num.shape[0]), np.diff(num.indptr))

    @cached_property
    def _values(self) -> sp.csr_matrix:
        """Entries of the operator: the numerator with every row divided."""
        num = self.numerator
        data = num.data if self.divisor is None else num.data / self.divisor[self._rows]
        return sp.csr_matrix((data, num.indices, num.indptr), shape=num.shape)

    @cached_property
    def _orthogonal_rows(self) -> Optional[np.ndarray]:
        """Start of every nonempty row when no input feeds two outputs, so
        that the rows are orthogonal; None otherwise."""
        num = self.numerator
        if np.any(np.bincount(num.indices, minlength=self.in_dim) > 1):
            return None
        return num.indptr[:-1][np.diff(num.indptr) > 0]

    @property
    def in_dim(self) -> int:
        return self.numerator.shape[1]

    @property
    def out_dim(self) -> int:
        return self.numerator.shape[0]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SequenceOperator":
        return SequenceOperator(sp.identity(n, format="csr"), np.ones(n))

    @staticmethod
    def zero_map(in_dim: int, out_dim: int) -> "SequenceOperator":
        return SequenceOperator(sp.csr_matrix((out_dim, in_dim)), np.ones(out_dim))

    @staticmethod
    def diagonal(mult, div) -> "SequenceOperator":
        """out_j = in_j * mult_j / div_j."""
        n = max(np.size(mult), np.size(div))
        m = np.broadcast_to(np.asarray(mult, dtype=float), (n,))
        d = np.broadcast_to(np.asarray(div, dtype=float), (n,))
        return SequenceOperator(_pattern(np.arange(n), np.arange(n), m, (n, n)), d)

    @staticmethod
    def pair_collapse(co_odd, co_even, div) -> "SequenceOperator":
        """out_j = (co_odd_j in_{2j-1} + co_even_j in_{2j}) / div_j."""
        d = np.asarray(div, dtype=float)
        n = d.size
        o = np.broadcast_to(np.asarray(co_odd, dtype=float), (n,))
        e = np.broadcast_to(np.asarray(co_even, dtype=float), (n,))
        return SequenceOperator(
            _pattern(np.repeat(np.arange(n), 2), np.arange(2 * n),
                     np.stack([o, e], axis=1).ravel(), (n, 2 * n)), d)

    @staticmethod
    def pair_mix(co_odd, co_even, pairs: int) -> "SequenceOperator":
        """out_{2j-1} = out_{2j} = co_odd_j in_{2j-1} + co_even_j in_{2j}."""
        collapse = SequenceOperator.pair_collapse(co_odd, co_even, np.ones(pairs))
        return SequenceOperator(collapse.numerator[np.repeat(np.arange(pairs), 2)],
                                np.ones(2 * pairs))

    @staticmethod
    def from_columns(vectors: Sequence[GradedVector], out_dim: int) -> "SequenceOperator":
        return SequenceOperator(_stack_columns(vectors, out_dim,
                                               "column %d exceeds output dimension"))

    @staticmethod
    def dense(matrix) -> "SequenceOperator":
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or 0 in m.shape:
            raise ValueError("matrix must be 2-d and nonempty")
        rows, cols = np.indices(m.shape)
        return SequenceOperator(_pattern(rows.ravel(), cols.ravel(), m.ravel(), m.shape))

    # -- application -------------------------------------------------------

    def apply(self, v: GradedVector) -> GradedVector:
        _, out, values = _gather(self._csc, v.indices - 1, v.values, self.divisor, None)
        return GradedVector(out + 1, values)

    def apply_columns(self, x) -> sp.csc_matrix:
        """Apply to every column of a sparse matrix at once.

        The numerator product is formed first and each row of it is then
        divided by its divisor, so for x = I column j holds the values
        apply() gives for the canonical vector e_{j+1}.  A column whose
        support exceeds the input dimension is refused as apply() refuses it.
        """
        x = sp.csc_matrix(x)
        if x.shape[0] > self.in_dim:
            cols = np.repeat(np.arange(x.shape[1]), np.diff(x.indptr))
            beyond = cols[x.indices >= self.in_dim]
            if beyond.size:
                top = x.indices[cols == beyond.min()].max() + 1
                raise ValueError("input support %d exceeds dimension %d"
                                 % (top, self.in_dim))
        if x.shape[0] != self.in_dim:
            x = sp.csc_matrix((x.data, x.indices, x.indptr),
                              shape=(self.in_dim, x.shape[1]))
        out = sp.csc_matrix(self.numerator @ x, dtype=np.complex128)
        out.sort_indices()
        if self.divisor is not None:
            out.data = _exact_div(out.data, self.divisor[out.indices])
        return out

    def transpose_apply(self, g: GradedVector) -> GradedVector:
        """Apply the transpose, (M_ij g_i) / d_i entry by entry, for
        coefficient functionals."""
        _, out, values = _gather(self.numerator, g.indices - 1, g.values, None,
                                 self.divisor)
        return GradedVector(out + 1, values)

    # -- norms ---------------------------------------------------------------

    def weighted_norm(self, out_weights: np.ndarray, in_weights: np.ndarray) -> float:
        """Operator norm between weighted l2 spaces given full weight tables."""
        ow = np.asarray(out_weights, dtype=float)
        iw = np.asarray(in_weights, dtype=float)
        if ow.size < self.out_dim or iw.size < self.in_dim:
            raise ValueError("weight tables shorter than the operator dimensions")
        ow, iw = ow[:self.out_dim], iw[:self.in_dim]
        starts = self._orthogonal_rows
        if starts is not None:
            # orthogonal rows: the norm is the largest weighted row norm
            cols = self.numerator.indices
            terms = (np.abs(self._values.data) * ow[self._rows]) / iw[cols]
            return float(np.max(np.hypot.reduceat(terms, starts), initial=0.0))
        if max(self.in_dim, self.out_dim) > DENSE_LIMIT:
            raise ValueError("operator too large for dense norm computation")
        weighted = (ow[:, None] * self._values.toarray()) / iw[None, :]
        return float(np.linalg.svd(weighted, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# dual systems and synthesis


def _stack_columns(vectors: Sequence[GradedVector], rows: int,
                   message: str) -> sp.csc_matrix:
    """Sparse matrix whose column i holds vectors[i]; message names a column
    whose support exceeds the row count."""
    for i, f in enumerate(vectors):
        if f.max_index > rows:
            raise ValueError(message % (i + 1))
    return stack_columns(vectors, rows)


@dataclass(frozen=True, eq=False)
class DualSystem:
    """Reconstruction family f_i = V(e_i), stored as column i of a sparse
    truncation x functional-count matrix."""

    matrix: sp.csc_matrix

    def __post_init__(self):
        mat = sp.csc_matrix(self.matrix, dtype=np.complex128)
        mat.sort_indices()
        object.__setattr__(self, "matrix", mat)

    @staticmethod
    def from_vectors(vectors: Sequence[GradedVector], truncation: int) -> "DualSystem":
        return DualSystem(_stack_columns(vectors, truncation,
                                         "dual vector %d exceeds truncation"))

    @property
    def truncation(self) -> int:
        return self.matrix.shape[0]

    def __len__(self) -> int:
        return self.matrix.shape[1]

    def __getitem__(self, i: int) -> GradedVector:
        """Dual vector f_{i+1}; positions count from 0 as in a sequence."""
        i = range(len(self))[i]
        lo, hi = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        return GradedVector(self.matrix.indices[lo:hi] + 1, self.matrix.data[lo:hi])


@dataclass(frozen=True, eq=False)
class SynthesisOp:
    """Reconstruction rule with its dual system and per-level bound table."""

    rule: SequenceOperator
    dual: DualSystem
    bounds: ContinuityData

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.bounds.consts):
            raise ValueError("synthesis bound table contains non-finite entries")


def build_dual_from_V(rule: SequenceOperator) -> DualSystem:
    """Dual vectors are the images of the canonical coefficient vectors."""
    return DualSystem(rule.apply_columns(sp.identity(rule.in_dim, format="csc")))


def _detect_rule(dual: DualSystem) -> SequenceOperator:
    """Structured rule reproducing the dual as its canonical images.

    For m = k n functionals every nonzero dual vector f_i must be one real
    entry at coordinate ceil(i/k): the rule of a frame whose coordinates all
    have k readers, such as the diagonal (k = 1) and block (k = 2) frames.
    """
    m = len(dual)
    n = dual.truncation
    mat = dual.matrix.copy()
    mat.eliminate_zeros()
    counts = np.diff(mat.indptr)
    if m % n == 0 and np.all(counts <= 1) and np.all(mat.data.imag == 0):
        # one entry per nonempty column, so rows and cols align entrywise
        owner = np.arange(m) // (m // n)
        cols = np.flatnonzero(counts)
        if np.array_equal(mat.indices, owner[cols]):
            coeff = np.zeros(m)
            coeff[cols] = mat.data.real
            return SequenceOperator(_pattern(owner, np.arange(m), coeff, (n, m)),
                                    np.ones(n))
    return SequenceOperator(dual.matrix)


def _bound_table(rule: SequenceOperator, x_grading: WeightGrading,
                 theta_grading: WeightGrading, plan: IndexPlan) -> ContinuityData:
    consts = []
    for k in range(plan.budget + 1):
        s_k = plan.lower_levels[k]
        c = rule.weighted_norm(x_grading.weights(s_k), theta_grading.weights(k))
        if not math.isfinite(c) or c <= 0:
            raise ValueError("degenerate synthesis bound %r at level %d" % (c, k))
        consts.append(c)
    return ContinuityData(tuple(range(plan.budget + 1)), tuple(consts))


def synthesis_from_rule(rule: SequenceOperator, x_grading: WeightGrading,
                        theta_grading: WeightGrading, plan: IndexPlan) -> SynthesisOp:
    return SynthesisOp(rule, build_dual_from_V(rule),
                       _bound_table(rule, x_grading, theta_grading, plan))


def build_V_from_dual(dual: DualSystem, x_grading: WeightGrading,
                      theta_grading: WeightGrading, plan: IndexPlan) -> SynthesisOp:
    """Reconstruction operator whose canonical images are the given dual."""
    rule = _detect_rule(dual)
    return SynthesisOp(rule, dual, _bound_table(rule, x_grading, theta_grading, plan))


def _check_prefix(n: int, dim: int) -> None:
    if n < 0 or n > dim:
        raise ValueError("prefix length %d out of range [0, %d]" % (n, dim))


def synthesize(op: SynthesisOp, d: GradedVector, n: int) -> GradedVector:
    """Partial reconstruction sum over the first n coefficients."""
    _check_prefix(n, op.rule.in_dim)
    return op.rule.apply(d.prefix(n))


# ---------------------------------------------------------------------------
# projections


@dataclass(frozen=True, eq=False)
class ProjectionOp:
    """Projection of the coefficient space onto the range of the analysis map."""

    rule: SequenceOperator
    continuity: tuple
    idempotence_defect: float

    def __post_init__(self):
        if self.rule.in_dim != self.rule.out_dim:
            raise ValueError("projection must preserve the dimension")
        if not self.idempotence_defect <= IDEMPOTENCE_TOL:
            raise ValueError("projection defect %g beyond tolerance"
                             % self.idempotence_defect)

    def apply(self, d: GradedVector) -> GradedVector:
        return self.rule.apply(d)


def _mismatched_columns(a, b, tol: float) -> np.ndarray:
    """Sorted columns where np.isclose(a, b, rtol=tol, atol=tol) fails.

    Entries are compared on the union of the two sparsity patterns; every
    other entry is zero in both.  The row counts may differ.
    """
    a = sp.csc_matrix(a)
    b = sp.csc_matrix(b)
    rows = max(a.shape[0], b.shape[0])

    def keys(mat):
        cols = np.repeat(np.arange(mat.shape[1], dtype=np.int64), np.diff(mat.indptr))
        return cols * rows + mat.indices

    union, va, vb = union_values(keys(a), a.data, keys(b), b.data)
    return np.unique(union[~np.isclose(va, vb, rtol=tol, atol=tol)] // rows)


def _left_inverse_failure(frame: FrameSystem, rule: SequenceOperator) -> Optional[int]:
    """Smallest coordinate j with V(U e_j) != e_j beyond LEFT_INVERSE_TOL."""
    back = rule.apply_columns(frame.coefficient_rows())
    bad = _mismatched_columns(back, sp.identity(frame.truncation, format="csc"),
                              LEFT_INVERSE_TOL)
    return int(bad[0]) + 1 if bad.size else None


def _column_norms(mat, grading: WeightGrading, level: int) -> np.ndarray:
    """Level norms of the columns of a sparse matrix, as graded_norm gives
    them up to the summation order.  The range check compares these against
    a tolerance over every coordinate, so it takes one bincount sum rather
    than gradings.column_norms' exact sum per column."""
    mat = sp.csc_matrix(mat)
    w = grading.weights(level)
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    terms = (np.abs(mat.data) * w[mat.indices]) ** 2
    return np.sqrt(np.bincount(cols, weights=terms, minlength=mat.shape[1]))


def _idempotence_defect(rule: SequenceOperator) -> float:
    p = rule._values
    drift = p @ p - p
    return float(np.max(np.abs(drift.data))) if drift.nnz else 0.0


def projection_from_V(frame: FrameSystem, op: SynthesisOp,
                      theta_grading: WeightGrading) -> ProjectionOp:
    """Compose analysis with reconstruction, folding coordinate frames.

    Requires the reconstruction rule to be a left inverse of the analysis
    map on canonical vectors.
    """
    rule = op.rule
    m, n = frame.functional_count, frame.truncation
    if (rule.in_dim, rule.out_dim) != (m, n):
        raise ValueError("reconstruction maps %d coefficients to %d coordinates, "
                         "the frame has %d functionals on %d coordinates"
                         % (rule.in_dim, rule.out_dim, m, n))
    j = _left_inverse_failure(frame, rule)
    if j is not None:
        raise ValueError("reconstruction is not a left inverse at coordinate %d" % j)
    weights = [theta_grading.weights(k)[:m] for k in range(theta_grading.levels + 1)]
    if isinstance(frame, CoordinateFrame) and rule.divisor is not None:
        # every functional reading coordinate j sees the row (b_j M_j) / d_j
        # of P = U V; the norm of P is that of one row per coordinate with
        # the hypot of the readers' weights as its output weight
        once = rule.numerator.copy()
        once.data = (frame.b[rule._rows] * once.data) / rule.divisor[rule._rows]
        prule = SequenceOperator(once[frame.reads], np.ones(m))
        norm_rule = SequenceOperator(once, np.ones(n))
        starts = frame.reader_starts[:-1]
        out_weights = [np.hypot.reduceat(w, starts) for w in weights]
    else:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large to compose a dense projection")
        g = frame.dense_matrix()
        vmat = rule.apply_columns(sp.identity(m, format="csc")).toarray().real
        prule = norm_rule = SequenceOperator.dense(g @ vmat)
        out_weights = weights
    continuity = tuple(norm_rule.weighted_norm(o, w)
                       for o, w in zip(out_weights, weights))
    return ProjectionOp(prule, continuity, _idempotence_defect(prule))


def _rows_per_coordinate(frame: FrameSystem,
                         prule: SequenceOperator) -> Optional[sp.csr_matrix]:
    """Row j of P when every functional reading coordinate j sees that same
    row, supported on the functionals reading j; None otherwise."""
    if (not isinstance(frame, CoordinateFrame) or prule.divisor is None
            or prule.in_dim != frame.functional_count):
        return None
    p = prule._values
    once = p[frame.reader_starts[:-1]]
    seen = once[frame.reads]
    same = all(np.array_equal(getattr(seen, a), getattr(p, a))
               for a in ("indptr", "indices", "data"))
    rows = np.repeat(np.arange(frame.truncation), np.diff(once.indptr))
    return once if same and np.all(frame.reads[once.indices] == rows) else None


def V_from_projection(frame: FrameSystem, proj: ProjectionOp,
                      x_grading: WeightGrading, theta_grading: WeightGrading,
                      plan: IndexPlan) -> SynthesisOp:
    """Solve analysis(x) = P(d) for x, coordinate by coordinate.

    A coordinate frame whose projection gives all readers of a coordinate
    one row is solved in closed form; otherwise a least-squares solve with a
    residual check is used.  The recovered rule must be a left inverse of
    the analysis map.
    """
    prule = proj.rule
    m = frame.functional_count
    rows = _rows_per_coordinate(frame, prule)
    if rows is not None:
        rule = SequenceOperator(rows, frame.b)
    else:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large for a dense solve")
        g = frame.dense_matrix()
        pmat = prule.apply_columns(sp.identity(m, format="csc")).toarray().real
        vmat, *_ = np.linalg.lstsq(g, pmat, rcond=None)
        resid = g @ vmat - pmat
        scale = max(float(np.linalg.norm(pmat)), 1.0)
        if np.linalg.norm(resid) > RANGE_TOL * scale:
            raise ValueError("projection output leaves the analysis range "
                             "(relative residual %.3g)"
                             % (np.linalg.norm(resid) / scale))
        rule = SequenceOperator.dense(vmat)
    # range check: U V must reproduce P column by column
    eye = sp.identity(m, format="csc")
    target = prule.apply_columns(eye)
    got = frame.coefficient_rows() @ rule.apply_columns(eye)
    scale = np.maximum(_column_norms(target, theta_grading, 0), 1.0)
    bad = np.flatnonzero(_column_norms(got - target, theta_grading, 0)
                         > RANGE_TOL * scale)
    if bad.size:
        raise ValueError("projection output leaves the analysis range "
                         "at coefficient %d" % (bad[0] + 1))
    j = _left_inverse_failure(frame, rule)
    if j is not None:
        raise ValueError("recovered operator is not a left inverse "
                         "at coordinate %d" % j)
    return SynthesisOp(rule, build_dual_from_V(rule),
                       _bound_table(rule, x_grading, theta_grading, plan))


# ---------------------------------------------------------------------------
# expansion verification


@dataclass(frozen=True, eq=False)
class ExpansionRow:
    sample: int
    level: int
    grid: tuple
    profile: tuple
    tail_bounds: tuple
    support: int
    zero_from: Optional[int]
    ok: bool


@dataclass(frozen=True, eq=False)
class ExpansionReport:
    passed: bool
    rows: tuple

    def row(self, sample: int, level: int) -> ExpansionRow:
        for r in self.rows:
            if r.sample == sample and r.level == level:
                return r
        raise KeyError((sample, level))


def _default_grid(support: int, limit: int) -> tuple:
    return tuple(range(0, min(support + 8, limit) + 1))


def _expansion_row(pos: int, level: int, grid: tuple, profile: tuple,
                   bounds: tuple, support: int, floor: float) -> ExpansionRow:
    """Judge one tail profile: within its bounds everywhere, and at most
    floor from the first grid point covering the support on."""
    ok = all(r <= max(b * (1 + 1e-12), floor) for r, b in zip(profile, bounds))
    zero_from = next((n for n, r in zip(grid, profile)
                      if n >= support and r <= floor), None)
    tail_ok = all(r <= floor for n, r in zip(grid, profile) if n >= support)
    ok = ok and tail_ok and (zero_from is not None or support > max(grid))
    return ExpansionRow(pos, level, grid, profile, bounds, support, zero_from, ok)


def _prefixes_and_tails(v: GradedVector, grid: tuple) -> tuple:
    """v.prefix(n) for every n in grid as entries (column, 0-based
    coordinate, value) ordered by column, and v.tail(n) as the columns of a
    CSC matrix; stored zeros included."""
    stop = np.searchsorted(v.indices, grid, side="right")
    cols = np.arange(stop.size)
    head = _runs(np.zeros_like(stop), stop)
    rest = _runs(stop, v.support_size - stop)
    tails = _pattern(np.repeat(cols, v.support_size - stop), v.indices[rest] - 1,
                     v.values[rest], (stop.size, max(v.max_index, 1))).T
    return (np.repeat(cols, stop), v.indices[head] - 1, v.values[head]), tails


def _residuals(v: GradedVector, col, row, data, count: int) -> sp.csc_matrix:
    """Column q holds v minus column q of the entries (col, row, data), stored
    on the union of the two supports as GradedVector subtraction stores it;
    non-finite entries are refused as a GradedVector refuses them."""
    width = max(v.max_index, int(row.max()) + 1 if row.size else 1)
    own = (np.arange(count)[:, None] * width + (v.indices - 1)).ravel()
    keys, a, b = union_values(own, np.tile(v.values, count), col * width + row, data)
    diff = a - b
    if not (np.all(np.isfinite(data)) and np.all(np.isfinite(diff))):
        raise ValueError("entries must be finite")
    col, row = np.divmod(keys, width)
    return _pattern(col, row, diff, (count, width)).T


def _coanalyze_columns(frame: FrameSystem, col, funcs, values, count: int) -> tuple:
    """coanalyze of every column of the coefficient entries (col, funcs,
    values), as (column, 0-based coordinate, value) ordered by column.

    Coordinate frames give coanalyze's values and stored entries bit for bit.
    A dense frame takes one matrix product, whose sums may round differently
    from coanalyze's matrix-vector product, and keeps its nonzero entries.
    """
    m = frame.functional_count
    beyond = np.flatnonzero(funcs >= m)
    if beyond.size:
        first = funcs[col == col[beyond[0]]]
        raise ValueError("coefficient support %d exceeds functional count %d"
                         % (first.max() + 1, m))
    if isinstance(frame, CoordinateFrame):
        return _reader_sums(frame, col, funcs, values)
    coeff = np.zeros((m, count), dtype=np.complex128)
    coeff[funcs, col] = values
    out = frame.dense_matrix().T.astype(np.complex128) @ coeff
    col, coord = np.nonzero(out.T)
    return col, coord, out[coord, col]


def verify_expansion(frame: FrameSystem, op: SynthesisOp,
                     x_grading: WeightGrading, theta_grading: WeightGrading,
                     plan: IndexPlan, samples: Sequence[GradedVector],
                     n_grid: Optional[Sequence[int]] = None) -> ExpansionReport:
    """Tail profiles of the reconstruction expansion with their bounds.

    For each sample f and level k the residual after the n-term partial
    reconstruction is measured in the level-s_k norm and compared with
    upper_const_k times the coefficient tail norm at level k.  Once n covers
    the coefficient support the residual must vanish: exactly for the
    division-structured rules, within a relative floor for matrix-backed
    ones whose solves round.

    Each sample's whole grid is checked at once: column q of one matrix
    holds the coefficient prefix of length grid[q], the rule is gathered
    over all of its columns, and every level takes one column_norms call on
    the residuals and one on the tails.  The values are bit for bit those of
    synthesize and graded_norm point by point.
    """
    rule = op.rule
    exact = rule.divisor is not None
    rows = []
    for pos, f in enumerate(samples):
        coeff = analyze(frame, f).coefficients
        support = coeff.trim().max_index
        grid = tuple(n_grid) if n_grid is not None \
            else _default_grid(support, rule.in_dim)
        for n in grid:
            _check_prefix(n, rule.in_dim)
        (col, inputs, values), tails = _prefixes_and_tails(coeff, grid)
        col, out, values = _gather(rule._csc, inputs, values, rule.divisor, None, col)
        residuals = _residuals(f, col, out, values, len(grid))
        for k in range(plan.budget + 1):
            s_k = plan.lower_levels[k]
            b_k = plan.upper_consts[k]
            floor = 0.0 if exact \
                else 1e-12 * max(graded_norm(f, x_grading, s_k), 1.0)
            profile = tuple(column_norms(residuals, x_grading, s_k).tolist())
            bounds = tuple((b_k * column_norms(tails, theta_grading, k)).tolist())
            rows.append(_expansion_row(pos, k, grid, profile, bounds, support, floor))
    return ExpansionReport(all(r.ok for r in rows), tuple(rows))


def verify_dual_expansion(frame: FrameSystem, op: SynthesisOp,
                          x_grading: WeightGrading, theta_grading: WeightGrading,
                          plan: IndexPlan, dual_samples: Sequence[GradedVector],
                          n_grid: Optional[Sequence[int]] = None) -> ExpansionReport:
    """Tail profiles of the coefficient-functional expansion.

    A functional with coefficient vector g expands through the dual values
    c_i = g(f_i).  The residual after n terms is measured in the dual norm
    at the plan's upper level and compared with the synthesis-transpose
    bound times the dual-coefficient tail norm.

    As in verify_expansion, each sample co-analyzes the prefixes of its
    whole grid at once and every level takes one column_norms call per
    matrix.  Coordinate frames give coanalyze and dual_norm's values point
    by point bit for bit; dense frames may differ in the last bits.
    """
    tilde = []
    for k in range(plan.budget + 1):
        t_k = plan.upper_levels[k]
        try:
            tilde.append(frame_bounds_analytic(frame, theta_grading, k,
                                               x_grading, t_k, t_k).upper)
        except FrameFormError:
            tilde.append(frame_bounds_numeric(frame, theta_grading, k,
                                              x_grading, t_k, t_k).upper)
    exact = op.rule.divisor is not None
    rows = []
    for pos, g in enumerate(dual_samples):
        c = op.rule.transpose_apply(g)
        support = c.trim().max_index
        grid = tuple(n_grid) if n_grid is not None \
            else _default_grid(support, frame.functional_count)
        (col, funcs, values), tails = _prefixes_and_tails(c, grid)
        residuals = _residuals(g, *_coanalyze_columns(frame, col, funcs, values,
                                                      len(grid)), len(grid))
        for k in range(plan.budget + 1):
            t_k = plan.upper_levels[k]
            floor = 0.0 if exact \
                else 1e-12 * max(dual_norm(g, x_grading.dual(), t_k), 1.0)
            profile = tuple(column_norms(residuals, x_grading.dual(), t_k).tolist())
            bounds = tuple((tilde[k] * column_norms(tails, theta_grading.dual(),
                                                    k)).tolist())
            rows.append(_expansion_row(pos, k, grid, profile, bounds, support, floor))
    return ExpansionReport(all(r.ok for r in rows), tuple(rows))


# ---------------------------------------------------------------------------
# equivalence round trip


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    passed: bool
    canonical_match: bool
    left_inverse_ok: bool
    idempotence_defect: float
    bound_tables: tuple
    notes: tuple


def verify_equivalences(frame: FrameSystem, x_grading: WeightGrading,
                        theta_grading: WeightGrading, plan: IndexPlan,
                        source_kind: str, source) -> EquivalenceReport:
    """Round-trip construction chain: V -> dual -> V' -> P -> V''.

    Whatever the starting witness, the remaining ones are constructed and
    cross-checked: V' must agree with V on canonical vectors, P must be
    idempotent, V'' must be a left inverse, and the three per-level bound
    tables must agree within relative tolerance.
    """
    notes = []
    if source_kind == "V":
        rule = source if isinstance(source, SequenceOperator) else source.rule
        op0 = synthesis_from_rule(rule, x_grading, theta_grading, plan)
    elif source_kind == "dual":
        op0 = build_V_from_dual(source, x_grading, theta_grading, plan)
    elif source_kind == "projection":
        op0 = V_from_projection(frame, source, x_grading, theta_grading, plan)
    else:
        raise ValueError("unknown source kind %r" % (source_kind,))

    # op0.dual already holds the canonical images of op0.rule, except for a
    # dual source, where it is the given dual and would rebuild op0.rule itself
    dual0 = build_dual_from_V(op0.rule) if source_kind == "dual" else op0.dual
    op1 = build_V_from_dual(dual0, x_grading, theta_grading, plan)
    eye = sp.identity(frame.functional_count, format="csc")
    canonical_match = not _mismatched_columns(op1.rule.apply_columns(eye),
                                              op0.rule.apply_columns(eye),
                                              1e-12).size
    if not canonical_match:
        notes.append("reconstruction rebuilt from the dual differs on canonicals")

    proj = projection_from_V(frame, op1, theta_grading)
    op2 = V_from_projection(frame, proj, x_grading, theta_grading, plan)
    j = _left_inverse_failure(frame, op2.rule)
    left_inverse_ok = j is None
    if not left_inverse_ok:
        notes.append("final reconstruction fails left inversion at %d" % j)

    tables = (op0.bounds.consts, op1.bounds.consts, op2.bounds.consts)
    bounds_ok = True
    for k in range(plan.budget + 1):
        ref = tables[0][k]
        for t in tables[1:]:
            if abs(t[k] - ref) > BOUND_MATCH_TOL * max(ref, 1e-300):
                bounds_ok = False
                notes.append("bound table mismatch at level %d" % k)
    passed = canonical_match and left_inverse_ok and bounds_ok
    return EquivalenceReport(passed, canonical_match, left_inverse_ok,
                             proj.idempotence_defect, tables, tuple(notes))
