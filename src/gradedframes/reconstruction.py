"""Left inverses, dual systems, synthesis and projection operators.

The analysis map U sends a coordinate vector to its frame coefficients.  A
reconstruction operator V is a concrete left inverse of U at truncation,
represented by a structured rule (diagonal or pair form) whenever possible
and by a matrix otherwise.  From V the module derives the dual system
f_i = V(e_i), the synthesis operator d -> sum d_i f_i with its per-level
bound table, and the projection P = U V onto the coefficient range of U,
and verifies the expansion identities with their tail bounds.

Structured rules apply a multiply-then-divide step per coordinate.  The
division is deliberate: for dyadic data and integer weights the quotient is
exact in floating point, which makes prefix reconstruction residuals reach
zero exactly once the support is exhausted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .frames import (
    BlockFrame,
    DENSE_LIMIT,
    DiagonalFrame,
    FrameFormError,
    FrameSystem,
    analyze,
    coanalyze,
    frame_bounds_analytic,
    frame_bounds_numeric,
)
from .gradings import (
    GradedVector,
    WeightGrading,
    dual_norm,
    graded_norm,
    union_values,
)
from .multilevel import ContinuityData, IndexPlan

LEFT_INVERSE_TOL = 1e-10
RANGE_TOL = 1e-9
IDEMPOTENCE_TOL = 1e-12
BOUND_MATCH_TOL = 1e-9

_KINDS = ("identity", "zero", "diagonal", "pair_collapse", "pair_mix",
          "columns", "dense")


def _vec(x, n, name):
    out = np.asarray(x, dtype=float).copy()
    if out.shape != (n,):
        raise ValueError("%s must have length %d" % (name, n))
    out.setflags(write=False)
    return out


def _exact_div(values: np.ndarray, div) -> np.ndarray:
    # numpy routes complex-by-real division through the complex kernel,
    # which rounds quotients the componentwise real division gets exact
    # (e.g. -1458/2916); divide the parts separately to keep the zero
    # residuals the division-structured rules promise
    return values.real / div + 1j * (values.imag / div)


@dataclass(frozen=True, eq=False)
class SequenceOperator:
    """Linear map between truncated coordinate spaces with structured forms.

    diagonal:      out_j = in_j * mult_j / div_j            (n -> n)
    pair_collapse: out_j = (a_j in_{2j-1} + c_j in_{2j})/div_j   (2n -> n)
    pair_mix:      out_{2j-1} = out_{2j} = a_j in_{2j-1} + c_j in_{2j}
    columns:       explicit column list (sparse), dense: explicit matrix.
    """

    kind: str
    in_dim: int
    out_dim: int
    mult: Optional[np.ndarray] = None
    div: Optional[np.ndarray] = None
    co_odd: Optional[np.ndarray] = None
    co_even: Optional[np.ndarray] = None
    matrix: Optional[object] = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError("unknown operator kind %r" % (self.kind,))
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("dimensions must be positive")
        if self.div is not None and np.any(np.asarray(self.div) == 0):
            raise ValueError("zero divisor")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SequenceOperator":
        return SequenceOperator("identity", n, n)

    @staticmethod
    def zero_map(in_dim: int, out_dim: int) -> "SequenceOperator":
        return SequenceOperator("zero", in_dim, out_dim)

    @staticmethod
    def diagonal(mult, div) -> "SequenceOperator":
        m = np.atleast_1d(np.asarray(mult, dtype=float))
        d = np.atleast_1d(np.asarray(div, dtype=float))
        n = max(m.size, d.size)
        if m.size == 1:
            m = np.full(n, m[0])
        if d.size == 1:
            d = np.full(n, d[0])
        return SequenceOperator("diagonal", n, n,
                                mult=_vec(m, n, "mult"), div=_vec(d, n, "div"))

    @staticmethod
    def pair_collapse(co_odd, co_even, div) -> "SequenceOperator":
        d = np.asarray(div, dtype=float)
        n = d.size
        o = np.broadcast_to(np.asarray(co_odd, dtype=float), (n,))
        e = np.broadcast_to(np.asarray(co_even, dtype=float), (n,))
        return SequenceOperator("pair_collapse", 2 * n, n,
                                co_odd=_vec(o, n, "co_odd"),
                                co_even=_vec(e, n, "co_even"),
                                div=_vec(d, n, "div"))

    @staticmethod
    def pair_mix(co_odd, co_even, pairs: int) -> "SequenceOperator":
        o = np.broadcast_to(np.asarray(co_odd, dtype=float), (pairs,))
        e = np.broadcast_to(np.asarray(co_even, dtype=float), (pairs,))
        return SequenceOperator("pair_mix", 2 * pairs, 2 * pairs,
                                co_odd=_vec(o, pairs, "co_odd"),
                                co_even=_vec(e, pairs, "co_even"))

    @staticmethod
    def from_columns(vectors: Sequence[GradedVector], out_dim: int) -> "SequenceOperator":
        mat = _stack_columns(vectors, out_dim, "column %d exceeds output dimension")
        return SequenceOperator("columns", len(vectors), out_dim, matrix=mat.tocsr())

    @staticmethod
    def dense(matrix) -> "SequenceOperator":
        m = np.asarray(matrix, dtype=float).copy()
        if m.ndim != 2 or 0 in m.shape:
            raise ValueError("matrix must be 2-d and nonempty")
        m.setflags(write=False)
        return SequenceOperator("dense", m.shape[1], m.shape[0], matrix=m)

    # -- application -------------------------------------------------------

    def apply(self, v: GradedVector) -> GradedVector:
        if v.max_index > self.in_dim:
            raise ValueError("input support %d exceeds dimension %d"
                             % (v.max_index, self.in_dim))
        if self.kind == "identity":
            return v
        if self.kind == "zero":
            return GradedVector.zero()
        if not v.indices.size:
            return GradedVector.zero()
        if self.kind == "diagonal":
            idx = v.indices
            return GradedVector(idx, _exact_div(v.values * self.mult[idx - 1],
                                                self.div[idx - 1]))
        if self.kind == "pair_collapse":
            return self._collapse(v, self.div)
        if self.kind == "pair_mix":
            combined = self._collapse(v, None)
            out_idx = np.empty(2 * combined.indices.size, dtype=np.int64)
            out_idx[0::2] = 2 * combined.indices - 1
            out_idx[1::2] = 2 * combined.indices
            return GradedVector(out_idx, np.repeat(combined.values, 2))
        if self.kind == "columns":
            out = self.matrix @ v.to_dense(self.in_dim)
            return GradedVector.from_dense(out)
        out = self.matrix.astype(np.complex128) @ v.to_dense(self.in_dim)
        return GradedVector.from_dense(out)

    def _numerator(self):
        """Sparse numerator M and row divisor d (None for 1) of out = (M @ x) / d."""
        if self.kind == "identity":
            return sp.identity(self.in_dim, format="csr"), None
        if self.kind == "zero":
            return sp.csr_matrix((self.out_dim, self.in_dim)), None
        if self.kind == "diagonal":
            return sp.diags(self.mult, format="csr"), self.div
        if self.kind in ("pair_collapse", "pair_mix"):
            pairs = self.co_odd.size
            block = np.stack([self.co_odd, self.co_even], axis=1)
            if self.kind == "pair_collapse":
                rows = np.repeat(np.arange(pairs), 2)
                cols = np.arange(2 * pairs)
                vals = block.ravel()
                return sp.csr_matrix((vals, (rows, cols)),
                                     shape=(pairs, 2 * pairs)), self.div
            # both rows of pair j hold (a_j, c_j) on the columns of pair j
            rows = np.repeat(np.arange(2 * pairs), 2)
            cols = 2 * (rows // 2) + np.tile([0, 1], 2 * pairs)
            vals = np.repeat(block, 2, axis=0).ravel()
            return sp.csr_matrix((vals, (rows, cols)),
                                 shape=(2 * pairs, 2 * pairs)), None
        return sp.csr_matrix(self.matrix), None

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
        num, div = self._numerator()
        out = sp.csc_matrix(num @ x, dtype=np.complex128)
        out.sort_indices()
        if div is not None:
            out.data = _exact_div(out.data, div[out.indices])
        return out

    def _collapse(self, v: GradedVector, div) -> GradedVector:
        pair = (v.indices + 1) // 2
        coeff = np.where(v.indices % 2 == 1,
                         self.co_odd[pair - 1], self.co_even[pair - 1])
        uniq, inverse = np.unique(pair, return_inverse=True)
        vals = np.zeros(uniq.size, dtype=np.complex128)
        np.add.at(vals, inverse, v.values * coeff)
        if div is not None:
            vals = _exact_div(vals, div[uniq - 1])
        return GradedVector(uniq, vals)

    def transpose_apply(self, g: GradedVector) -> GradedVector:
        """Apply the transpose; used for coefficient functionals."""
        if g.max_index > self.out_dim:
            raise ValueError("input support %d exceeds dimension %d"
                             % (g.max_index, self.out_dim))
        if self.kind == "identity":
            return g
        if self.kind == "zero":
            return GradedVector.zero()
        if not g.indices.size:
            return GradedVector.zero()
        if self.kind == "diagonal":
            idx = g.indices
            return GradedVector(idx, _exact_div(g.values * self.mult[idx - 1],
                                                self.div[idx - 1]))
        if self.kind == "pair_collapse":
            idx = g.indices
            out_idx = np.empty(2 * idx.size, dtype=np.int64)
            out_idx[0::2] = 2 * idx - 1
            out_idx[1::2] = 2 * idx
            out_val = np.empty(2 * idx.size, dtype=np.complex128)
            out_val[0::2] = _exact_div(g.values * self.co_odd[idx - 1],
                                       self.div[idx - 1])
            out_val[1::2] = _exact_div(g.values * self.co_even[idx - 1],
                                       self.div[idx - 1])
            return GradedVector(out_idx, out_val)
        if self.kind == "columns":
            out = self.matrix.T @ g.to_dense(self.out_dim)
            return GradedVector.from_dense(out)
        if self.kind == "dense":
            out = self.matrix.T.astype(np.complex128) @ g.to_dense(self.out_dim)
            return GradedVector.from_dense(out)
        raise ValueError("transpose not available for kind %r" % (self.kind,))

    # -- norms ---------------------------------------------------------------

    def weighted_norm(self, out_weights: np.ndarray, in_weights: np.ndarray) -> float:
        """Operator norm between weighted l2 spaces given full weight tables."""
        ow = np.asarray(out_weights, dtype=float)
        iw = np.asarray(in_weights, dtype=float)
        if ow.size < self.out_dim or iw.size < self.in_dim:
            raise ValueError("weight tables shorter than the operator dimensions")
        ow = ow[:self.out_dim]
        iw = iw[:self.in_dim]
        if self.kind == "zero":
            return 0.0
        if self.kind == "identity":
            return float(np.max(ow / iw))
        if self.kind == "diagonal":
            return float(np.max(np.abs(self.mult) / self.div * ow / iw))
        if self.kind == "pair_collapse":
            rows = (ow / self.div) * np.hypot(self.co_odd / iw[0::2],
                                              self.co_even / iw[1::2])
            return float(np.max(rows))
        if self.kind == "pair_mix":
            blocks = np.hypot(ow[0::2], ow[1::2]) * np.hypot(
                self.co_odd / iw[0::2], self.co_even / iw[1::2])
            return float(np.max(blocks))
        if max(self.in_dim, self.out_dim) > DENSE_LIMIT:
            raise ValueError("operator too large for dense norm computation")
        mat = self.matrix.toarray() if sp.issparse(self.matrix) else self.matrix
        weighted = (ow[:, None] * mat) / iw[None, :]
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
    indptr = np.cumsum([0] + [f.indices.size for f in vectors])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [f.indices - 1 for f in vectors])
    data = np.concatenate([np.zeros(0, dtype=np.complex128)]
                          + [f.values for f in vectors])
    return sp.csc_matrix((data, indices, indptr), shape=(rows, len(vectors)))


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

    Every nonzero dual vector f_i must be one real entry, at coordinate i for
    a diagonal rule and at coordinate ceil(i/2) for a pair rule.
    """
    m = len(dual)
    n = dual.truncation
    mat = dual.matrix.copy()
    mat.eliminate_zeros()
    counts = np.diff(mat.indptr)
    if np.all(counts <= 1) and np.all(mat.data.imag == 0):
        # one entry per nonempty column, so rows and cols align entrywise
        cols = np.flatnonzero(counts)
        rows = mat.indices
        if m == n and np.array_equal(rows, cols):
            diag = np.zeros(n)
            diag[cols] = mat.data.real
            return SequenceOperator.diagonal(diag, np.ones(n))
        if m == 2 * n and np.array_equal(rows, cols // 2):
            coeff = np.zeros(m)
            coeff[cols] = mat.data.real
            return SequenceOperator.pair_collapse(coeff[0::2], coeff[1::2],
                                                  np.ones(n))
    return SequenceOperator("columns", m, n, matrix=dual.matrix.tocsr())


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


def synthesize(op: SynthesisOp, d: GradedVector, n: int) -> GradedVector:
    """Partial reconstruction sum over the first n coefficients."""
    if n < 0 or n > op.rule.in_dim:
        raise ValueError("prefix length %d out of range [0, %d]"
                         % (n, op.rule.in_dim))
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
    them up to the summation order."""
    mat = sp.csc_matrix(mat)
    w = grading.weights(level)
    cols = np.repeat(np.arange(mat.shape[1]), np.diff(mat.indptr))
    terms = (np.abs(mat.data) * w[mat.indices]) ** 2
    return np.sqrt(np.bincount(cols, weights=terms, minlength=mat.shape[1]))


def _idempotence_defect(rule: SequenceOperator) -> float:
    if rule.kind in ("identity", "zero"):
        return 0.0
    if rule.kind == "diagonal":
        p = rule.mult / rule.div
        return float(np.max(np.abs(p * p - p)))
    if rule.kind == "pair_mix":
        drift = np.abs(rule.co_odd + rule.co_even - 1.0)
        return float(np.max(np.maximum(np.abs(rule.co_odd), np.abs(rule.co_even))
                            * drift))
    mat = rule.matrix.toarray() if sp.issparse(rule.matrix) else rule.matrix
    return float(np.max(np.abs(mat @ mat - mat)))


def projection_from_V(frame: FrameSystem, op: SynthesisOp,
                      theta_grading: WeightGrading) -> ProjectionOp:
    """Compose analysis with reconstruction, folding structured forms.

    Requires the reconstruction rule to be a left inverse of the analysis
    map on canonical vectors.
    """
    rule = op.rule
    j = _left_inverse_failure(frame, rule)
    if j is not None:
        raise ValueError("reconstruction is not a left inverse at coordinate %d" % j)
    m = frame.functional_count
    if isinstance(frame, DiagonalFrame) and rule.kind == "diagonal":
        p = (frame.b * rule.mult) / rule.div
        if np.all(p == 1.0):
            prule = SequenceOperator.identity(m)
        else:
            prule = SequenceOperator.diagonal(p, np.ones(m))
    elif isinstance(frame, BlockFrame) and rule.kind == "pair_collapse":
        a = (frame.b_pair * rule.co_odd) / rule.div
        c = (frame.b_pair * rule.co_even) / rule.div
        prule = SequenceOperator.pair_mix(a, c, frame.truncation)
    elif rule.kind == "zero":
        prule = SequenceOperator.zero_map(m, m)
    else:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large to compose a dense projection")
        g = frame.dense_matrix()
        vmat = rule.apply_columns(sp.identity(m, format="csc")).toarray().real
        prule = SequenceOperator.dense(g @ vmat)
    levels = theta_grading.levels
    continuity = tuple(
        prule.weighted_norm(theta_grading.weights(k), theta_grading.weights(k))
        for k in range(levels + 1))
    return ProjectionOp(prule, continuity, _idempotence_defect(prule))


def V_from_projection(frame: FrameSystem, proj: ProjectionOp,
                      x_grading: WeightGrading, theta_grading: WeightGrading,
                      plan: IndexPlan) -> SynthesisOp:
    """Solve analysis(x) = P(d) for x, coordinate by coordinate.

    Structured frame/projection pairs are solved in closed form; otherwise a
    least-squares solve with a residual check is used.  The recovered rule
    must be a left inverse of the analysis map.
    """
    prule = proj.rule
    m = frame.functional_count
    if isinstance(frame, DiagonalFrame) and prule.kind in ("identity", "diagonal", "zero"):
        if prule.kind == "identity":
            rule = SequenceOperator.diagonal(np.ones(m), frame.b)
        elif prule.kind == "zero":
            rule = SequenceOperator.diagonal(np.zeros(m), frame.b)
        else:
            rule = SequenceOperator.diagonal(prule.mult / prule.div, frame.b)
    elif isinstance(frame, BlockFrame) and prule.kind in ("pair_mix", "zero"):
        n = frame.truncation
        if prule.kind == "zero":
            rule = SequenceOperator.pair_collapse(np.zeros(n), np.zeros(n), frame.b_pair)
        else:
            rule = SequenceOperator.pair_collapse(prule.co_odd, prule.co_even,
                                                  frame.b_pair)
    else:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large for a dense solve")
        g = frame.dense_matrix()
        pmat = prule.matrix if prule.kind == "dense" else \
            prule.apply_columns(sp.identity(m, format="csc")).toarray().real
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
    """
    exact = op.rule.kind not in ("columns", "dense")
    rows = []
    passed = True
    for pos, f in enumerate(samples):
        coeff = analyze(frame, f).coefficients
        support = coeff.trim().max_index
        grid = tuple(n_grid) if n_grid is not None \
            else _default_grid(support, op.rule.in_dim)
        partials = [synthesize(op, coeff, n) for n in grid]
        for k in range(plan.budget + 1):
            s_k = plan.lower_levels[k]
            b_k = plan.upper_consts[k]
            floor = 0.0 if exact \
                else 1e-12 * max(graded_norm(f, x_grading, s_k), 1.0)
            profile = tuple(graded_norm(f - p, x_grading, s_k) for p in partials)
            bounds = tuple(b_k * graded_norm(coeff.tail(n), theta_grading, k)
                           for n in grid)
            ok = all(r <= max(b * (1 + 1e-12), floor)
                     for r, b in zip(profile, bounds))
            zero_from = None
            for n, r in zip(grid, profile):
                if n >= support and r <= floor:
                    zero_from = n
                    break
            tail_ok = all(r <= floor for n, r in zip(grid, profile)
                          if n >= support)
            ok = ok and tail_ok and (zero_from is not None or support > max(grid))
            passed = passed and ok
            rows.append(ExpansionRow(pos, k, grid, profile, bounds,
                                     support, zero_from, ok))
    return ExpansionReport(passed, tuple(rows))


def verify_dual_expansion(frame: FrameSystem, op: SynthesisOp,
                          x_grading: WeightGrading, theta_grading: WeightGrading,
                          plan: IndexPlan, dual_samples: Sequence[GradedVector],
                          n_grid: Optional[Sequence[int]] = None) -> ExpansionReport:
    """Tail profiles of the coefficient-functional expansion.

    A functional with coefficient vector g expands through the dual values
    c_i = g(f_i).  The residual after n terms is measured in the dual norm
    at the plan's upper level and compared with the synthesis-transpose
    bound times the dual-coefficient tail norm.
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
    exact = op.rule.kind not in ("columns", "dense")
    rows = []
    passed = True
    for pos, g in enumerate(dual_samples):
        c = op.rule.transpose_apply(g)
        support = c.trim().max_index
        grid = tuple(n_grid) if n_grid is not None \
            else _default_grid(support, frame.functional_count)
        for k in range(plan.budget + 1):
            t_k = plan.upper_levels[k]
            floor = 0.0 if exact \
                else 1e-12 * max(dual_norm(g, x_grading.dual(), t_k), 1.0)
            profile = []
            bounds = []
            for n in grid:
                partial = coanalyze(frame, c.prefix(n))
                profile.append(dual_norm(g - partial, x_grading.dual(), t_k))
                bounds.append(tilde[k] * dual_norm(c.tail(n), theta_grading.dual(), k))
            profile = tuple(profile)
            bounds = tuple(bounds)
            ok = all(r <= max(b * (1 + 1e-12), floor)
                     for r, b in zip(profile, bounds))
            zero_from = None
            for n, r in zip(grid, profile):
                if n >= support and r <= floor:
                    zero_from = n
                    break
            tail_ok = all(r <= floor for n, r in zip(grid, profile)
                          if n >= support)
            ok = ok and tail_ok and (zero_from is not None or support > max(grid))
            passed = passed and ok
            rows.append(ExpansionRow(pos, k, grid, profile, bounds,
                                     support, zero_from, ok))
    return ExpansionReport(passed, tuple(rows))


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

    dual0 = build_dual_from_V(op0.rule)
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
