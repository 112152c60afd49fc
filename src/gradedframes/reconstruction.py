"""Left inverses, dual systems, synthesis and projection operators.

The analysis map U sends a coordinate vector to its frame coefficients.  A
reconstruction operator V is a concrete left inverse of U at truncation.
Every operator here is one sparse numerator M with an optional row divisor d,
out = (M @ x) / d.  From V the module derives the dual system f_i = V(e_i)
(V's canonical_images, row i holding f_{i+1}), the synthesis operator
d -> sum d_i f_i with its per-level bound table, and the projection P = U V
onto the range of U, and verifies the expansion identities and tail bounds.

A rule with a divisor sums its products first and divides once per output.
For dyadic data and integer weights the reconstruction quotient (b f) / b
is exact, so prefix reconstruction residuals reach zero exactly once the
support is exhausted.  The dual expansion's b (g / b) is exact only for
power-of-two weights; other integer weights leave residuals of a few ulps.

The round trip checks V U = I, P P = P and U V'' = P.  On a coordinate frame
with a block-local rule (row j stores only functionals reading coordinate j,
as the diagonal and pair rules do) V U is diagonal and P block diagonal by
coordinate, so the first two checks run per coordinate, bit for bit as the
whole products on real rules.  There V'' is P's row j over b_j, so U V'' = P
holds by construction and only the finiteness of V'' is tested.  Other rules
and dense frames take whole products.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Optional, Sequence

import numpy as np

from .compressed import Compressed, _sums, exact_div, gather, runs, union_values
from .frames import (
    DENSE_LIMIT,
    CoordinateFrame,
    FrameFormError,
    FrameSystem,
    analyze,
    frame_bounds_numeric,
    _coanalyze_columns,
    _functional_sizes,
    _real,
    _weight_prefix,
)
from .gradings import (
    GradedVector,
    WeightGrading,
    column_norms,
    stack_columns,
)
from .multilevel import ContinuityData, IndexPlan

LEFT_INVERSE_TOL = 1e-10
RANGE_TOL = 1e-9
IDEMPOTENCE_TOL = 1e-12
BOUND_MATCH_TOL = 1e-9


def _coefficients(arr, name: str, n: int) -> np.ndarray:
    """A real scalar or vector of length 1 or n, as a length-n vector."""
    a = _real(arr, name)
    if a.ndim > 1 or a.size not in (1, n):
        raise ValueError("%s has length %d, expected 1 or %d" % (name, a.size, n))
    return np.broadcast_to(a, (n,))


@dataclass(frozen=True, eq=False)
class SequenceOperator:
    """Linear map out = (M @ x) / d between truncated coordinate spaces.

    The numerator M is a sparse out x in matrix, given compressed (stored
    zeros included) or dense (nonzero entries only); its stored pattern
    decides which outputs an input reaches.  The row divisor d
    marks a division-structured rule with exact zero residuals; a
    matrix-backed map whose entries are already rounded values has none.
    """

    numerator: Compressed
    divisor: Optional[np.ndarray] = None

    def __post_init__(self):
        num = self.numerator
        if not isinstance(num, Compressed):
            num = Compressed.from_dense(np.atleast_2d(num))
        # before canonical(), which reads rows from indptr and whose
        # row-major keys would move such an entry
        ptr, cols, width = num.indptr, num.indices, num.shape[1]
        if ptr.shape != (num.shape[0] + 1,):
            raise ValueError("numerator indptr has length %d, expected %d"
                             % (ptr.size, num.shape[0] + 1))
        if ptr[0] != 0:
            raise ValueError("numerator indptr starts at %d, expected 0" % ptr[0])
        if (ptr[1:] < ptr[:-1]).any():
            raise ValueError("numerator indptr decreases")
        if ptr[-1] != cols.size:
            raise ValueError("numerator indptr ends at %d, expected nnz %d"
                             % (ptr[-1], cols.size))
        if cols.size and (cols.min() < 0 or cols.max() >= width):
            raise ValueError("numerator column index %d outside [0, %d)"
                             % (cols[(cols < 0) | (cols >= width)][0], width))
        num = num.canonical()
        # private read-only copies: the caller may still write to its arrays
        num = Compressed(np.array(num.indptr), np.array(num.indices),
                         np.array(num.data), num.shape)
        if 0 in num.shape:
            raise ValueError("dimensions must be positive")
        d = self.divisor
        if d is not None:
            d = np.array(_real(d, "divisor"))
            if d.shape != (num.shape[0],):
                raise ValueError("divisor must have length %d" % num.shape[0])
            if (d == 0).any():
                raise ValueError("zero divisor")
            bad = np.flatnonzero(~np.isfinite(d))
            if bad.size:
                raise ValueError("divisor entry %d is not finite" % (bad[0] + 1))
            d.setflags(write=False)
        for arr in (num.data, num.indices, num.indptr):
            arr.setflags(write=False)
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "divisor", d)

    @cached_property
    def _columns(self) -> Compressed:
        """The numerator's columns as rows, for apply()."""
        return self.numerator.T

    @cached_property
    def _rows(self) -> np.ndarray:
        """Row of every stored entry."""
        return self.numerator.rows()

    @cached_property
    def _values(self) -> Compressed:
        """Entries of the operator: the numerator with every row divided."""
        num = self.numerator
        return num if self.divisor is None \
            else num.with_data(num.data / self.divisor[self._rows])

    @cached_property
    def canonical_images(self) -> Compressed:
        """Row i holds the image of e_{i+1}, as apply() gives it with its
        zero entries dropped, read from the numerator's columns directly."""
        cols = self._columns
        keep = cols.data != 0
        out = cols.indices[keep]
        values = cols.data[keep].astype(np.complex128)
        if self.divisor is not None:
            values = exact_div(values, self.divisor[out])
        images = Compressed.from_triplets(cols.rows()[keep], out, values, cols.shape)
        for arr in (images.data, images.indices, images.indptr):
            arr.setflags(write=False)
        return images

    @cached_property
    def _orthogonal_rows(self) -> Optional[np.ndarray]:
        """Start of every nonempty row when no input feeds two outputs, so
        that the rows are orthogonal; None otherwise."""
        num = self.numerator
        if (np.bincount(num.indices, minlength=self.in_dim) > 1).any():
            return None
        return num.indptr[:-1][np.diff(num.indptr) > 0]

    @cached_property
    def _one_nonzero_rows(self) -> bool:
        """Whether no numerator row stores two nonzero entries."""
        return bool(np.diff(self._rows[self.numerator.data != 0]).all())

    @property
    def in_dim(self) -> int:
        return self.numerator.shape[1]

    @property
    def out_dim(self) -> int:
        return self.numerator.shape[0]

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "SequenceOperator":
        return SequenceOperator(Compressed.identity(n), np.ones(n))

    @staticmethod
    def zero_map(in_dim: int, out_dim: int) -> "SequenceOperator":
        return SequenceOperator(Compressed.zero(out_dim, in_dim), np.ones(out_dim))

    @staticmethod
    def diagonal(mult, div) -> "SequenceOperator":
        """out_j = in_j * mult_j / div_j."""
        n = max(np.size(mult), np.size(div))
        m, d = _coefficients(mult, "mult", n), _coefficients(div, "div", n)
        return SequenceOperator(Compressed(np.arange(n + 1), np.arange(n), m, (n, n)), d)

    @staticmethod
    def pair_collapse(co_odd, co_even, div) -> "SequenceOperator":
        """out_j = (co_odd_j in_{2j-1} + co_even_j in_{2j}) / div_j."""
        d = _real(div, "div")
        n = d.size
        o, e = _coefficients(co_odd, "co_odd", n), _coefficients(co_even, "co_even", n)
        return SequenceOperator(
            Compressed(np.arange(0, 2 * n + 1, 2), np.arange(2 * n),
                       np.stack([o, e], axis=1).ravel(), (n, 2 * n)), d)

    @staticmethod
    def pair_mix(co_odd, co_even, pairs: int) -> "SequenceOperator":
        """out_{2j-1} = out_{2j} = co_odd_j in_{2j-1} + co_even_j in_{2j}."""
        collapse = SequenceOperator.pair_collapse(co_odd, co_even, np.ones(pairs))
        return SequenceOperator(collapse.numerator[np.repeat(np.arange(pairs), 2)],
                                np.ones(2 * pairs))

    @staticmethod
    def dense(matrix) -> "SequenceOperator":
        m = _real(matrix, "matrix")
        if m.ndim != 2 or 0 in m.shape:
            raise ValueError("matrix must be 2-d and nonempty")
        return SequenceOperator(Compressed(np.arange(0, m.size + 1, m.shape[1]),
                                           np.tile(np.arange(m.shape[1]), m.shape[0]),
                                           m.ravel(), m.shape))

    # -- application -------------------------------------------------------

    def apply(self, v: GradedVector) -> GradedVector:
        _, out, values = gather(self._columns, v.indices - 1, v.values, self.divisor, None)
        return GradedVector(out + 1, values)

    def transpose_apply(self, g: GradedVector) -> GradedVector:
        """Apply the transpose, (M_ij g_i) / d_i entry by entry, for
        coefficient functionals."""
        _, out, values = gather(self.numerator, g.indices - 1, g.values, None,
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
            if self._one_nonzero_rows:
                # hypot(0, x) = x; a NaN term (0 * inf) takes the reduceat,
                # where hypot(NaN, inf) = inf
                top = np.max(terms, initial=0.0)
                if not np.isnan(top):
                    return float(top)
            return float(np.max(np.hypot.reduceat(terms, starts), initial=0.0))
        if max(self.in_dim, self.out_dim) > DENSE_LIMIT:
            raise ValueError("operator too large for dense norm computation")
        weighted = (ow[:, None] * self._values.toarray()) / iw[None, :]
        return float(np.linalg.svd(weighted, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# synthesis


@dataclass(frozen=True, eq=False)
class SynthesisOp:
    """Reconstruction rule with its per-level bound table."""

    rule: SequenceOperator
    bounds: ContinuityData
    # (x_grading, theta_grading, plan) when synthesis_from_rule built bounds
    _built_from: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if not all(math.isfinite(c) for c in self.bounds.consts):
            raise ValueError("synthesis bound table contains non-finite entries")


def build_dual_from_V(rule: SequenceOperator) -> Compressed:
    """The dual vectors f_i = V(e_i): the rule's canonical images."""
    return rule.canonical_images


def _detect_rule(dual: Compressed) -> SequenceOperator:
    """Structured rule reproducing the dual as its canonical images.

    For m = k n functionals every nonzero dual vector f_i must be one real
    entry at coordinate ceil(i/k): the rule of a frame whose coordinates all
    have k readers, such as the diagonal (k = 1) and block (k = 2) frames.
    """
    m, n = dual.shape
    beyond = dual.rows()[dual.indices >= n]
    if beyond.size:
        raise ValueError("dual vector %d exceeds truncation" % (beyond[0] + 1))
    dual = dual.with_data(dual.data.astype(np.complex128)).canonical()
    mat = dual.eliminate_zeros()
    counts = np.diff(mat.indptr)
    if m % n == 0 and (counts <= 1).all() and (mat.data.imag == 0).all():
        # one entry per nonempty column, so rows and cols align entrywise
        owner = np.arange(m) // (m // n)
        cols = np.flatnonzero(counts)
        if np.array_equal(mat.indices, owner[cols]):
            coeff = np.zeros(m)
            coeff[cols] = mat.data.real
            return SequenceOperator(Compressed.from_triplets(owner, np.arange(m), coeff,
                                                             (n, m)), np.ones(n))
    return SequenceOperator(dual.T)


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
    op = SynthesisOp(rule, _bound_table(rule, x_grading, theta_grading, plan))
    object.__setattr__(op, "_built_from", (x_grading, theta_grading, plan))
    return op


def build_V_from_dual(dual: Compressed, x_grading: WeightGrading,
                      theta_grading: WeightGrading, plan: IndexPlan) -> SynthesisOp:
    """Reconstruction operator whose canonical images are the given dual,
    a functional-count x truncation matrix whose row i holds f_{i+1}."""
    return synthesis_from_rule(_detect_rule(dual), x_grading, theta_grading, plan)


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
    # (frame, row j of P per coordinate j) of projection_from_V's local fold
    _fold: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.rule.in_dim != self.rule.out_dim:
            raise ValueError("projection must preserve the dimension")
        if not self.idempotence_defect <= IDEMPOTENCE_TOL:
            raise ValueError("projection defect %g beyond tolerance"
                             % self.idempotence_defect)

    def apply(self, d: GradedVector) -> GradedVector:
        return self.rule.apply(d)


def _block_local(frame: FrameSystem, num: Compressed) -> bool:
    """Whether frame is a coordinate frame and every stored entry of row j of
    num reads a functional of coordinate j; the round trip then checks per
    coordinate."""
    return (isinstance(frame, CoordinateFrame)
            and np.array_equal(frame.reads[num.indices], num.rows()))


def _left_inverse_failure(frame: FrameSystem, rule: SequenceOperator) -> Optional[int]:
    """Smallest coordinate j with V(U e_j) != e_j beyond LEFT_INVERSE_TOL."""
    num = rule.numerator
    if _block_local(frame, num):
        # V U e_j = e_j (sum_i b_j M_ji) / d_j
        back = _sums(rule._rows, frame.b[rule._rows] * num.data, frame.truncation)
        if rule.divisor is not None:
            back = exact_div(back, rule.divisor)
        bad = ~np.isclose(back, 1.0, rtol=LEFT_INVERSE_TOL, atol=LEFT_INVERSE_TOL)
    else:
        # row j of (V U)^T = U^T V^T holds V U e_j, which fails on a stored
        # entry away from I or on no diagonal entry
        back = frame.coefficient_columns() @ rule._columns
        rows, cols = back.rows(), back.indices
        values = back.data if rule.divisor is None \
            else exact_div(back.data, rule.divisor[cols])
        bad = np.bincount(rows[rows == cols], minlength=frame.truncation) == 0
        bad[rows[~np.isclose(values, rows == cols, rtol=LEFT_INVERSE_TOL,
                             atol=LEFT_INVERSE_TOL)]] = True
    return int(bad.argmax()) + 1 if bad.any() else None


def _idempotence_defect(rule: SequenceOperator) -> float:
    p = rule._values
    return float(np.max(np.abs((p @ p - p).data), initial=0.0))


def _coordinate_defect(once: Compressed) -> float:
    """_idempotence_defect of the folded projection P = once[reads], bit for
    bit, for block-local rows once: row j of P P is the sum of once_j[k] once_j
    over the stored k of row j, from zero in k order as the product sums it."""
    rows = once.rows()
    lo = once.indptr[rows]
    count = once.indptr[rows + 1] - lo
    terms = once.data[runs(lo, count)] * np.repeat(once.data, count)
    square = _sums(np.repeat(np.arange(once.nnz), count), terms, once.nnz)
    return float(np.max(np.abs(square - once.data), initial=0.0))


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
        # the hypot of the readers' weights (named short before any is read)
        # as its output weight
        if theta_grading.truncation < m:
            raise ValueError("weight tables shorter than the operator dimensions")
        rows = rule._rows
        once = rule.numerator.with_data((frame.b[rows] * rule.numerator.data)
                                        / rule.divisor[rows])
        prule = SequenceOperator(once[frame.reads], np.ones(m))
        norm_rule = SequenceOperator(once, np.ones(n))
        out_weights = [frame.reader_hypot(theta_grading, k) for k in range(len(weights))]
        fold = (frame, norm_rule.numerator) if _block_local(frame, once) else None
        defect = _coordinate_defect(once) if fold else _idempotence_defect(prule)
    else:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large to compose a dense projection")
        g = frame.dense_matrix()
        vmat = rule.canonical_images.toarray().real.T
        prule = norm_rule = SequenceOperator.dense(g @ vmat)
        out_weights, fold = weights, None
        defect = _idempotence_defect(prule)
    continuity = tuple(norm_rule.weighted_norm(o, w)
                       for o, w in zip(out_weights, weights))
    proj = ProjectionOp(prule, continuity, defect)
    object.__setattr__(proj, "_fold", fold)
    return proj


def _same_entries(a: Compressed, b: Compressed) -> bool:
    """Whether a and b store the same rows, columns and values, array for array."""
    return all(np.array_equal(getattr(a, k), getattr(b, k))
               for k in ("indptr", "indices", "data"))


def _rows_per_coordinate(frame: FrameSystem,
                         prule: SequenceOperator) -> Optional[Compressed]:
    """Row j of P when every functional reading coordinate j sees that same
    row, supported on the functionals reading j; None otherwise."""
    if not isinstance(frame, CoordinateFrame) or prule.divisor is None:
        return None
    p = prule._values
    once = p[frame.reader_starts[:-1]]
    same = _same_entries(once[frame.reads], p) and _block_local(frame, once)
    return once if same else None


def V_from_projection(frame: FrameSystem, proj: ProjectionOp,
                      x_grading: WeightGrading, theta_grading: WeightGrading,
                      plan: IndexPlan) -> SynthesisOp:
    """Solve analysis(x) = P(d) for x, coordinate by coordinate.

    A coordinate frame whose projection gives all readers of a coordinate
    one row is solved in closed form, row j of V'' being that row over b_j
    (as projection_from_V kept it when it folded P on this frame, else read
    back from P), so U V'' = P holds by construction; otherwise a
    least-squares solve is checked against P as a whole and column by
    column.  Every entry of V'' must be finite, which is tested first, and
    V'' must be a left inverse of the analysis map.
    """
    return synthesis_from_rule(_recovered_rule(frame, proj, theta_grading),
                               x_grading, theta_grading, plan)


def _recovered_rule(frame: FrameSystem, proj: ProjectionOp,
                    theta_grading: WeightGrading) -> SequenceOperator:
    """The rule of V'', refused as V_from_projection refuses it."""
    prule = proj.rule
    m = frame.functional_count
    if (prule.in_dim, prule.out_dim) != (m, m):
        raise ValueError("projection maps %d coefficients to %d, the frame has "
                         "%d functionals" % (prule.in_dim, prule.out_dim, m))
    fold = proj._fold
    rows = fold[1] if fold and fold[0] is frame else _rows_per_coordinate(frame, prule)
    if rows is None:
        if m > DENSE_LIMIT:
            raise ValueError("truncation too large for a dense solve")
        g = frame.dense_matrix()
        target = prule.canonical_images
        pmat = target.toarray().real.T
        vmat, *_ = np.linalg.lstsq(g, pmat, rcond=None)
        rule = SequenceOperator.dense(vmat)
    else:
        rule = SequenceOperator(rows, frame.b)
    with np.errstate(over="ignore"):
        entries = rule._values
    bad = np.flatnonzero(~np.isfinite(entries.data))
    if bad.size:
        raise ValueError("recovered operator entry (%d, %d) is not finite"
                         % (entries.rows()[bad[0]] + 1, entries.indices[bad[0]] + 1))
    if rows is None:
        # both norms in units of a power of two >= max(P's largest entry, 1):
        # neither overflows, and normal-range values keep their bits
        _, top = math.frexp(float(np.max(np.abs(pmat))))
        unit = math.ldexp(1.0, -max(top, 0))
        resid = float(np.linalg.norm((g @ vmat - pmat) * unit))
        scale = max(float(np.linalg.norm(pmat * unit)), unit)
        if resid > RANGE_TOL * scale:
            raise ValueError("projection output leaves the analysis range "
                             "(relative residual %.3g)" % (resid / scale))
        # U V must reproduce P column by column; both are held by their
        # transposes, (U V)^T = V^T U^T
        residual = rule.canonical_images @ frame.coefficient_columns() - target
        scale = np.maximum(column_norms(target, theta_grading, (0,))[0], 1.0)
        bad = np.flatnonzero(column_norms(residual, theta_grading, (0,))[0]
                             > RANGE_TOL * scale)
        if bad.size:
            raise ValueError("projection output leaves the analysis range "
                             "at coefficient %d" % (bad[0] + 1))
    j = _left_inverse_failure(frame, rule)
    if j is not None:
        raise ValueError("recovered operator is not a left inverse "
                         "at coordinate %d" % j)
    return rule


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


def _given_grid(n_grid: Optional[Sequence[int]], limit: int) -> Optional[tuple]:
    """The caller's grid as a tuple, or None for the default grid; an empty
    grid or a prefix length outside [0, limit] is refused."""
    if n_grid is None:
        return None
    grid = tuple(n_grid)
    if not grid:
        raise ValueError("n_grid is empty: give at least one prefix length")
    for n in grid:
        _check_prefix(n, limit)
    return grid


def _prefixes_and_tails(v: GradedVector, grid: tuple) -> tuple:
    """One column per distinct prefix of v over the grid, in the order the
    grid first reaches them: v.prefix(n) as entries (column, 0-based
    coordinate, value) ordered by column, v.tail(n) as the columns of a
    matrix held by its transpose, stored zeros included, and back, the
    column of every grid point.  In that order the first column to fail
    belongs to the first grid point that fails, as when each point had its
    own column."""
    stop, first, back = np.unique(np.searchsorted(v.indices, grid, side="right"),
                                  return_index=True, return_inverse=True)
    order = np.argsort(first)
    stop, back = stop[order], np.argsort(order)[back]
    cols = np.arange(stop.size)
    head = runs(np.zeros_like(stop), stop)
    rest = runs(stop, v.support_size - stop)
    tails = Compressed.from_triplets(np.repeat(cols, v.support_size - stop),
                                     v.indices[rest] - 1, v.values[rest],
                                     (stop.size, max(v.max_index, 1)))
    return (np.repeat(cols, stop), v.indices[head] - 1, v.values[head]), tails, back


def _residuals(v: GradedVector, col, row, data, count: int) -> Compressed:
    """Column q, held by the transpose as row q, holds v minus column q of the
    entries (col, row, data), stored on the union of the two supports as
    GradedVector subtraction stores it; non-finite entries are refused as a
    GradedVector refuses them."""
    width = max(v.max_index, int(row.max()) + 1 if row.size else 1)
    own = (np.arange(count)[:, None] * width + (v.indices - 1)).ravel()
    keys, a, b = union_values(own, np.tile(v.values, count), col * width + row, data)
    diff = a - b
    if not (np.isfinite(data).all() and np.isfinite(diff).all()):
        raise ValueError("entries must be finite")
    col, row = np.divmod(keys, width)
    return Compressed.from_triplets(col, row, diff, (count, width))


def _verify_tails(samples: Sequence[GradedVector], rule: SequenceOperator,
                  limit: int, n_grid: Optional[Sequence[int]], coefficients_of,
                  partial_of, out_grading, out_levels: tuple, tail_grading,
                  consts: Sequence[float]) -> ExpansionReport:
    """Tail profiles of one side of a dual pair, the body of both verifiers.

    One matrix holds a column per distinct coefficient prefix the grid
    reaches, in first-appearance order; partial_of(col, inputs, values,
    count) maps all of them at once.  Per sample one column_norms call
    takes the residuals at every level of out_levels (out_grading), one the
    tails at every level k (tail_grading, times consts[k]) and, for a rule
    without a divisor, one the sample for its floor; the values are spread
    back over the grid.  Grid points sharing a prefix share its column, so
    every value is the one a column of its own would give.
    A row passes when every residual is within its bound or the floor (0
    when the rule divides, 1e-12 max(|sample|, 1) otherwise), judged on the
    level-by-column arrays.  A grid point covering the support has a tail
    of stored zeros only, bound 0 (NaN, which fails, when c_k is inf), so a
    passing row has it at most the floor; zero_from is the first such point.
    With no samples the levels are refused as a one-sample call refuses them.
    """
    exact = rule.divisor is not None
    given = _given_grid(n_grid, limit)
    if not samples:
        empty = stack_columns([], 1)
        column_norms(empty, out_grading, out_levels)
        column_norms(empty, tail_grading, range(len(consts)))
    consts = np.asarray(consts, dtype=float)[:, None]
    rows = []
    for pos, v in enumerate(samples):
        coeff = coefficients_of(v)
        support = coeff.trim().max_index
        grid = given or _default_grid(support, limit)
        covered = np.asarray(grid) >= support
        (col, inputs, values), tails, back = _prefixes_and_tails(coeff, grid)
        count = tails.shape[0]
        residuals = _residuals(v, *partial_of(col, inputs, values, count), count)
        floor = 0.0 if exact else 1e-12 * np.maximum(column_norms(
            stack_columns([v], max(v.max_index, 1)), out_grading, out_levels), 1.0)
        r = column_norms(residuals, out_grading, out_levels)
        b = consts * column_norms(tails, tail_grading, range(len(consts)))
        ok = (r <= np.maximum(b * (1 + 1e-12), floor)).all(axis=1)
        r, b = r[:, back], b[:, back]
        vanish = covered & (r <= floor)
        first = np.where(vanish.any(axis=1), vanish.argmax(axis=1), -1)
        for k in range(len(consts)):
            rows.append(ExpansionRow(pos, k, grid, tuple(r[k].tolist()),
                                     tuple(b[k].tolist()), support,
                                     grid[first[k]] if first[k] >= 0 else None,
                                     bool(ok[k])))
    return ExpansionReport(all(r.ok for r in rows), tuple(rows))


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
    ones whose solves round.  The values are bit for bit those of synthesize
    and graded_norm point by point.  A given grid is refused when it is
    empty or reaches outside [0, rule inputs].
    """
    rule = op.rule
    return _verify_tails(
        samples, rule, rule.in_dim, n_grid, partial(analyze, frame),
        lambda col, inputs, values, _: gather(rule._columns, inputs, values,
                                              rule.divisor, None, col),
        x_grading, plan.lower_levels, theta_grading, plan.upper_consts)


def verify_dual_expansion(frame: FrameSystem, op: SynthesisOp,
                          x_grading: WeightGrading, theta_grading: WeightGrading,
                          plan: IndexPlan, dual_samples: Sequence[GradedVector],
                          n_grid: Optional[Sequence[int]] = None) -> ExpansionReport:
    """Tail profiles of the coefficient-functional expansion.

    A functional with coefficient vector g expands through the dual values
    c_i = g(f_i).  The residual after n terms is measured in the dual norm
    at the plan's upper level t_k and compared with tilde_k, the analysis
    map's upper frame bound at (Θ level k, X level t_k), which bounds
    co-analysis of the tail, times the dual-coefficient tail norm.
    Coordinate frames give coanalyze and dual_norm's values point by point
    bit for bit; dense frames co-analyze with one matrix product and may
    differ in the last bits.  A given grid is refused when it is empty or
    reaches outside [0, functional count].
    """
    tilde = []
    for k in range(plan.budget + 1):
        t_k = plan.upper_levels[k]
        w = _weight_prefix(x_grading, t_k, frame.truncation)
        try:
            tilde.append(float(np.max(_functional_sizes(frame, theta_grading, k) / w)))
        except FrameFormError:
            tilde.append(frame_bounds_numeric(frame, theta_grading, k,
                                              x_grading, t_k, t_k).upper)
    return _verify_tails(
        dual_samples, op.rule, frame.functional_count, n_grid,
        op.rule.transpose_apply, partial(_coanalyze_columns, frame),
        x_grading.dual(), plan.upper_levels, theta_grading.dual(), tilde)


# ---------------------------------------------------------------------------
# equivalence round trip


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    passed: bool
    projection: ProjectionOp
    bound_tables: tuple
    notes: tuple


def verify_equivalences(frame: FrameSystem, op: SynthesisOp,
                        x_grading: WeightGrading, theta_grading: WeightGrading,
                        plan: IndexPlan) -> EquivalenceReport:
    """Round trip V -> P -> V'' between the two equivalent witnesses.

    P = U V is composed from the operator, whichever constructor made it,
    and must be idempotent; V'' is recovered from P, which V_from_projection
    refuses unless V'' is finite, U V'' = P and V'' is a left inverse.  The
    round trip passes when the per-level bound tables of V and V'' agree
    within relative tolerance.  V's table, built by synthesis_from_rule from
    these gradings and plan, stands for that of a V'' with V's arrays.
    """
    proj = projection_from_V(frame, op, theta_grading)
    rule = _recovered_rule(frame, proj, theta_grading)
    same = (op._built_from == (x_grading, theta_grading, plan)
            and _same_entries(rule.numerator, op.rule.numerator)
            and np.array_equal(rule.divisor, op.rule.divisor))
    ref, got = tables = (op.bounds.consts, op.bounds.consts if same else
                         _bound_table(rule, x_grading, theta_grading, plan).consts)
    notes = tuple("bound table mismatch at level %d" % k
                  for k in range(plan.budget + 1)
                  if abs(got[k] - ref[k]) > BOUND_MATCH_TOL * max(ref[k], 1e-300))
    return EquivalenceReport(not notes, proj, tables, notes)
