"""Graded families of weighted little-l2 norms on finitely supported sequences.

A grading assigns every level s = 0..S a positive weight sequence w_s(j) over
1-based coordinates j <= N, nondecreasing in s for each fixed j.  Three closed
forms are supported:

    power           w_s(j) = j**s
    shifted_power   w_s(j) = (c*j)**s          (integer c >= 1)
    exponential     w_s(j) = exp(s * alpha_j)  (alpha nondecreasing, >= 0)

The level-s norm of a finitely supported vector v is
sqrt(sum_j |v_j|^2 * w_s(j)^2); a DualWeighting only marks that the dual
norm replaces w by 1/w, and both norms share one body.  A level that is not
an integer in [0, S] is refused, by weights(level) as by weight_values.
Every sum is correctly rounded (math.fsum's; see _segment_sums), so
truncated prefix norms compare exactly against full norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .compressed import Compressed, union_values

KINDS = ("power", "shifted_power", "exponential")


class LevelError(ValueError):
    """Requested level outside the grading's budget."""


class TruncationError(ValueError):
    """Coordinate beyond the truncation bound."""


# a sum of p-th powers at or above this lost at most 2^-150 of itself to
# terms that underflowed into subnormals
_LP_FLOOR = math.ldexp(1.0, -900)


def _fsum(terms: np.ndarray) -> float:
    return math.fsum(terms.tolist())


def _coordinates(indices) -> np.ndarray:
    """indices as int64, a non-integer refused by name, not truncated."""
    idx = np.asarray(indices)
    if idx.dtype.kind in "fc":
        whole = np.isfinite(idx) & (idx == np.floor(idx.real))
        if not whole.all():
            raise ValueError("non-integer coordinate %s" % idx.ravel()[np.argmin(whole)])
    return idx.astype(np.int64, copy=False)


class GradedVector:
    """Finitely supported sequence with 1-based integer coordinates.

    Entries are complex and immutable after construction.  Explicitly stored
    zeros are kept; use trim() to drop them.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices: Iterable[int], values: Iterable[complex]):
        # private copies: the caller may still write to the arrays it passed
        idx = _coordinates(np.array(indices if isinstance(indices, np.ndarray)
                                    else list(indices)))
        val = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.complex128)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d and of equal length")
        if idx.size and idx.min() < 1:
            raise ValueError("coordinates are 1-based")
        # strictly increasing input is sorted and duplicate-free; else sort it
        if idx.size > 1 and not (idx[1:] > idx[:-1]).all():
            order = np.argsort(idx)
            idx, val = idx[order], val[order]
            if (idx[1:] == idx[:-1]).any():
                raise ValueError("duplicate coordinate")
        if not np.isfinite(val).all():
            raise ValueError("entries must be finite")
        idx.setflags(write=False)
        val.setflags(write=False)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", val)

    def __setattr__(self, name, value):
        raise AttributeError("GradedVector is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero() -> "GradedVector":
        return GradedVector([], [])

    @staticmethod
    def canonical(i: int, value: complex = 1.0) -> "GradedVector":
        return GradedVector([i], [value])

    @staticmethod
    def from_pairs(pairs: dict) -> "GradedVector":
        return GradedVector(list(pairs.keys()), list(pairs.values()))

    @staticmethod
    def from_dense(arr: Sequence[complex]) -> "GradedVector":
        a = np.asarray(arr)
        return GradedVector(np.arange(1, a.size + 1), a)

    # -- basic queries -----------------------------------------------------

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    @property
    def max_index(self) -> int:
        return int(self.indices[-1]) if self.indices.size else 0

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.complex128)
        if self.indices.size:
            if self.max_index > n:
                raise TruncationError("coordinate %d beyond dense length %d"
                                      % (self.max_index, n))
            out[self.indices - 1] = self.values
        return out

    # -- algebra -----------------------------------------------------------

    def scale(self, c: complex) -> "GradedVector":
        return GradedVector(self.indices, self.values * c)

    def __mul__(self, c: complex) -> "GradedVector":
        return self.scale(c)

    __rmul__ = __mul__

    def __add__(self, other: "GradedVector") -> "GradedVector":
        if not self.indices.size:
            return other
        if not other.indices.size:
            return self
        idx = np.union1d(self.indices, other.indices)
        val = np.zeros(idx.size, dtype=np.complex128)
        val[np.searchsorted(idx, self.indices)] += self.values
        val[np.searchsorted(idx, other.indices)] += other.values
        return GradedVector(idx, val)

    def __sub__(self, other: "GradedVector") -> "GradedVector":
        return self + other.scale(-1.0)

    def prefix(self, n: int) -> "GradedVector":
        """Restriction to coordinates <= n."""
        keep = self.indices <= n
        return GradedVector(self.indices[keep], self.values[keep])

    def tail(self, n: int) -> "GradedVector":
        """Restriction to coordinates > n."""
        keep = self.indices > n
        return GradedVector(self.indices[keep], self.values[keep])

    def trim(self) -> "GradedVector":
        keep = self.values != 0
        return GradedVector(self.indices[keep], self.values[keep])

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedVector):
            return NotImplemented
        return (self.indices.shape == other.indices.shape
                and bool(np.all(self.indices == other.indices))
                and bool(np.all(self.values == other.values)))

    __hash__ = None

    def allclose(self, other: "GradedVector", tol: float = 1e-12) -> bool:
        """np.allclose(self, other, rtol=tol, atol=tol) on the dense forms,
        compared on the union of the two supports only."""
        _, a, b = union_values(self.indices, self.values,
                               other.indices, other.values)
        return bool(np.all(np.isclose(a, b, rtol=tol, atol=tol)))

    def __repr__(self) -> str:
        items = ", ".join("%d: %s" % (j, format(v, "g") if v.imag == 0 else v)
                          for j, v in zip(self.indices[:6], self.values[:6]))
        more = ", ..." if self.indices.size > 6 else ""
        return "GradedVector({%s%s})" % (items, more)


@dataclass(frozen=True)
class WeightGrading:
    """Closed-form family of weight sequences, one per level s in [0, levels]."""

    kind: str
    levels: int
    truncation: int
    shift: int = 1
    alphas: tuple | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError("unknown weight kind %r" % (self.kind,))
        if self.levels < 0:
            raise ValueError("level budget must be nonnegative")
        if self.truncation < 1:
            raise ValueError("truncation must be at least 1")
        if self.kind == "shifted_power":
            if int(self.shift) != self.shift or self.shift < 1:
                raise ValueError("shift must be an integer >= 1")
        if self.kind == "exponential":
            if self.alphas is None:
                raise ValueError("exponential grading needs an alpha table")
            a = np.asarray(self.alphas, dtype=float)
            if a.size < self.truncation:
                raise ValueError("alpha table shorter than truncation")
            if a[0] < 0:
                raise ValueError("alpha table must be nonnegative")
            if np.any(np.diff(a) < 0):
                raise ValueError("alpha table must be nondecreasing")
            object.__setattr__(self, "alphas", tuple(float(x) for x in self.alphas))
        elif self.alphas is not None:
            raise ValueError("alpha table only applies to the exponential kind")
        # the top weight is the largest of every kind
        with np.errstate(over="ignore"):
            top = self.weight_values(self.levels, [self.truncation])[0]
        if not math.isfinite(top):
            raise LevelError("weight at level %d, coordinate %d is not finite"
                             % (self.levels, self.truncation))
        # the dataclass field hash, taken once: every weights() lookup
        # hashes the grading, and an exponential one holds a long alpha table
        object.__setattr__(self, "_hash", hash((self.kind, self.levels, self.truncation,
                                                self.shift, self.alphas)))

    def __hash__(self) -> int:
        return self._hash

    def _check_level(self, level: int):
        if int(level) != level or not 0 <= level <= self.levels:
            raise LevelError("level %s out of range [0, %d]" % (level, self.levels))

    def weight_values(self, level: int, indices: np.ndarray) -> np.ndarray:
        """Weights w_level(j) at the given 1-based coordinates."""
        self._check_level(level)
        idx = _coordinates(indices)
        self._check_coordinate(int(idx.max(initial=0)))
        if idx.size and idx.min() < 1:
            raise ValueError("coordinates are 1-based")
        return self._formula(level, idx)

    def _check_coordinate(self, top: int):
        if top > self.truncation:
            raise TruncationError("coordinate %d beyond truncation %d"
                                  % (top, self.truncation))

    def _formula(self, level: int, idx: np.ndarray) -> np.ndarray:
        """weight_values without its checks: level valid, idx in [1, truncation]."""
        if self.kind == "power":
            return idx.astype(float) ** int(level)
        if self.kind == "shifted_power":
            return (self.shift * idx).astype(float) ** int(level)
        a = np.asarray(self.alphas, dtype=float)[idx - 1]
        return np.exp(level * a)

    def weights(self, level: int) -> np.ndarray:
        """Full weight table over j = 1..truncation (read-only, cached); a
        level that is not an integer in [0, levels] is refused."""
        self._check_level(level)
        return _weight_table(self, int(level))

    def dual(self) -> "DualWeighting":
        return DualWeighting(self)


@lru_cache(maxsize=256)
def _weight_table(grading: WeightGrading, level: int) -> np.ndarray:
    w = grading.weight_values(level, np.arange(1, grading.truncation + 1))
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class DualWeighting:
    """Marks the pointwise reciprocal weights 1/w of a grading for dual_norm
    and column_norms; dualizing twice returns the base."""

    base: WeightGrading

    def dual(self) -> WeightGrading:
        return self.base


def _terms(moduli: np.ndarray, w: np.ndarray, dual: bool) -> np.ndarray:
    """Squared weighted moduli, (|v| w)^2, or (|v| / w)^2 when dual."""
    return ((moduli / w) if dual else (moduli * w)) ** 2


def _norm(v: GradedVector, grading: WeightGrading, level: int, dual: bool) -> float:
    """The body of graded_norm and dual_norm: level, then coordinates."""
    grading._check_level(level)
    if not v.indices.size:
        return 0.0
    # a GradedVector's coordinates are sorted and >= 1: one check suffices
    grading._check_coordinate(v.max_index)
    w = grading._formula(level, v.indices)
    return math.sqrt(_fsum(_terms(np.abs(v.values), w, dual)))


def graded_norm(v: GradedVector, grading: WeightGrading, level: int) -> float:
    """sqrt(sum |v_j|^2 w_level(j)^2)."""
    return _norm(v, grading, level, False)


def stack_columns(vectors: Sequence[GradedVector], rows: int) -> Compressed:
    """Sparse rows x len(vectors) matrix whose column i holds vectors[i],
    stored zeros included, held by its transpose: row i of the result holds
    vectors[i].  Every support must lie within rows."""
    indptr = np.cumsum([0] + [f.indices.size for f in vectors])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [f.indices for f in vectors]) - 1
    data = np.concatenate([np.zeros(0, dtype=np.complex128)]
                          + [f.values for f in vectors])
    return Compressed(indptr, indices, data, (len(vectors), rows))


def column_norms(mat: Compressed, grading, levels: Sequence[int]) -> np.ndarray:
    """graded_norm (dual_norm for a DualWeighting) of every column of a
    sparse matrix held by its transpose (column c is row c of mat) without
    duplicate entries, coordinate r + 1 at index r: row i at levels[i].
    Refusals come as from one call per level, in order.  Every (level,
    column) pair's sum is math.fsum's, by _segment_sums, and its np.sqrt
    math.sqrt's: bit for bit graded_norm's."""
    dual = isinstance(grading, DualWeighting)
    base = grading.base if dual else grading
    levels = list(levels)
    if not levels:
        return np.zeros((0, mat.shape[0]))
    base._check_level(levels[0])
    if mat.indices.max(initial=-1) >= base.truncation:
        beyond = np.flatnonzero(mat.indices >= base.truncation)
        col = int(np.searchsorted(mat.indptr, beyond[0], side="right")) - 1
        rows = mat.indices[mat.indptr[col]:mat.indptr[col + 1]]
        raise TruncationError("coordinate %d beyond truncation %d"
                              % (int(rows.max()) + 1, base.truncation))
    for level in levels[1:]:
        base._check_level(level)
    idx = mat.indices + 1
    w = np.array([base._formula(level, idx) for level in levels])
    terms = _terms(np.abs(mat.data), w, dual).ravel()
    # level i's terms follow level i - 1's: one segment per (level, column)
    sums = _segment_sums(terms, np.tile(np.diff(mat.indptr), len(levels)))
    return np.sqrt(sums).reshape(len(levels), mat.indptr.size - 1)


def _segment_sums(terms: np.ndarray, counts: np.ndarray,
                  acc=np.longdouble) -> np.ndarray:
    """math.fsum of each back-to-back segment of counts[i] terms >= 0, bit
    for bit, from one np.add.reduceat in acc.  A sum S of k >= 1 doubles in
    any order is within (k-1)(eps/2) S (1 + O(k eps)) of the exact sum
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 4.2;
    no partial sum under- or overflows long double), so within e = (k+1)
    eps S; r = double(S) is the correctly rounded sum when, with delta =
    S - r exact, delta + e and e - delta are below half the gaps up and down
    from r (exact in double, or 0 for the least gap), compared in acc.
    Every other sum (empty, non-finite, overflowing, r the largest double,
    near a tie) goes to math.fsum, as almost every multi-term one does where
    long double is double (MSVC, Apple arm64)."""
    sums = np.zeros(counts.size)
    full = np.flatnonzero(counts)
    starts = np.cumsum(counts) - counts
    big = np.add.reduceat(terms.astype(acc), starts[full])
    with np.errstate(over="ignore", invalid="ignore"):
        r = big.astype(float)
        delta = big - r
        e = big * ((counts[full] + 1) * float(np.finfo(acc).eps))
        up = (np.nextafter(r, np.inf) - r) / 2
        down = (r - np.nextafter(r, -np.inf)) / 2
        keep = (r < np.finfo(float).max) & (e < up - delta) & (e < down + delta)
    sums[full[keep]] = r[keep]
    rest = full[~keep]
    for i, a, k in zip(rest.tolist(), starts[rest].tolist(), counts[rest].tolist()):
        sums[i] = math.fsum(terms[a:a + k].tolist())
    return sums


def dual_norm(v: GradedVector, weighting: DualWeighting, level: int) -> float:
    """Norm with the reciprocal weights, sqrt(sum |v_j|^2 / w_level(j)^2)."""
    return _norm(v, weighting.base, level, True)


def lp_norm(v: GradedVector, p: float) -> float:
    """Unweighted little-lp norm for 1 < p < infinity."""
    if not (1.0 < p < math.inf):
        raise ValueError("p out of range, need 1 < p < inf")
    if not v.indices.size:
        return 0.0
    moduli = np.abs(v.values)
    total = _fsum(moduli ** p)
    # underflow and overflow of |v_j|^p are silent: a sum in range lost
    # nothing that shows; otherwise power the moduli scaled by the largest
    if _LP_FLOOR <= total < math.inf:
        return total ** (1.0 / p)
    top = moduli.max()
    if top == 0.0:
        return 0.0
    return top * _fsum((moduli / top) ** p) ** (1.0 / p)
