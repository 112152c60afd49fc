"""Graded families of weighted little-l2 norms on finitely supported sequences.

A grading assigns every level s = 0..S a positive weight sequence w_s(j) over
1-based coordinates j <= N, nondecreasing in s for each fixed j.  Three closed
forms are supported:

    power           w_s(j) = j**s
    shifted_power   w_s(j) = (c*j)**s          (integer c >= 1)
    exponential     w_s(j) = exp(s * alpha_j)  (alpha nondecreasing, >= 0)

The level-s norm of a finitely supported vector v is
sqrt(sum_j |v_j|^2 * w_s(j)^2); the dual weighting replaces w by 1/w.
All sums are accumulated with math.fsum, so truncated prefix norms compare
exactly against full norms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

KINDS = ("power", "shifted_power", "exponential")


class LevelError(ValueError):
    """Requested level outside the grading's budget."""


class TruncationError(ValueError):
    """Coordinate beyond the truncation bound."""


def _fsum(terms: np.ndarray) -> float:
    return math.fsum(terms.tolist())


class GradedVector:
    """Finitely supported sequence with 1-based integer coordinates.

    Entries are complex and immutable after construction.  Explicitly stored
    zeros are kept; use trim() to drop them.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices: Iterable[int], values: Iterable[complex]):
        # private copies: the caller may still write to the arrays it passed
        idx = np.array(list(indices) if not isinstance(indices, np.ndarray) else indices,
                       dtype=np.int64)
        val = np.array(list(values) if not isinstance(values, np.ndarray) else values,
                       dtype=np.complex128)
        if idx.shape != val.shape or idx.ndim != 1:
            raise ValueError("indices and values must be 1-d and of equal length")
        if idx.size and idx.min() < 1:
            raise ValueError("coordinates are 1-based")
        # strictly increasing input is already sorted and duplicate-free
        unsorted = idx.size > 1 and not np.all(idx[1:] > idx[:-1])
        if unsorted and idx.size != np.unique(idx).size:
            raise ValueError("duplicate coordinate")
        if not np.all(np.isfinite(val)):
            raise ValueError("entries must be finite")
        if unsorted:
            order = np.argsort(idx)
            idx = idx[order]
            val = val[order]
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
    def from_dense(arr: Sequence[complex], start: int = 1) -> "GradedVector":
        a = np.asarray(arr)
        return GradedVector(np.arange(start, start + a.size), a)

    # -- basic queries -----------------------------------------------------

    @property
    def support_size(self) -> int:
        return int(self.indices.size)

    @property
    def max_index(self) -> int:
        return int(self.indices[-1]) if self.indices.size else 0

    def value_at(self, j: int) -> complex:
        pos = np.searchsorted(self.indices, j)
        if pos < self.indices.size and self.indices[pos] == j:
            return complex(self.values[pos])
        return 0.0 + 0.0j

    def to_dense(self, n: int) -> np.ndarray:
        out = np.zeros(n, dtype=np.complex128)
        if self.indices.size:
            if self.max_index > n:
                raise TruncationError("coordinate %d beyond dense length %d"
                                      % (self.max_index, n))
            out[self.indices - 1] = self.values
        return out

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0))

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

    def __neg__(self) -> "GradedVector":
        return self.scale(-1.0)

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


def union_values(keys_a: np.ndarray, vals_a: np.ndarray, keys_b: np.ndarray,
                 vals_b: np.ndarray):
    """Align two sparse value lists on the sorted union of their keys.

    Keys within each list are distinct; a key missing from one list reads
    as zero there.  Returns (keys, values of a, values of b).
    """
    keys = np.union1d(keys_a, keys_b)
    a = np.zeros(keys.size, dtype=np.complex128)
    b = np.zeros(keys.size, dtype=np.complex128)
    a[np.searchsorted(keys, keys_a)] = vals_a
    b[np.searchsorted(keys, keys_b)] = vals_b
    return keys, a, b


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

    def _check_level(self, level: int):
        if int(level) != level or not 0 <= level <= self.levels:
            raise LevelError("level %s out of range [0, %d]" % (level, self.levels))

    def weight_values(self, level: int, indices: np.ndarray) -> np.ndarray:
        """Weights w_level(j) at the given 1-based coordinates."""
        self._check_level(level)
        idx = np.asarray(indices, dtype=np.int64)
        if idx.size and idx.max() > self.truncation:
            raise TruncationError("coordinate %d beyond truncation %d"
                                  % (int(idx.max()), self.truncation))
        if idx.size and idx.min() < 1:
            raise ValueError("coordinates are 1-based")
        if self.kind == "power":
            return idx.astype(float) ** int(level)
        if self.kind == "shifted_power":
            return (self.shift * idx).astype(float) ** int(level)
        a = np.asarray(self.alphas, dtype=float)[idx - 1]
        return np.exp(level * a)

    def weights(self, level: int) -> np.ndarray:
        """Full weight table over j = 1..truncation (read-only, cached)."""
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
    """Pointwise reciprocal of a grading; dualizing twice returns the base."""

    base: WeightGrading

    @property
    def levels(self) -> int:
        return self.base.levels

    @property
    def truncation(self) -> int:
        return self.base.truncation

    def weight_values(self, level: int, indices: np.ndarray) -> np.ndarray:
        return 1.0 / self.base.weight_values(level, indices)

    def dual(self) -> WeightGrading:
        return self.base


def graded_norm(v: GradedVector, grading: WeightGrading, level: int) -> float:
    """sqrt(sum |v_j|^2 w_level(j)^2)."""
    if not v.indices.size:
        grading._check_level(level)
        return 0.0
    w = grading.weight_values(level, v.indices)
    terms = (np.abs(v.values) * w) ** 2
    return math.sqrt(_fsum(terms))


def stack_columns(vectors: Sequence[GradedVector], rows: int) -> sp.csc_matrix:
    """Sparse rows x len(vectors) matrix whose column i holds vectors[i],
    stored zeros included; every support must lie within rows."""
    indptr = np.cumsum([0] + [f.indices.size for f in vectors])
    indices = np.concatenate([np.zeros(0, dtype=np.int64)]
                             + [f.indices - 1 for f in vectors])
    data = np.concatenate([np.zeros(0, dtype=np.complex128)]
                          + [f.values for f in vectors])
    return sp.csc_matrix((data, indices, indptr), shape=(rows, len(vectors)))


def column_norms(mat: sp.csc_matrix, grading, level: int) -> np.ndarray:
    """graded_norm of every column of a CSC matrix without duplicate entries,
    row r holding coordinate r + 1; dual_norm when grading is a
    DualWeighting.

    Each column sums its own terms with math.fsum, so every value is bit for
    bit what graded_norm (dual_norm) gives for that column, and a column
    beyond the truncation raises its TruncationError.
    """
    dual = isinstance(grading, DualWeighting)
    base = grading.base if dual else grading
    base._check_level(level)
    beyond = np.flatnonzero(mat.indices >= base.truncation)
    if beyond.size:
        col = int(np.searchsorted(mat.indptr, beyond[0], side="right")) - 1
        rows = mat.indices[mat.indptr[col]:mat.indptr[col + 1]]
        raise TruncationError("coordinate %d beyond truncation %d"
                              % (int(rows.max()) + 1, base.truncation))
    w = base.weight_values(level, mat.indices + 1)
    terms = (((np.abs(mat.data) / w) if dual else (np.abs(mat.data) * w)) ** 2).tolist()
    ptr = mat.indptr.tolist()
    return np.array([math.sqrt(math.fsum(terms[a:b]))
                     for a, b in zip(ptr, ptr[1:])], dtype=float)


def dual_norm(v: GradedVector, weighting: DualWeighting, level: int) -> float:
    """Norm with the reciprocal weights, sqrt(sum |v_j|^2 / w_level(j)^2)."""
    if not v.indices.size:
        weighting.base._check_level(level)
        return 0.0
    w = weighting.base.weight_values(level, v.indices)
    terms = (np.abs(v.values) / w) ** 2
    return math.sqrt(_fsum(terms))


def lp_norm(v: GradedVector, p: float) -> float:
    """Unweighted little-lp norm for 1 < p < infinity."""
    if not (1.0 < p < math.inf):
        raise ValueError("p out of range, need 1 < p < inf")
    if not v.indices.size:
        return 0.0
    terms = np.abs(v.values) ** p
    return _fsum(terms) ** (1.0 / p)


def pairing(functional: GradedVector, v: GradedVector) -> complex:
    """Bilinear coordinate pairing <u, v> = sum_j u_j v_j."""
    common = np.intersect1d(functional.indices, v.indices)
    if not common.size:
        return 0.0 + 0.0j
    a = functional.values[np.searchsorted(functional.indices, common)]
    b = v.values[np.searchsorted(v.indices, common)]
    prods = a * b
    return complex(math.fsum(prods.real.tolist()), math.fsum(prods.imag.tolist()))
