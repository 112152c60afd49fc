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
truncated prefix norms compare exactly against full norms.  A norm whose
terms would overflow or whose sum underflows is taken again with powers of
two taken out (Blue, ACM TOMS 4(1), 1978; Anderson, ACM TOMS 44(1), 2017),
and one above the largest double is refused with NormOverflowError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .compressed import Compressed, runs, union_values

KINDS = ("power", "shifted_power", "exponential")


class LevelError(ValueError):
    """Requested level outside the grading's budget."""


class TruncationError(ValueError):
    """Coordinate beyond the truncation bound."""


class NormOverflowError(ValueError):
    """Norm whose true value lies above the largest double."""


# a sum of fewer than 2^54 squares or p-th powers at or above this lost
# at most 2^-120 of itself to terms that underflowed into subnormals
_FLOOR = math.ldexp(1.0, -900)
# products below this square to terms whose sum stays finite for any
# support that fits in memory (fewer than 2^58 entries)
_CEIL = math.ldexp(1.0, 480)
# a sum of p-th powers below this stays finite, rounding included
_LP_CEIL = math.ldexp(1.0, 1023)
# the exponent a zero entry takes in _scaled_terms: below every other one
_NO_EXPONENT = -8192
# np.abs rounds a complex entry's modulus below the smallest normal double
# to a multiple of 2^-1074, which a weight would magnify; times 2^_LIFT it
# is normal, and rounded to 53 bits
_TINY = math.ldexp(1.0, -1022)
_LIFT = 600
# frexp's exponent of the doubles below 2^1024
_MAX_EXPONENT = 1024
_OVERFLOW = "norm exceeds the largest double"


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
    zeros are kept; use trim() to drop them.  The moduli |values| and
    their largest entry are kept from the first norm on.
    """

    __slots__ = ("indices", "values", "_abs")

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
        object.__setattr__(self, "_abs", None)

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
        if self.kind == "power":
            return idx.astype(float) ** int(level)
        if self.kind == "shifted_power":
            return (self.shift * idx).astype(float) ** int(level)
        a = np.asarray(self.alphas, dtype=float)[idx - 1]
        return np.exp(level * a)

    def _check_coordinate(self, top: int):
        if top > self.truncation:
            raise TruncationError("coordinate %d beyond truncation %d"
                                  % (top, self.truncation))

    def weights(self, level: int) -> np.ndarray:
        """Full weight table over j = 1..truncation (read-only, cached); a
        level that is not an integer in [0, levels] is refused."""
        self._check_level(level)
        return _weight_table(self, int(level))[1]

    def dual(self) -> "DualWeighting":
        return DualWeighting(self)


@lru_cache(maxsize=256)
def _weight_table(grading: WeightGrading, level: int) -> tuple:
    """(table, view): table[j] = w_level(j) for j = 1..truncation after a
    leading 1.0, so 1-based coordinates index it directly; view = table[1:],
    the one array weights(level) returns.  Both read-only."""
    table = np.empty(grading.truncation + 1)
    table[0] = 1.0
    table[1:] = grading.weight_values(level, np.arange(1, grading.truncation + 1))
    table.setflags(write=False)
    return table, table[1:]


@dataclass(frozen=True)
class DualWeighting:
    """Marks the pointwise reciprocal weights 1/w of a grading for dual_norm
    and column_norms; dualizing twice returns the base."""

    base: WeightGrading

    def dual(self) -> WeightGrading:
        return self.base


def _moduli(v: GradedVector) -> tuple:
    """|v| (read-only), its largest entry and whether no entry is _rounded,
    of a nonempty v, kept by v from the first call on; a modulus above the
    largest double is refused."""
    held = v._abs
    if held is None:
        moduli = np.abs(v.values)
        lst = moduli.tolist()
        top = max(lst)
        if top == math.inf:
            raise NormOverflowError(_OVERFLOW)
        moduli.setflags(write=False)
        exact = min(lst) >= _TINY or not _rounded(v.values, moduli).any()
        held = moduli, top, exact
        object.__setattr__(v, "_abs", held)
    return held


def _rounded(values: np.ndarray, moduli: np.ndarray) -> np.ndarray:
    """Complex entries, both parts nonzero, whose modulus np.abs rounded to
    a multiple of 2^-1074."""
    return (moduli < _TINY) & (values.real != 0.0) & (values.imag != 0.0)


def _products(moduli: np.ndarray, w: np.ndarray, dual: bool) -> np.ndarray:
    """Weighted moduli, |v| w, or |v| / w when dual."""
    return (moduli / w) if dual else (moduli * w)


def _norm(v: GradedVector, grading: WeightGrading, level: int, dual: bool) -> float:
    """The body of graded_norm and dual_norm: level, then coordinates.
    Weights are >= 1 and nondecreasing in j, so top * w(last) (top when
    dual) bounds every product: below _CEIL no square overflows, and a sum
    at or above _FLOOR (or of zero entries) lost nothing to underflow.
    Anything else, and a vector with a _rounded entry, is summed from
    _scaled_terms."""
    # a level not in [0, levels] misses the cache and weight_values
    # refuses it, before anything else is checked
    table = _weight_table(grading, level)[0]
    if not v.indices.size:
        return 0.0
    # a GradedVector's coordinates are sorted and >= 1: one check suffices
    last = v.indices.item(-1)
    grading._check_coordinate(last)
    w = table.take(v.indices)
    moduli, top, exact = _moduli(v)
    if exact and (top if dual else top * table.item(last)) < _CEIL:
        total = _fsum(_products(moduli, w, dual) ** 2)
        if total >= _FLOOR or top == 0.0:
            return math.sqrt(total)
    terms, shift = _scaled_terms(moduli, w, dual, None if exact else v.values)
    root = math.sqrt(_fsum(terms))
    if math.frexp(root)[1] + shift > _MAX_EXPONENT:
        raise NormOverflowError(_OVERFLOW)
    return math.ldexp(root, shift)


def _scaled_terms(moduli: np.ndarray, w: np.ndarray, dual: bool,
                  values=None, starts=None):
    """The squared products (|v| w)^2 (|v| / w when dual) of one segment,
    or of the nonempty back-to-back segments that begin at starts, each
    segment's divided by 4^shift; returns (terms, shift), shift an int or
    one per segment.  Every modulus and weight splits by frexp into a
    fraction and a power of two, and the product of fractions, in [1/4,
    2), goes back by ldexp to its power of two less shift before squaring;
    where the entries' values are given, a _rounded modulus splits from
    |2^_LIFT v| instead, its exponent less _LIFT.  shift brings the exponent of the segment's largest product
    into [-479, 481], and is 0 where it already lies there, as it does
    wherever _norm's in-range sum is taken (every product below _CEIL, a
    sum of fewer than 2^58 squares at or above _FLOOR): such terms are
    _norm's own, and the squares stay below 2^964.  Power-of-two scaling
    is exact in range: the norm is 2^shift sqrt(correctly rounded sum of
    the terms), to within the rounding of subnormal terms, at most
    2^-1075 each against a largest term of at least 2^-962 (Blue's and
    Anderson's safe scaling)."""
    mm, em = np.frexp(moduli)
    if values is not None:
        lift = np.flatnonzero(_rounded(values, moduli))
        mm[lift], em[lift] = np.frexp(np.abs(values[lift] * math.ldexp(1.0, _LIFT)))
        em[lift] -= _LIFT
    mw, ew = np.frexp(w)
    frac, exp = (mm / mw, em - ew) if dual else (mm * mw, em + ew)
    exp[mm == 0.0] = _NO_EXPONENT
    if starts is None:
        top = max(exp.tolist())
        shift = top - min(max(top, -479), 481)
        exp -= shift
        return np.ldexp(frac, exp) ** 2, shift
    top = np.maximum.reduceat(exp, starts)
    shift = top - np.minimum(np.maximum(top, -479), 481)
    counts = np.diff(starts, append=exp.size)
    return np.ldexp(frac, exp - np.repeat(shift, counts)) ** 2, shift


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
    math.sqrt's.  Products are clamped to _CEIL, so no square or sum
    overflows; a pair whose sum is at or above _CEIL^2 (it may hold a
    clamped product), or below _FLOOR with a nonzero entry in its column,
    and every pair of a column with a _rounded entry, is summed again from
    _scaled_terms, in one batch.  Any other pair's largest product lies in
    _scaled_terms' window, where it forms these very terms: every value is
    graded_norm's, bit for bit."""
    dual = isinstance(grading, DualWeighting)
    base = grading.base if dual else grading
    levels = list(levels)
    if not levels:
        return np.zeros((0, mat.shape[0]))
    base._check_level(levels[0])
    col = mat.first_row_reaching(base.truncation)
    if col is not None:
        rows = mat.indices[mat.indptr[col]:mat.indptr[col + 1]]
        raise TruncationError("coordinate %d beyond truncation %d"
                              % (int(rows.max()) + 1, base.truncation))
    for level in levels[1:]:
        base._check_level(level)
    w = np.array([_weight_table(base, level)[1].take(mat.indices)
                  for level in levels])
    moduli = np.abs(mat.data)
    with np.errstate(over="ignore"):
        prods = np.minimum(_products(moduli, w, dual), _CEIL)
    # level i's terms follow level i - 1's: one segment per (level, column)
    counts = np.diff(mat.indptr)
    sums = _segment_sums((prods ** 2).ravel(),
                         counts[None].repeat(len(levels), 0).ravel())
    sums = sums.reshape(len(levels), counts.size)
    out = np.sqrt(sums)
    redo = sums >= _CEIL ** 2
    low = sums < _FLOOR
    if low.any():
        # a zero sum is exact where every entry of the column is zero
        full = np.flatnonzero(counts)
        tops = np.zeros(counts.size)
        tops[full] = np.maximum.reduceat(moduli, mat.indptr[full])
        redo |= low & (tops > 0.0)
    values = None
    if mat.data.imag.any():
        entry = np.flatnonzero(_rounded(mat.data, moduli))
        if entry.size:
            values = mat.data
            redo[:, np.searchsorted(mat.indptr, entry, side="right") - 1] = True
    level, col = np.nonzero(redo)
    if level.size:
        k = counts[col]
        pos = runs(mat.indptr[col], k)
        terms, shift = _scaled_terms(moduli[pos], w[np.repeat(level, k), pos],
                                     dual, None if values is None else values[pos],
                                     np.cumsum(k) - k)
        roots = np.sqrt(_segment_sums(terms, k))
        if ((roots == np.inf) | (np.frexp(roots)[1] + shift > _MAX_EXPONENT)).any():
            raise NormOverflowError(_OVERFLOW)
        out[level, col] = np.ldexp(roots, shift)
    return out


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
    moduli, top, _ = _moduli(v)
    # power the moduli as they are when no power can overflow and the sum
    # lost nothing to underflow; otherwise power them scaled by the largest,
    # which also leaves out the rounding of 1 / p that total ** (1 / p)
    # magnifies by |ln total| / p
    try:
        fits = top ** p * v.indices.size < _LP_CEIL
    except OverflowError:
        fits = False
    if fits:
        total = _fsum(moduli ** p)
        if total >= _FLOOR or top == 0.0:
            return total ** (1.0 / p)
    norm = top * _fsum((moduli / top) ** p) ** (1.0 / p)
    if norm == math.inf:
        raise NormOverflowError(_OVERFLOW)
    return norm
