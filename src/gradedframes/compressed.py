"""Compressed sparse matrices on plain numpy arrays.

A Compressed matrix is stored row by row: row k holds the values
data[indptr[k]:indptr[k+1]] at the columns indices[indptr[k]:indptr[k+1]].
Stored zeros are kept, since a pattern says which outputs an input reaches.
A matrix kept by columns is held as the Compressed of its transpose, whose
three arrays are the column-compressed ones.  Products sum their terms
from zero in the order of the left factor's columns, as scipy's sparse
product does; unlike it, they keep zero sums and pass a lone term through
unchanged.
"""

from __future__ import annotations

import numpy as np


def runs(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions lo_k, lo_k + 1, ..., lo_k + counts_k - 1 for every k, in turn."""
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of every run of equal sorted keys."""
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def union_values(keys_a: np.ndarray, vals_a: np.ndarray, keys_b: np.ndarray,
                 vals_b: np.ndarray):
    """Align two sparse value lists on the sorted union of their keys.

    Keys within each list are distinct; a key missing from one list reads
    as zero there.  Returns (keys, values of a, values of b).
    """
    keys = np.sort(np.concatenate((keys_a, keys_b)))
    keys = keys[np.flatnonzero(_firsts(keys))]
    a = np.zeros(keys.size, dtype=np.complex128)
    b = np.zeros(keys.size, dtype=np.complex128)
    a[np.searchsorted(keys, keys_a)] = vals_a
    b[np.searchsorted(keys, keys_b)] = vals_b
    return keys, a, b


def exact_div(values: np.ndarray, div) -> np.ndarray:
    # numpy routes complex-by-real division through the complex kernel,
    # which rounds quotients the componentwise real division gets exact
    # (e.g. -1458/2916); divide the parts separately to keep the zero
    # residuals the division-structured rules promise
    return values.real / div + 1j * (values.imag / div)


def _sums(group: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Sums of values by group, each from zero in the given order, as the
    products sum them."""
    if np.iscomplexobj(values):
        return _sums(group, values.real, size) + 1j * _sums(group, values.imag, size)
    return np.bincount(group, values, size)


def _sum_repeats(key: np.ndarray, vals: np.ndarray) -> tuple:
    """Sorted distinct keys with the sums of their values, each taken from
    zero in the given order; strictly increasing keys and their values pass
    through unchanged."""
    if key.size < 2 or (key[1:] > key[:-1]).all():
        return key, vals
    # a stable sort keeps the given order within every key
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    first = _firsts(key)
    group = np.cumsum(first) - 1
    key = key[np.flatnonzero(first)]
    return key, _sums(group, vals, key.size)


def gather(mat: "Compressed", pos, values, out_div, in_div, col=None) -> tuple:
    """Apply a compressed matrix to sparse columns given entry by entry:
    values[e] sits at the 0-based input pos[e] of column col[e] (of the one
    column when col is None), ordered by column and then input.

    Row j of mat lists the outputs input j reaches; every product is
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
    take = runs(lo, counts)
    out = mat.indices[take]
    prods = np.repeat(values, counts) * mat.data[take]
    if in_div is not None:
        prods = exact_div(prods, np.repeat(in_div[pos], counts))
    key = out
    if col is not None:
        width = int(out.max()) + 1 if out.size else 1
        key = np.repeat(col, counts) * width + out
    key, prods = _sum_repeats(key, prods)
    if col is not None:
        col = key // width
        key = key - col * width
    if out_div is not None:
        prods = exact_div(prods, out_div[key])
    return col, key, prods


class Compressed:
    """Sparse rows x cols matrix, compressed by rows."""

    __slots__ = ("indptr", "indices", "data", "shape")

    def __init__(self, indptr, indices, data, shape):
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        self.data = np.asarray(data)
        self.shape = (int(shape[0]), int(shape[1]))

    @staticmethod
    def from_triplets(rows, cols, vals, shape) -> "Compressed":
        """vals at (rows, cols), stored zeros and repeats included, ordered by
        row; the entries of one row keep their given order."""
        rows = np.asarray(rows, dtype=np.int64)
        cols, vals = np.asarray(cols), np.asarray(vals)
        if rows.size > 1 and (rows[1:] < rows[:-1]).any():
            order = np.argsort(rows, kind="stable")
            rows, cols, vals = rows[order], cols[order], vals[order]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=shape[0]), out=indptr[1:])
        return Compressed(indptr, cols, vals, shape)

    @staticmethod
    def from_dense(array) -> "Compressed":
        """The nonzero entries of a 2-d array."""
        a = np.asarray(array)
        rows, cols = np.nonzero(a)
        return Compressed.from_triplets(rows, cols, a[rows, cols], a.shape)

    @staticmethod
    def identity(n: int) -> "Compressed":
        return Compressed(np.arange(n + 1), np.arange(n), np.ones(n), (n, n))

    @staticmethod
    def zero(rows: int, cols: int) -> "Compressed":
        return Compressed(np.zeros(rows + 1), [], np.zeros(0), (rows, cols))

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def rows(self) -> np.ndarray:
        """Row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def first_row_reaching(self, limit: int) -> int | None:
        """The first row that stores an index >= limit, or None."""
        if self.indices.max(initial=-1) < limit:
            return None
        beyond = np.flatnonzero(self.indices >= limit)[0]
        return int(np.searchsorted(self.indptr, beyond, side="right")) - 1

    def with_data(self, data) -> "Compressed":
        return Compressed(self.indptr, self.indices, data, self.shape)

    @property
    def T(self) -> "Compressed":
        """Transpose; each of its rows lists its entries by original row."""
        return Compressed.from_triplets(self.indices, self.rows(), self.data,
                                        self.shape[::-1])

    def __getitem__(self, which) -> "Compressed":
        """The rows numbered in which, in its order."""
        which = np.asarray(which, dtype=np.int64)
        lo = self.indptr[which]
        counts = self.indptr[which + 1] - lo
        take = runs(lo, counts)
        indptr = np.concatenate(([0], np.cumsum(counts)))
        return Compressed(indptr, self.indices[take], self.data[take],
                          (which.size, self.shape[1]))

    def __matmul__(self, other: "Compressed") -> "Compressed":
        """Row i sums self[i, k] * other[k] over the stored k of row i."""
        col, out, vals = gather(other, self.indices, self.data, None, None, self.rows())
        return Compressed.from_triplets(col, out, vals, (self.shape[0], other.shape[1]))

    def __sub__(self, other: "Compressed") -> "Compressed":
        """Difference on the union of two duplicate-free patterns."""
        if (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)):
            return self.with_data(self.data - other.data)
        width = max(self.shape[1], other.shape[1])
        keys, a, b = union_values(self.rows() * width + self.indices, self.data,
                                  other.rows() * width + other.indices, other.data)
        if not (np.iscomplexobj(self.data) or np.iscomplexobj(other.data)):
            a, b = a.real, b.real
        rows, cols = np.divmod(keys, width)
        return Compressed.from_triplets(rows, cols, a - b, self.shape)

    def canonical(self) -> "Compressed":
        """Columns sorted within every row and repeated entries summed from
        zero, as products sum; stored zeros stay."""
        width = self.shape[1]
        key = self.rows() * width + self.indices
        summed, vals = _sum_repeats(key, self.data)
        if summed is key:
            return self
        rows, cols = np.divmod(summed, width)
        return Compressed.from_triplets(rows, cols, vals, self.shape)

    def eliminate_zeros(self) -> "Compressed":
        keep = self.data != 0
        return Compressed.from_triplets(self.rows()[keep], self.indices[keep],
                                        self.data[keep], self.shape)

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        np.add.at(out, (self.rows(), self.indices), self.data)
        return out
