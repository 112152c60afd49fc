"""The numpy-only compressed matrix against scipy.sparse as an oracle.

scipy is imported here only to check the package's own type.  Structured
products (diagonal, block, pair-mix patterns, at most two terms per output)
must match bit for bit, dense products within the last-bit tolerance
stated below, and stored zeros must survive where the type promises to keep
them.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from gradedframes.compressed import Compressed
from gradedframes.reconstruction import SequenceOperator

# dense products may sum many terms; the oracle tests allow this much drift
DENSE_RTOL = 4 * np.finfo(float).eps


def bits(a):
    a = np.ascontiguousarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def as_scipy(mat: Compressed) -> sp.csr_matrix:
    return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)


def same_arrays(mat: Compressed, ref) -> bool:
    return (np.array_equal(mat.indptr, ref.indptr)
            and np.array_equal(mat.indices, ref.indices)
            and bits(mat.data) == bits(ref.data) and mat.shape == ref.shape)


def random_matrix(rng, shape, density=0.3, complex_=False, zeros=True):
    """Canonical random matrix with some stored zeros."""
    mask = rng.random(shape) < density
    rows, cols = np.nonzero(mask)
    vals = rng.standard_normal(rows.size)
    if complex_:
        vals = vals + 1j * rng.standard_normal(rows.size)
    if zeros and vals.size:
        vals[rng.random(vals.size) < 0.2] = 0.0
    return Compressed.from_triplets(rows, cols, vals, shape)


# -- construction ------------------------------------------------------------


def test_triplets_keep_stored_zeros_and_their_order():
    # unsorted rows, a zero, a negative zero and a repeat, columns out of order
    mat = Compressed.from_triplets([2, 0, 2, 0, 2], [3, 1, 0, 1, 3],
                                   [0.0, 5.0, -0.0, 7.0, 2.0], (4, 5))
    assert mat.indptr.tolist() == [0, 2, 2, 5, 5]
    # entries of one row keep their given order, repeats and zeros included
    assert mat.indices.tolist() == [1, 1, 3, 0, 3]
    assert bits(mat.data) == bits(np.array([5.0, 7.0, 0.0, -0.0, 2.0]))


def test_canonical_sorts_and_sums_repeats_as_scipy_does():
    mat = Compressed.from_triplets([2, 0, 2, 0, 2], [3, 1, 0, 1, 3],
                                   [0.0, 5.0, 4.0, 7.0, 2.0], (4, 5))
    canon = mat.canonical()
    assert canon.indices.tolist() == [1, 0, 3]
    # the stored zero summed into column 3 stays part of the pattern
    assert bits(canon.data) == bits(np.array([12.0, 4.0, 2.0]))
    ref = sp.coo_matrix((mat.data, (mat.rows(), mat.indices)), shape=mat.shape).tocsr()
    ref.sum_duplicates()
    assert same_arrays(canon, ref)


def test_canonical_keeps_a_canonical_matrix():
    mat = Compressed.identity(4)
    assert mat.canonical() is mat


def test_first_row_reaching_a_bound():
    # rows 0 and 2 are empty; rows 1, 3 and 4 store 1 and 4, 0 and 6, 9
    mat = Compressed([0, 0, 2, 2, 4, 5], [1, 4, 0, 6, 9], np.ones(5), (5, 10))
    assert [mat.first_row_reaching(limit) for limit in (0, 5, 7, 10)] == [1, 3, 4, None]
    assert Compressed.zero(3, 4).first_row_reaching(0) is None


def test_from_dense_stores_nonzeros_as_scipy_does():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((5, 7))
    a[a < 0.2] = 0.0
    assert same_arrays(Compressed.from_dense(a), sp.csr_matrix(a))


def test_identity_and_zero():
    assert same_arrays(Compressed.identity(5), sp.identity(5, format="csr"))
    zero = Compressed.zero(3, 4)
    assert zero.nnz == 0 and zero.indptr.tolist() == [0, 0, 0, 0]
    assert np.array_equal(zero.toarray(), np.zeros((3, 4)))


def test_eliminate_zeros_matches_scipy():
    rng = np.random.default_rng(5)
    mat = random_matrix(rng, (6, 9))
    ref = as_scipy(mat).copy()
    ref.eliminate_zeros()
    assert same_arrays(mat.eliminate_zeros(), ref)


# -- transpose, row selection, toarray -----------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_transpose_matches_scipy(seed):
    rng = np.random.default_rng(seed)
    mat = random_matrix(rng, (int(rng.integers(1, 12)), int(rng.integers(1, 12))),
                        complex_=seed % 2 == 1)
    ref = as_scipy(mat).T.tocsr()
    assert same_arrays(mat.T, ref)
    assert same_arrays(mat.T.T, as_scipy(mat))


@pytest.mark.parametrize("seed", range(6))
def test_row_selection_matches_scipy(seed):
    rng = np.random.default_rng(10 + seed)
    mat = random_matrix(rng, (9, 7), complex_=seed % 2 == 0)
    which = rng.integers(0, 9, size=int(rng.integers(1, 15)))
    assert same_arrays(mat[which], as_scipy(mat)[which])


@pytest.mark.parametrize("seed", range(4))
def test_toarray_matches_scipy(seed):
    rng = np.random.default_rng(20 + seed)
    mat = random_matrix(rng, (7, 5), complex_=seed >= 2)
    assert bits(mat.toarray()) == bits(as_scipy(mat).toarray())


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 8), st.integers(1, 8),
       st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7),
                          st.floats(-1e3, 1e3, allow_nan=False)), max_size=20))
def test_random_triplets_transpose_select_and_toarray(rows, cols, entries):
    entries = sorted({(r % rows, c % cols): v for r, c, v in entries}.items())
    r = np.array([k[0] for k, _ in entries], dtype=np.int64)
    c = np.array([k[1] for k, _ in entries], dtype=np.int64)
    v = np.array([val for _, val in entries], dtype=float)
    mat = Compressed.from_triplets(r, c, v, (rows, cols))
    ref = sp.csr_matrix((v, (r, c)), shape=(rows, cols))
    assert bits(mat.toarray()) == bits(ref.toarray())
    assert bits(mat.T.toarray()) == bits(ref.T.toarray())
    which = np.arange(rows)[::-1]
    assert bits(mat[which].toarray()) == bits(ref[which].toarray())


# -- products ------------------------------------------------------------------


def structured(name, n, rng):
    a, b, d = rng.uniform(-2, 2, n), rng.uniform(-2, 2, n), rng.uniform(0.5, 3, n)
    if name == "diagonal":
        return SequenceOperator.diagonal(a, d)
    if name == "block":
        return SequenceOperator.pair_collapse(a, b, d)
    return SequenceOperator.pair_mix(a, b, n)


def dense_product_of(prod: Compressed, ref) -> bool:
    """Bit-equal dense forms; the type keeps zero sums scipy drops."""
    return bits(prod.toarray()) == bits(ref.toarray())


@pytest.mark.parametrize("name", ["diagonal", "block", "pair_mix"])
def test_structured_products_match_scipy_bit_for_bit(name):
    rng = np.random.default_rng(31)
    n = 16
    rule = structured(name, n, rng)
    num = rule._values
    # the operator applied to columns of a sparse matrix, and the square of
    # a pair mix as the idempotence check forms it
    x = random_matrix(rng, (num.shape[1], 6), density=0.5, complex_=True)
    assert dense_product_of(num @ x, as_scipy(num) @ as_scipy(x))
    if num.shape[0] == num.shape[1]:
        assert dense_product_of(num @ num, as_scipy(num) @ as_scipy(num))
    back = x.T @ num.T
    assert dense_product_of(back, as_scipy(x).T @ as_scipy(num).T)


def test_apply_columns_matches_scipy_product():
    rng = np.random.default_rng(41)
    rule = structured("pair_mix", 8, rng)
    got = rule.apply_columns(Compressed.identity(rule.in_dim))
    ref = sp.csc_matrix(as_scipy(rule.numerator) @ sp.identity(rule.in_dim, format="csc"),
                        dtype=np.complex128)
    ref.sort_indices()
    ref.data = ref.data.real / rule.divisor[ref.indices] + 1j * (ref.data.imag
                                                                  / rule.divisor[ref.indices])
    # both hold the images column by column; scipy drops zero sums, and so
    # does apply_columns
    assert same_arrays(got, ref)


@pytest.mark.parametrize("seed", range(4))
def test_dense_products_match_scipy_within_tolerance(seed):
    rng = np.random.default_rng(50 + seed)
    a = random_matrix(rng, (12, 30), density=0.9, complex_=seed % 2 == 1)
    b = random_matrix(rng, (30, 9), density=0.9)
    got = (a @ b).toarray()
    want = (as_scipy(a) @ as_scipy(b)).toarray()
    np.testing.assert_allclose(got, want, rtol=DENSE_RTOL, atol=0.0)


@pytest.mark.parametrize("seed", range(3))
def test_subtraction_matches_scipy(seed):
    rng = np.random.default_rng(60 + seed)
    a = random_matrix(rng, (6, 8))
    b = random_matrix(rng, (6, 8))
    assert bits((a - b).toarray()) == bits((as_scipy(a) - as_scipy(b)).toarray())
    assert bits((a - a).toarray()) == bits(np.zeros((6, 8)))
