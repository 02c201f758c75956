import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsewht import kernels
from sparsewht.gf2 import span_words

from helpers import random_plan, transform_bound
from references import alias_loop, fwht_rows_butterflies, hash_loop, parity, singleton_search_butterfly


def test_fwht_rows_small_known_values():
    mat = np.array([[1.0], [2.0], [3.0], [4.0]])
    kernels.fwht_rows_inplace(mat)
    assert np.array_equal(mat[:, 0], [10.0, -2.0, -4.0, 0.0])


def _butterflies_reference(col):
    out = col.copy()
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for i in range(start, start + h):
                out[i], out[i + h] = out[i] + out[i + h], out[i] - out[i + h]
        h *= 2
    return out


def _columns_reference(mat):
    return np.array([_butterflies_reference(col) for col in mat.T]).T


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (16, 5), (64, 7), (256, 2)])
def test_fwht_rows_numpy_matches_loop_butterflies(shape):
    mat = np.random.default_rng(shape[0]).standard_normal(shape)
    expected, bound = _columns_reference(mat), transform_bound(mat)
    kernels.fwht_rows_inplace(mat)
    assert np.all(np.abs(mat - expected) <= bound)


@settings(max_examples=60, deadline=None)
@given(b=st.integers(0, 7), m=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
@example(b=0, m=1, seed=0)  # one bin, one column
@example(b=5, m=1, seed=1)  # one column
@example(b=0, m=6, seed=2)  # one bin
@example(b=7, m=3, seed=3)  # two fields
def test_fwht_rows_every_column_matches_loop_butterflies(b, m, seed):
    mat = np.random.default_rng(seed).standard_normal((1 << b, m))
    expected, bound = _columns_reference(mat), transform_bound(mat)
    assert kernels.fwht_rows_inplace(mat) is mat
    assert np.all(np.abs(mat - expected) <= bound)


@settings(max_examples=40, deadline=None)
@given(lead=st.lists(st.integers(0, 3), max_size=2), b=st.integers(0, 7), m=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@example(lead=[3], b=4, m=0, seed=0)  # a stack of zero-column slices
@example(lead=[0], b=2, m=3, seed=0)  # an empty stack
@example(lead=[2, 3], b=7, m=1, seed=1)  # two fields over one column
def test_fwht_rows_stack_matches_each_slice(lead, b, m, seed):
    stack = np.random.default_rng(seed).standard_normal((*lead, 1 << b, m))
    expected = np.array([_columns_reference(mat) for mat in stack.reshape(math.prod(lead), 1 << b, m)])
    bound = transform_bound(stack)
    assert kernels.fwht_rows_inplace(stack) is stack
    assert np.all(np.abs(stack - expected.reshape(stack.shape)) <= bound)


@settings(max_examples=60, deadline=None)
@given(lead=st.lists(st.integers(0, 3), max_size=2), b=st.integers(0, 12), m=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
@example(lead=[], b=12, m=1, seed=0)  # three fields over one column
@example(lead=[3], b=6, m=5, seed=1)  # nso-17-40's two fields
@example(lead=[2], b=5, m=3, seed=2)  # one field
def test_fwht_rows_integers_match_butterflies_bit_for_bit(lead, b, m, seed):
    # integers of magnitude <= 2^20 keep every partial sum below 2^32, so
    # both orders of summation are exact: the noise-free pins rely on it
    stack = np.random.default_rng(seed).integers(-(1 << 20), (1 << 20) + 1, size=(*lead, 1 << b, m)).astype(float)
    expected = fwht_rows_butterflies(stack.copy())
    assert kernels.fwht_rows_inplace(stack) is stack
    assert stack.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


@settings(max_examples=40, deadline=None)
@given(lead=st.lists(st.integers(0, 3), max_size=2), b=st.integers(0, 6), m=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_butterfly_reference_equals_loop_butterflies(lead, b, m, seed):
    # the batched reference makes the loop's two-term sums in the loop's order
    stack = np.random.default_rng(seed).standard_normal((*lead, 1 << b, m))
    expected = np.array([_columns_reference(mat) for mat in stack.reshape(math.prod(lead), 1 << b, m)])
    assert fwht_rows_butterflies(stack) is stack
    assert stack.view(np.uint64).tolist() == expected.reshape(stack.shape).view(np.uint64).tolist()


def test_fields_split_the_index_into_near_equal_widths_of_at_most_five_bits():
    for b in range(64):
        widths = kernels._field_bits(b)
        assert sum(widths) == b and len(widths) == -(-b // 5)
        assert widths == sorted(widths, reverse=True) and (not widths or widths[0] - widths[-1] <= 1)
        assert all(1 <= p <= 5 for p in widths)


def test_parity_words():
    words = np.array([0, 1, 3, 7, 0xFFFF, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    assert list(kernels.parity_words(words)) == [0, 1, 0, 1, 0, 1, 0]
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
    assert [int(p) for p in kernels.parity_words(words)] == [parity(int(w)) for w in words]


def test_sign_matrix_numpy_values():
    k = np.array([0b101], dtype=np.uint64)
    offs = np.array([0b001, 0b010, 0b100, 0b111], dtype=np.uint64)
    got = kernels.sign_matrix(k, offs)[0]
    assert list(got) == [-1.0, 1.0, -1.0, 1.0]


def _random_coset(n, d, rng):
    """d independent basis words and a particular word in GF(2)^n."""
    while True:
        basis = rng.integers(0, 1 << n, size=d, dtype=np.int64).astype(np.uint64)
        if len(np.unique(span_words(basis.tolist()))) == 1 << d:
            return basis, np.uint64(rng.integers(0, 1 << n))


def test_singleton_search_prefers_strongest_candidate():
    rng = np.random.default_rng(0)
    offs = rng.integers(0, 1 << 10, size=24, dtype=np.int64).astype(np.uint64)
    basis, part = _random_coset(10, 6, rng)
    cands = span_words(basis.tolist()) ^ part
    true_k = cands[17]
    u = -3.0 * kernels.sign_matrix(np.array([true_k]), offs)
    idx, score = kernels.singleton_search(u, offs, basis, np.array([part]))
    assert cands[idx[0]] == true_k and score[0] == pytest.approx(-3.0 * 24)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 10), b=st.integers(1, 10), p=st.integers(1, 12), m=st.integers(0, 5),
       integer_cols=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(n=6, b=6, p=5, m=3, integer_cols=False, seed=1)  # one candidate per bin
@example(n=7, b=3, p=1, m=4, integer_cols=False, seed=2)  # a single offset row
@example(n=7, b=3, p=6, m=0, integer_cols=False, seed=3)  # no pending bins
def test_singleton_search_matches_brute_force(n, b, p, m, integer_cols, seed):
    b = min(b, n)  # b == n leaves one candidate per bin
    rng = np.random.default_rng(seed)
    plan = random_plan(n, b, 1, rng)
    rows = rng.integers(0, 1 << n, size=p, dtype=np.int64).astype(np.uint64)
    js = rng.integers(0, plan.bins, size=m)  # bins may repeat
    # small integers make exact ties common; they must still pick a best
    cols = (rng.integers(-2, 3, size=(m, p)).astype(np.float64) if integer_cols
            else rng.standard_normal((m, p)))
    idx, score = kernels.singleton_search(cols, rows, plan.coset_basis[0], plan.particular_words[0, js])
    assert idx.shape == score.shape == (m,)
    for r, j in enumerate(js):
        brute = kernels.sign_matrix(plan.coset(0, int(j)), rows) @ cols[r]
        tol = 1e-9 * p * float(np.max(np.abs(cols[r])))
        assert abs(score[r] - brute[idx[r]]) <= tol
        best = np.max(np.abs(brute))
        assert abs(abs(brute[idx[r]]) - best) <= tol
        if np.sum(np.abs(brute) >= best - tol) == 1:
            assert idx[r] == np.argmax(np.abs(brute))


@settings(max_examples=100, deadline=None)
@given(d=st.integers(0, 13), extra=st.integers(0, 8), p=st.integers(1, 16), m=st.integers(0, 5),
       integer_cols=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(d=0, extra=3, p=4, m=2, integer_cols=False, seed=0)  # one candidate per bin
@example(d=1, extra=0, p=3, m=3, integer_cols=True, seed=1)  # no high bits
@example(d=12, extra=2, p=9, m=4, integer_cols=False, seed=2)  # even d: equal halves
@example(d=13, extra=1, p=16, m=5, integer_cols=True, seed=3)  # odd d: one more low bit
@example(d=7, extra=2, p=1, m=4, integer_cols=False, seed=4)  # a single offset row
@example(d=9, extra=2, p=6, m=0, integer_cols=False, seed=5)  # no pending bins
def test_singleton_search_matches_butterflies(d, extra, p, m, integer_cols, seed):
    rng = np.random.default_rng(seed)
    n = d + extra
    basis, _ = _random_coset(n, d, rng)
    parts = rng.integers(0, 1 << n, size=m, dtype=np.int64).astype(np.uint64)
    rows = rng.integers(0, 1 << n, size=p, dtype=np.int64).astype(np.uint64)
    # small integers make exact ties common; they must still pick a best
    cols = (rng.integers(-2, 3, size=(m, p)).astype(np.float64) if integer_cols
            else rng.standard_normal((m, p)))
    idx, score = kernels.singleton_search(cols, rows, basis, parts)
    ref_idx, ref_score = singleton_search_butterfly(cols, rows, basis, parts)
    assert idx.shape == score.shape == (m,)
    if integer_cols:
        # integer sums are exact in any order, so a tie picks the same first index
        assert idx.tolist() == ref_idx.tolist() and score.tolist() == ref_score.tolist()
    span = span_words(basis.tolist())
    for r in range(m):
        tol = 1e-9 * p * float(np.max(np.abs(cols[r])))
        assert abs(abs(score[r]) - abs(ref_score[r])) <= tol
        brute = np.abs(kernels.sign_matrix(span ^ parts[r], rows) @ cols[r])
        if np.sum(brute >= brute.max() - tol) == 1:
            assert idx[r] == ref_idx[r] and abs(score[r] - ref_score[r]) <= tol


@st.composite
def _scatter_case(draw):
    """A bin tensor with random contents, and K index words, some repeated,
    with values, for C groups of random column and offset words."""
    n, c_groups = draw(st.integers(1, 10)), draw(st.integers(1, 3))
    b, p = draw(st.integers(0, min(n, 4))), draw(st.integers(0, 5))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, 1 << n, size=draw(st.integers(1, 6)), dtype=np.int64).astype(np.uint64)
    k_words = pool[rng.integers(0, len(pool), size=draw(st.integers(0, 12)))]
    values = rng.standard_normal(len(k_words)) * 10.0 ** rng.integers(-3, 4, size=len(k_words))
    cols = rng.integers(0, 1 << n, size=(c_groups, b), dtype=np.int64).astype(np.uint64)
    rows = rng.integers(0, 1 << n, size=(c_groups, p), dtype=np.int64).astype(np.uint64)
    return rng.standard_normal((c_groups, 1 << b, p)), k_words, values, cols, rows


@settings(max_examples=120, deadline=None)
@given(_scatter_case())
@example((np.ones((2, 4, 3)), np.zeros(0, dtype=np.uint64), np.zeros(0), np.array([[1, 2], [3, 4]], dtype=np.uint64),
          np.array([[0, 5, 6], [1, 2, 7]], dtype=np.uint64)))  # K = 0
@example((np.zeros((2, 2, 0)), np.array([3, 3, 1], dtype=np.uint64), np.array([1.0, -2.5, 0.1]),
          np.array([[1], [2]], dtype=np.uint64), np.zeros((2, 0), dtype=np.uint64)))  # P = 0
@example((np.zeros((1, 2, 2)), np.array([5, 5, 5], dtype=np.uint64), np.array([1e16, 1.0, -1e16]),
          np.array([[4]], dtype=np.uint64), np.array([[0, 1]], dtype=np.uint64)))  # order decides the float
def test_scatter_signed_matches_alias_loop(case):
    out, k_words, values, cols, rows = case
    expected = alias_loop(out.copy(), k_words, values, cols, rows)
    js = kernels.scatter_signed(out, k_words, values, cols, rows)
    assert out.view(np.uint64).tolist() == expected.view(np.uint64).tolist()
    assert js.shape == (len(k_words), len(cols))
    assert js.tolist() == [[hash_loop(cols[c], int(k)) for c in range(len(cols))] for k in k_words]


@pytest.mark.parametrize("out", [
    np.asfortranarray(np.zeros((2, 2, 3))),  # a reshape of it would be a copy
    np.zeros((2, 2, 3), dtype=np.float32),
], ids=["fortran-order", "float32"])
def test_scatter_signed_rejects_tensors_it_cannot_scatter_into(out):
    with pytest.raises(ValueError, match="C-contiguous float64 bin tensor"):
        kernels.scatter_signed(out, np.array([1], dtype=np.uint64), np.array([1.0]),
                               np.array([[1], [2]], dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64))
    assert not out.any()


def test_non_power_of_two_rows_rejected():
    with pytest.raises(ValueError, match="power of two"):
        kernels.fwht_rows_inplace(np.ones((3, 1)))


@pytest.mark.parametrize("mat", [
    np.asfortranarray(np.ones((4, 3))),  # a reshape of it would be a copy
    np.ones((8, 2))[::2],  # strided rows
    np.ones((4, 3), dtype=np.float32),
    np.ones(4),
], ids=["fortran-order", "strided", "float32", "1-d"])
def test_fwht_rows_rejects_arrays_it_cannot_transform_in_place(mat):
    before = mat.copy()
    for transform in (kernels.fwht_rows_inplace, fwht_rows_butterflies):
        with pytest.raises(ValueError, match="C-contiguous float64 array of two or more dimensions"):
            transform(mat)
    assert np.array_equal(mat, before)
