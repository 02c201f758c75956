import numpy as np
import pytest

from sparsewht.gf2 import (
    BitIndex,
    BitMatrix,
    DimensionError,
    InconsistentSystemError,
    coset_words,
    inner_product,
    mat_transpose_vec,
    rank_transpose,
    selection_matrix,
    solve_affine,
    span_words,
)
from sparsewht.kernels import pack_rows

from helpers import bits


def _from_dense(dense) -> BitMatrix:
    dense = np.asarray(dense)
    return BitMatrix.from_rows(pack_rows(dense), dense.shape[1])


def idx(s):
    return BitIndex(bits(s), len(s))


def test_inner_product_examples():
    assert inner_product(idx("1010"), idx("0110")) == 1
    for word in range(16):
        assert inner_product(BitIndex(word, 4), BitIndex(0, 4)) == 0
    assert inner_product(idx("1111"), idx("1111")) == 0


def test_inner_product_dimension_error():
    with pytest.raises(DimensionError):
        inner_product(BitIndex(1, 3), BitIndex(1, 4))


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a, b, c = (BitIndex(int(rng.integers(0, 256)), 8) for _ in range(3))
        assert inner_product(a, b) == inner_product(b, a)
        assert inner_product(a ^ b, c) == inner_product(a, c) ^ inner_product(b, c)


def test_bitindex_round_trips():
    for word in range(16):
        k = BitIndex(word, 4)
        assert k.to_int() == word
        assert BitIndex.from_bits(k.bits()).word == word
        assert BitIndex.from_bitstring(k.to_bitstring()).word == word
    assert BitIndex.from_bitstring("0010").word == 2
    assert idx("0100").word == 2  # position-order string, position 1 leftmost


def test_mat_transpose_vec_groups_worked_example_bin():
    m1 = selection_matrix(4, [2, 3])  # rows 3,4 carry the identity block
    target = mat_transpose_vec(m1, idx("0100"))
    group = {s for s in ("0000", "0100", "1000", "1100")
             if mat_transpose_vec(m1, idx(s)).word == target.word}
    assert group == {"0000", "0100", "1000", "1100"}
    assert target.word == 0


def test_mat_transpose_vec_zero_and_dimension():
    m = selection_matrix(5, [0, 2])
    assert mat_transpose_vec(m, BitIndex(0, 5)).word == 0
    with pytest.raises(DimensionError):
        mat_transpose_vec(m, BitIndex(0, 4))


def _naive_transpose_apply(dense, k_bits):
    out = []
    for t in range(dense.shape[1]):
        acc = 0
        for r in range(dense.shape[0]):
            acc ^= int(dense[r, t]) & k_bits[r]
        out.append(acc)
    return out


def test_mat_transpose_vec_against_naive_loop():
    rng = np.random.default_rng(11)
    for _ in range(25):
        dense = rng.integers(0, 2, size=(6, 3)).astype(np.uint8)
        m = _from_dense(dense)
        k = BitIndex(int(rng.integers(0, 64)), 6)
        got = mat_transpose_vec(m, k)
        assert list(got.bits()) == _naive_transpose_apply(dense, list(k.bits()))


def test_mat_transpose_vec_linearity():
    rng = np.random.default_rng(3)
    m = _from_dense(rng.integers(0, 2, size=(8, 4)))
    for _ in range(30):
        a = BitIndex(int(rng.integers(0, 256)), 8)
        b = BitIndex(int(rng.integers(0, 256)), 8)
        assert mat_transpose_vec(m, a ^ b).word == (
            mat_transpose_vec(m, a).word ^ mat_transpose_vec(m, b).word
        )


def test_solve_affine_window_structure():
    m = selection_matrix(6, [1, 3])
    j = BitIndex(0b10, 2)
    particular, basis = solve_affine(m, j)
    assert particular.bit(2) == 0 and particular.bit(4) == 1
    assert len(basis) == 4
    frozen = {0, 2, 4, 5}
    assert {b.word for b in basis} == {1 << t for t in frozen}


def test_solve_affine_full_rank_unique():
    m = BitMatrix.identity(4)
    particular, basis = solve_affine(m, BitIndex(0b1011, 4))
    assert particular.word == 0b1011
    assert basis == []


def test_solve_affine_exhaustive_scan():
    rng = np.random.default_rng(5)
    for _ in range(10):
        while True:
            m = _from_dense(rng.integers(0, 2, size=(8, 3)))
            if rank_transpose(m) >= 1:
                break
        k0 = int(rng.integers(0, 256))
        j = mat_transpose_vec(m, BitIndex(k0, 8))
        coset = set(int(w) for w in coset_words(m, j))
        brute = {k for k in range(256) if m.transpose_apply_word(k) == j.word}
        assert coset == brute
        assert len(coset) == 2 ** (8 - rank_transpose(m))


def test_solve_affine_inconsistent():
    m = BitMatrix.zeros(4, 2)
    with pytest.raises(InconsistentSystemError):
        solve_affine(m, BitIndex(1, 2))


def test_span_words():
    got = set(int(w) for w in span_words([0b01, 0b10]))
    assert got == {0, 1, 2, 3}


def test_bitmatrix_dense_round_trip():
    rng = np.random.default_rng(9)
    dense = rng.integers(0, 2, size=(5, 7)).astype(np.uint8)
    assert np.array_equal(_from_dense(dense).to_dense(), dense)
