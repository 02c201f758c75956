import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsewht.gf2 import DimensionError, InconsistentSystemError, eliminate, span_words
from sparsewht.frontend import PlanError, SubsamplingPlan
from sparsewht.kernels import hash_words, pack_rows, parity_words

import references
from helpers import bits
from references import random_full_column_rank, rank_transpose, selection_matrix, solve_affine


def _cols(dense) -> list:
    """The column words of a 0/1 matrix: bit r of word t is entry (r, t)."""
    return pack_rows(np.asarray(dense).T).tolist()


def _words(*words) -> np.ndarray:
    return np.array(words, dtype=np.uint64)


def _hash(cols, k_words) -> list:
    """M^T k for each packed word k, as ints, for M of column words ``cols``."""
    return hash_words(k_words, cols).tolist()


def _solve(n: int, cols, j: int):
    """``(particular, basis)`` of M^T k = j as a one-group plan solves it:
    its bin-j particular word and its null-space basis."""
    plan = SubsamplingPlan(n, [cols])
    return int(plan.particular_words[0, j]), plan.coset_basis[0].tolist()


def test_inner_product_examples():
    # <i, j> over GF(2) is the parity of i & j
    assert parity_words(_words(bits("1010") & bits("0110"))).tolist() == [1]
    assert not parity_words(np.arange(16, dtype=np.uint64) & np.uint64(0)).any()
    assert parity_words(_words(bits("1111") & bits("1111"))).tolist() == [0]


def test_inner_product_symmetric_bilinear():
    rng = np.random.default_rng(7)
    a, b, c = (rng.integers(0, 256, size=50).astype(np.uint64) for _ in range(3))
    assert np.array_equal(parity_words(a & b), parity_words(b & a))
    assert np.array_equal(parity_words((a ^ b) & c), parity_words(a & c) ^ parity_words(b & c))


def test_mat_transpose_vec_groups_worked_example_bin():
    m1 = selection_matrix(4, [2, 3])  # rows 3,4 carry the identity block
    target = _hash(m1, [bits("0100")])[0]
    group = {s for s in ("0000", "0100", "1000", "1100") if _hash(m1, [bits(s)])[0] == target}
    assert group == {"0000", "0100", "1000", "1100"}
    assert target == 0


def test_mat_transpose_vec_zero_and_dimension():
    m = selection_matrix(5, [0, 2])
    assert _hash(m, [0]) == [0]
    # a unit column outside the n rows is rejected, and so is a plan's column word of n + 1 bits
    with pytest.raises(DimensionError):
        selection_matrix(5, [0, 5])
    with pytest.raises(PlanError, match="below 2\\^5"):
        SubsamplingPlan(5, [[1, 1 << 5]])


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
        m = _cols(dense)
        k = int(rng.integers(0, 64))
        got = _hash(m, [k])[0]
        expected = _naive_transpose_apply(dense, [(k >> r) & 1 for r in range(6)])
        assert [(got >> t) & 1 for t in range(3)] == expected


def test_mat_transpose_vec_linearity():
    rng = np.random.default_rng(3)
    m = _cols(rng.integers(0, 2, size=(8, 4)))
    a = rng.integers(0, 256, size=30).astype(np.uint64)
    b = rng.integers(0, 256, size=30).astype(np.uint64)
    assert _hash(m, a ^ b) == [x ^ y for x, y in zip(_hash(m, a), _hash(m, b))]


def test_solve_affine_window_structure():
    m = selection_matrix(6, [1, 3])
    particular, basis = _solve(6, m, 0b10)
    assert (particular >> 1) & 1 == 0 and (particular >> 3) & 1 == 1
    assert len(basis) == 4
    frozen = {0, 2, 4, 5}
    assert set(basis) == {1 << t for t in frozen}


def test_solve_affine_full_rank_unique():
    m = [1 << t for t in range(4)]  # the identity
    particular, basis = _solve(4, m, 0b1011)
    assert particular == 0b1011
    assert basis == []


def test_solve_affine_exhaustive_scan():
    # full column rank 1 to 3: cosets of 2^7 down to 2^5 words
    rng = np.random.default_rng(5)
    every_k = np.arange(256, dtype=np.uint64)
    for _ in range(10):
        m = random_full_column_rank(8, int(rng.integers(1, 4)), rng)
        k0 = int(rng.integers(0, 256))
        j = _hash(m, [k0])[0]
        particular, basis = _solve(8, m, j)
        coset = set((span_words(basis) ^ np.uint64(particular)).tolist())
        brute = {k for k, h in enumerate(_hash(m, every_k)) if h == j}
        assert coset == brute
        assert len(coset) == 2 ** (8 - rank_transpose(m))


def test_solve_affine_inconsistent():
    m = [0, 0]  # the 4 x 2 zero matrix: no column reaches a unit
    with pytest.raises(InconsistentSystemError):
        eliminate((col, 1 << t) for t, col in enumerate(m))
    with pytest.raises(PlanError, match="lacks full column rank"):
        SubsamplingPlan(4, [m])


def test_eliminate_with_unit_rhs_inverts():
    # row r of a square matrix with rhs 1 << r: the rhs of pivot p is row p of the inverse
    rng = np.random.default_rng(14)
    singular = 0
    for _ in range(300):
        q = int(rng.integers(1, 12))
        dense = rng.integers(0, 2, size=(q, q)).astype(np.uint8)
        # [M | I] reduces to [I | M^-1] exactly when M is nonsingular
        reduced, pivots = references.gf2_rref_loop(np.hstack([dense, np.eye(q, dtype=np.uint8)]))
        expected = reduced[:, q:] if pivots == list(range(q)) else None
        system = [(int(w), 1 << r) for r, w in enumerate(pack_rows(dense))]
        if expected is None:
            singular += 1
            with pytest.raises(InconsistentSystemError):
                eliminate(system)
            continue
        pivots, rhs = eliminate(system)
        assert pivots == {p: 1 << p for p in range(q)}
        assert [rhs[p] for p in range(q)] == pack_rows(expected).tolist()
    assert 0 < singular < 300


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 20), b=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))
@example(n=6, b=6, seed=0)  # square: an empty null space
@example(n=9, b=1, seed=1)  # one unit target
def test_plan_solve_matches_per_bin_solve_affine(n, b, seed):
    rng = np.random.default_rng(seed)
    m = random_full_column_rank(n, min(b, n), rng)
    plan = SubsamplingPlan(n, [m])
    js = [1 << t for t in range(len(m))] + rng.integers(0, plan.bins, size=8).tolist()
    particulars = [int(plan.particular_words[0, j]) for j in js]
    # same pivots, so the same particular words, not just words in the same coset
    assert particulars == [solve_affine(n, m, j)[0] for j in js]
    assert plan.coset_basis[0].tolist() == solve_affine(n, m, 0)[1]
    assert [_hash(m, [w])[0] for w in particulars] == js


def test_span_words():
    got = set(int(w) for w in span_words([0b01, 0b10]))
    assert got == {0, 1, 2, 3}


def test_span_words_of_a_stack_spans_each_row():
    stack = np.array([[0b0011, 0b0100], [0b1000, 0b1001], [0, 0b0110]], dtype=np.uint64)
    assert span_words(stack).tolist() == [span_words(row).tolist() for row in stack]
    assert span_words(np.zeros((2, 0), dtype=np.uint64)).tolist() == [[0], [0]]
