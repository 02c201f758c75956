import os
import subprocess
import sys

import numpy as np
import pytest

from sparsewht import kernels
from sparsewht.gf2 import parity


def test_fwht_rows_small_known_values():
    mat = np.array([[1.0, 2.0, 3.0, 4.0]])
    kernels.fwht_rows_inplace(mat, backend="numpy")
    assert np.array_equal(mat[0], [10.0, -2.0, -4.0, 0.0])


def _butterflies_reference(row):
    out = row.copy()
    h = 1
    while h < len(out):
        for start in range(0, len(out), 2 * h):
            for i in range(start, start + h):
                out[i], out[i + h] = out[i] + out[i + h], out[i] - out[i + h]
        h *= 2
    return out


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (5, 16), (7, 64), (2, 256)])
def test_fwht_rows_numpy_matches_loop_butterflies(shape):
    mat = np.random.default_rng(shape[1]).standard_normal(shape)
    expected = np.array([_butterflies_reference(row) for row in mat])
    kernels.fwht_rows_inplace(mat, backend="numpy")
    assert np.array_equal(mat, expected)


def test_parity_words():
    words = np.array([0, 1, 3, 7, 0xFFFF, 1 << 63, (1 << 64) - 1], dtype=np.uint64)
    assert list(kernels.parity_words(words)) == [0, 1, 0, 1, 0, 1, 0]
    rng = np.random.default_rng(0)
    words = rng.integers(0, 1 << 64, size=200, dtype=np.uint64)
    assert [int(p) for p in kernels.parity_words(words)] == [parity(int(w)) for w in words]


def test_sign_matrix_numpy_values():
    k = np.array([0b101], dtype=np.uint64)
    offs = np.array([0b001, 0b010, 0b100, 0b111], dtype=np.uint64)
    got = kernels.sign_matrix(k, offs, backend="numpy")[0]
    assert list(got) == [-1.0, 1.0, -1.0, 1.0]


def test_singleton_search_prefers_strongest_candidate():
    rng = np.random.default_rng(0)
    offs = rng.integers(0, 1 << 10, size=24, dtype=np.int64).astype(np.uint64)
    cands = rng.integers(0, 1 << 10, size=50, dtype=np.int64).astype(np.uint64)
    true_k = cands[17]
    u = -3.0 * kernels.sign_matrix(np.array([true_k]), offs)[0]
    idx, score = kernels.singleton_search(u, offs, cands, backend="numpy")
    assert cands[idx] == true_k and score == pytest.approx(-3.0 * 24)


@pytest.mark.skipif(not kernels.HAS_NUMBA, reason="numba unavailable")
def test_backends_agree_on_random_inputs():
    rng = np.random.default_rng(1)
    mat = rng.standard_normal((8, 64))
    a, b = mat.copy(), mat.copy()
    kernels.fwht_rows_inplace(a, backend="numba")
    kernels.fwht_rows_inplace(b, backend="numpy")
    assert np.array_equal(a, b)

    words = rng.integers(0, 1 << 30, size=40, dtype=np.int64).astype(np.uint64)
    offs = rng.integers(0, 1 << 30, size=16, dtype=np.int64).astype(np.uint64)
    assert np.array_equal(kernels.sign_matrix(words, offs, backend="numba"),
                          kernels.sign_matrix(words, offs, backend="numpy"))
    u = rng.standard_normal(16)
    idx_a, score_a = kernels.singleton_search(u, offs, words, backend="numba")
    idx_b, score_b = kernels.singleton_search(u, offs, words, backend="numpy")
    assert idx_a == idx_b
    assert score_a == pytest.approx(score_b, rel=1e-12)  # summation order differs


def test_env_flag_selects_numpy_backend():
    env = dict(os.environ, SPARSEWHT_DISABLE_NUMBA="1")
    code = (
        "from sparsewht import kernels, fwht\n"
        "import numpy as np\n"
        "assert kernels.backend_name() == 'numpy'\n"
        "x = np.arange(8.0)\n"
        "assert np.max(np.abs(fwht(fwht(x)) - x)) < 1e-12\n"
        "print('ok')\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0 and out.stdout.strip() == "ok"


def test_invalid_backend_rejected():
    with pytest.raises(ValueError):
        kernels.fwht_rows_inplace(np.ones((1, 2)), backend="fortran")
    with pytest.raises(ValueError):
        kernels.fwht_rows_inplace(np.ones((1, 3)), backend="numpy")
