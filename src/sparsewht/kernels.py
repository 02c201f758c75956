"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time: numba is used when it is
installed and the environment variable ``SPARSEWHT_DISABLE_NUMBA`` is not
set to ``1``/``true``. Every public function also accepts an explicit
``backend`` argument so the two paths can be benchmarked against each
other (see ``sparsewht.cli bench kernels``).

All GF(2) index words are carried as ``uint64``; only parities of ANDed
words are ever needed. The numpy path takes them from ``np.bitwise_count``
(a hardware popcount where the CPU has one); the numba kernels use a
branch-free xor-fold.
"""
from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        return wrap if not (args and callable(args[0])) else args[0]


def _env_disabled() -> bool:
    return os.environ.get("SPARSEWHT_DISABLE_NUMBA", "").strip().lower() in ("1", "true", "yes")


NUMBA_ENABLED = HAS_NUMBA and not _env_disabled()


def backend_name() -> str:
    return "numba" if NUMBA_ENABLED else "numpy"


def _pick(backend) -> bool:
    """Resolve a backend argument to 'use numba?'."""
    if backend is None:
        return NUMBA_ENABLED
    if backend == "numba":
        if not HAS_NUMBA:
            raise RuntimeError("numba backend requested but numba is not installed")
        return True
    if backend == "numpy":
        return False
    raise ValueError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# Walsh-Hadamard butterflies (unnormalized: output[j] = sum_l (-1)^<j,l> x[l])
# ---------------------------------------------------------------------------


@njit(cache=True)
def _fwht_rows_numba(mat):  # pragma: no cover - compiled
    rows, size = mat.shape
    for r in range(rows):
        h = 1
        while h < size:
            start = 0
            while start < size:
                for i in range(start, start + h):
                    a = mat[r, i]
                    b = mat[r, i + h]
                    mat[r, i] = a + b
                    mat[r, i + h] = a - b
                start += 2 * h
            h *= 2
    return mat


def _fwht_rows_numpy(mat):
    rows, size = mat.shape
    # butterflies on a transposed copy: every stage then streams runs of
    # h * rows contiguous values instead of h-long pieces of each row
    work = np.ascontiguousarray(mat.T)
    h = 1
    while h < size:
        view = work.reshape(size // (2 * h), 2, h * rows)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        np.add(a, b, out=view[:, 0, :])
        np.subtract(a, b, out=b)
        h *= 2
    mat[...] = work.T
    return mat


def fwht_rows_inplace(mat: np.ndarray, backend=None) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies applied to every row in place.

    ``mat`` must be C-contiguous float64 of shape (rows, 2**b).
    """
    if mat.ndim != 2:
        raise ValueError("expected a 2-D array")
    size = mat.shape[1]
    if size & (size - 1):
        raise ValueError("row length must be a power of two")
    if _pick(backend):
        return _fwht_rows_numba(mat)
    return _fwht_rows_numpy(mat)


def fwht_inplace(vec: np.ndarray, backend=None) -> np.ndarray:
    """One-dimensional in-place unnormalized butterfly transform."""
    fwht_rows_inplace(vec.reshape(1, -1), backend=backend)
    return vec


# ---------------------------------------------------------------------------
# GF(2) parities of packed words
# ---------------------------------------------------------------------------


@njit(cache=True, inline="always")
def _parity_u64(v):  # pragma: no cover - compiled
    v ^= v >> np.uint64(32)
    v ^= v >> np.uint64(16)
    v ^= v >> np.uint64(8)
    v ^= v >> np.uint64(4)
    v ^= v >> np.uint64(2)
    v ^= v >> np.uint64(1)
    return v & np.uint64(1)


def parity_words(words: np.ndarray) -> np.ndarray:
    """Elementwise parity (popcount mod 2) of a uint64 array, numpy path."""
    par = np.bitwise_count(np.asarray(words).astype(np.uint64, copy=False))
    np.bitwise_and(par, 1, out=par)
    return par


def hash_words(k_words: np.ndarray, col_words: np.ndarray) -> np.ndarray:
    """Bin words M^T k of packed k words: bit t is the parity of col_t & k."""
    par = parity_words(np.asarray(k_words, dtype=np.uint64)[:, None] & col_words[None, :])
    weights = np.uint64(1) << np.arange(len(col_words), dtype=np.uint64)
    return (par.astype(np.uint64) * weights).sum(axis=1)


@njit(cache=True)
def _sign_matrix_numba(k_words, offset_words):  # pragma: no cover - compiled
    q = k_words.shape[0]
    p = offset_words.shape[0]
    out = np.empty((q, p), dtype=np.float64)
    for i in range(q):
        kw = k_words[i]
        for j in range(p):
            out[i, j] = 1.0 - 2.0 * _parity_u64(kw & offset_words[j])
    return out


def sign_matrix(k_words: np.ndarray, offset_words: np.ndarray, backend=None) -> np.ndarray:
    """Signature signs (-1)^<d_p, k> as float64 of shape (len(k), len(d))."""
    k_words = np.ascontiguousarray(k_words, dtype=np.uint64)
    offset_words = np.ascontiguousarray(offset_words, dtype=np.uint64)
    if _pick(backend):
        return _sign_matrix_numba(k_words, offset_words)
    par = parity_words(k_words[:, None] & offset_words[None, :])
    return 1.0 - 2.0 * par.astype(np.float64)


def singleton_search(cols: np.ndarray, offset_words: np.ndarray, basis_words: np.ndarray,
                     part_words: np.ndarray, backend=None):
    """Best match of each bin column against its hash coset's signatures.

    Row r of ``cols`` (shape (m, P)) is a bin column whose candidates are
    the coset k = part_r xor span(v_1..v_d), with ``part_words[r]`` the
    bin's particular word and ``basis_words`` the d null-space words v_i.
    Candidate alpha is ``part_r ^ gf2.span_words(basis_words)[alpha]``.
    The scores over a coset are one d-point Walsh-Hadamard transform:

        s_k^T u = sum_p u_p (-1)^<d_p, part> (-1)^<alpha, y_p>,

    where bit i of y_p is <d_p, v_i>. So the P signed values are summed
    into 2^d slots at y_p and one butterfly pass gives every score.

    Returns ``(idx, score)`` arrays of length m: ``idx[r]`` selects the
    candidate maximizing |s_k^T u| and ``score[r]`` is that (signed)
    correlation. The residual argmin over candidates reduces to this
    argmax because ||u - (s^T u / P) s||^2 = ||u||^2 - (s^T u)^2 / P.
    """
    cols = np.asarray(cols, dtype=np.float64)
    offset_words = np.ascontiguousarray(offset_words, dtype=np.uint64)
    basis_words = np.ascontiguousarray(basis_words, dtype=np.uint64)
    rows, size = cols.shape[0], 1 << len(basis_words)
    slots = hash_words(offset_words, basis_words).astype(np.int64)
    signed = cols * sign_matrix(part_words, offset_words, backend=backend)
    at = (np.arange(rows, dtype=np.int64)[:, None] * size + slots[None, :]).reshape(-1)
    scores = np.bincount(at, weights=signed.reshape(-1), minlength=rows * size).reshape(rows, size)
    fwht_rows_inplace(scores, backend=backend)
    idx = np.argmax(np.abs(scores), axis=1)
    return idx, scores[np.arange(rows), idx]


def warmup() -> None:
    """Trigger JIT compilation so timings exclude compile cost."""
    mat = np.ones((2, 8))
    fwht_rows_inplace(mat)
    w = np.arange(4, dtype=np.uint64)
    sign_matrix(w, w)
    singleton_search(np.ones((2, 4)), w, w[1:3], w[:2])
