"""Hot numeric kernels: batched Walsh-Hadamard butterflies, the
orthonormal transform, GF(2) parities of packed words, signature signs
and the coset matched filter, which scores a whole coset as one product
of two small sign matrices.

Everything runs on numpy. All GF(2) index words are carried as
``uint64``; only parities of ANDed words are ever needed, and they come
from ``np.bitwise_count`` (a hardware popcount where the CPU has one).
"""
from __future__ import annotations

import math

import numpy as np


def backend_name() -> str:
    """Name of the kernel implementation, as recorded by benchmark runs."""
    return "numpy"


# ---------------------------------------------------------------------------
# Walsh-Hadamard butterflies (unnormalized: output[j] = sum_l (-1)^<j,l> x[l])
# ---------------------------------------------------------------------------


def fwht_rows_inplace(mat: np.ndarray) -> np.ndarray:
    """Unnormalized Walsh-Hadamard butterflies applied to every column in place.

    ``mat`` must be C-contiguous float64 of shape (..., 2**b, m): one
    transform runs down each of its m columns, in every slice of the
    leading axes. Raises ValueError for any other array, since a reshape
    of it would be a copy that the butterflies left untouched.
    """
    if mat.ndim < 2 or mat.dtype != np.float64 or not mat.flags.c_contiguous:
        raise ValueError("expected a C-contiguous float64 array of two or more dimensions")
    size, cols = mat.shape[-2:]
    rows = math.prod(mat.shape[:-1])
    if size & (size - 1):
        raise ValueError("column length must be a power of two")
    # bins-major: every stage streams runs of h * cols contiguous values
    h = 1
    while h < size:
        view = mat.reshape(rows // (2 * h), 2, h * cols)
        a = view[:, 0, :].copy()
        b = view[:, 1, :]
        np.add(a, b, out=view[:, 0, :])
        np.subtract(a, b, out=b)
        h *= 2
    return mat


def _check_length(x: np.ndarray) -> int:
    n = len(x)
    if n == 0 or n & (n - 1):
        raise ValueError(f"signal length {n} is not a power of two")
    return n


def fwht(x: np.ndarray) -> np.ndarray:
    """Orthonormal transform, N log N butterflies on a copy of the input.

    The kernel is (-1)^<k, m> in natural (Hadamard) order with a symmetric
    1/sqrt(N) normalization, so the transform is its own inverse and
    keeps Parseval exact.
    """
    return fwht_inplace(np.array(x, dtype=np.float64, copy=True))


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """In-place variant of :func:`fwht`; the caller owns the buffer.

    A strided or non-float64 ``x`` is transformed in a contiguous copy
    that is written back.
    """
    size = _check_length(x)
    work = np.ascontiguousarray(x, dtype=np.float64)
    fwht_rows_inplace(work.reshape(-1, 1))
    work *= 1.0 / math.sqrt(size)
    if work is not x:
        x[...] = work
    return x


# ---------------------------------------------------------------------------
# GF(2) parities of packed words
# ---------------------------------------------------------------------------


def parity_words(words: np.ndarray) -> np.ndarray:
    """Elementwise parity (popcount mod 2) of a uint64 array."""
    par = np.bitwise_count(np.asarray(words).astype(np.uint64, copy=False))
    np.bitwise_and(par, 1, out=par)
    return par


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Row r of a (m, t) 0/1 array as the packed word sum_t bits[r, t] 2^t."""
    weights = np.uint64(1) << np.arange(bits.shape[1], dtype=np.uint64)
    return (np.asarray(bits).astype(np.uint64) * weights).sum(axis=1, dtype=np.uint64)


def hash_words(k_words: np.ndarray, col_words: np.ndarray) -> np.ndarray:
    """Bin words M^T k of packed k words: bit t is the parity of col_t & k.

    ``col_words`` holds the b column words of one M, or a (C, b) stack of
    them; the result has shape (K,) or (K, C).
    """
    col_words = np.asarray(col_words, dtype=np.uint64)
    k_words = np.asarray(k_words, dtype=np.uint64).reshape((-1,) + (1,) * col_words.ndim)
    par = parity_words(k_words & col_words)
    weights = np.uint64(1) << np.arange(col_words.shape[-1], dtype=np.uint64)
    return (par.astype(np.uint64) * weights).sum(axis=-1)


def sign_matrix(k_words: np.ndarray, offset_words: np.ndarray) -> np.ndarray:
    """Signature signs (-1)^<d_p, k> as float64 of shape (len(k), len(d))."""
    k_words = np.ascontiguousarray(k_words, dtype=np.uint64)
    offset_words = np.ascontiguousarray(offset_words, dtype=np.uint64)
    par = parity_words(k_words[:, None] & offset_words[None, :])
    return 1.0 - 2.0 * par.astype(np.float64)


def scatter_signed(out: np.ndarray, k_words: np.ndarray, values: np.ndarray, col_words: np.ndarray,
                   offset_words: np.ndarray) -> np.ndarray:
    """Add the alias terms values[i] (-1)^<d_{c,p}, k_i> into
    ``out[c, M_c^T k_i, p]`` for every group c and offset row p.

    ``out`` is the C-contiguous float64 (C, B, P) bin tensor,
    ``col_words`` the (C, b) column words of the M_c and ``offset_words``
    the (C, P) offset words d_{c,p}. One ``np.add.at`` over the flat
    tensor applies the terms in index order, so a cell hit by several
    indices sums them in the order given. Returns the (K, C) bins.
    """
    if out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("expected a C-contiguous float64 bin tensor")
    c_groups, bins, rows = out.shape
    k_words = np.asarray(k_words, dtype=np.uint64)
    js = hash_words(k_words, col_words).astype(np.intp)
    terms = sign_matrix(k_words, offset_words.reshape(-1)).reshape(len(k_words), c_groups, rows)
    terms *= values[:, None, None]
    cells = (js + np.arange(c_groups) * bins)[:, :, None] * rows + np.arange(rows)
    np.add.at(out.reshape(-1), cells.reshape(-1), terms.reshape(-1))
    return js


def singleton_search(cols: np.ndarray, offset_words: np.ndarray, basis_words: np.ndarray,
                     part_words: np.ndarray):
    """Best match of each bin column against its hash coset's signatures.

    Row r of ``cols`` (shape (m, P)) is a bin column whose candidates are
    the coset k = part_r xor span(v_1..v_d), with ``part_words[r]`` the
    bin's particular word and ``basis_words`` the d null-space words v_i.
    Candidate alpha is ``part_r ^ gf2.span_words(basis_words)[alpha]``.
    The scores over a coset are a d-point Walsh-Hadamard transform:

        s_k^T u = sum_p u_p (-1)^<d_p, part> (-1)^<alpha, y_p>,

    where bit i of y_p is <d_p, v_i>. Split alpha and y_p into their high
    d - l and low l = ceil(d / 2) bits; the sign factors,

        (-1)^<alpha, y_p> = (-1)^<alpha_hi, y_hi,p> (-1)^<alpha_lo, y_lo,p>,

    so with the (2^(d-l), P) high and (P, 2^l) low sign matrices, and the
    signed values times the high signs as a (m 2^(d-l), P) block z, the
    scores of all m bins are one product z @ low: P 2^d multiply-adds per
    bin in one BLAS call, whose (m, 2^(d-l), 2^l) result is already the
    (m, 2^d) score block in alpha order.

    Returns ``(idx, score)`` arrays of length m: ``idx[r]`` selects the
    candidate maximizing |s_k^T u| and ``score[r]`` is that (signed)
    correlation. The residual argmin over candidates reduces to this
    argmax because ||u - (s^T u / P) s||^2 = ||u||^2 - (s^T u)^2 / P.
    """
    cols = np.asarray(cols, dtype=np.float64)
    rows = len(cols)
    if rows == 0:
        return np.zeros(0, dtype=np.intp), np.zeros(0)
    offset_words = np.ascontiguousarray(offset_words, dtype=np.uint64)
    basis_words = np.ascontiguousarray(basis_words, dtype=np.uint64)
    d = len(basis_words)
    lo = (d + 1) // 2
    ys = hash_words(offset_words, basis_words)
    high = sign_matrix(np.arange(1 << (d - lo), dtype=np.uint64), ys >> np.uint64(lo))
    low = sign_matrix(ys & np.uint64((1 << lo) - 1), np.arange(1 << lo, dtype=np.uint64))
    signed = cols * sign_matrix(part_words, offset_words)
    z = (signed[:, None, :] * high).reshape(rows << (d - lo), len(offset_words))
    scores = (z @ low).reshape(rows, 1 << d)
    idx = np.argmax(np.abs(scores), axis=1)
    return idx, scores[np.arange(rows), idx]
