"""Orthonormal fast Walsh-Hadamard transform and its quadratic oracle.

The kernel is (-1)^<k, m> over packed GF(2)^n indices with a symmetric
1/sqrt(N) normalization in both directions, which makes the transform its
own inverse and keeps Parseval exact. Only the natural (Hadamard)
ordering is provided.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import kernels


def _check_length(x: np.ndarray) -> int:
    n = len(x)
    if n == 0 or n & (n - 1):
        raise ValueError(f"signal length {n} is not a power of two")
    return n


def fwht(x: np.ndarray) -> np.ndarray:
    """Orthonormal transform, N log N butterflies on a copy of the input."""
    return fwht_inplace(np.array(x, dtype=np.float64, copy=True))


def fwht_inplace(x: np.ndarray) -> np.ndarray:
    """In-place variant of :func:`fwht`; the caller owns the buffer.

    A strided or non-float64 ``x`` is transformed in a contiguous copy
    that is written back.
    """
    size = _check_length(x)
    work = np.ascontiguousarray(x, dtype=np.float64)
    kernels.fwht_rows_inplace(work.reshape(-1, 1))
    work *= 1.0 / math.sqrt(size)
    if work is not x:
        x[...] = work
    return x


@lru_cache(maxsize=1)
def _sign_kernel(size: int) -> np.ndarray:
    """The full N x N kernel matrix (-1)^<k,m> (cached for the last N)."""
    ms = np.arange(size, dtype=np.uint64)
    kernel = np.empty((size, size), dtype=np.float64)
    chunk = 1024
    for start in range(0, size, chunk):
        ks = np.arange(start, min(start + chunk, size), dtype=np.uint64)
        par = np.bitwise_count(ks[:, None] & ms[None, :])
        np.bitwise_and(par, 1, out=par)
        kernel[start : start + len(ks)] = 1.0 - 2.0 * par.astype(np.float64)
    return kernel


def naive_wht(x: np.ndarray) -> np.ndarray:
    """Direct O(N^2) double sum; the independent test oracle for fwht."""
    size = _check_length(x)
    x = np.asarray(x, dtype=np.float64)
    if size > (1 << 13):
        raise ValueError("quadratic oracle is limited to n <= 13")
    return (_sign_kernel(size) @ x) / math.sqrt(size)


def synthesize_many(spectrum, m_words) -> np.ndarray:
    """Time-domain samples of a sparse spectrum at the given positions.

    Costs O(K) per position and never materializes all N samples; the
    spectrum only needs ``n`` and ``as_arrays()``.
    """
    m_words = np.atleast_1d(np.asarray(m_words, dtype=np.uint64))
    k_words, values = spectrum.as_arrays()
    if len(k_words) == 0:
        return np.zeros(len(m_words), dtype=np.float64)
    signs = kernels.sign_matrix(m_words, k_words)
    return (signs @ values) / math.sqrt(2.0**spectrum.n)


def densify(spectrum) -> np.ndarray:
    """Dense coefficient vector of a sparse spectrum (small n only)."""
    size = 1 << spectrum.n
    out = np.zeros(size, dtype=np.float64)
    k_words, values = spectrum.as_arrays()
    out[k_words.astype(np.int64)] = values
    return out
