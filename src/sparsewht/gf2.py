"""Binary-field index algebra on packed words.

Index vectors over GF(2)^n are packed into integers: position ``t``
(1-based, the t-th component of the vector) is bit ``t - 1`` of the word,
so position 1 is the least significant bit and the packed word equals the
integer the index represents. A matrix is its packed words, one per row
or one per column as its user reads it: a subsampling plan keeps the
column words of each M_c, an LDPC code the rows of H and G and the
columns of H.
"""
from __future__ import annotations

import numpy as np


MAX_BITS = 63  # index words are packed into uint64 and drawn as int64


def check_bits(n: int) -> int:
    """Return ``n`` when it is a supported index length (1..MAX_BITS)."""
    if not 1 <= n <= MAX_BITS:
        raise ValueError(f"n={n} is outside 1..{MAX_BITS}, the range of packed index words")
    return n


class DimensionError(ValueError):
    """Operands have incompatible GF(2) dimensions."""


class InconsistentSystemError(ValueError):
    """The affine system has no solution."""


def eliminate(system_rows):
    """Row-reduce packed equations ``(word, rhs)`` to RREF.

    Returns (pivots, rhs_by_pivot) where pivots maps pivot bit -> reduced
    row word. Raises ``InconsistentSystemError`` on inconsistency. The
    right-hand sides may be words as well: given each row r of a square
    matrix with rhs ``1 << r``, a nonsingular matrix reduces to unit rows
    and ``rhs_by_pivot[p]`` is row p of its inverse.
    """
    pivot_rows = {}
    pivot_rhs = {}
    for word, rhs in system_rows:
        for pbit, prow in pivot_rows.items():
            if (word >> pbit) & 1:
                word ^= prow
                rhs ^= pivot_rhs[pbit]
        if word == 0:
            if rhs:
                raise InconsistentSystemError("no solution: inconsistent system")
            continue
        pbit = (word & -word).bit_length() - 1
        for qbit in list(pivot_rows):
            if (pivot_rows[qbit] >> pbit) & 1:
                pivot_rows[qbit] ^= word
                pivot_rhs[qbit] ^= rhs
        pivot_rows[pbit] = word
        pivot_rhs[pbit] = rhs
    return pivot_rows, pivot_rhs


def span_words(basis_words) -> np.ndarray:
    """All 2^len XOR-combinations of the given words, as uint64.

    Combination alpha XORs the words that the set bits of alpha select.
    A (C, d) stack of words gives the (C, 2^d) spans of its rows.
    """
    basis_words = np.asarray(basis_words, dtype=np.uint64)
    out = np.zeros(basis_words.shape[:-1] + (1,), dtype=np.uint64)
    for t in range(basis_words.shape[-1]):
        out = np.concatenate([out, out ^ basis_words[..., t:t + 1]], axis=-1)
    return out
