"""Binary-field index algebra on packed words.

Index vectors over GF(2)^n are packed into integers: position ``t``
(1-based, the t-th component of the vector) is bit ``t - 1`` of the word,
so position 1 is the least significant bit and the packed word equals the
integer the index represents. Matrices are stored row-major, one packed
word per row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

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


def parity(word: int) -> int:
    """Parity of the set bits of a nonnegative integer."""
    return bin(word).count("1") & 1


@dataclass(frozen=True)
class BitIndex:
    """An n-tuple over GF(2), packed into an integer word.

    Round-trips losslessly with the integer in [0, 2^n) it represents;
    ``word`` IS that integer.
    """

    word: int
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError("negative dimension")
        if not 0 <= self.word < (1 << self.n):
            raise DimensionError(f"word {self.word} out of range for n={self.n}")

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitIndex":
        """Build from components in position order (position 1 first)."""
        word = 0
        for t, bit in enumerate(bits):
            if bit not in (0, 1):
                raise ValueError("bits must be 0 or 1")
            word |= bit << t
        return cls(word, len(bits))

    @classmethod
    def from_bitstring(cls, s: str) -> "BitIndex":
        """Parse a standard binary numeral (most significant bit first)."""
        return cls(int(s, 2) if s else 0, len(s))

    def to_int(self) -> int:
        return self.word

    def bits(self) -> tuple:
        """Components in position order (position 1 first)."""
        return tuple((self.word >> t) & 1 for t in range(self.n))

    def bit(self, t: int) -> int:
        """Component at 1-based position t."""
        if not 1 <= t <= self.n:
            raise DimensionError(f"position {t} outside 1..{self.n}")
        return (self.word >> (t - 1)) & 1

    def to_bitstring(self) -> str:
        """Standard binary numeral, most significant bit first."""
        return format(self.word, f"0{self.n}b") if self.n else ""

    def __xor__(self, other: "BitIndex") -> "BitIndex":
        if self.n != other.n:
            raise DimensionError("length mismatch")
        return BitIndex(self.word ^ other.word, self.n)

    def __str__(self) -> str:
        return self.to_bitstring()


def inner_product(i: BitIndex, j: BitIndex) -> int:
    """<i, j> over GF(2); operands must have equal length."""
    if i.n != j.n:
        raise DimensionError(f"length mismatch: {i.n} vs {j.n}")
    return parity(i.word & j.word)


@dataclass(frozen=True)
class BitMatrix:
    """A rows x cols matrix over GF(2), rows packed into integer words.

    Row word r carries entry (r, t) at bit t. Columns are derived lazily
    as packed n-bit words for the transpose-apply hot path.
    """

    rows: int
    cols: int
    row_words: tuple = field(repr=False)

    def __post_init__(self):
        if len(self.row_words) != self.rows:
            raise DimensionError("row count mismatch")
        limit = 1 << self.cols
        for w in self.row_words:
            if not 0 <= w < limit:
                raise DimensionError("row word wider than cols")

    @classmethod
    def from_rows(cls, words: Iterable[int], cols: int) -> "BitMatrix":
        words = tuple(int(w) for w in words)
        return cls(len(words), cols, words)

    @classmethod
    def identity(cls, n: int) -> "BitMatrix":
        return cls(n, n, tuple(1 << t for t in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "BitMatrix":
        return cls(rows, cols, (0,) * rows)

    @cached_property
    def col_words(self) -> tuple:
        cols = [0] * self.cols
        for r, w in enumerate(self.row_words):
            while w:
                t = (w & -w).bit_length() - 1
                cols[t] |= 1 << r
                w &= w - 1
        return tuple(cols)

    def col_words_u64(self) -> np.ndarray:
        if self.rows > 64:
            raise DimensionError("packed uint64 view limited to 64 rows")
        return np.array(self.col_words, dtype=np.uint64)

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for r, w in enumerate(self.row_words):
            for t in range(self.cols):
                out[r, t] = (w >> t) & 1
        return out

    def transpose_apply_word(self, k: int) -> int:
        """M^T k for k in GF(2)^rows, as a cols-bit packed word."""
        out = 0
        for t, col in enumerate(self.col_words):
            out |= parity(col & k) << t
        return out


def mat_transpose_vec(m: BitMatrix, k: BitIndex) -> BitIndex:
    """M^T k: component t is the inner product of column t of M with k."""
    if m.rows != k.n:
        raise DimensionError(f"matrix has {m.rows} rows, index has length {k.n}")
    return BitIndex(m.transpose_apply_word(k.word), m.cols)


def selection_matrix(n: int, positions: Sequence[int]) -> BitMatrix:
    """The n x b matrix whose column t is the unit vector at positions[t].

    Positions are 0-based bit positions; the induced hash extracts exactly
    those bits. Always has full column rank when positions are distinct.
    """
    if len(set(positions)) != len(positions):
        raise DimensionError("positions must be distinct")
    words = [0] * n
    for t, pos in enumerate(positions):
        if not 0 <= pos < n:
            raise DimensionError(f"position {pos} outside 0..{n - 1}")
        words[pos] |= 1 << t
    return BitMatrix(n, len(positions), tuple(words))


def random_full_column_rank(n: int, b: int, rng) -> BitMatrix:
    """Uniformly random n x b matrix conditioned on column rank b."""
    if b > n:
        raise DimensionError("cannot have column rank b > n")
    while True:
        words = [int(x) for x in rng.integers(0, 1 << b, size=n, dtype=np.int64)]
        m = BitMatrix(n, b, tuple(words))
        if rank_transpose(m) == b:
            return m


def _eliminate(system_rows, n):
    """Row-reduce packed equations (word over n vars, rhs bit) to RREF.

    Returns (pivots, rhs_by_pivot) where pivots maps pivot bit -> reduced
    row word. Raises on inconsistency.
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


def rank_transpose(m: BitMatrix) -> int:
    """Rank of M^T (equals rank of M); operates on packed column words."""
    rows, _ = _eliminate([(w, 0) for w in m.col_words], m.rows)
    return len(rows)


def solve_affine(m: BitMatrix, j: BitIndex):
    """Solve M^T k = j over GF(2)^rows.

    Returns ``(particular, basis)``: every solution is the particular
    point XORed with a GF(2)-combination of the basis; the basis has
    exactly rows - rank(M) elements.
    """
    if m.cols != j.n:
        raise DimensionError(f"matrix has {m.cols} cols, rhs has length {j.n}")
    n = m.rows
    system = [(col, (j.word >> t) & 1) for t, col in enumerate(m.col_words)]
    pivot_rows, pivot_rhs = _eliminate(system, n)
    particular = 0
    for pbit, rhs in pivot_rhs.items():
        particular |= rhs << pbit
    free_bits = [t for t in range(n) if t not in pivot_rows]
    basis = []
    for f in free_bits:
        vec = 1 << f
        for pbit, prow in pivot_rows.items():
            vec |= ((prow >> f) & 1) << pbit
        basis.append(BitIndex(vec, n))
    return BitIndex(particular, n), basis


def span_words(basis_words: Sequence[int]) -> np.ndarray:
    """All 2^len XOR-combinations of the given words, as uint64."""
    out = np.zeros(1, dtype=np.uint64)
    for w in basis_words:
        out = np.concatenate([out, out ^ np.uint64(w)])
    return out


def coset_words(m: BitMatrix, j: BitIndex) -> np.ndarray:
    """All k with M^T k = j, enumerated as packed uint64 words."""
    particular, basis = solve_affine(m, j)
    return span_words([b.word for b in basis]) ^ np.uint64(particular.word)
