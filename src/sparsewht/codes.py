"""(3,6)-regular LDPC construction, systematic generator rows, bit-flip decoding.

Rate is fixed at 1/2 (block length 2 q for q information bits), so the
parity sockets always divide evenly: 3 * 2q variable sockets against
6 * q check sockets. The parity graph comes from a random configuration
model; duplicate edges are repaired by degree-preserving swaps and short
cycles are reduced best-effort the same way. The systematic generator is
derived by GF(2) elimination, retrying with a fresh graph whenever the
relevant minor is singular. Construction works on rows and columns held
as Python-int bitmasks. Bit flipping decodes a batch of received words
at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2, kernels


MIN_INFO_BITS = 6  # the smallest information length a (3,6)-regular code is built for
DECODE_ROUNDS = 30  # bit-flip rounds before a received word counts as undecodable


class CodeConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class LdpcCode:
    n_info: int
    n_block: int
    h: gf2.BitMatrix  # parity checks, n_info x n_block
    g: gf2.BitMatrix  # systematic generator, n_block x n_info

    def generator_rows(self) -> tuple:
        """Rows of G as packed n_info-bit words (the coded offsets)."""
        return self.g.row_words

    @cached_property
    def _h_dense(self) -> np.ndarray:
        dense = self.h.to_dense()
        dense.flags.writeable = False
        return dense

    def h_dense(self) -> np.ndarray:
        """H as a read-only uint8 array, built once per code."""
        return self._h_dense


def _repair_duplicates(var_of_edge, chk_of_edge, rng, max_attempts=10_000):
    """Degree-preserving swaps until the multigraph is simple."""
    for _ in range(max_attempts):
        seen = {}
        dup = None
        for e, (v, c) in enumerate(zip(var_of_edge, chk_of_edge)):
            if (v, c) in seen:
                dup = e
                break
            seen[(v, c)] = e
        if dup is None:
            return True
        other = int(rng.integers(0, len(var_of_edge)))
        v1, c1 = var_of_edge[dup], chk_of_edge[dup]
        v2, c2 = var_of_edge[other], chk_of_edge[other]
        if (v1, c2) in seen or (v2, c1) in seen or other == dup:
            continue
        chk_of_edge[dup], chk_of_edge[other] = c2, c1
    return False


def _lowest_bit(word: int) -> int:
    return (word & -word).bit_length() - 1


def _break_four_cycles(rows: list, n_block: int, rng, passes: int = 4) -> None:
    """Best-effort reduction of 4-cycles by swapping column entries.

    ``rows`` holds H's rows as column bitmasks and is updated in place.
    Each pass lists, in row-major order, the row pairs (r1, r2) sharing at
    least two columns. For a pair that still does, the first shared
    column ``col`` of r1 trades places with a column ``col2`` that
    neither r1 nor r2 holds, tried in a shuffled order: the first row r3
    holding ``col2`` takes ``col`` instead, unless it already holds it.
    The swap keeps every row and column weight.
    """
    m = len(rows)
    cols = list(gf2.BitMatrix.from_rows(rows, n_block).col_words)
    for _ in range(passes):
        pairs = [(r1, r2) for r1 in range(m) for r2 in range(r1 + 1, m)
                 if (rows[r1] & rows[r2]).bit_count() >= 2]
        if not pairs:
            return
        for r1, r2 in pairs:
            shared = rows[r1] & rows[r2]
            if shared.bit_count() < 2:
                continue
            col = _lowest_bit(shared)
            targets = np.array([t for t in range(n_block) if not (rows[r1] >> t) & 1], dtype=np.int64)
            rng.shuffle(targets)
            for col2 in targets.tolist():
                if ((rows[r1] | rows[r2]) >> col2) & 1 or not cols[col2]:
                    continue
                r3 = _lowest_bit(cols[col2])
                if (rows[r3] >> col) & 1:
                    continue
                rows[r1] ^= (1 << col) | (1 << col2)
                rows[r3] ^= (1 << col) | (1 << col2)
                cols[col] ^= (1 << r1) | (1 << r3)
                cols[col2] ^= (1 << r1) | (1 << r3)
                break


def _systematic_generator(h: gf2.BitMatrix):
    """G = [I; B^{-1} A] for H = [A | B]; None when B is singular."""
    n_info = h.cols - h.rows
    try:
        _, b_inv = gf2.eliminate([(word >> n_info, 1 << r) for r, word in enumerate(h.row_words)])
    except gf2.InconsistentSystemError:
        return None
    a = [word & ((1 << n_info) - 1) for word in h.row_words]
    parity_rows = []
    for word in (b_inv[p] for p in range(h.rows)):
        acc = 0
        while word:
            acc ^= a[_lowest_bit(word)]
            word &= word - 1
        parity_rows.append(acc)
    return gf2.BitMatrix.from_rows([1 << t for t in range(n_info)] + parity_rows, n_info)


def build_regular_ldpc(n_info: int, rng, max_retries: int = 200) -> LdpcCode:
    """Sample a (3,6)-regular rate-1/2 code with a systematic generator."""
    if n_info < MIN_INFO_BITS:
        raise ValueError(f"n_info must be at least {MIN_INFO_BITS}")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n_block = 2 * n_info
    m = n_info
    for _ in range(max_retries):
        var_of_edge = np.repeat(np.arange(n_block), 3).tolist()
        perm = rng.permutation(6 * m)
        chk_of_edge = (perm // 6).tolist()
        if not _repair_duplicates(var_of_edge, chk_of_edge, rng):
            continue
        rows = [0] * m
        for v, c in zip(var_of_edge, chk_of_edge):
            rows[c] |= 1 << v
        _break_four_cycles(rows, n_block, rng)
        h = gf2.BitMatrix.from_rows(rows, n_block)
        if any(w.bit_count() != 6 for w in h.row_words) or any(w.bit_count() != 3 for w in h.col_words):
            continue
        g = _systematic_generator(h)
        if g is None:
            continue
        return LdpcCode(n_info, n_block, h, g)
    raise CodeConstructionError(f"no valid (3,6) code after {max_retries} attempts")


def bitflip_decode_many(code: LdpcCode, bits, max_rounds: int = DECODE_ROUNDS):
    """Gallager bit flipping on every received word (row) of ``bits`` at once.

    Each round computes every row's syndrome and flips, in each row that
    still fails a check, all bits tied at that row's maximum count of
    failing checks; a row that satisfies every check is left alone from
    then on, so a valid codeword comes back unchanged in round zero.
    Returns ``(words, ok)``: the (m, n_block) uint8 words after flipping,
    and whether each row reached a codeword within ``max_rounds`` flips.
    The first ``n_info`` bits of a decoded word are its information word.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    words = np.array(bits, dtype=np.uint8, ndmin=2)
    if words.shape[1] != code.n_block:
        raise gf2.DimensionError(f"expected {code.n_block} received bits per word")
    # 0/1 products and their small sums are exact in float64, where matmul runs on BLAS
    h = code.h_dense().astype(np.float64)
    for _ in range(max_rounds + 1):
        syndrome = (words @ h.T) % 2
        failing = syndrome.any(axis=1)
        if not failing.any():
            break
        counts = syndrome @ h
        words ^= (counts == counts.max(axis=1, keepdims=True)) & failing[:, None]
    return words, ~failing


def bitflip_decode(code: LdpcCode, bits, max_rounds: int = DECODE_ROUNDS):
    """The one-word case of :func:`bitflip_decode_many` on a 0/1 array;
    returns the information word as an int, or None when decoding fails."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape != (code.n_block,):
        raise gf2.DimensionError(f"expected {code.n_block} received bits")
    words, ok = bitflip_decode_many(code, bits, max_rounds)
    if not ok[0]:
        return None
    return int(kernels.pack_rows(words[:, : code.n_info])[0])
