"""(3,6)-regular LDPC construction, systematic encoding, bit-flip decoding.

Rate is fixed at 1/2 (block length 2 q for q information bits), so the
parity sockets always divide evenly: 3 * 2q variable sockets against
6 * q check sockets. The parity graph comes from a random configuration
model; duplicate edges are repaired by degree-preserving swaps and short
cycles are reduced best-effort the same way. The systematic generator is
derived by GF(2) elimination, retrying with a fresh graph whenever the
relevant minor is singular.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2


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

    def encode(self, k) -> gf2.BitIndex:
        """Codeword G k; the first n_info bits equal the information word."""
        word = k.word if isinstance(k, gf2.BitIndex) else int(k)
        if isinstance(k, gf2.BitIndex) and k.n != self.n_info:
            raise gf2.DimensionError(f"expected {self.n_info} information bits")
        if not 0 <= word < (1 << self.n_info):
            raise gf2.DimensionError("information word out of range")
        out = 0
        for p, row in enumerate(self.g.row_words):
            out |= gf2.parity(row & word) << p
        return gf2.BitIndex(out, self.n_block)

    def encode_bits(self, k_word: int) -> np.ndarray:
        cw = self.encode(gf2.BitIndex(k_word, self.n_info))
        return np.array(cw.bits(), dtype=np.uint8)

    @cached_property
    def _h_dense(self) -> np.ndarray:
        dense = self.h.to_dense()
        dense.flags.writeable = False
        return dense

    def h_dense(self) -> np.ndarray:
        """H as a read-only uint8 array, built once per code."""
        return self._h_dense

    def save(self, path) -> None:
        """Sparse listing: header then one ``row col`` line per H entry."""
        dense = self.h_dense()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n_info={self.n_info} n_block={self.n_block}\n")
            for r, c in zip(*np.nonzero(dense)):
                fh.write(f"{r} {c}\n")

    @classmethod
    def load(cls, path) -> "LdpcCode":
        with open(path, "r", encoding="utf-8") as fh:
            meta = dict(item.split("=") for item in fh.readline().split())
            n_info, n_block = int(meta["n_info"]), int(meta["n_block"])
            dense = np.zeros((n_block - n_info, n_block), dtype=np.uint8)
            for line in fh:
                if line.strip():
                    r, c = map(int, line.split())
                    dense[r, c] = 1
        h = gf2.BitMatrix.from_dense(dense)
        g = _systematic_generator(dense)
        if g is None:
            raise CodeConstructionError("stored parity matrix has a singular minor")
        return cls(n_info, n_block, h, g)


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


def _break_four_cycles(dense, rng, passes=4):
    """Best-effort reduction of 4-cycles by swapping column entries."""
    m, n = dense.shape
    for _ in range(passes):
        overlap = (dense @ dense.T) - np.diag((dense * dense).sum(axis=1))
        pairs = np.argwhere(np.triu(overlap, 1) >= 2)
        if len(pairs) == 0:
            return
        for r1, r2 in pairs:
            shared = np.nonzero(dense[r1] & dense[r2])[0]
            if len(shared) < 2:
                continue
            col = int(shared[0])
            targets = np.nonzero(~dense[r1].astype(bool))[0]
            rng.shuffle(targets)
            for col2 in targets:
                # swap memberships of col/col2 in row r1, preserving weights
                if dense[r1, col2] == 0 and dense[r2, col2] == 0:
                    rows_with_col2 = np.nonzero(dense[:, col2])[0]
                    if len(rows_with_col2) == 0:
                        continue
                    r3 = int(rows_with_col2[0])
                    if dense[r3, col]:
                        continue
                    dense[r1, col], dense[r1, col2] = 0, 1
                    dense[r3, col2], dense[r3, col] = 0, 1
                    break


def _gf2_inverse(mat: np.ndarray):
    q = mat.shape[0]
    work = mat.astype(np.uint8).copy()
    inv = np.eye(q, dtype=np.uint8)
    for col in range(q):
        pivots = np.nonzero(work[col:, col])[0]
        if len(pivots) == 0:
            return None
        p = col + int(pivots[0])
        if p != col:
            work[[col, p]] = work[[p, col]]
            inv[[col, p]] = inv[[p, col]]
        hits = np.nonzero(work[:, col])[0]
        for r in hits:
            if r != col:
                work[r] ^= work[col]
                inv[r] ^= inv[col]
    return inv


def _systematic_generator(dense: np.ndarray):
    """G = [I; B^{-1} A] for H = [A | B]; None when B is singular."""
    m, n_block = dense.shape
    n_info = n_block - m
    a = dense[:, :n_info]
    b_inv = _gf2_inverse(dense[:, n_info:])
    if b_inv is None:
        return None
    parity_part = (b_inv @ a) % 2
    g = np.vstack([np.eye(n_info, dtype=np.uint8), parity_part.astype(np.uint8)])
    return gf2.BitMatrix.from_dense(g)


def build_regular_ldpc(n_info: int, rng, max_retries: int = 200) -> LdpcCode:
    """Sample a (3,6)-regular rate-1/2 code with a systematic generator."""
    if n_info < 6:
        raise ValueError("n_info must be at least 6")
    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    n_block = 2 * n_info
    m = n_info
    for _ in range(max_retries):
        var_of_edge = list(np.repeat(np.arange(n_block), 3))
        perm = rng.permutation(6 * m)
        chk_of_edge = list(perm // 6)
        if not _repair_duplicates(var_of_edge, chk_of_edge, rng):
            continue
        dense = np.zeros((m, n_block), dtype=np.uint8)
        for v, c in zip(var_of_edge, chk_of_edge):
            dense[c, v] = 1
        _break_four_cycles(dense, rng)
        if not ((dense.sum(axis=0) == 3).all() and (dense.sum(axis=1) == 6).all()):
            continue
        g = _systematic_generator(dense)
        if g is None:
            continue
        return LdpcCode(n_info, n_block, gf2.BitMatrix.from_dense(dense), g)
    raise CodeConstructionError(f"no valid (3,6) code after {max_retries} attempts")


def bitflip_decode(code: LdpcCode, y, max_rounds: int = 30):
    """Gallager bit flipping; returns the information word or None.

    Every round flips all bits tied at the maximum count of failing
    checks; a valid codeword is returned unchanged in round zero.
    """
    if isinstance(y, gf2.BitIndex):
        bits = np.array(y.bits(), dtype=np.uint8)
    else:
        bits = np.asarray(y, dtype=np.uint8).copy()
    if bits.shape[0] != code.n_block:
        raise gf2.DimensionError(f"expected {code.n_block} received bits")
    h = code.h_dense()
    for _ in range(max_rounds + 1):
        syndrome = (h @ bits) & 1
        if not syndrome.any():
            info = bits[: code.n_info]
            return gf2.BitIndex(int(sum(int(v) << t for t, v in enumerate(info))), code.n_info)
        counts = h.T @ syndrome
        bits ^= (counts == counts.max()).astype(np.uint8)
    return None
