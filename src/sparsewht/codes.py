"""(3,6)-regular LDPC construction, systematic generator rows, bit-flip decoding.

Rate is fixed at 1/2 (block length 2 q for q information bits), so 3 * 2q
variable sockets meet 6 * q check sockets. The graph grows by progressive
edge growth, which keeps short cycles out, and one GF(2) elimination gives
the systematic generator. A code is its words: H's check rows and G's
rows as Python-int bitmasks, and H's column words derived once.
Construction works on bitmask rows and columns; :func:`code_for` builds
the design's one code per n once per process. Bit flipping decodes all
received words of a call as one array of n-bit syndromes, each the XOR
of H's column words at its word's set bits, until every word decodes or
the measured round cap is reached.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import gf2, kernels


MIN_INFO_BITS = 6  # the smallest information length a (3,6)-regular code is built for
DECODE_ROUNDS = 6  # bit-flip rounds before a word counts as undecodable, measured (bitflip_decode_many)
GRAPH_DRAWS = 20  # graphs drawn before construction gives up


class CodeConstructionError(RuntimeError):
    pass


@dataclass(frozen=True)
class LdpcCode:
    """A rate-1/2 code as packed words: ``h_rows`` holds H's n_info checks
    over the 2 n_info code bits (bit t of check r is H[r, t]), and
    ``g_rows`` G's 2 n_info rows over the information bits (bit q of row
    p is G[p, q]), so code bit p of the codeword of k is <g_rows[p], k>."""

    n_info: int
    h_rows: tuple
    g_rows: tuple

    @cached_property
    def h_cols(self) -> np.ndarray:
        """H's 2 n_info columns as read-only uint64 words: bit r of column t is H[r, t]."""
        cols = np.array([sum((row >> t & 1) << r for r, row in enumerate(self.h_rows))
                         for t in range(2 * self.n_info)], dtype=np.uint64)
        cols.flags.writeable = False
        return cols


def _union(words: list, mask: int) -> int:
    """OR of ``words[i]`` over the set bits i of ``mask``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= words[low.bit_length() - 1]
        mask ^= low
    return out


def _peg_rows(n_info: int, rng) -> list:
    """H's rows as column bitmasks, by progressive edge growth; None when
    a variable finds no open check it is not already joined to."""
    rows, cols = [0] * n_info, [0] * (2 * n_info)
    for v in range(2 * n_info):
        for _ in range(3):
            far = sum(1 << c for c, row in enumerate(rows) if row.bit_count() < 6) & ~cols[v]
            if cols[v].bit_count() == 2:
                # no third edge that gives v another variable's three checks
                for u in range(v):
                    if cols[u] & cols[v] == cols[v]:
                        far &= ~cols[u]
            if not far:
                return None
            # breadth-first from v: keep the open checks first reached at the last depth
            reached = frontier = cols[v]
            while frontier:
                frontier = _union(cols, _union(rows, frontier)) & ~reached
                reached |= frontier
                if not far & ~reached:
                    break
                far &= ~reached
            degree = {c: rows[c].bit_count() for c in range(n_info) if (far >> c) & 1}
            low = min(degree.values())
            ties = [c for c, d in degree.items() if d == low]
            c = ties[int(rng.integers(len(ties)))]
            rows[c] |= 1 << v
            cols[v] |= 1 << c
    return rows


def build_regular_ldpc(n_info: int, rng) -> LdpcCode:
    """A (3,6)-regular rate-1/2 code with a systematic generator.

    The graph comes from progressive edge growth (Hu, Eleftheriou and
    Arnold, IEEE Trans. IT 2005). The 2 n_info variables are visited in
    order and take their 3 edges one at a time. An edge goes to the
    farthest open check (fewer than 6 edges, not yet joined to the
    variable, and not one that would give the variable the same three
    checks as another, which would make two columns of H equal and the
    minimum distance 2): one the variable cannot reach, else one a
    breadth-first search reaches only at its last depth. Ties go to the
    lowest check degree, then to a draw from ``rng``.

    One GF(2) elimination of H's rows finds its pivot columns, which are
    moved after the n_info free columns. The reduced H is then [R | I],
    and G = [I; R]: row p of R is the reduced pivot row p on the free
    columns. A graph is drawn again, at most ``GRAPH_DRAWS`` times, only
    when H lacks full rank (or the growth runs out of open checks).
    """
    if n_info < MIN_INFO_BITS:
        raise ValueError(f"n_info must be at least {MIN_INFO_BITS}")
    rng = np.random.default_rng(rng)
    for _ in range(GRAPH_DRAWS):
        rows = _peg_rows(n_info, rng)
        pivots, _ = gf2.eliminate((row, 0) for row in rows or [])
        if len(pivots) < n_info:
            continue
        pivot_cols = sorted(pivots)
        order = [t for t in range(2 * n_info) if t not in pivots] + pivot_cols
        h = [sum(((row >> t) & 1) << i for i, t in enumerate(order)) for row in rows]
        parity = [sum(((pivots[p] >> t) & 1) << i for i, t in enumerate(order[:n_info])) for p in pivot_cols]
        return LdpcCode(n_info, tuple(h), tuple(1 << t for t in range(n_info)) + tuple(parity))
    raise CodeConstructionError(f"no full-rank (3,6) code after {GRAPH_DRAWS} graphs")


@cache
def code_for(n_info: int) -> LdpcCode:
    """The one code of the design for ``n_info`` bits, seeded by n_info; built once per process."""
    return build_regular_ldpc(n_info, np.random.default_rng(n_info))


def bitflip_decode_many(code: LdpcCode, bits, max_rounds: int = DECODE_ROUNDS):
    """Gallager bit flipping on every received word (row) of ``bits`` at once.

    The decoder carries each word's n-bit syndrome s, which starts as the
    XOR of H's column words at the word's set bits. Each round takes the
    words with s != 0, counts every variable's failing checks as the
    popcount of s & its column word, flips the variables tied at the
    word's maximum count and XORs their column words into s. It stops
    when no word has a failing check (a valid codeword stops in round
    zero) or after ``max_rounds`` rounds; a word that alternates between
    two syndromes never reaches 0 and fails at the cap.

    ``DECODE_ROUNDS`` = 6 is the one measured constant. On SO's seed-77
    set (seed 77, trials 0-59, seven (n, K, SNR) points), the round at
    which each received word decoded or stopped under a cap of 30, with
    how many became verified single-tons:

    ======= ======= ==================== ====== ==============
    rounds  words   decoded to a true k  kept   kept but wrong
    ======= ======= ==================== ====== ==============
    0       1,664   1,662                1,632  0
    1       4,419   4,211                3,960  18
    2-4     3,633   670                  527    6
    5-9     4,358   14                   6      0
    10-30   6,196   12                   0      0
    ======= ======= ==================== ====== ==============

    At 6 rounds every seeded SO decision is the one that 30 rounds give;
    caps 2 and 4 move some. The Tanner graph's depth (2 to 4 for n =
    6..63) is not a usable bound.

    Returns ``(info, ok)``: whether each row reached a codeword within
    ``max_rounds`` flips and, where it did, its information word (the
    first ``n_info`` bits of that codeword) as a uint64. A received entry
    other than 0 or 1 raises ValueError.
    """
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be >= 0, got {max_rounds}")
    words = np.array(bits, ndmin=2)
    n = code.n_info
    if words.shape[1] != 2 * n:
        raise gf2.DimensionError(f"expected {2 * n} received bits per word")
    bad = words[(words != 0) & (words != 1)]
    if bad.size:
        raise ValueError(f"received bits must be 0 or 1, got {bad[0].item()}")
    words = words.astype(bool)
    cols, zero = code.h_cols, np.uint64(0)
    # info and syndrome packed apart: each fits a uint64, the 2n-bit word may not
    info = kernels.pack_rows(words[:, :n])
    s = np.bitwise_xor.reduce(np.where(words, cols, zero), axis=1)
    for _ in range(max_rounds):
        act = np.flatnonzero(s)
        if not act.size:
            break
        counts = np.bitwise_count(s[act, None] & cols)
        flip = counts == counts.max(axis=1, keepdims=True)
        info[act] ^= kernels.pack_rows(flip[:, :n])
        s[act] ^= np.bitwise_xor.reduce(np.where(flip, cols, zero), axis=1)
    return info, s == 0


def bitflip_decode(code: LdpcCode, bits, max_rounds: int = DECODE_ROUNDS):
    """The one-word case of :func:`bitflip_decode_many` on a 0/1 array;
    returns the information word as an int, or None when decoding fails."""
    bits = np.asarray(bits)
    if bits.shape != (2 * code.n_info,):
        raise gf2.DimensionError(f"expected {2 * code.n_info} received bits")
    info, ok = bitflip_decode_many(code, bits, max_rounds)
    return int(info[0]) if ok[0] else None
