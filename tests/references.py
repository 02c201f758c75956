"""Loop references for the hash, the alias sums, the encoder, the batched
detectors, the bit-flip decoder, the stall level and LDPC set-up, plus the
brute-force transform, the dense spectrum, the one-rhs affine solve and
the butterfly coset search.

These are the one-column (and one-word) bodies the library ran before it
classified a group's bins in one call and before it carried indices only
as packed words. They stay here so that the batched code is checked
against independent code rather than against itself. The LDPC set-up is
the library's bitmask construction redone on dense arrays.
"""
import math
from functools import lru_cache

import numpy as np

from sparsewht.bin_detect import MULTI_TON, SINGLE_TON, ZERO_TON, Detection
from sparsewht.codes import DECODE_ROUNDS
from sparsewht.gf2 import BitMatrix, DimensionError, _null_basis, eliminate
from sparsewht.kernels import _check_length, fwht_rows_inplace, hash_words, sign_matrix


def sgn(x: float) -> int:
    """Sign bit: 1 for x < 0 and 0 otherwise, so that x = |x| (-1)^sgn(x)."""
    return 1 if x < 0 else 0


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


def densify(spectrum) -> np.ndarray:
    """Dense coefficient vector of a sparse spectrum (small n only)."""
    size = 1 << spectrum.n
    out = np.zeros(size, dtype=np.float64)
    k_words, values = spectrum.as_arrays()
    out[k_words.astype(np.int64)] = values
    return out


def solve_affine(m: BitMatrix, j: int):
    """Solve M^T k = j over GF(2)^rows for the cols-bit word ``j``.

    Returns ``(particular, basis)`` as packed words: every solution is the
    particular word XORed with a GF(2)-combination of the basis words; the
    basis has exactly rows - rank(M) elements. The reference for
    ``gf2.solve_units``, which solves every unit rhs in one elimination.
    """
    if not 0 <= j < (1 << m.cols):
        raise DimensionError(f"rhs word {j} is out of range for {m.cols} cols")
    system = [(col, (j >> t) & 1) for t, col in enumerate(m.col_words)]
    pivot_rows, pivot_rhs = eliminate(system)
    particular = 0
    for pbit, rhs in pivot_rhs.items():
        particular |= rhs << pbit
    return particular, _null_basis(pivot_rows, m.rows)


def singleton_search_butterfly(cols, offset_words, basis_words, part_words):
    """``kernels.singleton_search`` as a butterfly pass: the P signed values
    u_p (-1)^<d_p, part> are summed into 2^d slots at y_p, column r of a
    (2^d, m) score block, and one d-point transform down the columns gives
    every score. Returns the same ``(idx, score)`` arrays."""
    cols = np.asarray(cols, dtype=np.float64)
    offset_words = np.ascontiguousarray(offset_words, dtype=np.uint64)
    basis_words = np.ascontiguousarray(basis_words, dtype=np.uint64)
    rows, size = cols.shape[0], 1 << len(basis_words)
    slots = hash_words(offset_words, basis_words).astype(np.int64)
    signed = cols * sign_matrix(part_words, offset_words)
    at = (slots[None, :] * rows + np.arange(rows, dtype=np.int64)[:, None]).reshape(-1)
    scores = np.bincount(at, weights=signed.reshape(-1), minlength=size * rows)
    # bincount of no cells is int64 whatever the weights
    scores = fwht_rows_inplace(scores.astype(np.float64, copy=False).reshape(size, rows))
    idx = np.argmax(np.abs(scores), axis=0)
    return idx, scores[idx, np.arange(rows)]


def parity(word: int) -> int:
    """Parity of the set bits of a nonnegative integer."""
    return bin(word).count("1") & 1


def hash_loop(col_words, k_word):
    """The bin word M^T k, one column at a time: bit t is the parity of
    column word t of M ANDed with k."""
    out = 0
    for t, col in enumerate(col_words):
        out |= parity(int(col) & k_word) << t
    return out


def bin_of_loop(plan, c, k_word):
    """The bin word M_c^T k of group c of ``plan``."""
    return hash_loop(plan.matrices[c].col_words, k_word)


def alias_loop(out, k_words, values, col_words, offset_words):
    """``out[c, M_c^T k, p] += value (-1)^<d_{c,p}, k>``, one coefficient,
    one group and one cell at a time, in the order given; returns ``out``."""
    for k_word, value in zip(k_words.tolist(), values.tolist()):
        for c in range(len(col_words)):
            j = hash_loop(col_words[c], k_word)
            for p, d in enumerate(offset_words[c].tolist()):
                out[c, j, p] += -value if parity(d & k_word) else value
    return out


def codeword_bits(code, k_word):
    """The codeword G k as a 0/1 array: bit p is the parity of generator
    row p ANDed with k."""
    return np.array([parity(row & k_word) for row in code.g.row_words], dtype=np.uint8)


def _within_noise(u, level):
    return np.mean(u * u) <= level


def _noise_level(cfg):
    return max((1.0 + cfg.gamma) * cfg.nu2, cfg.zero_tol ** 2)


def stall_energy(cfg, offsets, c_groups, bins):
    """The summed residual energy above which a stopped decode is stalled:
    C B times the level of the layout's bin test over every row: the noise
    level or, without verify rows (noiseless), zero_tol^2."""
    v0, v1 = offsets.layout["verify"]
    return c_groups * bins * (_noise_level(cfg) if v1 > v0 else cfg.zero_tol ** 2)


def _confirm_single(u, row_words, k_word, cfg, level):
    signs = sign_matrix(np.array([k_word], dtype=np.uint64), row_words)[0]
    score = float(signs @ u)
    if cfg.constellation:
        value = cfg.rho if score >= 0 else -cfg.rho
    else:
        value = score / len(u)
    if _within_noise(u - value * signs, level):
        return Detection(SINGLE_TON, int(k_word), value)
    return Detection(MULTI_TON)


def as_detections(result, count):
    """The batched detector result ``(live, k_words, values, single)`` over
    ``count`` rows as one detection per row, in the form the loops return.
    Also checks the shape of the result: ``live`` increasing, one uint64
    index, value and flag per live row."""
    live, k_words, values, single = result
    assert len(k_words) == len(values) == len(single) == len(live) <= count
    assert k_words.dtype == np.uint64 and single.dtype == bool and np.all(np.diff(live) > 0)
    out = [Detection(ZERO_TON)] * count
    for r, k_word, value, ok in zip(live.tolist(), k_words.tolist(), values.tolist(), single.tolist()):
        out[r] = Detection(SINGLE_TON, k_word, value) if ok else Detection(MULTI_TON)
    return out


def detect_noiseless_loop(u, j_word, c, plan, cfg):
    # no verify rows: every row is tested, at the round-off level
    u = np.asarray(u, dtype=np.float64)
    level = cfg.zero_tol ** 2
    if _within_noise(u, level):
        return Detection(ZERO_TON)
    k_word = 0
    ref_sign = sgn(u[0])
    for t, val in enumerate(u[1:]):
        k_word |= (sgn(val) ^ ref_sign) << t
    if bin_of_loop(plan, c, k_word) != j_word:
        return Detection(MULTI_TON)
    rows = np.array([0] + [1 << t for t in range(plan.n)], dtype=np.uint64)
    return _confirm_single(u, rows, k_word, cfg, level)


def detect_nso_loop(u, j_word, c, plan, offsets, cfg):
    # every stored row is tested, at the noise level
    u = np.asarray(u, dtype=np.float64)
    if _within_noise(u, _noise_level(cfg)):
        return Detection(ZERO_TON)
    p1 = offsets.layout["bases"][1]
    base = u[:p1]
    # the stored unit rows over each base; the bin fixes the other bits
    code_rows = offsets.code_rows[c].tolist()
    block = u[p1:].reshape(p1, len(code_rows))
    k_word = int(offsets.known[c, j_word])
    for q, row in enumerate(code_rows):
        # the bit is the sign of the row's correlations with the bases, summed in order
        if sum(float(base[p] * block[p, q]) for p in range(p1)) < 0:
            k_word |= row
    if bin_of_loop(plan, c, k_word) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(u, offsets.groups[c], k_word, cfg, _noise_level(cfg))


def detect_so_loop(u, j_word, c, plan, offsets, cfg):
    # every stored row is tested, at the noise level
    u = np.asarray(u, dtype=np.float64)
    c0, c1 = offsets.layout["code"]
    if _within_noise(u, _noise_level(cfg)):
        return Detection(ZERO_TON)
    ref_sign = sgn(u[offsets.layout["bases"][0]])
    received = (u[c0:c1] < 0).astype(np.uint8) ^ ref_sign
    decoded = bitflip_decode_loop(offsets.code, received, max_rounds=DECODE_ROUNDS)
    if decoded is None:
        return Detection(MULTI_TON)
    if bin_of_loop(plan, c, decoded) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(u, offsets.groups[c], decoded, cfg, _noise_level(cfg))


def bitflip_round_loop(code, bits):
    """One bit-flip round on a 0/1 word: every bit tied at the largest
    count of failing checks flipped, or None when no check fails."""
    h = code.h_dense()
    syndrome = (h @ bits) & 1
    if not syndrome.any():
        return None
    counts = h.T @ syndrome
    return bits ^ (counts == counts.max()).astype(np.uint8)


def bitflip_decode_loop(code, bits, max_rounds=30):
    """Gallager bit flipping on one received word; the information word or None."""
    bits = np.asarray(bits, dtype=np.uint8)
    for _ in range(max_rounds + 1):
        flipped = bitflip_round_loop(code, bits)
        if flipped is None:
            return int(sum(int(v) << t for t, v in enumerate(bits[: code.n_info])))
        bits = flipped
    return None


def gf2_rref_loop(mat):
    """The reduced row echelon form of a dense 0/1 matrix over GF(2), by
    column-wise Gauss-Jordan; returns (reduced rows, pivot columns)."""
    work = np.array(mat, dtype=np.uint8)
    pivots = []
    for col in range(work.shape[1]):
        r = len(pivots)
        hits = np.flatnonzero(work[r:, col])
        if not len(hits):
            continue
        work[[r, r + hits[0]]] = work[[r + hits[0], r]]
        for other in np.flatnonzero(work[:, col]):
            if other != r:
                work[other] ^= work[r]
        pivots.append(col)
    return work[: len(pivots)], pivots


def peg_loop(n_info, rng):
    """Progressive edge growth on a dense H, with a breadth-first search of
    boolean masks per edge; the draws are made in the library's order.
    Returns None when a variable finds no open check."""
    n_block = 2 * n_info
    h = np.zeros((n_info, n_block), dtype=np.uint8)
    for v in range(n_block):
        for _ in range(3):
            degree = h.sum(axis=1)
            joined = h[:, v].astype(bool)
            far = (degree < 6) & ~joined
            if joined.sum() == 2:
                # the checks of every earlier variable joined to both of v's
                shares = h[joined, :v].all(axis=0)
                far &= ~h[:, :v][:, shares].any(axis=1)
            if not far.any():
                return None
            reached = joined.copy()
            frontier = joined.copy()
            while frontier.any():
                frontier = h[:, h[frontier].any(axis=0)].any(axis=1) & ~reached
                reached |= frontier
                if not (far & ~reached).any():
                    break
                far &= ~reached
            ties = np.flatnonzero(far & (degree == degree[far].min()))
            h[ties[rng.integers(len(ties))], v] = 1
    return h


def build_regular_ldpc_loop(n_info, rng, draws):
    """(H, G) as dense uint8 arrays, or None after ``draws`` graphs: PEG,
    then the pivot columns of H's reduced form moved after the free ones,
    and G = [I; R] for the reduced H = [R | I]."""
    for _ in range(draws):
        h = peg_loop(n_info, rng)
        if h is None:
            continue
        reduced, pivots = gf2_rref_loop(h)
        if len(pivots) < n_info:
            continue
        order = [t for t in range(2 * n_info) if t not in pivots] + pivots
        g = np.vstack([np.eye(n_info, dtype=np.uint8), reduced[:, order[:n_info]]])
        return h[:, order], g
    return None
