"""Loop references for the hash, the encoder, the batched detectors, the
bit-flip decoder, the stall level and LDPC set-up.

These are the one-column (and one-word) bodies the library ran before it
classified a group's bins in one call and before it carried indices only
as packed words. They stay here so that the batched code is checked
against independent code rather than against itself.
"""
import numpy as np

from sparsewht.bin_detect import MULTI_TON, RATIO_TOL, SINGLE_TON, ZERO_TON, Detection, sgn
from sparsewht.codes import DECODE_ROUNDS
from sparsewht.kernels import sign_matrix


def parity(word: int) -> int:
    """Parity of the set bits of a nonnegative integer."""
    return bin(word).count("1") & 1


def bin_of_loop(plan, c, k_word):
    """The bin word M_c^T k, one column at a time: bit t is the parity of
    column t of M_c ANDed with k."""
    out = 0
    for t, col in enumerate(plan.matrices[c].col_words):
        out |= parity(col & k_word) << t
    return out


def codeword_bits(code, k_word):
    """The codeword G k as a 0/1 array: bit p is the parity of generator
    row p ANDed with k."""
    return np.array([parity(row & k_word) for row in code.g.row_words], dtype=np.uint8)


def _within_noise(u, cfg):
    return np.mean(u * u) <= (1.0 + cfg.gamma) * cfg.nu2


def stall_energy(cfg, c_groups, bins):
    """The summed residual energy above which a stopped decode is stalled:
    C B times the larger zero-ton level, (1 + gamma) nu^2 of the robust
    detectors or zero_tol^2 of the noiseless one."""
    return c_groups * bins * max((1.0 + cfg.gamma) * cfg.nu2, cfg.zero_tol ** 2)


def _confirm_single(u, row_words, k_word, cfg):
    signs = sign_matrix(np.array([k_word], dtype=np.uint64), row_words)[0]
    score = float(signs @ u)
    if cfg.constellation:
        value = cfg.rho if score >= 0 else -cfg.rho
    else:
        value = score / len(u)
    if _within_noise(u - value * signs, cfg):
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
    u = np.asarray(u, dtype=np.float64)
    tol = cfg.zero_tol
    if np.all(np.abs(u) <= tol):
        return Detection(ZERO_TON)
    ref = u[0]
    if abs(ref) <= tol:
        return Detection(MULTI_TON)
    ratios = u[1:] / ref
    if np.any(np.abs(np.abs(ratios) - 1.0) > RATIO_TOL):
        return Detection(MULTI_TON)
    k_word = 0
    ref_sign = sgn(ref)
    for t, val in enumerate(u[1:]):
        k_word |= (sgn(val) ^ ref_sign) << t
    if bin_of_loop(plan, c, k_word) != j_word:
        return Detection(MULTI_TON)
    return Detection(SINGLE_TON, k_word, float(ref))


def detect_nso_loop(u, j_word, c, plan, offsets, cfg):
    u = np.asarray(u, dtype=np.float64)
    p1 = offsets.layout["base"][1]
    n = plan.n
    base = u[:p1]
    if _within_noise(base, cfg):
        return Detection(ZERO_TON)
    base_sign = base < 0
    block_sign = u[p1:].reshape(p1, n) < 0
    votes = (block_sign ^ base_sign[:, None]).sum(axis=0)
    k_word = 0
    for q in range(n):
        if 2 * int(votes[q]) > p1:
            k_word |= 1 << q
    if bin_of_loop(plan, c, k_word) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(base, offsets.rows_u64(c)[:p1], k_word, cfg)


def detect_so_loop(u, j_word, c, plan, offsets, cfg):
    u = np.asarray(u, dtype=np.float64)
    r0, r1 = offsets.layout["random"]
    c0, c1 = offsets.layout["coded"]
    rand = u[r0:r1]
    if _within_noise(rand, cfg):
        return Detection(ZERO_TON)
    ref_sign = sgn(u[offsets.layout["reference"]])
    received = (u[c0:c1] < 0).astype(np.uint8) ^ ref_sign
    decoded = bitflip_decode_loop(offsets.code, received, max_rounds=DECODE_ROUNDS)
    if decoded is None:
        return Detection(MULTI_TON)
    if bin_of_loop(plan, c, decoded) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(rand, offsets.rows_u64(c)[r0:r1], decoded, cfg)


def bitflip_decode_loop(code, bits, max_rounds=30):
    """Gallager bit flipping on one received word; the information word or None."""
    bits = np.asarray(bits, dtype=np.uint8).copy()
    h = code.h_dense()
    for _ in range(max_rounds + 1):
        syndrome = (h @ bits) & 1
        if not syndrome.any():
            return int(sum(int(v) << t for t, v in enumerate(bits[: code.n_info])))
        counts = h.T @ syndrome
        bits ^= (counts == counts.max()).astype(np.uint8)
    return None


def _repair_duplicates_loop(var_of_edge, chk_of_edge, rng, max_attempts=10_000):
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


def _break_four_cycles_loop(dense, rng, passes=4):
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


def gf2_inverse_loop(mat):
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


def build_regular_ldpc_loop(n_info, rng, max_retries=200):
    """(H, G) as dense uint8 arrays, or None after ``max_retries`` graphs."""
    n_block = 2 * n_info
    m = n_info
    for _ in range(max_retries):
        var_of_edge = list(np.repeat(np.arange(n_block), 3))
        perm = rng.permutation(6 * m)
        chk_of_edge = list(perm // 6)
        if not _repair_duplicates_loop(var_of_edge, chk_of_edge, rng):
            continue
        dense = np.zeros((m, n_block), dtype=np.uint8)
        for v, c in zip(var_of_edge, chk_of_edge):
            dense[c, v] = 1
        _break_four_cycles_loop(dense, rng)
        if not ((dense.sum(axis=0) == 3).all() and (dense.sum(axis=1) == 6).all()):
            continue
        b_inv = gf2_inverse_loop(dense[:, n_info:])
        if b_inv is None:
            continue
        parity_part = (b_inv @ dense[:, :n_info]) % 2
        g = np.vstack([np.eye(n_info, dtype=np.uint8), parity_part.astype(np.uint8)])
        return dense, g
    return None
