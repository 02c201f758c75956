"""Loop references for the hash, the alias sums, the encoder, the batched
detectors, the bit-flip decoder, the stall level and LDPC set-up, the
decode before its energy gate, plus the
brute-force transform, the batched butterflies, the dense spectrum, the
one-rhs affine solve and its null-space basis, the butterfly coset
search, the dense 0/1 matrix of packed words, and hash matrices as their
column words: the selection matrix, the per-group random draw and the rank.

These are the one-column (and one-word) bodies the library ran before it
classified a group's bins in one call and before it carried indices only
as packed words. They stay here so that the batched code is checked
against independent code rather than against itself. The LDPC set-up is
the library's bitmask construction redone on dense arrays.
"""
import math
from functools import lru_cache

import numpy as np

from sparsewht import bin_detect
from sparsewht.bin_detect import MULTI_TON, SINGLE_TON, ZERO_TON, Detection
from sparsewht.codes import DECODE_ROUNDS
from sparsewht.gf2 import DimensionError, eliminate
from sparsewht.kernels import _check_length, hash_words, scatter_signed, sign_matrix
from sparsewht.peeling import DecodeReport


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


def fwht_rows_butterflies(mat: np.ndarray) -> np.ndarray:
    """``kernels.fwht_rows_inplace`` as the b butterfly stages the library
    ran before it took products of small Hadamard matrices: same contract,
    in place, and one fixed order of two-term sums, so every column's
    result depends on that column alone."""
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


def densify(spectrum) -> np.ndarray:
    """Dense coefficient vector of a sparse spectrum (small n only)."""
    size = 1 << spectrum.n
    out = np.zeros(size, dtype=np.float64)
    k_words, values = spectrum.as_arrays()
    out[k_words.astype(np.int64)] = values
    return out


def dense(words, width: int) -> np.ndarray:
    """The 0/1 uint8 matrix whose row r holds the ``width`` low bits of
    packed word r (bit t in column t); words may be wider than 64 bits."""
    return np.array([[int(w) >> t & 1 for t in range(width)] for w in words], dtype=np.uint8).reshape(-1, width)


def selection_matrix(n: int, positions) -> list:
    """The column words of the n x b matrix whose column t is the unit
    vector at positions[t].

    Positions are 0-based bit positions; the induced hash extracts exactly
    those bits. Always has full column rank when positions are distinct.
    """
    if len(set(positions)) != len(positions):
        raise DimensionError("positions must be distinct")
    for pos in positions:
        if not 0 <= pos < n:
            raise DimensionError(f"position {pos} outside 0..{n - 1}")
    return [1 << pos for pos in positions]


def random_full_column_rank(n: int, b: int, rng) -> list:
    """The column words of a uniformly random n x b matrix conditioned on
    column rank b: n b-bit row words per draw, drawn again until the rank
    is b. Bit r of column word t is bit t of row word r."""
    if b > n:
        raise DimensionError("cannot have column rank b > n")
    while True:
        rows = [int(x) for x in rng.integers(0, 1 << b, size=n, dtype=np.int64)]
        cols = [sum((row >> t & 1) << r for r, row in enumerate(rows)) for t in range(b)]
        if rank_transpose(cols) == b:
            return cols


def rank_transpose(cols) -> int:
    """Rank of M^T (equals rank of M) from M's packed column words."""
    rows, _ = eliminate([(int(w), 0) for w in cols])
    return len(rows)


def _null_basis(pivot_rows: dict, n: int) -> list:
    """The n - rank null-space words of a reduced system: one per free bit,
    in increasing order of it. The reference for ``SubsamplingPlan.coset_basis``."""
    basis = []
    for f in range(n):
        if f in pivot_rows:
            continue
        vec = 1 << f
        for pbit, prow in pivot_rows.items():
            vec |= ((prow >> f) & 1) << pbit
        basis.append(vec)
    return basis


def solve_affine(n: int, cols, j: int):
    """Solve M^T k = j over GF(2)^n for the n x b matrix M of column words
    ``cols`` and the b-bit word ``j``.

    Returns ``(particular, basis)`` as packed words: every solution is the
    particular word XORed with a GF(2)-combination of the basis words; the
    basis has exactly n - rank(M) elements. The reference for
    ``SubsamplingPlan.particular_words`` and ``coset_basis``, which one
    elimination with every unit rhs gives.
    """
    if not 0 <= j < (1 << len(cols)):
        raise DimensionError(f"rhs word {j} is out of range for {len(cols)} cols")
    system = [(int(col), (j >> t) & 1) for t, col in enumerate(cols)]
    pivot_rows, pivot_rhs = eliminate(system)
    particular = 0
    for pbit, rhs in pivot_rhs.items():
        particular |= rhs << pbit
    return particular, _null_basis(pivot_rows, n)


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
    scores = fwht_rows_butterflies(scores.astype(np.float64, copy=False).reshape(size, rows))
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
    return hash_loop(plan.col_words[c].tolist(), k_word)


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
    return np.array([parity(row & k_word) for row in code.g_rows], dtype=np.uint8)


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


def as_detections(detect, cols, js, c, plan, offsets, cfg, gate=True):
    """One detection per row of ``cols``, in the form the loops return, by
    the batched ``detect`` after ``bin_detect.triage``: its zero-tons are
    zero-tons and, with ``gate``, its gated rows multi-tons; ``detect``
    classifies the rest in one call. Without ``gate`` every row above the
    noise level goes to ``detect``, as before the gate. Also checks the
    shape of the result: one uint64 index, value and flag per row given."""
    level = bin_detect.tested(offsets, cfg)
    zero, gated = bin_detect.triage(cols, level, cfg)
    refused = gated if gate else np.zeros_like(gated)
    live = np.flatnonzero(~(zero | refused))
    k_words, values, single = detect(cols[live], js[live], c, plan, offsets, cfg)
    assert len(k_words) == len(values) == len(single) == len(live)
    assert k_words.dtype == np.uint64 and single.dtype == bool
    out = [Detection(ZERO_TON) if z else Detection(MULTI_TON) for z in zero.tolist()]
    for r, k_word, value, ok in zip(live.tolist(), k_words.tolist(), values.tolist(), single.tolist()):
        out[r] = Detection(SINGLE_TON, k_word, value) if ok else Detection(MULTI_TON)
    return out


def gated(u, level, cfg):
    """Whether the energy gate refuses one bin row ``u``: a ``cfg.constellation``
    row above ``level`` whose (sqrt(E) - rho)^2, E its mean square, exceeds
    ``level`` by the gate's round-off margin."""
    energy = np.mean(u * u)
    gap = (math.sqrt(energy) - cfg.rho) ** 2
    return bool(cfg.constellation and energy > level
                and gap > level * (1.0 + 1e-9) + 1e-12 * (energy + cfg.rho ** 2))


def decode_untriaged(obs, plan, offsets, cfg):
    """``peeling.decode`` before the energy gate: each group's pending bins
    above the level go to the batched detector in one call, the rows a
    constellation bound refuses included, and the others are zero-tons.
    Returns the recovered dict and the report, whose ``gated`` stays 0."""
    detect = bin_detect.DETECTORS[offsets.variant]
    level = bin_detect.tested(offsets, cfg)
    data = obs.data.copy()
    c_groups, bins, _ = data.shape
    recovered = {}
    report = DecodeReport(samples_used=obs.distinct_samples)
    pending = np.ones((c_groups, bins), dtype=bool)
    while report.sweeps < 2 * c_groups * bins + 10:
        before = dict(recovered)
        for c in range(c_groups):
            js = np.flatnonzero(pending[c])
            pending[c] = False
            cols = data[c][js]
            live = np.flatnonzero(np.mean(cols * cols, axis=1) > level)
            report.zero_tons += len(js) - len(live)
            if not len(live):
                continue
            k_words, values, single = detect(cols[live], js[live], c, plan, offsets, cfg)
            report.multi_tons += int(np.count_nonzero(~single))
            k_words, values = k_words[single], values[single]
            for k_word, value in zip(k_words.tolist(), values.tolist()):
                report.conflicts += recovered.get(k_word, 0.0) != 0.0
                total = recovered.get(k_word, 0.0) + value
                if abs(total) <= cfg.zero_tol:
                    recovered.pop(k_word, None)
                else:
                    recovered[k_word] = total
            report.peels += len(k_words)
            if len(k_words):
                js2 = scatter_signed(data, k_words, -values, plan.col_words, offsets.groups)
                pending[np.arange(c_groups), js2] = True
        report.sweeps += 1
        if recovered == before:
            break
    report.residual_energy = float((data * data).mean(axis=2).sum())
    report.stalled = recovered != before or report.residual_energy > stall_energy(cfg, offsets, c_groups, bins)
    return recovered, report


def _bin_word(plan, c, j_word, measured):
    """The word of bin j whose free bits are the measured ones: ``measured``
    maps a stored unit row e_q to its 0/1 bit, and the free bit q selects
    the null-space word that holds it (no other holds q), XORed onto the
    solution of M_c^T k = j."""
    particular, basis = solve_affine(plan.n, plan.col_words[c].tolist(), j_word)
    for row, bit in measured.items():
        assert row & (row - 1) == 0
        holding = [w for w in basis if w & row]
        assert len(holding) == 1, "a stored unit row sits at a pivot bit"
        if bit:
            particular ^= holding[0]
    return particular


def detect_noiseless_loop(u, j_word, c, plan, offsets, cfg):
    # no verify rows: every row is tested, at the round-off level
    u = np.asarray(u, dtype=np.float64)
    level = cfg.zero_tol ** 2
    if _within_noise(u, level):
        return Detection(ZERO_TON)
    # the stored unit rows against the zero row; the bin fixes the other bits
    ref_sign = sgn(u[0])
    code_rows = offsets.code_words[offsets.stored[c]].tolist()
    k_word = _bin_word(plan, c, j_word, {row: sgn(val) ^ ref_sign for row, val in zip(code_rows, u[1:])})
    if bin_of_loop(plan, c, k_word) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(u, offsets.groups[c], k_word, cfg, level)


def detect_nso_loop(u, j_word, c, plan, offsets, cfg):
    # every stored row is tested, at the noise level
    u = np.asarray(u, dtype=np.float64)
    if _within_noise(u, _noise_level(cfg)):
        return Detection(ZERO_TON)
    p1 = offsets.layout["bases"][1]
    base = u[:p1]
    # the stored unit rows over each base; the bin fixes the other bits
    code_rows = offsets.code_words[offsets.stored[c]].tolist()
    block = u[p1:].reshape(p1, len(code_rows))
    # the bit is the sign of the row's correlations with the bases, summed in order
    measured = {row: int(sum(float(base[p] * block[p, q]) for p in range(p1)) < 0) for q, row in enumerate(code_rows)}
    k_word = _bin_word(plan, c, j_word, measured)
    if bin_of_loop(plan, c, k_word) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(u, offsets.groups[c], k_word, cfg, _noise_level(cfg))


def detect_so_loop(u, j_word, c, plan, offsets, cfg):
    # every stored row is tested, at the noise level
    u = np.asarray(u, dtype=np.float64)
    c0 = offsets.layout["code"][0]
    if _within_noise(u, _noise_level(cfg)):
        return Detection(ZERO_TON)
    ref_sign = sgn(u[offsets.layout["bases"][0]])
    measured = {r: sgn(u[c0 + i]) ^ ref_sign for i, r in enumerate(offsets.stored[c].tolist())}
    # the word of bin j whose free bits the stored systematic rows measure
    # gives the bits of the rows the group leaves out
    k0 = _bin_word(plan, c, j_word, {1 << r: bit for r, bit in measured.items() if r < plan.n})
    received = np.array([parity(g & k0) for g in offsets.code_words.tolist()], dtype=np.uint8)
    for r, bit in measured.items():
        received[r] = bit
    decoded = bitflip_decode_loop(offsets.code, received, max_rounds=DECODE_ROUNDS)
    if decoded is None:
        return Detection(MULTI_TON)
    if bin_of_loop(plan, c, decoded) != j_word:
        return Detection(MULTI_TON)
    return _confirm_single(u, offsets.groups[c], decoded, cfg, _noise_level(cfg))


@lru_cache(maxsize=8)
def h_matrix(code) -> np.ndarray:
    """The code's H as a dense n_info x 2 n_info 0/1 array, unpacked from its check words."""
    h = dense(code.h_rows, 2 * code.n_info)
    h.flags.writeable = False
    return h


def bitflip_round_loop(code, bits):
    """One bit-flip round on a 0/1 word: every bit tied at the largest
    count of failing checks flipped, or None when no check fails."""
    h = h_matrix(code)
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
