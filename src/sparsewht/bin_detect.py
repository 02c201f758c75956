"""Bin classification: zero-ton / single-ton / multi-ton tests.

Four variants share the same contract. The noiseless detector reads the
index bits from sign ratios against the zero-offset reference row. The
near-linear detector scores every candidate in the bin's hash coset with
one small Walsh-Hadamard transform (a coset is an affine subspace, so
its signature correlations are a transform of the column, see
``kernels.singleton_search``) and classifies all pending bins of a group
at once. The two structured variants recover the index through
repetition voting or channel decoding and then verify with the random
rows. Anything failing verification is classified multi-ton: multi-tons
need no action during peeling, so erring toward them only delays
recovery, never corrupts it.

Sign convention: sgn(x) = 1 for x < 0 and 0 for x > 0 (sgn(0) = 0), so
that x = |x| * (-1)^sgn(x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import codes, kernels

ZERO_TON = "zero-ton"
SINGLE_TON = "single-ton"
MULTI_TON = "multi-ton"


@dataclass(frozen=True)
class Detection:
    kind: str
    index: int | None = None
    value: float | None = None


_ZERO = Detection(ZERO_TON)
_MULTI = Detection(MULTI_TON)


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds shared by the robust detectors.

    ``gamma`` is the verification slack (must sit in (0, SNR/2));
    ``nu2`` the per-entry bin noise variance N sigma^2 / B; ``rho`` the
    constellation amplitude. ``zero_tol``/``ratio_tol`` serve the exact
    noiseless tests, and ``value_grid`` optionally snaps detected values
    to a lattice (used by the integer-valued cut-sketching path).
    """

    gamma: float = 1.0
    nu2: float = 0.0
    rho: float = 1.0
    constellation: bool = True
    zero_tol: float = 0.0
    ratio_tol: float = 1e-6
    value_grid: float | None = None
    decode_rounds: int = 30

    @staticmethod
    def default_gamma(snr_linear: float) -> float:
        # centered inside the valid window (0, SNR/2)
        return min(1.0, snr_linear / 4.0)


def sgn(x: float) -> int:
    return 1 if x < 0 else 0


def crossover_bound(eta: float, snr_linear: float) -> float:
    """Upper bound exp(-eta SNR / 2) on the sign-flip probability of a
    noisy single-ton observation."""
    if eta <= 0 or snr_linear <= 0:
        raise ValueError("eta and SNR must be positive")
    return math.exp(-0.5 * eta * snr_linear)


def _snap(value: float, grid: float | None) -> float:
    if grid is None:
        return value
    return round(value / grid) * grid


def detect_noiseless(u: np.ndarray, j_word: int, c: int, plan, cfg: DetectorConfig) -> Detection:
    """Ratio test against the zero-offset reference row.

    Expects the noiseless offset layout: row 0 is the reference, rows
    1..n are the unit offsets, so sgn(u_t) xor sgn(u_0) is bit t of k.
    """
    u = np.asarray(u, dtype=np.float64)
    tol = cfg.zero_tol
    if np.all(np.abs(u) <= tol):
        return _ZERO
    ref = u[0]
    if abs(ref) <= tol:
        return _MULTI
    ratios = u[1:] / ref
    if np.any(np.abs(np.abs(ratios) - 1.0) > cfg.ratio_tol):
        return _MULTI
    k_word = 0
    ref_sign = sgn(ref)
    for t, val in enumerate(u[1:]):
        k_word |= (sgn(val) ^ ref_sign) << t
    if plan.bin_of(c, k_word) != j_word:
        return _MULTI
    value = _snap(float(ref), cfg.value_grid)
    if value == 0.0:
        return _MULTI
    return Detection(SINGLE_TON, k_word, value)


def _within_noise(u: np.ndarray, cfg: DetectorConfig):
    """Per row of ``u``: is the mean energy at most (1 + gamma) nu^2?"""
    return np.mean(u * u, axis=-1) <= (1.0 + cfg.gamma) * cfg.nu2


def _estimate_value(score, rows: int, cfg: DetectorConfig):
    """Per entry of ``score``, the value of the single-ton it correlates with."""
    if cfg.constellation:
        return np.where(score >= 0, cfg.rho, -cfg.rho)
    return score / rows


def _verified(u: np.ndarray, signs: np.ndarray, values, cfg: DetectorConfig):
    """Per row: does the residual after removing ``values * signs`` stay
    within the noise level?"""
    return _within_noise(u - np.asarray(values)[..., None] * signs, cfg)


def _confirm_single(u: np.ndarray, row_words: np.ndarray, k_word: int, cfg: DetectorConfig) -> Detection:
    signs = kernels.sign_matrix(np.array([k_word], dtype=np.uint64), row_words)[0]
    value = float(_estimate_value(float(signs @ u), len(u), cfg))
    if _verified(u, signs, value, cfg):
        return Detection(SINGLE_TON, int(k_word), value)
    return _MULTI


def _near_linear(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig) -> list:
    live = np.flatnonzero(~_within_noise(cols, cfg))
    found = {}
    if len(live):
        u = cols[live]
        rows = offsets.rows_u64(c)
        part = plan.particular_words(c)[js[live]]
        idx, score = kernels.singleton_search(u, rows, plan.coset_basis(c), part)
        k_words = part ^ plan.coset_span(c)[idx]
        values = _estimate_value(score, len(rows), cfg)
        single = _verified(u, kernels.sign_matrix(k_words, rows), values, cfg)
        for r, k, v, ok in zip(live.tolist(), k_words.tolist(), values.tolist(), single.tolist()):
            found[r] = Detection(SINGLE_TON, k, v) if ok else _MULTI
    return [found.get(r, _ZERO) for r in range(len(js))]


def detect_near_linear_many(block: np.ndarray, js, c: int, plan, offsets, cfg: DetectorConfig) -> list:
    """Matched-filter search over the hash cosets of the bins ``js`` at once.

    ``block`` holds group c's columns by bin word, shape (B, P). Rows
    whose energy is within (1 + gamma) nu^2 are zero-tons. Every other
    row takes its best coset candidate from one batched
    ``kernels.singleton_search`` and is a single-ton only if the residual
    after removing that candidate stays within the same level.
    """
    js = np.asarray(js, dtype=np.int64)
    return _near_linear(block[js], js, c, plan, offsets, cfg)


def detect_near_linear(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_near_linear_many`."""
    u = np.asarray(u, dtype=np.float64)
    return _near_linear(u[None, :], np.array([j_word], dtype=np.int64), c, plan, offsets, cfg)[0]


def detect_nso(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """Majority vote per index bit over the modulated offset blocks."""
    u = np.asarray(u, dtype=np.float64)
    p1 = offsets.layout["p1"]
    n = plan.n
    base = u[:p1]
    if _within_noise(base, cfg):
        return _ZERO
    base_sign = (base < 0)
    block_sign = (u[p1:].reshape(p1, n) < 0)
    votes = (block_sign ^ base_sign[:, None]).sum(axis=0)
    k_word = 0
    for q in range(n):
        if 2 * int(votes[q]) > p1:
            k_word |= 1 << q
    if plan.bin_of(c, k_word) != j_word:
        return _MULTI
    return _confirm_single(base, offsets.rows_u64(c)[:p1], k_word, cfg)


def detect_so(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig, code=None) -> Detection:
    """Channel-decode the coded offset signs after removing the sign
    reference estimated from the zero-offset rows."""
    u = np.asarray(u, dtype=np.float64)
    code = code or offsets.code
    r0, r1 = offsets.layout["random"]
    z0, z1 = offsets.layout["zero"]
    c0, c1 = offsets.layout["coded"]
    rand = u[r0:r1]
    if _within_noise(rand, cfg):
        return _ZERO
    zero_signs = (u[z0:z1] < 0)
    ref_sign = 1 if 2 * int(zero_signs.sum()) > (z1 - z0) else 0
    received = ((u[c0:c1] < 0).astype(np.uint8)) ^ ref_sign
    decoded = codes.bitflip_decode(code, received, max_rounds=cfg.decode_rounds)
    if decoded is None:
        return _MULTI
    k_word = decoded.word
    if plan.bin_of(c, k_word) != j_word:
        return _MULTI
    return _confirm_single(rand, offsets.rows_u64(c)[r0:r1], k_word, cfg)


def make_detector(plan, offsets, cfg: DetectorConfig, code=None):
    """Bind a variant-appropriate ``(block, js, c) -> [Detection]`` callable.

    ``block`` is group c's (B, P) observations and ``js`` the bin words to
    classify; the result holds one detection per word of ``js``, in order.
    The near-linear variant classifies them in one batch, the others one
    column at a time.
    """
    variant = offsets.variant
    if variant == "noiseless":
        return lambda block, js, c: [detect_noiseless(block[j], j, c, plan, cfg) for j in js]
    if variant == "near-linear":
        return lambda block, js, c: detect_near_linear_many(block, js, c, plan, offsets, cfg)
    if variant == "nso":
        return lambda block, js, c: [detect_nso(block[j], j, c, plan, offsets, cfg) for j in js]
    if variant == "so":
        return lambda block, js, c: [detect_so(block[j], j, c, plan, offsets, cfg, code=code) for j in js]
    raise ValueError(f"unknown offset variant {variant!r}")
