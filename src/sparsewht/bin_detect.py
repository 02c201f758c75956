"""Bin classification: zero-ton / single-ton / multi-ton tests.

The four variants share one array contract, and each classifies a batch
of bins in one call:

    detect_<variant>_many(cols, js, c, plan, offsets, cfg) -> (live, k_words, values, single)

Row i of ``cols`` is the (P,) column of group c's bin ``js[i]`` (an
integer array); the caller selects the rows. ``live`` indexes the rows
above the noise level, in increasing order; every other row is a
zero-ton. For row ``live[i]`` the detector returns its candidate index
``k_words[i]`` (uint64), the candidate's value ``values[i]`` and whether
it verified, ``single[i]``. A live row that did not verify is a
multi-ton. ``DETECTORS`` holds the four functions by variant. The
one-column ``detect_*`` functions are the one-row case, returned as a
:class:`Detection`.

The noiseless detector reads the index bits from sign ratios against the
zero-offset reference row (it takes ``offsets`` only to share the
signature). The near-linear detector scores every candidate in the bin's
hash coset with one small Walsh-Hadamard transform (a coset is an affine
subspace, so its signature correlations are a transform of the column,
see ``kernels.singleton_search``). The two structured variants recover
the index through repetition voting over an (m, P1, n) sign array or
through batched channel decoding, then check the hashes and verify with
the random rows. Anything failing verification is classified multi-ton:
multi-tons need no action during peeling, so erring toward them only
delays recovery, never corrupts it.

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

# a noiseless single-ton's ratios u_t / u_0 are +/-1 up to rounding
RATIO_TOL = 1e-6


@dataclass(frozen=True)
class Detection:
    kind: str
    index: int | None = None
    value: float | None = None


_ZERO = Detection(ZERO_TON)
_MULTI = Detection(MULTI_TON)


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds shared by the detectors and the decoder's stall flag.

    ``gamma`` is the verification slack (must sit in (0, SNR/2));
    ``nu2`` the per-entry bin noise variance N sigma^2 / B; ``rho`` the
    constellation amplitude. ``zero_tol`` serves the exact noiseless
    tests; ``constellation`` says whether values are +/-``rho`` or
    continuous. :meth:`for_noise` derives the thresholds from the noise
    level.
    """

    gamma: float = 1.0
    nu2: float = 0.0
    rho: float = 1.0
    constellation: bool = True
    zero_tol: float = 0.0

    @staticmethod
    def default_gamma(snr_linear: float) -> float:
        # centered inside the valid window (0, SNR/2)
        return min(1.0, snr_linear / 4.0)

    @classmethod
    def for_noise(cls, n: int, bins: int, sigma: float, rho: float, snr_linear: float | None,
                  constellation: bool = True) -> "DetectorConfig":
        """Thresholds for B = ``bins`` bins of N = 2^n samples with noise
        ``sigma`` at linear SNR ``snr_linear`` (None: noise-free): nu^2 =
        N sigma^2 / B floored at (1e-9 rho)^2, gamma from :meth:`default_gamma`
        (1 when noise-free), and zero_tol = 1e-9 sqrt(N) rho for round-off."""
        size = 1 << n
        return cls(gamma=1.0 if snr_linear is None else cls.default_gamma(snr_linear),
                   nu2=max(size * sigma * sigma / bins, (1e-9 * rho) ** 2), rho=rho,
                   constellation=constellation, zero_tol=1e-9 * math.sqrt(size) * rho)

    @property
    def zero_ton_level(self) -> float:
        """The larger zero-ton level of mean bin energy: (1 + gamma) nu^2
        (robust detectors) or zero_tol^2 (noiseless); ``decode``'s stall level."""
        return max((1.0 + self.gamma) * self.nu2, self.zero_tol**2)


def sgn(x: float) -> int:
    return 1 if x < 0 else 0


def crossover_bound(eta: float, snr_linear: float) -> float:
    """Upper bound exp(-eta SNR / 2) on the sign-flip probability of a
    noisy single-ton observation."""
    if eta <= 0 or snr_linear <= 0:
        raise ValueError("eta and SNR must be positive")
    return math.exp(-0.5 * eta * snr_linear)


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
    return _within_noise(u - values[..., None] * signs, cfg)


def _confirm(u: np.ndarray, rows: np.ndarray, k_words: np.ndarray, js: np.ndarray, c: int, plan,
             cfg: DetectorConfig):
    """Values and single-ton flags of the candidates ``k_words`` for the
    columns ``u`` (one row each) of the bins ``js``: a candidate is a
    single-ton when it hashes back to its bin and the residual after
    removing it stays within the noise level."""
    signs = kernels.sign_matrix(k_words, rows)
    # a stack of row-by-column products sums each row as one vector dot does
    score = np.matmul(signs[:, None, :], u[:, :, None])[:, 0, 0]
    values = _estimate_value(score, len(rows), cfg)
    single = (plan.bins_of_many(c, k_words).astype(np.int64) == js) & _verified(u, signs, values, cfg)
    return values, single


def _as_detection(result) -> Detection:
    """The detection of the one row a batched detector was given."""
    live, k_words, values, single = result
    if not len(live):
        return _ZERO
    return Detection(SINGLE_TON, k_words[0].item(), values[0].item()) if single[0] else _MULTI


def detect_noiseless_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Ratio tests against the zero-offset reference row.

    Expects the noiseless offset layout: row 0 is the reference, rows
    1..n are the unit offsets, so sgn(u_t) xor sgn(u_0) is bit t of k.
    A column within ``zero_tol`` everywhere is a zero-ton. A single-ton
    needs a reference outside ``zero_tol``, every ratio u_t / u_0 within
    ``RATIO_TOL`` of +/-1 and an index that hashes back to its bin; its
    value is the reference row's.
    """
    tol = cfg.zero_tol
    live = np.flatnonzero(~np.all(np.abs(cols) <= tol, axis=1))
    u = cols[live]
    ref = u[:, 0]
    single = np.abs(ref) > tol
    # a reference within zero_tol already fails; divide those rows by 1 instead
    ratios = u[:, 1:] / np.where(single, ref, 1.0)[:, None]
    single &= ~np.any(np.abs(np.abs(ratios) - 1.0) > RATIO_TOL, axis=1)
    neg = u < 0
    k_words = kernels.pack_rows(neg[:, 1:] ^ neg[:, :1])
    single &= plan.bins_of_many(c, k_words).astype(np.int64) == js[live]
    return live, k_words, ref, single


def detect_noiseless(u: np.ndarray, j_word: int, c: int, plan, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_noiseless_many`."""
    return _as_detection(detect_noiseless_many(np.array([u], dtype=float), np.array([j_word]), c, plan, None, cfg))


def detect_nso_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Majority vote per index bit over the modulated offset blocks.

    Columns have P1 + P1 n rows. A bin whose P1 base rows are within
    (1 + gamma) nu^2 is a zero-ton. For any other bin, bit q of the index
    is set when more than half of the base rows change sign under the
    unit offset e_q; the index must hash back to its bin and leave a
    residual within the same level on the base rows.
    """
    p1, n = offsets.layout["base"][1], plan.n
    live = np.flatnonzero(~_within_noise(cols[:, :p1], cfg))
    # sign copies only: the modulated rows are read as P1 x n bool blocks
    neg = (cols < 0)[live]
    votes = (neg[:, p1:].reshape(-1, p1, n) ^ neg[:, :p1, None]).sum(axis=1)
    k_words = kernels.pack_rows(2 * votes > p1)
    values, single = _confirm(cols[live, :p1], offsets.rows_u64(c)[:p1], k_words, js[live], c, plan, cfg)
    return live, k_words, values, single


def detect_nso(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_nso_many`."""
    return _as_detection(detect_nso_many(np.array([u], dtype=float), np.array([j_word]), c, plan, offsets, cfg))


def detect_so_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Channel-decode the coded offset signs, after removing the sign
    reference read from the zero-offset row.

    A bin whose random rows are within (1 + gamma) nu^2 is a zero-ton.
    Every other bin's coded signs, flipped by the sign of its zero-offset
    row, go through one batched :func:`codes.bitflip_decode_many` with
    ``offsets.code``; a decoded index must hash back to its bin and leave
    a residual within the same level on the random rows.
    """
    code = offsets.code
    r0, r1 = offsets.layout["random"]
    c0, c1 = offsets.layout["coded"]
    live = np.flatnonzero(~_within_noise(cols[:, r0:r1], cfg))
    u = cols[live]
    neg = u < 0
    ref = neg[:, offsets.layout["reference"]]
    bits, decoded = codes.bitflip_decode_many(code, neg[:, c0:c1] ^ ref[:, None])
    k_words = kernels.pack_rows(bits[:, : code.n_info])
    values, single = _confirm(u[:, r0:r1], offsets.rows_u64(c)[r0:r1], k_words, js[live], c, plan, cfg)
    return live, k_words, values, decoded & single


def detect_so(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_so_many`."""
    return _as_detection(detect_so_many(np.array([u], dtype=float), np.array([j_word]), c, plan, offsets, cfg))


def detect_near_linear_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Matched-filter search over the hash cosets of the bins.

    Rows whose energy is within (1 + gamma) nu^2 are zero-tons. Every
    other row takes its best coset candidate from one batched
    ``kernels.singleton_search`` and is a single-ton only if the residual
    after removing that candidate stays within the same level.
    """
    live = np.flatnonzero(~_within_noise(cols, cfg))
    u = cols[live]
    rows = offsets.rows_u64(c)
    part = plan.particular_words(c)[js[live]]
    idx, score = kernels.singleton_search(u, rows, plan.coset_basis(c), part)
    k_words = part ^ plan.coset_span(c)[idx]
    values = _estimate_value(score, len(rows), cfg)
    return live, k_words, values, _verified(u, kernels.sign_matrix(k_words, rows), values, cfg)


def detect_near_linear(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_near_linear_many`."""
    return _as_detection(detect_near_linear_many(np.array([u], dtype=float), np.array([j_word]), c, plan, offsets, cfg))


DETECTORS = {
    "noiseless": detect_noiseless_many,
    "near-linear": detect_near_linear_many,
    "nso": detect_nso_many,
    "so": detect_so_many,
}
