"""Bin classification: zero-ton / single-ton / multi-ton tests.

Two detectors share one array contract, and each classifies a batch of
bins in one call:

    detect_*_many(cols, js, c, plan, offsets, cfg) -> (live, k_words, values, single)

Row i of ``cols`` is the (P,) column of group c's bin ``js[i]`` (an
integer array); the caller selects the rows. ``live`` indexes the rows
above the noise level, in increasing order; every other row is a
zero-ton. For row ``live[i]`` the detector returns its candidate index
``k_words[i]`` (uint64), the candidate's value ``values[i]`` and whether
it verified, ``single[i]``. A live row that did not verify is a
multi-ton. ``DETECTORS`` holds the detector of each variant. The
one-column ``detect_*`` functions are the one-row case, returned as a
:class:`Detection`.

The coded detector serves noiseless, NSO and SO: each reads the code
bit of row g as the sgn of u[d xor g] u[d] summed over the bases d,
and the variants differ only in their bases and code rows (the zero
base and the identity code; random bases and the identity code; the
zero base and the (3,6) LDPC code, bit flipping). The near-linear
detector scores every candidate in the bin's hash coset
with one matrix product (a coset is an affine subspace, so its signature
correlations are a Walsh-Hadamard transform of the column, whose sign
kernel factors into a high and a low half, see
``kernels.singleton_search``).

Both decide with one test, as SPRIGHT and SparseFHT do: is the mean
square of every row a bin stores at the noise level, before (zero-ton)
and after (single-ton) removing one candidate? The level
(:func:`tested`) is max((1 + gamma) nu^2, zero_tol^2) for a layout with
random ``verify`` rows; the noiseless layout has none and tests at the
round-off level zero_tol^2, so under noise it finds no single-ton, and
the decoder's stall flag, at the same level, fails it loudly. Anything
failing verification is a multi-ton: multi-tons need no action during
peeling, so erring toward them only delays recovery, never corrupts it.

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
    """Thresholds of the bin test over every row of a bin, which the
    detectors and the decoder's stall flag share (:func:`tested`).

    ``gamma`` is the verification slack (must sit in (0, SNR/2));
    ``nu2`` the per-entry bin noise variance N sigma^2 / B; ``rho`` the
    constellation amplitude. ``zero_tol`` is the one round-off level, of
    the bin test and of the peeled values; ``constellation`` says
    whether values are +/-``rho`` or continuous. :meth:`for_noise`
    derives the thresholds from the noise level.
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
                  scale: float, constellation: bool = True) -> "DetectorConfig":
        """Thresholds for B = ``bins`` bins of N = 2^n samples with noise
        ``sigma`` at linear SNR ``snr_linear`` (None: noise-free): nu^2 =
        N sigma^2 / B, gamma from :meth:`default_gamma` (1 when
        noise-free), and zero_tol = 1e-9 ``scale`` for round-off.

        ``scale`` is the largest |value| of the observations. The
        orthonormal transforms and the peels keep round-off within a few
        ulps of the values they combine, so 1e-9 ``scale`` sits far above
        it and, whatever N, far below a single-ton's value. A tolerance of
        1e-9 sqrt(N) rho outgrows a single-ton's value once n >= 60."""
        return cls(gamma=1.0 if snr_linear is None else cls.default_gamma(snr_linear),
                   nu2=(1 << n) * sigma * sigma / bins, rho=rho,
                   constellation=constellation, zero_tol=1e-9 * scale)

    @property
    def noise_level(self) -> float:
        """max((1 + gamma) nu^2, zero_tol^2): the largest mean energy of
        a bin's rows that the detectors read as noise; a noise-free run
        tests at the round-off level."""
        return max((1.0 + self.gamma) * self.nu2, self.zero_tol**2)


def crossover_bound(eta: float, snr_linear: float) -> float:
    """Upper bound exp(-eta SNR / 2) on the sign-flip probability of a
    noisy single-ton observation."""
    if eta <= 0 or snr_linear <= 0:
        raise ValueError("eta and SNR must be positive")
    return math.exp(-0.5 * eta * snr_linear)


def tested(offsets, cfg: DetectorConfig) -> float:
    """The level of the mean energy of a bin's rows, every row it stores:
    ``cfg.noise_level`` for a layout with random ``verify`` rows or, for
    the noiseless layout, which has none, the round-off level zero_tol^2.
    ``peeling.decode`` flags a stall at the same level."""
    v0, v1 = offsets.layout["verify"]
    return cfg.noise_level if v1 > v0 else cfg.zero_tol**2


def _within_noise(u: np.ndarray, level: float):
    """Per row of ``u``: is the mean energy at most ``level``?"""
    return np.mean(u * u, axis=-1) <= level


def _confirm(u: np.ndarray, offset_words: np.ndarray, level: float, k_words: np.ndarray, cfg: DetectorConfig):
    """Values and single-ton flags of the candidate indices ``k_words``,
    from every row ``u`` of their bins, read at the offsets
    ``offset_words``. A candidate's value comes from its signature
    correlation s.u: +/-rho by its sign when ``cfg.constellation``,
    otherwise its mean (the least-squares value). It is a single-ton when
    the residual u - value s is within ``level``."""
    signs = kernels.sign_matrix(k_words, offset_words)
    # a stack of row-by-column products sums each row as one vector dot does
    score = np.matmul(signs[:, None, :], u[:, :, None])[:, 0, 0]
    values = np.where(score >= 0, cfg.rho, -cfg.rho) if cfg.constellation else score / len(offset_words)
    single = _within_noise(u - values[:, None] * signs, level)
    return values, single


def detect_coded_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Decode each bin's index from its code rows' correlations with its bases.

    The offsets carry the layout of :func:`frontend.build_offsets`: the
    ``verify`` rows, the ``bases`` d_p and the ``code`` block, where row
    (p, q) is d_p xor g_q. For a single-ton k of value a, u[d_p xor g_q]
    u[d_p] is a^2 (-1)^<g_q, k> plus noise. A bin is a zero-ton when its
    rows are within the level of :func:`tested`. For any other bin, code
    bit q is the sgn of that product summed over the bases (a strong base
    weighs more than a weak one), and the codeword decodes to the index:
    the identity code ORs the stored unit rows g_q of the set bits with
    ``offsets.known[c, j]``, the bits bin j fixes (NSO's, of the unit rows
    in colspan(M_c) it leaves out), and ``offsets.code`` goes through
    :func:`codes.bitflip_decode_many`. A decoded index is a single-ton
    when it hashes to its bin and :func:`_confirm` passes it on every
    row; a bin whose word does not decode is a multi-ton.
    """
    level = tested(offsets, cfg)
    b0, b1 = offsets.layout["bases"]
    c0, c1 = offsets.layout["code"]
    live = np.flatnonzero(~_within_noise(cols, level))
    u, js = cols[live], js[live]
    block = u[:, c0:c1].reshape(len(live), b1 - b0, (c1 - c0) // (b1 - b0))
    bits = np.einsum("mpq,mp->mq", block, u[:, b0:b1]) < 0
    if offsets.code is None:
        # the identity code: every word decodes
        k_words, ok = bits @ offsets.code_rows[c] | offsets.known[c, js], slice(None)
    else:
        k_words, ok = codes.bitflip_decode_many(offsets.code, bits)
    values, single = np.zeros(len(live)), np.zeros(len(live), dtype=bool)
    values[ok], single[ok] = _confirm(u[ok], offsets.groups[c], level, k_words[ok], cfg)
    return live, k_words, values, single & (plan.bins_of_many(c, k_words).astype(np.int64) == js)


def _one_row(detect, u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The detection of one column ``u`` of bin ``j_word`` by a batched detector."""
    live, k_words, values, single = detect(np.array([u], dtype=float), np.array([j_word]), c, plan, offsets, cfg)
    if not len(live):
        return _ZERO
    return Detection(SINGLE_TON, k_words[0].item(), values[0].item()) if single[0] else _MULTI


def detect_noiseless(u: np.ndarray, j_word: int, c: int, plan, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_coded_many` on the noiseless offsets."""
    from . import frontend

    offsets = frontend.build_offsets(frontend.design("noiseless", plan.n, plan.bins), plan)
    return _one_row(detect_coded_many, u, j_word, c, plan, offsets, cfg)


def detect_nso(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_coded_many`, for NSO or SO offsets."""
    return _one_row(detect_coded_many, u, j_word, c, plan, offsets, cfg)


# perfbench times the one-column detectors by these names
detect_so = detect_nso


def detect_near_linear_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Matched-filter search over the hash cosets of the bins.

    A bin is a zero-ton when its rows, all of them ``verify`` rows, are
    within the level of :func:`tested`. Every other bin takes its best
    coset candidate from one batched ``kernels.singleton_search``, which
    :func:`_confirm` checks on the same rows.
    """
    level = tested(offsets, cfg)
    live = np.flatnonzero(~_within_noise(cols, level))
    u, offset_words, js = cols[live], offsets.groups[c], js[live]
    part = plan.particular_words(c)[js]
    idx, _ = kernels.singleton_search(u, offset_words, plan.coset_basis(c), part)
    k_words = part ^ plan.coset_span(c)[idx]
    return live, k_words, *_confirm(u, offset_words, level, k_words, cfg)


def detect_near_linear(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_near_linear_many`."""
    return _one_row(detect_near_linear_many, u, j_word, c, plan, offsets, cfg)


DETECTORS = {
    "noiseless": detect_coded_many,
    "near-linear": detect_near_linear_many,
    "nso": detect_coded_many,
    "so": detect_coded_many,
}
