"""Bin classification: zero-ton / single-ton / multi-ton tests.

A bin's rows are triaged once by their mean energy E, every row the bin
stores, before any detector runs (:func:`triage`):

- E <= :func:`tested`, the level of the layout: a zero-ton;
- with constellation values, (sqrt(E) - rho)^2 above that level by a
  round-off margin: a multi-ton, since no +/-rho single-ton can pass the
  residual test there (the bound is derived in :func:`triage`);
- every other bin is a candidate, and goes to a detector.

Two detectors share one array contract, and each classifies a batch of
candidate bins in one call:

    detect_*_many(cols, js, c, plan, offsets, cfg) -> (k_words, values, single)

Row i of ``cols`` is the (P,) column of group c's bin ``js[i]`` (an
integer array); the caller selects the rows, and the detector classifies
exactly those. For row i it returns the candidate index ``k_words[i]``
(uint64), the candidate's value ``values[i]`` and whether it verified,
``single[i]``; a row that did not verify is a multi-ton. ``DETECTORS``
holds the detector of each variant, and ``peeling.decode`` hands it the
candidates of :func:`triage`. The one-column ``detect_*`` functions are
the one-row case, triage first, returned as a :class:`Detection`.

The coded detector serves noiseless, NSO and SO: each reads the code
bit of row g as the sgn of u[d xor g] u[d] summed over the bases d,
and the variants differ only in their bases and code rows (the zero
base and the identity code; random bases and the identity code; the
zero base and the (3,6) LDPC code, bit flipping); each stores the
code's systematic rows only at the plan's free bits, whose values and
bin j give the other b bits of the index. The near-linear
detector scores every candidate in the bin's hash coset
with one matrix product (a coset is an affine subspace, so its signature
correlations are a Walsh-Hadamard transform of the column, whose sign
kernel factors into a high and a low half, see
``kernels.singleton_search``).

Every decision is one test, as in SPRIGHT and SparseFHT: is the mean
square of every row a bin stores at the noise level, before (zero-ton)
and after (single-ton) removing one candidate? The level
(:func:`tested`) is max((1 + gamma) nu^2, zero_tol^2) for a layout with
random ``verify`` rows; the noiseless layout has none and tests at the
round-off level zero_tol^2, so under noise it finds no single-ton, and
the decoder's stall flag, at the same level, fails it loudly. The energy
gate of :func:`triage` only skips bins whose residual test would fail,
so it changes no decision. Anything failing verification is a multi-ton:
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


def triage(cols: np.ndarray, level: float, cfg: DetectorConfig):
    """The zero-tons and the gated multi-tons among the bin rows ``cols``,
    from each row's mean energy E over every row the bin stores; returns
    two disjoint boolean masks ``(zero, gated)``. The other rows are the
    candidates a detector classifies.

    A row is a zero-ton when E <= ``level`` (:func:`tested`). With
    ``cfg.constellation`` a single-ton's value v is +/-rho, and for any
    signature s in {+/-1}^P

        mean((u - v s)^2) = E - 2 v mean(u s) + rho^2 >= (sqrt(E) - rho)^2,

    as |mean(u s)| <= sqrt(E mean(s^2)) = sqrt(E) by Cauchy-Schwarz. So
    :func:`_confirm` refuses every candidate of a row whose (sqrt(E) -
    rho)^2 exceeds ``level``, whatever index a detector would find: the row
    is gated, a multi-ton. The gate asks for a margin, level (1 + 1e-9) +
    1e-12 (E + rho^2), over round-off: E, the gap and the residual are
    sums of P squares whose computed values lie within c eps (E + rho^2)
    of the exact ones, with c < 2 P + 10 in any order of summation and of
    order log2 P in numpy's pairwise sums, while 1e-12 is about 4,500 eps.
    A gated row's computed residual therefore exceeds ``level`` too, and
    no decision changes. Continuous values have no such bound, and only the
    zero-tons are sorted out.
    """
    energy = np.mean(cols * cols, axis=-1)
    zero = energy <= level
    if not cfg.constellation:
        return zero, np.zeros_like(zero)
    gap = (np.sqrt(energy) - cfg.rho) ** 2
    return zero, ~zero & (gap > level * (1.0 + 1e-9) + 1e-12 * (energy + cfg.rho**2))


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
    (p, q) is d_p xor g_q for the code rows g_q the group stores. For a
    single-ton k of value a, u[d_p xor g_q] u[d_p] is a^2 (-1)^<g_q, k>
    plus noise. Code bit q is the sgn of that product summed over the
    bases (a strong base weighs more than a weak one). The first n - b
    measured bits, those of the systematic rows at ``plan.free_bits[c]``,
    are k's free bits, and k0 is the word of bin j with them
    (``plan.bin_words``). The identity code returns k0; for
    ``offsets.code`` the received word is the codeword of k0 with the
    measured bits written at the positions ``offsets.stored[c]``, decoded
    through :func:`codes.bitflip_decode_many`. A decoded index is a
    single-ton when it hashes to its bin and :func:`_confirm` passes it on
    every row, at the level of :func:`tested`; a bin whose word does not
    decode is a multi-ton with value 0. Every row given is classified:
    the caller leaves out the rows :func:`triage` sorts out.
    """
    b0, b1 = offsets.layout["bases"]
    c0, c1 = offsets.layout["code"]
    block = cols[:, c0:c1].reshape(len(cols), b1 - b0, (c1 - c0) // (b1 - b0))
    measured = np.einsum("mpq,mp->mq", block, cols[:, b0:b1]) < 0
    k_words, ok = plan.bin_words(c, js, measured[:, :plan.n - plan.b]), slice(None)
    if offsets.code is not None:
        received = kernels.parity_words(offsets.code_words & k_words[:, None])
        received[:, offsets.stored[c]] = measured
        k_words, ok = codes.bitflip_decode_many(offsets.code, received)
    values, single = np.zeros(len(cols)), np.zeros(len(cols), dtype=bool)
    values[ok], single[ok] = _confirm(cols[ok], offsets.groups[c], tested(offsets, cfg), k_words[ok], cfg)
    return k_words, values, single & (plan.bins_of_many(c, k_words).astype(np.int64) == js)


def _one_row(detect, u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The detection of one column ``u`` of bin ``j_word``: :func:`triage`,
    then, for a candidate, the batched detector ``detect``."""
    cols = np.array([u], dtype=float)
    zero, gated = triage(cols, tested(offsets, cfg), cfg)
    if zero[0] or gated[0]:
        return _ZERO if zero[0] else _MULTI
    k_words, values, single = detect(cols, np.array([j_word]), c, plan, offsets, cfg)
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

    Every bin j takes its best candidate in ``plan.particular_words[c, j]``
    xor span(``plan.coset_basis[c]``) from one batched
    ``kernels.singleton_search`` over its rows, all of them ``verify``
    rows, checked by :func:`_confirm` at the level of :func:`tested`.
    Every row given is classified: the caller leaves out the rows
    :func:`triage` sorts out.
    """
    offset_words, basis = offsets.groups[c], plan.coset_basis[c]
    idx, _ = kernels.singleton_search(cols, offset_words, basis, plan.particular_words[c, js])
    k_words = plan.bin_words(c, js, (idx[:, None] >> np.arange(len(basis))) & 1)
    return k_words, *_confirm(cols, offset_words, tested(offsets, cfg), k_words, cfg)


def detect_near_linear(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """The one-column case of :func:`detect_near_linear_many`."""
    return _one_row(detect_near_linear_many, u, j_word, c, plan, offsets, cfg)


DETECTORS = {
    "noiseless": detect_coded_many,
    "near-linear": detect_near_linear_many,
    "nso": detect_coded_many,
    "so": detect_coded_many,
}
