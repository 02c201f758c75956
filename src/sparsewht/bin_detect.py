"""Bin classification: zero-ton / single-ton / multi-ton tests.

A bin's rows are triaged once by their mean energy E, every row the bin
stores, before any index finder runs (:func:`triage`):

- E <= :func:`tested`, the level of the layout: a zero-ton;
- with constellation values, (sqrt(E) - rho)^2 above that level by a
  round-off margin: a multi-ton, since no +/-rho single-ton can pass the
  residual test there (the bound is derived in :func:`triage`);
- every other bin is a candidate, and goes to the variant's finder.

Every bin decision is made by :func:`classify`, on a batch of bin rows
of one group: it triages them, hands the candidates to the index finder
of ``offsets.variant`` (``DETECTORS``) in one call, none when there are
no candidates, and tests each index the finder found with
:func:`_confirm`. The two finders share one array contract:

    detect_*_many(cols, js, c, plan, offsets) -> (k_words, found)

Row i of ``cols`` is the (P,) column of group c's bin ``js[i]`` (an
integer array). For row i a finder proposes the index ``k_words[i]``
(uint64), an index of bin ``js[i]`` wherever ``found[i]`` (a mask, or
``slice(None)`` when every row is found); a row whose index is not found
is a multi-ton with value 0. The one-column ``detect_*`` functions are
:func:`classify` on one row, returned as a :class:`Detection`.

The coded finder serves noiseless, NSO and SO: each reads the code
bit of row g as the sgn of u[d xor g] u[d] summed over the bases d,
and the variants differ only in their bases and code rows (the zero
base and the identity code; random bases and the identity code; the
zero base and the (3,6) LDPC code, bit flipping); each stores the
code's systematic rows only at the plan's free bits, whose values and
bin j give the other b bits of the index. The near-linear
finder scores every candidate in the bin's hash coset
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


def detect_coded_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets):
    """Decode each bin's index from its code rows' correlations with its bases.

    The offsets carry the layout of :func:`frontend.build_offsets`: the
    ``verify`` rows, the ``bases`` d_p and the ``code`` block, where row
    (p, q) is d_p xor g_q for the code rows g_q the group stores. For a
    single-ton k of value a, u[d_p xor g_q] u[d_p] is a^2 (-1)^<g_q, k>
    plus noise. Code bit q is the sgn of that product summed over the
    bases (a strong base weighs more than a weak one). The first n - b
    measured bits, those of the systematic rows at ``plan.free_bits[c]``,
    are k's free bits, and k0 is the word of bin j with them
    (``plan.bin_words``). The identity code returns k0, found on every row;
    for ``offsets.code`` the received word is the codeword of k0 with the
    measured bits written at the positions ``offsets.stored[c]``, decoded
    through :func:`codes.bitflip_decode_many`, and found where it decodes
    to a word that hashes to bin j.
    """
    b0, b1 = offsets.layout["bases"]
    c0, c1 = offsets.layout["code"]
    block = cols[:, c0:c1].reshape(len(cols), b1 - b0, (c1 - c0) // (b1 - b0))
    measured = np.einsum("mpq,mp->mq", block, cols[:, b0:b1]) < 0
    k_words = plan.bin_words(c, js, measured[:, :plan.n - plan.b])
    if offsets.code is None:
        return k_words, slice(None)
    received = kernels.parity_words(offsets.code_words & k_words[:, None])
    received[:, offsets.stored[c]] = measured
    k_words, ok = codes.bitflip_decode_many(offsets.code, received)
    return k_words, ok & (plan.bins_of_many(c, k_words).astype(np.int64) == js)


def classify(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets, cfg: DetectorConfig):
    """Classify the bin rows ``cols`` of group c's bins ``js``, read at
    ``offsets`` (those the observations were generated with), under the
    thresholds ``cfg``: :func:`triage` at the level of :func:`tested`,
    then, for the candidates, one call of the finder of ``offsets.variant``
    (none when there are no candidates) and :func:`_confirm` of every index
    it found. Returns ``(zero, gated, k_words, values, single)``: the two
    triage masks over the rows, then each candidate's index, value and
    verdict, in row order; a candidate that is not a single-ton is a
    multi-ton."""
    level = tested(offsets, cfg)
    zero, gated = triage(cols, level, cfg)
    live = np.flatnonzero(~(zero | gated))
    values, single = np.zeros(len(live)), np.zeros(len(live), dtype=bool)
    if not len(live):
        return zero, gated, np.zeros(0, dtype=np.uint64), values, single
    cols = cols[live]
    k_words, found = DETECTORS[offsets.variant](cols, js[live], c, plan, offsets)
    values[found], single[found] = _confirm(cols[found], offsets.groups[c], level, k_words[found], cfg)
    return zero, gated, k_words, values, single


def _one_row(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """:func:`classify` of one column ``u`` of bin ``j_word``."""
    zero, _, k_words, values, single = classify(np.array([u], dtype=float), np.array([j_word]), c, plan,
                                                offsets, cfg)
    if single.any():
        return Detection(SINGLE_TON, k_words[0].item(), values[0].item())
    return _ZERO if zero[0] else _MULTI


def detect_noiseless(u: np.ndarray, j_word: int, c: int, plan, cfg: DetectorConfig) -> Detection:
    """:func:`classify` of one column on the noiseless offsets."""
    from . import frontend

    offsets = frontend.build_offsets(frontend.design("noiseless", plan.n, plan.bins), plan)
    return _one_row(u, j_word, c, plan, offsets, cfg)


def detect_nso(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """:func:`classify` of one column on NSO or SO offsets."""
    return _one_row(u, j_word, c, plan, offsets, cfg)


# perfbench times the one-column detectors by these names
detect_so = detect_nso


def detect_near_linear_many(cols: np.ndarray, js: np.ndarray, c: int, plan, offsets):
    """Matched-filter search over the hash cosets of the bins.

    Every bin j takes its best candidate in ``plan.particular_words[c, j]``
    xor span(``plan.coset_basis[c]``) from one batched
    ``kernels.singleton_search`` over its rows, all of them ``verify``
    rows; every candidate lies in its bin, so every row is found.
    """
    basis = plan.coset_basis[c]
    idx, _ = kernels.singleton_search(cols, offsets.groups[c], basis, plan.particular_words[c, js])
    return plan.bin_words(c, js, (idx[:, None] >> np.arange(len(basis))) & 1), slice(None)


def detect_near_linear(u: np.ndarray, j_word: int, c: int, plan, offsets, cfg: DetectorConfig) -> Detection:
    """:func:`classify` of one column on near-linear offsets."""
    return _one_row(u, j_word, c, plan, offsets, cfg)


DETECTORS = {
    "noiseless": detect_coded_many,
    "near-linear": detect_near_linear_many,
    "nso": detect_coded_many,
    "so": detect_coded_many,
}
