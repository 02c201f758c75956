"""Random sparse-spectrum ensemble and noisy query access to time samples.

The ensemble draws K distinct support indices uniformly (exact-K
sparsity; independent draws could collide and silently reduce sparsity)
and, in the default constellation mode, coefficient values +/-rho with
equal probability. Noise attaches to the sample, not the query: a
position read twice returns one consistent realization.

Every sample oracle answers ``take_cosets(cols, rows)``, the (B, P) block
of samples u[M l + d], and ``samples_queried``, the distinct positions
read so far. An oracle that logs its reads as a sorted array of distinct
words merges each read into it with :func:`merge_reads`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf2, kernels
from .fwht import synthesize_many

_DENSE_NOISE_LIMIT = 24  # full-array noise cache; 2^24 doubles = 128 MiB


@dataclass
class SparseSpectrum:
    """Map from packed index word to nonzero coefficient value."""

    n: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        limit = 1 << self.n
        clean = {}
        for k, v in self.entries.items():
            k = int(k)
            if not 0 <= k < limit:
                raise ValueError(f"index {k} out of range for n={self.n}")
            if v != 0.0:
                clean[k] = float(v)
        self.entries = clean

    @property
    def sparsity(self) -> int:
        return len(self.entries)

    def support(self) -> set:
        return set(self.entries)

    def as_arrays(self):
        if not self.entries:
            return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.float64)
        words = np.fromiter(self.entries.keys(), dtype=np.uint64, count=len(self.entries))
        values = np.fromiter(self.entries.values(), dtype=np.float64, count=len(self.entries))
        return words, values

    def save(self, path) -> None:
        """Text format: header ``n=<n> K=<K>``, then one
        ``<bitstring> <value>`` line per entry (bitstring MSB first)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n={self.n} K={self.sparsity}\n")
            for k in sorted(self.entries):
                fh.write(f"{format(k, f'0{self.n}b')} {self.entries[k]!r}\n")

    @classmethod
    def load(cls, path) -> "SparseSpectrum":
        """Read the :meth:`save` format; a malformed line raises ValueError
        naming the file and the line."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            try:
                meta = dict(item.split("=") for item in header.split())
                n = gf2.check_bits(int(meta["n"]))
                declared = int(meta["K"]) if "K" in meta else None
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path} line 1: expected 'n=<n> K=<K>' with 1 <= n <= {gf2.MAX_BITS}, "
                                 f"got {header.strip()!r}") from exc
            entries = {}
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    bits, value = line.split()
                    k = int(bits, 2)
                    if k >> n:
                        raise ValueError(f"index exceeds n={n} bits")
                    entries[k] = float(value)
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: expected '<{n}-bit string> <value>', "
                                     f"got {line.strip()!r}") from exc
        spec = cls(n, entries)
        if declared is not None and spec.sparsity != declared:
            raise ValueError(f"{path}: {spec.sparsity} nonzero entries, header says K={declared}")
        return spec


def draw_spectrum(n: int, k: int, rho: float, rng, constellation: bool = True) -> SparseSpectrum:
    """K distinct uniform support indices with +/-rho (or continuous) values."""
    size = 1 << gf2.check_bits(n)
    if not 0 <= k <= size:
        raise ValueError(f"K={k} exceeds 2^n={size}")
    if rho <= 0:
        raise ValueError("rho must be positive")
    if n <= 25:
        support = rng.choice(size, size=k, replace=False)
    else:
        chosen = set()
        while len(chosen) < k:
            draw = rng.integers(0, size, size=k - len(chosen), dtype=np.int64)
            chosen.update(int(x) for x in draw)
        support = np.fromiter(chosen, dtype=np.int64, count=k)
    if constellation:
        values = rho * (1.0 - 2.0 * rng.integers(0, 2, size=k))
    else:
        # continuous-amplitude mode: magnitude uniform in [rho/2, 3 rho/2]
        values = rng.uniform(rho / 2, 3 * rho / 2, size=k) * (1.0 - 2.0 * rng.integers(0, 2, size=k))
    return SparseSpectrum(n, dict(zip((int(s) for s in support), values)))


def sigma_for_snr(rho: float, k: int, total: int, snr_linear: float) -> float:
    """Noise sigma so that rho^2 / (sigma^2 N / K) equals the target SNR."""
    if min(rho, k, total, snr_linear) <= 0:
        raise ValueError(f"rho, K, N and SNR must be positive, got {rho}, {k}, {total}, {snr_linear}")
    return rho * math.sqrt(k / (total * snr_linear))


def snr_from_db(snr_db: float) -> float:
    return 10.0 ** (snr_db / 10.0)


def merge_reads(log: np.ndarray, positions) -> tuple:
    """Merge the read ``positions`` into ``log``, the sorted distinct words
    read so far, without changing ``log``.

    Returns ``(words, at, fresh)``: the new log, the slot in it of each
    position in ``positions.reshape(-1)`` order, and a mask over ``words``
    of the words not in ``log``. One sort dedupes the positions; one
    stable argsort of the log and the distinct words, two sorted runs that
    timsort merges, lays them into one log, where a word in both keeps the
    log's copy.
    """
    distinct, inverse = np.unique(np.asarray(positions, dtype=np.uint64).reshape(-1), return_inverse=True)
    both = np.concatenate([log, distinct])
    order = np.argsort(both, kind="stable")
    merged = both[order]
    keep = np.ones(len(merged), dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=keep[1:])
    slots = np.empty(len(both), dtype=np.intp)
    slots[order] = np.cumsum(keep) - 1
    return merged[keep], slots[len(log):][inverse], (order >= len(log))[keep]


class NoisyAccess:
    """Noise-corrupted sample access u[m] = x[m] + w[m], w ~ N(0, sigma^2).

    ``take_cosets`` reads whole coset blocks u[M l + d] for all l through
    the aliasing identity: the B samples of one offset row d are the
    B-point unnormalized WHT of the alias vector
    a_d[j] = sum_{M^T k = j} X[k] (-1)^<d,k>, divided by sqrt(N), so a row
    costs O(K + B log B) rather than O(B K). ``take`` reads arbitrary
    positions, synthesizing each in O(K). Both read paths agree (exactly
    for constellation values) and share the noise and the read accounting.

    The full noise realization is drawn lazily from the seeded generator,
    so repeated queries of one position agree and results do not depend
    on query order. Reads are counted in a 2^n bitmap for n up to 24 and,
    above that, where only noiseless reads are allowed, in a sorted read
    log (:func:`merge_reads`). Either refuses a position with a bit at or
    above n and leaves the count as it was. Single-writer: concurrent
    experiments should use independent instances with independent seeds.
    """

    def __init__(self, spectrum: SparseSpectrum, sigma: float, rng):
        gf2.check_bits(spectrum.n)
        if sigma < 0:
            raise ValueError("sigma must be nonnegative")
        if sigma > 0 and spectrum.n > _DENSE_NOISE_LIMIT:
            raise ValueError(f"noise cache supports n <= {_DENSE_NOISE_LIMIT}")
        self.spectrum = spectrum
        self.sigma = float(sigma)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._noise = None
        self._queried = np.zeros(1 << spectrum.n, dtype=bool) if spectrum.n <= _DENSE_NOISE_LIMIT else None
        self._log = np.zeros(0, dtype=np.uint64)

    @property
    def n(self) -> int:
        return self.spectrum.n

    def _noise_array(self) -> np.ndarray:
        if self._noise is None:
            self._noise = self.sigma * self._rng.standard_normal(1 << self.n)
        return self._noise

    def prepare(self) -> None:
        """Materialize the noise realization up front (keeps it out of
        timed observation/decoding sections)."""
        if self.sigma > 0:
            self._noise_array()

    def _read(self, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Add the noise at ``positions`` to the clean ``values`` (same
        shape) in place and record the positions as read."""
        at = positions.astype(np.intp)
        if self.sigma > 0:
            values += self._noise_array()[at]
        if self._queried is not None:
            self._queried[at] = True
        else:
            words = merge_reads(self._log, positions)[0]
            if len(words) and words[-1] >> self.n:
                raise ValueError(f"position {int(words[-1])} has a bit at or above n={self.n}")
            self._log = words
        return values

    def take(self, positions) -> np.ndarray:
        """Vectorized sample reads at packed index words."""
        positions = np.asarray(positions, dtype=np.uint64)
        return self._read(positions, synthesize_many(self.spectrum, positions))

    def take_cosets(self, cols, rows) -> np.ndarray:
        """The (B, P) block of samples u[M l + d] for the b column words
        ``cols`` of M and the P offset words ``rows``.

        Row l is ordered by the word of l, as in ``gf2.span_words``;
        column p holds offset ``rows[p]``. The block is C-contiguous
        float64 and the caller's to keep.
        """
        cols = np.asarray(cols, dtype=np.uint64)
        rows = np.asarray(rows, dtype=np.uint64)
        p, bins = len(rows), 1 << len(cols)
        k_words, values = self.spectrum.as_arrays()
        if len(k_words):
            # alias[j, p] sums the signed coefficients X[k] (-1)^<d_p,k> of every k hashing to j
            signed = kernels.sign_matrix(k_words, rows) * values[:, None]
            cells = kernels.hash_words(k_words, cols).astype(np.intp)[:, None] * p + np.arange(p)
            # bincount of no cells is int64 whatever the weights
            alias = np.bincount(cells.reshape(-1), weights=signed.reshape(-1), minlength=bins * p)
            alias = alias.astype(np.float64, copy=False)
            block = kernels.fwht_rows_inplace(alias.reshape(bins, p))
            block /= math.sqrt(2.0**self.n)
        else:
            block = np.zeros((bins, p), dtype=np.float64)
        positions = gf2.span_words(cols.tolist())[:, None] ^ rows[None, :]
        return self._read(positions, block)

    @property
    def samples_queried(self) -> int:
        """Distinct positions read so far (shared samples counted once)."""
        if self._queried is not None:
            return int(np.count_nonzero(self._queried))
        return len(self._log)
