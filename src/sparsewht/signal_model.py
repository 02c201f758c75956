"""Random sparse-spectrum ensemble and noisy query access to time samples.

The ensemble draws K distinct support indices uniformly (exact-K
sparsity; independent draws could collide and silently reduce sparsity)
and, in the default constellation mode, coefficient values +/-rho with
equal probability. Noise attaches to the sample, not the query: a
position read twice returns one consistent realization.

Every sample oracle answers ``take_cosets(cols, rows)``, the (C, B, P)
tensor of samples u[M_c l + d_{c,p}] of C groups, and
``samples_queried``, the distinct positions read so far. An oracle that
logs its reads as a sorted array of distinct words merges each read into
it with :func:`merge_reads`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf2, kernels

_DENSE_NOISE_LIMIT = 24  # full-array noise cache; 2^24 doubles = 128 MiB


@dataclass
class SparseSpectrum:
    """Map from packed index word to nonzero coefficient value; a value
    that is not finite is refused."""

    n: int
    entries: dict = field(default_factory=dict)

    def __post_init__(self):
        limit = 1 << self.n
        clean = {}
        for k, v in self.entries.items():
            k = int(k)
            if not 0 <= k < limit:
                raise ValueError(f"index {k} out of range for n={self.n}")
            v = float(v)
            if not math.isfinite(v):
                raise ValueError(f"value {v} at index {k} is not finite")
            if v != 0.0:
                clean[k] = v
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
        """Read the :meth:`save` format; a malformed line, a value that is
        not finite or an index that repeats raises ValueError naming the
        file and the line (both lines, for a repeat)."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            try:
                meta = dict(item.split("=") for item in header.split())
                n = gf2.check_bits(int(meta["n"]))
                declared = int(meta["K"]) if "K" in meta else None
            except (KeyError, ValueError) as exc:
                raise ValueError(f"{path} line 1: expected 'n=<n> K=<K>' with 1 <= n <= {gf2.MAX_BITS}, "
                                 f"got {header.strip()!r}") from exc
            entries, first_line = {}, {}
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    bits, value = line.split()
                    if len(bits) != n or not set(bits) <= {"0", "1"}:
                        raise ValueError(f"index is not {n} characters of 0 and 1")
                    k = int(bits, 2)
                    entries[k] = float(value)
                    if not math.isfinite(entries[k]):
                        raise ValueError("value is not finite")
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: expected '<{n}-bit string> <finite value>', "
                                     f"got {line.strip()!r}") from exc
                if k in first_line:
                    raise ValueError(f"{path} lines {first_line[k]} and {lineno}: index {bits} repeats")
                first_line[k] = lineno
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


def synthesize_many(spectrum, m_words) -> np.ndarray:
    """Time-domain samples of a sparse spectrum at the given positions.

    Costs O(K) per position and never materializes all N samples; the
    spectrum only needs ``n`` and ``as_arrays()``.
    """
    m_words = np.atleast_1d(np.asarray(m_words, dtype=np.uint64))
    k_words, values = spectrum.as_arrays()
    if len(k_words) == 0:
        return np.zeros(len(m_words), dtype=np.float64)
    signs = kernels.sign_matrix(m_words, k_words)
    return (signs @ values) / math.sqrt(2.0**spectrum.n)


def merge_reads(log: np.ndarray, positions) -> tuple:
    """Merge the read ``positions`` into ``log``, the sorted distinct words
    read so far, without changing ``log``.

    Returns ``(words, at, fresh)``: the new log, the slot in it of each
    position in ``positions.reshape(-1)`` order, and a mask over ``words``
    of the words not in ``log``. One sort of the log and the positions
    together dedupes them into the new log; its inverse gives every slot,
    and the log's own slots are the words that are not fresh.
    """
    words, inverse = np.unique(np.concatenate([log, np.asarray(positions, dtype=np.uint64).reshape(-1)]),
                               return_inverse=True)
    fresh = np.ones(len(words), dtype=bool)
    fresh[inverse[:len(log)]] = False
    return words, inverse[len(log):], fresh


class NoisyAccess:
    """Noise-corrupted sample access u[m] = x[m] + w[m], w ~ N(0, sigma^2).

    ``take_cosets`` reads whole coset blocks u[M_c l + d] for all l through
    the aliasing identity: the B samples of one offset row d are the
    B-point unnormalized WHT of the alias vector
    a_d[j] = sum_{M_c^T k = j} X[k] (-1)^<d,k>, divided by sqrt(N), so a
    row costs O(K + B log B) rather than O(B K). ``take`` reads arbitrary
    positions, synthesizing each in O(K). Both read paths agree (exactly
    for constellation values) and share the noise and the read accounting.

    The full noise realization is drawn lazily from the seeded generator,
    so repeated queries of one position agree and results do not depend
    on query order. Reads are counted in a 2^n bitmap for n up to 24 and,
    above that, where only noiseless reads are allowed, in a sorted read
    log (:func:`merge_reads`). A position with a bit at or above n is
    refused before any noise or count is touched. Single-writer:
    concurrent experiments should use independent instances and seeds.
    """

    def __init__(self, spectrum: SparseSpectrum, sigma: float, rng):
        gf2.check_bits(spectrum.n)
        if not 0 <= sigma < math.inf:
            raise ValueError(f"sigma must be a finite nonnegative number, got {sigma}")
        if sigma > 0 and spectrum.n > _DENSE_NOISE_LIMIT:
            raise ValueError(f"noise cache supports n <= {_DENSE_NOISE_LIMIT}")
        self.spectrum = spectrum
        self.sigma = float(sigma)
        self._rng = np.random.default_rng(rng)
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
        if positions.size and int(positions.max()) >> self.n:
            raise ValueError(f"position {int(positions.max())} has a bit at or above n={self.n}")
        at = positions.astype(np.intp)
        if self.sigma > 0:
            values += self._noise_array()[at]
        if self._queried is not None:
            self._queried[at] = True
        else:
            self._log = merge_reads(self._log, positions)[0]
        return values

    def take(self, positions) -> np.ndarray:
        """Vectorized sample reads at packed index words."""
        positions = np.asarray(positions, dtype=np.uint64)
        return self._read(positions, synthesize_many(self.spectrum, positions))

    def take_cosets(self, cols, rows) -> np.ndarray:
        """The (C, B, P) tensor of samples u[M_c l + d_{c,p}] for the
        (C, b) column words ``cols`` of the M_c and the (C, P) offset
        words ``rows``.

        Row l of group c is ordered by the word of l, as in
        ``gf2.span_words``; column p holds offset ``rows[c, p]``. The
        tensor is C-contiguous float64 and the caller's to keep.
        """
        cols = np.asarray(cols, dtype=np.uint64)
        rows = np.asarray(rows, dtype=np.uint64)
        # alias[c, j, p] sums the signed coefficients X[k] (-1)^<d_{c,p},k> of every k hashing to j
        alias = np.zeros((len(cols), 1 << cols.shape[1], rows.shape[1]), dtype=np.float64)
        kernels.scatter_signed(alias, *self.spectrum.as_arrays(), cols, rows)
        block = kernels.fwht_rows_inplace(alias)
        block /= math.sqrt(2.0**self.n)
        positions = gf2.span_words(cols)[:, :, None] ^ rows[:, None, :]
        return self._read(positions, block)

    @property
    def samples_queried(self) -> int:
        """Distinct positions read so far (shared samples counted once)."""
        if self._queried is not None:
            return int(np.count_nonzero(self._queried))
        return len(self._log)
