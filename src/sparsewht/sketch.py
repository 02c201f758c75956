"""Hypergraph sketching from cut queries.

The cut function of a hypergraph, viewed as a signal over vertex-subset
indicators m, has a sparse unnormalized Walsh expansion: a DC term
s - sum_e 2^(1-|e|) and, for every edge e and every nonempty
even-cardinality subset S of e, a coefficient -2^(1-|e|) at the index
supported on S (contributions from overlapping edges accumulate). Cut
values are integers and noiseless, so ``experiments.recover``'s
noiseless pipeline, on a plan of random column words, recovers the
expansion from Theta(K n) queries. The cut oracle is asked once per
distinct position: ``CutQueryAccess`` answers repeats from its sorted
read log and merges each read's fresh words into it with
``signal_model.merge_reads``, the log ``NoisyAccess`` keeps above n = 24.

Vertices are numbered 1..n and vertex i maps to index position i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import frontend, gf2, kernels, peeling
from .experiments import recover
from .signal_model import SparseSpectrum, merge_reads

EDGE_TOL = 1e-9  # largest difference from the edges' analytic spectrum that reconstruct_edges accepts


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple  # frozensets of vertex ids in 1..n

    def __post_init__(self):
        gf2.check_bits(self.n)
        seen = set()
        for e in self.edges:
            problem = _edge_problem(e, self.n, seen)
            if problem:
                raise ValueError(problem)
            seen.add(e)

    @classmethod
    def from_edge_lists(cls, n: int, edges) -> "Hypergraph":
        return cls(n, tuple(frozenset(e) for e in edges))

    def edge_masks(self) -> np.ndarray:
        masks = [sum(1 << (v - 1) for v in e) for e in self.edges]
        return np.array(masks, dtype=np.uint64)

    def save(self, path) -> None:
        """Header ``n=<n>`` then one edge per line as vertex ids."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n={self.n}\n")
            for e in self.edges:
                fh.write(" ".join(str(v) for v in sorted(e)) + "\n")

    @classmethod
    def load(cls, path) -> "Hypergraph":
        """Read the :meth:`save` format; a malformed line raises ValueError
        naming the file and the line."""
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline()
            key, _, value = header.strip().partition("=")
            try:
                if key != "n":
                    raise ValueError("missing n=")
                n = gf2.check_bits(int(value))
            except ValueError as exc:
                raise ValueError(f"{path} line 1: expected 'n=<n>' with 1 <= n <= {gf2.MAX_BITS}, "
                                 f"got {header.strip()!r}") from exc
            edges = []
            seen = set()
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    edge = frozenset(int(v) for v in line.split())
                except ValueError:
                    problem = "vertex ids must be integers"
                else:
                    problem = _edge_problem(edge, n, seen)
                if problem:
                    raise ValueError(f"{path} line {lineno}: {problem}, got {line.strip()!r}")
                seen.add(edge)
                edges.append(edge)
        return cls(n, tuple(edges))


def _edge_problem(edge: frozenset, n: int, seen: set) -> str | None:
    """Why ``edge`` cannot join a hypergraph on vertices 1..n that already
    holds the edges ``seen``; None when it can."""
    if len(edge) < 2:
        return "edges need at least two vertices"
    if not all(1 <= v <= n for v in edge):
        return f"vertex id outside 1..{n}"
    if edge in seen:
        return "duplicate edge"
    return None


def cut_value(h: Hypergraph, m: int) -> int:
    """Number of edges with vertices on both sides of the partition word m."""
    return int(cut_values(h, np.array([m], dtype=np.uint64))[0])


def cut_values(h: Hypergraph, m_words: np.ndarray) -> np.ndarray:
    m_words = np.asarray(m_words, dtype=np.uint64)
    out = np.zeros(len(m_words), dtype=np.int64)
    for mask in h.edge_masks():
        inter = m_words & mask
        out += (inter != 0) & (inter != mask)
    return out


def analytic_spectrum(h: Hypergraph) -> SparseSpectrum:
    """Exact unnormalized Walsh expansion of the cut function."""
    entries: dict = {}
    dc = 0.0
    for e in h.edges:
        weight = 2.0 ** (1 - len(e))
        dc += 1.0 - weight
        verts = sorted(e)
        for size in range(2, len(e) + 1, 2):
            for subset in combinations(verts, size):
                word = sum(1 << (v - 1) for v in subset)
                entries[word] = entries.get(word, 0.0) - weight
    if dc != 0.0:
        entries[0] = entries.get(0, 0.0) + dc
    return SparseSpectrum(h.n, entries)


class CutQueryAccess:
    """Sample access backed by a cut oracle, queried once per distinct position.

    The read log is the sorted distinct words read so far
    (:func:`signal_model.merge_reads`) with their values beside it.
    ``take`` merges its positions into a new log, asks the oracle only for
    the fresh words, once each and in ascending order, and commits the
    new log and values once the oracle has answered. ``take_cosets``
    reads the (C, B, P) coset tensor through one ``take``.

    The oracle must return one finite value per word asked, and every
    position must fit in n bits; otherwise ``take`` raises ValueError and
    the log is left as it was. A callable oracle needs ``n``; for a
    ``Hypergraph`` it is optional and, when given, must equal the graph's.
    """

    def __init__(self, source, n: int | None = None):
        if isinstance(source, Hypergraph):
            if n is not None and n != source.n:
                raise ValueError(f"n={n} disagrees with the hypergraph's n={source.n}")
            self.n = source.n
            self._oracle = lambda words: cut_values(source, words)
        else:
            if n is None:
                raise ValueError("n is required for a callable oracle")
            self.n = gf2.check_bits(n)
            self._oracle = source
        self._words = np.zeros(0, dtype=np.uint64)
        self._values = np.zeros(0, dtype=np.float64)

    def take(self, positions) -> np.ndarray:
        positions = np.asarray(positions, dtype=np.uint64)
        words, at, fresh = merge_reads(self._words, positions)
        if len(words) and words[-1] >> self.n:
            raise ValueError(f"position {int(words[-1])} has a bit at or above n={self.n}")
        if fresh.any():
            values = np.empty(len(words), dtype=np.float64)
            values[fresh] = self._ask(words[fresh])
            values[~fresh] = self._values
            self._words, self._values = words, values
        return self._values[at].reshape(positions.shape)

    def take_cosets(self, cols, rows) -> np.ndarray:
        """The (C, B, P) tensor of samples u[M_c l + d_{c,p}], as
        ``NoisyAccess.take_cosets``, in one ``take``."""
        return self.take(gf2.span_words(cols)[:, :, None] ^ np.asarray(rows, dtype=np.uint64)[:, None, :])

    def _ask(self, words: np.ndarray) -> np.ndarray:
        """The oracle's values for the sorted distinct ``words``, one finite
        value per word."""
        values = np.asarray(self._oracle(words), dtype=np.float64)
        if values.shape != words.shape:
            raise ValueError(f"the oracle returned shape {values.shape} for {len(words)} words")
        if not np.isfinite(values).all():
            raise ValueError("the oracle returned a value that is not finite")
        return values

    @property
    def samples_queried(self) -> int:
        return len(self._words)


@dataclass
class SketchResult:
    spectrum: SparseSpectrum  # unnormalized convention
    edges: list | None
    queries: int
    report: peeling.DecodeReport
    partial: bool


def reconstruct_edges(spectrum: SparseSpectrum):
    """Rebuild a vertex-disjoint edge list from the cut spectrum.

    Supports that share vertices merge into one vertex set; the edges are
    those sets when their analytic spectrum matches ``spectrum`` within
    ``EDGE_TOL`` at every index. Returns None otherwise, and when a set
    holds a single vertex.
    """
    unions = []
    for word in spectrum.entries:
        for other in [u for u in unions if u & word]:
            unions.remove(other)
            word |= other
        if word:
            unions.append(word)
    if any(word.bit_count() < 2 for word in unions):
        return None
    edges = [frozenset(t + 1 for t in range(spectrum.n) if word >> t & 1) for word in unions]
    expected = analytic_spectrum(Hypergraph(spectrum.n, tuple(edges))).entries
    got = spectrum.entries
    if any(abs(got.get(k, 0.0) - expected.get(k, 0.0)) > EDGE_TOL for k in got.keys() | expected.keys()):
        return None
    return sorted(edges, key=sorted)


def _random_plan(n: int, b: int, c_groups: int, rng) -> frontend.SubsamplingPlan:
    """Uniformly random full-column-rank n x b matrices: the n rows of M_c are drawn b-bit words,
    and column t packs their bits t. A plan whose own solve finds a group short of rank b is drawn again."""
    while True:
        bits = rng.integers(0, 1 << b, size=(c_groups, 1, n), dtype=np.int64) >> np.arange(b)[:, None] & 1
        try:
            return frontend.SubsamplingPlan(n, kernels.pack_rows(bits.reshape(-1, n)).reshape(c_groups, b))
        except frontend.PlanError:
            continue


def sketch_recover(source, n: int | None = None, sparsity_budget: int = 1, seed: int = 0,
                   coeff_resolution: float | None = None) -> SketchResult:
    """Recover the cut spectrum (and, when possible, the edges) by
    ``experiments.recover``'s noiseless pipeline over the cut oracle.

    ``sparsity_budget`` must lie in 1..2^(n-1) and dominate the true
    spectral sparsity (at most s 2^(d-1) for s edges of size at most d);
    with a smaller one, bins stay unresolved and the result is partial.
    ``coeff_resolution``, positive and finite, snaps recovered values to
    its multiples (2^(1-d) for cut spectra). The plan has the groups and
    bins of ``frontend.design``, but random full-column-rank matrices
    (:func:`_random_plan`, from ``seed``'s stream): a window plan hashes
    all of an edge that no window touches to bin 0 of every group. Each
    group reads the zero row and the n - b unit rows at its free bits.
    """
    if sparsity_budget < 1:
        raise ValueError(f"sparsity budget must be >= 1, got {sparsity_budget}")
    if coeff_resolution is not None and not 0 < coeff_resolution < math.inf:
        raise ValueError(f"coeff_resolution must be a positive finite number, got {coeff_resolution}")
    access = CutQueryAccess(source, n)
    n = access.n
    rng = np.random.default_rng(seed)
    design = frontend.design("noiseless", n, sparsity_budget)
    plan = _random_plan(n, design.b, design.c_groups, rng)
    machine, report, _, _ = recover(access, sparsity_budget, "noiseless", snr_db=None, rho=1.0,
                                    constellation=False, rng_offsets=rng, plan=plan)
    root_n = math.sqrt(2.0**n)
    entries = {k: v / root_n for k, v in machine.entries.items()}
    if coeff_resolution is not None:
        entries = {k: round(v / coeff_resolution) * coeff_resolution for k, v in entries.items()}
    spectrum = SparseSpectrum(n, entries)
    partial = report.stalled
    edges = None if partial else reconstruct_edges(spectrum)
    return SketchResult(spectrum, edges, access.samples_queried, report, partial)
