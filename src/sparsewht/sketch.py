"""Hypergraph sketching from cut queries.

The cut function of a hypergraph, viewed as a signal over vertex-subset
indicators m, has a sparse unnormalized Walsh expansion: a DC term
s - sum_e 2^(1-|e|) and, for every edge e and every nonempty
even-cardinality subset S of e, a coefficient -2^(1-|e|) at the index
supported on S (contributions from overlapping edges accumulate). Cut
values are integers and noiseless, so ``experiments.recover``'s
noiseless pipeline, on a random plan, recovers the expansion from
Theta(K n) queries. The cut oracle is asked once per distinct position:
``CutQueryAccess`` answers repeats from its sorted read log and merges
each read's fresh words into it with ``signal_model.merge_reads``, the
log ``NoisyAccess`` keeps above n = 24.

Vertices are numbered 1..n and vertex i maps to index position i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import frontend, gf2, peeling
from .experiments import recover
from .signal_model import SparseSpectrum, merge_reads


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


def random_disjoint_hypergraph(n: int, s: int, rng, min_size: int = 2, max_size: int = 6) -> Hypergraph:
    """s vertex-disjoint edges with sizes uniform in [min_size, max_size]."""
    if s * min_size > n:
        raise ValueError("edges cannot fit disjointly")
    while True:
        sizes = rng.integers(min_size, max_size + 1, size=s)
        if sizes.sum() <= n:
            break
    verts = list(rng.permutation(np.arange(1, n + 1)))
    edges = []
    at = 0
    for size in sizes:
        edges.append(frozenset(int(v) for v in verts[at : at + size]))
        at += size
    return Hypergraph(n, tuple(edges))


class CutQueryAccess:
    """Sample access backed by a cut oracle, queried once per distinct position.

    The read log is the sorted distinct words read so far
    (:func:`signal_model.merge_reads`) with their values beside it.
    ``take`` merges its positions into a new log, asks the oracle only for
    the fresh words, once each and in ascending order, and commits the
    new log and values once the oracle has answered. ``take_cosets``
    reads a (B, P) coset block through ``take``.

    The oracle must return one finite value per word asked, and every
    position must fit in n bits; otherwise ``take`` raises ValueError and
    the log is left as it was.
    """

    def __init__(self, source, n: int | None = None):
        if isinstance(source, Hypergraph):
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
        """The (B, P) block of samples u[M l + d], as ``NoisyAccess.take_cosets``."""
        return self.take(gf2.span_words(cols)[:, None] ^ np.asarray(rows, dtype=np.uint64)[None, :])

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


def _components(supports):
    """Group vertex-support sets that share vertices (union-find)."""
    parent = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for sup in supports:
        for v in sup:
            parent.setdefault(v, v)
        root = find(next(iter(sup)))
        for v in sup:
            parent[find(v)] = root
    groups: dict = {}
    for sup in supports:
        groups.setdefault(find(next(iter(sup))), []).append(sup)
    return list(groups.values())


def reconstruct_edges(spectrum: SparseSpectrum, tol: float = 1e-9):
    """Rebuild a vertex-disjoint edge list from the cut spectrum.

    Each connected component of the recovered supports must consist of
    exactly the even-cardinality subsets of one vertex set, all carrying
    -2^(1-|e|); the edge is that union. Returns None when any component
    fails the pattern or the DC term is inconsistent.
    """
    by_support = {}
    dc = 0.0
    for word, value in spectrum.entries.items():
        if word == 0:
            dc = value
            continue
        by_support[frozenset(t + 1 for t in range(spectrum.n) if (word >> t) & 1)] = value
    if not by_support:
        return [] if abs(dc) <= tol else None
    edges = []
    for component in _components(by_support):
        union = frozenset().union(*component)
        size = len(union)
        expected_count = (1 << (size - 1)) - 1
        expected_value = -(2.0 ** (1 - size))
        if len(component) != expected_count:
            return None
        for sup in component:
            if len(sup) % 2 or abs(by_support[sup] - expected_value) > tol:
                return None
        edges.append(union)
    expected_dc = len(edges) - sum(2.0 ** (1 - len(e)) for e in edges)
    if abs(dc - expected_dc) > tol:
        return None
    return sorted(edges, key=sorted)


def sketch_recover(source, n: int | None = None, sparsity_budget: int = 1, seed: int = 0,
                   coeff_resolution: float | None = None) -> SketchResult:
    """Recover the cut spectrum (and, when possible, the edges) by
    ``experiments.recover``'s noiseless pipeline over the cut oracle.

    ``sparsity_budget`` must be at least 1 and dominate the true spectral
    sparsity (at most s 2^(d-1) for s edges of size at most d); with a
    smaller one, bins stay unresolved and the result is partial.
    ``coeff_resolution`` snaps recovered coefficients to multiples of it
    (2^(1-d) for cut spectra). The plan has the benchmark shape for the
    budget, but its matrices are random full-column-rank: a window plan
    hashes all of an edge that no window touches to bin 0 of every group.
    """
    if sparsity_budget < 1:
        raise ValueError(f"sparsity budget must be >= 1, got {sparsity_budget}")
    access = CutQueryAccess(source, n)
    n = access.n
    rng = np.random.default_rng(seed)
    c_groups, b = frontend.benchmark_shape(sparsity_budget)
    if b >= n:
        raise ValueError("sparsity budget needs b < n")
    mats = tuple(gf2.random_full_column_rank(n, b, rng) for _ in range(c_groups))
    plan = frontend.SubsamplingPlan(n, b, c_groups, mats)
    machine, report, _, _ = recover(access, sparsity_budget, "noiseless", snr_db=None, rho=1.0,
                                    constellation=False, rng_offsets=None, rng_code=None, plan=plan)
    root_n = math.sqrt(2.0**n)
    entries = {k: v / root_n for k, v in machine.entries.items()}
    if coeff_resolution is not None:
        entries = {k: round(v / coeff_resolution) * coeff_resolution for k, v in entries.items()}
    spectrum = SparseSpectrum(n, entries)
    partial = report.stalled
    edges = None if partial else reconstruct_edges(spectrum)
    return SketchResult(spectrum, edges, access.samples_queried, report, partial)
