"""Observation generator: subsampling plans, offset plans, bin observations.

A plan holds C subsampling matrices M_c (n x b, full column rank); the
hash of coefficient k in group c is j = M_c^T k. Observations are built
by reading the B = 2^b samples u[M_c l + d] for each offset row d,
applying a B-point unnormalized butterfly and scaling by sqrt(N)/B, which
yields U_{c,p}[j] = sum_{M_c^T k = j} X[k] (-1)^<d_{c,p}, k> plus noise of
variance N sigma^2 / B per entry. An access that can read a group's whole
(P, B) block of samples at once (``take_cosets``) is asked for that block;
any other access is read point by point through ``take``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import analysis, gf2, kernels

REGIMES = ("window", "cyclic-drop", "common-prefix-6", "common-prefix-8", "common-prefix-dense")
VARIANTS = ("noiseless", "near-linear", "nso", "so")
# random offset rows per bit of n that each randomized variant draws by default
_P1_PER_BIT = {"near-linear": 3, "nso": 2, "so": 1}


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class SubsamplingPlan:
    n: int
    b: int
    c_groups: int
    matrices: tuple  # C BitMatrix values, each n x b
    regime: str
    _coset_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if len(self.matrices) != self.c_groups:
            raise PlanError("group count does not match matrices")
        for m in self.matrices:
            if m.rows != self.n or m.cols != self.b:
                raise PlanError("matrix shape mismatch")
            if gf2.rank_transpose(m) != self.b:
                raise PlanError("subsampling matrix lacks full column rank")

    @property
    def bins(self) -> int:
        return 1 << self.b

    def bins_of_many(self, c: int, k_words: np.ndarray) -> np.ndarray:
        return kernels.hash_words(k_words, self.matrices[c].col_words_u64())

    def coset(self, c: int, j_word: int) -> np.ndarray:
        """All k hashing to bin j in group c, as packed uint64 words.

        Word alpha is ``particular_words(c)[j] ^ coset_span(c)[alpha]``.
        """
        span, particular = self._coset_parts(c)
        return span ^ particular[j_word]

    def coset_span(self, c: int) -> np.ndarray:
        """The null space of M_c^T, the XOR-combinations of ``coset_basis(c)``
        in ``gf2.span_words`` order: bit i of alpha selects basis word i."""
        return self._coset_parts(c)[0]

    def coset_basis(self, c: int) -> np.ndarray:
        """The n - b words spanning the null space of M_c^T."""
        return self.coset_span(c)[1 << np.arange(self.n - self.b)]

    def particular_words(self, c: int) -> np.ndarray:
        """One solution of M_c^T k = j per bin word j, indexed by j."""
        return self._coset_parts(c)[1]

    def _coset_parts(self, c: int):
        if c not in self._coset_cache:
            if self.n - self.b > 24:
                raise PlanError("coset enumeration limited to n - b <= 24")
            m = self.matrices[c]
            span = gf2.span_words(gf2.solve_affine(m, 0)[1])
            units = [gf2.solve_affine(m, 1 << t)[0] for t in range(self.b)]
            self._coset_cache[c] = (span, gf2.span_words(units))
        return self._coset_cache[c]

    def sample_positions(self, c: int) -> np.ndarray:
        """Packed words M_c l for l in F_2^b, indexed by the word of l."""
        return gf2.span_words(self.matrices[c].col_words)


def _window_positions(n: int, b: int, c_groups: int, spread: bool) -> list:
    if spread:
        # windows overlap when C*b > n; spread starts evenly and keep
        # every bit position covered by at least one group
        starts = [round((n - b) * c / (c_groups - 1)) for c in range(c_groups)] if c_groups > 1 else [0]
    else:
        starts = [c * b for c in range(c_groups)]
    return [list(range(s, s + b)) for s in starts]


def _segment_ranges(n: int, count: int, prefix: int) -> list:
    """count equal segments followed by one prefix segment of the top bits."""
    seg = (n - prefix) // count
    ranges = [list(range(i * seg, (i + 1) * seg)) for i in range(count)]
    ranges.append(list(range(count * seg, n)))
    return ranges


def _prefix_size(n: int, n_segments: int, kept: int, b_req: int) -> int:
    """Smallest prefix length making segments equal and b >= b_req.

    With p prefix bits, each of the n_segments segments has
    (n - p) / n_segments bits and each hash keeps ``kept`` of them plus
    the prefix, so b = kept (n - p) / n_segments + p grows with p.
    """
    for p in range(n % n_segments, n - n_segments + 1, n_segments):
        seg = (n - p) // n_segments
        if seg < 1:
            break
        if kept * seg + p >= b_req:
            return p
    raise PlanError(f"no common-prefix layout fits n={n}, b_req={b_req}")


def _common_prefix_plan(n: int, b_req: int, groups_kept: list, n_segments: int, regime: str) -> SubsamplingPlan:
    kept = len(groups_kept[0])
    prefix = _prefix_size(n, n_segments, kept, b_req)
    ranges = _segment_ranges(n, n_segments, prefix)
    matrices = []
    for kept_segs in groups_kept:
        positions = []
        for s in kept_segs:
            positions.extend(ranges[s - 1])
        positions.extend(ranges[n_segments])
        matrices.append(gf2.selection_matrix(n, positions))
    b = kept * ((n - prefix) // n_segments) + prefix
    return SubsamplingPlan(n, b, len(groups_kept), tuple(matrices), regime)


def _min_redundancy(c_groups: int) -> float:
    """The least redundancy B/K at which peeling over C groups finishes,
    eta*(C) rounded to the four places of the published table: unrounded,
    it would move b = ceil(log2(eta K)) at 557 values of K below 2^20."""
    return round(analysis.min_eta(c_groups), 4)


def benchmark_shape(k: int) -> tuple:
    """(C, b) of the benchmark design for sparsity K: three groups of
    B = 2^b bins with b = ceil(log2 K), at least 1."""
    return 3, max(1, math.ceil(math.log2(k)))


# which equal-size segments each group's hash keeps (1-based), before the
# shared prefix segment that every hash keeps
_KEPT_6 = [(2, 3), (1, 3), (1, 2), (5, 6), (4, 6), (4, 5)]
_KEPT_8 = [(2, 3, 4), (1, 3, 4), (1, 2, 4), (1, 2, 3), (6, 7, 8), (5, 7, 8), (5, 6, 8), (5, 6, 7)]


def build_plan(n: int, k: int, regime: str = "auto", profile: str = "theory",
               c_groups: int | None = None, b: int | None = None) -> SubsamplingPlan:
    """Construct the subsampling plan for sparsity K at signal size 2^n.

    Auto mode selects the construction from delta = log K / log N;
    ``profile='benchmark'`` forces the 3-group window design with
    b = ceil(log2 K) regardless of delta. Passing ``b`` overrides the
    bin-count sizing rule of the window designs.
    """
    gf2.check_bits(n)
    if not 1 <= k <= (1 << n):
        raise PlanError(f"need 1 <= K <= 2^n, got K={k}, n={n}")
    delta = math.log2(max(k, 2)) / n

    if profile == "benchmark":
        shape_c, shape_b = benchmark_shape(k)
        c, b = c_groups or shape_c, b or shape_b
        if b >= n:
            raise PlanError("benchmark profile needs b < n")
        spread = c * b > n
        mats = tuple(gf2.selection_matrix(n, pos) for pos in _window_positions(n, b, c, spread))
        return SubsamplingPlan(n, b, c, mats, "window")
    if profile != "theory":
        raise PlanError(f"unknown profile {profile!r}")

    if regime == "auto":
        if delta <= 1 / 3:
            regime = "window"
        elif delta <= 0.73:
            regime = "common-prefix-6"
        elif delta <= 7 / 8:
            regime = "common-prefix-8"
        elif delta <= 0.99:
            regime = "common-prefix-dense"
        else:
            raise PlanError(f"auto mode covers delta <= 0.99, got {delta:.3f}")

    if regime == "window":
        c = c_groups or 3
        b = b or max(1, math.ceil(math.log2(_min_redundancy(c) * k)))
        if c * b > n:
            raise PlanError(f"window regime needs C*b <= n (C={c}, b={b}, n={n})")
        mats = tuple(gf2.selection_matrix(n, pos) for pos in _window_positions(n, b, c, spread=False))
        return SubsamplingPlan(n, b, c, mats, "window")

    if regime == "cyclic-drop":
        c = c_groups or 3
        if n % c:
            raise PlanError(f"cyclic-drop needs C | n (C={c}, n={n})")
        t = n // c
        mats = []
        for drop in range(c):
            positions = [p for seg in range(c) if seg != drop for p in range(seg * t, (seg + 1) * t)]
            mats.append(gf2.selection_matrix(n, positions))
        return SubsamplingPlan(n, (c - 1) * t, c, tuple(mats), "cyclic-drop")

    if regime == "common-prefix-6":
        b_req = max(1, math.ceil(math.log2(_min_redundancy(6) * k)))
        return _common_prefix_plan(n, b_req, [list(g) for g in _KEPT_6], 6, regime)

    if regime == "common-prefix-8":
        b_req = max(1, math.ceil(math.log2(_min_redundancy(8) * k)))
        return _common_prefix_plan(n, b_req, [list(g) for g in _KEPT_8], 8, regime)

    if regime == "common-prefix-dense":
        b_req = max(1, math.ceil(math.log2(_min_redundancy(8) * k)))
        kept = [[s for s in range(1, 9) if s != drop] for drop in range(1, 9)]
        return _common_prefix_plan(n, b_req, kept, 8, regime)

    raise PlanError(f"unknown regime {regime!r}; expected one of {REGIMES}")


@dataclass(frozen=True)
class OffsetPlan:
    """Per-group offset matrices D_c, stored as packed row words.

    ``layout`` names each row role once, by row index or range;
    ``nominal_rows`` is the row count entering the sample-cost formula
    (:func:`nominal_rows`). ``code`` is the LDPC code SO's detector decodes.
    """

    variant: str
    n: int
    groups: tuple  # per group, uint64 array of offset row words
    layout: dict
    nominal_rows: int
    code: object = None

    @property
    def rows(self) -> int:
        return len(self.groups[0])

    def rows_u64(self, c: int) -> np.ndarray:
        return self.groups[c]


def nominal_rows(variant: str, n: int, p1: int | None = None) -> int:
    """Offset rows per group in the sample cost C B P: n + 1 (noiseless),
    p1 (near-linear), p1 n (NSO) and p1 + 3n (SO, which counts n reads of
    its one stored zero-offset row, as in the paper's design)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p1 = p1 or _P1_PER_BIT.get(variant, 0) * n
    return {"noiseless": n + 1, "near-linear": p1, "nso": p1 * n, "so": p1 + 3 * n}[variant]


def _random_words(n: int, count: int, rng) -> np.ndarray:
    return rng.integers(0, 1 << n, size=count, dtype=np.int64).astype(np.uint64)


def build_offsets(variant: str, plan: SubsamplingPlan, p1: int | None = None, code=None,
                  rng=None) -> OffsetPlan:
    """Construct the offset rows for one detector variant.

    noiseless: n+1 rows, the zero reference then the n unit rows.
    near-linear: p1 fully random rows (default 3n).
    nso: p1 random base rows (default 2n) each followed later by its n
        modulated rows d_p xor e_q, ordered [bases..., block_1, block_2, ...].
    so: p1 random rows (default n), the zero-offset reference row, then
        the 2n generator rows of the rate-1/2 code.
    """
    n = plan.n
    nominal = nominal_rows(variant, n, p1)
    if variant == "noiseless":
        words = np.zeros(n + 1, dtype=np.uint64)
        words[1:] = np.uint64(1) << np.arange(n, dtype=np.uint64)
        groups = tuple(words.copy() for _ in range(plan.c_groups))
        layout = {"reference": 0, "units": (1, n + 1)}
        return OffsetPlan(variant, n, groups, layout, nominal)

    rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    p1 = p1 or _P1_PER_BIT[variant] * n

    if variant == "near-linear":
        groups = tuple(_random_words(n, p1, rng) for _ in range(plan.c_groups))
        layout = {"random": (0, p1)}
        return OffsetPlan(variant, n, groups, layout, nominal)

    if variant == "nso":
        groups = []
        for _ in range(plan.c_groups):
            base = _random_words(n, p1, rng)
            units = np.uint64(1) << np.arange(n, dtype=np.uint64)
            blocks = base[:, None] ^ units[None, :]
            groups.append(np.concatenate([base, blocks.reshape(-1)]))
        layout = {"base": (0, p1)}
        return OffsetPlan(variant, n, tuple(groups), layout, nominal)

    # so
    if code is None:
        raise ValueError("so offsets require a linear code")
    if code.n_info != n:
        raise ValueError(f"code has {code.n_info} information bits, plan needs {n}")
    coded = np.array(code.generator_rows(), dtype=np.uint64)
    groups = []
    for _ in range(plan.c_groups):
        rand = _random_words(n, p1, rng)
        groups.append(np.concatenate([rand, np.zeros(1, dtype=np.uint64), coded]))
    layout = {"random": (0, p1), "reference": p1, "coded": (p1 + 1, p1 + 1 + code.n_block)}
    return OffsetPlan("so", n, tuple(groups), layout, nominal, code=code)


@dataclass
class BinObservations:
    """The C x B x P tensor of bin observation values U_{c,p}[j]."""

    data: np.ndarray
    n: int
    b: int
    variant: str
    nominal_samples: int
    distinct_samples: int

    @property
    def c_groups(self) -> int:
        return self.data.shape[0]

    @property
    def rows(self) -> int:
        return self.data.shape[2]


def observe(access, plan: SubsamplingPlan, offsets: OffsetPlan) -> BinObservations:
    """Compute all bin observations via small WHTs (one per offset row).

    ``access`` needs ``take(positions)`` and ``samples_queried``; when it
    also has ``take_cosets(cols, rows)`` (as ``NoisyAccess`` does), each
    group's sample block is read through that in one call.
    """
    if offsets.n != plan.n:
        raise PlanError("plan and offsets disagree on n")
    if len(offsets.groups) != plan.c_groups:
        raise PlanError("plan and offsets disagree on group count")
    size = 1 << plan.n
    bins = plan.bins
    scale = math.sqrt(size) / bins
    take_cosets = getattr(access, "take_cosets", None)
    before = access.samples_queried
    data = np.empty((plan.c_groups, bins, offsets.rows), dtype=np.float64)
    for c in range(plan.c_groups):
        rows = offsets.rows_u64(c)
        if take_cosets is not None:
            samples = take_cosets(plan.matrices[c].col_words_u64(), rows)
        else:
            positions = rows[:, None] ^ plan.sample_positions(c)[None, :]
            samples = access.take(positions.reshape(-1)).reshape(len(rows), bins)
        kernels.fwht_rows_inplace(samples)
        samples *= scale
        data[c] = samples.T
    distinct = access.samples_queried - before
    nominal = plan.c_groups * bins * offsets.nominal_rows
    return BinObservations(data, plan.n, plan.b, offsets.variant, nominal, distinct)
