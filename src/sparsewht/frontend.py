"""Observation generator: subsampling plans, offset plans, bin observations.

A plan holds C subsampling matrices M_c (n x b, full column rank); the
hash of coefficient k in group c is j = M_c^T k. Observations are built
by reading the B = 2^b samples u[M_c l + d] for each offset row d,
applying a B-point unnormalized butterfly and scaling by sqrt(N)/B, which
yields U_{c,p}[j] = sum_{M_c^T k = j} X[k] (-1)^<d_{c,p}, k> plus noise of
variance N sigma^2 / B per entry. Each group's (B, P) block of samples is
one ``take_cosets`` read, the only read ``observe`` makes. The block stays
bins-major, one column per offset row, from the read to the peel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import gf2, kernels

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
        span, particular = self._cosets[c]
        return span ^ particular[j_word]

    def coset_span(self, c: int) -> np.ndarray:
        """The null space of M_c^T, the XOR-combinations of ``coset_basis(c)``
        in ``gf2.span_words`` order: bit i of alpha selects basis word i."""
        return self._cosets[c][0]

    def coset_basis(self, c: int) -> np.ndarray:
        """The n - b words spanning the null space of M_c^T."""
        return self.coset_span(c)[1 << np.arange(self.n - self.b)]

    def particular_words(self, c: int) -> np.ndarray:
        """One solution of M_c^T k = j per bin word j, indexed by j."""
        return self._cosets[c][1]

    @cached_property
    def _cosets(self) -> tuple:
        """Per group, the null-space span and the particular words, built once."""
        if self.n - self.b > 24:
            raise PlanError("coset enumeration limited to n - b <= 24")
        solved = (gf2.solve_units(m) for m in self.matrices)
        return tuple((gf2.span_words(basis), gf2.span_words(units)) for units, basis in solved)


def benchmark_shape(k: int) -> tuple:
    """(C, b) of the benchmark design for sparsity K: three groups of
    B = 2^b bins with b = ceil(log2 K), at least 1."""
    return 3, max(1, math.ceil(math.log2(k)))


def build_plan(n: int, k: int) -> SubsamplingPlan:
    """The window design for sparsity K at signal size N = 2^n.

    Its shape is :func:`benchmark_shape`: C = 3 groups of B = 2^b bins,
    b = ceil(log2 K). Group c's matrix selects b consecutive index bits,
    so k hashes to that window of its bits. The windows are disjoint when
    C b <= n; otherwise their starts spread evenly from bit 0 to bit
    n - b, so that every bit lies in at least one window. Raises
    PlanError unless 1 <= K <= 2^n and b < n.
    """
    gf2.check_bits(n)
    if not 1 <= k <= (1 << n):
        raise PlanError(f"need 1 <= K <= 2^n, got K={k}, n={n}")
    c_groups, b = benchmark_shape(k)
    if b >= n:
        raise PlanError(f"the window design needs b < n, got b={b}, n={n}")
    if c_groups * b <= n:
        starts = [c * b for c in range(c_groups)]
    else:
        starts = [round((n - b) * c / (c_groups - 1)) for c in range(c_groups)]
    mats = tuple(gf2.selection_matrix(n, range(s, s + b)) for s in starts)
    return SubsamplingPlan(n, b, c_groups, mats)


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
    nominal_samples: int
    distinct_samples: int


def observe(access, plan: SubsamplingPlan, offsets: OffsetPlan) -> BinObservations:
    """Compute all bin observations via small WHTs (one per offset row).

    ``access`` needs ``n``, which must equal the plan's,
    ``take_cosets(cols, rows)``, which returns each group's (B, P) sample
    block as a C-contiguous float64 array the caller owns, and
    ``samples_queried``. The butterflies run down the block's columns in
    place and the scaled block is written into ``data[c]``.
    """
    if not access.n == offsets.n == plan.n:
        raise PlanError(f"access, plan and offsets disagree on n: {access.n}, {plan.n}, {offsets.n}")
    if len(offsets.groups) != plan.c_groups:
        raise PlanError("plan and offsets disagree on group count")
    size = 1 << plan.n
    bins = plan.bins
    scale = math.sqrt(size) / bins
    before = access.samples_queried
    data = np.empty((plan.c_groups, bins, offsets.rows), dtype=np.float64)
    for c in range(plan.c_groups):
        samples = access.take_cosets(plan.matrices[c].col_words_u64(), offsets.rows_u64(c))
        kernels.fwht_rows_inplace(samples)
        np.multiply(samples, scale, out=data[c])
    distinct = access.samples_queried - before
    nominal = plan.c_groups * bins * offsets.nominal_rows
    return BinObservations(data, plan.n, nominal, distinct)
