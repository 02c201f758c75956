"""Observation generator: subsampling plans, offset plans, bin observations.

A plan holds C subsampling matrices M_c (n x b, full column rank); the
hash of coefficient k in group c is j = M_c^T k. Observations are built
by reading the B = 2^b samples u[M_c l + d] for each offset row d,
applying a B-point unnormalized butterfly and scaling by sqrt(N)/B, which
yields U_{c,p}[j] = sum_{M_c^T k = j} X[k] (-1)^<d_{c,p}, k> plus noise of
variance N sigma^2 / B per entry. The (C, B, P) tensor of samples of all
groups is one ``take_cosets`` read, the only read ``observe`` makes. It
stays bins-major, one column per offset row, from the read to the peel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import gf2, kernels

VARIANTS = ("noiseless", "near-linear", "nso", "so")
# random offset rows per bit of n that each randomized variant draws by default
_P1_PER_BIT = {"near-linear": 3, "nso": 2, "so": 1}
# per coded variant: are its bases its random rows (else the one zero row), and
# are its code rows an LDPC generator's (else unit rows, the identity code)?
_CODED = {"noiseless": (False, False), "nso": (True, False), "so": (False, True)}


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class SubsamplingPlan:
    n: int
    b: int
    c_groups: int
    matrices: tuple  # C BitMatrix values, each n x b

    def __post_init__(self):
        gf2.check_bits(self.n)
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

    @cached_property
    def col_words(self) -> np.ndarray:
        """The (C, b) uint64 column words of the M_c, group c in row c."""
        return np.array([m.col_words for m in self.matrices], dtype=np.uint64).reshape(self.c_groups, self.b)

    def bins_of_many(self, c: int, k_words: np.ndarray) -> np.ndarray:
        return kernels.hash_words(k_words, self.col_words[c])

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
    """Per-group offset matrices D_c: row c of the (C, P) uint64 array
    ``groups`` holds the packed offset words of group c.

    ``layout`` names each row role once, by (start, stop) row range (see
    :func:`build_offsets`); ``nominal_rows`` is the row count entering the
    sample-cost formula (:func:`nominal_rows`). ``code`` is the LDPC code
    of the code rows, or None for the identity code. ``code_rows`` holds
    the code-row words g_q: the LDPC generator's rows, or the (C, Q) unit
    rows each group stores; ``known[c, j]``, the index bits that bin j of
    group c fixes, whose unit rows are not stored (None under LDPC).
    """

    variant: str
    n: int
    groups: np.ndarray  # (C, P) uint64 offset words, group c in row c
    layout: dict
    nominal_rows: int
    code: object = None
    code_rows: np.ndarray | None = None
    known: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.groups.shape[1]


def nominal_rows(variant: str, n: int, p1: int | None = None) -> int:
    """Offset rows per group in the sample cost C B P: n + 1 (noiseless),
    p1 (near-linear), p1 n (NSO) and p1 + 3n (SO, which counts n reads of
    its one stored zero-offset row, as in the paper's design). NSO stores
    p1 (1 + n - b) rows on a window plan (:func:`build_offsets`), with the
    same distinct samples."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    p1 = p1 or _P1_PER_BIT.get(variant, 0) * n
    return {"noiseless": n + 1, "near-linear": p1, "nso": p1 * n, "so": p1 + 3 * n}[variant]


def _random_words(n: int, count: int, rng) -> np.ndarray:
    return rng.integers(0, 1 << n, size=count, dtype=np.int64).astype(np.uint64)


@lru_cache(maxsize=8)
def _identity_code(n: int, col_words: tuple, drop_known: bool):
    """The identity code's (C, Q) unit rows and (C, B) known bits for the
    column words of the M_c, read-only and cached: trials reuse a design.
    With ``drop_known`` each group leaves out every e_q = M_c l, word l of
    ``gf2.span_words`` of its columns: <e_q, k> = <l, M_c^T k>, so bit q
    of k is parity(l & j) in bin j. Groups that would keep different row
    counts keep every row, as does ``drop_known`` False."""
    c_groups, bins = len(col_words), 1 << len(col_words[0])
    units = np.uint64(1) << np.arange(n, dtype=np.uint64)
    code_rows, known = np.repeat(units[None], c_groups, axis=0), np.zeros((c_groups, bins), dtype=np.uint64)
    if drop_known:
        span = gf2.span_words(col_words)
        cs, ls = np.nonzero(np.bitwise_count(span) == 1)
        if np.all(np.bincount(cs, minlength=c_groups) == len(cs) // c_groups):
            in_span = span[cs, ls]  # the unit words e_q = M_c l, group by group
            dropped = in_span.reshape(c_groups, -1).sum(axis=1, dtype=np.uint64, keepdims=True)
            code_rows = code_rows[(code_rows & dropped) == 0].reshape(c_groups, -1)
            bits = kernels.parity_words(ls.astype(np.uint64)[:, None] & np.arange(bins, dtype=np.uint64))
            known = (bits * in_span[:, None]).reshape(c_groups, -1, bins).sum(axis=1, dtype=np.uint64)
    code_rows.flags.writeable = known.flags.writeable = False
    return code_rows, known


def build_offsets(variant: str, plan: SubsamplingPlan, p1: int | None = None, code=None,
                  rng=None) -> OffsetPlan:
    """Construct the offset rows for one detector variant.

    near-linear: p1 random ``verify`` rows (default 3n), its only rows.
    The coded variants store, in this order, p1 random ``verify`` rows,
    the ``bases`` unless they are the verify rows themselves, and the
    ``code`` block of rows base_p xor g_q, base-major, for every base p
    and code row g_q; each layout entry is a (start, stop) row range.
    noiseless: no verify rows, the zero base, the n unit rows (the
        identity code): n+1 rows.
    nso: p1 random rows (default 2n) that are also the bases, over the
        unit rows e_q outside colspan(M_c): p1 (1 + n - b) rows on a window
        plan, against the nominal p1 n. A row d xor e_q with e_q = M_c l
        would read d's coset, at the sign (-1)^<l, j>, so
        ``OffsetPlan.known`` holds those b bits of every bin j instead. A
        plan whose groups hold different numbers of unit columns in their
        span keeps all p1 (n + 1) rows, so that P is one count.
    so: p1 random rows (default n), the zero base, the 2n generator rows
        of the rate-1/2 ``code``; ``OffsetPlan.code`` keeps it.
    """
    n, c_groups = plan.n, plan.c_groups
    nominal = nominal_rows(variant, n, p1)
    if variant == "noiseless":
        verify = np.zeros((c_groups, 0), dtype=np.uint64)
    else:
        rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        p1 = p1 or _P1_PER_BIT[variant] * n
        verify = np.stack([_random_words(n, p1, rng) for _ in range(c_groups)])
    if variant == "near-linear":
        return OffsetPlan(variant, n, verify, {"verify": (0, p1)}, nominal)

    shared, ldpc = _CODED[variant]
    if ldpc:
        if code is None:
            raise ValueError(f"{variant} offsets require a linear code")
        if code.n_info != n:
            raise ValueError(f"code has {code.n_info} information bits, plan needs {n}")
        code_rows, known = np.array(code.generator_rows(), dtype=np.uint64), None
    else:
        code, (code_rows, known) = None, _identity_code(n, tuple(m.col_words for m in plan.matrices), shared)
    bases = verify if shared else np.zeros((c_groups, 1), dtype=np.uint64)
    block = (bases[:, :, None] ^ code_rows[..., None, :]).reshape(c_groups, -1)
    groups = np.concatenate([verify, block] if shared else [verify, bases, block], axis=1)
    v1 = verify.shape[1]
    b0 = 0 if shared else v1
    c0 = b0 + bases.shape[1]
    layout = {"verify": (0, v1), "bases": (b0, c0), "code": (c0, c0 + block.shape[1])}
    return OffsetPlan(variant, n, groups, layout, nominal, code=code, code_rows=code_rows, known=known)


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
    ``take_cosets(cols, rows)``, which returns the (C, B, P) sample tensor
    of the (C, b) column words ``plan.col_words`` and the (C, P) offset
    words ``offsets.groups`` as a C-contiguous float64 array the caller
    owns, and ``samples_queried``. The butterflies run down the tensor's
    columns and the scaling follows, both in place.
    """
    if not access.n == offsets.n == plan.n:
        raise PlanError(f"access, plan and offsets disagree on n: {access.n}, {plan.n}, {offsets.n}")
    if len(offsets.groups) != plan.c_groups:
        raise PlanError("plan and offsets disagree on group count")
    before = access.samples_queried
    data = kernels.fwht_rows_inplace(access.take_cosets(plan.col_words, offsets.groups))
    data *= math.sqrt(1 << plan.n) / plan.bins
    distinct = access.samples_queried - before
    nominal = plan.c_groups * plan.bins * offsets.nominal_rows
    return BinObservations(data, plan.n, nominal, distinct)
