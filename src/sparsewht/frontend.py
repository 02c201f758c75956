"""Observation generator: subsampling plans, offset plans, bin observations.

A plan holds C subsampling matrices M_c (n x b, full column rank); the
hash of coefficient k in group c is j = M_c^T k. Observations are built
by reading the B = 2^b samples u[M_c l + d] for each offset row d,
applying a B-point unnormalized butterfly and scaling by sqrt(N)/B, which
yields U_{c,p}[j] = sum_{M_c^T k = j} X[k] (-1)^<d_{c,p}, k> plus noise of
variance N sigma^2 / B per entry. The (C, B, P) tensor of samples of all
groups is one ``take_cosets`` read, the only read ``observe`` makes. It
stays bins-major, one column per offset row, from the read to the peel.
:func:`design` chooses every number of the plan and the offsets.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import codes, gf2, kernels

VARIANTS = ("noiseless", "near-linear", "nso", "so")
GROUPS = 3  # C, the hash groups, as in FFAST's three-stage design


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
        """The (C, b) uint64 column words of the M_c, group c in row c, read-only."""
        words = np.array([m.col_words for m in self.matrices], dtype=np.uint64)
        return _read_only(words.reshape(self.c_groups, self.b))[0]

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
        """Per group, the null-space span and the particular words, built once, read-only."""
        if self.n - self.b > 24:
            raise PlanError("coset enumeration limited to n - b <= 24")
        solved = (gf2.solve_units(m) for m in self.matrices)
        return tuple(_read_only(gf2.span_words(basis), gf2.span_words(units)) for units, basis in solved)


def _read_only(*arrays: np.ndarray) -> tuple:
    for array in arrays:
        array.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Design:
    """Every number of one design (:func:`design`): C groups of 2^b bins,
    the window starts, p1 verify rows per group, the ``bases`` under the code
    rows ("verify", "zero" or None: none) and the LDPC ``code`` (None: unit rows)."""

    variant: str
    n: int
    c_groups: int
    b: int
    starts: tuple
    p1: int
    bases: str | None
    code: object = None

    def __post_init__(self):
        if self.variant == "so" and self.code is None:
            raise ValueError("so offsets require a linear code")
        if self.code is not None and self.code.n_info != self.n:
            raise ValueError(f"code has {self.code.n_info} information bits, the design needs {self.n}")

    @property
    def nominal_rows(self) -> int:
        """P in the sample cost C B P: SO counts n reads of its one stored
        zero row, and NSO p1 n rows, of which it stores p1 (1 + n - b)."""
        n, p1 = self.n, self.p1
        return {"noiseless": n + 1, "near-linear": p1, "nso": p1 * n, "so": p1 + 3 * n}[self.variant]

    @property
    def nominal_samples(self) -> int:
        return (self.c_groups << self.b) * self.nominal_rows


@lru_cache(maxsize=8)
def design(variant: str, n: int, k: int) -> Design:
    """The one design of ``variant`` for sparsity K at N = 2^n, cached: b =
    ceil(log2 K), at least 1 and below n (else PlanError); the windows are
    disjoint when C b <= n, else spread evenly to cover bits 0..n-1."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    gf2.check_bits(n)
    b = max(1, (int(k) - 1).bit_length())  # exact ceil(log2 K): a float log2 rounds 2^49 + 1 down
    if k < 1 or b >= n:
        raise PlanError(f"the window design needs K >= 1 and b = ceil(log2 K) < n, got K={k}, n={n}")
    spread = GROUPS * b > n
    starts = tuple(round((n - b) * c / (GROUPS - 1)) if spread else c * b for c in range(GROUPS))
    p1 = {"noiseless": 0, "near-linear": 3 * n, "nso": 2 * n, "so": n}[variant]
    bases = {"near-linear": None, "nso": "verify"}.get(variant, "zero")
    code = codes.code_for(n) if variant == "so" else None
    return Design(variant, n, GROUPS, b, starts, p1, bases, code)


def build_plan(d: Design) -> SubsamplingPlan:
    """The window plan of ``d``, built once: group c hashes k to its b bits
    from ``d.starts[c]``. Its column words and coset tables are read-only."""
    return _window_plan(d.n, d.b, d.starts)


@lru_cache(maxsize=8)
def _window_plan(n: int, b: int, starts: tuple) -> SubsamplingPlan:
    mats = tuple(gf2.selection_matrix(n, range(s, s + b)) for s in starts)
    return SubsamplingPlan(n, b, len(starts), mats)


@dataclass(frozen=True)
class OffsetPlan:
    """Per-group offset matrices D_c: row c of the (C, P) uint64 array
    ``groups`` holds the packed offset words of group c.

    ``layout`` names each row role once, by (start, stop) row range (see
    :func:`build_offsets`); ``variant``, ``nominal_rows`` and ``code`` are
    the :class:`Design`'s. ``code_rows`` holds the code-row words g_q: the
    LDPC generator's rows, or the (C, Q) unit rows each group stores;
    ``known[c, j]``, the index bits that bin j of group c fixes, whose
    unit rows are not stored (None under LDPC).
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
    return _read_only(code_rows, known)


def build_offsets(d: Design, plan: SubsamplingPlan, rng=None) -> OffsetPlan:
    """The offset rows of design ``d`` on ``plan``: the design's window
    plan, or another of its n (the sketch's random plan).

    Each group stores ``d.p1`` random ``verify`` rows (near-linear's only
    rows), then the ``bases`` unless they are the verify rows, then the
    ``code`` block of rows base_p xor g_q, base-major, for every base p
    and code row g_q; each layout entry is a (start, stop) row range.
    noiseless: the zero base and the n unit rows (the identity code).
    nso: the verify rows are the bases, over the unit rows e_q outside
        colspan(M_c): p1 (1 + n - b) rows on a window plan. A row d xor
        e_q with e_q = M_c l would read d's coset, at the sign (-1)^<l, j>,
        so ``OffsetPlan.known`` holds those b bits of every bin j instead.
        A plan whose groups hold different numbers of unit columns in
        their span keeps all p1 (n + 1) rows, so that P is one count.
    so: the zero base and the 2n generator rows of the rate-1/2 ``d.code``.
    """
    n, c_groups, rng = d.n, plan.c_groups, np.random.default_rng(rng)
    verify = rng.integers(0, 1 << n, size=(c_groups, d.p1), dtype=np.int64).astype(np.uint64)
    if d.bases is None:
        return OffsetPlan(d.variant, n, verify, {"verify": (0, d.p1)}, d.nominal_rows)

    shared = d.bases == "verify"
    code_rows, known = (_identity_code(n, tuple(m.col_words for m in plan.matrices), shared) if d.code is None
                        else (np.array(d.code.generator_rows(), dtype=np.uint64), None))
    bases = verify if shared else np.zeros((c_groups, 1), dtype=np.uint64)
    block = (bases[:, :, None] ^ code_rows[..., None, :]).reshape(c_groups, -1)
    groups = np.concatenate([verify, block] if shared else [verify, bases, block], axis=1)
    b0 = 0 if shared else d.p1
    c0 = b0 + bases.shape[1]
    layout = {"verify": (0, d.p1), "bases": (b0, c0), "code": (c0, c0 + block.shape[1])}
    return OffsetPlan(d.variant, n, groups, layout, d.nominal_rows, code=d.code, code_rows=code_rows, known=known)


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
