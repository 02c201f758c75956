"""Observation generator: subsampling plans, offset plans, bin observations.

A plan holds the column words of C subsampling matrices M_c (n x b,
full column rank); group c hashes k to bin j = M_c^T k, which fixes b of
k's bits once the other n - b, its free bits, are known, so a group's
code rows read only the free bits (:func:`build_offsets`). Observations are built
by reading the B = 2^b samples u[M_c l + d] for each offset row d,
applying a B-point unnormalized Walsh-Hadamard transform (products of
small Hadamard matrices, ``kernels.fwht_rows_inplace``) and scaling by
sqrt(N)/B, which yields
U_{c,p}[j] = sum_{M_c^T k = j} X[k] (-1)^<d_{c,p}, k> plus noise of
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
MAX_COSET_BITS = 24  # n - b: near-linear scores all 2^(n-b) words of a bin's coset


class PlanError(ValueError):
    pass


@dataclass(frozen=True)
class SubsamplingPlan:
    """C hash matrices M_c (n x b) as their read-only (C, b) uint64 column
    words below 2^n, group c in row c. Each group is solved once, at
    construction, by one ``gf2.eliminate`` of M_c^T k = j, which is also
    the rank check. The solve splits k's n bits into b pivot bits, which
    bin j fixes once the others are known, and the n - b ``free_bits``:
    the word of bin j with given free bits is ``particular_words[c, j]``
    xor the ``coset_basis[c]`` words they select (:meth:`bin_words`)."""

    n: int
    col_words: np.ndarray  # (C, b) uint64, read-only

    def __post_init__(self):
        gf2.check_bits(self.n)
        words = np.array(self.col_words, dtype=np.uint64)
        if words.ndim != 2 or (words >> np.uint64(self.n)).any():
            raise PlanError(f"column words must be a (C, b) array of words below 2^{self.n}, got {words.shape}")
        object.__setattr__(self, "col_words", _read_only(words)[0])
        self._solved  # the rank check

    @property
    def c_groups(self) -> int:
        return self.col_words.shape[0]

    @property
    def b(self) -> int:
        return self.col_words.shape[1]

    @property
    def bins(self) -> int:
        return 1 << self.b

    @cached_property
    def _solved(self) -> tuple:
        """The reduced M_c^T of every group as three (C, b) uint64 arrays:
        the pivot bits, the reduced row of each pivot p and its rhs word r_p
        (column t has rhs 1 << t), so bit p of a solution for bin j is <r_p, j>."""
        try:
            solved = [gf2.eliminate((col, 1 << t) for t, col in enumerate(m)) for m in self.col_words.tolist()]
        except gf2.InconsistentSystemError:
            raise PlanError("subsampling matrix lacks full column rank") from None
        tables = [list(r) for r, _ in solved], [list(r.values()) for r, _ in solved], [[h[p] for p in r] for r, h in solved]
        return tuple(np.array(table, dtype=np.uint64).reshape(self.col_words.shape) for table in tables)

    @cached_property
    def free_bits(self) -> np.ndarray:
        """The (C, n - b) int64 bits of k that are not pivot bits of group
        c's solve, ascending per group, read-only: bin j fixes the other b."""
        pivot = np.zeros((self.c_groups, self.n), dtype=bool)
        pivot[np.arange(self.c_groups)[:, None], self._solved[0].astype(np.int64)] = True
        return _read_only(np.nonzero(~pivot)[1].reshape(self.c_groups, self.n - self.b))[0]

    @cached_property
    def _k_basis(self) -> np.ndarray:
        """Per group c, the n uint64 words whose XOR over the set bits of
        (j, f) is the k of bin j with free bits f, read-only: the b solutions
        for the unit words j with free bits 0, then ``coset_basis[c]``."""
        pivots, reduced, rhs = self._solved
        free = self.free_bits.astype(np.uint64)

        def at_pivots(words, bits):
            # per group, bit t of each pivot p's word moved to bit p, for each t in ``bits``
            return np.bitwise_or.reduce((words[:, :, None] >> bits[:, None, :] & np.uint64(1)) << pivots[:, :, None],
                                        axis=1)

        units = at_pivots(rhs, np.broadcast_to(np.arange(self.b, dtype=np.uint64), rhs.shape))
        basis = np.uint64(1) << free | at_pivots(reduced, free)
        return _read_only(np.concatenate([units, basis], axis=1))[0]

    @cached_property
    def particular_words(self) -> np.ndarray:
        """The (C, B) uint64 table of the solution p_c(j) of M_c^T k = j
        whose free bits are 0, per group c and bin word j, read-only: p_c is
        linear in j, so row c is the ``gf2.span_words`` of the b solutions
        for the unit words j."""
        return _read_only(gf2.span_words(self._k_basis[:, :self.b]))[0]

    @property
    def coset_basis(self) -> np.ndarray:
        """The (C, n - b) uint64 words spanning the null space of each
        M_c^T, read-only: word i has free bit ``free_bits[c, i]`` and no other."""
        return self._k_basis[:, self.b:]

    def bin_words(self, c: int, js: np.ndarray, free: np.ndarray) -> np.ndarray:
        """The words of group c's bins ``js`` whose free bits are the 0/1
        rows of the (m, n - b) array ``free``, in ``free_bits[c]`` order:
        ``particular_words[c, j]`` xor the ``coset_basis[c]`` words they
        select, without the table: the bits of j select p_c(j)'s b words."""
        bits = np.concatenate([np.asarray(js)[:, None] >> np.arange(self.b) & 1, free], axis=1)
        return np.bitwise_xor.reduce(self._k_basis[c] * bits.astype(np.uint64), axis=1)

    def bins_of_many(self, c: int, k_words: np.ndarray) -> np.ndarray:
        return kernels.hash_words(k_words, self.col_words[c])

    def coset(self, c: int, j_word: int) -> np.ndarray:
        """All k hashing to bin j in group c, as packed uint64 words, for
        n - b <= ``MAX_COSET_BITS``: word alpha is ``particular_words[c, j]``
        xor the ``coset_basis[c]`` words that the set bits of alpha select."""
        if self.n - self.b > MAX_COSET_BITS:
            raise PlanError(f"coset enumeration limited to n - b <= {MAX_COSET_BITS}")
        return gf2.span_words(self.coset_basis[c]) ^ self.particular_words[c, j_word]


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
        """P in the sample cost C B P, the paper's count: n + 1 for
        noiseless, p1 + 3n for SO (n reads of the zero row) and p1 n for
        NSO. The plan stores fewer (:func:`build_offsets`): one zero row,
        and no systematic code row at a pivot bit, whose bit the bin index
        gives, so b fewer per base on every plan: n + 1 - b, p1 + 1 + 2n - b
        and p1 (1 + n - b)."""
        n, p1 = self.n, self.p1
        return {"noiseless": n + 1, "near-linear": p1, "nso": p1 * n, "so": p1 + 3 * n}[self.variant]

    @property
    def nominal_samples(self) -> int:
        return (self.c_groups << self.b) * self.nominal_rows


@lru_cache(maxsize=8)
def design(variant: str, n: int, k: int) -> Design:
    """The one design of ``variant`` for sparsity K at N = 2^n, cached: b =
    ceil(log2 K), at least 1 and below n (else PlanError); the windows are
    disjoint when C b <= n, else spread evenly to cover bits 0..n-1.
    Near-linear's coset search costs P 2^(n-b) per bin, 2^(n-b) about N / K,
    so it needs n - b <= ``MAX_COSET_BITS`` (else PlanError, before any read)."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    gf2.check_bits(n)
    b = max(1, (int(k) - 1).bit_length())  # exact ceil(log2 K): a float log2 rounds 2^49 + 1 down
    if k < 1 or b >= n:
        raise PlanError(f"the window design needs K >= 1 and b = ceil(log2 K) < n, got K={k}, n={n}")
    if variant == "near-linear" and n - b > MAX_COSET_BITS:
        raise PlanError(f"the near-linear coset search needs n - b <= {MAX_COSET_BITS}, got n - b = {n - b}")
    spread = GROUPS * b > n
    starts = tuple(round((n - b) * c / (GROUPS - 1)) if spread else c * b for c in range(GROUPS))
    p1 = {"noiseless": 0, "near-linear": 3 * n, "nso": 2 * n, "so": n}[variant]
    bases = {"near-linear": None, "nso": "verify"}.get(variant, "zero")
    code = codes.code_for(n) if variant == "so" else None
    return Design(variant, n, GROUPS, b, starts, p1, bases, code)


def build_plan(d: Design) -> SubsamplingPlan:
    """The window plan of ``d``, built once: group c hashes k to its b bits
    from ``d.starts[c]``. Its column words and bin tables are read-only."""
    return _window_plan(d.n, d.b, d.starts)


@lru_cache(maxsize=8)
def _window_plan(n: int, b: int, starts: tuple) -> SubsamplingPlan:
    """Group c hashes k to its b bits from ``starts[c]``: column t is the word 1 << (starts[c] + t)."""
    return SubsamplingPlan(n, [[1 << (start + t) for t in range(b)] for start in starts])


@dataclass(frozen=True)
class OffsetPlan:
    """Per-group offset matrices D_c: row c of the (C, P) uint64 array
    ``groups`` holds the packed offset words of group c.

    ``layout`` names each row role once, by (start, stop) row range (see
    :func:`build_offsets`); ``variant``, ``nominal_rows`` and ``code`` are
    the :class:`Design`'s. ``code_words`` holds every row g_r of the code,
    the n unit rows of the identity code or the 2n generator rows of the
    LDPC ``code``, systematic rows first; ``stored[c]``, the positions r
    of the rows group c stores: the systematic rows at ``plan.free_bits[c]``,
    then the parity rows. The bin gives the bits of the rows it leaves out.
    """

    variant: str
    n: int
    groups: np.ndarray  # (C, P) uint64 offset words, group c in row c
    layout: dict
    nominal_rows: int
    code: object = None
    code_words: np.ndarray | None = None  # (R,) uint64, every code row
    stored: np.ndarray | None = None  # (C, R - b) positions of the stored code rows

    @property
    def rows(self) -> int:
        return self.groups.shape[1]


def build_offsets(d: Design, plan: SubsamplingPlan, rng=None) -> OffsetPlan:
    """The offset rows of design ``d`` on ``plan``: the design's window
    plan, or another of its n (the sketch's random plan).

    Each group stores ``d.p1`` random ``verify`` rows (near-linear's only
    rows), then the ``bases`` unless they are the verify rows, then the
    ``code`` block of rows base_p xor g_r, base-major, for every base p
    and every code row g_r the group stores; each layout entry is a
    (start, stop) row range. Group c stores the code's systematic rows
    e_q at its free bits q (``plan.free_bits[c]``, ascending), then its
    parity rows: the bin fixes k's b pivot bits once the free bits are
    measured, so every group stores b rows fewer than the code has.
    noiseless: the zero base and the n - b unit rows at the free bits.
    nso: the verify rows are the bases, over the same n - b unit rows:
        p1 (1 + n - b) rows.
    so: the zero base and the 2n - b rows of the rate-1/2 ``d.code``
        (n - b systematic, n parity).
    """
    n, c_groups, rng = d.n, plan.c_groups, np.random.default_rng(rng)
    verify = rng.integers(0, 1 << n, size=(c_groups, d.p1), dtype=np.int64).astype(np.uint64)
    if d.bases is None:
        return OffsetPlan(d.variant, n, verify, {"verify": (0, d.p1)}, d.nominal_rows)

    code_words = np.array([1 << q for q in range(n)] if d.code is None else d.code.g_rows, dtype=np.uint64)
    parity = np.broadcast_to(np.arange(n, len(code_words)), (c_groups, len(code_words) - n))
    code_words, stored = _read_only(code_words, np.concatenate([plan.free_bits, parity], axis=1))
    shared = d.bases == "verify"
    bases = verify if shared else np.zeros((c_groups, 1), dtype=np.uint64)
    block = (bases[:, :, None] ^ code_words[stored][:, None, :]).reshape(c_groups, -1)
    groups = np.concatenate([verify, block] if shared else [verify, bases, block], axis=1)
    b0 = 0 if shared else d.p1
    c0 = b0 + bases.shape[1]
    layout = {"verify": (0, d.p1), "bases": (b0, c0), "code": (c0, c0 + block.shape[1])}
    return OffsetPlan(d.variant, n, groups, layout, d.nominal_rows, code=d.code,
                      code_words=code_words, stored=stored)


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
    owns, and ``samples_queried``. The B-point transform runs down the
    tensor's columns and the scaling follows, both in place. Where every
    partial sum is exact, as for the noise-free samples of a +/-1
    spectrum at even n (integers times 2^(-n/2)), the observations are
    the same on every machine; otherwise their low bits depend on the
    BLAS kernel that ``kernels.fwht_rows_inplace`` runs on.
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
