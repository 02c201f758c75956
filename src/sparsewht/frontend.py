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
        self.unit_span  # eliminates each M_c once, raising PlanError unless it has full column rank

    @property
    def bins(self) -> int:
        return 1 << self.b

    @cached_property
    def unit_span(self) -> tuple:
        """Per group c, the pairs (e_q, l) of the unit words e_q = M_c l in
        colspan(M_c), from one elimination of the columns with their
        indices carried as words: a unit word in the span is a reduced row
        of weight one, and its right-hand side is l. A column that reduces
        to zero raises PlanError, since M_c lacks full column rank."""
        pairs = []
        for m in self.matrices:
            try:
                reduced, rhs = gf2.eliminate((col, 1 << t) for t, col in enumerate(m.col_words))
            except gf2.InconsistentSystemError:
                raise PlanError("subsampling matrix lacks full column rank") from None
            pairs.append(tuple((row, rhs[p]) for p, row in reduced.items() if row & (row - 1) == 0))
        return tuple(pairs)

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
        """P in the sample cost C B P, the paper's count: n + 1 for
        noiseless, p1 + 3n for SO (n reads of the zero row) and p1 n for
        NSO. The plan stores fewer (:func:`build_offsets`): one zero row,
        and no code row whose bits the bin index gives, so b fewer per
        base on a window plan: n + 1 - b, p1 + 1 + 2n - b and p1 (1 + n - b)."""
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
    the :class:`Design`'s. ``code_words`` holds every row g_r of the code,
    the n unit rows of the identity code or the 2n generator rows of the
    LDPC ``code``; ``stored[c]``, the positions r of the rows group c
    stores; ``known[c, j]``, the index bits that bin j of group c gives,
    those of the unit rows e_q in colspan(M_c), which no group stores.
    """

    variant: str
    n: int
    groups: np.ndarray  # (C, P) uint64 offset words, group c in row c
    layout: dict
    nominal_rows: int
    code: object = None
    code_words: np.ndarray | None = None  # (R,) uint64, every code row
    stored: np.ndarray | None = None  # (C, Q) positions of the stored code rows
    known: np.ndarray | None = None  # (C, B) uint64 index bits each bin gives

    @property
    def rows(self) -> int:
        return self.groups.shape[1]


@lru_cache(maxsize=8)
def _code_split(code_words: tuple, unit_span: tuple, bins: int):
    """The code rows ``code_words`` as uint64, the (C, Q) positions of the
    rows each group stores and the (C, B) index bits that each of the
    ``bins`` bins gives, for a plan's ``unit_span``; read-only and cached,
    as trials reuse a design and a random plan seldom holds a unit word
    in its span. Group c leaves out every row that is a unit word
    e_q = M_c l: <e_q, k> = <l, M_c^T k>, so bit q of every k in bin j is
    parity(l & j). Every unit word is a row of both codes (the LDPC
    generator is systematic). Groups that would store different row
    counts store every row, so that P is one count."""
    units = [dict(pairs) for pairs in unit_span]
    if len({sum(g in in_span for g in code_words) for in_span in units}) > 1:
        units = [{}] * len(units)
    stored = np.array([[r for r, g in enumerate(code_words) if g not in in_span] for in_span in units], dtype=np.int64)
    js = np.arange(bins, dtype=np.uint64)
    known = np.zeros((len(units), len(js)), dtype=np.uint64)
    for c, in_span in enumerate(units):
        for e_q, l in in_span.items():
            known[c] |= np.uint64(e_q) * kernels.parity_words(np.uint64(l) & js)
    return _read_only(np.array(code_words, dtype=np.uint64), stored, known)


def build_offsets(d: Design, plan: SubsamplingPlan, rng=None) -> OffsetPlan:
    """The offset rows of design ``d`` on ``plan``: the design's window
    plan, or another of its n (the sketch's random plan).

    Each group stores ``d.p1`` random ``verify`` rows (near-linear's only
    rows), then the ``bases`` unless they are the verify rows, then the
    ``code`` block of rows base_p xor g_r, base-major, for every base p
    and every code row g_r the group stores; each layout entry is a
    (start, stop) row range. No group stores a code row e_q in
    colspan(M_c): d xor e_q would read the coset of d, at the sign
    (-1)^<l, j> that bin j gives for e_q = M_c l, so ``OffsetPlan.known``
    holds those bits of every bin instead (b per group on a window plan,
    and none on a random plan that holds no unit word in its span). A
    plan whose groups hold different numbers of them keeps every row, so
    that P is one count.
    noiseless: the zero base and the n - b unit rows outside the window.
    nso: the verify rows are the bases, over the same n - b unit rows:
        p1 (1 + n - b) rows on a window plan.
    so: the zero base and the 2n - b generator rows of the rate-1/2
        ``d.code`` that are not unit rows of the window.
    """
    n, c_groups, rng = d.n, plan.c_groups, np.random.default_rng(rng)
    verify = rng.integers(0, 1 << n, size=(c_groups, d.p1), dtype=np.int64).astype(np.uint64)
    if d.bases is None:
        return OffsetPlan(d.variant, n, verify, {"verify": (0, d.p1)}, d.nominal_rows)

    code_words = tuple(1 << q for q in range(n)) if d.code is None else d.code.generator_rows()
    code_words, stored, known = _code_split(code_words, plan.unit_span, plan.bins)
    shared = d.bases == "verify"
    bases = verify if shared else np.zeros((c_groups, 1), dtype=np.uint64)
    block = (bases[:, :, None] ^ code_words[stored][:, None, :]).reshape(c_groups, -1)
    groups = np.concatenate([verify, block] if shared else [verify, bases, block], axis=1)
    b0 = 0 if shared else d.p1
    c0 = b0 + bases.shape[1]
    layout = {"verify": (0, d.p1), "bases": (b0, c0), "code": (c0, c0 + block.shape[1])}
    return OffsetPlan(d.variant, n, groups, layout, d.nominal_rows, code=d.code,
                      code_words=code_words, stored=stored, known=known)


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
