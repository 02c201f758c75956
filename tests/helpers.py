"""Shared fixtures: the four-coefficient worked instance, bit helpers,
seeded pipeline instances, random disjoint hypergraphs, and the round-off
bounds that hold the library's transform to the reference butterflies."""
import dataclasses
import math

import numpy as np
import pytest

from sparsewht import NoisyAccess, SparseSpectrum, build_regular_ldpc, draw_spectrum, kernels, sigma_for_snr
from sparsewht.bin_detect import DetectorConfig
from sparsewht.frontend import Design, SubsamplingPlan, build_offsets, build_plan, design, observe
from sparsewht.sketch import Hypergraph

from references import random_full_column_rank


def bits(s: str) -> int:
    """Pack a bit string written in position order (position 1 leftmost)."""
    return int(s[::-1], 2) if s else 0


def golden_spectrum() -> SparseSpectrum:
    return SparseSpectrum(4, {
        bits("0100"): 2.0,
        bits("0110"): 4.0,
        bits("1010"): 1.0,
        bits("1111"): 1.0,
    })


def golden_plan() -> SubsamplingPlan:
    # group 1 hashes the two high positions, group 2 the two low ones
    return SubsamplingPlan(4, [[1 << 2, 1 << 3], [1 << 0, 1 << 1]])


def random_plan(n: int, b: int, c_groups: int, rng) -> SubsamplingPlan:
    """A plan of uniformly random full-column-rank hash matrices."""
    return SubsamplingPlan(n, [random_full_column_rank(n, b, rng) for _ in range(c_groups)])


def plan_design(variant: str, plan: SubsamplingPlan, **changes) -> Design:
    """``design(variant, n, B)`` at the plan's n and bins, with ``changes``
    (``p1=``, ``code=``) replaced: ``build_offsets`` takes the rows, bases
    and code from the design and the groups from the plan."""
    return dataclasses.replace(design(variant, plan.n, plan.bins), **changes)


def window_plan(n: int, b: int, c_groups: int) -> SubsamplingPlan:
    """C groups hashing k to b consecutive bits of its index: windows at
    bits c b when they fit side by side, else spread evenly over 0..n-b.
    Gives fixtures a window plan of any shape, not only design()'s."""
    if c_groups * b <= n:
        starts = [c * b for c in range(c_groups)]
    else:
        starts = [round((n - b) * c / (c_groups - 1)) for c in range(c_groups)]
    return SubsamplingPlan(n, [[1 << (s + t) for t in range(b)] for s in starts])


# aliasing sums of the worked instance, per group and bin word
GOLDEN_BINS_G1 = np.array([2.0, 5.0, 0.0, 1.0])
GOLDEN_BINS_G2 = np.array([0.0, 1.0, 6.0, 1.0])


def seeded_instances(variant, n, k, snr_db, constellation, seeds=range(6), random=False):
    """Seeded observations with the detector settings of the benchmark:
    (spectrum, plan, offsets, cfg, obs) per seed, on the design's window
    plan or, with ``random``, on random matrices drawn first from the seed's stream."""
    d = design(variant, n, k)
    for seed in seeds:
        rng = np.random.default_rng(seed)
        plan = random_plan(n, d.b, d.c_groups, rng) if random else build_plan(d)
        spectrum = draw_spectrum(n, k, 1.0, rng, constellation=constellation)
        snr = None if snr_db is None else 10 ** (snr_db / 10)
        sigma = 0.0 if snr is None else sigma_for_snr(1.0, k, 1 << n, snr)
        access = NoisyAccess(spectrum, sigma, rng)
        # a random code per seed, drawn from the seed's stream
        seeded = dataclasses.replace(d, code=build_regular_ldpc(n, rng)) if variant == "so" else d
        offsets = build_offsets(seeded, plan, rng=rng)
        obs = observe(access, plan, offsets)
        cfg = DetectorConfig.for_noise(n, plan.bins, sigma, 1.0, snr, np.abs(obs.data).max(), constellation)
        yield spectrum, plan, offsets, cfg, obs


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


def _field_terms(size: int) -> int:
    """s = sum_i 2^p_i, the terms each output of the library's B-point
    transform sums over its Kronecker factors (``kernels._field_bits``)."""
    return sum(1 << p for p in kernels._field_bits(size.bit_length() - 1))


def transform_bound(mat: np.ndarray) -> np.ndarray:
    """Per column of ``mat`` (shape (..., B, m)), the largest difference
    between ``kernels.fwht_rows_inplace`` of it and the reference
    butterflies of it.

    With unit round-off u = eps / 2, a sum of k terms, in any order and
    with or without fused multiply-adds by +/-1, is within (k - 1) u of
    the sum of their magnitudes, to first order in u. The kernel applies
    one Kronecker factor of 2^p_i points per field, so each output is
    within sum_i (2^p_i - 1) u sum|x| of the exact transform; the
    butterflies make b two-term stages, within b u sum|x|. As p <= 2^p - 1,
    the two together stay below (s - m) eps sum|x|, s = sum_i 2^p_i. The
    bound s eps B max|x| is larger by m eps B max|x|, which covers the
    terms of order u^2. With no field (B = 1) it is 0: exact.
    """
    size = mat.shape[-2]
    return _field_terms(size) * np.finfo(np.float64).eps * size * np.max(np.abs(mat), axis=-2, keepdims=True)


def with_transform(transform, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with ``kernels.fwht_rows_inplace`` replaced
    by ``transform``; returns its result and a copy of every array the
    transform was given, in call order."""
    inputs = []

    def recording(mat):
        inputs.append(mat.copy())
        return transform(mat)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "fwht_rows_inplace", recording)
        return fn(*args, **kwargs), inputs


def observation_bound(n: int, obs, ref, inputs, ref_inputs) -> np.ndarray:
    """Per (group, offset row) column, the largest difference between the
    (C, B, P) observations ``obs`` of a ``NoisyAccess`` at N = 2^n, made
    with the library's transform, and ``ref``, made from the same
    spectrum, offsets and noise with the reference butterflies.
    ``inputs`` and ``ref_inputs`` are what the transforms were given
    (:func:`with_transform`): the oracle's alias sums x, then the samples v.

    Each side computes v = x^ / sqrt(N) + z and U = (sqrt(N) / B) v^,
    where ^ is the B-point transform. By :func:`transform_bound` the two
    x^ differ by at most s eps B X, X = max|x| over the column. The
    division and the noise add round each v twice, so the two v differ
    by at most (s + 1) eps B X / sqrt(N) + eps V, V = max|v| over both
    sides. The two v^ then differ by the rounding of the transforms, s eps
    B V, plus B times the largest difference of the v (|H| has row sums
    B), and the last scaling rounds each U once, eps O, O = max|U| over
    both sides. Together: (s + 1) eps (sqrt(N) V + B X) + eps O.
    """
    (x, v), (_, v_ref) = inputs, ref_inputs
    size, eps = x.shape[-2], np.finfo(np.float64).eps

    def column_max(*arrays):
        return np.max([np.max(np.abs(a), axis=-2, keepdims=True) for a in arrays], axis=0)

    rounding = (_field_terms(size) + 1) * eps * (math.sqrt(2.0**n) * column_max(v, v_ref) + size * column_max(x))
    return rounding + eps * column_max(obs, ref)
