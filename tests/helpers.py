"""Shared fixtures: the four-coefficient worked instance, bit helpers,
seeded pipeline instances and random disjoint hypergraphs."""
import dataclasses

import numpy as np

from sparsewht import NoisyAccess, SparseSpectrum, build_regular_ldpc, draw_spectrum, sigma_for_snr
from sparsewht.bin_detect import DetectorConfig
from sparsewht.frontend import Design, SubsamplingPlan, build_offsets, build_plan, design, observe
from sparsewht.sketch import Hypergraph

from references import plan_of, random_full_column_rank


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
    return plan_of([random_full_column_rank(n, b, rng) for _ in range(c_groups)])


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


def seeded_instances(variant, n, k, snr_db, constellation, seeds=range(6)):
    """Seeded observations with the detector settings of the benchmark:
    (spectrum, plan, offsets, cfg, obs) per seed."""
    d = design(variant, n, k)
    plan = build_plan(d)
    for seed in seeds:
        rng = np.random.default_rng(seed)
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
