"""Shared fixtures: the four-coefficient worked instance, bit helpers and
seeded pipeline instances."""
import numpy as np

from sparsewht import NoisyAccess, SparseSpectrum, build_regular_ldpc, draw_spectrum, sigma_for_snr
from sparsewht.bin_detect import DetectorConfig
from sparsewht.frontend import SubsamplingPlan, build_offsets, build_plan, observe
from sparsewht.gf2 import random_full_column_rank, selection_matrix


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
    m1 = selection_matrix(4, [2, 3])
    m2 = selection_matrix(4, [0, 1])
    return SubsamplingPlan(4, 2, 2, (m1, m2), "window")


def random_plan(n: int, b: int, c_groups: int, rng) -> SubsamplingPlan:
    """A plan of uniformly random full-column-rank hash matrices."""
    mats = tuple(random_full_column_rank(n, b, rng) for _ in range(c_groups))
    return SubsamplingPlan(n, b, c_groups, mats, "window")


# aliasing sums of the worked instance, per group and bin word
GOLDEN_BINS_G1 = np.array([2.0, 5.0, 0.0, 1.0])
GOLDEN_BINS_G2 = np.array([0.0, 1.0, 6.0, 1.0])


def seeded_instances(variant, n, k, snr_db, constellation, seeds=range(6)):
    """Seeded observations with the detector settings of the benchmark:
    (spectrum, plan, offsets, cfg, obs) per seed."""
    plan = build_plan(n, k, profile="benchmark")
    for seed in seeds:
        rng = np.random.default_rng(seed)
        spectrum = draw_spectrum(n, k, 1.0, rng, constellation=constellation)
        snr = None if snr_db is None else 10 ** (snr_db / 10)
        sigma = 0.0 if snr is None else sigma_for_snr(1.0, k, 1 << n, snr)
        access = NoisyAccess(spectrum, sigma, rng)
        code = build_regular_ldpc(n, rng) if variant == "so" else None
        offsets = build_offsets(variant, plan, code=code, rng=rng)
        cfg = DetectorConfig.for_noise(n, plan.bins, sigma, 1.0, snr, constellation)
        yield spectrum, plan, offsets, cfg, observe(access, plan, offsets)
