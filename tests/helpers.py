"""Shared fixtures: the four-coefficient worked instance and bit helpers."""
import numpy as np

from sparsewht import SparseSpectrum
from sparsewht.frontend import SubsamplingPlan
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
