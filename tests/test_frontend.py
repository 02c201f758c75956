import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewht import NoisyAccess, SparseSpectrum, build_regular_ldpc, draw_spectrum, sigma_for_snr
from sparsewht.frontend import (
    PlanError,
    build_offsets,
    build_plan,
    observe,
)
from sparsewht.gf2 import rank_transpose, solve_affine, span_words
from sparsewht.kernels import sign_matrix

from helpers import GOLDEN_BINS_G1, GOLDEN_BINS_G2, golden_plan, golden_spectrum, random_plan
from references import bin_of_loop


def _window_cols(plan):
    return {tuple(m.col_words) for m in plan.matrices}


def test_window_plan_matches_worked_example_pair():
    plan = build_plan(4, 4, regime="window", c_groups=2)
    expected = {tuple((1 << 2, 1 << 3)), tuple((1 << 0, 1 << 1))}
    assert _window_cols(plan) == expected


def test_auto_very_sparse_uses_disjoint_windows():
    plan = build_plan(12, 16)  # delta = 1/3
    assert plan.regime == "window" and plan.c_groups == 3
    covered = []
    for m in plan.matrices:
        for col in m.col_words:
            assert bin(col).count("1") == 1
            covered.append(col.bit_length() - 1)
    assert len(set(covered)) == len(covered)  # disjoint bit windows


def test_benchmark_profile_overlapping_windows_cover_all_bits():
    plan = build_plan(14, 40, profile="benchmark")
    assert plan.b == 6 and plan.c_groups == 3
    covered = set()
    for m in plan.matrices:
        covered |= {col.bit_length() - 1 for col in m.col_words}
    assert covered == set(range(14))


def test_window_regime_rejects_oversize():
    with pytest.raises(PlanError):
        build_plan(8, 200, regime="window")


def test_cyclic_drop_layout():
    plan = build_plan(9, 64, regime="cyclic-drop")
    assert plan.b == 6
    for drop, m in enumerate(plan.matrices):
        kept = {col.bit_length() - 1 for col in m.col_words}
        dropped = set(range(3 * drop, 3 * drop + 3))
        assert kept == set(range(9)) - dropped


def test_cyclic_drop_needs_divisibility():
    with pytest.raises(PlanError):
        build_plan(10, 64, regime="cyclic-drop")


@pytest.mark.parametrize("n,k,regime,c_expected", [
    (18, 128, "common-prefix-6", 6),
    (16, 7132, "common-prefix-8", 8),
    (16, 21619, "common-prefix-dense", 8),
])
def test_common_prefix_layouts(n, k, regime, c_expected):
    plan = build_plan(n, k, regime=regime)
    assert plan.c_groups == c_expected
    for m in plan.matrices:
        assert rank_transpose(m) == plan.b


def test_auto_regime_selection():
    assert build_plan(18, 128).regime == "common-prefix-6"
    assert build_plan(16, 7132).regime == "common-prefix-8"
    assert build_plan(16, 21619).regime == "common-prefix-dense"
    with pytest.raises(PlanError):
        build_plan(10, 1015)  # delta > 0.99


def test_noiseless_offsets_layout():
    plan = golden_plan()
    offsets = build_offsets("noiseless", plan)
    rows = offsets.rows_u64(0)
    assert rows[0] == 0
    assert list(rows[1:]) == [1, 2, 4, 8]
    assert offsets.nominal_rows == 5


def test_nso_offsets_modulation():
    plan = build_plan(6, 4, regime="window", c_groups=2)
    offsets = build_offsets("nso", plan, p1=3, rng=np.random.default_rng(0))
    rows = offsets.rows_u64(0)
    p1, n = 3, 6
    assert len(rows) == p1 * (n + 1)
    base = rows[:p1]
    blocks = rows[p1:].reshape(p1, n)
    for p in range(p1):
        for q in range(n):
            assert blocks[p, q] == base[p] ^ np.uint64(1 << q)
    assert offsets.nominal_rows == p1 * n


def test_so_requires_code():
    plan = build_plan(8, 4, regime="window", c_groups=2)
    with pytest.raises(ValueError):
        build_offsets("so", plan, rng=np.random.default_rng(0))


def test_so_layout_and_zero_rows():
    from sparsewht.codes import build_regular_ldpc

    plan = build_plan(8, 4, regime="window", c_groups=2)
    code = build_regular_ldpc(8, np.random.default_rng(1))
    offsets = build_offsets("so", plan, code=code, rng=np.random.default_rng(2))
    r0, r1 = offsets.layout["random"]
    ref = offsets.layout["reference"]
    c0, c1 = offsets.layout["coded"]
    rows = offsets.rows_u64(0)
    assert (r1 - r0, c0 - ref, c1 - c0) == (8, 1, 16)
    assert (r1, offsets.rows) == (ref, c1)
    assert rows[ref] == 0
    assert list(rows[c0:c1]) == list(code.generator_rows())
    # the formula counts n zero-offset reads; the plan stores one row
    assert offsets.nominal_rows == 32


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 14), log_k=st.integers(0, 5), sigma=st.floats(0.01, 0.5),
       seed=st.integers(0, 2**32 - 1))
def test_so_single_reference_row_observes_like_n_copies(n, log_k, sigma, seed):
    # SO's paper layout reads the zero offset n times; a repeated position
    # returns the same sample, so storing it once loses nothing
    k = min(1 << log_k, 1 << (n - 1))
    rng = np.random.default_rng(seed)
    plan = build_plan(n, k, profile="benchmark")
    spectrum = draw_spectrum(n, k, 1.0, rng)
    offsets = build_offsets("so", plan, code=build_regular_ldpc(n, rng), rng=rng)
    ref = offsets.layout["reference"]
    copies = dataclasses.replace(offsets, groups=tuple(
        np.insert(g, ref, np.zeros(n - 1, dtype=np.uint64)) for g in offsets.groups))
    assert copies.rows == offsets.rows + n - 1
    one = observe(NoisyAccess(spectrum, sigma, np.random.default_rng(seed)), plan, offsets)
    many = observe(NoisyAccess(spectrum, sigma, np.random.default_rng(seed)), plan, copies)
    shared = np.r_[0:ref + 1, ref + n:copies.rows]
    assert np.array_equal(one.data.view(np.uint64), many.data[:, :, shared].view(np.uint64))
    assert np.array_equal(many.data[:, :, ref:ref + n].view(np.uint64),
                          np.repeat(one.data[:, :, ref:ref + 1], n, axis=2).view(np.uint64))
    assert (one.distinct_samples, one.nominal_samples) == (many.distinct_samples, many.nominal_samples)


def test_observe_golden_sums():
    obs = observe(NoisyAccess(golden_spectrum(), 0.0, np.random.default_rng(0)),
                  golden_plan(), build_offsets("noiseless", golden_plan()))
    assert np.allclose(obs.data[0, :, 0], GOLDEN_BINS_G1, atol=1e-12)
    assert np.allclose(obs.data[1, :, 0], GOLDEN_BINS_G2, atol=1e-12)


def test_observe_zero_spectrum_noiseless():
    plan = build_plan(8, 4, regime="window")
    access = NoisyAccess(SparseSpectrum(8, {}), 0.0, np.random.default_rng(0))
    obs = observe(access, plan, build_offsets("noiseless", plan))
    assert np.all(obs.data == 0)


def _exhaustive_bin_sums(spectrum, plan, offsets):
    """Direct aliasing sums over every k, the observation-model oracle."""
    n = plan.n
    all_k = np.arange(1 << n, dtype=np.uint64)
    dense = np.zeros(1 << n)
    for k, v in spectrum.entries.items():
        dense[k] = v
    out = np.zeros((plan.c_groups, plan.bins, offsets.rows))
    for c in range(plan.c_groups):
        bins = plan.bins_of_many(c, all_k).astype(np.int64)
        signs = sign_matrix(all_k, offsets.rows_u64(c))
        for j in range(plan.bins):
            members = bins == j
            out[c, j] = dense[members] @ signs[members]
    return out


@pytest.mark.parametrize("variant", ["noiseless", "near-linear", "nso"])
def test_observe_matches_exhaustive_sum(variant):
    rng = np.random.default_rng(6)
    spectrum = draw_spectrum(8, 6, 1.0, rng)
    plan = build_plan(8, 6, regime="window", c_groups=2)
    offsets = build_offsets(variant, plan, rng=rng)
    obs = observe(NoisyAccess(spectrum, 0.0, rng), plan, offsets)
    expected = _exhaustive_bin_sums(spectrum, plan, offsets)
    assert np.max(np.abs(obs.data - expected)) < 1e-9


def test_hash_pattern_invariant_to_offsets():
    # which k feeds which bin depends on M only, never on the offset row
    plan = build_plan(8, 6, regime="window", c_groups=2)
    rng = np.random.default_rng(7)
    words = rng.integers(0, 256, size=64, dtype=np.int64).astype(np.uint64)
    base = plan.bins_of_many(0, words)
    for d in rng.integers(0, 256, size=5):
        assert np.array_equal(plan.bins_of_many(0, words), base)


def test_observe_noise_variance_calibration():
    plan = build_plan(6, 4, regime="window")
    sigma = 0.7
    nu2 = (1 << 6) * sigma**2 / plan.bins
    offsets = build_offsets("near-linear", plan, p1=8, rng=np.random.default_rng(8))
    pooled = []
    for trial in range(120):
        access = NoisyAccess(SparseSpectrum(6, {}), sigma, np.random.default_rng(1000 + trial))
        obs = observe(access, plan, offsets)
        pooled.append(obs.data.reshape(-1))
    samples = np.concatenate(pooled)
    assert abs(samples.var() / nu2 - 1.0) < 0.10


def test_observation_energy_constant_across_offsets_when_bins_isolated():
    # offsets only flip signs inside bins, so with at most one coefficient
    # per bin the per-row energy is identical for every offset row
    plan = build_plan(10, 16, regime="window")
    spectrum = SparseSpectrum(10, {0b001001001: 1.0, 0b010010010: -1.0, 0b100100100: 1.0})
    bins_used = [set(bin_of_loop(plan, c, k) for k in spectrum.entries) for c in range(plan.c_groups)]
    assert all(len(b) == spectrum.sparsity for b in bins_used)
    offsets = build_offsets("near-linear", plan, p1=12, rng=np.random.default_rng(9))
    obs = observe(NoisyAccess(spectrum, 0.0, np.random.default_rng(0)), plan, offsets)
    energies = (obs.data**2).sum(axis=1)
    assert np.max(np.abs(energies - energies[:, :1])) < 1e-9


def test_sample_counts():
    plan = golden_plan()
    offsets = build_offsets("noiseless", plan)
    access = NoisyAccess(golden_spectrum(), 0.0, np.random.default_rng(0))
    obs = observe(access, plan, offsets)
    assert obs.nominal_samples == 2 * 4 * 5
    assert obs.distinct_samples == access.samples_queried
    assert obs.distinct_samples <= obs.nominal_samples


class _PointReads:
    """An oracle that answers point reads only, backed by a NoisyAccess."""

    def __init__(self, access):
        self._access = access

    def take(self, positions):
        return self._access.take(positions)

    @property
    def samples_queried(self):
        return self._access.samples_queried


@pytest.mark.parametrize("variant,n,k,constellation", [
    ("nso", 17, 40, True),
    ("so", 17, 40, True),
    ("near-linear", 16, 32, True),
    ("nso", 12, 10, False),
])
def test_observe_coset_and_point_reads_agree(variant, n, k, constellation):
    rng = np.random.default_rng(20)
    spectrum = draw_spectrum(n, k, 1.0, rng, constellation=constellation)
    sigma = sigma_for_snr(1.0, k, 1 << n, 10.0)
    plan = build_plan(n, k, profile="benchmark")
    code = build_regular_ldpc(n, rng) if variant == "so" else None
    offsets = build_offsets(variant, plan, code=code, rng=rng)
    by_coset = observe(NoisyAccess(spectrum, sigma, np.random.default_rng(21)), plan, offsets)
    by_point = observe(_PointReads(NoisyAccess(spectrum, sigma, np.random.default_rng(21))), plan, offsets)
    if constellation:
        assert np.array_equal(by_coset.data, by_point.data)
    else:
        assert np.max(np.abs(by_coset.data - by_point.data)) <= 1e-12
    assert (by_coset.distinct_samples, by_coset.nominal_samples) == (by_point.distinct_samples,
                                                                     by_point.nominal_samples)


_plans = st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(1, 3), st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(plan_args=_plans)
def test_bins_of_many_agrees_with_bin_of(plan_args):
    n, b, c_groups, seed = plan_args
    rng = np.random.default_rng(seed)
    plan = random_plan(n, b, c_groups, rng)
    words = rng.integers(0, 1 << n, size=20, dtype=np.int64).astype(np.uint64)
    for c in range(c_groups):
        assert [int(j) for j in plan.bins_of_many(c, words)] == [bin_of_loop(plan, c, int(k)) for k in words]


@settings(max_examples=60, deadline=None)
@given(plan_args=_plans)
def test_coset_is_the_bin_preimage(plan_args):
    n, b, c_groups, seed = plan_args
    rng = np.random.default_rng(seed)
    plan = random_plan(n, b, c_groups, rng)
    c = c_groups - 1
    span = plan.coset(c, 0)
    for j in rng.integers(0, plan.bins, size=4).tolist():
        words = plan.coset(c, j)
        assert len(np.unique(words)) == len(words) == 1 << (n - b)
        assert np.all(plan.bins_of_many(c, words) == j)
        # the cached particular word is solve_affine's, up to the span
        particular, _ = solve_affine(plan.matrices[c], j)
        assert int(plan.particular_words(c)[j]) ^ particular in set(span.tolist())
    # the basis words generate the null space, the bin-0 coset
    basis = plan.coset_basis(c)
    assert len(basis) == n - b and np.all(plan.bins_of_many(c, basis) == 0)
    assert set(span_words(basis.tolist()).tolist()) == set(span.tolist())
