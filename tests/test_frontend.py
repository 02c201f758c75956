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
from sparsewht.sketch import CutQueryAccess

from helpers import GOLDEN_BINS_G1, GOLDEN_BINS_G2, golden_plan, golden_spectrum, random_plan, window_plan
from references import bin_of_loop


def _window_bits(m):
    """The index bits a selection matrix's columns pick, in column order."""
    assert all(bin(col).count("1") == 1 for col in m.col_words)
    return [col.bit_length() - 1 for col in m.col_words]


def test_auto_very_sparse_uses_disjoint_windows():
    plan = build_plan(12, 16)  # delta = 1/3
    assert plan.c_groups == 3
    covered = [t for m in plan.matrices for t in _window_bits(m)]
    assert len(set(covered)) == len(covered)  # disjoint bit windows


def test_benchmark_profile_overlapping_windows_cover_all_bits():
    plan = build_plan(14, 40)
    assert plan.b == 6 and plan.c_groups == 3
    covered = {t for m in plan.matrices for t in _window_bits(m)}
    assert covered == set(range(14))


def test_window_regime_rejects_oversize():
    with pytest.raises(PlanError):
        build_plan(8, 200)


@pytest.mark.parametrize("plan_n", [8, 12])
def test_observe_refuses_an_access_of_another_n(plan_n):
    rng = np.random.default_rng(plan_n)
    access = NoisyAccess(draw_spectrum(10, 4, 1.0, rng), 0.0, rng)
    plan = build_plan(plan_n, 4)
    with pytest.raises(PlanError, match="disagree on n"):
        observe(access, plan, build_offsets("noiseless", plan))
    assert access.samples_queried == 0


def test_coset_enumeration_refuses_more_than_24_free_bits():
    plan = random_plan(31, 6, 2, np.random.default_rng(0))
    with pytest.raises(PlanError, match="n - b <= 24"):
        plan.coset_span(1)


@settings(max_examples=200, deadline=None)
@given(n_k=st.integers(2, 63).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << min(n, 30)))))
def test_build_plan_is_the_window_design(n_k):
    n, k = n_k
    b = (k - 1).bit_length()  # ceil(log2 K)
    if b >= n:
        with pytest.raises(PlanError):
            build_plan(n, k)
        return
    plan = build_plan(n, k)
    assert (plan.c_groups, len(plan.matrices), plan.b) == (3, 3, max(b, 1))
    assert all(rank_transpose(m) == plan.b for m in plan.matrices)
    windows = [_window_bits(m) for m in plan.matrices]
    assert all(w == list(range(w[0], w[0] + plan.b)) for w in windows)
    covered = [t for w in windows for t in w]
    if 3 * plan.b <= n:
        assert len(set(covered)) == len(covered)
    else:
        assert set(covered) == set(range(n))


def test_noiseless_offsets_layout():
    plan = golden_plan()
    offsets = build_offsets("noiseless", plan)
    rows = offsets.rows_u64(0)
    assert rows[0] == 0
    assert list(rows[1:]) == [1, 2, 4, 8]
    assert offsets.nominal_rows == 5


def test_nso_offsets_modulation():
    plan = window_plan(6, 2, 2)
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
    plan = window_plan(8, 2, 2)
    with pytest.raises(ValueError):
        build_offsets("so", plan, rng=np.random.default_rng(0))


def test_so_layout_and_zero_rows():
    from sparsewht.codes import build_regular_ldpc

    plan = window_plan(8, 2, 2)
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
    plan = build_plan(n, k)
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
    plan = window_plan(8, 1, 3)
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
    plan = window_plan(8, 3, 2)
    offsets = build_offsets(variant, plan, rng=rng)
    obs = observe(NoisyAccess(spectrum, 0.0, rng), plan, offsets)
    expected = _exhaustive_bin_sums(spectrum, plan, offsets)
    assert np.max(np.abs(obs.data - expected)) < 1e-9


def test_hash_pattern_invariant_to_offsets():
    # which k feeds which bin depends on M only, never on the offset row
    plan = window_plan(8, 3, 2)
    rng = np.random.default_rng(7)
    words = rng.integers(0, 256, size=64, dtype=np.int64).astype(np.uint64)
    base = plan.bins_of_many(0, words)
    for d in rng.integers(0, 256, size=5):
        assert np.array_equal(plan.bins_of_many(0, words), base)


def test_observe_noise_variance_calibration():
    plan = window_plan(6, 1, 3)
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
    plan = window_plan(10, 3, 3)
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


@pytest.mark.parametrize("variant,n,k,constellation", [
    ("nso", 17, 40, True),
    ("so", 17, 40, True),
    ("near-linear", 16, 32, True),
    ("nso", 12, 10, False),
])
def test_observe_coset_and_point_reads_agree(variant, n, k, constellation):
    # the point side reads each coset block through a cut-query log over NoisyAccess.take
    rng = np.random.default_rng(20)
    spectrum = draw_spectrum(n, k, 1.0, rng, constellation=constellation)
    sigma = sigma_for_snr(1.0, k, 1 << n, 10.0)
    plan = build_plan(n, k)
    code = build_regular_ldpc(n, rng) if variant == "so" else None
    offsets = build_offsets(variant, plan, code=code, rng=rng)
    by_coset = observe(NoisyAccess(spectrum, sigma, np.random.default_rng(21)), plan, offsets)
    point = NoisyAccess(spectrum, sigma, np.random.default_rng(21))
    by_point = observe(CutQueryAccess(point.take, n=n), plan, offsets)
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
