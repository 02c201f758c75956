import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsewht import NoisyAccess, SparseSpectrum, build_regular_ldpc, draw_spectrum, sigma_for_snr, synthesize_many
from sparsewht.codes import code_for
from sparsewht.frontend import (
    PlanError,
    SubsamplingPlan,
    build_offsets,
    build_plan,
    design,
    observe,
)
from sparsewht import gf2, kernels
from sparsewht.gf2 import eliminate, span_words
from sparsewht.kernels import sign_matrix
from sparsewht.sketch import CutQueryAccess

from helpers import (GOLDEN_BINS_G1, GOLDEN_BINS_G2, golden_plan, golden_spectrum, observation_bound, random_plan,
                     window_plan, with_transform)
from references import bin_of_loop, fwht_rows_butterflies, random_full_column_rank, rank_transpose, solve_affine


def _window_bits(cols):
    """The index bits a selection matrix's column words pick, in column order."""
    assert all(bin(col).count("1") == 1 for col in cols)
    return [col.bit_length() - 1 for col in cols]


def test_auto_very_sparse_uses_disjoint_windows():
    plan = build_plan(design("noiseless", 12, 16))  # delta = 1/3
    assert plan.c_groups == 3
    covered = [t for cols in plan.col_words.tolist() for t in _window_bits(cols)]
    assert len(set(covered)) == len(covered)  # disjoint bit windows


def test_benchmark_profile_overlapping_windows_cover_all_bits():
    plan = build_plan(design("noiseless", 14, 40))
    assert plan.b == 6 and plan.c_groups == 3
    covered = {t for cols in plan.col_words.tolist() for t in _window_bits(cols)}
    assert covered == set(range(14))


def test_window_regime_rejects_oversize():
    with pytest.raises(PlanError):
        design("noiseless", 8, 200)


@pytest.mark.parametrize("plan_n", [8, 12])
def test_observe_refuses_an_access_of_another_n(plan_n):
    rng = np.random.default_rng(plan_n)
    access = NoisyAccess(draw_spectrum(10, 4, 1.0, rng), 0.0, rng)
    d = design("noiseless", plan_n, 4)
    plan = build_plan(d)
    with pytest.raises(PlanError, match="disagree on n"):
        observe(access, plan, build_offsets(d, plan))
    assert access.samples_queried == 0


def test_observe_refuses_offsets_of_another_group_count():
    rng = np.random.default_rng(3)
    access = NoisyAccess(draw_spectrum(10, 4, 1.0, rng), 0.0, rng)
    d = design("noiseless", 10, 4)
    plan = build_plan(d)
    with pytest.raises(PlanError, match="plan and offsets disagree on group count"):
        observe(access, plan, build_offsets(d, SubsamplingPlan(10, plan.col_words[:2])))
    assert access.samples_queried == 0


@pytest.mark.parametrize("variant", ["fast", "NSO", ""])
def test_design_refuses_an_unknown_variant(variant):
    with pytest.raises(ValueError, match=f"unknown variant {variant!r}"):
        design(variant, 10, 4)


def test_plan_refuses_a_matrix_without_full_column_rank():
    # column words 3, 5 and their sum 6: the third reduces to zero
    with pytest.raises(PlanError, match="lacks full column rank"):
        SubsamplingPlan(4, [[3, 5, 6]])


def test_plan_is_its_column_words():
    # n and the (C, b) column words are the whole plan; C, b and B are the array's shape
    words = np.array([[1 << 2, 1 << 3], [3, 5], [1 << 7, 1]], dtype=np.uint64)
    plan = SubsamplingPlan(8, words)
    assert [f.name for f in dataclasses.fields(plan)] == ["n", "col_words"]
    assert (plan.c_groups, plan.b, plan.bins) == (3, 2, 4)
    words[0, 0] = 1  # the plan holds its own read-only copy
    assert plan.col_words.tolist() == [[4, 8], [3, 5], [128, 1]] and plan.col_words.dtype == np.uint64
    with pytest.raises(ValueError, match="read-only"):
        plan.col_words[0, 0] = 0


@pytest.mark.parametrize("words", [[[1 << 8]], [[1, 2], [3, 1 << 9]], [1, 2], [[[1]]], 5])
def test_plan_refuses_a_word_at_or_above_n_or_an_array_not_2d(words):
    with pytest.raises(PlanError, match=r"must be a \(C, b\) array of words below 2\^8"):
        SubsamplingPlan(8, words)


def test_coset_enumeration_refuses_more_than_24_free_bits():
    # near-linear scores every word of a bin's coset: its design refuses
    # n - b = 25 before any plan is built; the other variants list no coset
    with pytest.raises(PlanError, match=r"n - b <= 24, got n - b = 25"):
        design("near-linear", 30, 32)
    assert design("near-linear", 29, 32).b == design("so", 30, 32).b == 5
    plan = random_plan(31, 6, 2, np.random.default_rng(0))
    assert plan.coset_basis.shape == (2, 25)
    with pytest.raises(PlanError, match="n - b <= 24"):
        plan.coset(1, 0)


def test_sketch_shaped_plan_has_a_coset_basis():
    # n = 50, b = 7: 43 free bits, each group's basis spans the bin-0 coset
    plan = random_plan(50, 7, 3, np.random.default_rng(5))
    for c in range(plan.c_groups):
        basis = plan.coset_basis[c]
        assert len(basis) == 43 and not plan.bins_of_many(c, basis).any()
        assert len(eliminate((int(w), 0) for w in basis)[0]) == 43


def test_plan_eliminates_each_group_once(monkeypatch):
    # the matrices and SO's code are drawn first: both run eliminations of their own
    cols = [random_full_column_rank(12, 4, np.random.default_rng(s)) for s in range(3)]
    d = design("so", 12, 16)
    calls = []
    monkeypatch.setattr(gf2, "eliminate", lambda rows: calls.append(1) or eliminate(rows))
    plan = SubsamplingPlan(12, cols)
    plan.free_bits, plan.particular_words, plan.coset_basis, plan.coset(2, 5)
    build_offsets(d, plan, rng=np.random.default_rng(0))
    assert len(calls) == 3


@settings(max_examples=200, deadline=None)
@given(n_k=st.integers(2, 63).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 1 << n))))
@example(n_k=(63, (1 << 49) + 1))  # B = 2^b must reach K where a float log2 rounds down
def test_build_plan_is_the_window_design(n_k):
    n, k = n_k
    b = (k - 1).bit_length()  # ceil(log2 K)
    if b >= n:
        with pytest.raises(PlanError):
            design("noiseless", n, k)
        return
    d = design("noiseless", n, k)
    plan = build_plan(d)
    assert (plan.c_groups, len(plan.col_words), plan.b) == (3, 3, max(b, 1)) == (d.c_groups, 3, d.b)
    assert all(rank_transpose(cols) == plan.b for cols in plan.col_words.tolist())
    windows = [_window_bits(cols) for cols in plan.col_words.tolist()]
    assert all(w == list(range(w[0], w[0] + plan.b)) for w in windows)
    assert tuple(w[0] for w in windows) == d.starts
    covered = [t for w in windows for t in w]
    if 3 * plan.b <= n:
        assert len(set(covered)) == len(covered)
    else:
        assert set(covered) == set(range(n))


def test_noiseless_offsets_layout():
    # the zero row and the unit rows at each group's free bits, outside its
    # window: group 1 hashes the two high positions, group 2 the two low
    # ones, whose bits the bin gives
    plan = golden_plan()
    offsets = build_offsets(design("noiseless", 4, 4), plan)
    assert offsets.layout == {"verify": (0, 0), "bases": (0, 1), "code": (1, 3)}
    assert offsets.code is None
    assert offsets.groups.tolist() == [[0, 1, 2], [0, 4, 8]]
    assert plan.free_bits.tolist() == [[0, 1], [2, 3]]
    # the particular word of bin j has free bits 0 and the window bits j
    assert plan.particular_words.tolist() == [[0, 4, 8, 12], [0, 1, 2, 3]]
    assert offsets.nominal_rows == 5


def test_near_linear_offsets_layout():
    # its random rows are all it stores, under the key both detectors test
    plan = window_plan(8, 3, 2)
    d = dataclasses.replace(design("near-linear", 8, 8), p1=12)
    offsets = build_offsets(d, plan, rng=np.random.default_rng(3))
    assert offsets.layout == {"verify": (0, 12)} and offsets.code is None
    assert offsets.groups.shape == (plan.c_groups, 12) and offsets.nominal_rows == 12


def test_nso_offsets_modulation():
    plan = window_plan(6, 2, 2)
    offsets = build_offsets(dataclasses.replace(design("nso", 6, 4), p1=3), plan, rng=np.random.default_rng(0))
    p1, n, b = 3, 6, 2
    # the bases are the verify rows, stored once; the unit rows of the
    # window, whose bits the bin gives, are left out
    assert offsets.layout == {"verify": (0, p1), "bases": (0, p1), "code": (p1, p1 * (1 + n - b))}
    assert offsets.code is None
    assert offsets.groups.shape == (plan.c_groups, p1 * (1 + n - b))
    # the tables are cached per design, so no caller may write them
    assert not any(table.flags.writeable for table in (offsets.code_words, offsets.stored))
    for c, window in enumerate(([0, 1], [2, 3])):
        rows = offsets.groups[c]
        outside = [q for q in range(n) if q not in window]
        assert offsets.code_words[offsets.stored[c]].tolist() == [1 << q for q in outside]
        base = rows[:p1]
        blocks = rows[p1:].reshape(p1, n - b)
        for p in range(p1):
            for i, q in enumerate(outside):
                assert blocks[p, i] == base[p] ^ np.uint64(1 << q)
    assert offsets.nominal_rows == p1 * n


@pytest.mark.parametrize("variant", ["noiseless", "nso", "so"])
@settings(max_examples=60, deadline=None)
@given(window=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_coded_layouts_leave_out_exactly_the_unit_rows_the_bin_gives(variant, window, seed, data):
    # a window plan, or random full-column-rank matrices: every group stores
    # the systematic rows at its free bits, then every parity row
    n = data.draw(st.integers(6 if variant == "so" else 2, 12))
    b, c_groups = data.draw(st.integers(1, n)), data.draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    plan = window_plan(n, b, c_groups) if window else random_plan(n, b, c_groups, rng)
    p1 = 0 if variant == "noiseless" else 3
    offsets = build_offsets(dataclasses.replace(design(variant, n, 1), p1=p1), plan, rng=rng)
    code_words = [1 << q for q in range(n)] if variant != "so" else list(code_for(n).g_rows)
    assert offsets.code_words.tolist() == code_words
    bases = p1 if variant == "nso" else 1
    assert offsets.rows == p1 * (variant != "nso") + bases * (1 + len(code_words) - b)
    ks = rng.integers(0, 1 << n, size=16).tolist()
    for c, span in enumerate(span_words(cols) for cols in plan.col_words):
        free = plan.free_bits[c].tolist()
        assert offsets.stored[c].tolist() == free + list(range(n, len(code_words)))
        # the rows left out are the systematic rows at the b pivot bits, and
        # every unit word in the group's brute-force column span is one of them
        pivots = set(range(n)) - set(free)
        assert len(pivots) == b
        assert {q for q in range(n) if 1 << q in set(span.tolist())} <= pivots
        # the bin and the free bits give every k in it
        for k in ks:
            j = bin_of_loop(plan, c, k)
            measured = np.array([[k >> q & 1 for q in free]])
            assert plan.bin_words(c, np.array([j]), measured).tolist() == [k]
        if window:
            # over each base, the base and its stored systematic rows read
            # distinct cosets; the random bases, and SO's parity rows, which
            # may repeat a unit row, may share one by chance
            window_mask = sum(plan.col_words[c].tolist())
            units = {0} | {1 << q for q in free}
            assert len({g & ~window_mask for g in units}) == len(units)


_rules = st.integers(1, 63).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n), st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None)
@given(rule=_rules)
def test_free_bits_and_the_bin_give_every_index(rule):
    # on window and random plans up to n = 63: the free bits and the b
    # pivot bits partition 0..n-1, M_c^T is invertible on the pivots, coset
    # basis word i holds free bit i and no other, and the word of k's bin
    # with k's free bits is k
    n, b, c_groups, window, seed = rule
    rng = np.random.default_rng(seed)
    plan = window_plan(n, b, c_groups) if window else random_plan(n, b, c_groups, rng)
    assert plan.free_bits.shape == (c_groups, n - b) and plan.coset_basis.shape == (c_groups, n - b)
    ks = rng.integers(0, 1 << n, size=8, dtype=np.uint64)
    for c in range(c_groups):
        free = plan.free_bits[c].tolist()
        assert free == sorted(set(free)) and all(0 <= q < n for q in free)
        free_mask = sum(1 << q for q in free)
        pivot_mask = ((1 << n) - 1) ^ free_mask
        assert rank_transpose([w & pivot_mask for w in plan.col_words[c].tolist()]) == b
        basis = plan.coset_basis[c].tolist()
        assert [w & free_mask for w in basis] == [1 << q for q in free]
        js = plan.bins_of_many(c, ks).astype(np.int64)
        measured = (ks[:, None] >> plan.free_bits[c].astype(np.uint64)) & np.uint64(1)
        assert np.array_equal(plan.bin_words(c, js, measured), ks)


def test_every_coded_design_stores_its_code_less_b_rows():
    # at n = 6..40 and every b below n: each group of noiseless, NSO and
    # SO stores len(code) - b code rows per base, b fewer than the code has
    for n in range(6, 41):
        for b in range(1, n):
            for variant in ("noiseless", "nso", "so"):
                d = design(variant, n, 1 << b)
                offsets = build_offsets(d, build_plan(d), rng=np.random.default_rng(0))
                code_rows = len(offsets.code_words)
                assert code_rows == (2 * n if variant == "so" else n)
                assert offsets.stored.shape == (d.c_groups, code_rows - b)
                assert offsets.layout["code"][1] - offsets.layout["code"][0] == \
                    (d.p1 if variant == "nso" else 1) * (code_rows - b)


def test_so_requires_code():
    # the design holds SO's one code, and refuses none or one of another n
    d = design("so", 8, 4)
    assert d.code is code_for(8)
    with pytest.raises(ValueError, match="require a linear code"):
        dataclasses.replace(d, code=None)
    with pytest.raises(ValueError, match="has 9 information bits"):
        dataclasses.replace(d, code=build_regular_ldpc(9, np.random.default_rng(0)))


def test_design_and_window_plan_are_cached_read_only():
    # trials of one design share its record and its plan, so no caller may write the plan's tables
    d = design("near-linear", 12, 16)
    assert design("near-linear", 12, 16) is d and build_plan(d) is build_plan(d)
    plan = build_plan(d)
    for table in (plan.col_words, plan.coset_basis, plan.particular_words):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0


def test_so_layout_and_zero_rows():
    from sparsewht.codes import build_regular_ldpc

    plan = window_plan(8, 2, 2)
    code = build_regular_ldpc(8, np.random.default_rng(1))
    offsets = build_offsets(dataclasses.replace(design("so", 8, 4), code=code), plan, rng=np.random.default_rng(2))
    r0, r1 = offsets.layout["verify"]
    ref, c0 = offsets.layout["bases"]
    assert offsets.layout["code"][0] == c0
    c1 = offsets.layout["code"][1]
    rows = offsets.groups[0]
    # the 2n generator rows but the unit rows of the window, bits 0 and 1 in group 0
    assert (r0, r1 - r0, c0 - ref, c1 - c0) == (0, 8, 1, 14)
    assert (r1, offsets.rows) == (ref, c1)
    assert rows[ref] == 0
    assert offsets.code is code
    assert list(rows[c0:c1]) == [g for g in code.g_rows if g not in (1, 2)]
    assert list(offsets.groups[1, c0:c1]) == [g for g in code.g_rows if g not in (4, 8)]
    # the formula counts n zero-offset reads; the plan stores one row
    assert offsets.nominal_rows == 32


@settings(max_examples=25, deadline=None)
@given(n=st.integers(6, 14), log_k=st.integers(0, 5), sigma=st.floats(0.01, 0.5),
       seed=st.integers(0, 2**32 - 1))
@example(n=6, log_k=4, sigma=0.5, seed=0)  # the library's BLAS products round one and many apart
def test_so_single_reference_row_observes_like_n_copies(n, log_k, sigma, seed):
    # SO's paper layout reads the zero offset n times; a repeated position
    # returns the same sample, so storing it once loses nothing. The
    # reference butterflies transform each column alone, so there the
    # copies are bit for bit the same; the library's products sum a column
    # in an order that may depend on the tensor's width, so they are held
    # within the round-off bound of the reference
    k = min(1 << log_k, 1 << (n - 1))
    rng = np.random.default_rng(seed)
    d = design("so", n, k)
    plan = build_plan(d)
    spectrum = draw_spectrum(n, k, 1.0, rng)
    offsets = build_offsets(dataclasses.replace(d, code=build_regular_ldpc(n, rng)), plan, rng=rng)
    ref = offsets.layout["bases"][0]
    copies = dataclasses.replace(offsets, groups=np.stack([
        np.insert(g, ref, np.zeros(n - 1, dtype=np.uint64)) for g in offsets.groups]))
    assert copies.rows == offsets.rows + n - 1

    def observe_both(rows):
        def run():
            return observe(NoisyAccess(spectrum, sigma, np.random.default_rng(seed)), plan, rows)

        reference, ref_inputs = with_transform(fwht_rows_butterflies, run)
        obs, inputs = with_transform(kernels.fwht_rows_inplace, run)
        bound = observation_bound(n, obs.data, reference.data, inputs, ref_inputs)
        assert np.all(np.abs(obs.data - reference.data) <= bound)
        assert (obs.distinct_samples, obs.nominal_samples) == (reference.distinct_samples, reference.nominal_samples)
        return reference

    one, many = observe_both(offsets), observe_both(copies)
    shared = np.r_[0:ref + 1, ref + n:copies.rows]
    assert np.array_equal(one.data.view(np.uint64), many.data[:, :, shared].view(np.uint64))
    assert np.array_equal(many.data[:, :, ref:ref + n].view(np.uint64),
                          np.repeat(one.data[:, :, ref:ref + 1], n, axis=2).view(np.uint64))
    assert (one.distinct_samples, one.nominal_samples) == (many.distinct_samples, many.nominal_samples)


def test_observe_golden_sums():
    obs = observe(NoisyAccess(golden_spectrum(), 0.0, np.random.default_rng(0)),
                  golden_plan(), build_offsets(design("noiseless", 4, 4), golden_plan()))
    assert np.allclose(obs.data[0, :, 0], GOLDEN_BINS_G1, atol=1e-12)
    assert np.allclose(obs.data[1, :, 0], GOLDEN_BINS_G2, atol=1e-12)


def test_observe_zero_spectrum_noiseless():
    plan = window_plan(8, 1, 3)
    access = NoisyAccess(SparseSpectrum(8, {}), 0.0, np.random.default_rng(0))
    obs = observe(access, plan, build_offsets(design("noiseless", 8, 2), plan))
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
        signs = sign_matrix(all_k, offsets.groups[c])
        for j in range(plan.bins):
            members = bins == j
            out[c, j] = dense[members] @ signs[members]
    return out


@pytest.mark.parametrize("variant", ["noiseless", "near-linear", "nso"])
def test_observe_matches_exhaustive_sum(variant):
    rng = np.random.default_rng(6)
    spectrum = draw_spectrum(8, 6, 1.0, rng)
    plan = window_plan(8, 3, 2)
    offsets = build_offsets(design(variant, 8, 8), plan, rng=rng)
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
    d = dataclasses.replace(design("near-linear", 6, 2), p1=8)
    offsets = build_offsets(d, plan, rng=np.random.default_rng(8))
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
    d = dataclasses.replace(design("near-linear", 10, 8), p1=12)
    offsets = build_offsets(d, plan, rng=np.random.default_rng(9))
    obs = observe(NoisyAccess(spectrum, 0.0, np.random.default_rng(0)), plan, offsets)
    energies = (obs.data**2).sum(axis=1)
    assert np.max(np.abs(energies - energies[:, :1])) < 1e-9


def test_sample_counts():
    plan = golden_plan()
    offsets = build_offsets(design("noiseless", 4, 4), plan)
    access = NoisyAccess(golden_spectrum(), 0.0, np.random.default_rng(0))
    obs = observe(access, plan, offsets)
    assert obs.nominal_samples == 2 * 4 * 5
    assert obs.distinct_samples == access.samples_queried
    assert obs.distinct_samples <= obs.nominal_samples


class _CountingAccess:
    """Passes ``take_cosets`` on to an oracle and records the shapes of each call."""

    def __init__(self, inner):
        self.inner, self.n, self.calls = inner, inner.n, []

    def take_cosets(self, cols, rows):
        self.calls.append((cols.shape, rows.shape))
        return self.inner.take_cosets(cols, rows)

    @property
    def samples_queried(self):
        return self.inner.samples_queried


@pytest.mark.parametrize("variant", ["noiseless", "near-linear", "nso", "so"])
def test_observe_reads_the_oracle_once(variant):
    rng = np.random.default_rng(22)
    n, k = 10, 8
    spectrum = draw_spectrum(n, k, 1.0, rng)
    d = design(variant, n, k)
    plan = build_plan(d)
    if variant == "so":
        d = dataclasses.replace(d, code=build_regular_ldpc(n, rng))
    offsets = build_offsets(d, plan, rng=rng)
    counting = _CountingAccess(NoisyAccess(spectrum, 0.1, np.random.default_rng(23)))
    obs = observe(counting, plan, offsets)
    assert counting.calls == [((plan.c_groups, plan.b), (plan.c_groups, offsets.rows))]
    direct = observe(NoisyAccess(spectrum, 0.1, np.random.default_rng(23)), plan, offsets)
    assert np.array_equal(obs.data, direct.data) and obs.distinct_samples == direct.distinct_samples
    # a cut-query oracle is asked once, for the fresh words of all C groups
    asked = []
    cut = CutQueryAccess(lambda words: asked.append(len(words)) or synthesize_many(spectrum, words), n=n)
    observe(cut, plan, offsets)
    assert asked == [cut.samples_queried] and cut.samples_queried == direct.distinct_samples


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
    d = design(variant, n, k)
    plan = build_plan(d)
    if variant == "so":
        d = dataclasses.replace(d, code=build_regular_ldpc(n, rng))
    offsets = build_offsets(d, plan, rng=rng)
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
        particular, _ = solve_affine(n, plan.col_words[c].tolist(), j)
        assert int(plan.particular_words[c, j]) ^ particular in set(span.tolist())
    # the basis words generate the null space, the bin-0 coset
    basis = plan.coset_basis[c]
    assert len(basis) == n - b and np.all(plan.bins_of_many(c, basis) == 0)
    assert set(span_words(basis.tolist()).tolist()) == set(span.tolist())
