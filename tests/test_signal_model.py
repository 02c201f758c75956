import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewht import NoisyAccess, SparseSpectrum, build_plan, draw_spectrum, sigma_for_snr, synthesize_many
from sparsewht.fwht import densify, fwht
from sparsewht.signal_model import snr_from_db
from sparsewht.sketch import CutQueryAccess


def test_draw_empty_and_determinism():
    assert draw_spectrum(8, 0, 1.0, np.random.default_rng(0)).sparsity == 0
    a = draw_spectrum(10, 12, 1.0, np.random.default_rng(42))
    b = draw_spectrum(10, 12, 1.0, np.random.default_rng(42))
    assert a.entries == b.entries


def test_draw_exact_sparsity_and_constellation():
    rng = np.random.default_rng(1)
    for _ in range(20):
        spec = draw_spectrum(9, 30, 2.5, rng)
        assert spec.sparsity == 30
        assert all(v in (2.5, -2.5) for v in spec.entries.values())


def test_draw_continuous_mode_range():
    spec = draw_spectrum(10, 50, 1.0, np.random.default_rng(2), constellation=False)
    mags = [abs(v) for v in spec.entries.values()]
    assert all(0.5 <= m <= 1.5 for m in mags)


def test_draw_rejects_oversparse():
    with pytest.raises(ValueError):
        draw_spectrum(3, 9, 1.0, np.random.default_rng(0))


def test_support_uniformity_chi_square():
    rng = np.random.default_rng(2024)
    n, k, draws = 14, 40, 2000
    counts = np.zeros(1 << n)
    for _ in range(draws):
        spec = draw_spectrum(n, k, 1.0, rng)
        counts[list(spec.entries)] += 1
    expected = draws * k / (1 << n)
    chi2 = float(np.sum((counts - expected) ** 2) / expected)
    dof = (1 << n) - 1
    # 1% upper critical point via the normal approximation of chi-square
    critical = dof + 2.3263 * math.sqrt(2 * dof)
    assert chi2 < critical


def test_sigma_for_snr_values():
    assert sigma_for_snr(1.0, 16, 16, 1.0) == pytest.approx(1.0)
    assert sigma_for_snr(1.0, 16, 16384, 10.0) == pytest.approx(9.8821e-3, rel=1e-4)


def test_sigma_for_snr_round_trip():
    rho, k, total = 1.7, 12, 1 << 11
    for snr in (0.5, 3.0, 31.62):
        sigma = sigma_for_snr(rho, k, total, snr)
        assert rho**2 / (sigma**2 * total / k) == pytest.approx(snr)
    assert snr_from_db(10.0) == pytest.approx(10.0)


def test_query_noiseless_equals_synthesis():
    spec = draw_spectrum(8, 5, 1.0, np.random.default_rng(3))
    access = NoisyAccess(spec, 0.0, np.random.default_rng(4))
    positions = np.arange(256, dtype=np.uint64)
    assert np.array_equal(access.take(positions), synthesize_many(spec, positions))


def test_query_noise_statistics():
    access = NoisyAccess(SparseSpectrum(17, {}), 1.0, np.random.default_rng(5))
    positions = np.arange(100_000, dtype=np.uint64)
    samples = access.take(positions)
    assert abs(samples.mean()) < 3.0 / math.sqrt(len(samples))
    assert abs(samples.var() - 1.0) < 0.05


def test_noise_attaches_to_position():
    spec = draw_spectrum(8, 3, 1.0, np.random.default_rng(6))
    access = NoisyAccess(spec, 0.5, np.random.default_rng(7))
    first = access.take(np.array([17], dtype=np.uint64))
    again = access.take(np.array([17], dtype=np.uint64))
    assert first.tolist() == again.tolist()
    assert access.samples_queried == 1


def test_distinct_sample_accounting():
    access = NoisyAccess(SparseSpectrum(6, {}), 0.0, np.random.default_rng(8))
    access.take(np.array([1, 2, 3, 2, 1], dtype=np.uint64))
    assert access.samples_queried == 3


def test_ensemble_energy_matches_parseval():
    # constellation values make ||x||^2 = K rho^2 exactly (Parseval)
    spec = draw_spectrum(10, 16, 1.5, np.random.default_rng(9))
    x = fwht(densify(spec))
    assert np.sum(x * x) == pytest.approx(16 * 1.5**2, rel=1e-12)


def test_spectrum_serialization_round_trip(tmp_path):
    spec = draw_spectrum(12, 20, 1.0, np.random.default_rng(10))
    path = tmp_path / "spectrum.txt"
    spec.save(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n=12 K=20"
    assert all(len(line.split()[0]) == 12 for line in lines[1:])
    loaded = SparseSpectrum.load(path)
    assert loaded.n == spec.n and loaded.entries == spec.entries


def test_spectrum_drops_exact_zeros():
    spec = SparseSpectrum(4, {3: 0.0, 5: 1.0})
    assert spec.support() == {5}


def _coset_positions(cols, rows):
    """u[M l + d] read positions, one row per word l and one column per
    offset d, by direct XOR sums."""
    span = [0] * (1 << len(cols))
    for word in range(len(span)):
        for t, col in enumerate(cols):
            if word >> t & 1:
                span[word] ^= int(col)
    return np.array([[m ^ int(d) for d in rows] for m in span], dtype=np.uint64)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), b=st.integers(1, 6), k=st.integers(0, 12), p=st.integers(1, 8),
       zero_rows=st.integers(0, 3), sigma=st.sampled_from([0.0, 0.4]),
       rho=st.sampled_from([1.0, 0.5, 2.5]), constellation=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_take_cosets_matches_pointwise_take(n, b, k, p, zero_rows, sigma, rho, constellation, seed):
    rng = np.random.default_rng(seed)
    k = min(k, 1 << n)
    spectrum = draw_spectrum(n, k, rho, rng, constellation=constellation)
    cols = rng.integers(0, 1 << n, size=min(b, n), dtype=np.int64).astype(np.uint64)
    # random offsets plus repeated zero rows: a repeated position reads the same sample
    rows = np.concatenate([rng.integers(0, 1 << n, size=p, dtype=np.int64),
                           np.zeros(zero_rows, dtype=np.int64)]).astype(np.uint64)
    coset_access = NoisyAccess(spectrum, sigma, np.random.default_rng(seed))
    point_access = NoisyAccess(spectrum, sigma, np.random.default_rng(seed))

    block = coset_access.take_cosets(cols, rows)
    positions = _coset_positions(cols, rows)
    expected = point_access.take(positions.reshape(-1)).reshape(positions.shape)
    assert block.shape == positions.shape
    if constellation:
        # sums of +/-rho are exact, so both paths round identically
        assert np.array_equal(block, expected)
    else:
        assert np.max(np.abs(block - expected)) <= 1e-12
    assert coset_access.samples_queried == point_access.samples_queried == len(np.unique(positions))
    # a second read of the same block sees the same noise and no new samples
    assert np.array_equal(coset_access.take_cosets(cols, rows), block)
    assert coset_access.samples_queried == point_access.samples_queried


def test_take_cosets_noiseless_beyond_dense_bitmap():
    # n > 24 keeps read positions in a sorted read log instead of a 2^n bitmap
    n = 40
    spectrum = draw_spectrum(n, 6, 1.0, np.random.default_rng(12))
    access = NoisyAccess(spectrum, 0.0, np.random.default_rng(13))
    cols = np.array([1 << 3, 1 << 17, (1 << 39) | 5], dtype=np.uint64)
    rows = np.array([0, 0, 1 << 38, 12345], dtype=np.uint64)
    block = access.take_cosets(cols, rows)
    positions = _coset_positions(cols, rows)
    assert np.array_equal(block, synthesize_many(spectrum, positions.reshape(-1)).reshape(positions.shape))
    assert access.samples_queried == len(np.unique(positions)) == 3 * 8


@st.composite
def _sparse_reads(draw):
    """n above the bitmap limit, a spectrum seed, and up to six reads, each
    ``take`` or ``take_cosets``, over a small pool of words so that reads
    repeat positions inside a read and across reads."""
    n = draw(st.integers(25, 63))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    word = st.sampled_from(pool)
    reads = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            pairs = draw(st.lists(st.tuples(word, word), max_size=10))
            reads.append((np.array([a ^ b for a, b in pairs], dtype=np.uint64),))
        else:
            cols = np.array(draw(st.lists(word, max_size=3)), dtype=np.uint64)
            reads.append((cols, np.array(draw(st.lists(word, max_size=4)), dtype=np.uint64)))
    return n, draw(st.integers(0, 2**32 - 1)), reads


@settings(max_examples=60, deadline=None)
@given(_sparse_reads())
def test_sparse_read_log_counts_distinct_positions(case):
    n, seed, reads = case
    spectrum = draw_spectrum(n, 5, 1.0, np.random.default_rng(seed))
    access = NoisyAccess(spectrum, 0.0, np.random.default_rng(seed))
    read = set()
    for args in reads:
        if len(args) == 1:
            positions, values = args[0], access.take(args[0])
        else:
            positions, values = _coset_positions(*args), access.take_cosets(*args)
        assert np.array_equal(values, synthesize_many(spectrum, positions.reshape(-1)).reshape(positions.shape))
        read.update(positions.reshape(-1).tolist())
        assert access.samples_queried == len(read)


def test_sparse_read_log_refuses_positions_beyond_n():
    access = NoisyAccess(draw_spectrum(30, 5, 1.0, np.random.default_rng(17)), 0.0, np.random.default_rng(17))
    access.take(np.array([3, 5], dtype=np.uint64))
    for word in (1 << 30, 1 << 40, (1 << 64) - 1):
        with pytest.raises(ValueError, match="at or above n=30"):
            access.take(np.array([3, word, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match="at or above n=30"):
            access.take_cosets(np.array([word], dtype=np.uint64), np.array([0], dtype=np.uint64))
    assert access.samples_queried == 2  # a refused read leaves the log as it was


@pytest.mark.parametrize("make", [
    lambda spec: NoisyAccess(spec, 0.5, np.random.default_rng(15)),
    lambda spec: CutQueryAccess(lambda words: synthesize_many(spec, words), n=spec.n),
], ids=["noisy", "cut-query"])
def test_take_cosets_with_no_rows_reads_nothing(make):
    access = make(draw_spectrum(8, 3, 1.0, np.random.default_rng(16)))
    cols = np.array([1, 6], dtype=np.uint64)
    access.take_cosets(cols, np.array([3], dtype=np.uint64))
    block = access.take_cosets(cols, np.zeros(0, dtype=np.uint64))
    assert block.shape == (4, 0) and block.dtype == np.float64
    assert access.samples_queried == 4


@pytest.mark.parametrize("n", [0, 64, 70])
def test_index_length_outside_packed_words_is_rejected(n):
    with pytest.raises(ValueError, match="outside 1..63"):
        draw_spectrum(n, 1, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside 1..63"):
        NoisyAccess(SparseSpectrum(n, {}), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside 1..63"):
        build_plan(n, 1)


def test_draw_at_widest_index_length():
    spec = draw_spectrum(63, 5, 1.0, np.random.default_rng(14))
    assert spec.sparsity == 5 and all(0 <= k < 1 << 63 for k in spec.entries)
