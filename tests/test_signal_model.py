import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsewht import NoisyAccess, SparseSpectrum, draw_spectrum, sigma_for_snr, synthesize_many
from sparsewht.frontend import SubsamplingPlan, design
from sparsewht.kernels import fwht
from sparsewht.signal_model import merge_reads, snr_from_db
from sparsewht.sketch import CutQueryAccess

from references import densify


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


@pytest.mark.parametrize("rho", [0.0, -1.0])
def test_draw_rejects_a_rho_that_is_not_positive(rho):
    with pytest.raises(ValueError, match="rho must be positive"):
        draw_spectrum(6, 3, rho, np.random.default_rng(0))


def test_noisy_access_refuses_noise_above_the_dense_noise_limit():
    # the noise realization is one dense array over 2^n positions, up to n = 24
    spec = SparseSpectrum(25, {3: 1.0})
    with pytest.raises(ValueError, match="noise cache supports n <= 24"):
        NoisyAccess(spec, 0.1, 0)
    assert NoisyAccess(spec, 0.0, 0).take([3]).tolist() == [synthesize_many(spec, [3])[0]]


def test_noisy_access_draws_one_stream_from_a_seed_or_its_generator():
    spec = draw_spectrum(8, 3, 1.0, np.random.default_rng(0))
    positions = np.arange(256, dtype=np.uint64)
    by_seed = NoisyAccess(spec, 0.5, 5).take(positions)
    assert np.array_equal(NoisyAccess(spec, 0.5, np.random.default_rng(5)).take(positions), by_seed)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, -0.5])
def test_noisy_access_refuses_a_sigma_that_is_not_finite_and_nonnegative(sigma):
    # NaN compares false with everything, so a sign test alone would let it skip the noise
    spec = draw_spectrum(6, 3, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="sigma must be a finite nonnegative number"):
        NoisyAccess(spec, sigma, 0)


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


def test_spectrum_load_refuses_a_repeated_index(tmp_path):
    # the header's K matches the entries once the repeat overwrites its
    # first value, so only the repeat itself can be refused
    path = tmp_path / "spectrum.txt"
    path.write_text("n=4 K=2\n0011 1.0\n0011 -1.0\n0101 2.0\n")
    with pytest.raises(ValueError) as info:
        SparseSpectrum.load(path)
    assert str(info.value) == f"{path} lines 2 and 3: index 0011 repeats"


@pytest.mark.parametrize("content, problem", [
    # an index one bit wider than n
    ("n=4 K=1\n10011 1.0\n", " line 2: expected '<4-bit string> <finite value>', got '10011 1.0'"),
    # int(bits, 2) reads each of these as an index, but none is 4 characters of 0 and 1
    ("n=4 K=1\n0b11 1.0\n", " line 2: expected '<4-bit string> <finite value>', got '0b11 1.0'"),
    ("n=4 K=1\n1_0 1.0\n", " line 2: expected '<4-bit string> <finite value>', got '1_0 1.0'"),
    ("n=4 K=1\n+011 1.0\n", " line 2: expected '<4-bit string> <finite value>', got '+011 1.0'"),
    ("n=4 K=1\n11 1.0\n", " line 2: expected '<4-bit string> <finite value>', got '11 1.0'"),
    ("n=4 K=3\n0011 1.0\n0101 2.0\n", ": 2 nonzero entries, header says K=3"),
    # K counts nonzero entries, and an exact zero is dropped
    ("n=4 K=2\n0011 1.0\n0101 0.0\n", ": 1 nonzero entries, header says K=2"),
], ids=["wide-index", "prefixed-index", "underscored-index", "signed-index", "short-index",
        "fewer-entries", "zero-entry"])
def test_spectrum_load_refuses_a_wide_index_or_a_wrong_count(tmp_path, content, problem):
    path = tmp_path / "spectrum.txt"
    path.write_text(content)
    with pytest.raises(ValueError) as info:
        SparseSpectrum.load(path)
    assert str(info.value) == f"{path}{problem}"


def test_spectrum_load_skips_a_blank_line(tmp_path):
    path = tmp_path / "spectrum.txt"
    path.write_text("n=4 K=2\n0011 1.0\n\n   \n0101 -2.0\n")
    assert SparseSpectrum.load(path).entries == {0b0011: 1.0, 0b0101: -2.0}


@pytest.mark.parametrize("k", [16, 17, -1])
def test_spectrum_refuses_an_index_outside_n_bits(k):
    with pytest.raises(ValueError, match=f"index {k} out of range for n=4"):
        SparseSpectrum(4, {3: 1.0, k: 1.0})


def test_spectrum_drops_exact_zeros():
    spec = SparseSpectrum(4, {3: 0.0, 5: 1.0})
    assert spec.support() == {5}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spectrum_refuses_a_non_finite_value(value):
    with pytest.raises(ValueError, match="not finite"):
        SparseSpectrum(4, {3: 1.0, 5: value})


def _coset_positions(cols, rows):
    """u[M_c l + d] read positions of a (C, b) stack of column words and a
    (C, P) stack of offset words: per group, one row per word l and one
    column per offset d, by direct XOR sums."""
    out = []
    for group_cols, group_rows in zip(cols, rows):
        span = [0] * (1 << len(group_cols))
        for word in range(len(span)):
            for t, col in enumerate(group_cols):
                if word >> t & 1:
                    span[word] ^= int(col)
        out.append([[m ^ int(d) for d in group_rows] for m in span])
    return np.array(out, dtype=np.uint64).reshape(len(cols), 1 << cols.shape[1], rows.shape[1])


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 12), b=st.integers(1, 6), c_groups=st.integers(1, 3), k=st.integers(0, 12),
       p=st.integers(1, 8), zero_rows=st.integers(0, 3), sigma=st.sampled_from([0.0, 0.4]),
       rho=st.sampled_from([1.0, 0.5, 2.5]), constellation=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_take_cosets_matches_pointwise_take(n, b, c_groups, k, p, zero_rows, sigma, rho, constellation, seed):
    rng = np.random.default_rng(seed)
    k = min(k, 1 << n)
    spectrum = draw_spectrum(n, k, rho, rng, constellation=constellation)
    cols = rng.integers(0, 1 << n, size=(c_groups, min(b, n)), dtype=np.int64).astype(np.uint64)
    # random offsets plus repeated zero rows: a repeated position reads the same sample
    rows = np.concatenate([rng.integers(0, 1 << n, size=(c_groups, p), dtype=np.int64),
                           np.zeros((c_groups, zero_rows), dtype=np.int64)], axis=1).astype(np.uint64)
    coset_access = NoisyAccess(spectrum, sigma, np.random.default_rng(seed))
    point_access = NoisyAccess(spectrum, sigma, np.random.default_rng(seed))

    block = coset_access.take_cosets(cols, rows)
    positions = _coset_positions(cols, rows)
    expected = point_access.take(positions.reshape(-1)).reshape(positions.shape)
    assert block.shape == positions.shape and block.flags.c_contiguous
    if constellation:
        # sums of +/-rho are exact, so both paths round identically
        assert np.array_equal(block, expected)
    else:
        assert np.max(np.abs(block - expected)) <= 1e-12
    assert coset_access.samples_queried == point_access.samples_queried == len(np.unique(positions))
    # a second read of the same tensor sees the same noise and no new samples
    assert np.array_equal(coset_access.take_cosets(cols, rows), block)
    assert coset_access.samples_queried == point_access.samples_queried


def test_take_cosets_noiseless_beyond_dense_bitmap():
    # n > 24 keeps read positions in a sorted read log instead of a 2^n bitmap;
    # the second group reads the first group's positions again
    n = 40
    spectrum = draw_spectrum(n, 6, 1.0, np.random.default_rng(12))
    access = NoisyAccess(spectrum, 0.0, np.random.default_rng(13))
    cols = np.array([[1 << 3, 1 << 17, (1 << 39) | 5]] * 2, dtype=np.uint64)
    rows = np.array([[0, 0, 1 << 38, 12345], [12345, 0, 1 << 38, 0]], dtype=np.uint64)
    block = access.take_cosets(cols, rows)
    positions = _coset_positions(cols, rows)
    assert np.array_equal(block, synthesize_many(spectrum, positions.reshape(-1)).reshape(positions.shape))
    assert access.samples_queried == len(np.unique(positions)) == 3 * 8


@st.composite
def _sparse_reads(draw):
    """n above the bitmap limit, a spectrum seed, and up to six reads, each
    ``take`` or ``take_cosets`` of one or two groups, over a small pool of
    words so that reads repeat positions inside a read and across reads."""
    n = draw(st.integers(25, 63))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    word = st.sampled_from(pool)
    reads = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            pairs = draw(st.lists(st.tuples(word, word), max_size=10))
            reads.append((np.array([a ^ b for a, b in pairs], dtype=np.uint64),))
        else:
            c_groups, b, p = draw(st.integers(1, 2)), draw(st.integers(0, 3)), draw(st.integers(0, 4))
            words = st.lists(word, min_size=c_groups * (b + p), max_size=c_groups * (b + p))
            stack = np.array(draw(words), dtype=np.uint64).reshape(c_groups, b + p)
            reads.append((stack[:, :b], stack[:, b:]))
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


# n=30 counts reads in the sorted log, n=8 in the bitmap, where a word cast to intp could alias
@st.composite
def _log_and_read(draw):
    """A read log (sorted distinct words) and a read whose positions may
    repeat each other and the log's words; either may be empty."""
    pool = draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=12, unique=True))
    log = sorted(draw(st.sets(st.sampled_from(pool))))
    shape = draw(st.sampled_from([(0,), (1,), (6,), (2, 3), (3, 1, 2)]))
    size = math.prod(shape)
    read = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array(log, dtype=np.uint64), np.array(read, dtype=np.uint64).reshape(shape)


@settings(max_examples=200, deadline=None)
@given(_log_and_read())
@example((np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.uint64)))
@example((np.array([3, 9], dtype=np.uint64), np.zeros((0, 4), dtype=np.uint64)))
@example((np.zeros(0, dtype=np.uint64), np.array([[7, 7], [2, 7]], dtype=np.uint64)))
def test_merge_reads_matches_a_set_merge(case):
    log, read = case
    before = log.copy()
    words, at, fresh = merge_reads(log, read)
    flat = read.reshape(-1).tolist()
    old = set(log.tolist())
    expected = sorted(old | set(flat))
    assert words.dtype == np.uint64 and words.tolist() == expected
    assert len(at) == len(flat) and words[at].tolist() == flat
    assert fresh.dtype == bool and fresh.tolist() == [w not in old for w in expected]
    assert np.array_equal(log, before)


@pytest.mark.parametrize("n,sigma", [(30, 0.0), (8, 0.5)])
def test_sparse_read_log_refuses_positions_beyond_n(n, sigma):
    access = NoisyAccess(draw_spectrum(n, 5, 1.0, np.random.default_rng(17)), sigma, np.random.default_rng(17))
    access.take(np.array([3, 5], dtype=np.uint64))
    for word in (1 << n, 1 << 40, (1 << 64) - 1):
        with pytest.raises(ValueError, match=f"position {word} has a bit at or above n={n}"):
            access.take(np.array([3, word, 1], dtype=np.uint64))
        with pytest.raises(ValueError, match=f"at or above n={n}"):
            access.take_cosets(np.array([[1], [word]], dtype=np.uint64), np.array([[0], [0]], dtype=np.uint64))
    assert access.samples_queried == 2  # a refused read leaves the count as it was


@pytest.mark.parametrize("make", [
    lambda spec: NoisyAccess(spec, 0.5, np.random.default_rng(15)),
    lambda spec: CutQueryAccess(lambda words: synthesize_many(spec, words), n=spec.n),
], ids=["noisy", "cut-query"])
def test_take_cosets_with_no_rows_reads_nothing(make):
    access = make(draw_spectrum(8, 3, 1.0, np.random.default_rng(16)))
    cols = np.array([[1, 6], [1, 6]], dtype=np.uint64)
    access.take_cosets(cols, np.array([[3], [3]], dtype=np.uint64))
    block = access.take_cosets(cols, np.zeros((2, 0), dtype=np.uint64))
    assert block.shape == (2, 4, 0) and block.dtype == np.float64
    assert access.samples_queried == 4


@pytest.mark.parametrize("n", [0, 64, 70])
def test_index_length_outside_packed_words_is_rejected(n):
    with pytest.raises(ValueError, match="outside 1..63"):
        draw_spectrum(n, 1, 1.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside 1..63"):
        NoisyAccess(SparseSpectrum(n, {}), 0.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="outside 1..63"):
        design("noiseless", n, 1)
    with pytest.raises(ValueError, match="outside 1..63"):
        SubsamplingPlan(n, [[0]])


def test_draw_at_widest_index_length():
    spec = draw_spectrum(63, 5, 1.0, np.random.default_rng(14))
    assert spec.sparsity == 5 and all(0 <= k < 1 << 63 for k in spec.entries)
