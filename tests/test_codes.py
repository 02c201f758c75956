import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewht import codes, gf2
from sparsewht.codes import bitflip_decode, bitflip_decode_many, build_regular_ldpc
from sparsewht.kernels import pack_rows

from references import (bitflip_decode_loop, bitflip_round_loop, build_regular_ldpc_loop, codeword_bits, dense,
                        gf2_rref_loop, h_matrix)


@pytest.fixture(scope="module")
def code():
    return build_regular_ldpc(14, np.random.default_rng(0))


def test_regular_degrees(code):
    h = h_matrix(code)
    assert np.all(h.sum(axis=0) == 3)
    assert np.all(h.sum(axis=1) == 6)
    assert h.shape == (14, 28)


def test_h_cols_are_cached_and_read_only(code):
    cols = code.h_cols
    assert cols is code.h_cols
    # column word t packs column t of the H that the check words spell out
    assert cols.dtype == np.uint64 and cols.tolist() == pack_rows(h_matrix(code).T).tolist()
    with pytest.raises(ValueError):
        cols[0] ^= np.uint64(1)


def test_systematic_prefix(code):
    rng = np.random.default_rng(1)
    for _ in range(20):
        k = int(rng.integers(0, 1 << 14))
        cw = int(pack_rows(codeword_bits(code, k)[None, :])[0])
        assert cw & ((1 << 14) - 1) == k


def test_codewords_satisfy_checks(code):
    rng = np.random.default_rng(2)
    h = h_matrix(code)
    for _ in range(100):
        k = int(rng.integers(0, 1 << 14))
        bits = codeword_bits(code, k)
        assert not ((h @ bits) & 1).any()


def test_encode_zero_and_linearity(code):
    assert not codeword_bits(code, 0).any()
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = (int(x) for x in rng.integers(0, 1 << 14, size=2))
        assert np.array_equal(codeword_bits(code, a ^ b), codeword_bits(code, a) ^ codeword_bits(code, b))


def test_decode_encode_identity(code):
    rng = np.random.default_rng(4)
    for _ in range(50):
        k = int(rng.integers(0, 1 << 14))
        assert bitflip_decode(code, codeword_bits(code, k)) == k


def test_valid_codeword_returned_in_round_zero(code):
    k = 12345
    assert bitflip_decode(code, codeword_bits(code, k), max_rounds=0) == k


def test_single_flip_corrected():
    rng = np.random.default_rng(5)
    ok = 0
    trials = 200
    for t in range(trials):
        c = build_regular_ldpc(14, np.random.default_rng(100 + t)) if t % 50 == 0 else None
        c = c or _shared
        k = int(rng.integers(0, 1 << 14))
        bits = codeword_bits(c, k)
        bits[int(rng.integers(0, 28))] ^= 1
        decoded = bitflip_decode(c, bits, max_rounds=20)
        ok += decoded == k
    assert ok / trials >= 0.99


_shared = build_regular_ldpc(14, np.random.default_rng(77))


def test_bsc_block_error_rate():
    rng = np.random.default_rng(6)
    crossover = 0.02
    errors = 0
    trials = 2000
    for _ in range(trials):
        k = int(rng.integers(0, 1 << 14))
        bits = codeword_bits(_shared, k)
        flips = rng.random(28) < crossover
        decoded = bitflip_decode(_shared, bits ^ flips.astype(np.uint8), max_rounds=30)
        errors += decoded != k
    assert errors / trials <= 0.10


def test_block_error_monotone_in_crossover():
    rng = np.random.default_rng(7)
    rates = []
    for crossover in (0.05, 0.02, 0.005):
        errors = 0
        trials = 800
        for _ in range(trials):
            k = int(rng.integers(0, 1 << 14))
            bits = codeword_bits(_shared, k)
            flips = rng.random(28) < crossover
            decoded = bitflip_decode(_shared, bits ^ flips.astype(np.uint8), max_rounds=30)
            errors += decoded != k
        rates.append(errors / trials)
    assert rates[0] >= rates[1] >= rates[2]


def test_nonconvergence_returns_none(code):
    bits = codeword_bits(code, 999)
    bits[0] ^= 1
    assert bitflip_decode(code, bits, max_rounds=0) is None


def test_negative_round_cap_rejected(code):
    with pytest.raises(ValueError, match="max_rounds"):
        bitflip_decode_many(code, np.zeros((2, 28), dtype=np.uint8), -1)


@pytest.mark.parametrize("length", [0, 27, 29, 56])
def test_received_length_other_than_2n_rejected(code, length):
    with pytest.raises(gf2.DimensionError, match="expected 28 received bits per word"):
        bitflip_decode_many(code, np.zeros((2, length), dtype=np.uint8))
    with pytest.raises(gf2.DimensionError, match="expected 28 received bits$"):
        bitflip_decode(code, np.zeros(length, dtype=np.uint8))
    # one word must be one row: a (1, 2n) array is refused as well
    with pytest.raises(gf2.DimensionError, match="expected 28 received bits$"):
        bitflip_decode(code, np.zeros((1, 28), dtype=np.uint8))


@pytest.mark.parametrize("entry, dtype", [(2, np.uint8), (255, np.uint8), (256, np.int64), (-1, np.int64),
                                          (0.5, np.float64)])
def test_received_entry_other_than_0_or_1_rejected(entry, dtype):
    # the syndrome reads an entry's low bit and the information word its
    # value, so an all-zero word with a 2 at bit 0 would decode to 2
    code = codes.code_for(8)
    word = np.zeros(16, dtype=dtype)
    word[0] = entry
    with pytest.raises(ValueError, match=f"received bits must be 0 or 1, got {entry}$"):
        bitflip_decode(code, word)
    with pytest.raises(ValueError, match=f"received bits must be 0 or 1, got {entry}$"):
        bitflip_decode_many(code, np.array([np.zeros(16, dtype=dtype), word]))


def test_min_info_length():
    with pytest.raises(ValueError):
        build_regular_ldpc(4, np.random.default_rng(0))


@pytest.mark.parametrize("n_info", [6, 12, 17, 20])
def test_construction_matches_loop_reference(n_info):
    # the bitmask construction makes the same RNG draws as the dense loops,
    # so every seeded code and the generator's state after it agree; at
    # n_info = 6, seeds 1, 7, 13 and 14, among others, draw a rank-deficient H first
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        code = build_regular_ldpc(n_info, rng)
        h, g = build_regular_ldpc_loop(n_info, ref_rng, codes.GRAPH_DRAWS)
        assert np.array_equal(h_matrix(code), h)
        assert np.array_equal(dense(code.g_rows, n_info), g)
        assert rng.integers(0, 1 << 62) == ref_rng.integers(0, 1 << 62)


def test_code_for_builds_one_seeded_code_per_n():
    for n in range(codes.MIN_INFO_BITS, gf2.MAX_BITS + 1):
        code = codes.code_for(n)
        assert codes.code_for(n) is code
        assert code.h_rows == build_regular_ldpc(n, np.random.default_rng(n)).h_rows
        h = h_matrix(code).astype(np.int64)
        assert np.all(h.sum(axis=0) == 3) and np.all(h.sum(axis=1) == 6)
        assert len(gf2_rref_loop(h)[1]) == n
        # systematic: G's first n rows are the unit words
        assert code.g_rows[:n] == tuple(1 << t for t in range(n))
        # H G = 0: the codeword of every information bit satisfies every check
        assert not ((h @ dense(code.g_rows, n)) & 1).any()


def test_code_for_has_distinct_columns():
    # two equal columns of H would give the code minimum distance 2
    for n in range(codes.MIN_INFO_BITS, gf2.MAX_BITS + 1):
        cols = codes.code_for(n).h_cols.tolist()
        assert len(set(cols)) == len(cols), n


def test_code_for_has_few_four_cycles():
    # row pairs of H sharing two or more columns close a 4-cycle; the
    # configuration model with a best-effort swap pass left 319 of them
    # over n = 13..63, and progressive edge growth leaves 67
    pairs = 0
    for n in range(13, gf2.MAX_BITS + 1):
        rows = codes.code_for(n).h_rows
        pairs += sum((a & b).bit_count() >= 2 for i, a in enumerate(rows) for b in rows[i + 1:])
    assert pairs <= 160


def test_bitflip_many_stops_after_max_rounds():
    # received words that need exactly 1..4 flip rounds, decoded in one batch
    rng = np.random.default_rng(8)
    by_rounds = {}
    while len(by_rounds) < 4:
        bits = codeword_bits(_shared, int(rng.integers(0, 1 << 14)))
        bits[rng.choice(28, size=3, replace=False)] ^= 1
        need = next((r for r in range(6) if bitflip_decode_loop(_shared, bits, r) is not None), None)
        if need in (1, 2, 3, 4):
            by_rounds.setdefault(need, bits)
    need = np.array(sorted(by_rounds))
    received = np.array([by_rounds[r] for r in need])
    for max_rounds in range(6):
        _, ok = bitflip_decode_many(_shared, received, max_rounds)
        assert ok.tolist() == (need <= max_rounds).tolist()


def test_bitflip_many_fails_a_word_in_a_two_cycle():
    # a received word that two flip rounds return to itself never reaches a codeword
    rng = np.random.default_rng(9)
    while True:
        word = codeword_bits(_shared, int(rng.integers(0, 1 << 14)))
        word[rng.choice(28, size=4, replace=False)] ^= 1
        for _ in range(30):
            word = bitflip_round_loop(_shared, word)
            if word is None:
                break
        if word is None:
            continue
        once = bitflip_round_loop(_shared, word)
        if not np.array_equal(once, word) and np.array_equal(bitflip_round_loop(_shared, once), word):
            break
    received = np.array([word, codeword_bits(_shared, 77)])
    for max_rounds in range(31):
        assert bitflip_decode_loop(_shared, word, max_rounds) is None
        info, ok = bitflip_decode_many(_shared, received, max_rounds)
        assert ok.tolist() == [False, True] and info[1] == 77


def test_bitflip_many_of_no_words(code):
    info, ok = bitflip_decode_many(code, np.zeros((0, 28), dtype=np.uint8))
    assert info.shape == ok.shape == (0,)
    assert info.dtype == np.uint64 and ok.dtype == bool


# n = 40: the 80-bit words have flips on both sides of bit 64
_CODES = (_shared, build_regular_ldpc(6, np.random.default_rng(3)), codes.code_for(40))


@st.composite
def _received_words(draw):
    """A code and up to 10 received words: codewords with any set of bits flipped."""
    code = draw(st.sampled_from(_CODES))
    rows = draw(st.lists(st.tuples(st.integers(0, (1 << code.n_info) - 1),
                                   st.sets(st.integers(0, 2 * code.n_info - 1))), max_size=10))
    received = np.zeros((len(rows), 2 * code.n_info), dtype=np.uint8)
    for r, (k, flips) in enumerate(rows):
        received[r] = codeword_bits(code, k)
        received[r, sorted(flips)] ^= 1
    return code, received


@settings(max_examples=150, deadline=None)
@given(case=_received_words(), max_rounds=st.integers(0, 30))
def test_bitflip_many_equals_one_word_loop(case, max_rounds):
    code, received = case
    before = received.copy()
    info, ok = bitflip_decode_many(code, received, max_rounds)
    assert np.array_equal(received, before)
    assert info.dtype == np.uint64 and info.shape == ok.shape == (len(received),)
    for r in range(len(received)):
        expected = bitflip_decode_loop(code, received[r], max_rounds)
        assert ok[r] == (expected is not None)
        if ok[r]:
            assert info[r] == expected
        assert bitflip_decode(code, received[r], max_rounds) == expected
