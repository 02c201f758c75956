import math

import numpy as np
import pytest

from sparsewht import NoisyAccess, crossover_bound, draw_spectrum, sigma_for_snr
from sparsewht.bin_detect import (
    DETECTORS,
    MULTI_TON,
    SINGLE_TON,
    ZERO_TON,
    DetectorConfig,
    detect_near_linear,
    detect_near_linear_many,
    detect_noiseless,
    detect_nso,
    detect_so,
    sgn,
)
from sparsewht.codes import build_regular_ldpc
from sparsewht.frontend import VARIANTS, build_offsets, build_plan, observe
from sparsewht.kernels import sign_matrix
from sparsewht.signal_model import snr_from_db

import references
from helpers import bits, golden_plan, seeded_instances, window_plan


NOISELESS_CFG = DetectorConfig(zero_tol=1e-9 * 4.0 * 4.0)


def test_detectors_cover_every_variant():
    assert tuple(DETECTORS) == VARIANTS


@pytest.mark.parametrize("n,k,snr_db,rho", [
    (12, 10, 10.0, 1.0), (17, 40, 0.0, 1.0), (14, 20, 1.0, 2.5), (13, 16, 3.0, 0.5),
    (24, 100, 30.0, 1.0), (12, 10, None, 1.0), (15, 30, None, 3.0),
])
def test_for_noise_matches_the_separate_formulas(n, k, snr_db, rho):
    # the thresholds and stall levels that recover, sketch_recover and the
    # seeded test instances each used to compute for themselves
    plan = build_plan(n, k)
    c_bins, size = plan.c_groups * plan.bins, 1 << n
    snr = None if snr_db is None else snr_from_db(snr_db)
    sigma = 0.0 if snr is None else sigma_for_snr(rho, k, size, snr)
    cfg = DetectorConfig.for_noise(n, plan.bins, sigma, rho, snr, constellation=False)
    nu2 = max(size * sigma * sigma / plan.bins, (1e-9 * rho) ** 2)
    gamma = 1.0 if snr is None else DetectorConfig.default_gamma(snr)
    assert cfg == DetectorConfig(gamma=gamma, nu2=nu2, rho=rho, constellation=False,
                                 zero_tol=1e-9 * math.sqrt(size) * rho)
    if rho == 1.0:
        # the seeded test instances' spelling of the same two formulas
        assert cfg.zero_tol == 1e-9 * 2 ** (n / 2) and cfg.nu2 == max(size * sigma * sigma / plan.bins, 1e-18)
    if snr is None:
        # noise-free: the noiseless detector's level, far above the float floor of nu^2
        assert c_bins * cfg.zero_ton_level == c_bins * cfg.zero_tol ** 2 > c_bins * (1.0 + gamma) * nu2
    else:
        assert c_bins * cfg.zero_ton_level == pytest.approx(c_bins * (1.0 + gamma) * nu2, rel=1e-15)
    # a sketch: noise-free, unit scale, continuous values
    sketch = DetectorConfig.for_noise(n, plan.bins, 0.0, 1.0, None, constellation=False)
    assert sketch.zero_tol == 1e-9 * math.sqrt(2.0**n) and not sketch.constellation
    assert c_bins * sketch.zero_ton_level == c_bins * sketch.zero_tol**2


def test_sgn_convention():
    assert sgn(-2.5) == 1 and sgn(3.0) == 0 and sgn(0.0) == 0


def test_noiseless_single_ton_from_worked_instance():
    # X = 2 at position-order index "0100": signs +,+,-,+,+ scaled by 2
    column = 2.0 * np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    k = bits("0100")
    plan = golden_plan()
    j = references.bin_of_loop(plan, 0, k)
    det = detect_noiseless(column, j, 0, plan, NOISELESS_CFG)
    assert det.kind == SINGLE_TON and det.index == k and det.value == 2.0


def test_noiseless_zero_ton():
    det = detect_noiseless(np.zeros(5), 0, 0, golden_plan(), NOISELESS_CFG)
    assert det.kind == ZERO_TON


def test_noiseless_multi_ton_two_coefficients():
    # 4 X[0110] + 1 X[1010]: unequal magnitudes across offsets
    plan = golden_plan()
    rows = np.array([0, 1, 2, 4, 8], dtype=np.uint64)
    col = 4.0 * sign_matrix(np.array([bits("0110")], dtype=np.uint64), rows)[0]
    col += 1.0 * sign_matrix(np.array([bits("1010")], dtype=np.uint64), rows)[0]
    det = detect_noiseless(col, references.bin_of_loop(plan, 0, bits("0110")), 0, plan, NOISELESS_CFG)
    assert det.kind == MULTI_TON


def test_noiseless_rejects_hash_inconsistent_column():
    plan = golden_plan()
    k = bits("0100")
    column = 2.0 * np.array([1.0, 1.0, -1.0, 1.0, 1.0])
    wrong_bin = references.bin_of_loop(plan, 0, k) ^ 1
    assert detect_noiseless(column, wrong_bin, 0, plan, NOISELESS_CFG).kind == MULTI_TON


def _single_ton_column(plan, offsets, c, k, value, nu, rng):
    rows = offsets.rows_u64(c)
    signs = sign_matrix(np.array([k], dtype=np.uint64), rows)[0]
    return value * signs + nu * rng.standard_normal(len(rows))


def test_near_linear_exact_codeword():
    plan = window_plan(8, 3, 2)
    offsets = build_offsets("near-linear", plan, p1=20, rng=np.random.default_rng(0))
    k = 173
    col = _single_ton_column(plan, offsets, 0, k, 2.0, 0.0, np.random.default_rng(1))
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=2.0)
    det = detect_near_linear(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
    assert det.kind == SINGLE_TON and det.index == k and det.value == 2.0
    cfg_cont = DetectorConfig(gamma=1.0, nu2=1e-12, constellation=False)
    det = detect_near_linear(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg_cont)
    assert det.value == pytest.approx(2.0)


def test_near_linear_zero_column_is_zero_ton():
    plan = window_plan(8, 3, 2)
    offsets = build_offsets("near-linear", plan, p1=20, rng=np.random.default_rng(2))
    cfg = DetectorConfig(gamma=0.5, nu2=0.3)
    assert detect_near_linear(np.zeros(20), 0, 0, plan, offsets, cfg).kind == ZERO_TON


def test_near_linear_batch_matches_one_column_at_a_time():
    # 12 coefficients in 8 bins at 10 dB: zero-, single- and multi-ton bins
    n, k_sparsity = 10, 12
    rng = np.random.default_rng(13)
    plan = window_plan(n, 3, 2)
    spectrum = draw_spectrum(n, k_sparsity, 1.0, rng)
    sigma = sigma_for_snr(1.0, k_sparsity, 1 << n, 10.0)
    offsets = build_offsets("near-linear", plan, rng=rng)
    obs = observe(NoisyAccess(spectrum, sigma, rng), plan, offsets)
    cfg = DetectorConfig(gamma=DetectorConfig.default_gamma(10.0), nu2=(1 << n) * sigma**2 / plan.bins)
    kinds = set()
    for c in range(plan.c_groups):
        block = obs.data[c]
        js = np.array([0, 2, 3, 5, 6, 7])
        batch = references.as_detections(detect_near_linear_many(block[js], js, c, plan, offsets, cfg), len(js))
        assert batch == [detect_near_linear(block[j], j, c, plan, offsets, cfg) for j in js]
        kinds.update(det.kind for det in batch)
        empty = js[:0]
        assert references.as_detections(detect_near_linear_many(block[empty], empty, c, plan, offsets, cfg), 0) == []
    assert kinds == {ZERO_TON, SINGLE_TON, MULTI_TON}


@pytest.mark.parametrize("variant,n,k_sparsity,snr_db", [
    ("noiseless", 10, 12, None),
    ("nso", 12, 16, 5.0),
    ("nso", 12, 16, 0.0),
    ("so", 12, 16, 5.0),
    ("so", 12, 16, 0.0),
])
def test_batched_detectors_equal_column_loops(monkeypatch, variant, n, k_sparsity, snr_db):
    # each bin is classified by the batch, by the one-column case of the
    # batch and by the old one-column loop; a second block moves every
    # column to the bin j ^ 1, where a single-ton's index no longer hashes
    # to the bin it sits in
    decodes = []
    loop_bitflip = references.bitflip_decode_loop

    def recorded_decode(code, received, max_rounds):
        decoded = loop_bitflip(code, received, max_rounds)
        decodes.append((decoded, loop_bitflip(code, received, 0)))
        return decoded

    monkeypatch.setattr(references, "bitflip_decode_loop", recorded_decode)
    kinds, moved_singles = set(), 0
    for seed, (_, plan, offsets, cfg, obs) in enumerate(
            seeded_instances(variant, n, k_sparsity, snr_db, True, seeds=range(3))):
        one, loop = {
            "noiseless": (lambda u, j, c: detect_noiseless(u, j, c, plan, cfg),
                          lambda u, j, c: references.detect_noiseless_loop(u, j, c, plan, cfg)),
            "nso": (lambda u, j, c: detect_nso(u, j, c, plan, offsets, cfg),
                    lambda u, j, c: references.detect_nso_loop(u, j, c, plan, offsets, cfg)),
            "so": (lambda u, j, c: detect_so(u, j, c, plan, offsets, cfg),
                   lambda u, j, c: references.detect_so_loop(u, j, c, plan, offsets, cfg)),
        }[variant]

        def many(cols, js, c):
            return references.as_detections(DETECTORS[variant](cols, js, c, plan, offsets, cfg), len(js))

        # js holds every bin in order, so row j of a block is the column of bin j
        js = np.arange(plan.bins)
        for c in range(plan.c_groups):
            block = obs.data[c]
            batch = many(block, js, c)
            assert batch == [loop(block[j], j, c) for j in js] == [one(block[j], j, c) for j in js]
            moved = np.ascontiguousarray(block[js ^ 1])
            moved_batch = many(moved, js, c)
            assert moved_batch == [loop(moved[j], j, c) for j in js] == [one(moved[j], j, c) for j in js]
            # columns of random signs: ties in the sign votes
            signs = np.where(np.random.default_rng(seed).random(block.shape) < 0.5, -1.0, 1.0)
            noise = np.abs(block).mean() * signs
            assert many(noise, js, c) == [loop(noise[j], j, c) for j in js] == [one(noise[j], j, c) for j in js]
            assert many(block[:0], js[:0], c) == []
            kinds.update(det.kind for det in batch)
            moved_singles += sum(det.kind == SINGLE_TON and moved_batch[j ^ 1].kind == MULTI_TON
                                 for j, det in enumerate(batch))
    assert kinds == {ZERO_TON, SINGLE_TON, MULTI_TON}
    assert moved_singles > 0
    if variant == "so":
        assert any(decoded is None for decoded, _ in decodes)
        assert any(decoded is not None and first is None for decoded, first in decodes)


def test_near_linear_monte_carlo_accuracy():
    # single-ton bins at 10 dB with eta = B/K = 4: nu^2 = rho^2 / (eta snr)
    n, b, k_sparsity = 10, 6, 16
    plan = window_plan(n, b, 1)
    rng = np.random.default_rng(3)
    offsets = build_offsets("near-linear", plan, p1=3 * n, rng=rng)
    eta, snr = (1 << b) / k_sparsity, 10.0
    nu = math.sqrt(1.0 / (eta * snr))
    cfg = DetectorConfig(gamma=DetectorConfig.default_gamma(snr), nu2=nu**2, rho=1.0)
    hits = 0
    trials = 1000
    for _ in range(trials):
        k = int(rng.integers(0, 1 << n))
        value = 1.0 if rng.integers(0, 2) else -1.0
        col = _single_ton_column(plan, offsets, 0, k, value, nu, rng)
        det = detect_near_linear(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
        hits += det.kind == SINGLE_TON and det.index == k and det.value == value
    assert hits / trials >= 0.99


def test_nso_majority_example():
    votes = np.array([0, 0, 1, 0, 1])
    assert not bool(2 * votes.sum() > len(votes))  # majority says bit 0


def test_nso_exact_recovery_no_noise():
    n = 8
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(4)
    offsets = build_offsets("nso", plan, p1=6, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    for k in (0, 7, 201, 255):
        col = _single_ton_column(plan, offsets, 0, k, -1.0, 0.0, rng)
        det = detect_nso(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
        assert det.kind == SINGLE_TON and det.index == k and det.value == -1.0


def test_nso_hash_inconsistency_goes_multi():
    n = 8
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(5)
    offsets = build_offsets("nso", plan, p1=6, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    k = 201
    col = _single_ton_column(plan, offsets, 0, k, 1.0, 0.0, rng)
    det = detect_nso(col, references.bin_of_loop(plan, 0, k) ^ 1, 0, plan, offsets, cfg)
    assert det.kind == MULTI_TON


def test_nso_monte_carlo_accuracy():
    n, k_sparsity = 14, 20
    plan = build_plan(n, k_sparsity)
    rng = np.random.default_rng(6)
    offsets = build_offsets("nso", plan, p1=2 * n, rng=rng)
    eta, snr = plan.bins / k_sparsity, 10.0
    nu = math.sqrt(1.0 / (eta * snr))
    cfg = DetectorConfig(gamma=DetectorConfig.default_gamma(snr), nu2=nu**2, rho=1.0)
    hits = 0
    trials = 1000
    for _ in range(trials):
        k = int(rng.integers(0, 1 << n))
        col = _single_ton_column(plan, offsets, 0, k, 1.0, nu, rng)
        det = detect_nso(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
        hits += det.kind == SINGLE_TON and det.index == k
    assert hits / trials >= 0.99


def test_so_exact_decode_no_noise():
    n = 10
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(7)
    code = build_regular_ldpc(n, rng)
    offsets = build_offsets("so", plan, code=code, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    k = 777
    col = _single_ton_column(plan, offsets, 0, k, 1.0, 0.0, rng)
    det = detect_so(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
    assert det.kind == SINGLE_TON and det.index == k and det.value == 1.0


def test_so_negative_coefficient_sign_reference():
    # the zero-offset row reads the nuisance sign; decoding still lands on k
    n = 10
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(8)
    code = build_regular_ldpc(n, rng)
    offsets = build_offsets("so", plan, code=code, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    k = 345
    col = _single_ton_column(plan, offsets, 0, k, -1.0, 0.0, rng)
    assert col[offsets.layout["reference"]] == -1.0
    det = detect_so(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
    assert det.kind == SINGLE_TON and det.index == k and det.value == -1.0


def test_so_monte_carlo_accuracy():
    n, k_sparsity = 14, 20
    plan = build_plan(n, k_sparsity)
    rng = np.random.default_rng(9)
    eta, snr = plan.bins / k_sparsity, 10.0
    nu = math.sqrt(1.0 / (eta * snr))
    cfg = DetectorConfig(gamma=DetectorConfig.default_gamma(snr), nu2=nu**2, rho=1.0)
    hits = 0
    trials = 1000
    code = build_regular_ldpc(n, rng)
    offsets = build_offsets("so", plan, code=code, rng=rng)
    for _ in range(trials):
        k = int(rng.integers(0, 1 << n))
        col = _single_ton_column(plan, offsets, 0, k, 1.0, nu, rng)
        det = detect_so(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
        hits += det.kind == SINGLE_TON and det.index == k
    assert hits / trials >= 0.95


def test_signature_group_structure():
    rng = np.random.default_rng(10)
    rows = rng.integers(0, 1 << 12, size=30, dtype=np.int64).astype(np.uint64)
    a, b_ = rng.integers(0, 1 << 12, size=2, dtype=np.int64)
    s = lambda k: sign_matrix(np.array([k], dtype=np.uint64), rows)[0]
    assert np.array_equal(s(a ^ b_), s(a) * s(b_))


def test_crossover_bound_values():
    assert crossover_bound(1.0, 10.0) == pytest.approx(math.exp(-5.0))
    assert crossover_bound(1.0, 1e9) < 1e-200
    with pytest.raises(ValueError):
        crossover_bound(0.0, 1.0)


def test_crossover_bound_dominates_empirical_flip_rate():
    # single-ton bins from the real pipeline at eta = 1
    n, k_sparsity, b = 12, 8, 3
    rng = np.random.default_rng(11)
    spectrum = draw_spectrum(n, 1, 1.0, rng)
    k = next(iter(spectrum.entries))
    for snr_db in (5.0, 10.0):
        snr = 10 ** (snr_db / 10)
        sigma = sigma_for_snr(1.0, k_sparsity, 1 << n, snr)
        plan = window_plan(n, b, 1)
        eta = plan.bins / k_sparsity
        assert eta == 1.0
        offsets = build_offsets("near-linear", plan, p1=64, rng=rng)
        flips = 0
        total = 0
        for trial in range(200):
            access = NoisyAccess(spectrum, sigma, np.random.default_rng(5000 + trial))
            obs = observe(access, plan, offsets)
            j = references.bin_of_loop(plan, 0, k)
            col = obs.data[0, j]
            signs = sign_matrix(np.array([k], dtype=np.uint64), offsets.rows_u64(0))[0]
            expected_sign = np.sign(spectrum.entries[k]) * signs
            flips += int(np.sum(np.sign(col) != expected_sign))
            total += len(col)
        rate = flips / total
        bound = crossover_bound(eta, snr)
        assert rate <= bound + 3 * math.sqrt(bound * (1 - bound) / total)


def test_nso_xor_stream_flip_rate_matches_theta():
    # theta = 2 Pe (1 - Pe) for the XORed sign stream of modulated rows
    n = 10
    rng = np.random.default_rng(12)
    rho, nu = 1.0, 0.55
    pe_true = _gaussian_tail(rho / nu)
    theta = 2 * pe_true * (1 - pe_true)
    p1 = 40
    base_rows = rng.integers(0, 1 << n, size=p1, dtype=np.int64).astype(np.uint64)
    k = int(rng.integers(0, 1 << n))
    flips = 0
    total = 0
    for _ in range(400):
        base_signs = sign_matrix(base_rows, np.array([k], dtype=np.uint64))[:, 0]
        q = int(rng.integers(0, n))
        mod_rows = base_rows ^ np.uint64(1 << q)
        mod_signs = sign_matrix(mod_rows, np.array([k], dtype=np.uint64))[:, 0]
        u_base = rho * base_signs + nu * rng.standard_normal(p1)
        u_mod = rho * mod_signs + nu * rng.standard_normal(p1)
        stream = (u_base < 0) ^ (u_mod < 0)
        truth = ((k >> q) & 1).__bool__()
        flips += int(np.sum(stream != truth))
        total += p1
    rate = flips / total
    assert abs(rate - theta) <= 3 * math.sqrt(theta * (1 - theta) / total)


def _gaussian_tail(x):
    return 0.5 * math.erfc(x / math.sqrt(2.0))
