import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsewht import (NoisyAccess, bin_detect, crossover_bound, draw_spectrum, experiments, sigma_for_snr,
                       verify_support)
from sparsewht.bin_detect import (
    DETECTORS,
    MULTI_TON,
    SINGLE_TON,
    ZERO_TON,
    DetectorConfig,
    detect_coded_many,
    detect_near_linear,
    detect_near_linear_many,
    detect_noiseless,
    detect_nso,
    detect_so,
)
from sparsewht.codes import bitflip_decode_many, build_regular_ldpc, code_for
from sparsewht.frontend import VARIANTS, OffsetPlan, SubsamplingPlan, build_offsets, build_plan, design, observe
from sparsewht.kernels import parity_words, sign_matrix
from sparsewht.signal_model import snr_from_db

import references
from helpers import bits, golden_plan, plan_design, seeded_instances, window_plan
from references import sgn


NOISELESS_CFG = DetectorConfig(constellation=False, zero_tol=1e-9 * 4.0 * 4.0)


def test_detectors_cover_every_variant():
    assert tuple(DETECTORS) == VARIANTS
    # one coded detector serves every variant but near-linear
    assert {DETECTORS[v] for v in ("noiseless", "nso", "so")} == {detect_coded_many}
    assert DETECTORS["near-linear"] is detect_near_linear_many


def _two_bases_over_the_ldpc_rows(n, plan, verify_rows, rng):
    """Offsets no variant builds: ``verify_rows`` random rows, then two
    random bases over every row of ``code_for(n)``, base-major, so that
    no bit comes from the bin."""
    code = code_for(n)
    shape = (plan.c_groups, verify_rows + 2)
    verify_and_bases = rng.integers(1, 1 << n, size=shape, dtype=np.int64).astype(np.uint64)
    coded = np.array(code.g_rows, dtype=np.uint64)
    block = (verify_and_bases[:, verify_rows:, None] ^ coded).reshape(plan.c_groups, -1)
    groups = np.concatenate([verify_and_bases, block], axis=1)
    layout = {"verify": (0, verify_rows), "bases": (verify_rows, verify_rows + 2),
              "code": (verify_rows + 2, groups.shape[1])}
    stored = np.repeat(np.arange(len(coded))[None], plan.c_groups, axis=0)
    return OffsetPlan("so", n, groups, layout, groups.shape[1], code=code, code_words=coded, stored=stored)


@pytest.mark.parametrize("verify_rows", [10, 0])
def test_coded_detector_two_bases_over_the_ldpc_rows(verify_rows):
    # every noise-free single-ton decodes through the sum over both bases
    # and the bit flipping, with its sign; a bin holding two
    # coefficients does not pass as one over every row, at the noise level
    # or, without verify rows, at the round-off level, nonzero bases included
    n = 10
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(12)
    offsets = _two_bases_over_the_ldpc_rows(n, plan, verify_rows, rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0, zero_tol=1e-9)
    ks = np.arange(1 << n, dtype=np.uint64)
    values = np.where(ks % 3 == 0, -1.0, 1.0)
    for c in range(plan.c_groups):
        js = plan.bins_of_many(c, ks).astype(np.int64)
        cols = values[:, None] * sign_matrix(ks, offsets.groups[c])
        zero, gated, k_words, got, single = bin_detect.classify(cols, js, c, plan, offsets, cfg)
        assert not (zero | gated).any() and single.all()
        assert np.array_equal(k_words, ks) and np.array_equal(got, values)

        pairs = ks[:64] ^ plan.coset_basis[c, rng.integers(0, n - plan.b, size=64)]
        two = cols[:64] + 0.5 * values[pairs.astype(np.int64), None] * sign_matrix(pairs, offsets.groups[c])
        # the finder and the residual test, given every row, refuse them all, as classify does
        _, _, _, _, single = references.classify_ungated(two, js[:64], c, plan, offsets, cfg)
        assert len(single) == 64 and not single.any()
        assert not bin_detect.classify(two, js[:64], c, plan, offsets, cfg)[4].any()


def test_coded_detector_reads_the_free_bits_on_window_plans():
    # every group of both designs stores the code rows less the b at its
    # window bits: code_for(13)'s weight-1 parity row e_10, in group 2's
    # window, is stored too. The detector builds no particular word table,
    # as the bits of j select the words of p_c(j)
    for variant, n, k in (("so", 13, 16), ("nso", 17, 40)):
        d = design(variant, n, k)
        plan = window_plan(n, d.b, d.c_groups)  # fresh: build_plan's is cached and shared
        assert plan.col_words.tolist() == build_plan(d).col_words.tolist()
        offsets = build_offsets(d, plan, rng=np.random.default_rng(0))
        assert offsets.stored.shape == (d.c_groups, len(offsets.code_words) - d.b)
        assert offsets.rows == {"so": 13 + 1 + 22, "nso": 34 * (1 + 11)}[variant]
        rng = np.random.default_rng(1)
        access = NoisyAccess(draw_spectrum(n, k, 1.0, rng), sigma_for_snr(1.0, k, 1 << n, snr_from_db(10.0)), rng)
        recovered, report, _, _ = experiments.recover(access, k, variant, snr_db=10.0, rho=1.0,
                                                      rng_offsets=rng, plan=plan)
        assert report.peels >= k and verify_support(recovered, access.spectrum)
        assert "particular_words" not in plan.__dict__


def test_coded_detector_confirms_only_decoded_words(monkeypatch):
    # random-sign columns: many SO words fail to decode, and only the ones
    # that decode to a word of their own bin reach the residual check, on every row
    _, plan, offsets, cfg, obs = next(seeded_instances("so", 12, 16, 5.0, True, seeds=[0]))
    confirmed = []
    confirm = bin_detect._confirm

    def recorded(u, *args):
        confirmed.append(u.shape)
        return confirm(u, *args)

    monkeypatch.setattr(bin_detect, "_confirm", recorded)
    signs = np.where(np.random.default_rng(0).random(obs.data[0].shape) < 0.5, -1.0, 1.0)
    js = np.arange(plan.bins)
    # unit rows: each is a candidate, neither a zero-ton nor gated
    zero, gated = bin_detect.triage(signs, bin_detect.tested(offsets, cfg), cfg)
    assert not (zero | gated).any()
    bin_detect.classify(signs, js, 0, plan, offsets, cfg)
    b0, _ = offsets.layout["bases"]
    c0, c1 = offsets.layout["code"]
    neg = signs < 0
    measured = neg[:, c0:c1] ^ neg[:, b0:b0 + 1]
    # each word is the codeword of the bin's word with the measured free
    # bits, then the signs of the stored rows
    k0 = plan.bin_words(0, js, measured[:, :plan.n - plan.b])
    received = parity_words(offsets.code_words & k0[:, None])
    received[:, offsets.stored[0]] = measured
    words, decoded = bitflip_decode_many(offsets.code, received)
    assert 0 < decoded.sum() < len(js)
    hashed = decoded & (plan.bins_of_many(0, words).astype(np.int64) == js)
    assert 0 < hashed.sum() <= decoded.sum()
    assert confirmed == [(hashed.sum(), offsets.rows)]


@pytest.mark.parametrize("n,k,snr_db,rho", [
    (12, 10, 10.0, 1.0), (17, 40, 0.0, 1.0), (14, 20, 1.0, 2.5), (13, 16, 3.0, 0.5),
    (24, 100, 30.0, 1.0), (12, 10, None, 1.0), (15, 30, None, 3.0),
])
def test_for_noise_matches_the_separate_formulas(n, k, snr_db, rho):
    # the thresholds and the one bin-test level that recover, sketch_recover,
    # the seeded test instances and the stall flag read
    plan = build_plan(design("noiseless", n, k))
    size = 1 << n
    snr = None if snr_db is None else snr_from_db(snr_db)
    sigma = 0.0 if snr is None else sigma_for_snr(rho, k, size, snr)
    scale = 3.0 * rho  # the largest observed |value|: three coefficients in one bin
    cfg = DetectorConfig.for_noise(n, plan.bins, sigma, rho, snr, scale, constellation=False)
    nu2 = size * sigma * sigma / plan.bins
    gamma = 1.0 if snr is None else DetectorConfig.default_gamma(snr)
    assert cfg == DetectorConfig(gamma=gamma, nu2=nu2, rho=rho, constellation=False, zero_tol=1e-9 * scale)
    assert cfg.noise_level == max((1.0 + gamma) * nu2, cfg.zero_tol ** 2)
    if snr is None:
        # noise-free: no floor under nu^2, so every layout tests at the round-off level
        assert cfg.nu2 == 0.0 and cfg.noise_level == cfg.zero_tol ** 2
    else:
        assert cfg.noise_level == (1.0 + gamma) * nu2 > cfg.zero_tol ** 2
    # the level of the layout's test over every row: zero_tol^2 without verify rows, else noise_level
    noiseless = build_offsets(design("noiseless", n, k), plan)
    assert bin_detect.tested(noiseless, cfg) == cfg.zero_tol ** 2
    for variant in ("near-linear", "nso", "so"):
        assert bin_detect.tested(build_offsets(design(variant, n, k), plan, rng=0), cfg) == cfg.noise_level
    # a sketch: noise-free, unit amplitude, continuous values carrying sqrt(N)
    sketch = DetectorConfig.for_noise(n, plan.bins, 0.0, 1.0, None, math.sqrt(2.0**n), constellation=False)
    assert sketch.zero_tol == 1e-9 * math.sqrt(2.0**n) and not sketch.constellation
    assert bin_detect.tested(noiseless, sketch) == sketch.zero_tol ** 2 == sketch.noise_level


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 500), rho=st.floats(0.05, 20.0), log_level=st.floats(-20.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_gated_rows_admit_no_single_ton(p, rho, log_level, seed):
    # whenever the energy gate refuses a row u, no v = +/-rho and no s in
    # {+/-1}^P gives mean((u - v s)^2) within the level, as the detectors
    # compute it: s = sign(u) minimises it, and random s are tried too. The
    # rows sit on both sides of the boundary (sqrt(E) - rho)^2 = level, as
    # (rho +/- sqrt(level) (1 + delta)) s, and around it, with noise; the
    # level runs from round-off (zero_tol^2) to the noise of a low SNR
    rng = np.random.default_rng(seed)
    level = rho * rho * 10.0**log_level
    cfg = DetectorConfig(rho=rho, constellation=True)
    deltas = np.concatenate([-np.logspace(-1, -12, 12), [0.0], np.logspace(-12, -1, 12)])
    signs = np.where(rng.random((len(deltas), p)) < 0.5, -1.0, 1.0)
    above = (rho + math.sqrt(level) * (1.0 + deltas))[:, None] * signs
    below = (rho - math.sqrt(level) * (1.0 + deltas))[:, None] * signs
    noisy = above + math.sqrt(level) * rng.standard_normal(above.shape)
    spread = rho * rng.uniform(0.0, 3.0, size=(8, 1)) * rng.standard_normal((8, p))
    rows = np.concatenate([above, below, noisy, spread])
    zero, gated = bin_detect.triage(rows, level, cfg)
    assert not (zero & gated).any()
    u = rows[gated]
    best = np.where(u < 0, -1.0, 1.0)
    for v in (rho, -rho):
        for s in (best, -best, np.where(rng.random(u.shape) < 0.5, -1.0, 1.0)):
            assert not bin_detect._within_noise(u - v * s, level).any()
    # the gate is not empty: far from the boundary, rows are refused
    if log_level > -9:
        assert gated[:len(deltas)][deltas >= 1e-2].all()


def test_sgn_convention():
    assert sgn(-2.5) == 1 and sgn(3.0) == 0 and sgn(0.0) == 0


# group 0 of the worked plan hashes the two high positions, which the bin
# gives: it stores the zero row and the unit rows e_0 and e_1
GOLDEN_ROWS_G1 = np.array([0, 1, 2], dtype=np.uint64)


def test_noiseless_single_ton_from_worked_instance():
    # X = 2 at position-order index "0100": signs +,+,- scaled by 2
    column = 2.0 * np.array([1.0, 1.0, -1.0])
    k = bits("0100")
    plan = golden_plan()
    j = references.bin_of_loop(plan, 0, k)
    det = detect_noiseless(column, j, 0, plan, NOISELESS_CFG)
    assert det.kind == SINGLE_TON and det.index == k and det.value == 2.0


def test_noiseless_zero_ton():
    det = detect_noiseless(np.zeros(3), 0, 0, golden_plan(), NOISELESS_CFG)
    assert det.kind == ZERO_TON


def test_noiseless_multi_ton_two_coefficients():
    # 4 X[0110] + 1 X[1010]: unequal magnitudes across offsets
    plan = golden_plan()
    col = 4.0 * sign_matrix(np.array([bits("0110")], dtype=np.uint64), GOLDEN_ROWS_G1)[0]
    col += 1.0 * sign_matrix(np.array([bits("1010")], dtype=np.uint64), GOLDEN_ROWS_G1)[0]
    det = detect_noiseless(col, references.bin_of_loop(plan, 0, bits("0110")), 0, plan, NOISELESS_CFG)
    assert det.kind == MULTI_TON


def test_noiseless_column_reads_as_the_index_of_the_bin_it_sits_in():
    # the stored rows see only the free bits, and the bin gives the rest:
    # read in bin j ^ 1, a column is the single-ton k xor p_c(1), on hash
    # column words 3 and 5, which span no unit word, as on the worked window plan
    for plan in (SubsamplingPlan(4, [[3, 5]]), golden_plan()):
        offsets = build_offsets(design("noiseless", 4, 4), plan)
        k = bits("0110")
        column = 2.0 * sign_matrix(np.array([k], dtype=np.uint64), offsets.groups[0])[0]
        j = references.bin_of_loop(plan, 0, k)
        det = detect_noiseless(column, j, 0, plan, NOISELESS_CFG)
        assert (det.kind, det.index, det.value) == (SINGLE_TON, k, 2.0)
        moved = detect_noiseless(column, j ^ 1, 0, plan, NOISELESS_CFG)
        assert (moved.kind, moved.index, moved.value) == (SINGLE_TON, k ^ int(plan.particular_words[0, 1]), 2.0)
        assert references.bin_of_loop(plan, 0, moved.index) == j ^ 1
    assert moved.index == bits("0100")


def _single_ton_column(plan, offsets, c, k, value, nu, rng):
    rows = offsets.groups[c]
    signs = sign_matrix(np.array([k], dtype=np.uint64), rows)[0]
    return value * signs + nu * rng.standard_normal(len(rows))


@pytest.mark.parametrize("variant", ["nso", "so"])
@pytest.mark.parametrize("snr_db", [None, 10.0])
def test_single_ton_is_tested_on_every_row(variant, snr_db):
    # a spike on one code row, outside the verify rows, keeps the decoded
    # index (it only grows that row's magnitude) but leaves a residual the
    # single-ton test must see: a spike of sqrt(2 P level) passes the energy
    # gate and fails the residual test; a 100x spike is already gated, and
    # the finder and the residual test, given it anyway, refuse it too
    n, k_sparsity = 12, 10
    d = design(variant, n, k_sparsity)
    plan = build_plan(d)
    rng = np.random.default_rng(14)
    offsets = build_offsets(d, plan, rng=rng)
    snr = None if snr_db is None else snr_from_db(snr_db)
    sigma = 0.0 if snr is None else sigma_for_snr(1.0, k_sparsity, 1 << n, snr)
    v0, v1 = offsets.layout["verify"]
    row = offsets.layout["code"][1] - 1
    assert v0 <= v1 <= row
    for k in rng.integers(0, 1 << n, size=20).tolist():
        c = k % plan.c_groups
        col = _single_ton_column(plan, offsets, c, k, 1.0, math.sqrt((1 << n) * sigma**2 / plan.bins), rng)
        js = np.full(3, plan.bins_of_many(c, np.array([k], dtype=np.uint64))[0], dtype=np.int64)
        cols = np.array([col, col, col])
        cols[2, row] += 100.0 * np.sign(col[row])
        cfg = DetectorConfig.for_noise(n, plan.bins, sigma, 1.0, snr, np.abs(cols).max())
        level = bin_detect.tested(offsets, cfg)
        cols[1, row] += math.sqrt(2 * offsets.rows * level) * np.sign(col[row])
        zero, gated = bin_detect.triage(cols, level, cfg)
        assert zero.tolist() == [False] * 3 and gated.tolist() == [False, False, True]
        _, _, k_words, values, single = references.classify_ungated(cols, js, c, plan, offsets, cfg)
        assert k_words.tolist() == [k] * 3 and values.tolist() == [1.0] * 3
        assert single.tolist() == [True, False, False]
        zero, gated, k_words, values, single = bin_detect.classify(cols, js, c, plan, offsets, cfg)
        assert zero.tolist() == [False] * 3 and gated.tolist() == [False, False, True]
        assert k_words.tolist() == [k] * 2 and values.tolist() == [1.0] * 2 and single.tolist() == [True, False]
        one = [detect_nso(u, js[0], c, plan, offsets, cfg) for u in cols]
        assert [det.kind for det in one] == [SINGLE_TON, MULTI_TON, MULTI_TON]


def test_near_linear_exact_codeword():
    plan = window_plan(8, 3, 2)
    offsets = build_offsets(plan_design("near-linear", plan, p1=20), plan, rng=np.random.default_rng(0))
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
    offsets = build_offsets(plan_design("near-linear", plan, p1=20), plan, rng=np.random.default_rng(2))
    cfg = DetectorConfig(gamma=0.5, nu2=0.3)
    assert detect_near_linear(np.zeros(20), 0, 0, plan, offsets, cfg).kind == ZERO_TON


def test_near_linear_batch_matches_one_column_at_a_time():
    # 12 coefficients in 8 bins at 10 dB: zero-, single- and multi-ton bins
    n, k_sparsity = 10, 12
    rng = np.random.default_rng(13)
    plan = window_plan(n, 3, 2)
    spectrum = draw_spectrum(n, k_sparsity, 1.0, rng)
    sigma = sigma_for_snr(1.0, k_sparsity, 1 << n, 10.0)
    offsets = build_offsets(plan_design("near-linear", plan), plan, rng=rng)
    obs = observe(NoisyAccess(spectrum, sigma, rng), plan, offsets)
    cfg = DetectorConfig(gamma=DetectorConfig.default_gamma(10.0), nu2=(1 << n) * sigma**2 / plan.bins)
    kinds = set()
    for c in range(plan.c_groups):
        block = obs.data[c]
        js = np.array([0, 2, 3, 5, 6, 7])
        for gate in (True, False):
            batch = references.as_detections(block[js], js, c, plan, offsets, cfg, gate)
            assert batch == [detect_near_linear(block[j], j, c, plan, offsets, cfg) for j in js]
        kinds.update(det.kind for det in batch)
        empty = js[:0]
        assert references.as_detections(block[empty], empty, c, plan, offsets, cfg) == []
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
    # to the bin it sits in, unless the bin gives every bit that tells them apart
    _batched_detectors_equal_column_loops(monkeypatch, variant, n, k_sparsity, snr_db, random=False)


@pytest.mark.parametrize("variant,n,k_sparsity,snr_db", [
    ("noiseless", 10, 12, None),
    ("nso", 12, 16, 5.0),
    ("so", 12, 16, 5.0),
])
def test_batched_detectors_equal_column_loops_on_random_plans(monkeypatch, variant, n, k_sparsity, snr_db):
    # the same on a plan of random full-column-rank matrices, the sketch's kind,
    # whose coset basis words are not unit words
    _batched_detectors_equal_column_loops(monkeypatch, variant, n, k_sparsity, snr_db, random=True)


def _batched_detectors_equal_column_loops(monkeypatch, variant, n, k_sparsity, snr_db, random):
    decodes = []
    loop_bitflip = references.bitflip_decode_loop

    def recorded_decode(code, received, max_rounds):
        decoded = loop_bitflip(code, received, max_rounds)
        decodes.append((decoded, loop_bitflip(code, received, 0)))
        return decoded

    monkeypatch.setattr(references, "bitflip_decode_loop", recorded_decode)
    kinds, moved_singles = set(), 0
    for seed, (_, plan, offsets, cfg, obs) in enumerate(
            seeded_instances(variant, n, k_sparsity, snr_db, True, seeds=range(3), random=random)):
        one, loop = {
            "noiseless": (lambda u, j, c: detect_noiseless(u, j, c, plan, cfg),
                          lambda u, j, c: references.detect_noiseless_loop(u, j, c, plan, offsets, cfg)),
            "nso": (lambda u, j, c: detect_nso(u, j, c, plan, offsets, cfg),
                    lambda u, j, c: references.detect_nso_loop(u, j, c, plan, offsets, cfg)),
            "so": (lambda u, j, c: detect_so(u, j, c, plan, offsets, cfg),
                   lambda u, j, c: references.detect_so_loop(u, j, c, plan, offsets, cfg)),
        }[variant]

        def many(cols, js, c):
            # the batch after the energy gate equals the batch without it
            gated = references.as_detections(cols, js, c, plan, offsets, cfg)
            assert gated == references.as_detections(cols, js, c, plan, offsets, cfg, False)
            return gated

        # js holds every bin in order, so row j of a block is the column of bin j
        js = np.arange(plan.bins)
        for c in range(plan.c_groups):
            block = obs.data[c]
            batch = many(block, js, c)
            assert batch == [loop(block[j], j, c) for j in js] == [one(block[j], j, c) for j in js]
            moved = np.ascontiguousarray(block[js ^ 1])
            moved_batch = many(moved, js, c)
            assert moved_batch == [loop(moved[j], j, c) for j in js] == [one(moved[j], j, c) for j in js]
            # columns of random signs: sums over the bases that cancel to 0
            signs = np.where(np.random.default_rng(seed).random(block.shape) < 0.5, -1.0, 1.0)
            noise = np.abs(block).mean() * signs
            assert many(noise, js, c) == [loop(noise[j], j, c) for j in js] == [one(noise[j], j, c) for j in js]
            assert many(block[:0], js[:0], c) == []
            kinds.update(det.kind for det in batch)
            for j, det in enumerate(batch):
                if det.kind == SINGLE_TON and variant == "noiseless":
                    # no stored row sees the pivot bits, which the bin gives:
                    # the column reads as the index of the bin it sits in
                    moved_det = moved_batch[j ^ 1]
                    assert (moved_det.kind, moved_det.index) == \
                        (SINGLE_TON, det.index ^ int(plan.particular_words[c, 1]))
                moved_singles += det.kind == SINGLE_TON and moved_batch[j ^ 1].kind == MULTI_TON
    assert kinds == {ZERO_TON, SINGLE_TON, MULTI_TON}
    assert (moved_singles > 0) == (variant != "noiseless")
    if variant == "so":
        assert any(decoded is None for decoded, _ in decodes)
        assert any(decoded is not None and first is None for decoded, first in decodes)


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(VARIANTS), random=st.booleans(), noisy=st.booleans(),
       n=st.integers(8, 11), k=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
def test_finders_propose_only_indices_of_their_own_bin(variant, random, noisy, n, k, seed):
    # the finder contract, on each group's bins, the same columns moved to
    # bin j ^ 1 and columns of random signs: every index a finder finds
    # hashes to its row's bin, a candidate it does not find is a multi-ton
    # of value 0, and classify of one row equals the batch
    ((_, plan, offsets, cfg, obs),) = seeded_instances(variant, n, k, 5.0 if noisy else None, True, seeds=[seed],
                                                       random=random)
    one = {"noiseless": lambda u, j, c: detect_noiseless(u, j, c, plan, cfg),
           "near-linear": lambda u, j, c: detect_near_linear(u, j, c, plan, offsets, cfg),
           "nso": lambda u, j, c: detect_nso(u, j, c, plan, offsets, cfg),
           "so": lambda u, j, c: detect_so(u, j, c, plan, offsets, cfg)}[variant]
    js = np.arange(plan.bins)
    rng = np.random.default_rng(seed)
    for c in range(plan.c_groups):
        block = obs.data[c]
        signs = np.abs(block).mean() * np.where(rng.random(block.shape) < 0.5, -1.0, 1.0)
        for cols in (block, np.ascontiguousarray(block[js ^ 1]), signs):
            zero, gated, k_words, values, single = bin_detect.classify(cols, js, c, plan, offsets, cfg)
            live = np.flatnonzero(~(zero | gated))
            proposed, found = DETECTORS[variant](cols[live], js[live], c, plan, offsets)
            mask = np.zeros(len(live), dtype=bool)
            mask[found] = True
            assert np.array_equal(proposed, k_words)
            assert np.array_equal(plan.bins_of_many(c, k_words[mask]).astype(np.int64), js[live][mask])
            assert not single[~mask].any() and not values[~mask].any()
            batch = references.as_detections(cols, js, c, plan, offsets, cfg)
            assert batch == [one(cols[j], j, c) for j in js]


def test_near_linear_monte_carlo_accuracy():
    # single-ton bins at 10 dB with eta = B/K = 4: nu^2 = rho^2 / (eta snr)
    n, b, k_sparsity = 10, 6, 16
    plan = window_plan(n, b, 1)
    rng = np.random.default_rng(3)
    offsets = build_offsets(plan_design("near-linear", plan, p1=3 * n), plan, rng=rng)
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


def test_nso_code_bit_sums_its_base_correlations():
    # a noise-free single-ton whose row d_p xor e_q is weak and flipped in
    # 13 of the 24 bases: a majority of the base signs reads bit q wrong,
    # but the 11 strong bases outweigh them, and the residual of the weak
    # rows is within the noise level
    n, k, c, q = 12, 1234, 0, 0
    d = design("nso", n, 16)
    plan = build_plan(d)
    offsets = build_offsets(d, plan, rng=np.random.default_rng(3))
    b0, b1 = offsets.layout["bases"]
    c0, c1 = offsets.layout["code"]
    rows = c0 + np.arange(13) * ((c1 - c0) // (b1 - b0)) + q
    assert b1 - b0 == 24
    g_q = offsets.code_words[offsets.stored[c, q]]
    assert np.array_equal(offsets.groups[c][rows], offsets.groups[c][b0:b0 + 13] ^ g_q)
    col = sign_matrix(np.array([k], dtype=np.uint64), offsets.groups[c])
    col[0, rows] *= -0.05
    js = plan.bins_of_many(c, np.array([k], dtype=np.uint64)).astype(np.int64)
    cfg = DetectorConfig(gamma=1.0, nu2=0.05, rho=1.0)
    zero, gated, k_words, values, single = bin_detect.classify(col, js, c, plan, offsets, cfg)
    assert zero.tolist() == gated.tolist() == [False]
    assert k_words.tolist() == [k] and values.tolist() == [1.0] and single.tolist() == [True]


def test_nso_exact_recovery_no_noise():
    n = 8
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(4)
    offsets = build_offsets(plan_design("nso", plan, p1=6), plan, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    for k in (0, 7, 201, 255):
        col = _single_ton_column(plan, offsets, 0, k, -1.0, 0.0, rng)
        det = detect_nso(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
        assert det.kind == SINGLE_TON and det.index == k and det.value == -1.0


def test_nso_hash_inconsistency_goes_multi():
    n = 8
    plan = window_plan(n, 3, 2)
    rng = np.random.default_rng(5)
    offsets = build_offsets(plan_design("nso", plan, p1=6), plan, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    k = 201
    col = _single_ton_column(plan, offsets, 0, k, 1.0, 0.0, rng)
    det = detect_nso(col, references.bin_of_loop(plan, 0, k) ^ 1, 0, plan, offsets, cfg)
    assert det.kind == MULTI_TON


def test_nso_monte_carlo_accuracy():
    n, k_sparsity = 14, 20
    d = design("nso", n, k_sparsity)
    plan = build_plan(d)
    rng = np.random.default_rng(6)
    offsets = build_offsets(d, plan, rng=rng)
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
    offsets = build_offsets(plan_design("so", plan, code=code), plan, rng=rng)
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
    offsets = build_offsets(plan_design("so", plan, code=code), plan, rng=rng)
    cfg = DetectorConfig(gamma=1.0, nu2=1e-12, rho=1.0)
    k = 345
    col = _single_ton_column(plan, offsets, 0, k, -1.0, 0.0, rng)
    assert col[offsets.layout["bases"][0]] == -1.0
    det = detect_so(col, references.bin_of_loop(plan, 0, k), 0, plan, offsets, cfg)
    assert det.kind == SINGLE_TON and det.index == k and det.value == -1.0


def test_so_monte_carlo_accuracy():
    n, k_sparsity = 14, 20
    d = design("so", n, k_sparsity)
    plan = build_plan(d)
    rng = np.random.default_rng(9)
    eta, snr = plan.bins / k_sparsity, 10.0
    nu = math.sqrt(1.0 / (eta * snr))
    cfg = DetectorConfig(gamma=DetectorConfig.default_gamma(snr), nu2=nu**2, rho=1.0)
    hits = 0
    trials = 1000
    offsets = build_offsets(dataclasses.replace(d, code=build_regular_ldpc(n, rng)), plan, rng=rng)
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
        offsets = build_offsets(plan_design("near-linear", plan, p1=64), plan, rng=rng)
        flips = 0
        total = 0
        for trial in range(200):
            access = NoisyAccess(spectrum, sigma, np.random.default_rng(5000 + trial))
            obs = observe(access, plan, offsets)
            j = references.bin_of_loop(plan, 0, k)
            col = obs.data[0, j]
            signs = sign_matrix(np.array([k], dtype=np.uint64), offsets.groups[0])[0]
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
