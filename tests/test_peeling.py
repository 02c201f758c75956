import dataclasses

import numpy as np
import pytest

from sparsewht import NoisyAccess, SparseSpectrum, bin_detect, draw_spectrum, peeling, sigma_for_snr, verify_support
from sparsewht.bin_detect import (
    MULTI_TON,
    SINGLE_TON,
    ZERO_TON,
    Detection,
    DetectorConfig,
    detect_near_linear,
)
from sparsewht.experiments import ExperimentConfig, noise_sigma, recover, run_trial
from sparsewht.frontend import PlanError, build_offsets, build_plan, design, observe
from sparsewht.kernels import fwht, sign_matrix
from sparsewht.peeling import DecodeReport, decode

import references
from helpers import golden_plan, golden_spectrum, plan_design, seeded_instances, window_plan
from references import densify


def _noiseless_setup(spectrum, plan, seed=0):
    access = NoisyAccess(spectrum, 0.0, np.random.default_rng(seed))
    offsets = build_offsets(plan_design("noiseless", plan), plan)
    obs = observe(access, plan, offsets)
    cfg = DetectorConfig(constellation=False, zero_tol=1e-9 * (2.0 ** (plan.n / 2)) * 4.0)
    return obs, offsets, cfg


def test_decode_worked_instance():
    spectrum = golden_spectrum()
    plan = golden_plan()
    obs, offsets, cfg = _noiseless_setup(spectrum, plan)
    first_sweep = {}

    def hook(data, recovered, sweep):
        if sweep == 1:
            first_sweep.update(recovered)

    recovered, report = decode(obs, plan, offsets, cfg, sweep_hook=hook)
    assert recovered.entries == spectrum.entries
    assert not report.stalled and report.conflicts == 0
    assert report.residual_energy < 1e-16
    # the three initially-isolated coefficients peel in the first sweep
    assert set(first_sweep) >= {2, 5, 15}


def test_zero_spectrum_decodes_empty():
    plan = golden_plan()
    obs, offsets, cfg = _noiseless_setup(SparseSpectrum(4, {}), plan)
    recovered, report = decode(obs, plan, offsets, cfg)
    assert recovered.sparsity == 0 and report.sweeps == 1 and report.peels == 0


def test_noiseless_recovery_against_dense_oracle():
    # b = 4 spread windows cover all ten positions; smaller windows leave
    # uncovered bits where support pairs would collide in every group
    n, k = 10, 8
    plan = window_plan(n, 4, 3)
    successes = 0
    for seed in range(500):
        rng = np.random.default_rng(seed)
        spectrum = draw_spectrum(n, k, 1.0, rng)
        obs, offsets, cfg = _noiseless_setup(spectrum, plan, seed=seed)
        recovered, _ = decode(obs, plan, offsets, cfg)
        # oracle: dense transform of the synthesized signal
        dense_truth = fwht(fwht(densify(spectrum)))  # involution sanity
        truth_entries = {i: v for i, v in enumerate(dense_truth) if abs(v) > 1e-9}
        successes += recovered.entries == pytest.approx(truth_entries)
    assert successes / 500 >= 0.99


def test_conservation_of_bin_sums():
    # peeling moves energy between bins and the recovered list, never
    # creates it: sum_j U_{c,p}[j] + sum_k X[k] (-1)^<d_cp,k> is constant
    spectrum = golden_spectrum()
    plan = golden_plan()
    obs, offsets, cfg = _noiseless_setup(spectrum, plan)
    baseline = obs.data.sum(axis=1)  # (C, P)
    checks = []

    def hook(data, recovered, sweep):
        current = data.sum(axis=1)
        for c in range(plan.c_groups):
            rows = offsets.groups[c]
            for k, v in recovered.items():
                signs = sign_matrix(np.array([k], dtype=np.uint64), rows)[0]
                current[c] += v * signs
        checks.append(np.max(np.abs(current - baseline)))

    decode(obs, plan, offsets, cfg, sweep_hook=hook)
    assert checks and max(checks) < 1e-8


def test_idempotent_on_peeled_tensor():
    spectrum = golden_spectrum()
    plan = golden_plan()
    obs, offsets, cfg = _noiseless_setup(spectrum, plan)
    recovered, _ = decode(obs, plan, offsets, cfg)
    for k, v in recovered.entries.items():
        for c in range(plan.c_groups):
            j = references.bin_of_loop(plan, c, k)
            signs = sign_matrix(np.array([k], dtype=np.uint64), offsets.groups[c])[0]
            obs.data[c, j] -= v * signs
    again, report = decode(obs, plan, offsets, cfg)
    assert again.sparsity == 0 and report.peels == 0


def test_decode_deterministic():
    n, k = 10, 8
    plan = window_plan(n, 2, 3)
    spectrum = draw_spectrum(n, k, 1.0, np.random.default_rng(123))
    obs1, offsets, cfg = _noiseless_setup(spectrum, plan, seed=9)
    obs2, _, _ = _noiseless_setup(spectrum, plan, seed=9)
    r1, rep1 = decode(obs1, plan, offsets, cfg)
    r2, rep2 = decode(obs2, plan, offsets, cfg)
    assert r1.entries == r2.entries and rep1 == rep2


def test_phantom_peel_self_heals():
    # three same-bin coefficients whose signed sum aliases exactly onto a
    # valid signature: the decoder peels the phantom, later re-detects it
    # with the opposite value, and the cancellation drops it
    n, k = 14, 40
    plan = build_plan(design("noiseless", n, k))
    hit = None
    for seed in range(40):
        spectrum = draw_spectrum(n, k, 1.0, np.random.default_rng(seed))
        obs, offsets, cfg = _noiseless_setup(spectrum, plan, seed=seed)
        recovered, report = decode(obs, plan, offsets, cfg)
        if report.conflicts > 0 and recovered.entries == spectrum.entries:
            hit = seed
            break
    assert hit is not None, "expected at least one self-healed phantom in 40 seeds"


def test_round_off_ghost_drops_out():
    # seed 5, (17, 40), trial 49: a multi-ton peels as a ghost and a later
    # peel cancels it, but the two floats differ in their last bits; the
    # ~1e-16 left over is round-off, within zero_tol, and drops out
    result = run_trial(ExperimentConfig(algorithm="noiseless", seed=5), 17, 40, None, 49)
    assert result.conflicts == 1
    assert result.support_ok and result.values_ok and not result.stalled


def test_unsettled_decode_stops_at_the_guard(monkeypatch):
    # a stub finder proposes every candidate bin's particular word and a stub
    # residual test calls it a single-ton at +1: each peel adds 1 to a
    # recovered value, so none cancels, and marks that word's bin pending in
    # every group, its own included, so every sweep changes the spectrum and
    # only the structural guard stops it
    def never_settles(cols, js, c, plan, offsets):
        return plan.particular_words[c, js], slice(None)

    def always_single(u, offset_words, level, k_words, cfg):
        return np.ones(len(k_words)), np.ones(len(k_words), dtype=bool)

    monkeypatch.setitem(bin_detect.DETECTORS, "near-linear", never_settles)
    monkeypatch.setattr(bin_detect, "_confirm", always_single)
    n, k, snr_db = 12, 10, 0.0
    rng = np.random.default_rng([91, n, k, 6, 0])
    spectrum = draw_spectrum(n, k, 1.0, rng, constellation=False)
    access = NoisyAccess(spectrum, noise_sigma(1.0, k, n, snr_db), rng)
    _, report, _, _ = recover(access, k, "near-linear", snr_db=snr_db, rho=1.0, constellation=False,
                              rng_offsets=rng)
    plan = build_plan(design("noiseless", n, k))
    assert report.sweeps == 2 * plan.c_groups * plan.bins + 10
    assert report.stalled


def test_cancelling_sweeps_end_the_decode(monkeypatch):
    # at 0 dB a sweep can re-isolate a recovered index with the opposite
    # sign and then with its own; the two peels cancel and the spectrum is
    # unchanged, so the decode ends instead of replaying that sweep. Every
    # decode here ends on such a sweep, and seeds 24 and 28 recover exactly
    n, k = 13, 16
    peels = []
    peel = peeling._peel

    def counting_peel(data, plan, offsets, k_words, values, pending):
        peels[-1] += len(k_words)
        peel(data, plan, offsets, k_words, values, pending)

    monkeypatch.setattr(peeling, "_peel", counting_peel)
    exact = []
    for spectrum, plan, offsets, cfg, obs in seeded_instances("near-linear", n, k, 0.0, True, seeds=range(24, 30)):
        peels[:] = [0]
        spectra = [{}]
        recovered, report = decode(obs, plan, offsets, cfg,
                                   sweep_hook=lambda data, entries, sweeps: (spectra.append(entries), peels.append(0)))
        assert report.sweeps == len(spectra) - 1 < 2 * k + 10
        assert peels[-2] >= 2 and spectra[-1] == spectra[-2]  # the last sweep peeled and cancelled
        exact.append(recovered.support() == spectrum.support())
    assert exact == [True, False, False, False, True, False]


def test_stall_flag_sees_a_stuck_multi_ton():
    # bits 6..9 lie outside both hash windows, so coefficients that differ
    # only there share their bin in every group and never peel
    n, snr = 10, 10.0
    plan = window_plan(n, 3, 2)
    assert plan.b == 3
    stuck = SparseSpectrum(n, {1 << 6: 1.0, 1 << 7: 1.0, 5: -1.0})
    exact = SparseSpectrum(n, {1 << 6: 1.0, 5: -1.0})
    sigma = sigma_for_snr(1.0, 3, 1 << n, snr)
    for variant, sigma, snr in (("nso", sigma, snr), ("noiseless", 0.0, None)):
        offsets = build_offsets(plan_design(variant, plan), plan, rng=np.random.default_rng(0))
        for spectrum, stalled in ((stuck, True), (exact, False)):
            obs = observe(NoisyAccess(spectrum, sigma, np.random.default_rng(1)), plan, offsets)
            cfg = DetectorConfig.for_noise(n, plan.bins, sigma, 1.0, snr, np.abs(obs.data).max())
            recovered, report = decode(obs, plan, offsets, cfg)
            assert (recovered.support() == spectrum.support()) != stalled
            assert report.stalled == stalled, (variant, spectrum.entries)
            stall = references.stall_energy(cfg, offsets, 2, plan.bins)
            assert report.stalled == (report.residual_energy > stall)


def test_decode_refuses_observations_of_another_plan():
    n = 12
    spectrum = draw_spectrum(n, 40, 1.0, np.random.default_rng(4))
    plan = build_plan(design("noiseless", n, 40))
    obs, offsets, cfg = _noiseless_setup(spectrum, plan)
    assert plan.bins == 64
    with pytest.raises(PlanError, match=r"shape \(3, 64, 7\).*\(3, 32, 7\)"):
        decode(obs, build_plan(design("noiseless", n, 20)), offsets, cfg)
    nso = build_offsets(plan_design("nso", plan), plan, rng=np.random.default_rng(0))
    with pytest.raises(PlanError, match=rf"\(3, 64, {nso.rows}\)"):
        decode(obs, plan, nso, cfg)
    with pytest.raises(PlanError, match="disagree on n: 12, 13, 12"):
        decode(obs, build_plan(design("noiseless", 13, 40)), offsets, cfg)


def test_verify_support_cases():
    a = SparseSpectrum(4, {1: 1.0, 2: -1.0})
    assert verify_support(a, a).support_match and verify_support(a, a).values_match
    missing = SparseSpectrum(4, {1: 1.0})
    assert not verify_support(missing, a).support_match
    flipped = SparseSpectrum(4, {1: 1.0, 2: 1.0})
    check = verify_support(flipped, a)
    assert check.support_match and not check.values_match

    with pytest.raises(ValueError):
        verify_support(SparseSpectrum(3, {}), a)


def test_report_json_round_trip():
    import json

    spectrum = golden_spectrum()
    plan = golden_plan()
    obs, offsets, cfg = _noiseless_setup(spectrum, plan)
    _, report = decode(obs, plan, offsets, cfg)
    parsed = json.loads(report.to_json())
    assert set(parsed) == {"sweeps", "peels", "conflicts", "stalled", "residual_energy", "samples_used",
                           "zero_tons", "multi_tons", "gated", "detector_calls"}
    assert parsed["samples_used"] == obs.distinct_samples


def _coset_enumeration_near_linear(u, j, c, plan, offsets, cfg):
    """Near-linear detection by scoring every coset candidate's signature."""
    rows = offsets.groups[c]
    limit = (1.0 + cfg.gamma) * cfg.nu2
    if np.mean(u * u) <= limit:
        return Detection(ZERO_TON)
    candidates = plan.coset(c, j)
    scores = sign_matrix(candidates, rows) @ u
    best = int(np.argmax(np.abs(scores)))
    k_word, score = int(candidates[best]), float(scores[best])
    if cfg.constellation:
        value = cfg.rho if score >= 0 else -cfg.rho
    else:
        value = score / len(rows)
    resid = u - value * sign_matrix(np.array([k_word], dtype=np.uint64), rows)[0]
    if np.mean(resid * resid) <= limit:
        return Detection(SINGLE_TON, k_word, value)
    return Detection(MULTI_TON)


def _reference_decode(obs, plan, offsets, column_detector, cfg):
    """Peeling that classifies and peels one bin at a time until a sweep
    leaves the recovered spectrum unchanged, or for at most 2 C B + 10
    sweeps; ``cfg`` sets the stall level through ``references.stall_energy``
    and the energy gate's count through ``references.gated``. A group pass
    with a bin that is neither a zero-ton nor gated counts one finder call."""
    data = obs.data.copy()
    c_groups, bins, _ = data.shape
    recovered = {}
    sweeps = peels = conflicts = calls = 0
    kinds = {ZERO_TON: 0, MULTI_TON: 0, "gated": 0}
    level = bin_detect.tested(offsets, cfg)
    pending = [set(range(bins)) for _ in range(c_groups)]
    while sweeps < 2 * c_groups * bins + 10:
        before = dict(recovered)
        for c in range(c_groups):
            todo = sorted(pending[c])
            pending[c].clear()
            candidates = 0
            for j in todo:
                det = column_detector(data[c, j], j, c)
                refused = references.gated(data[c, j], level, cfg)
                kinds["gated"] += refused
                candidates += det.kind != ZERO_TON and not refused
                if det.kind != "single-ton":
                    kinds[det.kind] += 1
                    continue
                k_word, value = det.index, det.value
                conflicts += recovered.get(k_word, 0.0) != 0.0
                total = recovered.get(k_word, 0.0) + value
                if total == 0.0:
                    recovered.pop(k_word, None)
                else:
                    recovered[k_word] = total
                peels += 1
                for c2 in range(c_groups):
                    signs = sign_matrix(np.array([k_word], dtype=np.uint64), offsets.groups[c2])[0]
                    j2 = references.bin_of_loop(plan, c2, k_word)
                    data[c2, j2] -= value * signs
                    pending[c2].add(j2)
            calls += candidates > 0
        sweeps += 1
        if recovered == before:
            break
    residual = float((data * data).mean(axis=2).sum())
    stalled = residual > references.stall_energy(cfg, offsets, c_groups, bins)
    report = DecodeReport(sweeps=sweeps, peels=peels, conflicts=conflicts, stalled=stalled,
                          residual_energy=residual, samples_used=obs.distinct_samples,
                          zero_tons=kinds[ZERO_TON], multi_tons=kinds[MULTI_TON], gated=kinds["gated"],
                          detector_calls=calls)
    return recovered, report


def _column_detector(variant, plan, offsets, cfg):
    """The one-column detector of ``variant``: the old loops, and for
    near-linear the one-column case of the batch."""
    return {
        "noiseless": lambda u, j, c: references.detect_noiseless_loop(u, j, c, plan, offsets, cfg),
        "near-linear": lambda u, j, c: detect_near_linear(u, j, c, plan, offsets, cfg),
        "nso": lambda u, j, c: references.detect_nso_loop(u, j, c, plan, offsets, cfg),
        "so": lambda u, j, c: references.detect_so_loop(u, j, c, plan, offsets, cfg),
    }[variant]


@pytest.mark.parametrize("variant,n,k,snr_db,constellation", [
    ("noiseless", 10, 8, None, True),
    ("near-linear", 12, 16, 5.0, True),
    ("near-linear", 14, 10, 20.0, False),
    ("nso", 12, 10, 5.0, True),
    ("so", 12, 10, 5.0, True),
    # peels that cancel within a sweep
    ("near-linear", 13, 16, 0.0, True),
])
def test_batched_decode_equals_one_bin_at_a_time(variant, n, k, snr_db, constellation):
    recovered_supports = 0
    # near-linear at 0 dB recovers 36 of seeds 0..299; seeds 24 and 28 are two of them
    seeds = range(24, 30) if snr_db == 0.0 else range(6)
    for spectrum, plan, offsets, cfg, obs in seeded_instances(
            variant, n, k, snr_db, constellation, seeds=seeds):
        recovered, report = decode(obs, plan, offsets, cfg)
        expected, expected_report = _reference_decode(obs, plan, offsets,
                                                      _column_detector(variant, plan, offsets, cfg), cfg)
        assert recovered.entries == expected and report == expected_report
        recovered_supports += recovered.support() == spectrum.support()
    assert recovered_supports > 0  # the instances exercise full recoveries, not only stalls


def _assert_same_decode_up_to_sums(report, expected_report, recovered, expected):
    """Equal supports and counts; values within rel 1e-12 and residual
    energy within rel 1e-9, for sums taken in another order."""
    assert recovered.entries == pytest.approx(expected, rel=1e-12)
    assert report.residual_energy == pytest.approx(expected_report.residual_energy, rel=1e-9)
    assert dataclasses.replace(report, residual_energy=0.0) == \
        dataclasses.replace(expected_report, residual_energy=0.0)


def test_nso_continuous_decode_matches_loop():
    # continuous values take the row dot product's value; the batch may sum it in another order
    recovered_supports = 0
    for spectrum, plan, offsets, cfg, obs in seeded_instances(
            "nso", 12, 10, 20.0, False):
        recovered, report = decode(obs, plan, offsets, cfg)
        expected, expected_report = _reference_decode(obs, plan, offsets,
                                                      _column_detector("nso", plan, offsets, cfg), cfg)
        _assert_same_decode_up_to_sums(report, expected_report, recovered, expected)
        recovered_supports += recovered.support() == spectrum.support()
    assert recovered_supports > 0


@pytest.mark.parametrize("n,k,snr_db,constellation", [
    (12, 16, 5.0, True),
    (14, 10, 20.0, False),
    (16, 32, 10.0, True),
])
def test_near_linear_decode_matches_coset_enumeration(n, k, snr_db, constellation):
    # The coset transform sums in another order than the signature matmul,
    # so estimated values and the residual may differ in the last bits.
    recovered_supports = 0
    for spectrum, plan, offsets, cfg, obs in seeded_instances(
            "near-linear", n, k, snr_db, constellation, seeds=range(4)):
        recovered, report = decode(obs, plan, offsets, cfg)
        enumerate_cosets = lambda u, j, c: _coset_enumeration_near_linear(u, j, c, plan, offsets, cfg)
        expected, expected_report = _reference_decode(obs, plan, offsets, enumerate_cosets, cfg)
        _assert_same_decode_up_to_sums(report, expected_report, recovered, expected)
        recovered_supports += recovered.support() == spectrum.support()
    assert recovered_supports > 0


@pytest.mark.parametrize("variant,n,k,snr_db,constellation,random", [
    ("noiseless", 10, 8, None, True, False),
    ("noiseless", 10, 8, None, False, True),
    ("nso", 12, 10, 5.0, True, False),
    ("nso", 12, 10, 20.0, False, True),
    ("nso", 12, 10, None, True, True),
    ("so", 12, 10, 5.0, True, False),
    ("so", 12, 10, 5.0, True, True),
    ("so", 12, 10, None, False, False),
    ("near-linear", 12, 16, 5.0, True, False),
    ("near-linear", 13, 16, 0.0, True, True),
    ("near-linear", 14, 10, 20.0, False, False),
])
def test_energy_gate_changes_no_decision(variant, n, k, snr_db, constellation, random):
    # the decode that sends every bin above the level to the detector, the
    # ones the gate refuses included, recovers the same spectrum with the
    # same report; the gate moves multi-tons from the detector to itself
    gated = 0
    for _, plan, offsets, cfg, obs in seeded_instances(variant, n, k, snr_db, constellation, random=random):
        recovered, report = decode(obs, plan, offsets, cfg)
        expected, expected_report = references.decode_untriaged(obs, plan, offsets, cfg)
        assert recovered.entries == expected
        assert dataclasses.replace(report, gated=0, detector_calls=expected_report.detector_calls) == expected_report
        assert report.detector_calls <= expected_report.detector_calls
        assert report.gated <= report.multi_tons
        gated += report.gated
    # continuous values get no gate
    assert (gated > 0) == constellation
