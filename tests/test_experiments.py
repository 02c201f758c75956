import dataclasses
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsewht import NoisyAccess, draw_spectrum, frontend, peeling
from sparsewht.experiments import (
    SCALING_COLUMNS,
    SNR_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TrialResult,
    noise_sigma,
    nominal_sample_count,
    recover,
    run_scaling_sweep,
    run_snr_sweep,
    run_trial,
    write_csv,
)
from sparsewht.frontend import build_offsets, build_plan, design, observe
from sparsewht.peeling import DecodeReport, verify_support
from sparsewht.sketch import CutQueryAccess, sketch_recover

from helpers import random_disjoint_hypergraph


def test_nominal_formulas_exact():
    # the design, the sweeps' count and observe's count each equal the closed form C B P
    zeros = lambda words: np.zeros(len(words))
    for n in range(7, 18):
        for k in (10, 20, 40):
            bins = 1 << int(np.ceil(np.log2(k)))
            closed_forms = {"noiseless": 3 * bins * (n + 1), "near-linear": 3 * 3 * bins * n,
                            "nso": 2 * 3 * bins * n * n, "so": 4 * 3 * bins * n}
            for variant, count in closed_forms.items():
                d = design(variant, n, k)
                plan = build_plan(d)
                obs = observe(CutQueryAccess(zeros, n=n), plan, build_offsets(d, plan, rng=0))
                assert (d.nominal_samples, nominal_sample_count(variant, n, k), obs.nominal_samples) == (count,) * 3


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="bogus").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nonsense": 1})
    cfg = ExperimentConfig.from_dict({"algorithm": "nso", "n_values": [10], "k_values": [4]})
    assert cfg.n_values == (10,)
    # one value each, derived or fixed in the library: not config keys
    for key, value in (("decode_rounds", 0), ("p1", 1), ("gamma", 1e-3), ("profile", "theory"), ("rho", 2.0),
                       ("success_threshold", 1.0)):
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict({key: value})


@pytest.mark.parametrize("field, value", [
    ("decode_rounds", -1),
    ("p1", -3),
    ("p1", 0),
    ("gamma", -1.0),
    ("gamma", 0.0),
    ("success_threshold", 7.0),
    ("success_threshold", 0.0),
    # fixed row counts, not settings: NSO modulates by the unit offsets,
    # SO reads one zero-offset row and the 2n rows of its rate-1/2 code
    ("p2", 12),
    ("p3", 24),
])
def test_config_rejects_bad_setting(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict({field: value})


@pytest.mark.parametrize("field", ["n_values", "k_values"])
@pytest.mark.parametrize("values", [(), (12.0,), (12, "3"), (0,), (True,)], ids=["empty", "float", "str", "zero", "bool"])
def test_config_rejects_sizes_that_are_not_positive_integers(field, values):
    with pytest.raises(ConfigError, match=f"{field} must list one or more positive integers"):
        ExperimentConfig(**{field: values}).validate()


def test_trial_nominal_matches_formula():
    cfg = ExperimentConfig(algorithm="nso", trials=1)
    r = run_trial(cfg, 10, 8, 10.0, 0)
    assert r.samples_nominal == nominal_sample_count("nso", 10, 8)
    assert r.samples_distinct <= (1 << 10)


def test_near_linear_full_pipeline():
    # K=16 gives b=4, so the three windows cover all twelve positions
    cfg = ExperimentConfig(algorithm="near-linear", trials=1, seed=11)
    hits = sum(run_trial(cfg, 12, 16, 15.0, t).support_ok for t in range(10))
    assert hits >= 9


# NSO stores 2n (1 + n - b) rows per group: a small K keeps each example near 50 ms
@settings(max_examples=30, deadline=None)
@given(variant=st.sampled_from(["noiseless", "nso", "so"]), n=st.integers(25, 63), k=st.integers(1, 6),
       seed=st.integers(0, 2**32 - 1), constellation=st.booleans())
@example(variant="noiseless", n=60, k=6, seed=0, constellation=True)  # the round-off tolerance once outgrew a single-ton
@example(variant="noiseless", n=63, k=3, seed=1, constellation=True)
@example(variant="noiseless", n=63, k=3, seed=1, constellation=False)
def test_noise_free_recover_is_exact_or_flagged(variant, n, k, seed, constellation):
    # continuous values take the least-squares value, the mean of s.u
    rng = np.random.default_rng(seed)
    spectrum = draw_spectrum(n, k, 1.0, rng, constellation=constellation)
    recovered, report, _, _ = recover(NoisyAccess(spectrum, 0.0, rng), k, variant, snr_db=None, rho=1.0,
                                      constellation=constellation, rng_offsets=rng)
    assert verify_support(recovered, spectrum).values_match or report.stalled


@settings(max_examples=100, deadline=None)
@given(n=st.integers(8, 16), k=st.integers(1, 24), snr_db=st.floats(-5.0, 40.0), seed=st.integers(0, 2**32 - 1),
       constellation=st.booleans())
# both leave a residual under C B (1 + gamma) nu^2: only the round-off level flags them
@example(n=8, k=1, snr_db=0.0, seed=0, constellation=False)
@example(n=15, k=1, snr_db=3.34, seed=2650, constellation=False)
def test_noiseless_under_noise_fails_loudly(n, k, snr_db, seed, constellation):
    # the noiseless layout tests its bins at round-off: under noise no bin
    # passes, so nothing is peeled and no wrong coefficient is returned, and
    # the stall flag, at the same level, sees the noise left in the bins
    rng = np.random.default_rng(seed)
    spectrum = draw_spectrum(n, k, 1.0, rng, constellation=constellation)
    access = NoisyAccess(spectrum, noise_sigma(1.0, k, n, snr_db), rng)
    recovered, report, _, _ = recover(access, k, "noiseless", snr_db=snr_db, rho=1.0,
                                      constellation=constellation, rng_offsets=rng)
    assert report.peels == 0 and not recovered.entries
    assert verify_support(recovered, spectrum).support_match or report.stalled


# (support_ok, values_ok, samples_distinct, samples_nominal, sweeps, peels, stalled, conflicts)
# of trials 0..4 at seed 5, n=12, K=10, 10 dB (noiseless: noise-free)
PINNED_TRIALS = {
    "noiseless": [(True, True, 358, 624, 2, 10, False, 0)] * 5,
    "near-linear": [(True, True, 1398, 1728, 2, 10, False, 0), (True, True, 1406, 1728, 2, 10, False, 0),
                    (True, True, 1414, 1728, 2, 10, False, 0), (True, True, 1450, 1728, 2, 10, False, 0),
                    (True, True, 1434, 1728, 2, 10, False, 0)],
    "nso": [(True, True, 3789, 13824, 2, 10, False, 0), (True, True, 3796, 13824, 2, 10, False, 0),
            (True, True, 3810, 13824, 2, 10, False, 0), (True, True, 3808, 13824, 2, 10, False, 0),
            (True, True, 3852, 13824, 2, 10, False, 0)],
    "so": [(True, True, 1292, 2304, 2, 10, False, 0), (True, True, 1265, 2304, 2, 10, False, 0),
           (True, True, 1255, 2304, 2, 10, False, 0), (True, True, 1234, 2304, 2, 10, False, 0),
           (True, True, 1231, 2304, 2, 10, False, 0)],
}


@pytest.mark.parametrize("algorithm", sorted(PINNED_TRIALS))
def test_seeded_trials_pinned(algorithm):
    cfg = ExperimentConfig(algorithm=algorithm, seed=5)
    snr_db = None if algorithm == "noiseless" else 10.0
    got = []
    for t in range(5):
        r = run_trial(cfg, 12, 10, snr_db, t)
        got.append((r.support_ok, r.values_ok, r.samples_distinct, r.samples_nominal,
                    r.sweeps, r.peels, r.stalled, r.conflicts))
    assert got == PINNED_TRIALS[algorithm]


def test_recover_draws_the_noise_of_the_read_before_observing(monkeypatch):
    # SO at (17, 40, 10 dB): recover draws noise at exactly the positions
    # observe reads, before observe, whose read then draws nothing
    n, k, snr_db = 17, 40, 10.0
    rng = np.random.default_rng(19)
    access = NoisyAccess(draw_spectrum(n, k, 1.0, rng), noise_sigma(1.0, k, n, snr_db), rng)
    seen = []
    observe = frontend.observe

    def drawn():
        return int(np.count_nonzero(~np.isnan(access._noise)))

    def recording_observe(*args):
        before = drawn(), access._rng.bit_generator.state
        obs = observe(*args)
        seen.append((before, (drawn(), access._rng.bit_generator.state)))
        return obs

    monkeypatch.setattr(frontend, "observe", recording_observe)
    _, _, obs, _ = recover(access, k, "so", snr_db=snr_db, rho=1.0, rng_offsets=np.random.default_rng(20))
    assert drawn() == access.samples_queried == obs.distinct_samples < (1 << n) // 10
    ((before, after),) = seen
    assert before == after


# (support_ok, stalled, samples_distinct) of NSO trials 0..9 at seed 77, a
# slice of the low-SNR set; a change to the offset layout keeps each decision
NSO_SEED77 = {
    (12, 10, 0.0): [(True, False, 3823), (True, False, 3773), (True, False, 3764), (True, False, 3790),
                    (True, False, 3875), (True, False, 3774), (True, False, 3738), (True, False, 3659),
                    (True, False, 3833), (True, False, 3761)],
    # trial 3 recovers only when each code bit sums its base correlations
    (13, 16, 0.0): [(True, False, 6490), (True, False, 6322), (True, False, 6368), (True, False, 6621),
                    (True, False, 6444), (True, False, 6314), (True, False, 6390), (True, False, 6406),
                    (True, False, 6445), (True, False, 6317)],
    (17, 40, 3.0): [(True, False, 57806), (True, False, 58285), (True, False, 59335), (True, False, 57811),
                    (True, False, 58805), (True, False, 59649), (True, False, 58847), (True, False, 59282),
                    (True, False, 59496), (True, False, 59053)],
}


@pytest.mark.parametrize("n,k,snr_db", sorted(NSO_SEED77))
def test_nso_low_snr_decisions_pinned(n, k, snr_db):
    cfg = ExperimentConfig(algorithm="nso", seed=77)
    got = [run_trial(cfg, n, k, snr_db, t) for t in range(10)]
    assert [(r.support_ok, r.stalled, r.samples_distinct) for r in got] == NSO_SEED77[(n, k, snr_db)]


# the same for SO, whose low-SNR failures are mostly LDPC words that do not
# decode; each word takes the b bits its bin gives from the bin index, not
# from in-window rows. Trials 1 and 9 at (12, 10) and trials 0, 1, 2, 4 and
# 8 at (17, 40) are wrong, not stalled
SO_SEED77 = {
    (12, 10, 0.0): [(False, True, 1230), (False, False, 1286), (False, True, 1252), (False, True, 1243),
                    (False, True, 1275), (True, False, 1281), (False, True, 1210), (False, True, 1261),
                    (False, True, 1259), (False, False, 1298)],
    (17, 40, 3.0): [(False, False, 8436), (False, False, 8458), (False, False, 8459), (True, False, 8436),
                    (False, False, 8337), (True, False, 8453), (True, False, 8430), (True, False, 8456),
                    (False, False, 8313), (True, False, 8467)],
}


@pytest.mark.parametrize("n,k,snr_db", sorted(SO_SEED77))
def test_so_low_snr_decisions_pinned(n, k, snr_db):
    cfg = ExperimentConfig(algorithm="so", seed=77)
    got = [run_trial(cfg, n, k, snr_db, t) for t in range(10)]
    assert [(r.support_ok, r.stalled, r.samples_distinct) for r in got] == SO_SEED77[(n, k, snr_db)]


def test_snr_sweep_counts_each_failure_as_flagged_or_silent():
    # the row of SO's pinned (12, 10, 0 dB) trials: a wrong support is
    # flagged when the decode stalled and silent when it did not, and a
    # stall on the right support is a false alarm
    pinned = SO_SEED77[(12, 10, 0.0)]
    cfg = ExperimentConfig(algorithm="so", n_values=(12,), k_values=(10,), snr_db_values=(0.0,), trials=10, seed=77)
    (row,) = run_snr_sweep(cfg)
    samples = float(np.mean([s for _, _, s in pinned]))
    expected = {"trials": 10, "successes": sum(ok for ok, _, _ in pinned),
                "flagged": sum(not ok and stalled for ok, stalled, _ in pinned),
                "silent": sum(not (ok or stalled) for ok, stalled, _ in pinned),
                "false_alarms": sum(ok and stalled for ok, stalled, _ in pinned),
                "samples": samples, "samples_fraction": samples / 2**12}
    assert {key: row[key] for key in expected} == expected
    assert (expected["flagged"], expected["silent"]) == (7, 2)


def test_trial_record_is_the_decode_report_plus_the_truth(monkeypatch):
    # every DecodeReport field, first and in its order, with the value decode returned
    reports = []
    original = peeling.decode

    def decode_and_keep(*args, **kwargs):
        result = original(*args, **kwargs)
        reports.append(result[1])
        return result

    monkeypatch.setattr(peeling, "decode", decode_and_keep)
    r = run_trial(ExperimentConfig(algorithm="so", seed=77), 12, 10, 0.0, 0)
    decode_fields = [f.name for f in dataclasses.fields(DecodeReport)]
    assert [f.name for f in dataclasses.fields(TrialResult)][:len(decode_fields)] == decode_fields
    assert len(reports) == 1 and {f: getattr(r, f) for f in decode_fields} == dataclasses.asdict(reports[0])
    assert r.samples_distinct == r.samples_used and (r.support_ok, r.stalled) == SO_SEED77[(12, 10, 0.0)][0][:2]


# the seed-77 low-SNR set: seven (n, K, SNR) points, trials 0..59 each
SEED77_POINTS = [(12, 10, 0.0), (14, 20, 1.0), (15, 30, 2.0), (13, 16, 0.0), (16, 32, 2.0), (17, 40, 3.0),
                 (12, 16, 1.0)]


def test_so_seed77_set_pinned():
    # every SO decision on the set, as the first 16 hex of the sha256 of the
    # per-trial tuples' repr (373 failed, 96 of them not stalled); a change
    # to bit flipping that moves any word's decision moves some tuple.
    # Recorded where each group stores the systematic rows at its free bits
    # and every parity row, code_for(13)'s weight-1 row e_10 included
    cfg = ExperimentConfig(algorithm="so", seed=77)
    got = [(r.support_ok, r.stalled, r.samples_distinct, r.sweeps, r.peels, r.conflicts, r.samples_nominal)
           for r in (run_trial(cfg, n, k, snr_db, t) for n, k, snr_db in SEED77_POINTS for t in range(60))]
    assert (sum(not r[0] for r in got), sum(not (r[0] or r[1]) for r in got)) == (373, 96)
    assert hashlib.sha256(repr(got).encode()).hexdigest()[:16] == "9c84c6a0f6d01105"


# (support_ok, stalled, samples_distinct, peels) of near-linear trials at the
# benchmark's shape, n=16, K=32: trials 60..89 at 10 dB and seed 3, where
# trials 66 and 81 stop at 30 peels on a stopping pair, and trials 0..9 at
# 2 dB and seed 77, where ghost peels make near-ties in the coset search
# likeliest (trials 1, 2, 3, 6 and 9 peel 34 to 38 and still hold the
# support; trial 8 stops at 30 peels, not stalled)
NEARLINEAR_SEEDED = {
    (3, 10.0, 60): [(True, False, 4470, 32), (True, False, 4507, 32), (True, False, 4392, 32), (True, False, 4422, 32),
                    (True, False, 4410, 32), (True, False, 4505, 32), (False, False, 4410, 30), (True, False, 4414, 32),
                    (True, False, 4480, 32), (True, False, 4472, 32), (True, False, 4464, 32), (True, False, 4479, 32),
                    (True, False, 4508, 32), (True, False, 4417, 32), (True, False, 4399, 32), (True, False, 4519, 32),
                    (True, False, 4476, 32), (True, False, 4469, 32), (True, False, 4408, 32), (True, False, 4493, 32),
                    (True, False, 4460, 32), (False, False, 4358, 30), (True, False, 4436, 32), (True, False, 4444, 32),
                    (True, False, 4477, 32), (True, False, 4505, 32), (True, False, 4489, 32), (True, False, 4467, 32),
                    (True, False, 4477, 32), (True, False, 4409, 32)],
    (77, 2.0, 0): [(True, False, 4487, 32), (True, False, 4431, 38), (True, False, 4439, 34), (True, False, 4461, 36),
                   (True, False, 4489, 32), (True, False, 4490, 32), (True, False, 4469, 36), (True, False, 4458, 32),
                   (False, False, 4443, 30), (True, False, 4374, 36)],
}


@pytest.mark.parametrize("seed,snr_db,first", sorted(NEARLINEAR_SEEDED))
def test_near_linear_decisions_pinned(seed, snr_db, first):
    cfg = ExperimentConfig(algorithm="near-linear", seed=seed)
    expected = NEARLINEAR_SEEDED[(seed, snr_db, first)]
    got = [run_trial(cfg, 16, 32, snr_db, t) for t in range(first, first + len(expected))]
    assert [(r.support_ok, r.stalled, r.samples_distinct, r.peels) for r in got] == expected


# finder calls summed over trials 0..99 at seed 3 and 10 dB, at the
# benchmark's shapes: a group pass calls its variant's finder once when
# the energy triage leaves it a candidate bin, and not at all otherwise
DETECTOR_CALLS = {("so", 17, 40): 307, ("nso", 17, 40): 307, ("near-linear", 16, 32): 393}


@pytest.mark.parametrize("algorithm,n,k", sorted(DETECTOR_CALLS))
def test_detector_calls_pinned(algorithm, n, k):
    cfg = ExperimentConfig(algorithm=algorithm, seed=3)
    assert sum(run_trial(cfg, n, k, 10.0, t).detector_calls for t in range(100)) == DETECTOR_CALLS[algorithm, n, k]


@pytest.mark.parametrize("snr_db", [15.0, 30.0])
def test_continuous_nso_recovers_or_flags(snr_db):
    # continuous NSO at (14, 10): trials 43, 78, 145 and 149 recover only
    # when a bin is tested on every row it stores, not on its verify rows
    # alone; trial 89 misses two indices that share their bin in every
    # group (XOR 0x3000), and is flagged
    n, k = 14, 10
    got = {}
    for t in (43, 78, 89, 145, 149):
        rng = np.random.default_rng(t)
        spectrum = draw_spectrum(n, k, 1.0, rng, constellation=False)
        access = NoisyAccess(spectrum, noise_sigma(1.0, k, n, snr_db), rng)
        recovered, report, _, _ = recover(access, k, "nso", snr_db=snr_db, rho=1.0, constellation=False,
                                          rng_offsets=rng)
        got[t] = (recovered.support() == spectrum.support(), report.stalled)
    assert got == {43: (True, False), 78: (True, False), 89: (False, True), 145: (True, False), 149: (True, False)}


# (spectrum, queries, (sweeps, peels, conflicts, stalled, residual_energy, samples_used), partial)
# of sketch_recover on 3 disjoint edges of sizes 2..4 over n=20 vertices, seeds 0..4, budget 8
PINNED_SKETCHES = [
    ({68: -0.25, 2050: -0.25, 2056: -0.25, 4160: -0.25},
     398, (3, 4, 0, True, 15684949.333333332, 398), True),
    ({0: 2.375, 66: -0.25, 2050: -0.25, 2112: -0.25, 4224: -0.25, 32896: -0.25, 36864: -0.25,
      65540: -0.125, 131076: -0.125, 196608: -0.125, 524292: -0.125, 589824: -0.125, 655360: -0.125,
      720900: -0.125},
     399, (2, 14, 0, False, 0.0, 399), False),
    ({0: 1.875, 66: -0.5, 16640: -0.125, 65664: -0.5, 262400: -0.125, 278528: -0.125,
      524544: -0.125, 540672: -0.125, 786432: -0.125, 803072: -0.125},
     398, (2, 10, 0, False, 0.0, 398), False),
    ({40960: -0.5, 524296: -0.5},
     398, (2, 2, 0, True, 9349802.666666666, 398), True),
    ({160: -0.125, 384: -0.125, 513: -0.125, 8320: -0.125, 8608: -0.125, 32769: -0.125,
      33280: -0.125, 524289: -0.125, 524800: -0.125, 557056: -0.125},
     397, (3, 10, 0, True, 19966634.666666664, 397), True),
]


@pytest.mark.parametrize("seed", range(5))
def test_seeded_sketches_pinned(seed):
    graph = random_disjoint_hypergraph(20, 3, np.random.default_rng(seed), max_size=4)
    result = sketch_recover(graph, sparsity_budget=8, seed=seed, coeff_resolution=2.0 ** (1 - 4))
    entries, queries, (sweeps, peels, conflicts, stalled, residual, samples), partial = PINNED_SKETCHES[seed]
    report = result.report
    assert result.spectrum.entries == entries
    assert (result.queries, result.partial) == (queries, partial)
    assert (report.sweeps, report.peels, report.conflicts, report.stalled, report.samples_used) == \
        (sweeps, peels, conflicts, stalled, samples)
    assert report.residual_energy == pytest.approx(residual, rel=1e-12)


def test_single_trial_noiseless_deterministic():
    cfg = ExperimentConfig(algorithm="noiseless", trials=1, seed=5)
    a = run_trial(cfg, 10, 6, None, 0)
    b = run_trial(cfg, 10, 6, None, 0)
    assert a.support_ok == b.support_ok
    assert a.support_ok in (True, False)
    assert a.samples_distinct == b.samples_distinct


def test_snr_sweep_rows_and_determinism(tmp_path):
    cfg = ExperimentConfig(algorithm="nso", n_values=(10,), k_values=(4,),
                           snr_db_values=(10.0,), trials=3, seed=7)
    rows1 = run_snr_sweep(cfg)
    rows2 = run_snr_sweep(cfg)
    assert [set(r) for r in rows1] == [set(SNR_COLUMNS)] * len(rows1)
    strip = lambda rows: [{k: v for k, v in r.items() if "runtime" not in k} for r in rows]
    assert strip(rows1) == strip(rows2)
    path = tmp_path / "out.csv"
    write_csv(path, rows1, SNR_COLUMNS)
    header, line = path.read_text().splitlines()[:2]
    assert header == ",".join(SNR_COLUMNS)
    assert line.split(",")[0] == "10"


# with SO each worker process builds its own code for n, which must equal this process's
@pytest.mark.parametrize("algorithm", ["noiseless", "so"])
def test_workers_do_not_change_results(algorithm):
    base = ExperimentConfig(algorithm=algorithm, n_values=(9,), k_values=(4,),
                            snr_db_values=(), trials=4, seed=3)
    seq = run_snr_sweep(base)
    par = run_snr_sweep(ExperimentConfig(**{**base.__dict__, "workers": 2}))
    strip = lambda rows: [{k: v for k, v in r.items() if "runtime" not in k} for r in rows]
    assert strip(seq) == strip(par)


def test_scaling_sweep_rows():
    cfg = ExperimentConfig(algorithm="so", n_values=(9, 10), k_values=(4,),
                           snr_db_values=(10.0,), trials=2, seed=1)
    rows = run_scaling_sweep(cfg)
    assert len(rows) == 2
    for row in rows:
        assert set(row) == set(SCALING_COLUMNS)
        assert row["nominal_samples"] == nominal_sample_count("so", row["n"], 4)


def test_csv_round_trip(tmp_path):
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": -1.0}]
    path = tmp_path / "x.csv"
    write_csv(path, rows, ("a", "b"))
    lines = path.read_text().splitlines()
    parsed = [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]
    assert [(int(r["a"]), float(r["b"])) for r in parsed] == [(1, 2.5), (3, -1.0)]


def test_readme_library_example_runs(tmp_path):
    root = Path(__file__).resolve().parents[1]
    (block,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(encoding="utf-8"), re.S)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("True DecodeReport(")
