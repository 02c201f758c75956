import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sparsewht.experiments import (
    SCALING_COLUMNS,
    SNR_COLUMNS,
    ConfigError,
    ExperimentConfig,
    nominal_sample_count,
    run_scaling_sweep,
    run_snr_sweep,
    run_trial,
    write_csv,
)
from sparsewht.sketch import random_disjoint_hypergraph, sketch_recover


def test_nominal_formulas_exact():
    for n in range(7, 18):
        for k in (10, 20, 40):
            bins = 1 << int(np.ceil(np.log2(k)))
            assert nominal_sample_count("nso", n, k) == 2 * 3 * bins * n * n
            assert nominal_sample_count("so", n, k) == 4 * 3 * bins * n
            assert nominal_sample_count("noiseless", n, k) == 3 * bins * (n + 1)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(algorithm="bogus").validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(trials=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nonsense": 1})
    cfg = ExperimentConfig.from_dict({"algorithm": "nso", "n_values": [10], "k_values": [4]})
    assert cfg.n_values == (10,)
    ExperimentConfig.from_dict({"success_threshold": 1.0})
    # one value each, derived or fixed in the library: not config keys
    for key, value in (("decode_rounds", 0), ("p1", 1), ("gamma", 1e-3), ("profile", "theory"), ("rho", 2.0)):
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
    # fixed row counts, not settings: NSO modulates by the n unit offsets,
    # SO reads one zero-offset row and the 2n rows of its rate-1/2 code
    ("p2", 12),
    ("p3", 24),
])
def test_config_rejects_bad_setting(field, value):
    with pytest.raises(ConfigError, match=field):
        ExperimentConfig.from_dict({field: value})


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
    "so": [(True, True, 1255, 2304, 2, 10, False, 0), (True, True, 1272, 2304, 2, 10, False, 0),
           (True, True, 1282, 2304, 2, 10, False, 0), (True, True, 1206, 2304, 2, 10, False, 0),
           (True, True, 1191, 2304, 2, 10, False, 0)],
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


# (spectrum, queries, (sweeps, peels, conflicts, stalled, residual_energy, samples_used), partial)
# of sketch_recover on 3 disjoint edges of sizes 2..4 over n=20 vertices, seeds 0..4, budget 8
PINNED_SKETCHES = [
    ({68: -0.25, 2050: -0.25, 2056: -0.25, 4160: -0.25},
     462, (3, 4, 0, True, 15672466.285714285, 462), True),
    ({0: 2.375, 66: -0.25, 2050: -0.25, 2112: -0.25, 4224: -0.25, 32896: -0.25, 36864: -0.25,
      65540: -0.125, 131076: -0.125, 196608: -0.125, 524292: -0.125, 589824: -0.125, 655360: -0.125,
      720900: -0.125},
     462, (2, 14, 0, False, 0.0, 462), False),
    ({0: 1.875, 66: -0.5, 16640: -0.125, 65664: -0.5, 262400: -0.125, 278528: -0.125,
      524544: -0.125, 540672: -0.125, 786432: -0.125, 803072: -0.125},
     462, (2, 10, 0, False, 0.0, 462), False),
    ({40960: -0.5, 524296: -0.5},
     462, (2, 2, 0, True, 9249938.285714285, 462), True),
    ({160: -0.125, 384: -0.125, 513: -0.125, 8320: -0.125, 8608: -0.125, 32769: -0.125,
      33280: -0.125, 524289: -0.125, 524800: -0.125, 557056: -0.125},
     462, (3, 10, 0, True, 20046214.095238093, 462), True),
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


def test_workers_do_not_change_results():
    base = ExperimentConfig(algorithm="noiseless", n_values=(9,), k_values=(4,),
                            snr_db_values=(), trials=4, seed=3)
    seq = run_snr_sweep(base)
    par = run_snr_sweep(ExperimentConfig(**{**base.__dict__, "workers": 2}))
    strip = lambda rows: [{k: v for k, v in r.items() if "runtime" not in k} for r in rows]
    assert strip(seq) == strip(par)


def test_scaling_sweep_rows():
    cfg = ExperimentConfig(algorithm="so", n_values=(9, 10), k_values=(4,),
                           snr_db_values=(10.0,), trials=2, seed=1,
                           success_threshold=0.95)
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
