"""Seeded Monte-Carlo sweeps: success-vs-SNR curves and scaling runs.

``recover`` is the one recovery pipeline, with thresholds derived from
the noise level: ``sketch.sketch_recover`` runs it on a random plan,
``recover_known`` on the window plan for a known spectrum. That is the
one trial of ``run_trial`` and the ``recover`` command; its
``TrialResult`` is the ``DecodeReport`` plus what only the truth tells.
A trial draws a +/-1 spectrum, noise and offsets from streams of (seed, trial
index); ``frontend.design`` fixes the rest from (algorithm, n, K). So
results are reproducible and independent of how trials are distributed
over workers. The noise is drawn at the positions the design reads, so
two variants at one (seed, trial) share the spectrum but not the noise.
Runtime covers observing and decoding only. Both sweeps count their
trials in one ``_summary``: a failure is flagged when the decode
stalled, else silent.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import codes, frontend, peeling
from .bin_detect import DetectorConfig
from .signal_model import NoisyAccess, draw_spectrum, sigma_for_snr, snr_from_db

SUMMARY_COLUMNS = ("trials", "successes", "success_rate", "flagged", "silent", "false_alarms", "samples",
                   "samples_fraction", "runtime_ns")
SNR_COLUMNS = ("n", "K", "snr_db", "algorithm", *SUMMARY_COLUMNS)
SCALING_COLUMNS = ("n", "K", "algorithm", *SUMMARY_COLUMNS, "nominal_samples", "meets_threshold")
SUCCESS_THRESHOLD = 0.95  # a scaling row meets the threshold when its success rate reaches this


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    algorithm: str = "nso"
    n_values: tuple = (14,)
    k_values: tuple = (10,)
    snr_db_values: tuple = (10.0,)  # an entry of None means noise-free
    trials: int = 200
    seed: int = 0
    workers: int = 1

    def validate(self) -> "ExperimentConfig":
        for name, low in (("trials", 1), ("seed", 0), ("workers", 1)):
            value = getattr(self, name)
            # type(), not isinstance(): a JSON true or false is a bool, an int subclass
            if not (type(value) is int and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not all(v is None or (type(v) in (int, float) and math.isfinite(v)) for v in self.snr_db_values or ()):
            raise ConfigError(f"snr_db_values must be finite numbers or null, got {list(self.snr_db_values)}")
        if self.algorithm not in frontend.VARIANTS:
            raise ConfigError(f"algorithm must be one of {frontend.VARIANTS}")
        for name in ("n_values", "k_values"):
            values = getattr(self, name)
            if not values or not all(type(v) is int and v >= 1 for v in values):
                raise ConfigError(f"{name} must list one or more positive integers, got {values!r}")
        if self.algorithm == "so" and min(self.n_values) < codes.MIN_INFO_BITS:
            raise ConfigError(f"n_values must be >= {codes.MIN_INFO_BITS} for so, got {list(self.n_values)}")
        return self

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        clean = dict(raw)
        for key in ("n_values", "k_values", "snr_db_values"):
            if key in clean and clean[key] is not None:
                if not isinstance(clean[key], (list, tuple)):
                    raise ConfigError(f"{key} must be a list, got {clean[key]!r}")
                clean[key] = tuple(clean[key])
        return cls(**clean).validate()


@dataclass
class TrialResult(peeling.DecodeReport):
    """A decode of a known spectrum: every ``DecodeReport`` field, then the
    truth check (``support_ok``, ``values_ok``) and the cost (``runtime_ns``,
    ``samples_nominal``; ``samples_distinct`` is ``samples_used``)."""
    support_ok: bool = False
    values_ok: bool = False
    runtime_ns: int = 0
    samples_nominal: int = 0
    samples_distinct = property(lambda self: self.samples_used)


def nominal_sample_count(algorithm: str, n: int, k: int) -> int:
    """The sample-cost formula value C B P of ``recover``'s design."""
    return frontend.design(algorithm, n, k).nominal_samples


def noise_sigma(rho: float, k: int, n: int, snr_db: float | None) -> float:
    """Sample noise sigma of a K-sparse amplitude-rho spectrum over 2^n
    points at ``snr_db``; 0 when ``snr_db`` is None (noise-free)."""
    if snr_db is None:
        return 0.0
    return sigma_for_snr(rho, k, 1 << n, snr_from_db(snr_db))


def recover(access, k: int, algorithm: str, *, snr_db: float | None, rho: float,
            constellation: bool = True, rng_offsets, plan=None):
    """Hash, classify and peel a K-sparse spectrum read through ``access``.

    ``frontend.design(algorithm, n, K)`` fixes every design number;
    ``plan`` defaults to its window plan.
    ``DetectorConfig.for_noise`` derives every threshold, the stall level
    included, from the noise level of amplitude ``rho`` at ``snr_db``
    (None: noise-free) and the round-off tolerance from the largest
    observed |value|. ``constellation`` says whether every coefficient
    is +/-``rho`` or the values are continuous. An ``access`` with a
    ``prepare(cols, rows)`` (``NoisyAccess``) draws the noise of
    ``observe``'s read as part of the set-up. Returns ``(spectrum,
    report, obs, runtime_ns)``; ``runtime_ns`` times observing and
    decoding only, not the set-up.
    """
    n = access.n
    design = frontend.design(algorithm, n, max(k, 1))
    if plan is None:
        plan = frontend.build_plan(design)
    offsets = frontend.build_offsets(design, plan, rng=rng_offsets)
    if hasattr(access, "prepare"):
        access.prepare(plan.col_words, offsets.groups)

    t0 = time.perf_counter_ns()
    obs = frontend.observe(access, plan, offsets)
    cfg = DetectorConfig.for_noise(n, plan.bins, noise_sigma(rho, k, n, snr_db), rho,
                                   None if snr_db is None else snr_from_db(snr_db),
                                   float(max(obs.data.max(), -obs.data.min())), constellation)
    recovered, report = peeling.decode(obs, plan, offsets, cfg)
    return recovered, report, obs, time.perf_counter_ns() - t0


def recover_known(truth, algorithm: str, snr_db: float | None, rng_noise, rng_offsets, rho: float = 1.0,
                  constellation: bool = True):
    """``recover`` of ``truth`` read through a ``NoisyAccess`` at ``snr_db``
    (None: noise-free), then one ``peeling.verify_support``. Returns
    ``(recovered, TrialResult)``; ``runtime_ns`` excludes the noise draw."""
    access = NoisyAccess(truth, noise_sigma(rho, truth.sparsity, truth.n, snr_db), rng_noise)
    recovered, report, obs, runtime_ns = recover(access, truth.sparsity, algorithm, snr_db=snr_db, rho=rho,
                                                 constellation=constellation, rng_offsets=rng_offsets)
    check = peeling.verify_support(recovered, truth)
    return recovered, TrialResult(**vars(report), support_ok=check.support_match, values_ok=check.values_match,
                                  runtime_ns=runtime_ns, samples_nominal=obs.nominal_samples)


def run_trial(config: ExperimentConfig, n: int, k: int, snr_db: float | None, trial: int) -> TrialResult:
    """One seeded trial: draw a K-sparse +/-1 spectrum, then
    ``recover_known`` it (SO's code depends on n alone)."""
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(n, k, trial))
    rng_spec, rng_noise, rng_offsets = (np.random.default_rng(s) for s in ss.spawn(3))
    return recover_known(draw_spectrum(n, k, 1.0, rng_spec), config.algorithm, snr_db, rng_noise, rng_offsets)[1]


def _trial_star(args):
    return run_trial(*args)


def _run_trials(config: ExperimentConfig, n: int, k: int, snr_db: float | None) -> list:
    jobs = [(config, n, k, snr_db, t) for t in range(config.trials)]
    if config.workers <= 1:
        return [run_trial(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_trial_star, jobs))


def _summary(results: list, n: int) -> dict:
    """The ``SUMMARY_COLUMNS`` of trials at one n: a false alarm is a stall
    on the right support; ``samples`` is the mean of the distinct samples
    and ``samples_fraction`` that mean over 2^n."""
    wrong_stalled = [(not r.support_ok, r.stalled) for r in results]
    successes = sum(r.support_ok for r in results)
    samples = float(np.mean([r.samples_distinct for r in results]))
    return {
        "trials": len(results),
        "successes": successes,
        "success_rate": successes / len(results),
        "flagged": wrong_stalled.count((True, True)),
        "silent": wrong_stalled.count((True, False)),
        "false_alarms": wrong_stalled.count((False, True)),
        "samples": samples,
        "samples_fraction": samples / (1 << n),
        "runtime_ns": float(np.mean([r.runtime_ns for r in results])),
    }


def run_snr_sweep(config: ExperimentConfig) -> list:
    """``SNR_COLUMNS`` rows over the (n, K, SNR) grid."""
    config.validate()
    return [{"n": n, "K": k, "snr_db": "" if snr_db is None else snr_db, "algorithm": config.algorithm,
             **_summary(_run_trials(config, n, k, snr_db), n)}
            for n in config.n_values for k in config.k_values for snr_db in config.snr_db_values or (None,)]


def run_scaling_sweep(config: ExperimentConfig) -> list:
    """``SCALING_COLUMNS`` rows over ``config.n_values`` at fixed K and one
    SNR (None or no value: noise-free), flagging points below
    ``SUCCESS_THRESHOLD``; nominal counts come from the cost formulas."""
    config.validate()
    snr_db, *more = config.snr_db_values or (None,)
    if more:
        raise ConfigError(f"snr_db_values: a scaling sweep runs at one SNR, got {list(config.snr_db_values)}")
    rows = []
    for k in config.k_values:
        for n in config.n_values:
            row = {"n": n, "K": k, "algorithm": config.algorithm, **_summary(_run_trials(config, n, k, snr_db), n),
                   "nominal_samples": nominal_sample_count(config.algorithm, n, k)}
            row["meets_threshold"] = int(row["success_rate"] >= SUCCESS_THRESHOLD)
            rows.append(row)
    return rows


def write_csv(path, rows: list, columns: tuple) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")
