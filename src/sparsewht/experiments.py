"""Seeded Monte-Carlo sweeps: success-vs-SNR curves and scaling runs.

``recover`` is the one recovery pipeline, with thresholds derived from
the noise level: the trials here and the ``recover`` command run it on
the window plan, ``sketch.sketch_recover`` on a random plan. A trial
draws a +/-1 spectrum and derives its own generator streams from (seed,
trial index), so results are reproducible and independent of how trials
are distributed over workers. Runtime covers observing and decoding
only, not drawing the spectrum and the noise realization.
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

SNR_COLUMNS = ("n", "K", "snr_db", "algorithm", "trials", "successes", "success_rate",
               "mean_samples", "mean_runtime_ns")
SCALING_COLUMNS = ("n", "K", "algorithm", "success_rate", "samples", "nominal_samples",
                   "runtime_ns", "meets_threshold")


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
    success_threshold: float = 0.95
    workers: int = 1

    def validate(self) -> "ExperimentConfig":
        for name, low in (("trials", 1), ("seed", 0), ("workers", 1)):
            value = getattr(self, name)
            # type(), not isinstance(): a JSON true or false is a bool, an int subclass
            if not (type(value) is int and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (type(self.success_threshold) in (int, float) and 0 < self.success_threshold <= 1):
            raise ConfigError(f"success_threshold must be a number in (0, 1], got {self.success_threshold!r}")
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


@dataclass(frozen=True)
class TrialResult:
    support_ok: bool
    values_ok: bool
    runtime_ns: int
    samples_distinct: int
    samples_nominal: int
    sweeps: int
    peels: int
    stalled: bool
    conflicts: int


def nominal_sample_count(algorithm: str, n: int, k: int) -> int:
    """The sample-cost formula value C B P of ``recover``'s design: C
    groups of B bins from ``frontend.benchmark_shape`` and P offset rows
    per group from ``frontend.nominal_rows``."""
    c_groups, b = frontend.benchmark_shape(k)
    return c_groups * (1 << b) * frontend.nominal_rows(algorithm, n)


def noise_sigma(rho: float, k: int, n: int, snr_db: float | None) -> float:
    """Sample noise sigma of a K-sparse amplitude-rho spectrum over 2^n
    points at ``snr_db``; 0 when ``snr_db`` is None (noise-free)."""
    if snr_db is None:
        return 0.0
    return sigma_for_snr(rho, k, 1 << n, snr_from_db(snr_db))


def recover(access, k: int, algorithm: str, *, snr_db: float | None, rho: float,
            constellation: bool = True, rng_offsets, rng_code, plan=None):
    """Hash, classify and peel a K-sparse spectrum read through ``access``.

    ``plan`` defaults to the window design for K, and the offsets take
    their default row counts. ``DetectorConfig.for_noise`` derives every
    threshold from the noise level of amplitude ``rho`` at ``snr_db``
    (None: noise-free), the stall level included. ``constellation`` says
    whether every coefficient is +/-``rho`` or the values are continuous.
    Returns ``(spectrum, report, obs, runtime_ns)``; ``runtime_ns``
    covers observing and decoding only, not the set-up.
    """
    n = access.n
    if plan is None:
        plan = frontend.build_plan(n, max(k, 1))
    code = codes.build_regular_ldpc(n, rng_code) if algorithm == "so" else None
    offsets = frontend.build_offsets(algorithm, plan, code=code, rng=rng_offsets)
    cfg = DetectorConfig.for_noise(n, plan.bins, noise_sigma(rho, k, n, snr_db), rho,
                                   None if snr_db is None else snr_from_db(snr_db), constellation)

    t0 = time.perf_counter_ns()
    obs = frontend.observe(access, plan, offsets)
    recovered, report = peeling.decode(obs, plan, offsets, cfg, max_iters=2 * k + 10)
    return recovered, report, obs, time.perf_counter_ns() - t0


def run_trial(config: ExperimentConfig, n: int, k: int, snr_db: float | None, trial: int) -> TrialResult:
    """One seeded draw-observe-decode-verify round."""
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(n, k, trial))
    rng_spec, rng_noise, rng_offsets, rng_code = (np.random.default_rng(s) for s in ss.spawn(4))

    spectrum = draw_spectrum(n, k, 1.0, rng_spec)
    access = NoisyAccess(spectrum, noise_sigma(1.0, k, n, snr_db), rng_noise)
    access.prepare()
    recovered, report, obs, runtime_ns = recover(access, k, config.algorithm, snr_db=snr_db, rho=1.0,
                                                 rng_offsets=rng_offsets, rng_code=rng_code)

    check = peeling.verify_support(recovered, spectrum)
    return TrialResult(check.support_match, check.values_match, runtime_ns,
                       obs.distinct_samples, obs.nominal_samples,
                       report.sweeps, report.peels, report.stalled, report.conflicts)


def _trial_star(args):
    return run_trial(*args)


def _run_trials(config: ExperimentConfig, n: int, k: int, snr_db: float | None) -> list:
    jobs = [(config, n, k, snr_db, t) for t in range(config.trials)]
    if config.workers <= 1:
        return [run_trial(*job) for job in jobs]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        return list(pool.map(_trial_star, jobs))


def run_snr_sweep(config: ExperimentConfig) -> list:
    """Success-rate rows over the (n, K, SNR) grid. Fixed column order."""
    config.validate()
    rows = []
    for n in config.n_values:
        for k in config.k_values:
            for snr_db in config.snr_db_values or (None,):
                results = _run_trials(config, n, k, snr_db)
                successes = sum(r.support_ok for r in results)
                rows.append({
                    "n": n,
                    "K": k,
                    "snr_db": "" if snr_db is None else snr_db,
                    "algorithm": config.algorithm,
                    "trials": config.trials,
                    "successes": successes,
                    "success_rate": successes / config.trials,
                    "mean_samples": float(np.mean([r.samples_distinct for r in results])),
                    "mean_runtime_ns": float(np.mean([r.runtime_ns for r in results])),
                })
    return rows


def run_scaling_sweep(config: ExperimentConfig) -> list:
    """Runtime/sample rows over ``config.n_values`` at fixed K and one SNR
    (None or no value: noise-free), flagging points below the success
    threshold; nominal counts come from the cost formulas."""
    config.validate()
    snr_db, *more = config.snr_db_values or (None,)
    if more:
        raise ConfigError(f"snr_db_values: a scaling sweep runs at one SNR, got {list(config.snr_db_values)}")
    rows = []
    for k in config.k_values:
        for n in config.n_values:
            results = _run_trials(config, n, k, snr_db)
            rate = sum(r.support_ok for r in results) / config.trials
            rows.append({
                "n": n,
                "K": k,
                "algorithm": config.algorithm,
                "success_rate": rate,
                "samples": float(np.mean([r.samples_distinct for r in results])),
                "nominal_samples": nominal_sample_count(config.algorithm, n, k),
                "runtime_ns": float(np.mean([r.runtime_ns for r in results])),
                "meets_threshold": int(rate >= config.success_threshold),
            })
    return rows


def write_csv(path, rows: list, columns: tuple) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")
