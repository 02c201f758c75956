"""Seeded Monte-Carlo sweeps: success-vs-SNR curves and scaling runs.

``recover`` is the one recovery pipeline; the trials here and the
``recover`` command both run it. Every trial derives its own generator
streams from (seed, trial index), so results are reproducible and
independent of how trials are distributed over workers. Runtime covers
observation generation plus decoding only; drawing the spectrum and the
noise realization is excluded.
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
    rho: float = 1.0
    profile: str = "benchmark"
    p1: int | None = None
    gamma: float | None = None
    decode_rounds: int = 30
    workers: int = 1

    def validate(self) -> "ExperimentConfig":
        for name, low in (("trials", 1), ("seed", 0), ("decode_rounds", 0), ("workers", 1), ("p1", 1)):
            value = getattr(self, name)
            # type(), not isinstance(): a JSON true or false is a bool, an int subclass
            if not ((type(value) is int and value >= low) or (name == "p1" and value is None)):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        for name in ("rho", "success_threshold", "gamma"):
            value = getattr(self, name)
            if not (type(value) in (int, float) or (name == "gamma" and value is None)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
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
        if self.profile not in ("benchmark", "theory"):
            raise ConfigError("profile must be 'benchmark' or 'theory'")
        if self.gamma is not None and not self.gamma > 0:
            raise ConfigError("gamma must be > 0 or unset")
        if not 0 < self.success_threshold <= 1:
            raise ConfigError("success_threshold must be in (0, 1]")
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


def nominal_sample_count(algorithm: str, n: int, k: int, c_groups: int = 3, p1: int | None = None) -> int:
    """The configured sample-cost formula value C * B * P_nominal.

    NSO modulates each of its P1 base rows by the n unit offsets; SO
    counts P1 random rows, n zero-offset rows (stored once, see
    ``frontend.OffsetPlan``) and the 2n coded rows.
    """
    bins = 1 << max(1, math.ceil(math.log2(k)))
    if algorithm == "nso":
        return c_groups * bins * (p1 or 2 * n) * n
    if algorithm == "so":
        return c_groups * bins * ((p1 or n) + n + 2 * n)
    if algorithm == "noiseless":
        return c_groups * bins * (n + 1)
    if algorithm == "near-linear":
        return c_groups * bins * (p1 or 3 * n)
    raise ConfigError(f"unknown algorithm {algorithm!r}")


def noise_sigma(rho: float, k: int, n: int, snr_db: float | None) -> float:
    """Sample noise sigma of a K-sparse amplitude-rho spectrum over 2^n
    points at ``snr_db``; 0 when ``snr_db`` is None (noise-free)."""
    if snr_db is None:
        return 0.0
    return sigma_for_snr(rho, k, 1 << n, snr_from_db(snr_db))


def recover(access, k: int, algorithm: str, *, snr_db: float | None, rho: float,
            constellation: bool = True, rng_offsets, rng_code, profile: str = "benchmark",
            p1: int | None = None, gamma: float | None = None, decode_rounds: int = 30):
    """Hash, classify and peel a K-sparse spectrum read through ``access``.

    The detector thresholds follow from the noise level: the per-bin noise
    variance nu^2 = N sigma^2 / B (floored for noise-free runs), the slack
    ``gamma`` (default: centred in its valid window for ``snr_db``) and a
    stall level of C B (1 + gamma) nu^2 of residual energy. ``constellation``
    says whether every coefficient is +/-``rho`` or the values are
    continuous. Returns ``(spectrum, report, obs, runtime_ns)``;
    ``runtime_ns`` covers observing and decoding only, not the set-up.
    """
    n = access.n
    size = 1 << n
    sigma = noise_sigma(rho, k, n, snr_db)
    plan = frontend.build_plan(n, max(k, 1), profile=profile)
    code = codes.build_regular_ldpc(n, rng_code) if algorithm == "so" else None
    offsets = frontend.build_offsets(algorithm, plan, p1=p1, code=code, rng=rng_offsets)

    nu2 = max(size * sigma * sigma / plan.bins, (1e-9 * rho) ** 2)
    if gamma is None:
        gamma = 1.0 if snr_db is None else DetectorConfig.default_gamma(snr_from_db(snr_db))
    cfg = DetectorConfig(gamma=gamma, nu2=nu2, rho=rho, constellation=constellation,
                         zero_tol=1e-9 * math.sqrt(size) * rho, decode_rounds=decode_rounds)
    stall_energy = plan.c_groups * plan.bins * (1.0 + gamma) * nu2

    t0 = time.perf_counter_ns()
    obs = frontend.observe(access, plan, offsets)
    recovered, report = peeling.decode(obs, plan, offsets, cfg,
                                       max_iters=2 * k + 10, stall_energy=stall_energy)
    return recovered, report, obs, time.perf_counter_ns() - t0


def run_trial(config: ExperimentConfig, n: int, k: int, snr_db: float | None, trial: int) -> TrialResult:
    """One seeded draw-observe-decode-verify round."""
    ss = np.random.SeedSequence(entropy=config.seed, spawn_key=(n, k, trial))
    rng_spec, rng_noise, rng_offsets, rng_code = (np.random.default_rng(s) for s in ss.spawn(4))

    spectrum = draw_spectrum(n, k, config.rho, rng_spec)
    access = NoisyAccess(spectrum, noise_sigma(config.rho, k, n, snr_db), rng_noise)
    access.prepare()
    recovered, report, obs, runtime_ns = recover(
        access, k, config.algorithm, snr_db=snr_db, rho=config.rho, rng_offsets=rng_offsets,
        rng_code=rng_code, profile=config.profile, p1=config.p1, gamma=config.gamma,
        decode_rounds=config.decode_rounds)

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
                "nominal_samples": nominal_sample_count(config.algorithm, n, k, p1=config.p1),
                "runtime_ns": float(np.mean([r.runtime_ns for r in results])),
                "meets_threshold": int(rate >= config.success_threshold),
            })
    return rows


def write_csv(path, rows: list, columns: tuple) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(str(row[c]) for c in columns) + "\n")
