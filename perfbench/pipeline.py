"""Workloads, the closed trial loop and the metrics of the pipeline benchmark.

The library is driven only through its public entry points: noisy trials
through ``experiments.run_trial`` (one worker), sketch trials through
``sketch.sketch_recover``. Timing comes from wrappers placed on the module
or class attributes through which the library looks its functions up.

Two recorders do this. The boundary recorder is always on: it times
``frontend.observe``, ``peeling.decode`` and ``peeling.verify_support``,
which give the recover and set-up times, and checks what they return. The
layer recorder is on only in the traced run and adds a span at every layer
boundary below the entry call.
"""
from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from sparsewht import bin_detect, codes, experiments, frontend, kernels, peeling, signal_model, sketch
from spans import Recorder, layer_times

SNR_DB = 10.0
DEADLINE_S = 150.0  # stop a run early rather than overrun the 180 s a run may take


@dataclass(frozen=True)
class Workload:
    name: str
    variant: str  # detector: "nso", "so", "near-linear", or "sketch" (exact detector on a cut oracle)
    n: int
    k: int  # sparsity K; for "sketch", the number of vertex-disjoint edges
    rate: float  # trials per second on the reference machine; sets the trial count of a run
    max_edge: int = 6  # sketch only: edge sizes are uniform in 2..max_edge

    def trials(self, seconds: float, traced: bool) -> int:
        # a traced run times every trial twice, untraced and traced
        return max(1, round(seconds * self.rate / (2 if traced else 1)))


# Rates were measured on a 2-vCPU x86-64 virtual machine (Python 3.11, numpy 2.4,
# no numba) so that a run of --seconds S lasts about S seconds there. A run
# always performs the same trials for a given seed and S, so its counts
# repeat exactly.
WORKLOADS = {w.name: w for w in (
    Workload("nso-17-40", "nso", 17, 40, rate=9.0),
    Workload("so-17-40", "so", 17, 40, rate=28.0),
    Workload("nearlinear-16-32", "near-linear", 16, 32, rate=11.0),
    Workload("sketch-50-3", "sketch", 50, 3, rate=36.0),
)}

# Same stages at small sizes, for the smoke test.
TINY = {w.name: w for w in (
    Workload("nso-17-40", "nso", 10, 8, rate=4.0),
    Workload("so-17-40", "so", 10, 8, rate=4.0),
    Workload("nearlinear-16-32", "near-linear", 10, 8, rate=4.0),
    Workload("sketch-50-3", "sketch", 16, 2, rate=4.0, max_edge=4),
)}

END_TO_END = {
    "recover_ms_p50": "ms",
    "recover_ms_p90": "ms",
    "setup_s": "s",
    "trials_per_s": "1/s",
    "success_rate": "ratio",
    "samples_per_trial": "count",
    "peak_rss_mb": "MB",
}

# per-layer time metrics: inclusive time of the span named on the right
LAYER_MS = {
    "signal_model.take_ms": "signal_model.take",
    "fwht.synthesize_ms": "fwht.synthesize",
    "kernels.sign_matrix_ms": "kernels.sign_matrix",
    "signal_model.prepare_ms": "signal_model.prepare",
    "frontend.observe_ms": "frontend.observe",
    "kernels.fwht_rows_ms": "kernels.fwht_rows",
    "frontend.plan_ms": "frontend.plan",
    "frontend.offsets_ms": "frontend.offsets",
    "frontend.coset_ms": "frontend.coset",
    "kernels.singleton_search_ms": "kernels.singleton_search",
    "bin_detect.detect_ms": "bin_detect.detect",
    "codes.bitflip_ms": "codes.bitflip",
    "codes.build_ms": "codes.build",
    "peeling.decode_ms": "peeling.decode",
    "sketch.take_ms": "sketch.take",
    "sketch.cut_values_ms": "sketch.cut_values",
}

# per-layer counts, summed by the hooks under these names
LAYER_COUNTS = (
    "signal_model.take_calls",
    "signal_model.positions_read",
    "kernels.sign_matrix_calls",
    "kernels.sign_evals",
    "kernels.singleton_evals",
    "frontend.nominal_samples",
    "bin_detect.calls",
    "bin_detect.zero_ton",
    "bin_detect.single_ton",
    "bin_detect.multi_ton",
    "codes.bitflip_calls",
    "codes.bitflip_fail",
    "peeling.sweeps",
    "peeling.peels",
    "peeling.conflicts",
    "sketch.queries",
)

PER_LAYER = {
    **{name: "ms" for name in LAYER_MS},
    "frontend.butterfly_ms": "ms",
    "peeling.update_ms": "ms",
    **{name: "count" for name in LAYER_COUNTS},
    "signal_model.distinct_ratio": "ratio",
    "bin_detect.single_ratio": "ratio",
    "trace.recover_ms_p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.uncovered_ms": "ms",
}

# spans that are set-up, not part of the observe + decode span
_SETUP_SPANS = {"experiments.run_trial", "sketch.sketch_recover", "frontend.plan",
                "frontend.offsets", "codes.build", "signal_model.prepare"}

# offset rows per group entering the nominal sample count C * B * rows
_NOMINAL_ROWS = {
    "nso": lambda n: 2 * n * n,
    "so": lambda n: 4 * n,
    "near-linear": lambda n: 3 * n,
    "noiseless": lambda n: n + 1,
}


# ---------------------------------------------------------------------------
# hooks: counts and checks taken where the work happens
# ---------------------------------------------------------------------------


def _on_observe(counts, args, obs):
    _, plan, offsets = args[:3]
    from_plan = plan.c_groups * plan.bins * offsets.nominal_rows
    closed_form = plan.c_groups * plan.bins * _NOMINAL_ROWS[offsets.variant](plan.n)
    if not obs.nominal_samples == from_plan == closed_form:
        counts["check.nominal"] += 1
    counts["frontend.nominal_samples"] += obs.nominal_samples
    counts["frontend.distinct_samples"] += obs.distinct_samples


def _on_decode(counts, args, result):
    report = result[1]
    counts["peeling.sweeps"] += report.sweeps
    counts["peeling.peels"] += report.peels
    counts["peeling.conflicts"] += report.conflicts


def _on_verify(counts, args, check):
    recovered, truth = args[:2]
    counts["verify.calls"] += 1
    counts["verify.match"] += int(check.support_match)
    if check.support_match != (recovered.support() == truth.support()):
        counts["check.verify"] += 1


def _on_take(counts, args, values):
    counts["signal_model.take_calls"] += 1
    counts["signal_model.positions_read"] += np.size(args[1])


def _on_sign_matrix(counts, args, signs):
    counts["kernels.sign_matrix_calls"] += 1
    counts["kernels.sign_evals"] += np.size(args[0]) * np.size(args[1])


def _on_singleton(counts, args, found):
    counts["kernels.singleton_evals"] += np.size(args[2]) * np.size(args[0])


_TON_COUNT = {
    bin_detect.ZERO_TON: "bin_detect.zero_ton",
    bin_detect.SINGLE_TON: "bin_detect.single_ton",
    bin_detect.MULTI_TON: "bin_detect.multi_ton",
}


def _on_detect(counts, args, detection):
    counts["bin_detect.calls"] += 1
    counts[_TON_COUNT[detection.kind]] += 1


def _on_bitflip(counts, args, decoded):
    counts["codes.bitflip_calls"] += 1
    counts["codes.bitflip_fail"] += decoded is None


def boundary_recorder() -> Recorder:
    return Recorder([
        (frontend, "observe", "frontend.observe", _on_observe),
        (peeling, "decode", "peeling.decode", _on_decode),
        (peeling, "verify_support", "peeling.verify", _on_verify),
    ])


def layer_recorder() -> Recorder:
    return Recorder([
        (experiments, "run_trial", "experiments.run_trial", None),
        (sketch, "sketch_recover", "sketch.sketch_recover", None),
        (frontend, "build_plan", "frontend.plan", None),
        (frontend, "build_offsets", "frontend.offsets", None),
        (codes, "build_regular_ldpc", "codes.build", None),
        (signal_model.NoisyAccess, "prepare", "signal_model.prepare", None),
        (frontend, "observe", "frontend.observe", None),
        (signal_model.NoisyAccess, "take", "signal_model.take", _on_take),
        (signal_model, "synthesize_many", "fwht.synthesize", None),
        (kernels, "sign_matrix", "kernels.sign_matrix", _on_sign_matrix),
        (kernels, "fwht_rows_inplace", "kernels.fwht_rows", None),
        (frontend.SubsamplingPlan, "coset", "frontend.coset", None),
        (kernels, "singleton_search", "kernels.singleton_search", _on_singleton),
        (bin_detect, "detect_noiseless", "bin_detect.detect", _on_detect),
        (bin_detect, "detect_near_linear", "bin_detect.detect", _on_detect),
        (bin_detect, "detect_nso", "bin_detect.detect", _on_detect),
        (bin_detect, "detect_so", "bin_detect.detect", _on_detect),
        (codes, "bitflip_decode", "codes.bitflip", _on_bitflip),
        (peeling, "decode", "peeling.decode", None),
        (sketch.CutQueryAccess, "take", "sketch.take", None),
        (sketch, "cut_values", "sketch.cut_values", None),
    ])


# ---------------------------------------------------------------------------
# trials
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Outcome:
    entry_ns: int  # wall time of the library entry call
    success: bool
    samples: int  # distinct samples read
    signature: tuple  # every count the trial produced; repeats exactly for one trial
    problems: tuple  # failed self-checks


def _noisy_trial(wl: Workload, seed: int, trial: int, boundary: Recorder) -> Outcome:
    config = experiments.ExperimentConfig(algorithm=wl.variant, n_values=(wl.n,), k_values=(wl.k,),
                                          snr_db_values=(SNR_DB,), seed=seed, workers=1)
    start = time.perf_counter_ns()
    result = experiments.run_trial(config, wl.n, wl.k, SNR_DB, trial)
    entry_ns = time.perf_counter_ns() - start
    problems = []
    if result.samples_nominal != experiments.nominal_sample_count(wl.variant, wl.n, wl.k):
        problems.append(f"trial {trial}: nominal samples {result.samples_nominal} differ from the cost formula")
    if boundary.counts["verify.calls"] != 1 or result.support_ok != bool(boundary.counts["verify.match"]):
        problems.append(f"trial {trial}: reported support match disagrees with verify_support")
    signature = (result.support_ok, result.values_ok, result.samples_distinct, result.samples_nominal,
                 result.sweeps, result.peels, result.stalled, result.conflicts)
    return Outcome(entry_ns, result.support_ok, result.samples_distinct, signature, tuple(problems))


def _sketch_graph(wl: Workload, seed: int, trial: int):
    """wl.k vertex-disjoint edges of sizes uniform in 2..wl.max_edge on wl.n vertices."""
    rng = np.random.default_rng([seed, trial])
    sizes = rng.integers(2, wl.max_edge + 1, size=wl.k)
    vertices = rng.permutation(np.arange(1, wl.n + 1))
    ends = np.cumsum(sizes)
    edges = [vertices[end - size:end].tolist() for size, end in zip(sizes, ends)]
    return sketch.Hypergraph.from_edge_lists(wl.n, edges)


def _sketch_trial(wl: Workload, seed: int, trial: int, boundary: Recorder) -> Outcome:
    graph = _sketch_graph(wl, seed, trial)
    budget = wl.k << (wl.max_edge - 1)  # s * 2^(d-1) dominates the cut spectrum's sparsity
    plan_seed = int(np.random.SeedSequence([seed, trial]).generate_state(1)[0])
    start = time.perf_counter_ns()
    result = sketch.sketch_recover(graph, sparsity_budget=budget, seed=plan_seed,
                                   coeff_resolution=2.0 ** (1 - wl.max_edge))
    entry_ns = time.perf_counter_ns() - start
    success = (result.spectrum.entries == sketch.analytic_spectrum(graph).entries
               and result.edges is not None
               and set(map(frozenset, result.edges)) == set(graph.edges))
    problems = []
    if result.queries != boundary.counts["frontend.distinct_samples"]:
        problems.append(f"trial {trial}: query count disagrees with the samples observe read")
    report = result.report
    signature = (success, result.queries, report.sweeps, report.peels, report.conflicts, report.stalled)
    return Outcome(entry_ns, success, result.queries, signature, tuple(problems))


@dataclass
class Attempt:
    outcome: Outcome | None  # None when the trial raised
    recover_ns: int = 0
    setup_ns: int = 0


def _attempt(wl: Workload, seed: int, trial: int, boundary: Recorder) -> Attempt:
    trial_fn = _sketch_trial if wl.variant == "sketch" else _noisy_trial
    first = boundary.begin(trial)
    try:
        outcome = trial_fn(wl, seed, trial, boundary)
    except Exception:  # a raised trial is attempted and failed, never skipped
        print(f"trial {trial} raised:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return Attempt(None)
    spent = boundary.totals(first)
    recover = spent["frontend.observe"] + spent["peeling.decode"]
    checks = boundary.counts["check.nominal"] + boundary.counts["check.verify"]
    if checks:
        outcome = replace(outcome, problems=outcome.problems + (f"trial {trial}: {checks} boundary checks failed",))
    return Attempt(outcome, recover, outcome.entry_ns - recover - spent["peeling.verify"])


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    problems: list
    notes: list  # human-readable lines printed before the result


def _ms(ns: float) -> float:
    return ns / 1e6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def run_untraced(wl: Workload, seed: int, seconds: float) -> RunResult:
    """The end-to-end run: a closed loop of fresh trials with tracing off."""
    boundary = boundary_recorder()
    boundary.install()
    try:
        trials = wl.trials(seconds, traced=False)
        _attempt(wl, seed, trials, boundary)  # warm-up on a trial outside the measured set
        attempts = []
        start = time.perf_counter()
        for trial in range(trials):
            attempts.append(_attempt(wl, seed, trial, boundary))
            if time.perf_counter() - start > DEADLINE_S:
                print(f"deadline reached after {len(attempts)} of {trials} trials", file=sys.stderr)
                break
        loop_s = time.perf_counter() - start
    finally:
        boundary.uninstall()

    done = [a for a in attempts if a.outcome is not None]
    successes = sum(a.outcome.success for a in done)
    recover_ms = [_ms(a.recover_ns) for a in done] or [0.0]
    metrics = {
        "recover_ms_p50": float(np.median(recover_ms)),
        "recover_ms_p90": float(np.percentile(recover_ms, 90)),
        "setup_s": float(np.median([a.setup_ns / 1e9 for a in done] or [0.0])),
        "trials_per_s": len(attempts) / loop_s,
        "success_rate": successes / len(attempts),
        "samples_per_trial": float(np.mean([a.outcome.samples for a in done] or [0.0])),
        "peak_rss_mb": _peak_rss_mb(),
    }
    problems = [p for a in done for p in a.outcome.problems]
    notes = [f"trials: {len(attempts)} attempted, {len(done)} completed, {successes} exact; "
             f"recover percentiles over {len(done)} samples"]
    return RunResult(len(attempts), len(attempts) - successes,
                     {k: (v, END_TO_END[k]) for k, v in metrics.items()}, problems, notes)


def _set_tracing(on: bool, boundary: Recorder, layers: Recorder) -> None:
    # the boundary recorder stays outermost, so its times include the layer spans' cost
    boundary.uninstall()
    layers.uninstall()
    if on:
        layers.install()
    boundary.install()


def _layer_ns(inclusive: Counter, pair: Counter) -> dict:
    """One traced trial's nanoseconds per per-layer time metric."""
    out = {metric: inclusive[span] for metric, span in LAYER_MS.items()}
    oracle = pair[("frontend.observe", "signal_model.take")] + pair[("frontend.observe", "sketch.take")]
    out["frontend.butterfly_ms"] = inclusive["frontend.observe"] - oracle
    out["peeling.update_ms"] = inclusive["peeling.decode"] - pair[("peeling.decode", "bin_detect.detect")]
    return out


def run_traced(wl: Workload, seed: int, seconds: float, spans_path: Path | None) -> RunResult:
    """The traced run: each trial once untraced and once traced, in
    alternating order, for per-layer times, counts and tracing overhead."""
    boundary, layers = boundary_recorder(), layer_recorder()
    trials = wl.trials(seconds, traced=True)
    plain_ms, traced_ms, uncovered_ns, problems = [], [], [], []
    times: Counter = Counter()  # summed over traced trials: ns per metric
    counts: Counter = Counter()
    inclusive_all: Counter = Counter()
    own_all: Counter = Counter()
    attempted = failed = completed = 0
    try:
        _set_tracing(False, boundary, layers)
        _attempt(wl, seed, trials, boundary)  # warm-up on a trial outside the measured set
        start = time.perf_counter()
        for trial in range(trials):
            signatures = []
            for traced in ((False, True) if trial % 2 == 0 else (True, False)):
                _set_tracing(traced, boundary, layers)
                first = layers.begin(trial)
                attempt = _attempt(wl, seed, trial, boundary)
                attempted += 1
                if attempt.outcome is None:
                    failed += 1
                    continue
                failed += not attempt.outcome.success
                problems.extend(attempt.outcome.problems)
                signatures.append(attempt.outcome.signature)
                if not traced:
                    plain_ms.append(_ms(attempt.recover_ns))
                    continue
                completed += 1
                traced_ms.append(_ms(attempt.recover_ns))
                inclusive, own, pair = layer_times(layers.spans, first)
                inclusive_all.update(inclusive)
                own_all.update(own)
                times.update(_layer_ns(inclusive, pair))
                covered = sum(ns for name, ns in own.items() if name not in _SETUP_SPANS)
                uncovered_ns.append(attempt.recover_ns - covered)
                counts.update(layers.counts)
                counts.update(boundary.counts)
                if wl.variant == "sketch":
                    counts["sketch.queries"] += attempt.outcome.samples
            if len(signatures) == 2 and signatures[0] != signatures[1]:
                problems.append(f"trial {trial}: counts differ between its untraced and traced runs")
            if time.perf_counter() - start > DEADLINE_S:
                print(f"deadline reached after {trial + 1} of {trials} trials", file=sys.stderr)
                break
    finally:
        boundary.uninstall()
        layers.uninstall()
    if spans_path is not None:
        layers.write(spans_path)

    per = max(completed, 1)
    metrics = {metric: _ms(times[metric]) / per for metric in (*LAYER_MS, "frontend.butterfly_ms", "peeling.update_ms")}
    metrics.update({name: counts[name] / per for name in LAYER_COUNTS})
    reads = counts["signal_model.positions_read"]
    metrics["signal_model.distinct_ratio"] = counts["frontend.distinct_samples"] / reads if reads else 0.0
    calls = counts["bin_detect.calls"]
    metrics["bin_detect.single_ratio"] = counts["bin_detect.single_ton"] / calls if calls else 0.0
    traced_p50 = statistics.median(traced_ms) if traced_ms else 0.0
    plain_p50 = statistics.median(plain_ms) if plain_ms else 0.0
    metrics["trace.recover_ms_p50"] = traced_p50
    metrics["trace.overhead_ms"] = traced_p50 - plain_p50
    metrics["trace.uncovered_ms"] = _ms(float(np.mean(uncovered_ns))) if uncovered_ns else 0.0

    recover_ns = sum(own_all[name] for name in own_all if name not in _SETUP_SPANS)
    notes = [f"trials: {trials} ids, each run untraced and traced; {completed} traced trials completed",
             "per-trial mean ms by span: inclusive, self, self share of the traced observe + decode time"]
    for name in sorted(own_all, key=own_all.get, reverse=True):
        share = own_all[name] / recover_ns if name not in _SETUP_SPANS and recover_ns else math.nan
        notes.append(f"  {name:<26} {_ms(inclusive_all[name]) / per:10.3f} {_ms(own_all[name]) / per:10.3f}"
                     f"  {share:7.1%}")
    oracle_ms = metrics["signal_model.take_ms"] + metrics["sketch.take_ms"]
    if traced_p50 and plain_p50:
        notes.append(f"oracle reads (signal_model.take_ms + sketch.take_ms) = {oracle_ms:.3f} ms: "
                     f"{oracle_ms / plain_p50:.1%} of the untraced and {oracle_ms / traced_p50:.1%} "
                     f"of the traced recover_ms_p50 of this run")
    return RunResult(attempted, failed, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}, problems, notes)
