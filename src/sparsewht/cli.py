"""Command-line harness.

Subcommands: synth, wht, recover, bench (snr | scaling), de-table,
sketch. Experiment settings come from an optional JSON config file with
flag overrides.

``recover`` takes the value model from the spectrum file: when every
coefficient has the same magnitude rho the values are decoded as the
+/-rho constellation, otherwise as continuous amplitudes.

Exit codes: 0 on completion; 1 when ``recover`` stalls or returns a
support other than the file's; 2 on a configuration error or an
unreadable or malformed input, reported as one ``error:`` line.
"""
from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import analysis, codes, frontend, gf2, peeling, sketch
from .experiments import (
    SCALING_COLUMNS,
    SNR_COLUMNS,
    ConfigError,
    ExperimentConfig,
    noise_sigma,
    recover,
    run_scaling_sweep,
    run_snr_sweep,
    write_csv,
)
from .kernels import fwht
from .signal_model import NoisyAccess, SparseSpectrum, draw_spectrum


def _load_config(args, **defaults) -> ExperimentConfig:
    raw = dict(defaults)
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ConfigError(f"{args.config}: a config file holds one JSON object")
        raw.update(loaded)
    # each flag's dest is the config key it overrides
    for key in ("algorithm", "n_values", "k_values", "snr_db_values", "trials", "seed", "workers"):
        if getattr(args, key) is not None:
            raw[key] = getattr(args, key)
    return ExperimentConfig.from_dict(raw)


def _add_experiment_flags(parser) -> None:
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--algo", dest="algorithm", choices=frontend.VARIANTS)
    parser.add_argument("--snr-db", dest="snr_db_values", type=float, nargs="+")
    parser.add_argument("--n", dest="n_values", type=int, nargs="+")
    parser.add_argument("--k", dest="k_values", type=int, nargs="+")
    parser.add_argument("--workers", type=int)


def _cmd_synth(args) -> int:
    rng = np.random.default_rng(args.seed or 0)
    spectrum = draw_spectrum(args.n[0], args.k[0], args.rho, rng, constellation=not args.continuous)
    spectrum.save(args.out)
    print(f"wrote {spectrum.sparsity} coefficients to {args.out}")
    return 0


def _cmd_wht(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol}")
    with open(args.infile) as f:
        lines = f.readlines()
    # refused here, since numpy would first warn of a file with no data
    if not any(line.partition("#")[0].strip() for line in lines):
        raise ValueError(f"{args.infile}: no samples")
    # two dimensions always, so that one line of several values is refused too
    values = np.loadtxt(lines, dtype=np.float64, ndmin=2)
    if values.shape[1] != 1:
        raise ValueError(f"{args.infile}: expected one sample per line, got {values.shape[1]} values per line")
    values = values[:, 0]
    finite = np.isfinite(values)
    try:
        if not finite.all():
            raise ValueError(f"sample {int(np.argmin(finite))} (counting from 0) is not finite")
        transformed = fwht(values)
        n = gf2.check_bits(len(values).bit_length() - 1)
    except ValueError as exc:
        raise ValueError(f"{args.infile}: {exc}") from exc
    entries = {i: float(v) for i, v in enumerate(transformed) if abs(v) > args.tol}
    SparseSpectrum(n, entries).save(args.out)
    print(f"wrote {len(entries)} coefficients above |{args.tol}| to {args.out}")
    return 0


def _cmd_recover(args) -> int:
    truth = SparseSpectrum.load(args.spectrum)
    n, k = truth.n, truth.sparsity
    algo = args.algo or ("noiseless" if args.snr_db is None else "nso")
    if algo == "so" and n < codes.MIN_INFO_BITS:
        raise ValueError(f"--algo so needs n >= {codes.MIN_INFO_BITS}, but {args.spectrum} has n={n}")
    ss = np.random.SeedSequence(entropy=args.seed or 0)
    rng_noise, rng_offsets = (np.random.default_rng(s) for s in ss.spawn(2))
    magnitudes = {abs(v) for v in truth.entries.values()}
    rho = max(magnitudes, default=1.0)
    snr_db = None if args.snr_db is None else args.snr_db[0]
    if snr_db is not None and not math.isfinite(snr_db):
        raise ValueError(f"--snr-db must be a finite number, got {snr_db}")
    access = NoisyAccess(truth, noise_sigma(rho, k, n, snr_db), rng_noise)
    recovered, report, _, _ = recover(access, k, algo, snr_db=snr_db, rho=rho,
                                      constellation=len(magnitudes) <= 1,
                                      rng_offsets=rng_offsets)
    recovered.save(args.out)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    check = peeling.verify_support(recovered, truth)
    print(f"recovered {recovered.sparsity}/{k} coefficients; support match: {check.support_match}")
    return 0 if check.support_match and not report.stalled else 1


def _cmd_bench_snr(args) -> int:
    rows = run_snr_sweep(_load_config(args))
    write_csv(args.out, rows, SNR_COLUMNS)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_bench_scaling(args) -> int:
    # noise-free and n = 7..17 unless a flag or the config file says otherwise
    rows = run_scaling_sweep(_load_config(args, n_values=list(range(7, 18)), snr_db_values=[None]))
    write_csv(args.out, rows, SCALING_COLUMNS)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _cmd_de_table(args) -> int:
    rows = [{"C": c, "eta_min": round(eta, 4), "C_eta_min": round(ceta, 4)}
            for c, eta, ceta in analysis.de_table(tuple(args.cs))]
    write_csv(args.out, rows, ("C", "eta_min", "C_eta_min"))
    for row in rows:
        print(f"C={row['C']}  eta_min={row['eta_min']:.4f}  C*eta={row['C_eta_min']:.4f}")
    return 0


def _cmd_sketch(args) -> int:
    graph = sketch.Hypergraph.load(args.graph)
    # the cut spectrum has at most 2^(|e|-1) coefficients per edge
    budget = max(1, sum(1 << (len(e) - 1) for e in graph.edges)) if args.budget is None else args.budget
    max_edge = max((len(e) for e in graph.edges), default=2)
    result = sketch.sketch_recover(graph, sparsity_budget=budget, seed=args.seed or 0,
                                   coeff_resolution=2.0 ** (1 - max_edge))
    result.spectrum.save(args.out)
    print(f"queries: {result.queries}")
    if result.partial:
        print("partial: budget exceeded, some bins unresolved")
    if result.edges is not None:
        for e in result.edges:
            print("edge:", " ".join(str(v) for v in sorted(e)))
    return 1 if result.partial else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sparsewht",
                                     description="Sparse Walsh-Hadamard recovery toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="draw a random sparse spectrum to a file")
    p.add_argument("--n", type=int, nargs=1, required=True)
    p.add_argument("--k", type=int, nargs=1, required=True)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--continuous", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_synth)

    p = sub.add_parser("wht", help="transform a dense signal file")
    p.add_argument("infile")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_wht)

    p = sub.add_parser("recover", help="recover a spectrum through the sparse pipeline")
    p.add_argument("--spectrum", required=True, help="ground-truth spectrum file")
    p.add_argument("--snr-db", type=float, nargs=1)
    p.add_argument("--algo", choices=frontend.VARIANTS)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(fn=_cmd_recover)

    bench = sub.add_parser("bench", help="benchmark sweeps")
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    p = bench_sub.add_parser("snr", help="success rate over an SNR grid")
    _add_experiment_flags(p)
    p.set_defaults(fn=_cmd_bench_snr)
    p = bench_sub.add_parser("scaling", help="runtime and samples over n, noise-free by default")
    _add_experiment_flags(p)
    p.set_defaults(fn=_cmd_bench_scaling)

    p = sub.add_parser("de-table", help="minimum-redundancy table as CSV")
    p.add_argument("--cs", type=int, nargs="+", default=[2, 3, 4, 5, 6])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_de_table)

    p = sub.add_parser("sketch", help="recover a hypergraph from cut queries")
    p.add_argument("--graph", required=True, help="hypergraph file")
    p.add_argument("--budget", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sketch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
