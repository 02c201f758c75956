"""Pipeline benchmark of sparsewht: one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload nso-17-40 --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: each trial starts when the
previous one ends. The workload's inputs come from ``--seed``; a run
performs a fixed number of trials, sized from ``--seconds`` so that it
lasts about that long on the reference machine, so its counts repeat
exactly for one seed. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` is the separate traced run that prints the per-layer metrics
and writes its spans under ``perfbench/out/``. Every metric is printed by
name with its unit, and the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.

The program is imported from ``src/`` beside this directory; without it
the benchmark exits with code 2 and prints no result. The BLAS thread
count is fixed to one before numpy loads.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
BLAS_THREADS = 1


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small sizes of the same stages (smoke test)")
    return parser.parse_args(argv)


def _blas_threads_in_use():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment(np, kernels) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "backend": kernels.backend_name(),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": _blas_threads_in_use(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sparsewht" / "__init__.py").is_file():
        print("error: the sparsewht sources (src/sparsewht) are missing next to the benchmark", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np

    import pipeline
    import sparsewht
    from sparsewht import kernels

    if not Path(sparsewht.__file__).resolve().is_relative_to(SRC):
        print(f"error: sparsewht was imported from {sparsewht.__file__}, not from src/", file=sys.stderr)
        return 2
    table = pipeline.TINY if args.tiny else pipeline.WORKLOADS
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; expected one of {sorted(table)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    workload = table[args.workload]

    env = _environment(np, kernels)
    print(json.dumps({"workload": workload.name, "n": workload.n, "k": workload.k, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
                      "loop": "closed", "clients": 1, "env": env}))
    if args.trace:
        OUT.mkdir(exist_ok=True)
        tag = "-tiny" if args.tiny else ""
        spans_path = OUT / f"spans-{workload.name}{tag}-seed{args.seed}.csv.gz"
        result = pipeline.run_traced(workload, args.seed, args.seconds, spans_path)
        result.notes.append(f"spans written to {spans_path.relative_to(HERE.parent)}")
    else:
        result = pipeline.run_untraced(workload, args.seed, args.seconds)

    for line in result.notes:
        print(line)
    for problem in result.problems:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not result.problems,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
