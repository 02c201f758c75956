"""Run-to-run spread of the end-to-end metrics, checked against their bounds.

Runs the benchmark once per seed on each workload, one run at a time, and
prints for every end-to-end metric its median over the runs and the
spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median. A
spread should stay below a third of the metric's bound in BENCHMARK.json
(``setup_s`` is reported but not held to this). The first seed is run a
second time to confirm that ``success_rate`` and ``samples_per_trial``
repeat exactly.

    python3 perfbench/spread.py --runs 10 --first-seed 101 --save perfbench/out/set1.json
    python3 perfbench/spread.py --runs 10 --first-seed 201 --against perfbench/out/set1.json

``--against`` compares the medians with an earlier saved set: a metric
fails when its median is worse than the earlier one by more than its bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT = ("success_rate", "samples_per_trial")


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median if median else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--save", help="write the medians and raw results as JSON")
    parser.add_argument("--against", help="earlier --save file whose medians these must not be worse than")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(Path(args.against).read_text(encoding="utf-8")) if args.against else None
    saved, ok = {}, True
    for workload in workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        results = [run_once(workload, seed, seconds) for seed in seeds]
        repeat = run_once(workload, args.first_seed, seconds)
        saved[workload] = {"results": results, "medians": {}}
        print(f"{workload}: seeds {seeds.start}..{seeds.stop - 1}, {seconds} s per run")
        for result in results:
            if not result["correct"]:
                ok = False
                print(f"  a run reported correct=false: {result}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in results]
            median, share = spread(values)
            saved[workload]["medians"][name] = median
            steady = name == "setup_s" or share <= bound / 3
            verdict = "steady" if steady else ("within bound" if share <= bound else "TOO WIDE")
            line = f"  {name:<18} median {median:<14.6g} spread {share:7.2%} (bound {bound:.0%}) {verdict}"
            if earlier is not None:
                before = earlier[workload]["medians"][name]
                change = (median - before) / before if before else 0.0
                worse = change if metric["better"] == "lower" else -change
                line += f"; vs earlier {change:+7.2%}"
                if worse > bound:
                    line += " WORSE"
                    ok = False
            ok = ok and (name == "setup_s" or share <= bound)
            print(line)
        for name in EXACT:
            first, again = results[0]["metrics"][name]["value"], repeat["metrics"][name]["value"]
            if first != again:
                ok = False
                print(f"  {name} did not repeat at seed {args.first_seed}: {first!r} then {again!r}")
        print(f"  attempted/failed per run: {[(r['attempted'], r['failed']) for r in results]}")
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1), encoding="utf-8")
    print("all spreads within bounds" if ok else "SOME CHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
