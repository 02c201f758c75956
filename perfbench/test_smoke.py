"""Smoke test of the pipeline benchmark at small sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload once untraced and once traced, each twice at one
seed; checks the printed result against BENCHMARK.json and that every
count repeats exactly; and checks that the benchmark refuses to run, and
prints no result, without the program's sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(root: Path, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=120, check=False)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    for entry in result["metrics"].values():
        assert set(entry) == {"value", "unit"}
        assert isinstance(entry["value"], (int, float)) and math.isfinite(entry["value"])
    return result


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= SPEC["run_seconds"] <= 60
    names = NAMES + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in SPEC["workloads"])
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert all(m["better"] in ("lower", "higher") for m in SPEC["end_to_end"] + SPEC["per_layer"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_workload_prints_every_metric_and_counts_repeat(workload, trace):
    first, second = (_result(_run(ROOT, workload, trace)) for _ in range(2))
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    expected = {m["name"]: m["unit"] for m in listed}
    for result in (first, second):
        assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
        if not trace:
            assert all(entry["value"] > 0 for entry in result["metrics"].values())
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])
    for name, unit in expected.items():
        if unit in ("count", "ratio"):
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, NAMES[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
