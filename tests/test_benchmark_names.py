"""The library names that the pipeline benchmark patches or calls still resolve.

``perfbench/pipeline.py`` times the library by replacing module and class
attributes by name, so a renamed or deleted name makes its recorders fail
when they are installed. This checks that here, without running a
workload; ``perfbench/test_smoke.py`` runs the workloads themselves.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

import sparsewht
from sparsewht import bin_detect, build_offsets, build_plan, kernels
from sparsewht.frontend import design

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_pipeline(monkeypatch):
    """Import perfbench/pipeline.py without writing anything beside it."""
    monkeypatch.syspath_prepend(str(PERFBENCH))  # pipeline imports its sibling ``spans``
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_pipeline", PERFBENCH / "pipeline.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop("spans", None)
    return module


def test_benchmark_recorders_install_and_uninstall(monkeypatch):
    pipeline = _load_pipeline(monkeypatch)
    for recorder in (pipeline.boundary_recorder(), pipeline.layer_recorder()):
        originals = [getattr(owner, attr) for owner, attr, _, _ in recorder.points]
        recorder.install()
        try:
            wrapped = [getattr(owner, attr).__wrapped__ for owner, attr, _, _ in recorder.points]
        finally:
            recorder.uninstall()
        assert all(w is o for w, o in zip(wrapped, originals))
        assert all(getattr(owner, attr) is o for (owner, attr, _, _), o in zip(recorder.points, originals))


def test_detector_hooks_count_each_kind(monkeypatch):
    # the layer recorder counts each one-column detection by its kind
    pipeline = _load_pipeline(monkeypatch)
    recorder = pipeline.layer_recorder()
    rng = np.random.default_rng(0)
    plan = build_plan(design("noiseless", 8, 4))
    offsets = {v: build_offsets(design(v, 8, 4), plan, rng=rng) for v in ("noiseless", "near-linear", "nso", "so")}
    zero = {v: np.zeros(len(o.groups[0])) for v, o in offsets.items()}
    cfg = bin_detect.DetectorConfig()
    recorder.install()
    try:
        recorder.begin(0)
        bin_detect.detect_noiseless(zero["noiseless"], 0, 0, plan, cfg)
        bin_detect.detect_near_linear(zero["near-linear"], 0, 0, plan, offsets["near-linear"], cfg)
        bin_detect.detect_nso(zero["nso"], 0, 0, plan, offsets["nso"], cfg)
        bin_detect.detect_so(zero["so"], 0, 0, plan, offsets["so"], cfg)
    finally:
        recorder.uninstall()
    assert recorder.counts["bin_detect.calls"] == 4
    assert recorder.counts["bin_detect.zero_ton"] == 4


def test_benchmark_trials_run_at_tiny_sizes(monkeypatch):
    # one trial of each workload through the benchmark's own calls: the
    # ExperimentConfig and sketch_recover keywords it passes and
    # nominal_sample_count(variant, n, k) in its nominal-count check
    pipeline = _load_pipeline(monkeypatch)
    boundary = pipeline.boundary_recorder()
    boundary.install()
    try:
        attempts = {name: pipeline._attempt(wl, 5, 0, boundary) for name, wl in pipeline.TINY.items()}
    finally:
        boundary.uninstall()
    assert len(attempts) == 4
    for name, attempt in attempts.items():
        assert attempt.outcome is not None, name
        assert attempt.outcome.problems == (), name


def test_backend_name_resolves():
    # perfbench/run.py records it with every result; no library code calls it
    assert kernels.backend_name() == "numpy"


def test_every_export_resolves():
    missing = [name for name in sparsewht.__all__ if not hasattr(sparsewht, name)]
    assert missing == []
