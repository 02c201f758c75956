"""The library names that the pipeline benchmark patches or calls still resolve.

``perfbench/pipeline.py`` times the library by replacing module and class
attributes by name, so a renamed or deleted name makes its recorders fail
when they are installed. This checks that here, without running a
workload; ``perfbench/test_smoke.py`` runs the workloads themselves.
"""
import importlib.util
import sys
from pathlib import Path

import sparsewht
from sparsewht import kernels

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


def test_backend_name_resolves():
    # perfbench/run.py records it with every result; no library code calls it
    assert kernels.backend_name() == "numpy"


def test_every_export_resolves():
    missing = [name for name in sparsewht.__all__ if not hasattr(sparsewht, name)]
    assert missing == []
