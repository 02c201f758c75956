import os
import subprocess
import sys
from pathlib import Path

import pytest

from sparsewht import _malloc

SRC = Path(__file__).resolve().parent.parent / "src"

# Minor page faults per NSO trial (n=17, K=40) after a few warm-up trials,
# counted in a fresh interpreter so that no earlier allocation sets the
# allocator's state. With glibc's dynamic thresholds this seed re-faults
# its temporaries on every trial (~1500 faults each).
_FAULTS_PER_TRIAL = """
import resource
from sparsewht import experiments
cfg = experiments.ExperimentConfig(algorithm="nso", n_values=(17,), k_values=(40,),
                                   snr_db_values=(10.0,), seed=7, workers=1)
for t in range(3):
    experiments.run_trial(cfg, 17, 40, 10.0, t)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for t in range(3, 13):
    experiments.run_trial(cfg, 17, 40, 10.0, t)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""


def _without_user_settings(monkeypatch):
    for name in _malloc._USER_SETTINGS:
        monkeypatch.delenv(name, raising=False)


def test_thresholds_set_on_glibc(monkeypatch):
    _without_user_settings(monkeypatch)
    assert _malloc.fix_thresholds() == _malloc._is_glibc()


@pytest.mark.parametrize("name", _malloc._USER_SETTINGS)
def test_user_settings_are_left_alone(monkeypatch, name):
    monkeypatch.setenv(name, "1")
    assert not _malloc.fix_thresholds()


def test_repeated_trials_reuse_heap_pages(monkeypatch):
    if not _malloc._is_glibc():
        pytest.skip("the thresholds are only set on glibc")
    _without_user_settings(monkeypatch)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_TRIAL], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert float(out.stdout) < 50
