"""Seeded outputs pinned to literals, one small trial per variant (n=10
or 12, K=16, seed 5) and one n=50 cut sketch.

A layout or speed change must leave every float the pipeline computes
as it was. Each case pins a sha256 of the observation tensor's bytes, a
sha256 of the recovered entries and the decode counts (sweeps, peels,
conflicts, stall flag). ``residual_energy`` is left out: it is a
pairwise sum, whose rounding may differ between numpy builds.

The B-point transforms are BLAS products whose low bits depend on the
kernel that OpenBLAS picks for the CPU at run time (``OPENBLAS_CORETYPE``
changes them), so a noisy trial's observation sha pins the observations
made with the reference butterflies, and the library's are held within
the round-off bound of those. The noise-free trial's samples at n = 10
are integers times 2^-5, which sum exactly in any order, so its
observations are pinned on the library path too.
"""
import hashlib

import numpy as np
import pytest

from sparsewht import experiments, frontend, kernels, sketch
from sparsewht.signal_model import NoisyAccess, draw_spectrum

from helpers import observation_bound, with_transform
from references import fwht_rows_butterflies


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _entries_sha(entries: dict) -> str:
    return _sha(repr(sorted((k, float(v).hex()) for k, v in entries.items())).encode())


def _counts(report) -> tuple:
    return report.sweeps, report.peels, report.conflicts, report.stalled


# sha256 of the recovered entries, which equal the drawn spectrum: one
# spectrum at n=10 and one at n=12, shared by the three noisy variants
_SPECTRUM_10 = "46d391b0269ad7c6239496e0cc87ea209efd9cd82e48eacb27a93a67f5fabae4"
_SPECTRUM_12 = "72aaea6e2471e6996dd71275e295f8b2d023ffa0ce2ba25506e2d0c15b41fa08"


def _seeded_trial(variant, n, snr_db):
    k = 16
    ss = np.random.SeedSequence(entropy=5, spawn_key=(n, k, 0))
    rng_spec, rng_noise, rng_offsets = (np.random.default_rng(s) for s in ss.spawn(3))
    spectrum = draw_spectrum(n, k, 1.0, rng_spec)
    access = NoisyAccess(spectrum, experiments.noise_sigma(1.0, k, n, snr_db), rng_noise)
    recovered, report, obs, _ = experiments.recover(access, k, variant, snr_db=snr_db, rho=1.0,
                                                    rng_offsets=rng_offsets)
    return spectrum, recovered, report, obs


@pytest.mark.parametrize("variant,n,snr_db,data_sha,entries_sha", [
    ("noiseless", 10, None, "d8866dff5027e28fe8b9b4cc5affb7d82382f391177693cba96005e485828095", _SPECTRUM_10),
    ("near-linear", 12, 10.0, "cb13b294a5e5ab87f99b0d190c91f139a385af1dc8445a7f515fd606b10c828c", _SPECTRUM_12),
    ("nso", 12, 10.0, "515baddf231cf418114414be0e47f1d0d372e58075e9be89d4d39f79b6340d7d", _SPECTRUM_12),
    ("so", 12, 10.0, "16c9215b220ca8360d5770e8b2c7a5231ed9dcba5ffb6520184e254f61aff4a6", _SPECTRUM_12),
])
def test_seeded_trial_outputs_are_pinned(variant, n, snr_db, data_sha, entries_sha):
    (_, _, _, ref), ref_inputs = with_transform(fwht_rows_butterflies, _seeded_trial, variant, n, snr_db)
    assert _sha(ref.data.tobytes()) == data_sha
    (spectrum, recovered, report, obs), inputs = with_transform(kernels.fwht_rows_inplace, _seeded_trial,
                                                                variant, n, snr_db)
    assert np.all(np.abs(obs.data - ref.data) <= observation_bound(n, obs.data, ref.data, inputs, ref_inputs))
    if snr_db is None:
        assert _sha(obs.data.tobytes()) == data_sha
    assert _entries_sha(recovered.entries) == entries_sha
    assert recovered.entries == spectrum.entries
    assert _counts(report) == (3, 16, 0, False)


def test_seeded_sketch_outputs_are_pinned(monkeypatch):
    observed = []
    observe = frontend.observe

    def recording_observe(*args, **kwargs):
        observed.append(observe(*args, **kwargs))
        return observed[-1]

    monkeypatch.setattr(frontend, "observe", recording_observe)
    edges = [[11, 48, 27, 38, 22, 13], [17, 1, 25, 7, 20], [5, 43, 23, 28, 41]]
    graph = sketch.Hypergraph.from_edge_lists(50, edges)
    result = sketch.sketch_recover(graph, sparsity_budget=3 << 5, seed=11, coeff_resolution=2.0**-5)
    (obs,) = observed
    assert obs.data.shape == (3, 128, 44)
    assert _sha(obs.data.tobytes()) == "507ca84e75f83c0be09c111cd5083b3888f6aaaac5b46ea790373d8f79698d33"
    assert _entries_sha(result.spectrum.entries) == \
        "ff9b48d8b6f994dc49f7905f5538234fdf7ead2b15b6b566e9a8190a64dc6c37"
    assert result.spectrum.entries == sketch.analytic_spectrum(graph).entries
    assert result.queries == 16810
    assert _counts(result.report) == (2, 62, 0, False)
    assert set(map(frozenset, result.edges)) == set(graph.edges)
