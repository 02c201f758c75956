"""Iterative peeling decoder over bin observations.

Every single-ton detected in a group's pass is peeled before the next
group is classified: its contribution is subtracted from the matching
bin of every group, all of the pass's peels in one scatter per group,
and its value is accumulated into the running spectrum. Accumulation
(rather than insert-once) matters: a multi-ton whose column aliases exactly onto a
valid signature triggers a false peel, but the resulting ghost later
isolates as the same index with the opposite value and the second peel
cancels the first everywhere, so the net-zero entry drops out of the
result. Re-peels of an index holding a nonzero value are still counted
as conflicts for diagnostics. The decoder stops at a fixed point (a full
sweep with no peel) or at the sweep cap.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import bin_detect, kernels
from .signal_model import SparseSpectrum


@dataclass
class DecodeReport:
    sweeps: int = 0
    peels: int = 0
    conflicts: int = 0
    stalled: bool = False
    residual_energy: float = 0.0
    samples_used: int = 0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class SupportCheck:
    support_match: bool
    values_match: bool

    def __bool__(self) -> bool:
        return self.support_match


def _peel(data: np.ndarray, plan, offsets, k_words: np.ndarray, values: np.ndarray, pending: np.ndarray) -> None:
    """Subtract the single-tons (k_words, values) from their bin in every
    group and mark those bins pending. ``np.subtract.at`` applies repeated
    bins in the order given, so the floats equal one peel at a time."""
    for c2 in range(data.shape[0]):
        j2 = plan.bins_of_many(c2, k_words).astype(np.intp)
        signs = kernels.sign_matrix(k_words, offsets.rows_u64(c2))
        np.subtract.at(data[c2], j2, values[:, None] * signs)
        pending[c2, j2] = True


def decode(obs, plan, offsets, cfg, max_iters: int | None = None, sweep_hook=None):
    """Run peeling until fixed point; returns (spectrum, report).

    Each group's pending bins, in increasing bin order, go to the
    detector of ``offsets.variant`` (``bin_detect.DETECTORS``) in one
    call with the thresholds ``cfg``; ``offsets`` must be the ones the
    observations were generated with. The detector answers in arrays,
    and the verified single-tons (index, value) are peeled afterwards, in
    bin order, by one ``np.subtract.at`` per group, which applies
    repeated bins in that order. This equals classifying and peeling one
    bin at a time: a coefficient hashes to exactly one bin per group and
    a single-ton is only reported for its own bin, so a peel made during
    group c's pass never changes another bin of group c.
    A stopped decode is flagged as stalled when the residual energy
    summed over the C B bins exceeds C B ``cfg.zero_ton_level``.
    ``max_iters`` caps the sweep count (default 2 C B + 10).
    """
    detect = bin_detect.DETECTORS[offsets.variant]
    data = obs.data.copy()
    c_groups, bins, _ = data.shape
    recovered: dict = {}
    report = DecodeReport(samples_used=obs.distinct_samples)
    # only bins touched since their last classification need revisiting
    pending = np.ones((c_groups, bins), dtype=bool)
    if max_iters is None:
        # aliased multi-tons can re-trigger after partial re-exposure, so
        # the sweep count needs a structural cap, not just a fixed point
        max_iters = 2 * c_groups * bins + 10

    while report.sweeps < max_iters:
        sweep_peels = 0
        for c in range(c_groups):
            js = np.flatnonzero(pending[c])
            pending[c] = False
            if not len(js):
                continue
            _, k_words, values, single = detect(data[c][js], js, c, plan, offsets, cfg)
            k_words, values = k_words[single], values[single]
            for k_word, value in zip(k_words.tolist(), values.tolist()):
                if recovered.get(k_word, 0.0) != 0.0:
                    report.conflicts += 1
                total = recovered.get(k_word, 0.0) + value
                if total == 0.0:
                    recovered.pop(k_word, None)
                else:
                    recovered[k_word] = total
            if len(k_words):
                _peel(data, plan, offsets, k_words, values, pending)
            report.peels += len(k_words)
            sweep_peels += len(k_words)
        report.sweeps += 1
        if sweep_hook is not None:
            sweep_hook(data, dict(recovered), report.sweeps)
        if sweep_peels == 0:
            break

    # each bin's mean square over its offset rows is comparable to nu^2
    report.residual_energy = float((data * data).mean(axis=2).sum())
    report.stalled = report.residual_energy > c_groups * bins * cfg.zero_ton_level
    return SparseSpectrum(obs.n, recovered), report


def verify_support(recovered: SparseSpectrum, truth: SparseSpectrum, value_tol: float = 1e-9) -> SupportCheck:
    """Set equality of supports; value agreement reported separately."""
    if recovered.n != truth.n:
        raise ValueError("spectra live in different dimensions")
    support_match = recovered.support() == truth.support()
    values_match = support_match and all(
        abs(recovered.entries[k] - truth.entries[k]) <= value_tol for k in truth.entries
    )
    return SupportCheck(support_match, values_match)
