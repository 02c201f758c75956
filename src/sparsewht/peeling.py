"""Iterative peeling decoder over bin observations.

Each group's pending bins are classified in one call of
``bin_detect.classify``, and every single-ton found in a group's pass is
peeled before the next group is classified: its contribution is
subtracted from the matching bin of every group, all of the pass's peels
in one scatter over the C groups, and its value is accumulated into the
running spectrum.
Accumulation (rather than insert-once) matters: a multi-ton whose column
aliases exactly onto a valid signature triggers a false peel, but the
resulting ghost later isolates as the same index with the opposite value
and the second peel cancels the first everywhere, so the entry, zero up
to round-off (``cfg.zero_tol``), drops out of the result. Re-peels of an
index holding a nonzero value are still counted as conflicts for
diagnostics. The decoder stops at a fixed point: the
first full sweep that leaves the recovered spectrum unchanged.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import bin_detect, kernels
from .frontend import PlanError
from .signal_model import SparseSpectrum

VALUE_TOL = 1e-9  # largest difference between recovered and true values that verify_support accepts


@dataclass
class DecodeReport:
    sweeps: int = 0
    peels: int = 0
    conflicts: int = 0
    stalled: bool = False
    residual_energy: float = 0.0
    samples_used: int = 0
    # summed over the sweeps: the bins classified, where multi-tons are the
    # bins the energy gate refused (``gated``) plus the candidates that are
    # not single-tons, and the calls of the variant's index finder
    zero_tons: int = 0
    multi_tons: int = 0
    gated: int = 0
    detector_calls: int = 0

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
    group and mark those bins pending, by one ``kernels.scatter_signed``
    of ``-values``; it applies repeated bins in the order given, so the
    floats equal one peel at a time."""
    js = kernels.scatter_signed(data, k_words, -values, plan.col_words, offsets.groups)
    pending[np.arange(data.shape[0]), js] = True


def decode(obs, plan, offsets, cfg, sweep_hook=None):
    """Run peeling until fixed point; returns (spectrum, report).

    Each group's pending bins, in increasing bin order, are classified by
    ``bin_detect.classify`` under the thresholds ``cfg``; ``offsets`` must
    be the ones the observations were generated with. The report sums the
    zero-tons, the multi-tons, the energy gate's share of them and the
    finder calls over the sweeps. The single-tons (index, value) are
    peeled afterwards, in bin order, by one ``kernels.scatter_signed`` over
    the whole tensor, which applies repeated bins in that order. This
    equals classifying and peeling one bin at a time: a coefficient hashes
    to exactly one bin per group and a finder proposes only indices of the
    row's own bin, so a peel made during group c's pass never changes
    another bin of group c.
    The loop ends after the first sweep that leaves the recovered
    spectrum unchanged: peels only move value between bins and spectrum,
    so the bins are unchanged too and every later sweep would replay it.
    A decode whose spectrum never settles stops after 2 C B + 10 sweeps
    and is flagged as stalled. A settled decode is flagged when the
    residual energy summed over the C B bins exceeds C B times the level
    of the layout's own bin test (``bin_detect.tested``): ``cfg.noise_level``
    for a layout with random rows, or zero_tol^2 for the noiseless layout,
    which so flags every decode that leaves noise in its bins.
    Raises PlanError when ``obs`` was not built for ``plan`` and ``offsets``.
    """
    if not obs.n == plan.n == offsets.n:
        raise PlanError(f"observations, plan and offsets disagree on n: {obs.n}, {plan.n}, {offsets.n}")
    if obs.data.shape != (plan.c_groups, plan.bins, offsets.rows):
        raise PlanError(f"observations of shape {obs.data.shape} do not fit the plan and offsets, "
                        f"which need {(plan.c_groups, plan.bins, offsets.rows)}")
    level = bin_detect.tested(offsets, cfg)
    data = obs.data.copy()
    c_groups, bins, _ = data.shape
    recovered: dict = {}
    report = DecodeReport(samples_used=obs.distinct_samples)
    # only bins touched since their last classification need revisiting
    pending = np.ones((c_groups, bins), dtype=bool)
    # a guard, not a setting: aliased multi-tons may keep re-triggering
    max_sweeps = 2 * c_groups * bins + 10

    while report.sweeps < max_sweeps:
        before = dict(recovered)
        for c in range(c_groups):
            js = np.flatnonzero(pending[c])
            pending[c] = False
            if not len(js):
                continue
            zero, gated, k_words, values, single = bin_detect.classify(data[c][js], js, c, plan, offsets, cfg)
            refused = int(np.count_nonzero(gated))
            report.zero_tons += int(np.count_nonzero(zero))
            report.gated += refused
            report.multi_tons += refused + int(np.count_nonzero(~single))
            if not len(single):
                continue
            report.detector_calls += 1
            k_words, values = k_words[single], values[single]
            for k_word, value in zip(k_words.tolist(), values.tolist()):
                if recovered.get(k_word, 0.0) != 0.0:
                    report.conflicts += 1
                total = recovered.get(k_word, 0.0) + value
                if abs(total) <= cfg.zero_tol:
                    recovered.pop(k_word, None)
                else:
                    recovered[k_word] = total
            if len(k_words):
                _peel(data, plan, offsets, k_words, values, pending)
            report.peels += len(k_words)
        report.sweeps += 1
        if sweep_hook is not None:
            sweep_hook(data, dict(recovered), report.sweeps)
        if recovered == before:
            break

    # each bin's mean square over its offset rows is comparable to nu^2
    report.residual_energy = float((data * data).mean(axis=2).sum())
    # the last sweep changed the spectrum only when the guard ended the loop
    report.stalled = recovered != before or report.residual_energy > c_groups * bins * level
    return SparseSpectrum(obs.n, recovered), report


def verify_support(recovered: SparseSpectrum, truth: SparseSpectrum) -> SupportCheck:
    """Set equality of supports; value agreement, within ``VALUE_TOL``,
    reported separately."""
    if recovered.n != truth.n:
        raise ValueError("spectra live in different dimensions")
    support_match = recovered.support() == truth.support()
    values_match = support_match and all(
        abs(recovered.entries[k] - truth.entries[k]) <= VALUE_TOL for k in truth.entries
    )
    return SupportCheck(support_match, values_match)
