"""Sparse Walsh-Hadamard transform recovery from noisy samples.

Coding-theoretic subsampling hashes the K nonzero spectral coefficients
into small bins, robust bin detectors classify each bin and read off
single coefficients, and a peeling decoder subtracts what it finds until
the spectrum is recovered. Includes the redundancy-threshold analysis and
a hypergraph cut-sketching front end.

Importing the package fixes glibc's malloc thresholds (see ``_malloc``)
so that repeated trials reuse heap pages instead of re-faulting them.
"""

from . import _malloc

_malloc.fix_thresholds()

from .analysis import DeTrace, de_table, density_evolution, min_eta
from .bin_detect import (
    Detection,
    DetectorConfig,
    crossover_bound,
    detect_near_linear,
    detect_noiseless,
    detect_nso,
    detect_so,
)
from .codes import LdpcCode, bitflip_decode, build_regular_ldpc
from .frontend import BinObservations, OffsetPlan, SubsamplingPlan, build_offsets, build_plan, observe
from .kernels import fwht
from .peeling import DecodeReport, SupportCheck, decode, verify_support
from .signal_model import NoisyAccess, SparseSpectrum, draw_spectrum, sigma_for_snr, synthesize_many
from .sketch import Hypergraph, analytic_spectrum, cut_value, sketch_recover

__version__ = "0.1.0"

__all__ = [
    "BinObservations",
    "DecodeReport",
    "DeTrace",
    "Detection",
    "DetectorConfig",
    "Hypergraph",
    "LdpcCode",
    "NoisyAccess",
    "OffsetPlan",
    "SparseSpectrum",
    "SubsamplingPlan",
    "SupportCheck",
    "analytic_spectrum",
    "bitflip_decode",
    "build_offsets",
    "build_plan",
    "build_regular_ldpc",
    "crossover_bound",
    "cut_value",
    "de_table",
    "decode",
    "density_evolution",
    "detect_near_linear",
    "detect_noiseless",
    "detect_nso",
    "detect_so",
    "draw_spectrum",
    "fwht",
    "min_eta",
    "observe",
    "sigma_for_snr",
    "sketch_recover",
    "synthesize_many",
    "verify_support",
]
