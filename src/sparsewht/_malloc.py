"""Fixed glibc malloc thresholds for the per-trial numpy temporaries.

A trial allocates and frees arrays of 0.1-1 MB (the noise realization,
the bin tensor and its working copy, sign and coset blocks). With glibc's
default dynamic thresholds, whether those come back from the heap or from
fresh pages depends on the largest block freed so far: the heap is
trimmed and every array re-faulted on the next trial until some large
block happens to raise the thresholds. The same run then switches between
two speeds depending on its data (``nso-17-40`` read ~70 or ~93 trials/s
by seed, with 270k or 10k minor page faults). Fixing both thresholds
keeps freed blocks of up to 32 MiB in the heap, so repeated trials reuse
the same pages whatever ran before.

Nothing is changed when the allocator is not glibc, or when the process
already sets the thresholds through ``MALLOC_MMAP_THRESHOLD_``,
``MALLOC_TRIM_THRESHOLD_`` or ``GLIBC_TUNABLES``.
"""
from __future__ import annotations

import ctypes
import os

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # glibc's upper limit for the mmap threshold on 64-bit
TRIM_THRESHOLD = 64 << 20
_USER_SETTINGS = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES")


def _is_glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def fix_thresholds() -> bool:
    """Set the glibc mmap and trim thresholds; True when both were set."""
    if not _is_glibc() or any(name in os.environ for name in _USER_SETTINGS):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)) and bool(mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD))
