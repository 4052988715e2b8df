"""Keep glibc's heap resident across memory points.

A memory point allocates and frees many large numpy temporaries (one
column of a 200k-cell population is 1.6 MB) in each phase: population
sampling, MC estimate, root solves, read disturb.  By default glibc
hands such blocks back to the kernel when they are freed: blocks above
the mmap threshold are unmapped, and free space at the heap top is
trimmed.  The next phase faults every page back in, ~18k minor faults
per default-effort point.

:func:`keep_heap_resident` raises both thresholds once per process, so
freed memory stays mapped and is reused by the next phase and the next
point.  Both are needed: raising only the trim threshold leaves large
arrays on mmap, raising only the mmap threshold leaves the heap top
trimmed.  The heap holds up to 256 MiB of free memory between points;
results do not change.  Off Linux, or without glibc's ``mallopt``,
nothing is set.
"""

import ctypes
import sys

#: ``mallopt`` parameter numbers from glibc's ``malloc.h``.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

#: Free memory the heap top may hold before glibc trims it [bytes].
TRIM_THRESHOLD = 256 << 20
#: Allocations below this come from the heap, not a private mmap
#: [bytes].  32 MiB is glibc's ceiling on 64-bit hosts.
MMAP_THRESHOLD = 32 << 20

_resident = None


def keep_heap_resident() -> bool:
    """Apply the allocator policy once per process; True if glibc took it."""
    global _resident
    if _resident is None:
        _resident = _set_thresholds()
    return _resident


def _set_thresholds() -> bool:
    if not sys.platform.startswith("linux"):
        return False
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # mallopt returns 1 on success and 0 when it rejects the value.
    trim = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)
    mmap = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    return trim == 1 and mmap == 1
