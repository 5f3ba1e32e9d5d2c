"""2D laser SLAM and pure localization on signed-distance-function maps.

Importing the package sets the C allocator's heap policy for the whole
process. Where the C library is glibc, ``_keep_freed_memory_mapped`` fixes
``mallopt``'s mmap threshold at 32 MiB and its trim threshold at 64 MiB, so
the NumPy buffers that the merge, the map update and the simulator free on
every call stay mapped for the next call, instead of going back to the
kernel and being faulted in again page by page. Both are set because
setting either one stops glibc from adjusting the other: the trim threshold
alone leaves every buffer over 128 KiB to its own mmap, and the mmap
threshold alone still trims the heap after each burst of frees. The cost
is that, after a peak, up to 64 MiB of freed heap stays mapped. With any
other C library the helper does nothing.
"""

import ctypes
import platform

from .geometry import GridGeometry, LaserScan, Pose2, compose, inverse, transform_points
from .mapping import ExpansionPolicy, SdfGrid, integrate_scan
from .matching import MatchConfig, MatchResult, match_two_stage
from .submaps import MergedMap, Submap, SubmapCollection, merge_submaps, pure_localize

# mallopt parameters, from glibc's malloc.h.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory_mapped():
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # glibc refuses an mmap threshold above its maximum (32 MiB on 64-bit);
    # the trim threshold alone would then be worse than neither.
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


_keep_freed_memory_mapped()

__version__ = "0.1.0"

__all__ = [
    "GridGeometry",
    "LaserScan",
    "Pose2",
    "compose",
    "inverse",
    "transform_points",
    "ExpansionPolicy",
    "SdfGrid",
    "integrate_scan",
    "MatchConfig",
    "MatchResult",
    "match_two_stage",
    "MergedMap",
    "Submap",
    "SubmapCollection",
    "merge_submaps",
    "pure_localize",
    "__version__",
]
