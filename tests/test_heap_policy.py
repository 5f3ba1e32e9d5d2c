"""The heap policy that importing sdfslam sets: freed NumPy buffers stay
mapped, so allocating them again faults no pages in.

Each check runs in a fresh interpreter, whose allocator has seen nothing
but the import, and counts minor page faults around the allocation that
repeats. Without the policy, glibc returns freed memory to the kernel and
the same allocations fault in hundreds or thousands of pages.
"""

import os
import platform
import subprocess
import sys
import textwrap

import pytest

import sdfslam

pytestmark = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the policy is set through glibc's mallopt")

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(sdfslam.__file__)))

_PRELUDE = f"""\
import resource
import sys
sys.path.insert(0, {_ROOT!r})
import numpy as np
import sdfslam.submaps

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt
"""


def _run(body: str) -> list[int]:
    """Fault counts that ``body`` prints, one per line, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _PRELUDE + textwrap.dedent(body)],
                         capture_output=True, text=True, check=True, timeout=120)
    return [int(line) for line in out.stdout.split()]


def test_freed_buffer_is_reused_without_faults():
    counts = _run("""
        for size in (1 << 20, 4 << 20):
            a = np.ones(size // 8)
            del a
            before = faults()
            a = np.ones(size // 8)
            print(faults() - before)
            del a
    """)
    assert len(counts) == 2 and max(counts) < 10, counts


def test_repeated_merge_faults_no_pages():
    # Three fully known 200-cell submaps, each rotated differently, so
    # every merge resamples about 40k cells per submap.
    counts = _run("""
        from sdfslam.geometry import Pose2
        from sdfslam.submaps import Submap, _centered_grid, merge_submaps

        subs = []
        for k, theta in enumerate((0.0, 0.3, 1.1)):
            grid = _centered_grid(200, 0.05, 0.06, 10.0)
            grid.F[:] = np.linspace(-0.06, 0.06, 200, dtype=np.float32)
            grid.W[:] = 3.0
            subs.append(Submap(grid=grid, pose=Pose2(0.7 * k, -0.4 * k, theta),
                               id=k, scan_count=1, finished=True))
        for _ in range(3):
            before = faults()
            merge_submaps(subs)
            print(faults() - before)
    """)
    assert len(counts) == 3 and counts[-1] < 100, counts
