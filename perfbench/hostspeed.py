"""How fast the shared host runs, sampled all through the timed work.

On a shared 2-vCPU host the same khcv block takes anywhere from 1x to about
1.6x its unloaded wall time, as neighbours load the machine; the slow spells
last from under a second to minutes, so a longer run does not average them
away. While the benchmark times work, `HostSpeed` runs a fixed reference
kernel every PERIOD_S in a background thread, and the work's wall time is
reported scaled to a fixed host speed:

    scaled_s = wall_s * NOMINAL_S / (mean kernel time during the work)

The kernel uses numpy and scipy only, never khcv, so a change to khcv moves
the scaled time exactly as it moves the wall time, while a slow spell of the
host slows the kernel too and cancels out. Its mix follows the workloads':
ndimage calls on 48x48 planes (per-call cost, as in Horn-Schunck flow) and
an element-wise pass over a 256x256 plane (as in GAP-TV). It takes about
1 ms, holding the GIL, so the sampling costs the timed work about 1%.
While sampling, the process, and any child it starts, is pinned to one CPU,
so the kernel runs on the core the timed work runs on rather than waking
up cold on the other one; khcv itself runs single-threaded.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np
from scipy import ndimage

PERIOD_S = 0.1
# kernel time next to a block on an unloaded core of the machine recorded in
# perfbench/results, so that scaled and wall seconds read alike there
NOMINAL_S = 0.00075

_rng = np.random.default_rng(0)
_PLANE = _rng.random((48, 48))
_FRAME = _rng.random((256, 256))
_KERNEL = np.full((3, 3), 1.0 / 9.0)


def kernel() -> float:
    """Wall seconds of one fixed, program-independent piece of work."""
    start = perf_counter()
    for _ in range(6):
        np.clip(ndimage.correlate(_PLANE, _KERNEL, mode="nearest") * 0.5 - _PLANE, 0.0, 1.0).sum()
    np.clip(_FRAME * 0.5 + np.roll(_FRAME, 1, axis=1) - _FRAME, 0.0, 1.0).sum()
    return perf_counter() - start


def scaled(wall_s: float, kernel_s: float) -> float:
    """wall_s as it would read on a host where kernel() takes NOMINAL_S."""
    return wall_s * NOMINAL_S / kernel_s


class HostSpeed:
    """Context manager that samples kernel() every PERIOD_S until it exits."""

    def __init__(self):
        kernel()  # warm-up
        self.starts = [perf_counter()]
        self.seconds = [kernel()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, name="hostspeed", daemon=True)

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            start = perf_counter()
            self.seconds.append(kernel())
            self.starts.append(start)

    def __enter__(self) -> HostSpeed:
        self._cpus = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self._cpus)})
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the samples taken from start to end, else of the one nearest to them."""
        n = len(self.starts)  # the sampler appends to seconds first, so both hold n entries
        lo, hi = bisect_left(self.starts, start, 0, n), bisect_right(self.starts, end, 0, n)
        if lo == hi:
            lo = min(lo, n - 1)
            hi = lo + 1
        return float(np.mean(self.seconds[lo:hi]))

    def scaled(self, start: float, end: float) -> float:
        return scaled(end - start, self.kernel_s(start, end))
