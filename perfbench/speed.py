"""Machine-speed probe: a fixed pure-Python kernel timed between jobs.

The virtual machines this benchmark runs on change speed by a third to a
half, in stretches from seconds to many minutes, and a run cannot outlast
them.  So the worker times this kernel after every job, and each job's time
is also reported in reference seconds: its wall time times REFERENCE_S over
the median kernel time around the job.  The kernel belongs to the benchmark
and never changes, so a change to nilq moves the reference times exactly as
it moves the wall times, while a slower stretch of the machine slows job and
kernel alike and cancels out.  The kernel mixes the operations nilq spends
its time in: small-tuple integer arithmetic, list reduction, dict stores and
big-integer multiplication.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

# About the median kernel time on the machine the benchmark was defined on
# (2-vCPU x86-64 virtual machine, Python 3.11; 1.2 to 2.4 ms over a day), so
# reference times read about as wall times did there.
REFERENCE_S = 0.0017
# Kernel samples within this many seconds of a job set its speed.
WINDOW_S = 1.0
# After a job that ends at least GAP_S after the last kernel call, roughly
# one call per SAMPLE_EVERY_S of the job's time (1 to 8): samples come about
# every GAP_S however short the jobs are, and more often around long ones.
GAP_S = 0.02
SAMPLE_EVERY_S = 0.05


def kernel() -> int:
    x = (1, 2, 3, 0, 0, 0)
    seen = {}
    for i in range(3000):
        a, b, c, d, e, f = x
        x = (a + 1, b - 2, c + a * b - i, d + a * c, (e + b) % 97, f ^ i)
        seen[i % 31] = x
    out = []
    for w in [((i * 7) % 11) - 5 for i in range(200)]:
        if out and out[-1] == -w:
            out.pop()
        else:
            out.append(w)
    n = 3 ** 300
    for k in range(300):
        n = (n * (k + 7) + 1) // 3
    return len(seen) + len(out) + (n & 1)


class Probe:
    """Kernel samples of one process: (start, seconds), in time order."""

    def __init__(self):
        self.starts, self.times = [], []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> None:
        enabled = gc.isenabled()
        gc.disable()  # the kernel's speed must not depend on nilq's heap
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                kernel()
                self.starts.append(t0)
                self.times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.last = time.perf_counter()

    def after_job(self, seconds: float) -> None:
        if time.perf_counter() - self.last >= GAP_S:
            self.sample(min(8, 1 + int(seconds / SAMPLE_EVERY_S)))

    def median(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Median kernel time of the samples started in [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return statistics.median(self.times[lo:hi])

    def reference(self, start: float, seconds: float) -> float:
        """A job's wall time in reference seconds."""
        return seconds * REFERENCE_S / self.median(start - WINDOW_S, start + seconds + WINDOW_S)
