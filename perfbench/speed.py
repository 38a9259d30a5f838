"""Machine-speed calibration.

On a shared machine the CPU speed this process gets swings by up to 1.8x
over tens of seconds (measured on a 2-core sandbox), far more than the
changes the benchmark must resolve.  So every duration the benchmark
reports is measured against a fixed calibration kernel as well: the
kernel is timed at least every quarter second next to the work, and a
duration d that started at time t is reported as ``d * ref_s / c(t)``,
with c(t) the median kernel time within a second of t (at least the
samples just before and just after t).  The result reads as the duration
on a machine where the kernel takes ``ref_s``.  No change to photoevap
can touch a kernel.

Two kernels exist.  Work inside the runner is calibrated by ``kernel_s``,
which mixes pure Python arithmetic with small numpy calls, as photoevap's
hot paths do.  Fresh CLI processes are calibrated by the start of bare
interpreters (``python -c pass``), which tracks process creation and
module loading far better than any in-process loop.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

REF_S = 1e-3  # reference-machine duration of one kernel_s run
REF_INTERPRETER_S = 0.07  # reference-machine start of a bare interpreter
INTERVAL_S = 0.25  # longest gap between two calibrations inside a loop
WINDOW_S = 1.0  # kernel samples this close to a duration's start set its factor

_MATRIX = np.random.default_rng(0).random((16, 16))
_VECTOR = np.random.default_rng(1).random(195)


def kernel_s() -> float:
    """Fastest of three runs of the calibration kernel, in seconds."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for i in range(2000):
            acc += math.sqrt(i) * 1.5
        for _ in range(100):
            acc += float((_MATRIX @ _MATRIX[0])[0]) + float(np.exp(_VECTOR * 0.5).sum())
        best = min(best, time.perf_counter() - start)
    return best


class Calibration:
    """Kernel timings along the run, and the speed factor at any time."""

    def __init__(self, kernel=kernel_s, ref_s: float = REF_S) -> None:
        self.kernel = kernel
        self.ref_s = ref_s
        self.times: list[float] = []
        self.kernels: list[float] = []
        self.spent_s = 0.0  # time taken by the calibrations themselves

    def sample(self) -> None:
        start = time.perf_counter()
        kernel = self.kernel()
        self.times.append(start)
        self.kernels.append(kernel)
        self.spent_s += time.perf_counter() - start

    def due(self) -> bool:
        return time.perf_counter() - self.times[-1] >= INTERVAL_S

    def factor(self, t: float) -> float:
        """ref_s over the median kernel time of the samples around time t."""
        k = bisect.bisect_right(self.times, t)
        lo = min(bisect.bisect_left(self.times, t - WINDOW_S), max(k - 1, 0))
        hi = max(bisect.bisect_right(self.times, t + WINDOW_S), k + 1)
        return self.ref_s / statistics.median(self.kernels[lo:hi])

    def speed(self) -> float:
        """Median kernel speed relative to the reference machine."""
        ordered = sorted(self.kernels)
        return self.ref_s / ordered[len(ordered) // 2]
