"""Reference seconds: measured time scaled by how fast the host runs right now.

On a shared host the speed of one core drifts by a quarter or more over tens
of seconds, and by more from one second to the next. While a run is
measured, a timer interrupts the main thread every CAL_PERIOD_S and times
``calibrate``, a fixed loop of interpreter and small-array work that calls no
fluidq code. A span of measured time converts to reference seconds by taking
out the calibration time inside it and scaling the rest by CAL_NOMINAL_S over
the median calibration time within CAL_WINDOW_S of the span. The process stays
on one thread: a Python signal handler runs between bytecodes of the main
thread, so it never overlaps fluidq's work.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left

import numpy as np

CAL_LOOPS = 1500       # 10 to 15 ms on the 2-core x86 host these settings were tuned on
CAL_NOMINAL_S = 0.01
CAL_PERIOD_S = 0.25
CAL_WINDOW_S = 2.0
CAL_WARMUP = 5


def calibrate() -> float:
    """Seconds taken by a fixed loop that calls no fluidq code."""
    start = time.perf_counter()
    grid = np.zeros((6, 6))
    heads = np.zeros(3, dtype=np.int64)
    acc = 0.0
    for k in range(CAL_LOOPS):
        grid[k % 6, (k * 7) % 6] += 1.0
        acc += float(grid[:, k % 6].sum())
        heads[k % 3] += 1
        if not np.array_equal(heads, heads):
            raise RuntimeError("calibration arithmetic broke")
        acc += sum({i: i * k for i in range(5)}.values()) % 7
    return time.perf_counter() - start


class Clock:
    """Samples ``calibrate`` from a SIGALRM timer while the ``with`` block runs."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:  # a signal that arrives during a sample is dropped
            return
        self._busy = True
        try:
            start = time.perf_counter()
            self.durations.append(calibrate())
            self.starts.append(start)
        finally:
            self._busy = False

    def __enter__(self) -> "Clock":
        for _ in range(CAL_WARMUP):  # the first runs of a fresh process are slow
            calibrate()
        self._sample(signal.SIGALRM, None)  # so that no span lacks a nearby sample
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def split(self, start: float, end: float) -> tuple[float, float]:
        """The program's time in [start, end], in measured and in reference seconds."""
        lo, hi = bisect_left(self.starts, start), bisect_left(self.starts, end)
        program = end - start - sum(self.durations[lo:hi])
        near = self.durations[bisect_left(self.starts, start - CAL_WINDOW_S):
                              bisect_left(self.starts, end + CAL_WINDOW_S)]
        return program, program * CAL_NOMINAL_S / statistics.median(near or self.durations)
