"""Host-speed calibration: the benchmark's guard against a noisy host.

On a shared host the CPU speed available to one process swings by tens
of percent over seconds (measured here: a fixed loop took 3.2 ms in one
five-second window and 4.8 ms in the next).  The benchmark therefore
times a fixed pure-Python loop next to the work it measures and
reports every duration at the reference loop time::

    scaled = measured * REFERENCE_S / loop_time_at_that_moment

Both runs of a comparison use the same loop, so a change to the program
moves the scaled numbers exactly as it moves the raw ones, while a
host slowdown that stretches loop and work alike cancels out.
"""

from __future__ import annotations

import statistics
import time
from typing import List, Tuple

#: Iterations of the calibration loop (about 3.3 ms on the reference host).
LOOP = 50_000

#: Loop time that scaled durations are expressed at.
REFERENCE_S = 0.0033


def loop_time() -> float:
    """CPU seconds one pass of the calibration loop takes right now.

    Thread CPU time, not wall time: in the service workload other
    threads of the process hold the interpreter lock at times, and the
    loop must not count waiting for it as a slow host.
    """
    began = time.thread_time()
    total = 0
    for i in range(LOOP):
        total += i * i % 7
    return time.thread_time() - began


class HostClock:
    """Calibration samples taken at most every ``period`` seconds."""

    def __init__(self, period: float = 0.25):
        self.period = period
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def tick(self) -> None:
        """Take a sample if the last one is older than ``period``."""
        if time.perf_counter() - self._last >= self.period:
            duration = loop_time()
            self._last = time.perf_counter()
            self.samples.append((self._last, duration))

    def scale(self, start: float, end: float, k: int = 4) -> float:
        """Factor taking a duration measured over ``[start, end]`` to reference speed."""
        middle = (start + end) / 2
        nearest = sorted(self.samples, key=lambda s: abs(s[0] - middle))[:k]
        return REFERENCE_S / statistics.median(d for _, d in nearest)

    def median_ms(self) -> float:
        return 1000.0 * statistics.median(d for _, d in self.samples)
