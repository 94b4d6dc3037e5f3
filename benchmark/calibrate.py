"""Machine-speed sampling for timings on a shared machine.

On a machine shared with other jobs the speed of a core drifts by up to a
factor of two within seconds, and process CPU time drifts with it (the
slowdown is not visible as steal time), so neither wall nor CPU time of one
run compares with a run made minutes later.  While a measurement runs, a
SpeedSampler times a short fixed kernel every INTERVAL_S from a SIGALRM
handler.  The measurement's clock leaves the sampling time out, and the
measurement is scaled by NOMINAL_S / (mean kernel time): a reported time is
what the measurement would take on a machine where the kernel takes
NOMINAL_S.  Timing the kernel throughout, rather than before and after,
follows drifts within a measurement.

The kernel does what the program under test mostly does: a Python loop of
small complex numpy operations.  It belongs to the benchmark, so no change
to the program moves it.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_S = 0.004
INTERVAL_S = 0.05
_REPS = 200


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed kernel."""
    lam = np.linspace(0.1, 2.0, 16) + 0.5j
    y1 = np.ones(16, dtype=complex)
    y2 = np.zeros(16, dtype=complex)
    h = 1e-3
    t0 = time.perf_counter()
    for _ in range(_REPS):
        k1 = 0.1 * y1 - (0.2 + lam) * y2
        k2 = (lam - 0.2) * y1 - 0.1 * y2
        u1 = y1 + 0.5 * h * k1
        u2 = y2 + 0.5 * h * k2
        y1 = y1 + h * (k1 + u1)
        y2 = y2 + h * (k2 + u2)
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the kernel while active; main thread only (it owns SIGALRM)."""

    def __init__(self):
        self.samples = []
        self.total = 0.0          # seconds spent in the kernel so far

    def _sample(self, *_):
        t = kernel_seconds()
        self.samples.append(t)
        self.total += t

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def clock(self) -> float:
        """time.perf_counter() without the time spent sampling."""
        while True:
            total = self.total
            now = time.perf_counter()
            if total == self.total:
                return now - total

    def scale(self) -> float:
        """Factor from seconds on the clock to nominal seconds."""
        return NOMINAL_S / statistics.fmean(self.samples)
