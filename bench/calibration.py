"""Scaling wall times to a reference machine speed.

On a shared machine the speed available to one process drifts by +-20%
over seconds to minutes (other tenants on the same cores), which is more
than any bound worth setting.  The drift slows all interpreter-bound code
alike, so while the benchmark measures, an interval timer interrupts it
every SAMPLE_INTERVAL_S of CPU time to run a fixed pure-Python kernel that
does not touch ``exactgi``.  Each measured interval is then scaled by
REFERENCE_S / (mean kernel time near it), after the time spent in the
kernel has been taken out.  A scaled time is the wall time the interval
would have taken at the speed at which the kernel takes REFERENCE_S; a
change to the library moves it as it moves the wall time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0002
SAMPLE_INTERVAL_S = 0.02
WINDOW_S = 0.25  # an interval is scaled by the samples this close to it


def kernel() -> int:
    """Fraction arithmetic and integer elimination, like the library's own
    inner loops; about 0.2-0.3 ms on a 2-core VM running Python 3.11."""
    acc = Fraction(0)
    for i in range(1, 40):
        acc = acc * Fraction(i, i + 1) + 1
    rows = [[(7 * i + 3 * j) % 11 - 5 for j in range(5)] for i in range(5)]
    for k in range(4):
        for i in range(k + 1, 5):
            factor = rows[i][k]
            rows[i] = [x * rows[k][k] - factor * y for x, y in zip(rows[i], rows[k])]
    return acc.denominator + rows[4][4]


class Calibration:
    """Kernel timings taken through a run, and the scaled length of any
    interval of it.  Use as a context manager around the measured part of
    the run; it owns SIGVTALRM while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)
        self.busy = 0.0  # total seconds spent in the kernel
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.samples.append((end, end - start))
        self.busy += end - start

    def scale(self, start: float, end: float, busy_during: float) -> float:
        """The interval [start, end], less the kernel time inside it, at the
        reference speed: scaled by the trimmed mean of the samples taken
        within WINDOW_S of it."""
        lo = bisect.bisect_left(self.samples, (start - WINDOW_S, 0.0))
        hi = bisect.bisect_right(self.samples, (end + WINDOW_S, float("inf")))
        inside = sorted(d for _, d in self.samples[lo:hi])
        if not inside:
            raise RuntimeError("no calibration sample near the interval")
        trim = len(inside) // 10
        mean = statistics.fmean(inside[trim:len(inside) - trim])
        return (end - start - busy_during) * REFERENCE_S / mean
