"""Host-speed ticks: a tiny fixed probe that runs during every timed call.

On a shared host the speed one process gets drifts by 20-50% over seconds
as other tenants come and go, and every timed metric moves with it.  While
a ``Ticker`` is active, a timer signal runs a probe of about 0.1 ms of
interpreted Python every ``INTERVAL_S``.  The probe touches no pldlab code,
so a change to pldlab moves the timings and not the ticks.  ``scale``
turns a call's wall time into seconds at the host speed at which the probe
takes ``NOMINAL_S``, from the ticks that ran during the call.  The ticks
cost about 0.1% of every timed call.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# Ticks within this margin of a call also count, so a 15 ms kernel call is
# scaled by at least five ticks.
PAD_S = 0.25
TRIM = 0.1  # share of the slowest and of the fastest ticks left out
# About the median tick on the host the bounds were set on (2-core x86_64
# Xeon VM), so scaled figures stay near wall seconds.
NOMINAL_S = 1.0e-4


def _work() -> int:
    acc = 0
    for i in range(1500):
        acc += (i * i) & 7
    return acc


class Ticker:
    """Runs the probe on SIGALRM while active; keeps (start, seconds) ticks."""

    def __init__(self):
        self.ticks = []
        self._previous = None

    def _tick(self, signum, frame):
        start = perf_counter()
        _work()
        self.ticks.append((start, perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the trimmed mean of the ticks within PAD_S of
        [start, end]: multiply a wall time by it to get nominal seconds."""
        near = sorted(s for t, s in self.ticks if start - PAD_S <= t <= end + PAD_S)
        if not near:  # no tick yet (a test's zero-length run): use them all
            near = sorted(s for _, s in self.ticks) or [NOMINAL_S]
        k = int(len(near) * TRIM)
        return NOMINAL_S / statistics.fmean(near[k: len(near) - k])
