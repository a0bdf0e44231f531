"""Scaling measured times to a fixed reference speed of the core.

The benchmark's host runs other tenants' work on the same cores, and the
speed of the interpreter drifts by tens of percent over a few seconds. A
fixed piece of interpreter work, the probe, is timed every 100 ms while the
workload runs; each operation's wall time, minus the probes inside it, is
multiplied by ``PROBE_REF_S / (mean probe time)`` around it. A reference
second is therefore the time the operation takes when one probe takes
``PROBE_REF_S``. The program's own work is never part of a probe.
"""

from __future__ import annotations

import signal
import statistics
import time
from bisect import bisect_left

PERF = time.perf_counter

PROBE_LOOPS = 12000      # one probe: about 3 ms of interpreter work
PROBE_REF_S = 0.003      # probe time that defines one reference second
PROBE_INTERVAL_S = 0.1
PROBE_MIN_SAMPLES = 6


def probe_work() -> None:
    d, s = {}, set()
    for i in range(PROBE_LOOPS):
        k = (i & 255, i & 7)
        d[k] = d.get(k, 0) + 1
        s.add(i & 1023)


class SpeedProbe:
    """Times a fixed piece of interpreter work every 100 ms, from a SIGALRM
    handler in the workload's own thread, so each operation's time can be
    scaled to a fixed reference speed of the core. The host's speed drifts
    by tens of percent over seconds; the work of the program does not."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _handler(self, signum, frame):
        t0 = PERF()
        probe_work()
        self.starts.append(t0)
        self.durations.append(PERF() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def own(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] minus the probes that ran inside it."""
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        return (t1 - t0) - sum(self.durations[i:j])

    def normalized(self, t0: float, t1: float) -> float:
        """Own time of [t0, t1] at the reference speed, using the probes
        inside the interval or, for a short one, the nearest probes."""
        i, j = bisect_left(self.starts, t0), bisect_left(self.starts, t1)
        if j - i < PROBE_MIN_SAMPLES:
            mid = (i + j) // 2
            i = max(0, mid - PROBE_MIN_SAMPLES // 2)
            j = min(len(self.starts), i + PROBE_MIN_SAMPLES)
        speed = statistics.fmean(self.durations[i:j]) if j > i else PROBE_REF_S
        return self.own(t0, t1) * PROBE_REF_S / speed
