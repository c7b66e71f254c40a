"""Machine-speed probe: timings scaled to a nominal machine speed.

On a shared host the speed of this machine's CPUs drifts, by up to a factor of
two within seconds and for minutes at a time, while process CPU time stays
equal to wall time: the slowdown is contention on the host, not scheduling.
Raw batch times then spread far more from run to run than any code change
worth measuring.

``Probe`` samples the speed while the measured code runs.  An interval timer
interrupts the process every ``INTERVAL_S`` seconds of wall time, and the
signal handler runs a small fixed pure-Python loop and records how long it
took.  Python runs the handler between two bytecodes of whatever the main
thread is doing, so the samples spread over the measured interval (a long C
call delays the next sample until it returns).  A measurement's scaled time is
its wall time times ``NOMINAL_PROBE_S`` over the mean probe time: the time
the code would take on a machine on which one probe takes ``NOMINAL_PROBE_S``.
The probes run inside the measured interval and take about 1 % of it, in
every measurement alike, so spans recorded inside a batch still add up to no
more than the batch.  The probe uses only the interpreter (no numpy), so it
can run while ``import numpy`` is being timed.
"""

from __future__ import annotations

import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

INTERVAL_S = 0.02
# Mean probe time on the reference machine (2-vCPU Xeon VM, Python 3.11) when
# the host was quiet; it sets the scale of every scaled time, nothing else.
NOMINAL_PROBE_S = 2.2e-4
# Probes run right after the measured code, so that a measurement shorter than
# one interval, or one long C call, still has samples.
TAIL_PROBES = 3


def probe_loop():
    """The fixed work whose duration measures the machine's current speed."""
    counts = {}
    kept = []
    for i in range(2000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        if k == 3:
            kept.append(str(i))
    return len(kept)


@dataclass
class Measurement:
    wall_s: float = 0.0  # raw wall time, probes included
    samples: list = field(default_factory=list)  # durations of the probes, seconds

    @property
    def speed(self):
        """Nominal over measured probe time: below 1 when the machine runs slow."""
        return NOMINAL_PROBE_S / statistics.fmean(self.samples)

    @property
    def scaled_s(self):
        """Wall time at the nominal machine speed."""
        return self.wall_s * self.speed


class Probe:
    def __init__(self):
        self._samples = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        probe_loop()
        if self._samples is not None:
            self._samples.append(time.perf_counter() - t0)

    @contextmanager
    def measure(self):
        """Time the ``with`` body, sampling the machine's speed while it runs."""
        m = Measurement()
        for _ in range(TAIL_PROBES):  # warm the loop's code before it is timed
            self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._samples = m.samples
        try:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
            t0 = time.perf_counter()
            try:
                yield m
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                m.wall_s = time.perf_counter() - t0
            for _ in range(TAIL_PROBES):
                self._sample()
        finally:
            self._samples = None
            signal.signal(signal.SIGALRM, previous)
