"""Host speed normalization for timings taken on a shared machine.

On a shared host the same job runs 30-70 % slower when other tenants load
the CPU, and such phases last from a second to minutes, so raw seconds from
two runs minutes apart are not comparable.  A fixed pure-Python reference
loop, timed next to the work, measures how fast the host is at that moment.
A timing is normalized by dividing it by that slowdown:

    normalized = raw * REFERENCE_S / (mean reference loop time near the timing)

which is the time the work would take with the host as fast as when
REFERENCE_S was recorded.  The samples are evenly spaced in time, so their
mean is the slowdown averaged over the job, and that average is what
stretches the job's raw time.  A median ignores the rare samples that other
tenants preempt, although the job loses that time too; with it, the 20 s
count of zeta_large_fields spread by 13 % over eight passes, with the mean
by 2 %.  The reference loop does not touch fqzeta, so no
change to the program can move it.  Raw seconds are always kept next to the
normalized ones.
"""

from __future__ import annotations

import signal
import statistics
import time

# Fastest time of reference_loop() on an unloaded Intel Xeon vCPU (2-vCPU VM,
# Python 3.11).  Only the ratio to it matters; it converts to seconds.
REFERENCE_S = 2.2e-4
SAMPLE_INTERVAL_S = 0.01
# A timing is normalized by the samples taken within this margin of it.
WINDOW_S = 0.1


def reference_loop() -> int:
    """Tuple building, hashing and dict stores: the mix of fqzeta's pure-Python
    field arithmetic, which responds to a loaded host as the jobs do."""
    table = {}
    for a in range(1200):
        table[(a * 7919) % 5003] = (a, a + 1)
    return len(table)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def slowdown_now(repeats: int = 9) -> float:
    """Median reference time now, relative to REFERENCE_S."""
    return statistics.median(time_reference() for _ in range(repeats)) / REFERENCE_S


class SpeedProbe:
    """Times the reference loop every SAMPLE_INTERVAL_S from a SIGALRM handler.

    The handler runs in the measured process between bytecodes, so the
    samples see the CPU the work runs on.  Time spent in the handler is
    subtracted from the timings it interrupts.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalize(self, start: float, end: float) -> float:
        """Normalized seconds of the interval [start, end]."""
        busy = sum(d for t, d in self.samples if start <= t < end)
        near = [d for t, d in self.samples if start - WINDOW_S <= t < end + WINDOW_S]
        if not near:
            near = [time_reference()]
        return (end - start - busy) * REFERENCE_S / statistics.fmean(near)
