"""Scales measured times to a fixed machine speed.

On a shared virtual machine the same work can take up to 40% longer for
minutes at a time, and CPU time grows with wall time, so neither shows the
program's own cost.  ``SpeedProbe`` times a small fixed kernel -- exact rational
arithmetic in dicts, like the program's inner loops, but in this file, so no
change to the program can change it -- every ``INTERVAL_S`` seconds from a
timer signal.  A time measured over ``[t0, t1]`` is then reported as

    measured * REFERENCE_MS / (median kernel time within RADIUS_S of [t0, t1])

that is, as it would read on a machine where the kernel takes REFERENCE_MS
(about its time on an idle 2-vCPU Intel Xeon virtual machine).  Under a slowdown the kernel
and the program slow alike, though not exactly: across runs the scaled times
spread about half as much as the measured ones.  The kernel's own time is
subtracted from every measurement it interrupts; at one sample every
INTERVAL_S it costs about 1% of the run.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 2.0
INTERVAL_S = 0.2
RADIUS_S = 2.0


def reference_kernel():
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in a.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out.get(e, 0) + c1 * c2
    return out


class SpeedProbe:
    """Samples the kernel's time from SIGALRM while in a ``with`` block."""

    def __init__(self):
        self.times = []      # when each sample started
        self.kernel_s = []   # how long each sample took
        self.spent = 0.0     # total time inside samples so far
        self._old = None

    def _sample(self, _signum, _frame):
        # A collection started by the kernel's allocations would scan the
        # program's heap and bill it to the kernel.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        reference_kernel()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.times.append(t0)
        self.kernel_s.append(dt)
        self.spent += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, t0, t1):
        """Factor that brings a time measured over wall interval [t0, t1]
        to reference speed."""
        lo = bisect.bisect_left(self.times, t0 - RADIUS_S)
        hi = bisect.bisect_right(self.times, t1 + RADIUS_S)
        window = self.kernel_s[lo:hi]
        if not window:
            raise RuntimeError("no speed sample near [%.3f, %.3f]" % (t0, t1))
        return REFERENCE_MS / 1e3 / statistics.median(window)
