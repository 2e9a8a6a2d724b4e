"""Wall time normalized by the momentary speed of the core it ran on.

On the shared 2-core host the benchmark was built on, the speed of one core
swings by up to 2x over seconds to minutes: a fixed pure-Python loop took
1.06x to 1.64x its fastest time in successive 2 s windows, CPU time
(``time.process_time``) swings as much as wall time, and identical passes of
one workload took 2.9 s to 5.9 s in a single process.  Another core does not
see the same swings, so the speed has to be sampled on the core doing the
work, while it works.

While a :class:`SpeedClock` is active, a timer signal every ``PERIOD``
seconds interrupts the working thread and times one run of a small
reference kernel.  An interval's normalized time is its wall time, minus the
time the handler held the thread inside it, scaled by ``NOMINAL`` over the
median kernel time sampled during the interval (``WINDOW`` either side): the
seconds the interval would have taken at the speed where the kernel takes
``NOMINAL``.  The median keeps a sample that an interrupt or a host hiccup
stretched from moving the figure: over six seeds of spectrum, a mean gave
twice the spread of the 90th-percentile latency and the same spread of the
run time.  On the host above this cut the spread of a workload's run time
across runs from about 20% to about 5%.

The kernel shares the workload's thread, so ``speed_check.py`` checks that
its time does not follow what the workload does: on that host the kernel
took 0.94x (symbolic), 0.96x (spectrum) and 0.96x (high_order) its time
during a control loop of integer arithmetic in the same process and host
window, with quartiles within 9% of 1 (bench/baseline.json).  A separate
sampler process bound to the workload's core was tried as well; it tracked
the core's speed worse (15% run-to-run spread against 5% in the same host
window).  The kernel does not see every slowdown: in one stretch of minutes
spectrum's pass times rose by about 15% in wall and normalized time alike.

The kernel is pure Python (rational arithmetic, dict and tuple churn,
complex floats), so that timing set-up does not import numpy early.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate

PERIOD = 0.05
# Reference samples within this many seconds of an interval set its speed:
# wide enough to take about twenty samples, narrow next to the seconds-long
# swings of the host.
WINDOW = 0.5
# Typical timed kernel run on the host the baseline was recorded on, so
# normalized seconds read close to wall seconds.
NOMINAL = 1.5e-3


def reference_kernel():
    d = {}
    for i in range(1, 180):
        k = (i % 17, (i % 5, i % 3))
        d[k] = d.get(k, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)
    items = sorted(d.items())
    z = [complex(i, 1) * 1.5 for i in range(450)]
    return sum(abs(x) for x in z), items


class SpeedClock:
    """Reference-kernel samples taken in this thread while active.

    ``samples`` holds (start, duration) of each kernel run, in
    ``time.perf_counter`` seconds.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None
        self._starts: list[float] = []
        self._held: list[float] = []

    def _tick(self, signum, frame):
        # A collection started by the kernel's allocations would scan the
        # workload's heap and charge it to the reference.
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        if enabled:
            gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:
            raise RuntimeError("the speed clock took no samples")
        self._starts = [t for t, _ in self.samples]
        self._held = list(accumulate((d for _, d in self.samples), initial=0.0))
        return False

    def held(self, start: float, end: float) -> float:
        """Seconds the kernel runs took between start and end."""
        return (self._held[bisect_left(self._starts, end)]
                - self._held[bisect_left(self._starts, start)])

    def normalized(self, start: float, end: float) -> tuple[float, float]:
        """(wall seconds, normalized seconds) of [start, end], both without
        the time the kernel runs took inside the interval."""
        wall = (end - start) - self.held(start, end)
        lo = bisect_left(self._starts, start - WINDOW)
        hi = bisect_left(self._starts, end + WINDOW)
        near = [d for _, d in self.samples[lo:hi]]
        if not near:
            near = [min(self.samples, key=lambda s: abs(s[0] - start))[1]]
        return wall, wall * NOMINAL / statistics.median(near)
