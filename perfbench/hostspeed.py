"""Host speed, sampled while the benchmark times screwinv.

The benchmark runs on a few vCPUs of a shared host.  Their speed is not
steady: a fixed piece of pure-Python work takes about twice as long in the
host's busy stretches as in its quiet ones, these stretches change within a
tenth of a second, and their mix drifts over minutes.  Timings taken minutes
apart then differ by more than any change worth detecting.

So every timed region runs with a sampler on: a SIGALRM interval timer
interrupts the timed code every ``INTERVAL_S`` of wall time and runs
`probe`, a fixed piece of the work screwinv does most (Fraction arithmetic
and dicts keyed by tuples), timing it.  A region's time is reported in
*reference seconds*: its wall time, less the time spent in probes, times the
host's mean speed over the probes taken in it, where speed 1 means
one probe takes ``PROBE_REF_S``.  A change to screwinv alters the region's
time and not the probe's, so it shows in full; a change of the host's speed
alters both and cancels.  Sampling costs a few percent of the region's wall
time; probes interrupted by the host's scheduler are not corrected for.
"""

from __future__ import annotations

import gc
import signal
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
PROBE_STEPS = 60
WARM_PROBES = 50
# One probe's time at speed 1: near its time on a quiet shared-VM vCPU under
# CPython 3.11, so reference seconds read close to quiet-host wall seconds.
PROBE_REF_S = 0.00015


def probe() -> None:
    acc, table = Fraction(0), {}
    for i in range(PROBE_STEPS):
        acc += Fraction(i % 97 + 1, i % 13 + 2)
        table[i, i & 7] = acc


class Unsampled:
    """Plain wall time, for code run without a sampler (the self-tests)."""

    clock = staticmethod(perf_counter)

    def __enter__(self) -> Unsampled:
        return self

    def __exit__(self, *exc) -> None:
        pass

    @staticmethod
    def seconds(c0: float, c1: float) -> float:
        return c1 - c0


class HostSpeed:
    """Sampler of the host's speed; a region is timed by `clock` inside ``with``."""

    def __init__(self) -> None:
        self.times: list[float] = []  # `clock` at the start of each probe
        self.speeds: list[float] = []
        self.spent = 0.0  # seconds spent in probes

    def clock(self) -> float:
        """Wall time in seconds, less the time spent in probes."""
        return perf_counter() - self.spent

    def _tick(self, signum=None, frame=None) -> None:
        # A collection started by the probe's allocations would time the
        # heap of the code it interrupted, not the host.
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        probe()
        dt = perf_counter() - t0
        if collecting:
            gc.enable()
        self.times.append(t0 - self.spent)
        self.speeds.append(PROBE_REF_S / dt)
        self.spent += dt

    def __enter__(self) -> HostSpeed:
        for _ in range(WARM_PROBES):  # so that no sample times a cold interpreter
            probe()
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()

    def speed(self, c0: float | None = None, c1: float | None = None) -> float:
        """Mean speed over the probes taken in [c0, c1], or over all of them.

        A region with no probe in it, being shorter than the interval, takes
        the probes just before and just after it.
        """
        if c0 is None:
            return statistics.fmean(self.speeds)
        lo = bisect_left(self.times, c0)
        hi = bisect_right(self.times, c1)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        return statistics.fmean(self.speeds[lo:hi])

    def seconds(self, c0: float, c1: float) -> float:
        """Reference seconds of the region between two readings of `clock`."""
        return (c1 - c0) * self.speed(c0, c1)
