"""Self-test of the host-speed sampler.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import signal
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH)]

import hostspeed  # noqa: E402


def busy(seconds: float) -> None:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass


def test_sampler_leaves_no_timer_or_handler_behind():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.HostSpeed():
        busy(0.05)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before


def test_clock_leaves_probes_out():
    speed = hostspeed.HostSpeed()
    with speed:
        w0, s0, c0 = perf_counter(), speed.spent, speed.clock()
        busy(0.2)
        w1, s1, c1 = perf_counter(), speed.spent, speed.clock()
    assert len(speed.speeds) >= 10  # the interval timer fired
    assert s1 > s0
    # A probe may fire between two of the readings; one takes well under 1 ms.
    assert abs((c1 - c0) - ((w1 - w0) - (s1 - s0))) < 1e-3


def test_short_region_uses_the_neighbouring_probes():
    speed = hostspeed.HostSpeed()
    with speed:
        busy(0.05)
        c0 = speed.clock()
        c1 = speed.clock()
        busy(0.05)
    assert c0 < c1
    assert speed.seconds(c0, c1) > 0
    assert speed.speed(c0, c1) > 0
