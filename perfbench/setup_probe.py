"""Time one workload's set-up in a fresh interpreter and print it.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
       python3 perfbench/setup_probe.py --import MODULE

Set-up is importing the workload module, which imports screwinv, and
building the workload's inputs; with ``--import`` it is importing MODULE.  It runs with the host-speed sampler on and
is printed in reference seconds (see hostspeed.py).  The parent puts the
checkout's ``src`` on ``PYTHONPATH``.
"""

import importlib
import subprocess  # noqa: F401  (needed by the harness only; imported off the clock)
import sys

from hostspeed import HostSpeed


def main() -> None:
    first, second = sys.argv[1:3]
    with HostSpeed() as speed:
        t0 = speed.clock()
        if first == "--import":
            importlib.import_module(second)
        else:
            import workloads

            workloads.WORKLOADS[first](int(second))
        t1 = speed.clock()
    print(speed.seconds(t0, t1))


if __name__ == "__main__":
    main()
