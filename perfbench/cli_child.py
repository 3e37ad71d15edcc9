"""Run ``python -m screwinv.cli ARGS`` with the host-speed sampler on.

Usage: python3 perfbench/cli_child.py ARGS...

The CLI's output and exit code are passed through unchanged.  The last line
on standard error is then ``{"spent_s": ..., "speed": ...}``: the time spent
in probes and the mean host speed over the run (see hostspeed.py), from which
the parent turns the child's wall time into reference seconds.  The parent
puts the checkout's ``src`` on ``PYTHONPATH``.
"""

import json
import runpy
import sys

from hostspeed import HostSpeed


def main() -> int:
    sys.argv = ["screwinv.cli", *sys.argv[1:]]
    code = 0
    with HostSpeed() as speed:
        try:
            runpy.run_module("screwinv.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code
    sys.stdout.flush()
    print(json.dumps({"spent_s": speed.spent, "speed": speed.speed()}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
