"""Compare two result sets of the benchmark, metric by metric.

Usage: python3 perfbench/compare.py BASE NEW

BASE and NEW each hold the standard output of one or more runs of run.py,
one after another: every run prints a record line and then a result line.
For each workload, trace mode and metric this prints the median and
quartiles of both sets and the change of the medians.

Timings from different kernel backends measure different code, so the
comparison is refused, with exit code 1, unless every run in both sets
used the same backend.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def load(path: str) -> tuple[set, dict]:
    """Backends seen, and (workload, trace) -> metric -> values."""
    backends, values = set(), defaultdict(lambda: defaultdict(list))
    record = None
    with open(path) as handle:
        for line in handle:
            if not line.startswith("{"):
                continue
            obj = json.loads(line)
            if "workload" in obj:
                record = obj
            elif "metrics" in obj and record is not None:
                backends.add(record["env"]["backend"])
                for name, metric in obj["metrics"].items():
                    if metric["value"] is not None:
                        values[record["workload"], record["trace"]][name].append(metric["value"])
                record = None
    return backends, values


def summary(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g} (n=1)"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}] (n={len(values)})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (base_backends, base), (new_backends, new) = load(argv[0]), load(argv[1])
    if len(base_backends | new_backends) != 1:
        print(
            f"error: refusing to compare: backends {sorted(base_backends)} vs {sorted(new_backends)}",
            file=sys.stderr,
        )
        return 1
    for key in sorted(base.keys() & new.keys()):
        print(f"{key[0]} (trace {key[1]})")
        for name, before in base[key].items():
            after = new[key].get(name)
            if not after:
                continue
            b, a = statistics.median(before), statistics.median(after)
            change = f"{(a - b) / b:+.2%}" if b else "n/a"
            print(f"  {name:<40} {summary(before)}  ->  {summary(after)}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
