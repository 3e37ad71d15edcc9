"""screwinv benchmark: one workload, timed end to end or traced per layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; screwinv is imported from the ``src`` directory next to
this one, and the run stops with exit code 2 if it is not found there.

Every time is measured with the host-speed sampler of hostspeed.py on and
reported in its reference seconds: wall time less the sampler's probes,
scaled by the host speed the probes saw, so that the host's changing speed
cancels out.

``--trace 0`` reports the end-to-end metrics with no hooks installed:
``setup_s`` (median over fresh interpreters of importing screwinv and
building the inputs), ``wall_s`` (median time of one pass over the job
list), ``job_ms_p50``/``job_ms_p90`` (single oracle checks on oracle-sweep,
whole passes elsewhere), ``peak_rss_mib`` (the workload's process through
set-up and the first pass; the CLI child for verify-cli) and ``pass_frac``
(output checks passed over checks made).  Passes repeat while the next one
is expected to end within ``--seconds``; there is always at least one.

``--trace 1`` runs untraced passes for half of ``--seconds``, then builds the
inputs and runs one pass with every layer function wrapped (see tracer.py),
and reports per-layer calls, self time and counts, plus
``trace.overhead_frac``: that traced pass against the untraced median.
Span times leave out the probes and are scaled by the host speed over the
traced pass.

Every output is checked against ground truth after each pass; a failed check
is counted, never fatal.  The last line of stdout is the result object; the
line before it records the workload, seed, pass counts, environment,
failed checks and any layer that could not be traced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostspeed import HostSpeed, Unsampled

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPEATS = 11

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "peak_rss_mib": "MiB",
    "pass_frac": "frac",
}
# Per-layer metrics: span -> counts reported besides calls and self_s.
SPAN_COUNTS = {
    "kernel.terms_mul": ("pairs",),
    "kernel.terms_add": (),
    "kernel.terms_sub": (),
    "kernel.terms_scale": (),
    "poly.mul": (),
    "poly.pow": (),
    "poly.substitute": ("terms_out",),
    "poly.leading_term": (),
    "poly.evaluate": (),
    "poly.monic": (),
    "sagbi.construct": ("passes",),
    "sagbi.tete_a_tetes": ("pairs_out",),
    "sagbi.subduct": ("steps", "nonzero"),
    "sagbi.power_product": (),
    "sagbi.with_added": (),
    "group.pullback": (),
    "group.symbolic": (),
    "group.sampled": ("samples",),
    "group.rotation_from_quaternion": (),
    "group.apply_adjoint": (),
    "parsing.parse": (),
    "parsing.format_poly": (),
    "screw.catalog": (),
}
# The keys of screwinv.verification.PAPER_SUITE.
VERIFY_ITEMS = (
    "single_screw_sagbi",
    "two_screw_sagbi",
    "se3_catalog_invariance",
    "translation_triple_invariance",
    "bracket_sum_identity",
    "gram_syzygy",
    "dh_formulas",
    "pitch_classification",
    "membership_oracle",
    "property_suites",
)


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_screwinv():
    """Import screwinv from the checkout's src, or stop."""
    if not (SRC / "screwinv" / "__init__.py").is_file():
        fail(f"no screwinv package under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import screwinv
    except ImportError as exc:
        fail(f"cannot import screwinv from {SRC}: {exc}")
    if not Path(screwinv.__file__).resolve().is_relative_to(SRC):
        fail(f"screwinv was imported from {screwinv.__file__}, not from {SRC}")
    return screwinv


def environment(screwinv) -> dict:
    # A package without a backend selector has one, pure-Python, kernel.
    backend = screwinv.backend() if hasattr(screwinv, "backend") else "pure"
    return {
        "screwinv_file": str(Path(screwinv.__file__).resolve().relative_to(SRC.parent)),
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def timed_children(argv: list[str], repeats: int) -> list[float]:
    """Run a probe that prints seconds as its last line, `repeats` times in turn."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            fail(f"set-up probe {argv} failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def quantile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Tally:
    """Output checks made and failed over a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, workload, outputs) -> None:
        try:
            attempted, failures = workload.check(outputs)
        except Exception:  # a check that breaks counts as failed, and the run goes on
            attempted, failures = 1, [traceback.format_exc()]
        self.attempted += attempted
        self.failures += failures


def run_passes(run_pass, workload, tally: Tally, seconds: float, after_first=None):
    """Passes until the next would end after `seconds`; returns pass and job times."""
    start = perf_counter()
    passes, jobs = [], []
    while True:
        t0 = perf_counter()
        outputs, job_s = run_pass()
        elapsed = perf_counter() - t0
        if not passes and after_first is not None:
            after_first()
        passes.append(sum(job_s))
        jobs += job_s
        tally.check(workload, outputs)
        if perf_counter() - start + elapsed > seconds:
            return passes, jobs


def end_to_end(workload_cls, seed: int, seconds: float, tally: Tally):
    setup = timed_children([str(HERE / "setup_probe.py"), workload_cls.name, str(seed)], SETUP_REPEATS)
    workload = workload_cls(seed)
    # Peak memory is read after the first pass: a later pass can raise it
    # through allocator fragmentation, which would tie it to the pass count.
    who = resource.RUSAGE_CHILDREN if workload_cls.name == "verify-cli" else resource.RUSAGE_SELF
    peak_kib = []
    with Unsampled() if workload.sampled_in_child else HostSpeed() as speed:
        passes, jobs = run_passes(
            lambda: workload.run_pass(speed),
            workload,
            tally,
            seconds,
            lambda: peak_kib.append(resource.getrusage(who).ru_maxrss),
        )
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(passes),
        "job_ms_p50": statistics.median(jobs) * 1e3,
        "job_ms_p90": quantile(jobs, 90) * 1e3,
        "peak_rss_mib": peak_kib[0] / 1024,
        "pass_frac": 1 - len(tally.failures) / tally.attempted,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return metrics, {"passes": len(passes), "jobs": len(jobs)}


def per_layer(workload_cls, seed: int, seconds: float, tally: Tally):
    from tracer import Tracer

    speed = HostSpeed()
    tracer = Tracer(speed.clock)
    with speed:
        tracer.install()
        try:
            workload = workload_cls(seed)
        finally:
            tracer.uninstall()
        untraced, _ = run_passes(lambda: workload.in_process_pass(speed), workload, tally, seconds / 2)
        tracer.install()
        try:
            t0 = speed.clock()
            outputs, job_s = workload.in_process_pass(speed)
            t1 = speed.clock()
        finally:
            tracer.uninstall()
    traced = sum(job_s)
    # Span times are wall time less the probes; the traced pass's host speed
    # turns them into reference seconds like every other time.
    scale = speed.speed(t0, t1)
    tally.check(workload, outputs)
    import_s = timed_children([str(HERE / "setup_probe.py"), "--import", "screwinv.cli"], SETUP_REPEATS)

    def value(span: str, key: str):
        if span in tracer.missing:
            return None
        count = tracer.stats[span][key]
        return count * scale if key.endswith("_s") else int(count)

    metrics = {}
    for span, counts in SPAN_COUNTS.items():
        metrics[f"{span}.calls"] = (value(span, "calls"), "count")
        metrics[f"{span}.self_s"] = (value(span, "self_s"), "s")
        for key in counts:
            metrics[f"{span}.{key}"] = (value(span, key), "count")
    enumerated = value("sagbi.tete_a_tetes", "pairs_out")
    inserted = value("sagbi.construct", "inserted")
    if enumerated is None or inserted is None:
        ratio = None
    else:
        ratio = inserted / enumerated if enumerated else 0.0
    metrics["sagbi.useful_ratio"] = (ratio, "ratio")
    nulls = dict(tracer.missing)
    for item in VERIFY_ITEMS:
        span = f"verify.{item}"
        if span in tracer.stats:  # registered only while the suite has the item
            metrics[f"{span}.s"] = (value(span, "total_s"), "s")
        else:
            metrics[f"{span}.s"] = (None, "s")
            nulls.setdefault(span, "not an item of screwinv.verification.PAPER_SUITE")
    metrics["cli.import_s"] = (statistics.median(import_s), "s")
    metrics["cli.main_s"] = (value("cli.main", "total_s"), "s")
    metrics["trace.overhead_frac"] = (traced / statistics.median(untraced) - 1, "frac")
    info = {"untraced_passes": len(untraced), "traced_s": traced, "nulls": nulls}
    return metrics, info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    screwinv = import_screwinv()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    metrics, info = measure(workload_cls, args.seed, args.seconds, tally)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": environment(screwinv),
        **info,
        "failures": tally.failures,
    }
    print(json.dumps(record))
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
