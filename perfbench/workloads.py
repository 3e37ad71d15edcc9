"""The benchmark's three workloads: inputs, one timed pass, output checks.

Each workload is built from the benchmark seed (input construction is what
``setup_s`` times), runs its job list through screwinv's public API in
`run_pass`, and compares the outputs with ground truth in `check`, outside
the timed region.  `run_pass` returns the outputs and the time of each job
in reference seconds (see hostspeed.py), where a job is one oracle check on
oracle-sweep and the whole pass elsewhere; `in_process_pass` is the form the
traced run uses.  Both take the sampler that is on while they run.

* ``sagbi-translation``: `translation_invariant_basis` on 2 screws at degree
  bounds 4-7 and 3 screws at 4-6, the paper's headline computation.  The
  inputs are the fixed translation pullbacks, so the seed changes nothing.
* ``oracle-sweep``: the symbolic and sampled invariance oracles on the SE(3)
  and three-screw translation catalogs, known non-invariants, and seeded
  products of two three-screw SE(3) catalog elements, with and without an
  added non-invariant coordinate.  No SAGBI work.
* ``verify-cli``: ``python -m screwinv.cli --json verify --suite paper`` as a
  child process, as a user runs it, started through cli_child.py so that the
  child samples its own host speed.  The suite fixes its own seeds, so the
  benchmark seed changes nothing here either.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from hostspeed import Unsampled

# The API is looked up on the package at each call, so that the traced run's
# wrappers are the functions called.
import screwinv
from screwinv import ActionKind

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected"

SAGBI_JOBS = ((2, 4), (2, 5), (2, 6), (2, 7), (3, 4), (3, 5), (3, 6))

# Products of two three-screw SE(3) catalog elements, of total degree 4 or 5.
# The seed permutes the screws and scales each product, so a pass costs the
# same on every seed; a repeated shape gets its own permutation and scale.
# Products with `bracket_sum`, and `mixed_12 * mixed_13`, are left out: one
# symbolic check of those takes 5-35 s, more than a run.  The mix puts the
# median check inside the 21 sampled translation checks and the 90th
# percentile inside the `dot_11 * klein_1` checks, not on a step between two
# groups of checks with different costs.
PRODUCT_SHAPES = (
    ("klein_1", "klein_2"),
    ("bracket_www", "dot_11"),
    *[("dot_12", "klein_3")] * 2,
    *[("dot_11", "klein_1")] * 4,
    *[("dot_12", "dot_13")] * 2,
    *[("dot_11", "dot_22")] * 2,
)

VERIFY_ARGS = ["--json", "verify", "--suite", "paper"]


class SagbiTranslation:
    name = "sagbi-translation"
    sampled_in_child = False

    def __init__(self, seed: int, jobs=SAGBI_JOBS):
        # The pullback systems are where translation_invariant_basis starts;
        # building them here times that set-up.
        self.systems = {m: screwinv.pullback(ActionKind.TRANSLATION_SUB, m) for m, _ in jobs}
        self.jobs = jobs
        with open(EXPECTED / "sagbi_translation.json") as handle:
            self.expected = json.load(handle)

    def run_pass(self, speed=Unsampled):
        t0 = speed.clock()
        outputs = [screwinv.translation_invariant_basis(m, degree_bound=bound) for m, bound in self.jobs]
        return outputs, [speed.seconds(t0, speed.clock())]

    in_process_pass = run_pass

    def check(self, outputs) -> tuple[int, list[str]]:
        failures = []
        for (m, bound), result in zip(self.jobs, outputs):
            got = [screwinv.format_poly(g, result.basis.order) for g in result.basis]
            if got != self.expected[f"m={m},b={bound}"]:
                failures.append(f"m={m} b={bound}: eliminated generators differ from the expected list")
        return len(self.jobs), failures


class OracleSweep:
    name = "oracle-sweep"
    sampled_in_child = False

    def __init__(self, seed: int, shapes=PRODUCT_SHAPES):
        se3, t3 = ActionKind.FULL_ADJOINT, ActionKind.TRANSLATION_SUB
        rng = random.Random(seed)
        cases = []  # (label, polynomial, action, screws, invariant?)
        for m in (1, 2, 3):
            cases += [(f"se3 m={m} {name}", p, se3, m, True) for name, p in screwinv.se3_generator_catalog(m)]
        cases += [(f"t3 m=3 {name}", p, t3, 3, True) for name, p in screwinv.translation_sagbi_catalog(3)]
        cases.append(("t3 m=3 z_121", screwinv.z_poly(1, 2, 1), t3, 3, False))
        lone = screwinv.parse("w11*v21 + w12*v22 + w13*v23", screwinv.screw_varset(2))
        cases.append(("se3 m=2 w1.v2", lone, se3, 2, False))

        vs = screwinv.screw_varset(3)
        catalog = dict(screwinv.se3_generator_catalog(3).entries)
        coordinates = list(vs.names)
        for a, b in shapes:
            perm = rng.sample((1, 2, 3), 3)
            mapping = {f"{c}{i}{n}": f"{c}{perm[i - 1]}{n}" for c in "wv" for i in (1, 2, 3) for n in (1, 2, 3)}
            # A true fraction of one size on every seed: coefficient size sets the cost.
            scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((11, 13, 17, 19, 23, 29)))
            product = (catalog[a] * catalog[b]).rename(vs, mapping) * scale
            label = f"se3 m=3 {a}*{b} perm={perm}"
            cases.append((label, product, se3, 3, True))
            extra = screwinv.parse(rng.choice(coordinates), vs) * rng.randint(1, 9)
            cases.append((f"{label} + {screwinv.format_poly(extra)}", product + extra, se3, 3, False))

        self.jobs = []  # (label, oracle name, polynomial, action, screws, keyword arguments, expected)
        for label, p, kind, m, invariant in cases:
            self.jobs.append((f"symbolic {label}", "check_invariant_symbolic", p, kind, m, {}, invariant))
            sampled_seed = {"seed": rng.getrandbits(32)}
            self.jobs.append((f"sampled {label}", "check_invariant_sampled", p, kind, m, sampled_seed, invariant))

    def run_pass(self, speed=Unsampled):
        outputs, spans = [], []
        for _, oracle, p, kind, m, kwargs, _ in self.jobs:
            t0 = speed.clock()
            outputs.append(bool(getattr(screwinv, oracle)(p, kind, m, **kwargs)))
            spans.append((t0, speed.clock()))
        return outputs, [speed.seconds(t0, t1) for t0, t1 in spans]

    in_process_pass = run_pass

    def check(self, outputs) -> tuple[int, list[str]]:
        failures = [
            f"{label}: answered {got}, expected {expected}"
            for (label, *_, expected), got in zip(self.jobs, outputs)
            if got != expected
        ]
        return len(self.jobs), failures


class VerifyCli:
    name = "verify-cli"
    # The timed work runs in a child, which samples the host speed itself.
    sampled_in_child = True

    def __init__(self, seed: int):
        import screwinv.cli

        self.cli = screwinv.cli
        src = Path(screwinv.cli.__file__).resolve().parents[1]
        self.command = [sys.executable, str(HERE / "cli_child.py"), *VERIFY_ARGS]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        with open(EXPECTED / "verify_paper.json") as handle:
            self.expected = json.load(handle)

    def run_pass(self, speed=Unsampled):
        t0 = perf_counter()
        proc = subprocess.run(self.command, env=self.env, capture_output=True, text=True, timeout=170)
        wall = perf_counter() - t0
        try:
            child = json.loads(proc.stderr.splitlines()[-1])
            seconds = (wall - child["spent_s"]) * child["speed"]
        except (IndexError, ValueError, KeyError, TypeError):
            seconds = wall  # the child broke; its output check fails and says why
        return [(proc.returncode, proc.stdout)], [seconds]

    def in_process_pass(self, speed=Unsampled):
        out = io.StringIO()
        t0 = speed.clock()
        with contextlib.redirect_stdout(out):
            code = self.cli.main(VERIFY_ARGS)
        return [(code, out.getvalue())], [speed.seconds(t0, speed.clock())]

    def check(self, outputs) -> tuple[int, list[str]]:
        [(code, stdout)] = outputs
        failures = [] if code == 0 else [f"exit code {code}"]
        try:
            items = json.loads(stdout)["items"]
        except (ValueError, KeyError, TypeError):
            items = []
        for index in range(max(len(items), len(self.expected))):
            got = items[index] if index < len(items) else None
            want = self.expected[index] if index < len(self.expected) else None
            if got != want:
                failures.append(f"verify item {index}: got {got}, expected {want}")
        return 1 + max(len(items), len(self.expected)), failures


WORKLOADS = {w.name: w for w in (SagbiTranslation, OracleSweep, VerifyCli)}
