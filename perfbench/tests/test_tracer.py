"""Self-test of the benchmark's tracer and metric names.

Run from the repository root:  python3 -m pytest perfbench/tests -q

The traced passes here use cut-down inputs (two SAGBI jobs, two product
shapes) so the test takes under a minute; the spans they fire are the same.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import PRODUCT_SHAPES, OracleSweep, SagbiTranslation, VerifyCli  # noqa: E402

SEED = 7
SMALL = {
    SagbiTranslation: {"jobs": ((2, 4), (3, 4))},
    OracleSweep: {"shapes": PRODUCT_SHAPES[:2]},
    VerifyCli: {},
}
KERNEL = ["kernel.terms_mul", "kernel.terms_add", "kernel.terms_sub", "kernel.terms_scale"]
SAGBI = ["sagbi.construct", "sagbi.tete_a_tetes", "sagbi.subduct", "sagbi.power_product", "sagbi.with_added"]
# Spans that must fire on the workload whose metrics they should move.
SHOULD_FIRE = {
    SagbiTranslation: KERNEL + SAGBI + ["poly.mul", "poly.pow", "poly.leading_term", "poly.monic", "group.pullback"],
    OracleSweep: KERNEL
    + [
        "poly.mul",
        "poly.pow",
        "poly.substitute",
        "poly.evaluate",
        "group.pullback",
        "group.symbolic",
        "group.sampled",
        "group.rotation_from_quaternion",
        "group.apply_adjoint",
        "screw.catalog",
    ],
    VerifyCli: ["parsing.parse", "parsing.format_poly", "cli.main"] + [f"verify.{item}" for item in run.VERIFY_ITEMS],
}
EXTRA_COUNTS = {
    SagbiTranslation: [
        ("kernel.terms_mul", "pairs"),
        ("sagbi.construct", "passes"),
        ("sagbi.tete_a_tetes", "pairs_out"),
        ("sagbi.subduct", "steps"),
        ("sagbi.subduct", "nonzero"),
    ],
    OracleSweep: [("kernel.terms_mul", "pairs"), ("poly.substitute", "terms_out"), ("group.sampled", "samples")],
    VerifyCli: [],
}


def traced(workload_cls) -> tracer.Tracer:
    """Build the cut-down workload and run one pass, both traced; checks must pass."""
    t = tracer.Tracer()
    t.install()
    try:
        workload = workload_cls(SEED, **SMALL[workload_cls])
        outputs, _ = workload.in_process_pass()
    finally:
        t.uninstall()
    attempted, failures = workload.check(outputs)
    assert attempted and not failures
    return t


def counts(t: tracer.Tracer) -> dict:
    return {
        (span, key): value
        for span, stat in t.stats.items()
        for key, value in stat.items()
        if not key.endswith("_s")
    }


def namespaces() -> dict:
    """Identity snapshot of every screwinv module and class namespace."""
    spaces = [m for name, m in sys.modules.items() if name == "screwinv" or name.startswith("screwinv.")]
    spaces += [v for m in list(spaces) for v in vars(m).values() if isinstance(v, type) and v.__module__.startswith("screwinv")]
    return {(id(space), name): value for space in spaces for name, value in vars(space).items()}


@pytest.mark.parametrize("workload_cls", list(SMALL), ids=lambda cls: cls.name)
def test_spans_fire_on_their_workload(workload_cls):
    t = traced(workload_cls)
    assert not t.missing
    silent = [span for span in SHOULD_FIRE[workload_cls] if t.stats[span]["calls"] < 1]
    assert not silent
    for span, key in EXTRA_COUNTS[workload_cls]:
        assert t.stats[span][key] > 0, (span, key)
    if workload_cls is OracleSweep:
        assert all(t.stats[span]["calls"] == 0 for span in SAGBI)


def test_uninstall_restores_every_binding():
    import screwinv.cli  # noqa: F401  (load every module before the snapshot)

    before = namespaces()
    t = traced(VerifyCli)
    assert t.patches == []
    after = namespaces()
    changed = [key for key, value in before.items() if after.get(key) is not value]
    assert not changed
    wrapper = tracer.Tracer._wrap.__qualname__ + ".<locals>.traced"
    assert not any(getattr(value, "__qualname__", None) == wrapper for value in after.values())


@pytest.mark.parametrize("workload_cls", list(SMALL), ids=lambda cls: cls.name)
def test_counts_repeat_exactly(workload_cls):
    assert counts(traced(workload_cls)) == counts(traced(workload_cls))


def test_metric_names_match_benchmark_json(monkeypatch):
    # A layer whose definition is gone is reported as null, not a crash.
    monkeypatch.setitem(tracer.LAYERS, "kernel.terms_mul", (("screwinv._gone", "terms_mul"),))
    metrics, info = run.per_layer(VerifyCli, SEED, 0.01, run.Tally())
    assert "kernel.terms_mul" in info["nulls"]
    assert metrics["kernel.terms_mul.calls"][0] is None
    assert metrics["verify.property_suites.s"][0] > 0

    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(metrics)
    assert all(m["unit"] == metrics[m["name"]][1] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
