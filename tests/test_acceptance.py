"""Acceptance suite: one test per criterion, exact comparisons throughout.

Each test prints a single PASS/FAIL line (run pytest with -s to stream
them); the same checks back `screwinv verify --suite paper`.  Tolerances
are zero everywhere: every comparison is exact rational arithmetic.  The
stated runtime ceilings are asserted with generous margins.
"""

import time

from screwinv import verification
from screwinv.group import translation_invariant_basis
from screwinv.parsing import parse
from screwinv.screw import screw_varset, se3_generator_catalog, translation_sagbi_catalog


def report(name: str, passed: bool, budget: float | None = None, elapsed: float | None = None):
    stamp = f" [{elapsed:.2f}s / {budget:.0f}s]" if budget is not None else ""
    print(f"{'PASS' if passed else 'FAIL'}  {name}{stamp}")
    assert passed, name


def timed(func):
    t0 = time.monotonic()
    item = func()
    return item, time.monotonic() - t0


def test_criterion_1_single_screw_translation_sagbi():
    item, elapsed = timed(verification.check_single_screw_sagbi)
    # leading monomials pinned exactly: w11, w12, w13, w11*v11
    res = translation_invariant_basis(1, degree_bound=4)
    vs = screw_varset(1)
    expected = {parse(t, vs).leading_monomial() for t in ("w11", "w12", "w13", "w11*v11")}
    assert set(res.basis.leading_monomials()) == expected
    report("criterion 1: single-screw translation basis", item.passed, 5.0, elapsed)
    assert elapsed < 5.0


def test_criterion_2_two_screw_translation_sagbi():
    item, elapsed = timed(verification.check_two_screw_sagbi)
    # the discrepancy must be reported, not silently patched
    assert "rejected transcription" in item.detail
    assert any("w21^2*v23" in note for note in translation_sagbi_catalog(2).notes)
    report("criterion 2: two-screw translation basis", item.passed, 60.0, elapsed)
    assert elapsed < 60.0


def test_criterion_3_se3_catalog_invariance():
    item, elapsed = timed(verification.check_se3_catalog_invariance)
    assert se3_generator_catalog(3).conjectural
    report("criterion 3: full-adjoint invariance of 2+6+14 generators", item.passed, 120.0, elapsed)
    assert elapsed < 120.0


def test_criterion_4_translation_triple_invariance():
    item, elapsed = timed(verification.check_translation_triple_invariance)
    report("criterion 4: three-screw translation invariance (21 + z_121 failing)", item.passed)


def test_criterion_5_bracket_sum_identity():
    item, _ = timed(verification.check_bracket_sum_identity)
    report("criterion 5: bracket-sum identity", item.passed)


def test_criterion_6_gram_syzygy():
    item, _ = timed(verification.check_gram_syzygy)
    report("criterion 6: 4x4 Gram syzygy (symbolic + 20 samples)", item.passed)


def test_criterion_7_dh_formulas():
    item, _ = timed(verification.check_dh_formulas)
    report("criterion 7: DH pair invariants (4/5, 6/5, d = 2; 100 adjoints)", item.passed)


def test_criterion_8_pitch_classification():
    item, _ = timed(verification.check_pitch_classification)
    report("criterion 8: pitch/joint classification (R, P, H; 100 adjoints)", item.passed)


def test_criterion_9_membership_oracle():
    item, _ = timed(verification.check_membership_oracle)
    report("criterion 9: membership oracle agreement", item.passed)


def test_criterion_10_property_suites():
    item, _ = timed(verification.check_property_suites)
    report("criterion 10: property suites (>= 1000 fixed-seed cases each)", item.passed)


def test_whole_suite_is_green():
    items = verification.run_paper_suite()
    for item in items:
        print(f"{'PASS' if item.passed else 'FAIL'}  {item.name}")
    assert all(item.passed for item in items)
    assert len(items) == 10
