"""The reproduction suite: every catalogued identity checked end to end.

Each item is an independent pass/fail check over the library's public
operations; `run_paper_suite` executes all of them and is what both
``screwinv verify --suite paper`` and the acceptance tests consume.  All
comparisons are exact; the only randomness is fixed-seed sampling.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import screw as _screw
from .group import (
    ActionKind,
    RationalQuaternion,
    _element,
    _sample_group,
    _scaled_adjoint,
    apply_adjoint,
    check_invariant_sampled,
    check_invariant_symbolic,
    mat_mul,
    transform_twist,
    translation_invariant_basis,
)
from .parsing import format_poly, parse
from .poly import Polynomial, VariableSet
from .sagbi import GeneratorSet, is_member, sagbi_construct, subduct
from .screw import (
    MultiScrew,
    Twist,
    det,
    dh_invariants,
    dot,
    gram_minor,
    joint_type,
    mixed_form,
    screw_varset,
    se3_generator_catalog,
    translation_sagbi_catalog,
    two_screw_tete_a_tete_input,
)

SUITE_SEED = 0xC0FFEE


@dataclass(frozen=True)
class VerifyItem:
    name: str
    passed: bool
    detail: str


def _random_rotations(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        a, u = _sample_group(rng, ActionKind.FULL_ADJOINT)
        yield _element(RationalQuaternion(*a), u)


def check_single_screw_sagbi() -> VerifyItem:
    """Construction on the one-screw translation pullback: 4 generators."""
    res = translation_invariant_basis(1, degree_bound=4)
    vs = screw_varset(1)
    expected_lms = {
        parse(text, vs).leading_monomial() for text in ("w11", "w12", "w13", "w11*v11")
    }
    got_lms = set(res.basis.leading_monomials())
    klein = parse("w11*v11 + w12*v12 + w13*v13", vs)
    ok = (
        res.complete
        and got_lms == expected_lms
        and len(res.basis) == 4
        and res.basis.gens[3] == klein
    )
    return VerifyItem(
        "single-screw translation basis",
        ok,
        f"complete={res.complete}, {len(res.basis)} generators, "
        f"fourth = {format_poly(res.basis.gens[3], res.basis.order)}",
    )


def check_two_screw_sagbi() -> VerifyItem:
    """Construction on the two-screw translation pullback: the 10-element basis.

    The shipped cubic text (`TWO_SCREW_CUBIC`, the catalog's cubic_12) must
    equal the recomputed tete-a-tete subduction remainder and be
    translation-invariant; the rejected transcription (w21^2*v23
    instead of w13*w21*v23) is reported, never silently substituted.
    """
    res = translation_invariant_basis(2, degree_bound=4)
    catalog = translation_sagbi_catalog(2)
    by_lm_expected = {p.leading_monomial(): p for _, p in catalog}
    by_lm_got = {g.leading_monomial(res.basis.order): g for g in res.basis}
    match = by_lm_got == by_lm_expected
    vs = screw_varset(2)
    cubic = dict(catalog.entries)["cubic_12"]
    recomputed = subduct(
        two_screw_tete_a_tete_input(),
        GeneratorSet([p for name, p in catalog if name != "cubic_12"], vs.default_order()),
    ).remainder
    cubic_ok = cubic == recomputed.monic(vs.default_order())
    invariant = check_invariant_symbolic(cubic, ActionKind.TRANSLATION_SUB, 2)
    variant = parse(_screw.TWO_SCREW_CUBIC_REJECTED_VARIANT, vs)
    variant_fails = not check_invariant_symbolic(variant, ActionKind.TRANSLATION_SUB, 2)
    ok = res.complete and len(res.basis) == 10 and match and cubic_ok and invariant and variant_fails
    return VerifyItem(
        "two-screw translation basis",
        ok,
        f"complete={res.complete}, {len(res.basis)} generators; cubic = "
        f"{format_poly(cubic)}; rejected transcription "
        f"`{_screw.TWO_SCREW_CUBIC_REJECTED_VARIANT}` fails translation "
        f"invariance: {variant_fails}",
    )


def check_se3_catalog_invariance() -> VerifyItem:
    """Every full-adjoint catalog element is exactly invariant (2 + 6 + 14)."""
    counts = {1: 2, 2: 6, 3: 14}
    catalogs = {m: se3_generator_catalog(m) for m in counts}
    failures = []
    for m, expected in counts.items():
        catalog = catalogs[m]
        if len(catalog) != expected:
            failures.append(f"m={m}: {len(catalog)} != {expected} elements")
            continue
        for name, p in catalog:
            if not check_invariant_symbolic(p, ActionKind.FULL_ADJOINT, m):
                failures.append(f"m={m}: {name}")
    if [catalogs[m].conjectural for m in counts] != [False, False, True]:
        failures.append("conjectural flags wrong")
    return VerifyItem(
        "full-adjoint invariance of generator catalogs",
        not failures,
        "all 22 identities hold; three-screw list flagged conjectural"
        if not failures
        else "; ".join(failures),
    )


def check_translation_triple_invariance() -> VerifyItem:
    """All 21 three-screw translation invariants hold; z_121 alone must fail."""
    catalog = translation_sagbi_catalog(3)
    failures = [
        name
        for name, p in catalog
        if not check_invariant_symbolic(p, ActionKind.TRANSLATION_SUB, 3)
    ]
    z121_fails = not check_invariant_symbolic(
        _screw.z_poly(1, 2, 1), ActionKind.TRANSLATION_SUB, 3
    )
    ok = len(catalog) == 21 and not failures and z121_fails
    return VerifyItem(
        "translation invariance of the three-screw list",
        ok,
        f"{len(catalog)} elements, failures={failures or 'none'}, "
        f"z_121 alone fails as required: {z121_fails}",
    )


def check_bracket_sum_identity() -> VerifyItem:
    """z_123 + z_231 + z_312 equals the catalog's alternating bracket sum, exactly."""
    zsum = _screw.z_poly(1, 2, 3) + _screw.z_poly(2, 3, 1) + _screw.z_poly(3, 1, 2)
    diff = zsum - dict(se3_generator_catalog(3).entries)["bracket_sum"]
    return VerifyItem(
        "bracket-sum identity",
        diff.is_zero(),
        "difference expands to the zero polynomial" if diff.is_zero() else format_poly(diff),
    )


def check_gram_syzygy() -> VerifyItem:
    """The 4x4 Gram minor of four 3-vectors vanishes, symbolically and sampled."""
    minor = gram_minor([1, 2, 3, 4], [1, 2, 3, 4])
    symbolic_zero = minor.is_zero()
    rng = random.Random(SUITE_SEED)
    sampled_zero = True
    for _ in range(20):
        vectors = [
            [Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(3)]
            for _ in range(4)
        ]
        if det([[dot(a, b) for b in vectors] for a in vectors]) != 0:
            sampled_zero = False
            break
    ok = symbolic_zero and sampled_zero
    return VerifyItem(
        "rank-three Gram syzygy",
        ok,
        f"symbolic expansion zero: {symbolic_zero}; 20 random evaluations zero: {sampled_zero}",
    )


def _dh_example_pair() -> MultiScrew:
    w2 = (Fraction(0), Fraction(3, 5), Fraction(4, 5))
    v2 = _screw.cross((Fraction(2), Fraction(0), Fraction(0)), w2)
    return MultiScrew((Twist((0, 0, 1), (0, 0, 0)), Twist(w2, v2)))


def check_dh_formulas() -> VerifyItem:
    """The constructed pair gives cos = 4/5 and d sin = 6/5; adjoint-stable."""
    pair = _dh_example_pair()
    report = dh_invariants(pair)
    values_ok = (
        report.cos_alpha == Fraction(4, 5)
        and report.d_sin_alpha == Fraction(6, 5)
        and report.displacement == 2
    )
    stable = True
    for g in _random_rotations(100, SUITE_SEED + 7):
        moved = dh_invariants(apply_adjoint(g, pair))
        if moved.cos_alpha != report.cos_alpha or moved.d_sin_alpha != report.d_sin_alpha:
            stable = False
            break
    ok = values_ok and stable
    return VerifyItem(
        "Denavit-Hartenberg pair invariants",
        ok,
        f"cos_alpha={report.cos_alpha!r}, d_sin_alpha={report.d_sin_alpha!r}, "
        f"d={report.displacement!r}; unchanged under 100 sampled adjoints: {stable}",
    )


def check_pitch_classification() -> VerifyItem:
    """Canonical R/P/H twists classify correctly and invariantly."""
    cases = [
        (Twist((0, 0, 1), (0, 0, 0)), "R"),
        (Twist((0, 0, 0), (1, 0, 0)), "P"),
        (Twist((0, 0, 1), (0, 0, 3)), "H"),
    ]
    elements = list(_random_rotations(100, SUITE_SEED + 11))
    classified = invariant = True
    details = []
    for t, expected in cases:
        jt = joint_type(t)
        details.append(f"{expected}:{jt.value}")
        if jt.value != expected:
            classified = False
        if any(joint_type(transform_twist(g, t)) != jt for g in elements):
            invariant = False
    return VerifyItem(
        "pitch and joint classification",
        classified and invariant,
        "classified " + ", ".join(details)
        + ("; invariant under 100 sampled adjoints" if invariant else "; changed under a sampled adjoint"),
    )


def check_membership_oracle() -> VerifyItem:
    """Mixed Klein sum is a member, a lone cross Klein term is not."""
    vs = screw_varset(2)
    seed = GeneratorSet(se3_generator_catalog(2).polynomials(), vs.default_order())
    res = sagbi_construct(seed, degree_bound=4)
    mixed = mixed_form(vs, 1, 2)
    member = is_member(mixed, res)
    lone = parse("w11*v21 + w12*v22 + w13*v23", vs)
    non_member = is_member(lone, res)
    sampled = check_invariant_sampled(lone, ActionKind.FULL_ADJOINT, 2)
    ok = bool(member) and not bool(non_member) and not sampled.ok
    return VerifyItem(
        "subduction membership oracle",
        ok,
        f"mixed sum member={bool(member)}; lone w1.v2 member={bool(non_member)}, "
        f"sampled invariant={sampled.ok} (oracles agree)",
    )


def _random_poly(rng: random.Random, vs: VariableSet, max_terms: int = 5, max_deg: int = 3) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(vs)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(vs))] += 1
        key, coeff = tuple(exps), Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
    return Polynomial(vs, terms)


def check_property_suites() -> VerifyItem:
    """Fixed-seed property fuzz, at least 1000 cases per suite."""
    vs = VariableSet(["a", "b", "c", "d"])
    order = vs.default_order()
    rng = random.Random(SUITE_SEED)
    n = 0
    for _ in range(1000):
        f, g, h = (_random_poly(rng, vs) for _ in range(3))
        if (f + g) + h != f + (g + h):
            return VerifyItem("property suites", False, "associativity of + failed")
        if (f * g) * h != f * (g * h):
            return VerifyItem("property suites", False, "associativity of * failed")
        if f * (g + h) != f * g + f * h:
            return VerifyItem("property suites", False, "distributivity failed")
        if f * g != g * f or f + g != g + f:
            return VerifyItem("property suites", False, "commutativity failed")
        n += 1
    # every stored pair, the int map over one den, in lowest terms with den > 0,
    # as built and after arithmetic
    for f in (_random_poly(rng, vs) for _ in range(200)):
        for poly in (f, -f, f * f, f + f / 3):
            if poly.den <= 0 or math.gcd(poly.den, *poly._num.values()) != 1:
                return VerifyItem("property suites", False, "unreduced rational stored")
    # order multiplicativity: a < b implies a*c < b*c
    for _ in range(1000):
        ea = tuple(rng.randint(0, 4) for _ in range(4))
        eb = tuple(rng.randint(0, 4) for _ in range(4))
        ec = tuple(rng.randint(0, 4) for _ in range(4))
        if ea == eb:
            continue
        lo, hi = (ea, eb) if order.key(ea) < order.key(eb) else (eb, ea)
        prod_lo = tuple(x + y for x, y in zip(lo, ec))
        prod_hi = tuple(x + y for x, y in zip(hi, ec))
        if not order.key(prod_lo) < order.key(prod_hi):
            return VerifyItem("property suites", False, "order multiplicativity failed")
    # parse/format round trip
    for _ in range(1000):
        f = _random_poly(rng, vs)
        if parse(format_poly(f, order), vs) != f:
            return VerifyItem("property suites", False, f"round trip failed on {format_poly(f)}")
    # adjoint representation property, Ad(g1 g2) = Ad(g1) Ad(g2), on the
    # integer forms Ad(g) = A/d by cross-multiplication; orthogonality holds
    # by construction, since every Rotation M/n, products included, raises
    # unless M^T M = n^2 I and det M = n^3 exactly
    rot_rng = random.Random(SUITE_SEED + 1)
    elements = list(_random_rotations(1000, SUITE_SEED + 2))
    for _ in range(1000):
        g1 = elements[rot_rng.randrange(len(elements))]
        g2 = elements[rot_rng.randrange(len(elements))]
        (a1, d1), (a2, d2) = _scaled_adjoint(g1), _scaled_adjoint(g2)
        a12, d12 = _scaled_adjoint(g1.compose(g2))
        d1d2 = d1 * d2
        for row12, row in zip(a12, mat_mul(a1, a2)):
            if any(x * d1d2 != y * d12 for x, y in zip(row12, row)):
                return VerifyItem("property suites", False, "adjoint homomorphism failed")
    return VerifyItem(
        "property suites",
        True,
        "ring axioms, rational reduction, order multiplicativity, round trip, "
        "orthogonality and adjoint homomorphism: 1000+ fixed-seed cases each",
    )


PAPER_SUITE: list[tuple[str, Callable[[], VerifyItem]]] = [
    ("single_screw_sagbi", check_single_screw_sagbi),
    ("two_screw_sagbi", check_two_screw_sagbi),
    ("se3_catalog_invariance", check_se3_catalog_invariance),
    ("translation_triple_invariance", check_translation_triple_invariance),
    ("bracket_sum_identity", check_bracket_sum_identity),
    ("gram_syzygy", check_gram_syzygy),
    ("dh_formulas", check_dh_formulas),
    ("pitch_classification", check_pitch_classification),
    ("membership_oracle", check_membership_oracle),
    ("property_suites", check_property_suites),
]


def run_paper_suite() -> list[VerifyItem]:
    return [func() for _, func in PAPER_SUITE]
