"""Exact group elements, the adjoint action, pullbacks, invariance oracles."""

import math
import random
from fractions import Fraction

import pytest

from screwinv import group
from screwinv.group import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ActionKind,
    Counterexample,
    EuclideanElement,
    RationalQuaternion,
    Rotation,
    SampledCheck,
    _scaled_adjoint,
    adjoint_matrix,
    apply_adjoint,
    check_invariant_sampled,
    check_invariant_symbolic,
    format_group_sample,
    mat_mul,
    pullback,
    rotation_from_quaternion,
    transform_twist,
    translation_invariant_basis,
    transpose,
)
from screwinv.parsing import format_poly, parse, parse_rational
from screwinv.poly import Polynomial, VariableSet
from screwinv.screw import (
    ExactRadical,
    MultiScrew,
    Twist,
    cross,
    det,
    dot,
    killing_dot,
    klein_form,
    mixed_form,
    pitch,
    screw_varset,
    se3_generator_catalog,
    symbolic_vector,
    translation_sagbi_catalog,
    z_poly,
)
from screwinv.verification import SUITE_SEED, _random_rotations, check_property_suites

I3 = ((Fraction(1), Fraction(0), Fraction(0)),
      (Fraction(0), Fraction(1), Fraction(0)),
      (Fraction(0), Fraction(0), Fraction(1)))


def random_element(rng: random.Random) -> EuclideanElement:
    while True:
        comps = [rng.randint(-100, 100) for _ in range(4)]
        if any(comps):
            break
    q = RationalQuaternion(*comps)
    t = tuple(Fraction(rng.randint(-1000, 1000)) for _ in range(3))
    return EuclideanElement(rotation_from_quaternion(q), t)


NOT_ORTHOGONAL = "^matrix is not exactly orthogonal$"
# M^T M wrong in exactly one entry: columns of norm 25 with the second and
# third not orthogonal (one off-diagonal pair), and orthogonal columns with
# one of norm 4 (one column norm)
ONE_WRONG_GRAM_ENTRY = [
    (((5, 0, 0), (0, 3, 4), (0, 4, 3)), 5),
    (((1, 0, 0), (0, 1, 0), (0, 0, 2)), 1),
]

# a float, a string and a bool: none is an exact rational to a constructor
INEXACT = [(0.1, TypeError), ("1/3", TypeError), (True, ValueError)]


class TestRotation:
    def test_identity_quaternion(self):
        r = rotation_from_quaternion(RationalQuaternion(1, 0, 0, 0))
        assert r.entries == I3

    def test_quarter_turn_about_x(self):
        r = rotation_from_quaternion(RationalQuaternion(1, 1, 0, 0))
        assert r.entries == ((1, 0, 0), (0, 0, -1), (0, 1, 0))

    def test_zero_quaternion_rejected(self):
        with pytest.raises(ValueError):
            RationalQuaternion(0, 0, 0, 0)

    def test_constructor_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            Rotation(((1, 1, 0), (0, 1, 0), (0, 0, 1)), 1)

    def test_constructor_rejects_reflection(self):
        with pytest.raises(ValueError):
            Rotation(((1, 0, 0), (0, 1, 0), (0, 0, -1)), 1)

    # values that equal 1, so only the number rule can reject the identity;
    # a rotation takes ints only, so a bool or a Fraction is refused too
    @pytest.mark.parametrize(
        "value, error",
        [(1.0, TypeError), ("1", TypeError), (True, TypeError), (Fraction(1), TypeError)],
    )
    def test_constructor_rejects_inexact_entries(self, value, error):
        with pytest.raises(error):
            Rotation(((value, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
        with pytest.raises(error):
            Rotation(((1, 0, 0), (0, 1, 0), (0, 0, 1)), value)

    def test_attributes_cannot_be_reassigned(self):
        r = Rotation.identity()
        stretched = ((2, 0, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(AttributeError):
            r.numerator = stretched
        with pytest.raises(AttributeError):
            r.denominator = 2
        with pytest.raises(AttributeError):
            r.extra = 1
        for name in ("numerator", "denominator", "extra"):
            with pytest.raises(AttributeError, match=f"^Rotation is immutable; cannot delete {name!r}$"):
                delattr(r, name)
        assert r == Rotation.identity() and r.compose(r) == r and r.entries[0][0] == 1
        # the identity is one shared instance, so the refused writes above
        # must have left it intact for every later caller
        assert Rotation.identity() is r and EuclideanElement.identity().rotation is r
        assert (r.numerator, r.denominator) == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
        g = EuclideanElement(r, (0, 0, 0))
        assert g.rotation.numerator == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_compose_checks_the_product(self):
        # a corrupted operand can only be made by going round the
        # constructor; compose builds its product through it and refuses
        r = rotation_from_quaternion(RationalQuaternion(1, 1, 1, 0))
        corrupted = rotation_from_quaternion(RationalQuaternion(1, 2, 0, 0))
        object.__setattr__(corrupted, "numerator", ((2, 0, 0), (0, 1, 0), (0, 0, 1)))
        for a, b in ((r, corrupted), (corrupted, r)):
            with pytest.raises(ValueError):
                a.compose(b)
        with pytest.raises(ValueError):
            EuclideanElement(r, (1, 2, 3)).compose(EuclideanElement(corrupted, (0, 0, 0)))

    def test_matrix_helpers_take_any_size(self):
        a = ((1, 2, 3), (4, 5, 6))
        assert transpose(a) == ((1, 4), (2, 5), (3, 6))
        assert mat_mul(a, ((1, 0), (0, 1), (1, 1))) == ((4, 5), (10, 11))
        assert mat_mul(transpose(a), a) == ((17, 22, 27), (22, 29, 36), (27, 36, 45))

    @pytest.mark.parametrize("value, error", INEXACT)
    def test_quaternion_rejects_inexact_components(self, value, error):
        with pytest.raises(error):
            RationalQuaternion(value, 0, 0, 0)

    def test_random_quaternions_give_exact_rotations(self):
        rng = random.Random(13)
        for _ in range(1000):
            while True:
                comps = [rng.randint(-50, 50) for _ in range(4)]
                if any(comps):
                    break
            r = rotation_from_quaternion(RationalQuaternion(*comps))
            assert mat_mul(transpose(r.entries), r.entries) == I3
            assert det(r.entries) == 1


class TestEuclideanElement:
    def test_identity_and_composition(self):
        rng = random.Random(17)
        e = EuclideanElement.identity()
        g = random_element(rng)
        assert e.compose(g).rotation == g.rotation and e.compose(g).translation == g.translation
        assert g.compose(e).translation == g.translation

    @pytest.mark.parametrize("value, error", INEXACT)
    def test_translation_rejects_inexact_components(self, value, error):
        with pytest.raises(error):
            EuclideanElement(Rotation.identity(), (value, 0, 0))

    def test_composition_associative(self):
        rng = random.Random(19)
        for _ in range(50):
            g1, g2, g3 = (random_element(rng) for _ in range(3))
            left = g1.compose(g2).compose(g3)
            right = g1.compose(g2.compose(g3))
            assert left.rotation == right.rotation and left.translation == right.translation


class TestGroupSampler:
    # `random_element` is the reference loop: the verify suite's sampled
    # checks draw through the oracle's sampler and must get exactly these
    # elements from the same seed.
    @pytest.mark.parametrize("seed", [SUITE_SEED + 2, SUITE_SEED + 7])
    def test_suite_draws_match_reference_loop(self, seed):
        rng = random.Random(seed)
        expected = [random_element(rng) for _ in range(300)]
        assert list(_random_rotations(300, seed)) == expected

    # each box the samplers draw from, and the screw sampler's interleaving
    @pytest.mark.parametrize(
        "boxes, ranges",
        [
            ([group._BOX_100] * 4, [(-100, 100)] * 4),
            ([group._BOX_1000] * 3, [(-1000, 1000)] * 3),
            ([group._BOX_16] * 4, [(1, 16)] * 4),
            ([group._BOX_100, group._BOX_16] * 3, [(-100, 100), (1, 16)] * 3),
        ],
        ids=["-100..100", "-1000..1000", "1..16", "screw"],
    )
    def test_draws_equal_randint_and_leave_the_same_state(self, boxes, ranges):
        for seed in range(2000):
            mine, reference = random.Random(seed), random.Random(seed)
            assert group._draw(mine, boxes) == [reference.randint(low, high) for low, high in ranges], seed
            assert mine.getstate() == reference.getstate(), seed


class TestAdjoint:
    def test_identity_matrix(self):
        a = adjoint_matrix(EuclideanElement.identity())
        assert all(a[i][j] == (1 if i == j else 0) for i in range(6) for j in range(6))

    def test_hand_computed_matrix(self):
        # a quarter turn about e1, then t = (1, 2, 3): TR is skew(t) R by hand
        g = EuclideanElement(rotation_from_quaternion(RationalQuaternion(1, 1, 0, 0)), (1, 2, 3))
        assert adjoint_matrix(g) == (
            (1, 0, 0, 0, 0, 0),
            (0, 0, -1, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 2, 3, 1, 0, 0),
            (3, -1, 0, 0, 0, -1),
            (-2, 0, -1, 0, 1, 0),
        )

    def test_pure_translation_example(self):
        g = EuclideanElement(Rotation.identity(), (1, 0, 0))
        t = transform_twist(g, Twist((0, 0, 1), (0, 0, 0)))
        assert t.omega == (0, 0, 1)
        assert t.vee == (0, -1, 0)

    def test_matrix_matches_action(self):
        rng = random.Random(23)
        for _ in range(50):
            g = random_element(rng)
            a = adjoint_matrix(g)
            coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(6)]
            tw = Twist(coords[:3], coords[3:])
            image = transform_twist(g, tw)
            expected = tuple(sum(a[i][k] * coords[k] for k in range(6)) for i in range(6))
            assert tuple(image.omega) + tuple(image.vee) == expected

    def test_homomorphism_fuzz(self):
        rng = random.Random(29)

        def matmul6(a, b):
            return tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(6)) for j in range(6))
                for i in range(6)
            )

        for _ in range(1000):
            g1, g2 = random_element(rng), random_element(rng)
            assert adjoint_matrix(g1.compose(g2)) == matmul6(adjoint_matrix(g1), adjoint_matrix(g2))

    def test_rotation_preserves_klein_value(self):
        rng = random.Random(31)
        vs = screw_varset(1)
        klein = klein_form(vs, 1)
        for _ in range(100):
            while True:
                comps = [rng.randint(-50, 50) for _ in range(4)]
                if any(comps):
                    break
            g = EuclideanElement(rotation_from_quaternion(RationalQuaternion(*comps)), (0, 0, 0))
            coords = [Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(6)]
            s = MultiScrew((Twist(coords[:3], coords[3:]),))
            assert klein.evaluate(s.coordinates()) == klein.evaluate(
                apply_adjoint(g, s).coordinates()
            )

    def test_translation_along_own_axis_fixes_vee(self):
        g = EuclideanElement(Rotation.identity(), (0, 0, 1))
        t = transform_twist(g, Twist((0, 0, 1), (0, 0, 0)))
        assert t.vee == (0, 0, 0)

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_integer_action_matches_fraction_formula(self, kind):
        # the reference is (R omega, t x (R omega) + R v), written out here on
        # the Fraction view of g rather than taken from the library
        rng = random.Random(41)

        def rational(bound):
            return Fraction(rng.randint(-bound, bound), rng.randint(1, 30))

        for _ in range(60):
            if kind is ActionKind.TRANSLATION_SUB:
                rotation = Rotation.identity()
            else:
                rotation = rotation_from_quaternion(
                    RationalQuaternion(*(rng.randint(-60, 60) or 1 for _ in range(4)))
                )
            if kind is ActionKind.ROTATION_SUB:
                translation = (0, 0, 0)
            else:
                translation = tuple(rational(500) for _ in range(3))
            g = EuclideanElement(rotation, translation)
            twists = [Twist((0, 0, 0), (0, 0, 0)), Twist((1, 0, 0), (0, 0, 0))]
            twists += [
                Twist([rational(40) for _ in range(3)], [rational(40) for _ in range(3)])
                for _ in range(3)
            ]
            images = apply_adjoint(g, MultiScrew(tuple(twists)))
            r, t = g.rotation.entries, g.translation
            for tw, image in zip(twists, images):
                r_omega = tuple(sum(x * y for x, y in zip(row, tw.omega)) for row in r)
                r_vee = tuple(sum(x * y for x, y in zip(row, tw.vee)) for row in r)
                t_cross = (
                    t[1] * r_omega[2] - t[2] * r_omega[1],
                    t[2] * r_omega[0] - t[0] * r_omega[2],
                    t[0] * r_omega[1] - t[1] * r_omega[0],
                )
                expected = Twist(r_omega, tuple(a + b for a, b in zip(t_cross, r_vee)))
                single = transform_twist(g, tw)
                assert single == expected and image == expected
                for coord in single.omega + single.vee + image.omega + image.vee:
                    assert type(coord) is Fraction

    def test_multi_screw_componentwise(self):
        rng = random.Random(37)
        g = random_element(rng)
        t1 = Twist((1, 0, 0), (0, 1, 0))
        t2 = Twist((0, Fraction(1, 2), 0), (3, 0, 0))
        s = apply_adjoint(g, MultiScrew((t1, t2)))
        assert s[0] == transform_twist(g, t1)
        assert s[1] == transform_twist(g, t2)


class TestPullback:
    def test_single_screw_images_match_display(self):
        system = pullback(ActionKind.TRANSLATION_SUB, 1)
        texts = [format_poly(img, system.order) for img in system.images]
        assert texts == [
            "w11",
            "w12",
            "w13",
            "t2*w13 - t3*w12 + v11",
            "-t1*w13 + t3*w11 + v12",
            "t1*w12 - t2*w11 + v13",
        ]

    def test_two_screw_order_chain(self):
        system = pullback(ActionKind.TRANSLATION_SUB, 2)
        assert system.order.priority == (
            "t1", "t2", "t3",
            "w11", "w12", "w13", "w21", "w22", "w23",
            "v11", "v12", "v13", "v21", "v22", "v23",
        )
        assert system.order.eliminates(system.group_vars)

    def test_identity_section(self):
        for kind in ActionKind:
            system = pullback(kind, 2)
            space = screw_varset(2)
            idvals = {name: int(name == "q0") for name in system.group_vars}
            for name, img in system.image_map().items():
                images = {}
                for used in img.used_variables():
                    if used in idvals:
                        images[used] = Polynomial.constant(space, idvals[used])
                    else:
                        images[used] = Polynomial.variable(space, used)
                assert img.substitute(images) == Polynomial.variable(space, name), (kind, name)

    def test_group_vars_zeroed_give_coordinates(self):
        system = pullback(ActionKind.TRANSLATION_SUB, 1)
        space = screw_varset(1)
        for name, img in system.image_map().items():
            images = {
                used: Polynomial.constant(space, 0) if used in system.group_vars
                else Polynomial.variable(space, used)
                for used in img.used_variables()
            }
            assert img.substitute(images) == Polynomial.variable(space, name)

    def test_projective_kinds_rejected_as_seeds(self):
        for kind in (ActionKind.ROTATION_SUB, ActionKind.FULL_ADJOINT):
            system = pullback(kind, 1)
            assert system.projective
            with pytest.raises(ValueError):
                system.seed_generators()

    def test_bad_screw_count(self):
        with pytest.raises(ValueError):
            pullback(ActionKind.TRANSLATION_SUB, 0)

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_kind_value_builds_the_kinds_system(self, kind):
        system = pullback(kind.value, 2)
        assert system == pullback(kind, 2) and system.kind is kind
        if kind is ActionKind.TRANSLATION_SUB:
            seed, expected = system.seed_generators(), pullback(kind, 2).seed_generators()
            assert list(seed.gens) == list(expected.gens) and seed.order == expected.order

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid ActionKind"):
            pullback("bogus", 1)

    @pytest.mark.parametrize("m", [1, 2])
    def test_rotation_families_are_so3_images_on_an_axis(self, m):
        # each family is the so3 pullback with the other two quaternion
        # components set to 0
        so3 = pullback(ActionKind.ROTATION_SUB, m)
        families = list(group._families(ActionKind.ROTATION_SUB, m))
        assert [vs.names[:2] for vs, _, _ in families] == [("q0", axis) for axis in group.ROTATION_AXES]
        for vs, images, _ in families:
            restrict = {
                name: Polynomial.variable(vs, name) if name in vs else Polynomial.zero(vs)
                for name in so3.varset.names
            }
            assert images.keys() == set(so3.space_vars)
            for name, image in so3.image_map().items():
                assert images[name] == image.substitute(restrict), (vs.names[1], name)

    @pytest.mark.parametrize(
        "names",
        [
            ("q0", "w11", "w12", "w13", "v11", "v12", "v13", "q3"),
            ("w11", "w12", "w13", "v11", "v12", "v13", "t1"),
            ("t1", "w11", "t2", "w12", "w13", "v11", "v12", "v13"),
        ],
        ids=["trailing q3", "trailing t1", "t2 after a screw variable"],
    )
    def test_images_refuse_a_group_variable_after_the_screw(self, names):
        with pytest.raises(ValueError, match="^the group variables must lead the variable set$"):
            group._images(VariableSet(names), 1)


class TestSymbolicInvariance:
    def test_klein_full_adjoint(self):
        vs = screw_varset(1)
        assert check_invariant_symbolic(klein_form(vs, 1), ActionKind.FULL_ADJOINT, 1)

    def test_mixed_full_adjoint_two_screws(self):
        vs = screw_varset(2)
        assert check_invariant_symbolic(mixed_form(vs, 1, 2), ActionKind.FULL_ADJOINT, 2)

    def test_lone_cross_term_not_translation_invariant(self):
        vs = screw_varset(2)
        f = parse("w11*v21 + w12*v22 + w13*v23", vs)
        assert not check_invariant_symbolic(f, ActionKind.TRANSLATION_SUB, 2)

    def test_inhomogeneous_combination(self):
        # sums of invariants of different degrees must still pass
        vs = screw_varset(1)
        f = killing_dot(vs, 1, 1) + klein_form(vs, 1) ** 2 + 3
        assert check_invariant_symbolic(f, ActionKind.FULL_ADJOINT, 1)

    def test_wrong_varset_rejected(self):
        vs = screw_varset(2)
        with pytest.raises(ValueError):
            check_invariant_symbolic(klein_form(vs, 2), ActionKind.FULL_ADJOINT, 1)

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_kind_value_gives_the_kinds_answer(self, kind):
        vs = screw_varset(1)
        for f in (Polynomial.variable(vs, "w11"), Polynomial.variable(vs, "v11"), klein_form(vs, 1)):
            assert check_invariant_symbolic(f, kind.value, 1) is check_invariant_symbolic(f, kind, 1)
        # w11 is moved by every rotation and by no translation
        assert check_invariant_symbolic(Polynomial.variable(vs, "w11"), "t3", 1)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid ActionKind"):
            check_invariant_symbolic(klein_form(screw_varset(1), 1), "bogus", 1)

    THREE_SCREW = dict(se3_generator_catalog(3).entries)

    @pytest.mark.parametrize("product", [("mixed_12", "mixed_12"), ("bracket_sum", "dot_11")])
    def test_large_three_screw_products(self, product):
        # one check of each took 3-12 s when the whole group was substituted
        f = self.THREE_SCREW[product[0]] * self.THREE_SCREW[product[1]]
        w11 = Polynomial.variable(screw_varset(3), "w11")
        assert check_invariant_symbolic(f, ActionKind.FULL_ADJOINT, 3)
        assert not check_invariant_symbolic(f + w11, ActionKind.FULL_ADJOINT, 3)


def _reference_check_invariant_symbolic(f, kind, m):
    """The whole-group substitution oracle: every rotation and translation at once.

    Substitutes the action with symbolic group parameters and compares
    polynomials.  For rotation-bearing kinds the substituted images carry a
    cleared |q|^2 denominator each, so each homogeneous component of degree
    d in the screw coordinates is compared against |q|^(2d) times itself;
    since the action is linear this per-degree test is exactly equivalent
    to invariance.
    """
    space = screw_varset(m)
    if f.varset != space:
        raise ValueError(f"polynomial must live over the {m}-screw variable set")
    system = pullback(kind, m)
    images = system.image_map()
    if kind is ActionKind.TRANSLATION_SUB:
        return f.substitute(images) == f.rename(system.varset)
    vs = system.varset
    q0, q = Polynomial.variable(vs, "q0"), symbolic_vector(vs, "q")
    norm2 = q0 * q0 + dot(q, q)
    for degree, component in f.degree_components().items():
        lhs = component.substitute(images)
        rhs = norm2 ** degree * component.rename(vs)
        if lhs != rhs:
            return False
    return True


def _parity_corpus():
    """(label, polynomial, screws, expected (se3, so3, t3) answers or None)."""
    vs1 = screw_varset(1)
    w1, v1 = symbolic_vector(vs1, "w1"), symbolic_vector(vs1, "v1")
    corpus = [
        # invariant under rotations about one axis only, and under translations
        ("w11^2+w12^2", parse("w11^2 + w12^2", vs1), 1, (False, False, True)),
        ("w12^2+w13^2", parse("w12^2 + w13^2", vs1), 1, (False, False, True)),
        ("w1.w1*w13", dot(w1, w1) * w1[2], 1, (False, False, True)),
        ("v1.v1", dot(v1, v1), 1, (False, True, False)),
        ("w11", parse("w11", vs1), 1, (False, False, True)),
        ("constant m=1", Polynomial.constant(vs1, Fraction(-7, 3)), 1, (True, True, True)),
        ("constant m=3", Polynomial.constant(screw_varset(3), 5), 3, (True, True, True)),
        ("zero m=2", Polynomial.zero(screw_varset(2)), 2, (True, True, True)),
        ("z_121", z_poly(1, 2, 1), 3, None),
    ]
    catalogs = [(f"se3 m={m}", m, se3_generator_catalog(m)) for m in (1, 2, 3)]
    catalogs.append(("t3 m=3", 3, translation_sagbi_catalog(3)))
    for label, m, catalog in catalogs:
        vs = screw_varset(m)
        for name, p in catalog:
            corpus.append((f"{label} {name}", p, m, None))
            for extra in ("w11*w12", "v11"):
                corpus.append((f"{label} {name} + {extra}", p + parse(extra, vs), m, None))
    return corpus


class TestReferenceParity:
    """The subgroup oracle answers as the whole-group substitution does."""

    KINDS = (ActionKind.FULL_ADJOINT, ActionKind.ROTATION_SUB, ActionKind.TRANSLATION_SUB)

    @pytest.mark.parametrize(
        "f,m,expected", [pytest.param(f, m, e, id=label) for label, f, m, e in _parity_corpus()]
    )
    def test_same_answer_for_every_kind(self, f, m, expected):
        got = tuple(check_invariant_symbolic(f, kind, m) for kind in self.KINDS)
        reference = tuple(_reference_check_invariant_symbolic(f, kind, m) for kind in self.KINDS)
        assert got == reference
        if expected is not None:
            assert got == expected


class TestSampledInvariance:
    def test_killing_form_passes(self):
        vs = screw_varset(1)
        res = check_invariant_sampled(killing_dot(vs, 1, 1), ActionKind.FULL_ADJOINT, 1, 100, 7)
        assert res.ok and bool(res) is True and res.counterexample is None

    def test_three_screw_catalog_passes(self):
        for name, p in se3_generator_catalog(3):
            res = check_invariant_sampled(p, ActionKind.FULL_ADJOINT, 3, 100, 7)
            assert res.ok, name

    def test_bare_coordinate_fails_with_counterexample(self):
        vs = screw_varset(1)
        res = check_invariant_sampled(Polynomial.variable(vs, "v11"), ActionKind.FULL_ADJOINT, 1)
        assert not res.ok and bool(res) is False
        ce = res.counterexample
        assert ce is not None and ce.before != ce.after
        # the counterexample replays exactly
        f = Polynomial.variable(vs, "v11")
        assert f.evaluate(ce.screw.coordinates()) == ce.before
        assert f.evaluate(apply_adjoint(ce.element(), ce.screw).coordinates()) == ce.after

    @pytest.mark.parametrize(
        "n_samples, m, message",
        [
            (0, 1, "need at least one sample"),
            (-1, 1, "need at least one sample"),
            (8, 2, "polynomial must live over the 2-screw variable set"),
        ],
    )
    def test_bad_arguments_rejected(self, n_samples, m, message):
        f = killing_dot(screw_varset(1), 1, 1)
        with pytest.raises(ValueError) as exc:
            check_invariant_sampled(f, ActionKind.FULL_ADJOINT, m, n_samples)
        assert str(exc.value) == message

    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_kind_value_gives_the_kinds_answer(self, kind):
        vs = screw_varset(1)
        for f in (Polynomial.variable(vs, "w11"), Polynomial.variable(vs, "v11"), klein_form(vs, 1)):
            assert check_invariant_sampled(f, kind.value, 1, 8) == check_invariant_sampled(f, kind, 1, 8)
        assert check_invariant_sampled(Polynomial.variable(vs, "w11"), "t3", 1).ok

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid ActionKind"):
            check_invariant_sampled(killing_dot(screw_varset(1), 1, 1), "bogus", 1)

    @pytest.mark.parametrize(
        "n_samples, seed",
        [(True, 7), (2.0, 7), ("8", 7), (8, 1.5), (8, "x"), (8, False), (8, None)],
    )
    def test_non_int_count_or_seed_refused(self, n_samples, seed):
        f = killing_dot(screw_varset(1), 1, 1)
        with pytest.raises(TypeError, match="^n_samples and seed must be ints$"):
            check_invariant_sampled(f, ActionKind.FULL_ADJOINT, 1, n_samples, seed)

    def test_deterministic_given_seed(self):
        vs = screw_varset(1)
        f = Polynomial.variable(vs, "v11")
        a = check_invariant_sampled(f, ActionKind.FULL_ADJOINT, 1, 8, 123)
        b = check_invariant_sampled(f, ActionKind.FULL_ADJOINT, 1, 8, 123)
        assert a.counterexample == b.counterexample


def _reference_check_invariant_sampled(f, kind, m, n_samples=DEFAULT_SAMPLES, seed=DEFAULT_SEED):
    """The Fraction loop the sampled oracle decides in ints: the same draws,
    a screw of Fractions, and `evaluate` at it and at its `apply_adjoint` image."""
    for index in range(n_samples):
        rng = random.Random(seed * 1_000_003 + index)
        q, rotation = None, Rotation(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)
        if kind is not ActionKind.TRANSLATION_SUB:
            while True:
                comps = [rng.randint(-100, 100) for _ in range(4)]
                if any(comps):
                    break
            q = RationalQuaternion(*comps)
            rotation = rotation_from_quaternion(q)
        t = (Fraction(0), Fraction(0), Fraction(0))
        if kind is not ActionKind.ROTATION_SUB:
            t = tuple(Fraction(rng.randint(-1000, 1000)) for _ in range(3))
        twists = []
        for _ in range(m):
            coords = [Fraction(rng.randint(-100, 100), rng.randint(1, 16)) for _ in range(6)]
            twists.append(Twist(coords[:3], coords[3:]))
        s = MultiScrew(tuple(twists))
        before = f.evaluate(s.coordinates())
        after = f.evaluate(apply_adjoint(EuclideanElement(rotation, t), s).coordinates())
        if before != after:
            return SampledCheck(False, Counterexample(q, t, s, before, after))
    return SampledCheck(True)


def _sampled_corpus():
    """(label, polynomial, screws) on 1..3 screws: catalog members and their
    perturbations, fractional coefficients, constant terms, inhomogeneous
    forms, forms in a subset of the variables and the zero polynomial."""
    corpus = []
    for m in (1, 2, 3):
        vs = screw_varset(m)
        texts = [
            "v11",
            "w11",
            f"1/3*w11*v{m}1 + w{m}2^2 - 5/7",
            f"w11*w{m}2 + 2/5*v{m}3^3 - 3",
            f"7/2*v12*v{m}1 - 1/9*w13 + v11^2*w{m}3",
            "-4/3",
        ]
        corpus += [(f"m={m} {text}", parse(text, vs), m) for text in texts]
        corpus.append((f"m={m} zero", Polynomial.zero(vs), m))
        for name, p in list(se3_generator_catalog(m))[:4]:
            corpus.append((f"m={m} se3 {name}", p, m))
            corpus.append((f"m={m} se3 {name} + 1/2*w11*v{m}2", p + parse(f"1/2*w11*v{m}2", vs), m))
            # invariant and inhomogeneous: each degree is scaled differently
            corpus.append((f"m={m} se3 {name}^2/7 + {name} - 5/3", p * p / 7 + p - Fraction(5, 3), m))
        for name, p in list(translation_sagbi_catalog(m))[:3]:
            corpus.append((f"m={m} t3 {name} - 2/3", p - Fraction(2, 3), m))
    return corpus


class TestSampledAgreement:
    """The integer per-sample test returns what the Fraction loop returns:
    the same `ok` and the same counterexample, on every kind and seed."""

    @pytest.mark.parametrize("f,m", [pytest.param(f, m, id=label) for label, f, m in _sampled_corpus()])
    def test_same_outcome_as_fraction_loop(self, f, m):
        for kind in ActionKind:
            for seed in (0, 7):
                got = check_invariant_sampled(f, kind, m, 8, seed)
                assert got == _reference_check_invariant_sampled(f, kind, m, 8, seed), (kind, seed)

    def test_default_arguments_match(self):
        f = parse("w11*v21 + 1/3", screw_varset(2))
        for kind in ActionKind:
            assert check_invariant_sampled(f, kind, 2) == _reference_check_invariant_sampled(f, kind, 2)

    def test_counterexample_is_cross_checked(self, monkeypatch):
        # an integer mismatch is rebuilt in Fractions through apply_adjoint;
        # if that rebuild finds no mismatch, the oracle refuses to answer
        monkeypatch.setattr(group, "apply_adjoint", lambda g, s: s)
        f = Polynomial.variable(screw_varset(1), "w11")
        with pytest.raises(RuntimeError, match="disagree"):
            check_invariant_sampled(f, ActionKind.FULL_ADJOINT, 1)


class TestOracleAgreement:
    # symbolic and sampled answers must agree across the module corpus
    CORPUS = []
    vs1 = screw_varset(1)
    vs2 = screw_varset(2)
    CORPUS.append((klein_form(vs1, 1), 1, True))
    CORPUS.append((killing_dot(vs1, 1, 1), 1, True))
    CORPUS.append((Polynomial.variable(vs1, "w11"), 1, False))
    CORPUS.append((Polynomial.variable(vs1, "v12"), 1, False))
    CORPUS.append((mixed_form(vs2, 1, 2), 2, True))
    CORPUS.append((parse("w11*v21 + w12*v22 + w13*v23", vs2), 2, False))
    CORPUS.append((killing_dot(vs2, 1, 2) * klein_form(vs2, 1), 2, True))

    @pytest.mark.parametrize("f,m,expected", CORPUS)
    def test_agreement(self, f, m, expected):
        symbolic = check_invariant_symbolic(f, ActionKind.FULL_ADJOINT, m)
        sampled = check_invariant_sampled(f, ActionKind.FULL_ADJOINT, m)
        assert symbolic == expected
        assert sampled.ok == expected

    def test_subgroup_consistency(self):
        # full invariance implies invariance under both sub-actions
        for m in (1, 2):
            for name, p in se3_generator_catalog(m):
                assert check_invariant_symbolic(p, ActionKind.ROTATION_SUB, m), name
                assert check_invariant_symbolic(p, ActionKind.TRANSLATION_SUB, m), name


class TestTranslationBasis:
    def test_single_screw_reproduction(self):
        res = translation_invariant_basis(1)
        assert res.complete
        catalog = translation_sagbi_catalog(1)
        assert [format_poly(g) for g in res.basis] == [
            format_poly(p) for p in catalog.polynomials()
        ]

    def test_two_screw_reproduction_matches_catalog(self):
        res = translation_invariant_basis(2)
        assert res.complete and len(res.basis) == 10
        catalog = translation_sagbi_catalog(2)
        got = {g.leading_monomial(res.basis.order): g for g in res.basis}
        expected = {p.leading_monomial(): p for p in catalog.polynomials()}
        assert got == expected


class TestIntegerCoefficients:
    """The paper's polynomials are integral, and their coefficients are
    stored as ints: the SAGBI and invariance work runs on int arithmetic."""

    @staticmethod
    def coefficient_types(polys) -> set:
        return {type(c) for p in polys for c in p.terms.values()}

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("kind", list(ActionKind))
    def test_pullback_images(self, kind, m):
        assert self.coefficient_types(pullback(kind, m).images) == {int}

    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("catalog", [se3_generator_catalog, translation_sagbi_catalog])
    def test_catalogs(self, catalog, m):
        assert self.coefficient_types(catalog(m).polynomials()) == {int}

    def test_three_screw_translation_basis(self):
        res = translation_invariant_basis(3, 5)
        assert len(res.basis) == 26
        assert self.coefficient_types(res.basis) == {int}

    def test_divided_values_stay_fractions(self):
        # outside polynomials the exact-number rule keeps Fractions, integral
        # or not: quaternions, vectors and radicals are divided, and an int
        # quotient would be a float
        q = RationalQuaternion(1, 1, 1, 0)
        assert {type(c) for c in q.components()} == {Fraction}
        r = rotation_from_quaternion(q)
        assert r.entries[0] == (Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
        assert {type(e) for row in r.entries for e in row} == {Fraction}
        g = EuclideanElement(r, (1, 2, 3))
        assert {type(c) for c in g.translation} == {Fraction}
        assert pitch(Twist((0, 0, 3), (0, 0, 1))).value == Fraction(1, 3)
        assert ExactRadical(1, 3).squared() == Fraction(1, 3)


class TestIntegerGroupElements:
    """A rotation is an integer matrix M over one int n; the adjoint matrix
    is an integer 6x6 A over one int d.  The Fraction matrices are views."""

    @staticmethod
    def elements():
        rng = random.Random(41)
        singles = [random_element(rng) for _ in range(20)]
        # translations with denominators, then products of such elements
        fractional = [
            EuclideanElement(g.rotation, tuple(c / rng.randint(2, 9) for c in g.translation))
            for g in singles
        ]
        composed = [a.compose(b) for a, b in zip(fractional, reversed(fractional))]
        return [EuclideanElement.identity()] + singles + fractional + composed

    def test_numerators_and_denominators_are_ints(self):
        for g in self.elements():
            r = g.rotation
            assert {type(x) for row in r.numerator for x in row} | {type(r.denominator)} == {int}
            assert r.denominator > 0
            assert math.gcd(r.denominator, *(x for row in r.numerator for x in row)) == 1
            a, d = _scaled_adjoint(g)
            assert len(a) == 6 and all(len(row) == 6 for row in a)
            assert {type(x) for row in a for x in row} | {type(d)} == {int}
            assert d > 0

    def test_entries_are_numerator_over_denominator(self):
        r = rotation_from_quaternion(RationalQuaternion(1, 1, 1, 0))
        assert r.numerator == ((1, 2, 2), (2, 1, -2), (-2, 2, -1)) and r.denominator == 3
        assert r.entries[1] == (Fraction(2, 3), Fraction(1, 3), Fraction(-2, 3))

    @pytest.mark.parametrize("k", [3, -2, Fraction(2, 7), Fraction(-5, 3)])
    def test_scaled_quaternions_give_one_rotation(self, k):
        rng = random.Random(43)
        for _ in range(100):
            comps = [rng.randint(-30, 30) for _ in range(3)] + [rng.randint(1, 30)]
            r = rotation_from_quaternion(RationalQuaternion(*comps))
            scaled = rotation_from_quaternion(RationalQuaternion(*(k * c for c in comps)))
            assert scaled == r and hash(scaled) == hash(r)
            assert (scaled.numerator, scaled.denominator) == (r.numerator, r.denominator)

    @pytest.mark.parametrize("k", [2, 3, 17])
    def test_scaled_numerator_and_denominator_give_one_rotation(self, k):
        rng = random.Random(47)
        for _ in range(100):
            comps = [rng.randint(-30, 30) for _ in range(3)] + [rng.randint(1, 30)]
            r = rotation_from_quaternion(RationalQuaternion(*comps))
            m, n = r.numerator, r.denominator
            rebuilt = Rotation(tuple(tuple(k * x for x in row) for row in m), k * n)
            assert rebuilt == r and hash(rebuilt) == hash(r)
            assert (rebuilt.numerator, rebuilt.denominator) == (m, n)

    def test_adjoint_matrix_is_a_over_d(self):
        for g in self.elements():
            a, d = _scaled_adjoint(g)
            expected = tuple(tuple(Fraction(x, d) for x in row) for row in a)
            assert adjoint_matrix(g) == expected
            r, t = g.rotation.entries, g.translation
            tr = transpose([cross(t, column) for column in transpose(r)])
            assert expected == tuple(row + (0, 0, 0) for row in r) + tuple(
                x + y for x, y in zip(tr, r)
            )

    @pytest.mark.parametrize(
        "numerator, denominator, error",
        [
            (((1, 1, 0), (0, 1, 0), (0, 0, 1)), 1, ValueError),  # not orthogonal
            (((3, 0, 0), (0, 3, 0), (0, 0, 3)), 2, ValueError),  # M^T M = 9 I, not 4 I
            (((1, 0, 0), (0, 1, 0), (0, 0, -1)), 1, ValueError),  # a reflection
            (((-1, 0, 0), (0, -1, 0), (0, 0, -1)), 1, ValueError),  # -I, det -1
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), -1, ValueError),  # negative scale
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), Fraction(1), TypeError),
            (((Fraction(1), 0, 0), (0, 1, 0), (0, 0, 1)), 1, TypeError),
            (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0, ValueError),  # zero scale
            (((True, 0, 0), (0, 1, 0), (0, 0, 1)), 1, TypeError),
            (((1, 0), (0, 1)), 1, ValueError),  # 2x2
            (((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)), 1, ValueError),  # 4x3
            (((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), 1, ValueError),  # 3x4
            *((numerator, denominator, ValueError) for numerator, denominator in ONE_WRONG_GRAM_ENTRY),
        ],
    )
    def test_integer_constructor_checks(self, numerator, denominator, error):
        with pytest.raises(error):
            Rotation(numerator, denominator)

    @pytest.mark.parametrize("numerator, denominator", ONE_WRONG_GRAM_ENTRY)
    def test_one_wrong_gram_entry_is_refused_as_not_orthogonal(self, numerator, denominator):
        # the determinant check would refuse these too; the message shows
        # that the orthogonality check saw the one wrong entry of M^T M
        with pytest.raises(ValueError, match=NOT_ORTHOGONAL):
            Rotation(numerator, denominator)

    def test_every_unit_change_to_a_quaternion_matrix_is_refused(self):
        # a +-1 change to one entry changes its column's norm by an odd
        # amount, so the orthogonality check refuses it before the determinant
        rng = random.Random(43)
        for _ in range(200):
            a = [rng.randint(-100, 100) for _ in range(4)]
            raw, n = group._quaternion_matrix_raw(*a), sum(x * x for x in a)
            assert Rotation(raw, n) == rotation_from_quaternion(RationalQuaternion(*a))
            for i in range(3):
                for j in range(3):
                    for step in (-1, 1):
                        changed = [list(row) for row in raw]
                        changed[i][j] += step
                        with pytest.raises(ValueError, match=NOT_ORTHOGONAL):
                            Rotation(changed, n)

    def test_constructor_reduces_and_accepts_any_rows(self):
        r = Rotation([[3, 6, 6], [6, 3, -6], [-6, 6, -3]], 9)
        assert r.numerator == ((1, 2, 2), (2, 1, -2), (-2, 2, -1)) and r.denominator == 3
        assert r == rotation_from_quaternion(RationalQuaternion(1, 1, 1, 0))
        assert repr(r) == "Rotation(((1, 2, 2), (2, 1, -2), (-2, 2, -1)), 3)"

    def test_verify_homomorphism_check_catches_wrong_order(self, monkeypatch):
        assert check_property_suites().passed
        compose = EuclideanElement.compose
        monkeypatch.setattr(EuclideanElement, "compose", lambda self, other: compose(other, self))
        item = check_property_suites()
        assert not item.passed
        assert item.detail == "adjoint homomorphism failed"


class TestSerialization:
    def test_group_sample_round_trip(self):
        q = RationalQuaternion(3, -1, Fraction(1, 2), 0)
        t = (Fraction(1, 2), Fraction(-3), Fraction(4))
        text = format_group_sample(q, t)
        assert text == "q: 3 -1 1/2 0; t: 1/2 -3 4"
        qtext, ttext = text.split(";")
        assert [parse_rational(x) for x in qtext.split()[1:]] == list(q.components())
        assert [parse_rational(x) for x in ttext.split()[1:]] == list(t)
