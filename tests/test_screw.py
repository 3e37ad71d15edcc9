"""Twists, pitch, catalogs, Gram syzygies, z determinants, DH pairs."""

import math
import random
from fractions import Fraction

import pytest

from screwinv.group import (
    ActionKind,
    EuclideanElement,
    RationalQuaternion,
    apply_adjoint,
    check_invariant_sampled,
    check_invariant_symbolic,
    rotation_from_quaternion,
    transform_twist,
)
from screwinv.parsing import parse
from screwinv.poly import Polynomial
from screwinv import screw as screw_module
from screwinv.screw import (
    TWO_SCREW_CUBIC,
    Catalog,
    ExactRadical,
    JointType,
    MultiScrew,
    Pitch,
    Twist,
    cross,
    det,
    dh_invariants,
    format_multiscrew,
    gram_minor,
    joint_type,
    parse_multiscrew,
    pitch,
    screw_varset,
    se3_generator_catalog,
    so3_sagbi_catalog,
    so3_vector_invariants,
    symbolic_vector,
    translation_sagbi_catalog,
    two_screw_tete_a_tete_input,
    vector_varset,
    z_poly,
)
from screwinv.verification import check_two_screw_sagbi

REVOLUTE = Twist((0, 0, 1), (0, 0, 0))
PRISMATIC = Twist((0, 0, 0), (1, 0, 0))
HELICAL = Twist((0, 0, 1), (0, 0, 3))


def random_element(rng: random.Random) -> EuclideanElement:
    while True:
        comps = [rng.randint(-100, 100) for _ in range(4)]
        if any(comps):
            break
    q = RationalQuaternion(*comps)
    t = tuple(Fraction(rng.randint(-1000, 1000)) for _ in range(3))
    return EuclideanElement(rotation_from_quaternion(q), t)



def axis_screw(w, p, h) -> Twist:
    """The screw of pitch `h` about the axis through point `p` along `w`:
    v = p x w + h w."""
    w = tuple(Fraction(c) for c in w)
    return Twist(w, tuple(a + h * c for a, c in zip(cross(tuple(map(Fraction, p)), w), w)))

# a float, a string and a bool: none is an exact rational to a constructor
INEXACT = [(0.1, TypeError), ("1/3", TypeError), (True, ValueError)]


class TestPitch:
    def test_canonical_classifications(self):
        assert pitch(REVOLUTE) == Pitch.finite(0)
        assert pitch(PRISMATIC) == Pitch.infinite()
        assert pitch(HELICAL) == Pitch.finite(3)
        assert pitch(Twist((0, 0, 0), (0, 0, 0))) == Pitch.undefined_zero_twist()

    def test_joint_types(self):
        assert joint_type(REVOLUTE) is JointType.R
        assert joint_type(PRISMATIC) is JointType.P
        assert joint_type(HELICAL) is JointType.H

    def test_zero_twist_has_no_joint_type(self):
        with pytest.raises(ValueError):
            joint_type(Twist((0, 0, 0), (0, 0, 0)))

    @pytest.mark.parametrize("value, error", INEXACT)
    def test_finite_pitch_rejects_inexact_value(self, value, error):
        with pytest.raises(error):
            Pitch.finite(value)

    @pytest.mark.parametrize("omega, vee", [((0, 1), (0, 0, 0)), ((0, 0, 1), (0, 0)), ((0, 0, 1), (0, 0, 0, 0))])
    def test_twist_rejects_a_part_without_three_components(self, omega, vee):
        with pytest.raises(ValueError, match="expected exactly three components"):
            Twist(omega, vee)

    @pytest.mark.parametrize("value, error", INEXACT)
    def test_twist_rejects_inexact_components(self, value, error):
        with pytest.raises(error):
            Twist((value, 0, 0), (0, 0, 0))

    @pytest.mark.parametrize("value, text", [
        (Pitch.finite(Fraction(-3, 2)), "Pitch.finite(-3/2)"),
        (Pitch.finite(0), "Pitch.finite(0)"),
        (Pitch.infinite(), "Pitch.infinite()"),
        (Pitch.undefined_zero_twist(), "Pitch.undefined_zero_twist()"),
    ])
    def test_repr(self, value, text):
        assert repr(value) == text

    def test_pitch_is_ratio_of_forms(self):
        t = Twist((1, 2, 2), (3, 0, Fraction(3, 2)))
        # (w.v)/(w.w) = (3 + 0 + 3)/9
        assert pitch(t) == Pitch.finite(Fraction(6, 9))

    def test_pitch_invariance_sampled(self):
        rng = random.Random(41)
        for t in (REVOLUTE, PRISMATIC, HELICAL):
            for _ in range(100):
                assert pitch(transform_twist(random_element(rng), t)) == pitch(t)

    def test_translation_twist_stays_prismatic(self):
        rng = random.Random(43)
        for _ in range(50):
            g = random_element(rng)
            assert pitch(transform_twist(g, PRISMATIC)) == Pitch.infinite()


class TestSo3Catalogs:
    def test_vector_invariant_counts(self):
        assert len(so3_vector_invariants(1)) == 1
        assert len(so3_vector_invariants(2)) == 3
        assert len(so3_vector_invariants(3)) == 6 + 1

    def test_m1_is_squared_norm(self):
        (f,) = so3_vector_invariants(1)
        assert f == parse("x11^2 + x12^2 + x13^2", vector_varset(1))

    def test_sagbi_catalog_counts(self):
        assert len(so3_sagbi_catalog(1)) == 1
        assert len(so3_sagbi_catalog(2)) == 4  # three dots plus the 2x2 minor
        # six dots, six distinct 2x2 minors (transposes coincide), one bracket
        assert len(so3_sagbi_catalog(3)) == 6 + 6 + 1

    def test_no_vectors_rejected(self):
        with pytest.raises(ValueError, match="need at least one vector"):
            so3_vector_invariants(0)
        with pytest.raises(ValueError, match="need at least one vector"):
            so3_sagbi_catalog(0)

    def test_catalog_rotation_invariance_via_doubling(self):
        # SO(3) on 2k vectors is the rotation sub-action on k screws:
        # rename x_{2i-1} -> w_i and x_{2i} -> v_i and sample-check
        catalog = so3_sagbi_catalog(2)
        target = screw_varset(1)
        mapping = {f"x1{n}": f"w1{n}" for n in (1, 2, 3)}
        mapping.update({f"x2{n}": f"v1{n}" for n in (1, 2, 3)})
        for name, p in catalog:
            renamed = p.rename(target, mapping)
            assert check_invariant_sampled(renamed, ActionKind.ROTATION_SUB, 1, 50, 3).ok, name

    def test_bracket_rotation_invariance_via_doubling(self):
        # three vectors fit into two screws (x1, x2, x3 -> w1, v1, w2), which
        # exercises the bracket determinants of the m=3 catalog
        catalog = so3_sagbi_catalog(3)
        target = screw_varset(2)
        mapping = {f"x1{n}": f"w1{n}" for n in (1, 2, 3)}
        mapping.update({f"x2{n}": f"v1{n}" for n in (1, 2, 3)})
        mapping.update({f"x3{n}": f"w2{n}" for n in (1, 2, 3)})
        for name, p in catalog:
            renamed = p.rename(target, mapping)
            assert check_invariant_sampled(renamed, ActionKind.ROTATION_SUB, 2, 50, 5).ok, name
            assert check_invariant_symbolic(renamed, ActionKind.ROTATION_SUB, 2), name


class TestGramMinors:
    def test_k1_is_dot(self):
        assert gram_minor([1], [1], m=1) == parse("x11^2 + x12^2 + x13^2", vector_varset(1))

    def test_orthonormal_pair_evaluation(self):
        f = gram_minor([1, 2], [1, 2], m=2)
        point = {"x11": 1, "x12": 0, "x13": 0, "x21": 0, "x22": 1, "x23": 0}
        assert f.evaluate(point) == 1

    def test_4x4_vanishes_symbolically(self):
        assert gram_minor([1, 2, 3, 4], [1, 2, 3, 4]).is_zero()

    def test_4x4_vanishes_numerically(self):
        # independent oracle: numeric Gram determinant at random vectors
        rng = random.Random(47)
        for _ in range(20):
            vectors = [
                [Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(3)]
                for _ in range(4)
            ]
            gram = [
                [sum(vectors[i][n] * vectors[j][n] for n in range(3)) for j in range(4)]
                for i in range(4)
            ]

            def det(mat):
                if len(mat) == 1:
                    return mat[0][0]
                total = Fraction(0)
                for j in range(len(mat)):
                    sub = [row[:j] + row[j + 1 :] for row in mat[1:]]
                    term = mat[0][j] * det(sub)
                    total += term if j % 2 == 0 else -term
                return total

            assert det(gram) == 0

    def test_nontrivial_3x3_minor(self):
        f = gram_minor([1, 2, 3], [1, 2, 3], m=3)
        assert not f.is_zero()
        # equals the squared bracket determinant
        vs = vector_varset(3)
        bracket = det([symbolic_vector(vs, f"x{t}") for t in (1, 2, 3)])
        assert f == bracket * bracket

    def test_index_validation(self):
        with pytest.raises(ValueError):
            gram_minor([1, 2], [1], m=2)
        with pytest.raises(ValueError):
            gram_minor([1, 5], [1, 2], m=4)


class TestGeneratorCatalogs:
    def test_counts_and_flags(self):
        assert len(se3_generator_catalog(1)) == 2
        assert len(se3_generator_catalog(2)) == 6
        cat3 = se3_generator_catalog(3)
        assert len(cat3) == 14
        assert cat3.conjectural and cat3.complete is None
        assert not se3_generator_catalog(2).conjectural
        with pytest.raises(ValueError):
            se3_generator_catalog(4)

    def test_single_screw_contents(self):
        catalog = dict(se3_generator_catalog(1).entries)
        vs = screw_varset(1)
        assert catalog["dot_11"] == parse("w11^2 + w12^2 + w13^2", vs)
        assert catalog["klein_1"] == parse("w11*v11 + w12*v12 + w13*v13", vs)

    def test_translation_catalog_counts(self):
        assert len(translation_sagbi_catalog(1)) == 4
        assert len(translation_sagbi_catalog(2)) == 10
        assert len(translation_sagbi_catalog(3)) == 21

    def test_translation_flags(self):
        assert translation_sagbi_catalog(1).complete is True
        assert translation_sagbi_catalog(2).complete is True
        assert translation_sagbi_catalog(3).complete is None

    def test_single_screw_fourth_element(self):
        catalog = translation_sagbi_catalog(1)
        assert catalog.entries[3][1] == parse(
            "w11*v11 + w12*v12 + w13*v13", screw_varset(1)
        )

    def test_two_screw_note_reports_discrepancy(self):
        catalog = translation_sagbi_catalog(2)
        assert any("w21^2*v23" in note for note in catalog.notes)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_translation_catalogs_invariant(self, m):
        for name, p in translation_sagbi_catalog(m):
            assert check_invariant_symbolic(p, ActionKind.TRANSLATION_SUB, m), name

    def test_m3_tail_not_rotation_invariant(self):
        catalog = dict(translation_sagbi_catalog(3).entries)
        for name in ("w11", "zdiff_121_323", "zdiff_232_131", "zdiff_313_212"):
            assert not check_invariant_symbolic(
                catalog[name], ActionKind.FULL_ADJOINT, 3
            ), name

    def test_se3_catalogs_fully_invariant(self):
        for m in (1, 2, 3):
            for name, p in se3_generator_catalog(m):
                assert check_invariant_symbolic(p, ActionKind.FULL_ADJOINT, m), (m, name)


class TestZPolynomials:
    def test_repeated_row_vanishes(self):
        assert z_poly(1, 1, 3).is_zero()
        assert z_poly(2, 2, 1).is_zero()

    def test_standard_basis_evaluation(self):
        point = {}
        for i in range(1, 4):
            for n in range(1, 4):
                point[f"w{i}{n}"] = 1 if i == n else 0
                point[f"v{i}{n}"] = 1 if i == n else 0
        # rows: (1,0,0), (0,1,0), third components of v's = (0,0,1)
        assert z_poly(1, 2, 3).evaluate(point) == 1

    def test_bracket_sum_identity(self):
        vs = screw_varset(3)
        zsum = z_poly(1, 2, 3) + z_poly(2, 3, 1) + z_poly(3, 1, 2)
        w1, w2, w3 = (symbolic_vector(vs, f"w{i}") for i in (1, 2, 3))
        v1, v2, v3 = (symbolic_vector(vs, f"v{i}") for i in (1, 2, 3))
        bsum = det([v1, w2, w3]) + det([w1, v2, w3]) + det([w1, w2, v3])
        assert zsum == bsum

    def test_z121_alone_not_invariant_but_difference_is(self):
        assert not check_invariant_symbolic(z_poly(1, 2, 1), ActionKind.TRANSLATION_SUB, 3)
        assert not check_invariant_symbolic(z_poly(3, 2, 3), ActionKind.TRANSLATION_SUB, 3)
        diff = z_poly(1, 2, 1) - z_poly(3, 2, 3)
        assert check_invariant_symbolic(diff, ActionKind.TRANSLATION_SUB, 3)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            z_poly(0, 1, 2)
        with pytest.raises(ValueError):
            z_poly(1, 2, 4)


class TestDhInvariants:
    def example_pair(self) -> MultiScrew:
        w2 = (Fraction(0), Fraction(3, 5), Fraction(4, 5))
        v2 = cross((Fraction(2), Fraction(0), Fraction(0)), w2)
        return MultiScrew((Twist((0, 0, 1), (0, 0, 0)), Twist(w2, v2)))

    def test_constructed_example(self):
        report = dh_invariants(self.example_pair())
        assert report.cos_alpha == Fraction(4, 5)
        assert report.d_sin_alpha == Fraction(6, 5)
        assert report.displacement == 2
        assert not report.parallel_axes
        assert report.d_float == pytest.approx(2.0)

    def test_identical_pure_rotations(self):
        t = Twist((0, 0, 1), (1, 0, 0))  # zero pitch: w.v = 0
        report = dh_invariants(MultiScrew((t, t)))
        assert report.cos_alpha == 1
        assert report.d_sin_alpha == 0
        assert report.parallel_axes and report.d_float is None

    def test_zero_angular_part_rejected(self):
        with pytest.raises(ValueError):
            dh_invariants(MultiScrew((PRISMATIC, REVOLUTE)))

    @pytest.mark.parametrize("count", [1, 3])
    def test_needs_exactly_two_screws(self, count):
        with pytest.raises(ValueError, match="DH pair invariants need exactly two screws"):
            dh_invariants(MultiScrew((REVOLUTE,) * count))

    def test_cauchy_schwarz_violation_raises(self, monkeypatch):
        # a real check, which `python -O` keeps, naming both dot products
        monkeypatch.setattr(ExactRadical, "squared", lambda self: Fraction(2))
        with pytest.raises(RuntimeError, match=r"\(w1\.w2\)\^2 = 16/25 .*\(w1\.w1\)\(w2\.w2\) = 1"):
            dh_invariants(self.example_pair())

    def test_report_is_adjoint_invariant(self):
        pair = self.example_pair()
        report = dh_invariants(pair)
        rng = random.Random(53)
        for _ in range(100):
            g = random_element(rng)
            moved = dh_invariants(apply_adjoint(g, pair))
            assert moved.cos_alpha == report.cos_alpha
            assert moved.d_sin_alpha == report.d_sin_alpha
            assert moved.displacement == report.displacement

    def test_scale_invariance_of_quotients(self):
        # radicands differ after scaling a screw, but the quotients agree
        pair = self.example_pair()
        scaled = MultiScrew(
            (
                Twist([3 * c for c in pair[0].omega], [3 * c for c in pair[0].vee]),
                pair[1],
            )
        )
        a, b = dh_invariants(pair), dh_invariants(scaled)
        assert a.cos_alpha == b.cos_alpha
        assert a.displacement == b.displacement

    def test_pitched_pair_at_known_distance(self):
        # the example pair's axes, 2 apart at cos alpha = 4/5, with pitch 1
        # on screw 1 (the README pair with v1 = (0, 0, 1)) and then also
        # pitch -2 on screw 2; klein_cross stays the raw w1.v2 + w2.v1
        w2 = (0, Fraction(3, 5), Fraction(4, 5))
        for h2, kc in ((0, 2), (-2, Fraction(2, 5))):
            pair = MultiScrew((axis_screw((0, 0, 1), (0, 0, 0), 1), axis_screw(w2, (2, 0, 0), h2)))
            report = dh_invariants(pair)
            assert report.klein_cross == kc
            assert report.cos_alpha == Fraction(4, 5)
            assert report.d_sin_alpha == Fraction(6, 5)
            assert report.displacement == 2 and report.d_float == pytest.approx(2.0)

    def test_parallel_pitched_axes_give_zero(self):
        # the dh_parallel golden pair: screw 2 has pitch -5/2, and all of
        # w1.v2 + w2.v1 = 5 is the pitch term
        pair = parse_multiscrew("0 0 1 0 0 0\n0 0 -2 2 1 5\n")
        report = dh_invariants(pair)
        assert report.klein_cross == 5 and report.d_sin_alpha == 0
        assert report.parallel_axes and report.displacement is None
        rng = random.Random(59)
        for _ in range(50):
            w = (0, 0, 0)
            while not any(w):
                w = tuple(rng.randint(-4, 4) for _ in range(3))
            scale = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
            points = [tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 5)) for _ in range(3)) for _ in range(2)]
            h1, h2 = (Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(2))
            pair = MultiScrew((axis_screw(w, points[0], h1), axis_screw([scale * c for c in w], points[1], h2)))
            report = dh_invariants(pair)
            assert report.parallel_axes and report.d_sin_alpha == 0 and report.displacement is None

    def test_pitched_report_is_adjoint_and_scale_invariant(self):
        w2 = (1, Fraction(3, 5), Fraction(4, 5))
        pair = MultiScrew((axis_screw((0, 2, 1), (1, -1, 3), Fraction(5, 2)), axis_screw(w2, (2, 7, 0), -3)))
        report = dh_invariants(pair)
        assert report.d_sin_alpha != 0
        rng = random.Random(61)
        moved_pairs = [apply_adjoint(random_element(rng), pair) for _ in range(100)]
        for k in (Fraction(1, 3), 3, 7):
            t1, t2 = (Twist([k * c for c in t.omega], [k * c for c in t.vee]) for t in pair)
            moved_pairs += [MultiScrew((t1, pair[1])), MultiScrew((pair[0], t2))]
        for moved in moved_pairs:
            other = dh_invariants(moved)
            assert other.cos_alpha == report.cos_alpha
            assert other.d_sin_alpha == report.d_sin_alpha
            assert other.displacement == report.displacement

    def test_standard_pitched_pairs_round_trip(self):
        # a standard DH pair: screw 1 about the z axis, screw 2 about the
        # axis through (d, 0, 0) along (0, s, c), so cos alpha = c/sqrt(s^2 + c^2)
        # and the axes are d apart; nonzero pitches, moved by a seeded
        # exact rigid motion, must give back (cos alpha, d) exactly
        rng = random.Random(67)
        for _ in range(60):
            k1 = rng.randint(1, 5)
            s, c = rng.randint(1, 9), rng.randint(-9, 9)
            d = Fraction(rng.choice([-1, 1]) * rng.randint(1, 30), rng.randint(1, 7))
            h1, h2 = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 7)) for _ in range(2))
            pair = MultiScrew((axis_screw((0, 0, k1), (0, 0, 0), h1), axis_screw((0, s, c), (d, 0, 0), h2)))
            report = dh_invariants(apply_adjoint(random_element(rng), pair))
            assert report.cos_alpha == ExactRadical(c, s * s + c * c)
            assert report.d_sin_alpha == ExactRadical(d * s, s * s + c * c)
            assert report.displacement == d

    def test_exact_radical_behaviour(self):
        r = ExactRadical(Fraction(4, 5), 1)
        assert r == Fraction(4, 5)
        assert r.as_fraction() == Fraction(4, 5)
        s = ExactRadical(2, 2)  # 2/sqrt(2) = sqrt(2)
        assert s.as_fraction() is None
        assert s == ExactRadical(4, 8)
        assert s != ExactRadical(-2, 2)
        assert float(s) == pytest.approx(2 ** 0.5)
        with pytest.raises(ValueError):
            ExactRadical(1, 0)

    def test_exact_radical_repr_and_foreign_equality(self):
        assert repr(ExactRadical(1, 2)) == "ExactRadical(1/sqrt(2))"
        assert repr(ExactRadical(Fraction(-3, 2), Fraction(5, 7))) == "ExactRadical(-3/2/sqrt(5/7))"
        assert repr(ExactRadical(2, 4)) == "ExactRadical(1)"
        assert ExactRadical(1, 2).__eq__("x") is NotImplemented
        assert (ExactRadical(1, 2) == "x") is False and (ExactRadical(1, 2) != "x") is True
        # a bool is not a rational: equality answers instead of raising
        one = ExactRadical(1, 1)
        assert one.__eq__(True) is NotImplemented
        assert (one == True) is False and (one != False) is True
        assert (True in [one]) is False and one == 1

    def test_exact_radical_is_immutable(self):
        # no float (or anything else) can be assigned in after construction
        r = ExactRadical(1, 2)
        for name, value in (("num", 0.5), ("radicand", Fraction(3)), ("other", 1)):
            with pytest.raises(AttributeError, match=f"^ExactRadical is immutable; cannot set {name!r}$"):
                setattr(r, name, value)
            with pytest.raises(AttributeError, match=f"^ExactRadical is immutable; cannot delete {name!r}$"):
                delattr(r, name)
        assert (r.num, r.radicand) == (1, 2) and r == ExactRadical(2, 8)
        assert float(r) == pytest.approx(2 ** -0.5) and repr(r) == "ExactRadical(1/sqrt(2))"
        with pytest.raises(TypeError):
            hash(r)

    @pytest.mark.parametrize("value, error", INEXACT)
    def test_exact_radical_rejects_inexact_parts(self, value, error):
        with pytest.raises(error):
            ExactRadical(value, 1)
        with pytest.raises(error):
            ExactRadical(1, value)

    def test_float_view_of_huge_parts(self):
        # num and radicand overflow a float on their own; the value does not
        big = 10 ** 400
        assert float(ExactRadical(-3 * big, 25 * big * big)) == -0.6
        with pytest.raises(OverflowError):
            float(ExactRadical(big, 1))

    def test_float_view_matches_quotient(self):
        rng = random.Random(47)
        for _ in range(200):
            num = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
            radicand = Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))
            quotient = float(num) / math.sqrt(float(radicand))
            assert float(ExactRadical(num, radicand)) == pytest.approx(quotient, rel=1e-15)


class TestCubicConstruction:
    def test_tete_a_tete_input_leading_side(self):
        # w11*(w2 . v2) leads with w11*w21*v21 under the two-screw order
        vs = screw_varset(2)
        side = Polynomial.variable(vs, "w11") * parse(
            "w21*v21 + w22*v22 + w23*v23", vs
        )
        assert side.leading_monomial() == parse("w11*w21*v21", vs).leading_monomial()

    def test_cubic_is_translation_invariant(self):
        catalog = dict(translation_sagbi_catalog(2).entries)
        assert check_invariant_symbolic(catalog["cubic_12"], ActionKind.TRANSLATION_SUB, 2)

    def test_catalog_cubic_is_the_shipped_text(self):
        vs = screw_varset(2)
        catalog = dict(translation_sagbi_catalog(2).entries)
        assert catalog["cubic_12"] == parse(TWO_SCREW_CUBIC, vs)

    def test_verify_rejects_a_wrong_shipped_cubic(self, monkeypatch):
        # still invariant and with the same leading monomial, but not the
        # subduction remainder: verify recomputes the remainder, so it fails
        assert check_two_screw_sagbi().passed
        monkeypatch.setattr(screw_module, "TWO_SCREW_CUBIC", TWO_SCREW_CUBIC + " + w23^3")
        assert not check_two_screw_sagbi().passed

    def test_rejected_transcription_is_not_invariant(self):
        from screwinv.screw import TWO_SCREW_CUBIC_REJECTED_VARIANT

        vs = screw_varset(2)
        variant = parse(TWO_SCREW_CUBIC_REJECTED_VARIANT, vs)
        assert not check_invariant_symbolic(variant, ActionKind.TRANSLATION_SUB, 2)

    def test_tete_input_difference_is_in_subalgebra_numerically(self):
        # evaluation oracle: the tete-a-tete input is a polynomial in the
        # catalog values at any sample point
        vs = screw_varset(2)
        f = two_screw_tete_a_tete_input()
        rng = random.Random(59)
        catalog = dict(translation_sagbi_catalog(2).entries)
        for _ in range(20):
            coords = {
                name: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for name in vs.names
            }
            w11 = coords["w11"]
            w21 = coords["w21"]
            klein2 = catalog["klein_2"].evaluate(coords)
            mixed = catalog["mixed_12"].evaluate(coords)
            assert f.evaluate(coords) == w11 * klein2 - w21 * mixed


class TestMultiScrewIO:
    def test_round_trip(self):
        s = MultiScrew(
            (
                Twist((1, Fraction(1, 2), 0), (0, -3, Fraction(7, 3))),
                Twist((0, 0, 1), (2, 0, 0)),
            )
        )
        text = format_multiscrew(s)
        assert parse_multiscrew(text) == s

    def test_line_errors(self):
        with pytest.raises(ValueError):
            parse_multiscrew("1 2 3 4 5\n")
        with pytest.raises(ValueError):
            parse_multiscrew("")
        with pytest.raises(ValueError):
            parse_multiscrew("1 2 3 4 5 x\n")

    def test_comments_allowed(self):
        s = parse_multiscrew("# revolute about z\n0 0 1 0 0 0\n")
        assert s[0] == REVOLUTE

    def test_multiscrew_requires_twists(self):
        with pytest.raises(ValueError):
            MultiScrew(())


class TestCatalogType:
    def test_iteration_and_names(self):
        catalog = se3_generator_catalog(1)
        assert isinstance(catalog, Catalog)
        assert catalog.names() == ["dot_11", "klein_1"]
        assert [name for name, _ in catalog] == catalog.names()
