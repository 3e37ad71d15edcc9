"""Core polynomial arithmetic, term orders, substitution, evaluation."""

import math
import random
import sys
from fractions import Fraction

import pytest

from conftest import random_poly
from screwinv.parsing import parse
from screwinv.poly import Polynomial, TermOrder, VariableSet, _coerce
from screwinv.screw import screw_varset, z_poly


def _reference_evaluate(f: Polynomial, point) -> Fraction:
    """The term-by-term Fraction loop `Polynomial.evaluate` replaced."""
    for name in point:
        if name not in f.varset:
            raise ValueError(f"unknown variable {name!r}")
    values = {}
    for name, val in point.items():
        values[f.varset.index(name)] = _coerce(val)
    # the first unassigned used variable in variable-set order, as
    # `substitute` names a missing image
    for name in f.used_variables():
        if f.varset.index(name) not in values:
            raise ValueError(f"missing assignment for variable {name!r}")
    total = Fraction(0)
    for m, coeff in f.terms.items():
        term = coeff
        for i, e in enumerate(f.varset.unpack(m)):
            if not e:
                continue
            term *= values[i] ** e
        total += term
    return total


def _reference_substitute(f: Polynomial, images, target: VariableSet) -> Polynomial:
    """`f` with each variable replaced by its image, built term by term with
    Polynomial arithmetic over `target`."""
    expected = Polynomial.zero(target)
    for m, coeff in f.terms.items():
        term = Polynomial.constant(target, coeff)
        for name, e in zip(f.varset.names, f.varset.unpack(m)):
            if e:
                term = term * images[name] ** e
        expected = expected + term
    return expected


class TestVariableSet:
    def test_basics(self):
        vs = VariableSet(["t1", "w11", "v11"])
        assert len(vs) == 3
        assert vs.index("w11") == 1
        assert "v11" in vs and "x" not in vs

    def test_rejects_duplicates_and_bad_names(self):
        with pytest.raises(ValueError):
            VariableSet(["x", "x"])
        with pytest.raises(ValueError):
            VariableSet(["1x"])
        with pytest.raises(ValueError):
            VariableSet([])

    def test_unknown_lookup(self):
        vs = VariableSet(["x"])
        with pytest.raises(ValueError):
            vs.index("y")

    def test_long_names_are_quoted_by_their_start(self):
        # a name of more than 32 characters is echoed by its first 12; a
        # shorter one whole
        long = "a" * 3000
        start = "starting 'aaaaaaaaaaaa'"
        cases = [
            (lambda: VariableSet(["1" + long]), "invalid variable name starting '1aaaaaaaaaaa'"),
            (lambda: VariableSet([long, long]), f"duplicate variable name {start}"),
            (lambda: VariableSet(["x"]).index(long), f"unknown variable {start}"),
            (lambda: parse("x", VariableSet(["x"])).evaluate({long: 1}), f"unknown variable {start}"),
            (lambda: parse(long, VariableSet([long])).evaluate({}), f"missing assignment for variable {start}"),
            (lambda: parse(long, VariableSet([long])).substitute({}), f"no image given for variable {start}"),
            (lambda: VariableSet(["1x"]), "invalid variable name '1x'"),
            (lambda: VariableSet(["x", "x"]), "duplicate variable name 'x'"),
            (lambda: VariableSet(["x"]).index("y"), "unknown variable 'y'"),
        ]
        for call, message in cases:
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message

    @pytest.mark.parametrize("name", ["names", "_index", "_default_order", "extra"])
    def test_attributes_cannot_be_reassigned(self, name):
        # reassigning names would leave the lookup index describing other
        # variables, so "y" in vs would be False after vs.names = ("y",)
        vs = VariableSet(["x"])
        with pytest.raises(AttributeError, match=f"^VariableSet is immutable; cannot set {name!r}$"):
            setattr(vs, name, ("y",))
        with pytest.raises(AttributeError, match=f"^VariableSet is immutable; cannot delete {name!r}$"):
            delattr(vs, name)
        assert vs.names == ("x",) and "x" in vs and "y" not in vs
        assert vs.default_order().priority == ("x",) and vs.pack((2,)) == 2

    def test_default_order_is_cached(self):
        vs = VariableSet(["x", "y"])
        order = vs.default_order()
        assert vs.default_order() is order and order.priority == ("x", "y")


class TestPackedLayout:
    """One int per monomial: 32-bit fields, variable 0 most significant,
    exponents up to 2^31 - 1 under a guard bit that no product may set."""

    LIMIT = 2**31 - 1

    def test_pack_unpack_round_trip(self):
        rng = random.Random(61)
        for n in (1, 2, 5, 21):
            vs = VariableSet([f"x{i}" for i in range(n)])
            for _ in range(200):
                exps = tuple(rng.choice((0, 1, rng.randint(0, 99), self.LIMIT)) for _ in range(n))
                m = vs.pack(exps)
                assert type(m) is int and vs.unpack(m) == exps
                assert vs.pack(list(exps)) == m and vs.degree(m) == sum(exps)
            assert vs.pack((0,) * n) == vs.unit() == 0
        xy = VariableSet(["x", "y"])
        assert xy.pack((1, 0)) == 1 << 32 and xy.pack((0, 1)) == 1
        assert xy.guard == (1 << 63) | (1 << 31)

    @pytest.mark.parametrize(
        "priority", [("a", "b", "c", "d"), ("d", "c", "b", "a"), ("c", "a", "d", "b")]
    )
    def test_int_order_is_tuple_lex_order(self, abcd, priority):
        order = TermOrder(abcd, priority)
        perm = [abcd.index(name) for name in priority]
        rng = random.Random(62)
        for _ in range(1000):
            a, b = (tuple(rng.choice((0, 1, 2, 3, self.LIMIT)) for _ in range(4)) for _ in range(2))
            pa, pb = abcd.pack(a), abcd.pack(b)
            by_tuple = [a[i] for i in perm] < [b[i] for i in perm]
            assert (order.key(pa) < order.key(pb)) == by_tuple
            assert order.key(pa) == order.key(a)
            if priority == abcd.names:
                assert order.key(pa) == pa and (pa < pb) == (a < b)

    def test_exponent_limit(self):
        vs = VariableSet(["x", "y"])
        x = Polynomial.variable(vs, "x")
        assert Polynomial(vs, {(0, self.LIMIT): 1}) == parse(f"y^{self.LIMIT}", vs)
        assert x ** self.LIMIT == parse(f"x^{self.LIMIT}", vs)
        for make in (
            lambda: Polynomial(vs, {(0, self.LIMIT + 1): 1}),
            lambda: Polynomial(vs, {(2**40, 0): 1}),
            lambda: parse(f"x^{self.LIMIT + 1}", vs),
            lambda: parse(f"x^{self.LIMIT}*x", vs),
            lambda: vs.pack((self.LIMIT + 1, 0)),
        ):
            with pytest.raises(ValueError, match="above the limit 2\\^31 - 1"):
                make()
        with pytest.raises(ValueError, match="above the limit"):
            x ** (self.LIMIT + 1)

    def test_products_raise_instead_of_wrapping(self):
        # an overflow in y's field would otherwise carry into x's
        vs = VariableSet(["x", "y"])
        x, y = Polynomial.variable(vs, "x"), Polynomial.variable(vs, "y")
        half = 2**30
        for v in (x, y):
            with pytest.raises(ValueError, match="above the limit"):
                v**half * v**half
        assert y ** (half - 1) * y**half == parse(f"y^{self.LIMIT}", vs)
        with pytest.raises(ValueError, match="above the limit"):
            parse("x^2 + y", vs).substitute({"x": y**half + 1, "y": x})

    def test_constructor_takes_packed_monomials(self, abcd):
        f = random_poly(random.Random(63), abcd, max_terms=8)
        assert Polynomial(abcd, f.terms) == f
        assert Polynomial(abcd, {abcd.pack((1, 0, 0, 2)): 3, (1, 0, 0, 2): -3}).is_zero()
        for bad in (-1, 1 << 128, abcd.guard, 1 << 31):
            with pytest.raises(ValueError, match="bad packed monomial"):
                Polynomial(abcd, {bad: 1})

    def test_attributes_cannot_be_reassigned(self, abcd):
        order = TermOrder(abcd, ("b", "a", "c", "d"))
        p = parse("a*b + c", abcd)
        for obj, name, value in (
            (order, "priority", ("a", "b", "c", "d")),
            (order, "_perm", None),
            (order, "varset", VariableSet(["x"])),
            (p, "terms", {}),
            (p, "varset", VariableSet(["x"])),
            (p, "_num", {}),
            (p, "den", 2),
        ):
            cls = type(obj).__name__
            with pytest.raises(AttributeError, match=f"^{cls} is immutable; cannot set {name!r}$"):
                setattr(obj, name, value)
            with pytest.raises(AttributeError, match=f"^{cls} is immutable; cannot delete {name!r}$"):
                delattr(obj, name)
        assert order.priority == ("b", "a", "c", "d") and order.key((1, 0, 0, 0)) < order.key((0, 1, 0, 0))
        assert p == parse("a*b + c", abcd) and p.varset == abcd
        assert p + p == parse("2*a*b + 2*c", abcd) and p.leading_term(order) == (abcd.pack((1, 1, 0, 0)), 1)


class TestTermOrder:
    def test_repr_lists_the_priority(self):
        vs = VariableSet(["x", "y", "z"])
        assert repr(vs.default_order()) == "TermOrder(lex x y z)"
        assert repr(TermOrder(vs, ["z", "x", "y"])) == "TermOrder(lex z x y)"

    def test_lex_key_and_elimination(self):
        vs = VariableSet(["t1", "x", "y"])
        order = vs.default_order()
        assert order.eliminates(["t1"])
        assert not order.eliminates(["x"])
        # t1 beats any monomial in x, y alone
        assert order.key((1, 0, 0)) > order.key((0, 5, 5))

    def test_priority_must_be_permutation(self):
        vs = VariableSet(["x", "y"])
        with pytest.raises(ValueError):
            TermOrder(vs, ["x"])
        rev = TermOrder(vs, ["y", "x"])
        assert rev.key((1, 0)) < rev.key((0, 1))

    def test_unit_monomial_is_minimum(self, abcd):
        order = abcd.default_order()
        rng = random.Random(11)
        unit = abcd.unit()
        for _ in range(200):
            exps = tuple(rng.randint(0, 4) for _ in range(4))
            if abcd.pack(exps) != unit:
                assert order.key(exps) > order.key(unit)

    def test_multiplicativity_fuzz(self, abcd):
        order = abcd.default_order()
        rng = random.Random(5)
        for _ in range(1000):
            a = tuple(rng.randint(0, 4) for _ in range(4))
            b = tuple(rng.randint(0, 4) for _ in range(4))
            c = tuple(rng.randint(0, 4) for _ in range(4))
            if a == b:
                continue
            lo, hi = (a, b) if order.key(a) < order.key(b) else (b, a)
            assert order.key(tuple(x + y for x, y in zip(lo, c))) < order.key(
                tuple(x + y for x, y in zip(hi, c))
            )

    @pytest.mark.parametrize("priority", [["a", "b", "c", "d"], ["c", "a", "d", "b"]])
    def test_largest_leads_the_sorted_terms(self, abcd, priority):
        order = TermOrder(abcd, priority)
        rng = random.Random(13)
        for _ in range(200):
            f = random_poly(rng, abcd, max_terms=6, max_deg=4)
            if f.terms:
                assert order.largest(f.terms) == order.sorted_terms(f.terms)[0][0] == f.leading_monomial(order)


class TestArithmetic:
    def test_add_neg_cancels(self, abcd):
        rng = random.Random(1)
        for _ in range(50):
            f = random_poly(rng, abcd)
            assert (f + (-f)).is_zero()
            assert f * 1 == f
            assert f * 0 == 0

    def test_binomial_square(self):
        vs = VariableSet(["x", "y"])
        x, y = Polynomial.variable(vs, "x"), Polynomial.variable(vs, "y")
        assert (x + y) ** 2 == x**2 + 2 * x * y + y**2

    def test_ring_axioms_fuzz(self, abcd):
        rng = random.Random(2)
        for _ in range(1000):
            f, g, h = (random_poly(rng, abcd) for _ in range(3))
            assert (f + g) + h == f + (g + h)
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f * g == g * f

    def test_rationals_stay_reduced(self, abcd):
        rng = random.Random(3)
        for _ in range(300):
            f = random_poly(rng, abcd) * random_poly(rng, abcd)
            for coeff in f.terms.values():
                assert coeff.denominator > 0
                assert math.gcd(coeff.numerator, coeff.denominator) == 1

    def test_mismatched_varsets_rejected(self):
        f = Polynomial.variable(VariableSet(["x"]), "x")
        g = Polynomial.variable(VariableSet(["y"]), "y")
        with pytest.raises(ValueError):
            f + g
        with pytest.raises(ValueError):
            f * g

    def test_scale_and_division(self, abcd):
        f = random_poly(random.Random(4), abcd)
        assert f.scale(Fraction(3, 2)) / Fraction(3, 2) == f
        with pytest.raises(ZeroDivisionError):
            f / 0

    def test_pow_rejects_negative(self, abcd):
        f = Polynomial.variable(abcd, "a")
        with pytest.raises(ValueError):
            f ** -1

    def test_pow_rejects_bool(self, abcd):
        f = Polynomial.variable(abcd, "a")
        with pytest.raises(ValueError):
            f ** True

    def test_bool_exponent_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(VariableSet(["x", "y"]), {(True, 0): 1})

    @pytest.mark.parametrize("exps", [(1.5, 0), ("a", 0), (None, 0), (-1, 0), (1,)])
    def test_bad_exponent_tuple_rejected(self, exps):
        with pytest.raises(ValueError, match="bad exponent tuple"):
            Polynomial(VariableSet(["x", "y"]), {exps: 1})

    def test_bool_coefficient_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(VariableSet(["x", "y"]), {(1, 0): True})

    @pytest.mark.parametrize("method, operation", [
        ("__add__", lambda f: f + "x"),
        ("__sub__", lambda f: f - "x"),
        ("__mul__", lambda f: f * "x"),
        ("__rmul__", lambda f: "x" * f),
        ("__truediv__", lambda f: f / "x"),
        ("__eq__", None),
    ])
    def test_str_operand_is_not_implemented(self, method, operation):
        # so Python raises TypeError for the operators, and == is False
        f = Polynomial.variable(VariableSet(["x"]), "x")
        assert getattr(f, method)("x") is NotImplemented
        if operation is None:
            assert (f == "x") is False and (f != "x") is True
        else:
            with pytest.raises(TypeError):
                operation(f)

    def test_terms_view_repr(self):
        vs = VariableSet(["x", "y"])
        f = parse("x + 1/2*y^2", vs)
        assert repr(f.terms) == f"_TermsView({dict(f.terms)!r})"
        assert repr(parse("3*x", vs).terms) == f"_TermsView({{{vs.pack((1, 0))}: 3}})"


class TestCoefficientRule:
    """A coefficient is stored as an int when integral, else as a Fraction."""

    @staticmethod
    def types(f: Polynomial) -> dict:
        return {f.varset.unpack(m): type(c) for m, c in f.terms.items()}

    def test_parse(self):
        vs = VariableSet(["x", "y", "z"])
        f = parse("3*x + 1/2*y - 6/3*z + x*y + 4", vs)
        assert self.types(f) == {
            (1, 0, 0): int, (0, 1, 0): Fraction, (0, 0, 1): int, (1, 1, 0): int, (0, 0, 0): int
        }
        assert f.coefficient((0, 0, 1)) == -2
        assert f.coefficient((5, 0, 0)) == 0 and type(f.coefficient((5, 0, 0))) is int

    def test_constructors(self):
        vs = VariableSet(["x", "y"])
        assert type(Polynomial.constant(vs, Fraction(4, 2)).terms[vs.unit()]) is int
        assert type(Polynomial.constant(vs, Fraction(1, 3)).terms[vs.unit()]) is Fraction
        assert self.types(Polynomial.variable(vs, "y")) == {(0, 1): int}
        f = Polynomial(vs, {(1, 0): Fraction(-6, 2), (0, 1): Fraction(1, 2)})
        assert self.types(f) == {(1, 0): int, (0, 1): Fraction}
        assert self.types(Polynomial(vs, {(2, 1): Fraction(5)})) == {(2, 1): int}

    def test_scale_monic_and_division(self):
        vs = VariableSet(["x", "y"])
        f = parse("-x + 2*y", vs)
        assert self.types(f.scale(Fraction(6, 3))) == {(1, 0): int, (0, 1): int}
        assert self.types(f * Fraction(-1)) == {(1, 0): int, (0, 1): int}
        assert self.types(f / Fraction(1, 3)) == {(1, 0): int, (0, 1): int}
        assert self.types(f.monic()) == {(1, 0): int, (0, 1): int}
        assert f.monic() == parse("x - 2*y", vs)
        assert f / 2 == parse("-1/2*x + y", vs)
        assert type((f / 2).coefficient((1, 0))) is Fraction
        assert type(parse("2*x + 3*y", vs).monic().coefficient((0, 1))) is Fraction

    @pytest.mark.parametrize("value", [0.5, 2.0, "1/3"])
    def test_inexact_rejected(self, value):
        vs = VariableSet(["x"])
        x = Polynomial.variable(vs, "x")
        for make in (
            lambda: Polynomial.constant(vs, value),
            lambda: x.scale(value),
            lambda: Polynomial(vs, {(1,): value}),
        ):
            with pytest.raises(TypeError):
                make()

    def test_bool_still_rejected(self):
        vs = VariableSet(["x"])
        x = Polynomial.variable(vs, "x")
        for make in (
            lambda: Polynomial.constant(vs, True),
            lambda: x.scale(False),
            lambda: Polynomial(vs, {(1,): True}),
        ):
            with pytest.raises(ValueError):
                make()
        # equality answers a bool instead of raising: no polynomial equals one
        one = Polynomial.constant(vs, 1)
        assert one.__eq__(True) is NotImplemented
        assert (one == True) is False and (x != False) is True
        assert (True in [one]) is False and one == 1

    def test_evaluate_returns_a_fraction(self):
        vs = VariableSet(["x", "y"])
        value = parse("x*y + 1", vs).evaluate({"x": 2, "y": 1})
        assert type(value) is Fraction and str(value) == "3"
        zero = Polynomial.zero(vs).evaluate({})
        assert type(zero) is Fraction and str(zero) == "0"


def _lowest_terms(f: Polynomial) -> bool:
    """The stored pair: den > 0 and gcd(den, *numerators) = 1."""
    return f.den > 0 and math.gcd(f.den, *f._num.values()) == 1


class TestOneDenominator:
    """A polynomial stores an int map over one den, in lowest terms."""

    def test_halving_a_double(self):
        vs = VariableSet(["x", "y"])
        x = Polynomial.variable(vs, "x")
        half = (2 * x) / 2
        assert half == x and half.den == 1
        assert type(half.coefficient((1, 0))) is int and dict(half.terms) == {vs.pack((1, 0)): 1}
        assert parse("1/2*x + 1/2*x", vs).den == 1
        assert (parse("1/3*x + y", vs) * 3).den == 1

    def test_den_never_negative(self, abcd):
        rng = random.Random(11)
        for _ in range(200):
            f, g = random_poly(rng, abcd), random_poly(rng, abcd)
            c = Fraction(-rng.randint(1, 9), rng.randint(1, 9))
            results = [-f, f - g, g - f, f.scale(c), f * c, f / c, c - f]
            if f:
                results.append((-f).monic())
            for poly in results:
                assert _lowest_terms(poly)
        f = parse("-3*a + 2/5*b", abcd)
        assert f.monic() == parse("a - 2/15*b", abcd) and f.monic().den == 15
        assert (-f).den == 5 and f.scale(Fraction(-5, 7)).den == 7

    def test_every_result_in_lowest_terms(self, abcd):
        rng = random.Random(12)
        images = {name: random_poly(rng, abcd, max_deg=2) for name in abcd}
        for _ in range(200):
            f, g = random_poly(rng, abcd), random_poly(rng, abcd)
            results = [f + g, f * g, f**2, f.substitute(images), *f.degree_components().values()]
            assert all(map(_lowest_terms, results))

    def test_fractional_images_substitute_like_arithmetic(self, abcd):
        # every image over its own den: the lifted sum equals the value
        # built term by term with Polynomial arithmetic
        rng = random.Random(13)
        for _ in range(50):
            f = random_poly(rng, abcd)
            images = {name: random_poly(rng, abcd, max_deg=2) for name in abcd}
            assert f.substitute(images) == _reference_substitute(f, images, abcd)

    def test_constructor_takes_back_its_terms(self, abcd):
        rng = random.Random(14)
        for _ in range(100):
            f = random_poly(rng, abcd)
            assert Polynomial(abcd, f.terms) == f
        f = parse("1/2*a + 3*b - 7/6", abcd)
        assert f.den == 6 and Polynomial(abcd, f.terms) == f
        assert f.terms == {abcd.pack((1, 0, 0, 0)): Fraction(1, 2), abcd.pack((0, 1, 0, 0)): 3, 0: Fraction(-7, 6)}

    def test_terms_are_read_only(self, abcd):
        # `a` packs above sys.maxsize over four variables, `d` far below it;
        # every write is refused with TypeError whatever the key
        small, large = abcd.pack((0, 0, 0, 1)), abcd.pack((1, 0, 0, 0))
        assert small < sys.maxsize < large
        for text in ("a + 2*d", "1/2*a + 2*d"):
            f = parse(text, abcd)
            for key in (0, small, large, large + 1):
                with pytest.raises(TypeError, match="^polynomial terms are read-only$"):
                    f.terms[key] = 1
                with pytest.raises(TypeError, match="^polynomial terms are read-only$"):
                    del f.terms[key]
            assert f == parse(text, abcd)

    def test_large_key_write_refused_with_type_error(self):
        p = parse("w11*v21 + w32", screw_varset(3))
        key = next(iter(p.terms))
        assert key > sys.maxsize
        with pytest.raises(TypeError):
            p.terms[key] = 5
        assert p == parse("w11*v21 + w32", screw_varset(3))


class TestTermOrderKey:
    """`TermOrder.key` skips the permutation when the priority is the
    variable order; every observable result must be as if it did not."""

    PRIORITIES = (
        ("a", "b", "c", "d"),
        ("b", "a", "c", "d"),
        ("d", "c", "b", "a"),
        ("c", "a", "d", "b"),
    )

    @staticmethod
    def explicit_key(order, exps):
        """The exponents, unpacked first if packed, permuted into priority order and packed."""
        if isinstance(exps, int):
            exps = order.varset.unpack(exps)
        perm = [order.varset.index(name) for name in order.priority]
        return order.varset.pack(tuple(exps[i] for i in perm))

    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_key_is_the_explicit_permutation(self, abcd, priority):
        order = TermOrder(abcd, priority)
        rng = random.Random(31)
        for _ in range(300):
            exps = tuple(rng.randint(0, 4) for _ in range(4))
            key = order.key(exps)
            assert type(key) is int
            assert key == self.explicit_key(order, exps)
        assert order.key([1, 2, 3, 4]) == self.explicit_key(order, (1, 2, 3, 4))

    @pytest.mark.parametrize("priority", PRIORITIES)
    def test_leading_and_sorted_terms_follow_the_key(self, abcd, priority):
        order = TermOrder(abcd, priority)
        rng = random.Random(32)
        checked = 0
        while checked < 200:
            f = random_poly(rng, abcd, max_terms=8, max_deg=4)
            if f.is_zero():
                continue
            by_key = sorted(f.terms.items(), key=lambda item: self.explicit_key(order, item[0]))
            assert f.leading_term(order) == by_key[-1]
            assert order.sorted_terms(f.terms) == by_key[::-1]
            assert order.sorted_terms(f.terms)[::-1] == by_key
            checked += 1

    def test_equality_and_hash(self, abcd):
        identity = TermOrder(abcd, abcd.names)
        assert identity == TermOrder(abcd) == abcd.default_order()
        assert hash(identity) == hash(abcd.default_order()) == hash((abcd, abcd.names))
        swapped = TermOrder(abcd, ("b", "a", "c", "d"))
        assert swapped == TermOrder(abcd, ["b", "a", "c", "d"])
        assert hash(swapped) == hash((abcd, ("b", "a", "c", "d")))
        assert swapped != identity
        assert len({identity, swapped, abcd.default_order()}) == 2


class TestLeadingTerm:
    def test_klein_under_screw_order(self):
        vs = screw_varset(1)
        klein = parse("w11*v11 + w12*v12 + w13*v13", vs)
        exps, coeff = klein.leading_term()
        assert exps == parse("w11*v11", vs).leading_monomial()
        assert coeff == 1

    def test_tete_a_tete_side_leading_monomial(self):
        # w11*(w2 . v2) leads with w11*w21*v21 under the two-screw order
        vs = screw_varset(2)
        f = parse("w11*w21*v21 + w11*w22*v22 + w11*w23*v23", vs)
        assert f.leading_monomial() == parse("w11*w21*v21", vs).leading_monomial()

    def test_constant_leading_term(self):
        vs = VariableSet(["x"])
        exps, coeff = Polynomial.constant(vs, 5).leading_term()
        assert exps == vs.unit() and coeff == 5

    def test_zero_has_no_leading_term(self):
        vs = VariableSet(["x"])
        with pytest.raises(ValueError):
            Polynomial.zero(vs).leading_term()

    def test_order_over_another_variable_set_refused(self):
        # exponents would be read by position under the foreign priority
        f = parse("x + y^2", VariableSet(["x", "y"]))
        foreign = TermOrder(VariableSet(["a", "b", "c"]), ["c", "b", "a"])
        for call in (f.leading_term, f.leading_monomial, f.monic):
            with pytest.raises(ValueError, match="^term order over another variable set$"):
                call(foreign)
        # an equal variable set built apart is the same context
        twin = TermOrder(VariableSet(["x", "y"]), ["y", "x"])
        assert f.leading_term(twin) == (f.varset.pack((0, 2)), 1)
        assert f.monic(twin) is f and f.leading_monomial(twin) == f.varset.pack((0, 2))

    def test_lex_is_a_valuation(self, abcd):
        # lt(f*g) = lt(f)*lt(g), componentwise on monomial and coefficient
        order = abcd.default_order()
        rng = random.Random(6)
        checked = 0
        while checked < 1000:
            f, g = random_poly(rng, abcd), random_poly(rng, abcd)
            if f.is_zero() or g.is_zero():
                continue
            ef, cf = f.leading_term(order)
            eg, cg = g.leading_term(order)
            ep, cp = (f * g).leading_term(order)
            assert ep == abcd.pack(tuple(x + y for x, y in zip(abcd.unpack(ef), abcd.unpack(eg))))
            assert cp == cf * cg
            checked += 1


class TestSubstituteEvaluate:
    def test_identity_substitution(self, abcd):
        f = random_poly(random.Random(7), abcd)
        images = {name: Polynomial.variable(abcd, name) for name in abcd}
        assert f.substitute(images) == f

    def test_kill_variable(self):
        vs = VariableSet(["x", "y"])
        f = parse("x*y + y", vs)
        images = {"x": Polynomial.zero(vs), "y": Polynomial.variable(vs, "y")}
        assert f.substitute(images) == parse("y", vs)

    def test_missing_image_raises(self):
        vs = VariableSet(["x", "y"])
        f = parse("x*y", vs)
        with pytest.raises(ValueError, match="^no image given for variable 'y'$"):
            f.substitute({"x": Polynomial.variable(vs, "x")})

    def test_images_over_two_variable_sets_raise(self):
        vs, other = VariableSet(["x", "y"]), VariableSet(["x", "y", "z"])
        f = parse("x*y", vs)
        images = {"x": Polynomial.variable(vs, "x"), "y": Polynomial.variable(other, "y")}
        with pytest.raises(ValueError, match="substitution images use mismatched variable sets"):
            f.substitute(images)

    def test_translation_action_fixes_klein(self):
        # v_n -> (T w + v)_n with symbolic t leaves the Klein form unchanged
        space = screw_varset(1)
        combined = VariableSet(["t1", "t2", "t3"] + list(space.names))
        klein = parse("w11*v11 + w12*v12 + w13*v13", space)
        images = {
            "w11": parse("w11", combined),
            "w12": parse("w12", combined),
            "w13": parse("w13", combined),
            "v11": parse("t2*w13 - t3*w12 + v11", combined),
            "v12": parse("t3*w11 - t1*w13 + v12", combined),
            "v13": parse("t1*w12 - t2*w11 + v13", combined),
        }
        assert klein.substitute(images) == klein.rename(combined)

    def test_evaluate_examples(self):
        vs = screw_varset(1)
        klein = parse("w11*v11 + w12*v12 + w13*v13", vs)
        killing = parse("w11^2 + w12^2 + w13^2", vs)
        point = {"w11": 0, "w12": 0, "w13": 1, "v11": 0, "v12": 0, "v13": 3}
        assert klein.evaluate(point) == 3
        assert killing.evaluate(point) == 1

    def test_evaluate_z123_standard_basis(self):
        # independent oracle: numeric determinant of the same rows
        point = {}
        for i in range(1, 4):
            for n in range(1, 4):
                point[f"w{i}{n}"] = 1 if i == n else 0
                point[f"v{i}{n}"] = 0
        assert z_poly(1, 2, 3).evaluate(point) == 0
        rows = [
            [point[f"w{s}1"] for s in (1, 2, 3)],
            [point[f"w{s}2"] for s in (1, 2, 3)],
            [point[f"v{s}3"] for s in (1, 2, 3)],
        ]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        assert det == 0

    def test_evaluate_missing_assignment(self):
        vs = VariableSet(["x", "y"])
        f = parse("x*y", vs)
        with pytest.raises(ValueError):
            f.evaluate({"x": 1})
        with pytest.raises(ValueError):
            f.evaluate({"x": 1, "z": 2})

    def test_evaluate_matches_fraction_reference(self):
        rng = random.Random(43)
        vs = VariableSet(["a", "b", "c", "d", "e"])

        def number(integral):
            if integral:
                return rng.randint(-12, 12)
            return Fraction(rng.randint(-12, 12), rng.randint(1, 12))

        polys = [Polynomial.zero(vs), Polynomial.constant(vs, Fraction(-7, 3))]
        for _ in range(200):
            terms = {}
            for _ in range(rng.randint(1, 6)):
                exps = tuple(rng.randint(0, 3) if rng.random() < 0.4 else 0 for _ in vs)
                terms[exps] = number(rng.random() < 0.5)
            polys.append(Polynomial(vs, terms))
        for f in polys:
            for _ in range(5):
                integral = rng.random() < 0.3
                point = {name: number(integral) for name in vs.names}
                value = f.evaluate(point)
                assert type(value) is Fraction
                assert value == _reference_evaluate(f, point)

    def test_evaluate_missing_assignment_names_reference_variable(self):
        rng = random.Random(47)
        vs = VariableSet(["a", "b", "c", "d"])
        for _ in range(200):
            f = random_poly(rng, vs, max_terms=5, max_deg=4)
            point = {name: rng.randint(-3, 3) for name in vs.names if rng.random() < 0.5}
            try:
                expected = _reference_evaluate(f, point)
            except ValueError as exc:
                with pytest.raises(ValueError) as caught:
                    f.evaluate(point)
                assert str(caught.value) == str(exc)
            else:
                assert f.evaluate(point) == expected
        # equal polynomials name the same variable, whatever order their
        # terms are stored in
        xy = VariableSet(["x", "y"])
        for text in ("x + y", "y + x"):
            with pytest.raises(ValueError) as caught:
                parse(text, xy).evaluate({})
            assert str(caught.value) == "missing assignment for variable 'x'"

    def test_degree_components(self, abcd):
        f = parse("a^2 + a*b + c + 7", abcd)
        comps = f.degree_components()
        assert set(comps) == {0, 1, 2}
        assert sum(comps.values(), Polynomial.zero(abcd)) == f

    def test_rename_injective_only(self):
        vs = VariableSet(["x", "y"])
        target = VariableSet(["z"])
        f = parse("x + y", vs)
        with pytest.raises(ValueError):
            f.rename(target, {"x": "z", "y": "z"})


class TestTermWalk:
    """`substitute`, `rename` and `degree_components` read each term's
    exponents from `Polynomial._plan`; these pin them to dense references."""

    def test_rename_matches_dense_reference(self, abcd):
        rng = random.Random(71)
        target = VariableSet(["p", "a", "q", "r", "b", "s", "c"])
        polys = [Polynomial.zero(abcd), Polynomial.constant(abcd, Fraction(-5, 3)), Polynomial.constant(abcd, 4)]
        polys += [random_poly(rng, abcd, max_terms=6, max_deg=5) for _ in range(150)]
        for f in polys:
            names = rng.sample(target.names, len(abcd))
            mapping = dict(zip(abcd.names, names))
            expected = {}
            for m, coeff in f.terms.items():
                exps = [0] * len(target)
                for name, e in zip(abcd.names, abcd.unpack(m)):
                    exps[target.index(mapping[name])] = e
                expected[tuple(exps)] = coeff
            renamed = f.rename(target, mapping)
            assert renamed.varset == target and renamed == Polynomial(target, expected)
            assert renamed.den == f.den and len(renamed) == len(f)
        # the identity mapping into a wider set keeps each name's exponent
        f = parse("a^3*c - 2/7*b*c^2 + 9", abcd)
        assert f.rename(target) == parse("a^3*c - 2/7*b*c^2 + 9", target)

    def test_rename_error_order(self):
        # an unknown target name is reported before a non-injective mapping
        f = parse("x + y + z", VariableSet(["x", "y", "z"]))
        target = VariableSet(["u", "v"])
        with pytest.raises(ValueError, match="^unknown variable 'nope'$"):
            f.rename(target, {"x": "u", "y": "u", "z": "nope"})
        with pytest.raises(ValueError, match="^rename mapping must be injective on used variables$"):
            f.rename(target, {"x": "u", "y": "u", "z": "v"})
        # an unused variable needs no target name
        assert parse("y", f.varset).rename(target, {"y": "v"}) == parse("v", target)

    def test_degree_components_match_reference(self, abcd):
        rng = random.Random(72)
        polys = [Polynomial.zero(abcd), Polynomial.constant(abcd, Fraction(7, 2))]
        polys += [random_poly(rng, abcd, max_terms=8, max_deg=4) for _ in range(150)]
        for f in polys:
            buckets = {}
            for m, coeff in f.terms.items():
                buckets.setdefault(sum(abcd.unpack(m)), {})[m] = coeff
            comps = f.degree_components()
            assert comps == {k: Polynomial(abcd, t) for k, t in buckets.items()}
            assert sum(comps.values(), Polynomial.zero(abcd)) == f

    def test_substitute_mixed_denominators(self, abcd):
        # integral images beside images over the pairwise different dens 2,
        # 3 and 5, into another variable set, with an image over den 7 for
        # a variable `e` that f never uses
        rng = random.Random(73)
        source = VariableSet([*abcd.names, "e"])
        xyz = VariableSet(["x", "y", "z"])

        def image(den):
            terms = {tuple(rng.randint(0, 2) for _ in xyz): Fraction(rng.randint(-9, 9), den) for _ in range(3)}
            terms[(0, 0, 3)] = Fraction(1, den)  # a monomial no other term has, so the den is `den`
            return Polynomial(xyz, terms)

        for _ in range(60):
            dens = [1, 1, 2, 3, 5]
            rng.shuffle(dens)
            images = {name: image(den) for name, den in zip(source.names, dens)}
            images["e"] = image(7)
            g = random_poly(rng, abcd, max_terms=6, max_deg=4)
            f = Polynomial(source, {(*abcd.unpack(m), 0): c for m, c in g.terms.items()})
            result = f.substitute(images)
            assert result.varset == xyz and result == _reference_substitute(f, images, xyz)
        for c in (0, 3, Fraction(-4, 9)):
            f = Polynomial.constant(source, c)
            assert f.substitute({"a": image(2), "e": image(3)}) == Polynomial.constant(xyz, c)
            assert f.substitute({}) == f

    def test_constant_refuses_mismatched_images_in_either_key_order(self):
        # a constant uses no variable, so every image names the target
        # variable set, whatever the order of the mapping's keys
        over_a, over_b = VariableSet(["s"]), VariableSet(["s", "t"])
        p_over_a, p_over_b = Polynomial.variable(over_a, "s"), Polynomial.variable(over_b, "t")
        for f in (Polynomial.constant(VariableSet(["a", "b"]), 3), Polynomial.zero(VariableSet(["a", "b"]))):
            for images in ({"a": p_over_a, "b": p_over_b}, {"b": p_over_b, "a": p_over_a}):
                with pytest.raises(ValueError, match="^substitution images use mismatched variable sets$"):
                    f.substitute(images)
            result = f.substitute({"a": p_over_b, "b": p_over_b})
            assert result.varset == over_b and result == f.rename(over_b, {"a": "s", "b": "t"})

    def test_missing_image_reported_before_mismatch(self):
        # the used variables are checked in variable-set order, each for a
        # missing image and then for its variable set
        f = parse("x*y*z", VariableSet(["x", "y", "z"]))
        one, two = VariableSet(["s"]), VariableSet(["s", "t"])
        s1, s2 = Polynomial.variable(one, "s"), Polynomial.variable(two, "s")
        with pytest.raises(ValueError, match="^no image given for variable 'x'$"):
            f.substitute({"y": s1, "z": s2})
        with pytest.raises(ValueError, match="^no image given for variable 'y'$"):
            f.substitute({"x": s1, "z": s2})
        with pytest.raises(ValueError, match="^substitution images use mismatched variable sets$"):
            f.substitute({"x": s1, "y": s2})
