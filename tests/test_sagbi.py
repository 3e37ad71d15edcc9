"""Subduction, tete-a-tete enumeration, and basis construction."""

import copy
import dataclasses
import io
import pickle
import random
import time
from fractions import Fraction

import pytest

import screwinv.sagbi as sagbi_module
from conftest import random_poly
from screwinv.group import ActionKind, RationalQuaternion, pullback, rotation_from_quaternion
from screwinv.parsing import format_poly, parse
from screwinv.poly import Polynomial, TermOrder, VariableSet
from screwinv.sagbi import (
    GeneratorSet,
    TeteATete,
    _factor_monomial,
    _side_key,
    eliminate,
    is_member,
    read_basis_file,
    sagbi_construct,
    subduct,
    tete_a_tetes,
    write_basis_file,
)
from screwinv.screw import (
    ExactRadical,
    killing_dot,
    klein_form,
    mixed_form,
    screw_varset,
    se3_generator_catalog,
    translation_sagbi_catalog,
    two_screw_tete_a_tete_input,
)

# frozen by direct expansion of the tete-a-tete
#   w11*(w2 . v2) - w21*(w1 . v2 + w2 . v1)
# whose leading monomial does not factor over the nine earlier leading
# monomials, so subduction returns it unchanged
TWO_SCREW_CUBIC = (
    "w11*w22*v22 + w11*w23*v23 - w12*w21*v22 - w13*w21*v23"
    " - w21^2*v11 - w21*w22*v12 - w21*w23*v13"
)


def sparse(vector):
    """The ``(index, exponent)`` pairs of a dense exponent vector, the form
    the engine writes a generator power product in."""
    return tuple((i, e) for i, e in enumerate(vector) if e)


def _reference_tete_a_tetes(basis, degree_bound):
    """The recursive enumeration and all-pairs minimality filter that
    `tete_a_tetes` replaced, kept as the reference its output must equal."""
    lms = [list(basis.order.varset.unpack(lm)) for lm in basis.leading_monomials()]
    degs = [sum(lm) for lm in lms]
    nvars = len(basis.order.varset)
    ngens = len(lms)
    buckets = {}
    current = [0] * nvars
    vec = [0] * ngens

    def rec(i, remaining):
        if i == ngens:
            if any(vec):
                buckets.setdefault(tuple(current), []).append(tuple(vec))
            return
        d = degs[i]
        emax = remaining // d
        lm = lms[i]
        for e in range(emax + 1):
            if e:
                vec[i] = e
                for j, x in enumerate(lm):
                    current[j] += x
            rec(i + 1, remaining - e * d)
        if emax:
            for j, x in enumerate(lm):
                current[j] -= emax * x
            vec[i] = 0

    rec(0, degree_bound)

    found = set()
    for vecs in buckets.values():
        for i in range(len(vecs)):
            for j in range(i + 1, len(vecs)):
                a, b = vecs[i], vecs[j]
                if any(x and y for x, y in zip(a, b)):
                    continue
                if b < a:
                    a, b = b, a
                found.add((a, b))

    def diff(u, v):
        out = []
        for x, y in zip(u, v):
            if x < y:
                return None
            out.append(x - y)
        return tuple(out)

    def orient(a, b):
        return (a, b) if a <= b else (b, a)

    minimal = []
    for a, b in found:
        decomposable = False
        for a1, b1 in found:
            if (a1, b1) == (a, b):
                continue
            for a2, b2 in ((diff(a, a1), diff(b, b1)), (diff(a, b1), diff(b, a1))):
                if a2 is None or b2 is None:
                    continue
                if not (any(a2) or any(b2)):
                    continue
                if orient(a2, b2) in found and orient(a2, b2) != (a, b):
                    decomposable = True
                    break
            if decomposable:
                break
        if not decomposable:
            minimal.append((a, b))

    def product_key(rel):
        mono = [0] * nvars
        for i, e in enumerate(rel[0]):
            if e:
                for j, x in enumerate(lms[i]):
                    mono[j] += e * x
        return (basis.order.key(tuple(mono)), rel)

    minimal.sort(key=product_key)
    return [(sparse(a), sparse(b)) for a, b in minimal]


def _random_generator_set(rng):
    """Five to eight monomials and binomials of degree at most 2 over 3-5
    variables, under a random lex priority."""
    names = ["x", "y", "z", "u", "w"][: rng.randint(3, 5)]
    vs = VariableSet(names)
    priority = list(names)
    rng.shuffle(priority)
    order = TermOrder(vs, priority)

    def monomial():
        exps = [0] * len(vs)
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(len(vs))] += 1
        return Polynomial(vs, {tuple(exps): 1})

    gens = []
    for _ in range(rng.randint(5, 8)):
        g = monomial()
        if rng.random() < 0.5:
            g = g + monomial().scale(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)))
        gens.append(g)
    return GeneratorSet(gens, order)


def _explicit_product(gens, exps):
    result = Polynomial.constant(gens[0].varset, 1)
    for g, e in zip(gens, exps):
        for _ in range(e):
            result = result * g
    return result


def _exponents(path, n):
    """The exponent vector of length n of an index path, counted by hand."""
    return tuple(path.count(i) for i in range(n))


def _vectors_up_to(n, degree):
    """Every exponent vector of length n with entry sum at most `degree`."""
    if n == 0:
        yield ()
        return
    for e in range(degree + 1):
        for rest in _vectors_up_to(n - 1, degree - e):
            yield (e,) + rest


def _reference_factor_monomial(target, lms, order_idx):
    """The search `_factor_monomial` replaced: every generator, in the given
    index order, at every depth.  Kept as the reference its answer must
    equal."""
    n = len(lms)
    result = [0] * n

    def rec(pos: int, remaining: list[int]) -> bool:
        if not any(remaining):
            return True
        if pos == n:
            return False
        i = order_idx[pos]
        lm = lms[i]
        emax = None
        for r, l in zip(remaining, lm):
            if l:
                q = r // l
                if emax is None or q < emax:
                    emax = q
                if q == 0:
                    break
        for e in range(emax, -1, -1):
            if e:
                rest = [r - e * l for r, l in zip(remaining, lm)]
            else:
                rest = remaining
            result[i] = e
            if rec(pos + 1, rest):
                return True
        result[i] = 0
        return False

    if rec(0, list(target)):
        return sparse(result)
    return None


def _assert_fields_match(basis):
    """Every divisor-index entry's fields are its leading monomial's nonzero
    exponents, as ``(shift, exponent)`` pairs, lowest field first."""
    unpack, n = basis.order.varset.unpack, len(basis.order.varset)
    for _, lm, fields in basis._ranked:
        expected = sorted((32 * (n - 1 - v), e) for v, e in enumerate(unpack(lm)) if e)
        assert list(fields) == expected, (lm, fields)


def _assert_factorizations_match(targets, lms, order):
    """The search, on the divisor index of the set of monomial generators
    `lms`, and its reference, on exponent tuples, agree on every target,
    None included; returns how many targets factor."""
    idx = sorted(range(len(lms)), key=lambda i: order.key(lms[i]), reverse=True)
    pack = order.varset.pack
    basis = GeneratorSet([Polynomial(order.varset, {lm: 1}) for lm in lms], order)
    assert basis.leading_monomials() == tuple(map(pack, lms))
    assert [(i, lm) for i, lm, _ in basis._ranked] == [(i, pack(lms[i])) for i in idx]
    _assert_fields_match(basis)
    factored = 0
    for target in targets:
        got = _factor_monomial(pack(target), basis)
        assert got == _reference_factor_monomial(target, lms, idx), (target, lms)
        factored += got is not None
    return factored


def _reference_subduct(f, basis):
    """The subduction loop `subduct` ran before it kept one mutable
    remainder: each step builds a new polynomial by subtracting the scaled
    power product.  Kept as the reference its result must equal; returns
    (remainder, certificate terms, the leading monomial of each step)."""
    order = basis.order
    cert_terms = {}
    g = f
    targets = []
    while not g.is_zero():
        lt_mono, lt_coeff = g.leading_term(order)
        exps = _factor_monomial(lt_mono, basis)
        if exps is None:
            break
        cert_terms[exps] = lt_coeff
        g = g - basis.power_product(exps).scale(lt_coeff)
        targets.append(lt_mono)
    return g, cert_terms, targets


class TestGeneratorSet:
    def test_monic_normalization(self):
        vs = VariableSet(["x", "y"])
        g = GeneratorSet([parse("2*x + y", vs)], vs.default_order())
        assert g.gens[0] == parse("x + 1/2*y", vs)

    def test_duplicate_leading_monomials_merge(self):
        vs = VariableSet(["x", "y"])
        g = GeneratorSet([parse("x + y", vs), parse("x", vs)], vs.default_order())
        assert len(g) == 2
        assert set(g.leading_monomials()) == {
            parse("x", vs).leading_monomial(),
            parse("y", vs).leading_monomial(),
        }

    def test_exact_duplicate_dropped(self):
        vs = VariableSet(["x"])
        g = GeneratorSet([parse("x", vs), parse("3*x", vs)], vs.default_order())
        assert len(g) == 1

    def test_rejects_constants_and_zero(self):
        vs = VariableSet(["x"])
        with pytest.raises(ValueError):
            GeneratorSet([parse("7", vs)], vs.default_order())
        # plain zero generators are silently dropped
        assert len(GeneratorSet([Polynomial.zero(vs), parse("x", vs)], vs.default_order())) == 1

    def test_repr(self):
        vs = VariableSet(["x", "y"])
        assert repr(GeneratorSet([parse("x", vs), parse("y", vs)], TermOrder(vs, ["y", "x"]))) == (
            "GeneratorSet(2 generators, TermOrder(lex y x))"
        )

    def test_attributes_cannot_be_reassigned(self):
        vs = VariableSet(["x", "y"])
        g = GeneratorSet([parse("x", vs), parse("y", vs)], vs.default_order())
        for name, value in (("gens", ()), ("order", TermOrder(vs, ["y", "x"])), ("_lms", ()), ("_factors", {})):
            with pytest.raises(AttributeError, match=f"^GeneratorSet is immutable; cannot set {name!r}$"):
                setattr(g, name, value)
            with pytest.raises(AttributeError, match=f"^GeneratorSet is immutable; cannot delete {name!r}$"):
                delattr(g, name)
        assert len(g) == 2 and g.order == vs.default_order()
        assert subduct(parse("x*y", vs), g).remainder.is_zero()

    def test_merge_residue_constants_dropped(self):
        # x and x+1 generate the same algebra as x alone
        vs = VariableSet(["x"])
        g = GeneratorSet([parse("x", vs), parse("x + 1", vs)], vs.default_order())
        assert [str(p) for p in g] == ["x"]


class TestCopyAndPickle:
    """The immutable values copy as themselves and pickle through their
    public constructors, so results can be copied or sent to another process."""

    def test_values_round_trip(self):
        vs = VariableSet(["x", "y"])
        values = [
            vs,
            TermOrder(vs, ["y", "x"]),
            parse("x^2 - 1/3*x*y + 5", vs),
            rotation_from_quaternion(RationalQuaternion(1, 2, 3, 4)),
            ExactRadical(Fraction(-3, 2), 5),
        ]
        for value in values:
            assert copy.copy(value) is value and copy.deepcopy(value) is value
            back = pickle.loads(pickle.dumps(value))
            assert type(back) is type(value) and back == value
            with pytest.raises(AttributeError, match="is immutable; cannot set"):
                back.extra = 1
        # a loaded polynomial computes: its variable set rebuilt its layout
        f = values[2]
        f_back = pickle.loads(pickle.dumps(f))
        assert f_back.varset.pack((2, 1)) == vs.pack((2, 1)) and f_back.varset.default_order() == vs.default_order()
        assert f_back - f == 0 and f_back * f_back == f * f

    def test_generator_set_round_trips(self):
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("2*x + y", vs), parse("x*y", vs)], TermOrder(vs, ["y", "x"]))
        assert copy.copy(basis) is basis and copy.deepcopy(basis) is basis
        back = pickle.loads(pickle.dumps(basis))
        assert back.gens == basis.gens and back.order == basis.order
        assert back.leading_monomials() == basis.leading_monomials()
        assert back.power_product(((0, 2), (1, 1))) == basis.power_product(((0, 2), (1, 1)))

    def test_results_round_trip(self):
        result = sagbi_construct(pullback(ActionKind.TRANSLATION_SUB, 1).seed_generators(), degree_bound=4)
        back = pickle.loads(pickle.dumps(result))
        assert back.basis.gens == result.basis.gens and back.basis.order == result.basis.order
        assert (back.complete, back.degree_bound, back.iterations) == (
            result.complete, result.degree_bound, result.iterations
        )
        assert copy.deepcopy(result) == result
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x", vs), parse("x*y + y", vs)], vs.default_order())
        res = subduct(parse("x^3 + x^2*y + x*y + 7*y", vs), basis)
        back = pickle.loads(pickle.dumps(res))
        assert back.remainder == res.remainder and back.targets == res.targets
        assert dict(back.certificate.terms) == dict(res.certificate.terms) and res.certificate.terms
        assert back.certificate.evaluate() == res.certificate.evaluate()
        with pytest.raises(TypeError):
            back.certificate.terms[()] = 1

    def test_certificate_terms_refuse_writes_by_name(self):
        # the view names its owner, before and after a pickle round trip
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x", vs), parse("x*y + y", vs)], vs.default_order())
        res = subduct(parse("x^3 + x^2*y + 7*y", vs), basis)
        for terms in (res.certificate.terms, pickle.loads(pickle.dumps(res)).certificate.terms):
            key = next(iter(terms))
            with pytest.raises(TypeError, match="^certificate terms are read-only$"):
                terms[key] = 1
            with pytest.raises(TypeError, match="^certificate terms are read-only$"):
                del terms[key]
        assert dict(res.certificate.terms) and res.certificate.evaluate() + res.remainder == parse("x^3 + x^2*y + 7*y", vs)


class TestWithAdded:
    """`with_added` grows a set into what `GeneratorSet(gens + new)` builds
    from scratch, inserting only the new generators, and keeps the old
    set's cached powers."""

    @staticmethod
    def _assert_grows_like_scratch(basis, *new):
        for exps in _vectors_up_to(len(basis), 2):
            basis.power_product(sparse(exps))
        gens, ranked, powers = basis.gens, basis._ranked, dict(basis._powers)
        grown = basis.with_added(*new)
        scratch = GeneratorSet(list(gens) + list(new), basis.order)
        assert grown.gens == scratch.gens and grown.gens[: len(gens)] == gens
        assert grown.leading_monomials() == scratch.leading_monomials()
        assert grown._ranked == scratch._ranked
        # the index lists every generator once, largest leading monomial first
        key = basis.order.key
        entries = [(i, lm) for i, lm, _ in grown._ranked]
        assert sorted(i for i, _ in entries) == list(range(len(grown)))
        assert all(grown.leading_monomials()[i] == lm for i, lm in entries)
        keys = [key(lm) for _, lm in entries]
        assert keys == sorted(keys, reverse=True)
        _assert_fields_match(grown)
        # the old powers are carried, the old set is left as it was
        assert grown._powers == powers and grown._powers is not basis._powers
        assert (basis.gens, basis._ranked, basis._powers) == (gens, ranked, powers)
        for exps in _vectors_up_to(len(grown), 2):
            assert grown.power_product(sparse(exps)) == scratch.power_product(sparse(exps))
        assert basis._powers == powers
        return grown

    def test_collision_duplicate_and_residue(self):
        vs = VariableSet(["x", "y", "z"])
        basis = GeneratorSet([parse("x + y", vs), parse("y^2 - z", vs)], vs.default_order())
        # x + z^2 collides with x + y and joins reduced, as y - z^2
        grown = self._assert_grows_like_scratch(basis, parse("x + z^2", vs))
        assert grown.gens[2] == parse("y - z^2", vs)
        # an exact duplicate melts away; a merge residue in the ground field too
        for dropped in (parse("3*y^2 - 3*z", vs), parse("x + y + 5", vs)):
            assert self._assert_grows_like_scratch(basis, dropped).gens == basis.gens
        # several at once, in order, one colliding with another new one
        new = [parse(text, vs) for text in ("z^3", "z^3 + 2*z", "z", "z^2")]
        grown = self._assert_grows_like_scratch(basis, *new)
        assert grown.gens[2:] == (new[0], new[2], new[3])

    def test_refusals_leave_the_set_unchanged(self):
        vs, other = VariableSet(["x", "y"]), VariableSet(["x", "y", "z"])
        basis = GeneratorSet([parse("x", vs), parse("x*y + y", vs)], vs.default_order())
        state = (basis.gens, basis._lms, basis._ranked)
        with pytest.raises(ValueError, match="constant"):
            basis.with_added(parse("y", vs), parse("7", vs))
        with pytest.raises(ValueError, match="wrong variable set"):
            basis.with_added(parse("y", other))
        assert (basis.gens, basis._lms, basis._ranked) == state
        for new in ([parse("7", vs)], [parse("y", other)]):
            with pytest.raises(ValueError):
                GeneratorSet(list(basis.gens) + new, basis.order)

    def test_random_sets_grown_one_at_a_time(self):
        rng = random.Random(22)
        grown_by = 0
        for _ in range(40):
            basis = _random_generator_set(rng)
            vs = basis.order.varset
            candidates = list(basis.gens[1:])
            # random polynomials over so few variables often collide
            for _ in range(6):
                f = random_poly(rng, vs, max_terms=4, max_deg=2)
                if f.is_zero() or f.leading_monomial(basis.order):
                    candidates.append(f)
            rng.shuffle(candidates)
            current = GeneratorSet(basis.gens[:1], basis.order)
            for f in candidates:
                before = len(current)
                current = self._assert_grows_like_scratch(current, f)
                grown_by += len(current) - before
        assert grown_by > 200


class TestPowerCache:
    def _small_set(self):
        vs = VariableSet(["x", "y", "z"])
        gens = [parse("x + y", vs), parse("x*y - 2*z", vs), parse("y^2 + 1/3*z", vs)]
        return GeneratorSet(gens, vs.default_order())

    def test_power_product_matches_explicit_product(self):
        basis = self._small_set()
        vectors = list(_vectors_up_to(len(basis), 4))
        assert len(vectors) == 35
        for _ in range(2):  # second round is served from the cache
            for exps in vectors:
                assert basis.power_product(sparse(exps)) == _explicit_product(basis.gens, exps)

    def test_with_added_keeps_old_and_new_powers_right(self):
        basis = self._small_set()
        vs = basis.order.varset
        for exps in _vectors_up_to(len(basis), 3):
            basis.power_product(sparse(exps))
        # x + z^2 collides with x + y and joins reduced, as z^2 - y
        grown = basis.with_added(parse("x + z^2", vs), parse("z^3", vs))
        assert grown.gens[: len(basis)] == basis.gens
        assert len(grown) == len(basis) + 2
        for exps in _vectors_up_to(len(grown), 3):
            assert grown.power_product(sparse(exps)) == _explicit_product(grown.gens, exps)
        for exps in _vectors_up_to(len(basis), 3):
            assert basis.power_product(sparse(exps)) == _explicit_product(basis.gens, exps)

    def test_power_product_and_subduct_leave_generators_unchanged(self):
        basis = self._small_set()
        before = [dict(g.terms) for g in basis.gens]
        gens = basis.gens
        basis.power_product(sparse((2, 1, 3)))
        f = basis.power_product(sparse((1, 2, 0))) - basis.power_product(sparse((0, 0, 2))) + parse("z", basis.order.varset)
        subduct(f, basis)
        assert basis.gens is gens
        assert [dict(g.terms) for g in basis.gens] == before

    def test_cached_powers_cannot_be_mutated(self):
        # `terms` is a read-only view: a caller cannot clear a cached power
        # and so change every later subduction against the basis
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x + y", vs)], vs.default_order())
        square = parse("x^2 + 2*x*y + y^2", vs)
        terms = basis.power_product(sparse((2,))).terms
        with pytest.raises(TypeError):
            terms[vs.pack((2, 0))] = 5
        with pytest.raises(TypeError):
            del terms[vs.pack((2, 0))]
        with pytest.raises(AttributeError):
            terms.clear()
        assert basis.power_product(sparse((2,))) == square
        assert subduct(square, basis).remainder.is_zero()

    def test_factorizations_not_carried_across_with_added(self):
        vs = VariableSet(["x", "y"])
        x, y = parse("x", vs), parse("y", vs)
        basis = GeneratorSet([x], vs.default_order())
        # x*y does not factor over {x}; subducting records that answer
        assert subduct(x * y, basis).remainder == x * y
        assert subduct(x * y, basis.with_added(y)).remainder.is_zero()
        assert subduct(x * y, basis).remainder == x * y
        # a new generator can change which factorization the search returns
        pair = GeneratorSet([x, y], vs.default_order())
        target = x * x * y
        assert subduct(target, pair).certificate.terms == {sparse((2, 1)): 1}
        grown = pair.with_added(x * y)
        assert subduct(target, grown).certificate.terms == {sparse((1, 0, 1)): 1}
        assert subduct(target, pair).certificate.terms == {sparse((2, 1)): 1}

    def test_empty_product_is_one(self):
        basis = self._small_set()
        assert basis.power_product(sparse((0, 0, 0))) == Polynomial.constant(basis.order.varset, 1)

    def test_index_counts_give_the_dense_product(self):
        basis = self._small_set()
        for exps in _vectors_up_to(len(basis), 4):
            counts = {i: e for i, e in enumerate(exps) if e}
            assert basis.power_product(counts.items()) == basis.power_product(sparse(exps))


class TestSubduction:
    def test_non_descending_step_raises(self, monkeypatch):
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x", vs)], vs.default_order())
        real = GeneratorSet.power_product
        calls = []

        def first_product_cancels_nothing(self, exps):
            # the first step leaves the leading term in place; later steps
            # are real, so without the check subduction would finish
            calls.append(exps)
            return Polynomial.zero(vs) if len(calls) == 1 else real(self, exps)

        monkeypatch.setattr(GeneratorSet, "power_product", first_product_cancels_nothing)
        with pytest.raises(RuntimeError, match=r"strictly descend: leading key \(2, 0\) after \(2, 0\)"):
            subduct(parse("x^2 + y", vs), basis)

    def test_wrong_variable_set_rejected(self):
        vs, other = VariableSet(["x", "y"]), VariableSet(["x", "y", "z"])
        basis = GeneratorSet([parse("x", vs)], vs.default_order())
        with pytest.raises(ValueError, match="polynomial over the wrong variable set"):
            subduct(parse("x", other), basis)

    def test_generator_subducts_to_itself(self):
        vs = screw_varset(1)
        basis = GeneratorSet([killing_dot(vs, 1, 1), klein_form(vs, 1)], vs.default_order())
        res = subduct(klein_form(vs, 1), basis)
        assert res.remainder.is_zero()
        assert res.certificate.evaluate() == klein_form(vs, 1)

    def test_product_of_generators(self):
        vs = screw_varset(1)
        basis = GeneratorSet([killing_dot(vs, 1, 1), klein_form(vs, 1)], vs.default_order())
        f = klein_form(vs, 1) * killing_dot(vs, 1, 1)
        assert subduct(f, basis).remainder.is_zero()

    def test_zero_input(self):
        vs = screw_varset(1)
        basis = GeneratorSet([klein_form(vs, 1)], vs.default_order())
        res = subduct(Polynomial.zero(vs), basis)
        assert res.remainder.is_zero() and len(res.certificate) == 0

    def test_constants_subduct_via_empty_product(self):
        # the unit monomial is the empty product of leading monomials, so
        # ground-field elements are always members
        vs = screw_varset(1)
        basis = GeneratorSet([klein_form(vs, 1)], vs.default_order())
        res = subduct(klein_form(vs, 1) + 7, basis)
        assert res.remainder.is_zero()
        assert res.certificate.terms[sparse((0,))] == 7

    def test_soundness_identity_fuzz(self):
        vs = VariableSet(["x", "y", "z"])
        order = vs.default_order()
        basis = GeneratorSet(
            [parse("x^2 + y", vs), parse("y*z + z", vs), parse("z", vs)], order
        )
        rng = random.Random(71)
        for _ in range(200):
            f = random_poly(rng, vs, max_terms=6, max_deg=4)
            res = subduct(f, basis)
            assert res.certificate.evaluate() + res.remainder == f
            if not res.remainder.is_zero():
                lm = res.remainder.leading_monomial(order)
                assert _factor_monomial(lm, basis) is None

    def test_two_screw_cubic_remainder(self):
        vs = screw_varset(2)
        catalog = translation_sagbi_catalog(2)
        nine = [p for name, p in catalog if name != "cubic_12"]
        basis = GeneratorSet(nine, vs.default_order())
        res = subduct(two_screw_tete_a_tete_input(), basis)
        assert res.remainder == parse(TWO_SCREW_CUBIC, vs)
        # and the catalog's cubic is exactly this remainder, made monic
        assert dict(catalog.entries)["cubic_12"] == res.remainder.monic(vs.default_order())


    @staticmethod
    def _assert_matches_reference(monkeypatch, f, basis, products):
        """`subduct` equals `_reference_subduct` on remainder, certificate,
        power products taken and step targets, and leaves `f` as it was; so
        does `subduct` with the step-product memo `products`, which builds
        only the products it has not stored yet."""
        steps = [0]
        power_product = GeneratorSet.power_product

        def counted(self, exps):
            steps[0] += 1
            return power_product(self, exps)

        before = (dict(f.terms), f.den)
        monkeypatch.setattr(GeneratorSet, "power_product", counted)
        res = subduct(f, basis)
        assert steps[0] == len(res.targets)
        stored = len(products)
        memo = subduct(f, basis, products=products)
        assert steps[0] - len(res.targets) == len(products) - stored
        monkeypatch.setattr(GeneratorSet, "power_product", power_product)
        remainder, cert_terms, targets = _reference_subduct(f, basis)
        for got in (res, memo):
            assert got.remainder == remainder and got.remainder.den == remainder.den
            assert got.certificate.terms == cert_terms
            assert [type(c) for c in got.certificate.terms.values()] == [type(c) for c in cert_terms.values()]
            assert got.targets == tuple(targets)
        assert set(targets) <= products.keys()
        assert (dict(f.terms), f.den) == before
        return len(targets)

    @staticmethod
    def _products_plus_noise(rng, basis):
        """A few scaled power products of `basis` plus a random polynomial,
        so that subduction takes several steps before it stops."""
        f = random_poly(rng, basis.order.varset, max_terms=3, max_deg=3)
        for _ in range(rng.randint(1, 3)):
            exps = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(len(basis)))
            f = f + basis.power_product(sparse(exps)).scale(Fraction(rng.randint(-7, 7), rng.randint(1, 5)))
        return f

    def test_fractional_generators_match_reference(self, monkeypatch):
        # every generator is over a den != 1, so each step scales the remainder
        vs = VariableSet(["x", "y", "z"])
        basis = GeneratorSet(
            [parse(t, vs) for t in ("x + 1/2*y", "y^2 - 2/3*z", "x*z + 3/7*y*z + 1/5*z")],
            vs.default_order(),
        )
        assert all(g.den != 1 for g in basis)
        rng = random.Random(20)
        steps, products = 0, {}  # one memo, reused over every call on the basis
        for _ in range(60):
            f = self._products_plus_noise(rng, basis)
            steps += self._assert_matches_reference(monkeypatch, f, basis, products)
        assert steps > 80 and len(products) < steps

    def test_permuted_priorities_match_reference(self, monkeypatch):
        vs = VariableSet(["x", "y", "z", "u"])
        gens = [parse(t, vs) for t in ("x*y + z", "y*u - 1/3*x", "z^2 + x*u", "u + 2*y", "x*z*u - y^3")]
        rng = random.Random(21)
        steps = stored = 0
        for priority in (["u", "z", "y", "x"], ["y", "u", "x", "z"], ["z", "x", "u", "y"]):
            basis, products = GeneratorSet(gens, TermOrder(vs, priority)), {}
            for _ in range(30):
                f = self._products_plus_noise(rng, basis)
                steps += self._assert_matches_reference(monkeypatch, f, basis, products)
            stored += len(products)
        assert steps > 90 and stored < steps

    def test_one_memo_over_two_sets(self):
        # {x} and {x + y} both factor the target x as their one generator,
        # but only the second's product is x + y; the memo's entry from the
        # first must not serve the second
        vs = VariableSet(["x", "y"])
        x, y = parse("x", vs), parse("y", vs)
        memo = {}
        assert subduct(x, GeneratorSet([x], vs.default_order()), products=memo).remainder.is_zero()
        res = subduct(x, GeneratorSet([x + y], vs.default_order()), products=memo)
        assert res.remainder == -y and res.certificate.terms == {((0, 1),): 1}
        assert x == res.remainder + res.certificate.evaluate()
        assert memo[x.leading_monomial()][1] == x + y  # the entry was replaced

    def test_shared_memo_matches_fresh_memos(self):
        # one dict over sets with the same leading monomials and other tails
        # (the same factorizations, other products) and over unrelated random
        # sets, calls interleaved, gives every set's own answers
        rng = random.Random(28)
        vs = VariableSet(["x", "y", "z"])
        templates = (("x", "y", "z"), ("y^2", "z"), ("x*z", "y*z", "z"), ("y*z", "z^2"))

        def generator(lm, *tail):
            scaled = (parse(t, vs).scale(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))) for t in tail)
            return sum(scaled, parse(lm, vs))

        bases = [GeneratorSet([generator(*t) for t in templates], vs.default_order()) for _ in range(5)]
        bases += [_random_generator_set(rng) for _ in range(5)]
        shared, fresh, owner = {}, [{} for _ in bases], {}  # owner: target -> the set that last stored it
        stale = 0
        for _ in range(12):
            for k, basis in enumerate(bases):
                f = self._products_plus_noise(rng, basis)
                got = subduct(f, basis, products=shared)
                for res in (subduct(f, basis, products=fresh[k]), subduct(f, basis)):
                    assert got.remainder == res.remainder and got.remainder.den == res.remainder.den
                    assert got.certificate.terms == res.certificate.terms and got.targets == res.targets
                assert f == got.remainder + got.certificate.evaluate()
                for target in got.targets:
                    stale += owner.get(target, k) != k
                    owner[target] = k
        assert stale > 50

    def test_certificate_terms_are_read_only(self):
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x", vs), parse("y", vs)], vs.default_order())
        f = parse("x^2*y + 3", vs)
        res = subduct(f, basis)
        terms = res.certificate.terms
        with pytest.raises(TypeError):
            terms[((0, 1),)] = 5
        with pytest.raises(TypeError):
            del terms[((0, 2), (1, 1))]
        assert terms == {((0, 2), (1, 1)): 1, (): 3} and len(res.certificate) == 2
        assert f == res.remainder + res.certificate.evaluate() and res.remainder.is_zero()

    def test_random_corpus_matches_reference(self, monkeypatch):
        # random generator sets: shuffled priorities, fractional coefficients
        steps = stored = 0
        for seed in range(40):
            rng = random.Random(2000 + seed)
            basis, products = _random_generator_set(rng), {}
            for _ in range(5):
                f = self._products_plus_noise(rng, basis)
                steps += self._assert_matches_reference(monkeypatch, f, basis, products)
            stored += len(products)
        assert steps > 300 and stored < steps


class TestFactorMonomial:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_random_sets(self, seed):
        rng = random.Random(seed)
        factored = cases = 0
        for _ in range(150):
            n = rng.randint(1, 5)
            vs = VariableSet([f"x{i}" for i in range(n)])
            order = TermOrder(vs, rng.sample(vs.names, n))
            # entries 0..2 give 3**n - 1 distinct non-constant monomials
            count = rng.randint(1, min(7, 3**n - 1))
            lms = set()
            while len(lms) < count:
                lm = tuple(rng.randint(0, 2) for _ in range(n))
                if any(lm):
                    lms.add(lm)
            lms = sorted(lms)
            rng.shuffle(lms)
            targets = [tuple(rng.randint(0, 6) for _ in range(n)) for _ in range(10)]
            for _ in range(10):
                target = [0] * n
                for lm in lms:
                    e = rng.randint(0, 2)
                    target = [t + e * l for t, l in zip(target, lm)]
                targets.append(tuple(target))
            factored += _assert_factorizations_match(targets, lms, order)
            cases += len(targets)
        # both answers occur often: the comparison is not all None
        assert 0.3 * cases < factored < cases

    def test_exponents_near_the_limit(self):
        # the largest exponent is one quotient per field, so these take a
        # step each; no multiple of a leading monomial past a field's guard
        # bit is ever taken for a fit: (5, 2^30 + 1) less 3 * (1, 2^30 + 1)
        # has no guard bit set
        order = VariableSet(["x", "y"]).default_order()
        big = 2**31 - 1
        lms = [(2**30, 1), (1, 2**30), (1, 2**30 + 1), (0, 2**30), (1, 0), (0, 1)]
        targets = [(0, big), (big, big), (5, big), (big, 5), (2**30, big), (big, 0), (0, 0), (5, 2**30 + 1)]
        assert _assert_factorizations_match(targets, lms, order) == len(targets)
        # one step back from the largest exponent, and no factorization
        assert _assert_factorizations_match([(0, big), (0, 1)], [(0, 2), (0, 3)], order) == 1

    def test_huge_exponent_in_subduction(self):
        # a generator's lower term reaches y^(32 n); the step that factors
        # it finds the exponent 32 n as one field quotient (one unit at a
        # time, this took seconds)
        vs = VariableSet(["x", "y"])
        n = 100_000
        basis = GeneratorSet([parse(f"x + y^{n}", vs), parse("y", vs)], vs.default_order())
        t0 = time.monotonic()
        res = subduct(parse("x^32", vs), basis)
        assert time.monotonic() - t0 < 1.0
        assert res.remainder.is_zero() and len(res.certificate) == 33
        assert res.certificate.terms[sparse((0, 32 * n))] == 1

    def test_hopeless_factorization_fails_at_once(self):
        # x is in no candidate's leading monomial, so no exponent of y is
        # tried (one at a time, this took seconds)
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("y", vs)], vs.default_order())
        f = parse(f"x*y^{10**8}", vs)
        t0 = time.monotonic()
        res = subduct(f, basis)
        assert time.monotonic() - t0 < 1.0
        assert res.remainder == f and not res.certificate.terms

    @pytest.mark.parametrize(
        "text, gens",
        [
            ("x^{n1}*y^{n}", ["x*y"]),
            ("x^{n1}*y^{n}", ["x*y", "y"]),
            ("y^{n2}", ["y^2"]),
        ],
    )
    def test_failed_exponent_search_stops_at_once(self, text, gens):
        # the first candidate tried is the only one to use x (or y), so that
        # variable fixes its exponent: once the largest exponent fails, no
        # smaller one is tried (one at a time, n = 10^6 took 0.1-0.2 s)
        vs = VariableSet(["x", "y"])
        n = 10**8
        basis = GeneratorSet([parse(g, vs) for g in gens], vs.default_order())
        f = parse(text.format(n=n, n1=n + 1, n2=2 * n + 1), vs)
        t0 = time.monotonic()
        res = subduct(f, basis)
        assert time.monotonic() - t0 < 1.0
        assert res.remainder == f and not res.certificate.terms
        # and on small exponents the answer is the reference's
        lms = [vs.unpack(lm) for lm in basis.leading_monomials()]
        for k in range(6):
            small = vs.unpack(parse(text.format(n=k, n1=k + 1, n2=2 * k + 1), vs).leading_monomial())
            assert _assert_factorizations_match([small, (k, k), (0, 2 * k)], lms, basis.order) >= 1

    def test_factorization_size_does_not_grow_with_the_basis(self):
        # x, y and 300 powers of z that cannot divide x^3*y^2: the factorization,
        # and the memo entry one subduction leaves, hold only the two factors used
        vs = VariableSet(["x", "y", "z"])
        gens = [parse("x", vs), parse("y", vs)] + [parse(f"z^{k}", vs) for k in range(2, 302)]
        basis = GeneratorSet(gens, vs.default_order())
        assert len(basis) == 302
        target = parse("x^3*y^2", vs)
        lm = target.leading_monomial()
        assert _factor_monomial(lm, basis) == ((0, 3), (1, 2))
        assert subduct(target, basis).remainder.is_zero()
        assert basis._factors[lm] == ((0, 3), (1, 2))

    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_reference_on_translation_bases(self, m):
        seed = pullback(ActionKind.TRANSLATION_SUB, m).seed_generators()
        res = sagbi_construct(seed, degree_bound=4)
        assert res.complete
        lms = list(map(res.basis.order.varset.unpack, res.basis.leading_monomials()))
        products = set()
        for vec in _vectors_up_to(len(lms), 2):
            mono = [0] * len(res.basis.order.varset)
            for lm, e in zip(lms, vec):
                mono = [x + e * l for x, l in zip(mono, lm)]
            products.add(tuple(mono))
        # each product, and each product raised by one in a seeded coordinate
        rng = random.Random(m)
        targets = set(products)
        for mono in sorted(products):
            j = rng.randrange(len(mono))
            targets.add(mono[:j] + (mono[j] + 1,) + mono[j + 1:])
        factored = _assert_factorizations_match(sorted(targets), lms, res.basis.order)
        assert len(products) <= factored < len(targets)


class TestTeteATetes:
    def test_free_monoid_has_none(self):
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x", vs), parse("y", vs)], vs.default_order())
        assert tete_a_tetes(basis, 4) == []

    def test_cusp_relation(self):
        vs = VariableSet(["x"])
        basis = GeneratorSet([parse("x^2", vs), parse("x^3", vs)], vs.default_order())
        pairs = tete_a_tetes(basis, 6)
        assert len(pairs) == 1
        assert {pairs[0].a, pairs[0].b} == {sparse((3, 0)), sparse((0, 2))}

    def test_leading_monomials_cancel_exactly(self):
        vs = screw_varset(2)
        basis = GeneratorSet(
            [Polynomial.variable(vs, "w11"), Polynomial.variable(vs, "w21"),
             klein_form(vs, 2), mixed_form(vs, 1, 2)],
            vs.default_order(),
        )
        pairs = tete_a_tetes(basis, 4)
        assert pairs, "the two-screw cubic relation must be found"
        order = vs.default_order()
        for pair in pairs:
            pa = basis.power_product(pair.a)
            pb = basis.power_product(pair.b)
            assert pa.leading_term(order) == pb.leading_term(order)
            assert {i for i, _ in pair.a}.isdisjoint(i for i, _ in pair.b)
        # the relation generating the cubic: w11 * lm(klein_2) == w21 * lm(mixed)
        expected = {sparse((1, 0, 1, 0)), sparse((0, 1, 0, 1))}
        assert any({p.a, p.b} == expected for p in pairs)

    def test_degree_bound_respected(self):
        vs = VariableSet(["x"])
        basis = GeneratorSet([parse("x^2", vs), parse("x^3", vs)], vs.default_order())
        assert tete_a_tetes(basis, 5) == []  # x^6 relation exceeds the bound

    def test_bad_bound(self):
        vs = VariableSet(["x"])
        basis = GeneratorSet([parse("x", vs)], vs.default_order())
        with pytest.raises(ValueError):
            tete_a_tetes(basis, 0)
        # a larger bound could build a product exponent past 2^31 - 1
        with pytest.raises(ValueError, match="below 2\\^31"):
            tete_a_tetes(basis, 2**31)

    def test_bound_beyond_recursion_limit(self):
        # one product per degree, 3000 deep: a recursive search would overflow;
        # carried on to a generator above the bound, which enters no product
        vs = VariableSet(["x"])
        basis = GeneratorSet([parse("x", vs)], vs.default_order())
        assert tete_a_tetes(basis, 3000) == [] == _reference_tete_a_tetes(basis, 3000)
        _assert_carried_matches([basis, basis.with_added(parse("x^3001", vs))], 3000)

    @pytest.mark.parametrize("bound", [7, 8, 15, 16])
    def test_exponents_at_the_bound(self, bound):
        # bucket keys pack a product's exponents in fields of bound.bit_length()
        # bits; at 7 and 15 an exponent equal to the bound fills its field
        vs = VariableSet(["x", "y"])
        x = GeneratorSet([parse("x", vs)], vs.default_order())
        assert tete_a_tetes(x, bound) == [] == _reference_tete_a_tetes(x, bound)
        texts = ["y", f"x^{bound}", f"x*y^{bound - 1}", "x*y", f"y^{bound}"]
        bases = [x]
        for text in texts:
            bases.append(bases[-1].with_added(parse(text, vs)))
        assert _assert_carried_matches(bases, bound)
        pairs = [(p.a, p.b) for p in tete_a_tetes(bases[3], bound)]  # x, y, x^bound, x*y^(bound - 1)
        dense = [((0, 0, 0, 1), (1, bound - 1, 0, 0)), ((0, 0, 1, 0), (bound, 0, 0, 0))]
        assert pairs == [(sparse(a), sparse(b)) for a, b in dense]

    @pytest.mark.parametrize("bound", [6, 7, 8])
    def test_generators_above_the_bound(self, bound):
        # leading monomials of degree 9 and 8 mixed in with ones that fit
        vs = VariableSet(["x", "y"])
        gens = [parse(t, vs) for t in ("x^9", "x", "x^7*y^2", "y", "x^3*y^5", "x*y", "x^2")]
        assert _assert_carried_matches(_grown(gens, vs.default_order()), bound)
        assert _assert_carried_matches(_grown(gens[::-1], vs.default_order()), bound)

    @pytest.mark.parametrize("seed", range(36))
    def test_matches_reference_on_random_sets(self, seed):
        rng = random.Random(1000 + seed)
        basis = _random_generator_set(rng)
        bound = 3 + seed % 4
        pairs = [(p.a, p.b) for p in tete_a_tetes(basis, bound)]
        assert pairs == _reference_tete_a_tetes(basis, bound)

    def test_random_sets_have_relations(self):
        # the reference comparison above is not vacuous
        with_relations = 0
        for seed in range(36):
            basis = _random_generator_set(random.Random(1000 + seed))
            with_relations += bool(tete_a_tetes(basis, 3 + seed % 4))
        assert with_relations >= 24

    @pytest.mark.parametrize("bound", [3, 4, 5, 6])
    @pytest.mark.parametrize(
        "text",
        ["x y z x*y y*z x*z x^2 y^2 z^2", "x y x*y+z x^2*y y^2", "x y x*y"],
    )
    def test_matches_reference_on_dense_sets(self, text, bound):
        # many relations share a side here, so a minimality check that
        # looks at only some partners of a sub-vector keeps too many
        vs = VariableSet(["x", "y", "z"])
        basis = GeneratorSet([parse(t, vs) for t in text.split()], vs.default_order())
        pairs = [(p.a, p.b) for p in tete_a_tetes(basis, bound)]
        assert pairs == _reference_tete_a_tetes(basis, bound)

    def test_sum_of_two_relations_is_not_minimal(self):
        # x*y = (xy) is minimal; x^2*y^2 = (xy)^2 is that relation twice,
        # since x and (xy) share the proper sub-product monomial x*y
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse(t, vs) for t in ("x", "y", "x*y")], vs.default_order())
        for bound in (2, 4, 6):
            pairs = [(p.a, p.b) for p in tete_a_tetes(basis, bound)]
            assert pairs == [(sparse((0, 0, 1)), sparse((1, 1, 0)))]

    # the bases of the benchmark's translation jobs
    @pytest.mark.parametrize("bound", [4, 5, 6, 7])
    def test_matches_reference_on_two_screw_translation_basis(self, bound):
        self._assert_matches_on_translation_basis(2, bound)

    @pytest.mark.parametrize("bound", [4, 5])
    def test_matches_reference_on_three_screw_translation_basis(self, bound):
        self._assert_matches_on_translation_basis(3, bound)

    @staticmethod
    def _assert_matches_on_translation_basis(m, bound):
        seed = pullback(ActionKind.TRANSLATION_SUB, m).seed_generators()
        basis = sagbi_construct(seed, degree_bound=bound).basis
        pairs = [(p.a, p.b) for p in tete_a_tetes(basis, bound)]
        assert pairs
        assert pairs == _reference_tete_a_tetes(basis, bound)


def _assert_carried_matches(bases, bound):
    """Enumerate `bases` in turn, carried as `sagbi_construct` carries them;
    each call must equal a from-scratch one and the reference."""
    carried = sagbi_module._Enumeration()
    total = 0
    for basis in bases:
        pairs = tete_a_tetes(basis, bound, carried)
        assert pairs == tete_a_tetes(basis, bound)
        assert [(p.a, p.b) for p in pairs] == _reference_tete_a_tetes(basis, bound), (basis.gens, bound)
        total += len(pairs)
    return total


def _grown(gens, order):
    """`gens` joined one at a time by `with_added`, as a list of bases."""
    bases = [GeneratorSet(gens[:1], order)]
    for g in gens[1:]:
        bases.append(bases[-1].with_added(g))
    assert bases[-1].gens == tuple(gens)
    return bases


NONHOMOGENEOUS_SEED = (
    "y*u - 3/2*x*y",
    "x*y*z - 2*x^2*u - 2*x*u",
    "y^2 + x*z*u - z",
    "y*z*u + x*y + 2*x*z",
    "x*y + 1/3*x*u^2 + 2/3*x*z",
    "x",
    "x^2*u + x*u - x^2",
    "x*u^2 + 2*x*z",
)


class TestConstruction:
    def test_free_seed_completes_immediately(self):
        vs = VariableSet(["x", "y"])
        seed = GeneratorSet([parse("x", vs), parse("y", vs)], vs.default_order())
        res = sagbi_construct(seed)
        assert res.complete and len(res.basis) == 2 and res.iterations == 1

    def test_cusp_completes(self):
        vs = VariableSet(["x"])
        seed = GeneratorSet([parse("x^2", vs), parse("x^3", vs)], vs.default_order())
        res = sagbi_construct(seed, degree_bound=8)
        assert res.complete
        assert len(res.basis) == 2  # (x^2)^3 - (x^3)^2 subducts to zero

    def test_incomplete_reported_not_raised(self):
        # the classic chain: x+y, xy, xy^2 keeps yielding xy^k generators,
        # so a single pass cannot certify completion
        vs = VariableSet(["x", "y"])
        seed = GeneratorSet(
            [parse("x + y", vs), parse("x*y", vs), parse("x*y^2", vs)], vs.default_order()
        )
        res = sagbi_construct(seed, degree_bound=4, max_iterations=1)
        assert res.iterations == 1
        assert not res.complete
        assert len(res.basis) == 4  # x*y^3 joined within the bound

    @pytest.mark.parametrize(
        "seed_name, bound",
        [("translation-1", 4), ("translation-2", 5), ("nonhomogeneous", 4)],
    )
    def test_construction_closure_when_complete(self, seed_name, bound):
        # the non-homogeneous seed completes in 3 passes; skipping last
        # pass's pairs would stop it after 2 with a non-closing basis
        if seed_name == "nonhomogeneous":
            vs = VariableSet(["x", "y", "z", "u"])
            seed = GeneratorSet(
                [parse(g, vs) for g in NONHOMOGENEOUS_SEED], TermOrder(vs, ["y", "u", "z", "x"])
            )
        else:
            m = int(seed_name.rsplit("-", 1)[1])
            seed = pullback(ActionKind.TRANSLATION_SUB, m).seed_generators()
        res = sagbi_construct(seed, degree_bound=bound, max_iterations=16)
        assert res.complete
        for pair in tete_a_tetes(res.basis, res.degree_bound):
            diff = res.basis.power_product(pair.a) - res.basis.power_product(pair.b)
            assert subduct(diff, res.basis).remainder.is_zero()

    def test_bound_beyond_recursion_limit(self):
        vs = VariableSet(["x"])
        seed = GeneratorSet([parse("x", vs)], vs.default_order())
        res = sagbi_construct(seed, degree_bound=3000)
        assert res.complete and len(res.basis) == 1 and res.iterations == 1

    def test_empty_seed_rejected(self):
        vs = VariableSet(["x"])
        with pytest.raises(ValueError):
            sagbi_construct(GeneratorSet([], vs.default_order()))

    @pytest.mark.parametrize("degree_bound, max_iterations", [(0, 16), (-3, 16), (4, 0), (4, -1)])
    def test_bound_below_1_rejected(self, degree_bound, max_iterations):
        vs = VariableSet(["x"])
        seed = GeneratorSet([parse("x", vs)], vs.default_order())
        with pytest.raises(ValueError, match="bounds must be at least 1"):
            sagbi_construct(seed, degree_bound, max_iterations)


def _reference_construct(seed, degree_bound, max_iterations=16):
    """The pass loop `sagbi_construct` ran before it replayed the last
    pass's pairs: every tete-a-tete is subducted afresh on every pass.  Kept
    as the reference its result must equal; it subducts through the module
    attribute, so a patched `subduct` sees its calls too."""
    basis = seed
    for iterations in range(1, max_iterations + 1):
        remainders = []
        for pair in sagbi_module.tete_a_tetes(basis, degree_bound):
            diff = basis.power_product(pair.a) - basis.power_product(pair.b)
            r = sagbi_module.subduct(diff, basis).remainder
            if not r.is_zero():
                remainders.append(r)
        remainders.sort(key=lambda p: basis.order.key(p.leading_monomial(basis.order)))
        current = basis
        for r in remainders:
            rr = sagbi_module.subduct(r, current).remainder
            if not rr.is_zero():
                current = current.with_added(rr.monic(basis.order))
        if current is basis:
            return current.gens, True, iterations
        basis = current
    return basis.gens, False, max_iterations


def _random_seed(rng, homogeneous):
    """Four to six generators of degree 1-3 over x, y, z under a shuffled
    lex priority: mostly binomials, each one's second term of the same
    degree when `homogeneous`, and some monomials."""
    vs = VariableSet(["x", "y", "z"])
    priority = list(vs.names)
    rng.shuffle(priority)

    def monomial(degree):
        exps = [0] * len(vs)
        for _ in range(degree):
            exps[rng.randrange(len(vs))] += 1
        return Polynomial(vs, {tuple(exps): 1})

    gens = []
    for _ in range(rng.randint(4, 6)):
        degree = rng.randint(1, 3)
        g = monomial(degree)
        if rng.random() < 0.9:
            other = monomial(degree if homogeneous else rng.randint(1, 3))
            g = g + other.scale(Fraction(rng.choice([-3, -2, 1, 2]), rng.randint(1, 2)))
        gens.append(g)
    return GeneratorSet(gens, TermOrder(vs, priority))


def _nonhomogeneous_seed():
    vs = VariableSet(["x", "y", "z", "u"])
    return GeneratorSet([parse(g, vs) for g in NONHOMOGENEOUS_SEED], TermOrder(vs, ["y", "u", "z", "x"]))


def _spy_on_sides(monkeypatch, seen):
    """Replace `TeteATete.a` and `.b` by properties that call
    ``seen(pair, path, value)``: the path read and its ``(index, exponent)``
    pairs."""
    for side in ("a", "b"):
        build = getattr(TeteATete, side).fget

        def spy(pair, side=side, build=build):
            value = build(pair)
            seen(pair, getattr(pair, f"path_{side}"), value)
            return value

        monkeypatch.setattr(TeteATete, side, property(spy))


class TestReplay:
    """`sagbi_construct` skips a pair of the last pass only when it would
    subduct to zero by the same steps, so its result equals the reference's."""

    @staticmethod
    def _compare(monkeypatch, cases):
        """Run both loops on every (seed, bound, max_iterations); return the
        subduct calls of (construction, reference)."""
        calls = [0, 0]
        side = [0]
        original = sagbi_module.subduct

        def counted(f, basis, **memo):
            calls[side[0]] += 1
            return original(f, basis, **memo)

        monkeypatch.setattr(sagbi_module, "subduct", counted)
        for seed, bound, max_iterations in cases:
            side[0] = 0
            res = sagbi_construct(seed, degree_bound=bound, max_iterations=max_iterations)
            side[0] = 1
            expected = _reference_construct(seed, bound, max_iterations)
            assert (res.basis.gens, res.complete, res.iterations) == expected, (seed.gens, bound)
        return calls

    def test_matches_reference_on_random_seeds(self, monkeypatch):
        rng = random.Random(19)
        cases = []
        for k in range(200):
            seed = _random_seed(rng, homogeneous=k % 2 == 0)
            if len(seed):
                cases.append((seed, rng.randint(3, 5), 6))
        replay, reference = self._compare(monkeypatch, cases)
        assert replay < reference  # the replay fired

    def test_replayed_pairs_repeat_their_last_subduction(self, monkeypatch):
        # A pair the construction leaves out must, subducted now, take
        # exactly the steps of its last subduction (the first stage, the
        # insert-phase stage, and one step on the generator the remainder
        # became, if it became one) and reach zero.  The construction
        # subducts a pair right after reading its two sides, so the spies
        # tell a subducted pair by the pair whose sides were read last; a
        # pair comes back as the same object in later passes, so its calls
        # are told apart by pass.
        passes, events = [], []
        enumerate_pairs, original = sagbi_module.tete_a_tetes, sagbi_module.subduct

        def spy_pairs(basis, bound, carried):
            pairs = enumerate_pairs(basis, bound, carried)
            passes.append((basis, pairs))
            events.append(len(passes))  # a pass starts
            return pairs

        def spy_subduct(f, basis, **memo):
            call = [f, basis, None]
            events.append(call)
            call[2] = original(f, basis, **memo)
            return call[2]

        def steps(res):
            return set(res.certificate.terms)

        monkeypatch.setattr(sagbi_module, "tete_a_tetes", spy_pairs)
        monkeypatch.setattr(sagbi_module, "subduct", spy_subduct)
        _spy_on_sides(monkeypatch, lambda pair, path, value: events.append(pair))
        rng = random.Random(19)
        cases = [(_random_seed(rng, homogeneous=k % 2 == 0), rng.randint(3, 5)) for k in range(200)]
        cases += [(_nonhomogeneous_seed(), bound) for bound in (3, 4, 5)]
        cases += [(pullback(ActionKind.TRANSLATION_SUB, 2).seed_generators(), 6)]
        replayed = 0
        for seed, bound in cases:
            if not len(seed):
                continue
            passes.clear()
            events.clear()
            sagbi_construct(seed, degree_bound=bound, max_iterations=6)
            subducted, follow, number, read = {}, {}, 0, None  # (pass, pair) -> its call; input id -> call
            for event in events:
                if isinstance(event, int):  # a pass starts
                    number, read = event, None
                elif isinstance(event, TeteATete):
                    read = event
                else:
                    if read is not None:
                        subducted[number, id(read)] = event
                    else:
                        follow[id(event[0])] = event
                    read = None
            last = {}  # pair -> steps of its last subduction
            for number, (basis, pairs) in enumerate(passes, 1):
                for pair in pairs:
                    key = (pair.a, pair.b)
                    call = subducted.get((number, id(pair)))
                    if call is not None:
                        res = call[2]
                        last[key] = steps(res)
                        if not res.remainder.is_zero():
                            _, current, res = follow[id(res.remainder)]
                            last[key] |= steps(res)
                            if not res.remainder.is_zero():
                                last[key].add(sparse((0,) * len(current) + (1,)))
                        continue
                    replayed += 1
                    res = original(basis.power_product(pair.a) - basis.power_product(pair.b), basis)
                    assert res.remainder.is_zero()
                    assert steps(res) == last[key], (seed.gens, bound, pair)
        assert replayed > 100

    @pytest.mark.parametrize("bound", [3, 4, 5])
    def test_matches_reference_on_nonhomogeneous_seed(self, monkeypatch, bound):
        self._compare(monkeypatch, [(_nonhomogeneous_seed(), bound, 16)])

    @pytest.mark.parametrize("m, bound", [(m, bound) for m in (1, 2, 3) for bound in (4, 5, 6)])
    def test_matches_reference_on_translation_seeds(self, monkeypatch, m, bound):
        seed = pullback(ActionKind.TRANSLATION_SUB, m).seed_generators()
        replay, reference = self._compare(monkeypatch, [(seed, bound, 16)])
        assert replay < reference


class TestStepProductScope:
    """`sagbi_construct` hands `subduct` one step-product memo per bucket in
    the pair phase and one per generator set in the insert phase, so that
    no memo serves two generator sets."""

    def test_memo_per_bucket_and_per_generator_set(self, monkeypatch):
        # The construction reads a pair's two sides just before it subducts
        # the pair, so a subduct call right after a pair's side is that
        # pair's; any other call is the insert phase's.
        enumerate_pairs, original = sagbi_module.tete_a_tetes, sagbi_module.subduct
        bucket_of, last = {}, [None]  # id(pair) -> product key; the pair whose side was read last
        calls = []  # (products, basis, product key or None in the insert phase)

        def spy_pairs(basis, bound, carried):
            pairs = enumerate_pairs(basis, bound, carried)
            bucket_of.clear()
            for product_key, group in carried.groups.items():
                for pair, _ in group:
                    bucket_of[id(pair)] = product_key
            return pairs

        def spy_side(pair, path, value):
            last[0] = pair

        def spy_subduct(f, basis, **memo):
            pair, last[0] = last[0], None
            calls.append((memo["products"], basis, None if pair is None else bucket_of[id(pair)]))
            res = original(f, basis, **memo)
            last[0] = None
            return res

        monkeypatch.setattr(sagbi_module, "tete_a_tetes", spy_pairs)
        monkeypatch.setattr(sagbi_module, "subduct", spy_subduct)
        _spy_on_sides(monkeypatch, spy_side)
        rng = random.Random(24)
        cases = [(_random_seed(rng, homogeneous=k % 2 == 0), rng.randint(3, 5)) for k in range(60)]
        cases += [(_nonhomogeneous_seed(), 4), (pullback(ActionKind.TRANSLATION_SUB, 2).seed_generators(), 6)]
        buckets = sets = 0
        for seed, bound in cases:
            if not len(seed):
                continue
            calls.clear()
            sagbi_construct(seed, degree_bound=bound, max_iterations=6)
            served = {}  # id(products) -> (products, its one generator set)
            for products, basis, _ in calls:
                assert isinstance(products, dict)
                assert served.setdefault(id(products), (products, basis))[1] is basis
            for (products, basis, key), (before, basis_before, key_before) in zip(calls[1:], calls):
                if key is not None and key_before is not None:  # two pairs of one pass
                    assert basis is basis_before
                    assert (products is before) == (key == key_before)
                    buckets += key != key_before
                elif key is None and key_before is None:  # two insert-phase calls
                    assert (products is before) == (basis is basis_before)
                    sets += basis is not basis_before
                else:  # a phase starts
                    assert products is not before
        assert buckets > 100 and sets > 10


class TestCarriedEnumeration:
    """`tete_a_tetes` extended across `with_added` equals a from-scratch
    enumeration and the reference, and refuses state that does not fit."""

    def test_random_seeds_grown_one_at_a_time(self):
        # the constructed bases, in their own order and reversed, so that a
        # later generator often has a lower degree than the earlier ones
        rng = random.Random(20)
        total = 0
        for k in range(40):
            seed = _random_seed(rng, homogeneous=k % 2 == 0)
            if not len(seed):
                continue
            bound = rng.randint(3, 5)
            gens = list(sagbi_construct(seed, degree_bound=bound, max_iterations=6).basis.gens)
            for ordered in (gens, gens[::-1]):
                total += _assert_carried_matches(_grown(ordered, seed.order), bound)
        assert total > 500

    def test_nonhomogeneous_seed_grown_one_at_a_time(self):
        seed = _nonhomogeneous_seed()
        gens = list(sagbi_construct(seed, degree_bound=4).basis.gens)
        assert _assert_carried_matches(_grown(gens, seed.order), 4)

    @pytest.mark.parametrize("m, bound", [(m, bound) for m in (1, 2, 3) for bound in (4, 5, 6)])
    def test_translation_passes(self, monkeypatch, m, bound):
        # the bases the construction enumerates, pass by pass, carried as it carries them
        bases = []
        enumerate_pairs = sagbi_module.tete_a_tetes

        def spy_pairs(basis, degree_bound, carried):
            bases.append(basis)
            return enumerate_pairs(basis, degree_bound, carried)

        monkeypatch.setattr(sagbi_module, "tete_a_tetes", spy_pairs)
        seed = pullback(ActionKind.TRANSLATION_SUB, m).seed_generators()
        sagbi_construct(seed, degree_bound=bound)
        monkeypatch.undo()
        assert len(bases) >= 2
        assert _assert_carried_matches(bases, bound)

    def test_lower_degree_generator_added(self):
        # the new generators' degrees lie below every old one's, so old
        # products of every degree are extended
        vs = VariableSet(["x", "y"])
        gens = [parse(t, vs) for t in ("x^3", "y^3", "x*y^2", "x^2*y", "x*y", "x", "y")]
        bases = _grown(gens, vs.default_order())
        for bound in (3, 4, 6):
            assert _assert_carried_matches(bases, bound)

    def test_records_stay_with_their_pairs(self):
        # an old entry stays in place with its pair and record; a new one
        # starts at None; the result is the groups' pairs, in key order, and
        # an old pair comes back as the same object
        vs = VariableSet(["x", "y"])
        gens = [parse(t, vs) for t in ("x^2", "x*y", "y^2", "x", "y")]
        bases = _grown(gens, vs.default_order())
        carried = sagbi_module._Enumeration()
        marks, before, kept = {}, [], 0
        for basis in bases:
            pairs = tete_a_tetes(basis, 4, carried)
            entries = [entry for key in sorted(carried.groups) for entry in carried.groups[key]]
            assert len(pairs) == len(entries) and all(p is pair for p, (pair, _) in zip(pairs, entries))
            n = len(basis)
            assert [(p.a, p.b) for p in pairs] == [
                (sparse(_exponents(pair.path_a, n)), sparse(_exponents(pair.path_b, n))) for pair, _ in entries
            ]
            lms = basis.leading_monomials()
            for key, group in carried.groups.items():
                assert {basis.order.key(sum(lms[i] for i in path)) for pair, _ in group
                        for path in (pair.path_a, pair.path_b)} == {key}
            returned = {id(p) for p in pairs}
            assert all(id(p) in returned for p in before)
            kept += len(before)
            before = pairs
            for entry in entries:
                mark = marks.get(id(entry))
                assert entry[1] is mark
                if mark is None:
                    entry[1] = marks[id(entry)] = object()
        assert len(marks) == len(entries) > 0 and kept > 0

    def test_mismatched_state_refused(self):
        vs = VariableSet(["x", "y"])
        x, y, xy = parse("x", vs), parse("y", vs), parse("x*y", vs)
        basis = GeneratorSet([x, y, xy], vs.default_order())
        carried = sagbi_module._Enumeration()
        tete_a_tetes(basis, 4, carried)
        with pytest.raises(ValueError, match="degree bound"):
            tete_a_tetes(basis, 5, carried)
        with pytest.raises(ValueError, match="term order"):
            tete_a_tetes(GeneratorSet([x, y, xy], TermOrder(vs, ["y", "x"])), 4, carried)
        for gens in ([x, y], [y, x, xy], [x, xy, y]):
            with pytest.raises(ValueError, match="do not begin this basis"):
                tete_a_tetes(GeneratorSet(gens, vs.default_order()), 4, carried)
        # a refusal leaves the state as it was
        grown = basis.with_added(parse("x^2", vs))
        assert tete_a_tetes(grown, 4, carried) == tete_a_tetes(grown, 4)


class TestSparsePairs:
    """A pair is kept as two index paths; exponent vectors are built only
    when a caller asks for them."""

    def test_side_key_orders_as_exponent_vectors(self):
        rng = random.Random(25)
        n, kinds = 6, set()

        def path(low=0):
            return tuple(sorted(rng.randrange(low, n) for _ in range(rng.randint(0, 5))))

        for k in range(3000):
            p = path()
            cut = rng.randint(0, len(p))
            kind = k % 4
            if kind == 0:  # unrelated
                q = path()
            elif kind == 1:  # one a prefix of the other
                q = p[:cut]
            elif kind == 2:  # a shared prefix, then their own tails
                q = p[:cut] + path(p[cut - 1] if cut else 0)
            else:  # the same indices, one repeated once more
                q = tuple(sorted(p + p[cut:cut + 1])) if p else ()
            if rng.random() < 0.5:
                p, q = q, p
            dp, dq = _exponents(p, n), _exponents(q, n)
            assert (_side_key(p) < _side_key(q)) == (dp < dq), (p, q)
            assert (_side_key(p) == _side_key(q)) == (dp == dq), (p, q)
            kinds.add((kind, (dp > dq) - (dp < dq)))
        assert len(kinds) >= 10  # each kind is met with both orders, and equality too

    def test_construction_builds_no_exponent_vector(self, monkeypatch):
        # the construction reads a pair's sides as (index, exponent) pairs,
        # one per generator of the path, never a vector over the basis
        built = []
        _spy_on_sides(monkeypatch, lambda pair, path, value: built.append((path, value)))
        seed = pullback(ActionKind.TRANSLATION_SUB, 2).seed_generators()
        res = sagbi_construct(seed, degree_bound=6)
        assert res.complete and built and len(built) % 2 == 0  # the spies do see the reads
        for path, value in built:
            assert value == tuple(sorted(value)) and len(value) == len(set(path)) < len(res.basis)
            assert all(e >= 1 for _, e in value) and sum(e for _, e in value) == len(path)

    def test_equality_follows_exponent_vectors(self):
        # a pair does not depend on the basis length, so one relation over
        # two bases is one pair; with x*y^2 there are more than 10 distinct pairs
        vs = VariableSet(["x", "y"])
        bases = _grown([parse(t, vs) for t in ("x^2", "x*y", "y^2", "x", "y", "x*y^2")], vs.default_order())
        carried = sagbi_module._Enumeration()
        pairs = [p for basis in bases for p in tete_a_tetes(basis, 4, carried) + tete_a_tetes(basis, 4)]
        assert len({(p.a, p.b) for p in pairs}) > 10
        for p in pairs:
            for q in pairs:
                assert (p == q) == ((p.a, p.b) == (q.a, q.b))
                assert p != q or hash(p) == hash(q)

    def test_pair_products_go_through_power_product(self, monkeypatch):
        # every product of the pair phase is one `power_product` call, so
        # callers that count or wrap that method see the pair phase too
        real, counted, read = GeneratorSet.power_product, [], {}  # read: id -> a side the pair phase read

        def spy(self, exps):
            if read.get(id(exps)) is exps:  # a pair's side
                counted.append(list(exps))
            return real(self, exps)

        monkeypatch.setattr(GeneratorSet, "power_product", spy)
        _spy_on_sides(monkeypatch, lambda pair, path, value: read.setdefault(id(value), value))
        seed = pullback(ActionKind.TRANSLATION_SUB, 2).seed_generators()
        assert sagbi_construct(seed, degree_bound=4).complete
        assert counted and len(counted) % 2 == 0  # both sides of each subducted pair
        assert len(counted) == len(read)  # every side read is multiplied out, once
        assert all(c == sorted(c) and all(e >= 1 for _, e in c) for c in counted)

    def test_returned_pairs_survive_a_carried_call(self):
        # the carried call over a grown basis leaves a pair it returned before
        # as it was, and the same relation over the grown basis is an equal pair
        vs = VariableSet(["x", "y"])
        bases = _grown([parse(t, vs) for t in ("x^2", "x*y", "y^2", "x", "y")], vs.default_order())
        carried = sagbi_module._Enumeration()
        before = tete_a_tetes(bases[2], 4, carried)
        seen = [(p.a, p.b, hash(p), repr(p)) for p in before]
        assert before == tete_a_tetes(bases[2], 4) and len(before) == 1
        after = tete_a_tetes(bases[4], 4, carried)
        assert before == tete_a_tetes(bases[2], 4)
        assert [(p.a, p.b, hash(p), repr(p)) for p in before] == seen
        assert seen[0][:2] == (sparse((0, 2, 0)), sparse((1, 0, 1)))
        assert seen[0][3] == "TeteATete(path_a=(1, 1), path_b=(0, 2))"
        again = after[after.index(TeteATete((1, 1), (0, 2)))]
        assert again == before[0] and (again.a, again.b) == seen[0][:2]
        with pytest.raises(dataclasses.FrozenInstanceError):
            before[0].path_a = (1,)


class TestEliminate:
    def test_block_must_be_prefix(self):
        vs = VariableSet(["t1", "x"])
        seed = GeneratorSet([parse("x", vs)], vs.default_order())
        res = sagbi_construct(seed)
        with pytest.raises(ValueError):
            eliminate(res, ["x"])

    def test_every_variable_eliminated_rejected(self):
        vs = VariableSet(["t1", "x"])
        res = sagbi_construct(GeneratorSet([parse("x", vs)], vs.default_order()))
        with pytest.raises(ValueError, match="would remove every variable"):
            eliminate(res, ["t1", "x"])

    def test_elimination_filters_and_renames(self):
        vs = VariableSet(["t1", "x", "y"])
        seed = GeneratorSet([parse("t1*x + y", vs), parse("x", vs)], vs.default_order())
        res = sagbi_construct(seed, degree_bound=3, max_iterations=2)
        out = eliminate(res, ["t1"])
        assert all("t1" not in g.used_variables() for g in out.basis)
        assert out.basis.order.varset.names == ("x", "y")


class TestMembership:
    def test_product_of_generators_is_member(self):
        vs = screw_varset(1)
        seed = GeneratorSet(se3_generator_catalog(1).polynomials(), vs.default_order())
        res = sagbi_construct(seed)
        f = klein_form(vs, 1) ** 2 * killing_dot(vs, 1, 1)
        m = is_member(f, res)
        assert m and m.definitive
        assert m.certificate.evaluate() == f

    def test_coordinate_is_not_member(self):
        vs = screw_varset(1)
        seed = GeneratorSet(se3_generator_catalog(1).polynomials(), vs.default_order())
        res = sagbi_construct(seed)
        m = is_member(Polynomial.variable(vs, "w11"), res)
        assert not m
        assert m.definitive == res.complete

    def test_verify_sagbi_witnesses(self):
        vs = VariableSet(["x", "y"])
        basis = GeneratorSet([parse("x + y", vs)], vs.default_order())
        for w in (parse("x + y", vs) ** 2, parse("x + y", vs) ** 3):
            assert subduct(w, basis).remainder.is_zero()
        assert not subduct(parse("x", vs), basis).remainder.is_zero()

    def test_theorem4_closure_witnesses(self):
        vs = screw_varset(1)
        basis = GeneratorSet(se3_generator_catalog(1).polynomials(), vs.default_order())
        rng = random.Random(9)
        witnesses = []
        for _ in range(20):
            a = rng.randint(0, 2)
            b = rng.randint(0, 2)
            if a + b == 0:
                continue
            witnesses.append(killing_dot(vs, 1, 1) ** a * klein_form(vs, 1) ** b)
        assert all(subduct(w, basis).remainder.is_zero() for w in witnesses)


class TestBasisFiles:
    def test_round_trip(self):
        vs = screw_varset(1)
        basis = GeneratorSet(
            [killing_dot(vs, 1, 1), klein_form(vs, 1)],
            vs.default_order(),
        )
        buf = io.StringIO()
        write_basis_file(buf, basis, complete=True, degree_bound=4)
        # a `#` starts a comment on any line
        loaded, meta = read_basis_file(io.StringIO(buf.getvalue().replace("\n", "  # note\n")))
        assert meta == {"complete": True, "degree_bound": 4}
        assert [format_poly(g) for g in loaded.gens] == [format_poly(g) for g in basis.gens]
        assert loaded.order.priority == basis.order.priority

    def test_missing_header(self):
        with pytest.raises(ValueError):
            read_basis_file(io.StringIO("w11 + w12\n"))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("order: grevlex x y\nx\n", "line 1: only `lex` orders are supported"),
            ("order:\nx\n", "line 1: only `lex` orders are supported"),
            ("order: lex x x\nx\n", "line 1: duplicate variable name 'x'"),
            ("# seed\norder: lex x 1y\nx\n", "line 2: invalid variable name '1y'"),
            ("order: lex x\ncomplete: maybe\nx\n", "line 2: complete must be true or false"),
            ("# no header\n\n", "basis file has no `order:` header"),
            ("", "basis file has no `order:` header"),
        ],
    )
    def test_bad_header_rejected(self, text, message):
        with pytest.raises(ValueError) as exc:
            read_basis_file(io.StringIO(text))
        assert str(exc.value) == message

    def test_parse_error_carries_line(self):
        text = "order: lex x y\nx + $\n"
        with pytest.raises(ValueError) as exc:
            read_basis_file(io.StringIO(text))
        assert "line 2" in str(exc.value)
