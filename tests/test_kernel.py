"""Term-map kernels against a naive reference on seeded random corpora."""

import math
import random
from fractions import Fraction

import pytest

from screwinv import _kernel
from screwinv.poly import Polynomial, VariableSet


def varset(nvars: int) -> VariableSet:
    return VariableSet([f"x{i}" for i in range(nvars)])


def random_terms(rng: random.Random, nvars: int, nterms: int) -> dict:
    vs = varset(nvars)
    out = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        out[vs.pack(exps)] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return {e: c for e, c in out.items() if c}


def sign_terms(rng: random.Random, nvars: int, nterms: int) -> dict:
    """Coefficients +-1 on squarefree monomials, so products collide and cancel."""
    vs = varset(nvars)
    out = {}
    for _ in range(nterms):
        out[vs.pack(tuple(rng.randint(0, 1) for _ in range(nvars)))] = Fraction(rng.choice((-1, 1)))
    return out


def corpus_cases(nvars: int, corpus):
    """100 seeded operand triples (a, b, scalar) drawn from one corpus, keys packed over `varset(nvars)`."""
    rng = random.Random(1000 + nvars)
    for _ in range(100):
        a = corpus(rng, nvars, rng.randint(0, 8))
        b = corpus(rng, nvars, rng.randint(0, 8))
        yield a, b, Fraction(rng.randint(1, 9), rng.randint(1, 9))


# Naive references: accumulate every contribution, then drop the zeros.
# Products add unpacked exponent tuples and pack the sum.

def _accumulate(pairs) -> dict:
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return acc


def _collect(pairs) -> dict:
    return {e: c for e, c in _accumulate(pairs).items() if c}


def _products(vs, a, b):
    return (
        (vs.pack(tuple(x + y for x, y in zip(vs.unpack(ea), vs.unpack(eb)))), ca * cb)
        for ea, ca in a.items()
        for eb, cb in b.items()
    )


def reference_add(a, b):
    return _collect([*a.items(), *b.items()])


def reference_sub(a, b):
    return _collect([*a.items(), *((e, -c) for e, c in b.items())])


def reference_mul(vs, a, b):
    return _collect(_products(vs, a, b))


def reference_scale(a, c):
    return {e: c * v for e, v in a.items()}


CORPORA = [
    pytest.param(1, random_terms, id="1"),
    pytest.param(4, random_terms, id="4"),
    pytest.param(9, random_terms, id="9"),
    pytest.param(2, sign_terms, id="signs-2"),
    pytest.param(3, sign_terms, id="signs-3"),
]


@pytest.mark.parametrize("nvars, corpus", CORPORA)
def test_matches_reference_on_random_corpora(nvars, corpus):
    vs = varset(nvars)
    for a, b, c in corpus_cases(nvars, corpus):
        assert _kernel.terms_add(a, b) == reference_add(a, b)
        assert _kernel.terms_sub(a, b) == reference_sub(a, b)
        assert _kernel.terms_mul(a, b) == reference_mul(vs, a, b)
        assert _kernel.terms_scale(a, c) == reference_scale(a, c)


@pytest.mark.parametrize("nvars, corpus", CORPORA)
def test_add_into_matches_fresh_sum_in_order(nvars, corpus):
    # adding c * b in place leaves the reference sum with the scaled map,
    # insertion order included (a's keys, then b's new ones), and reads `b` only
    for a, b, c in corpus_cases(nvars, corpus):
        for scalar in (1, -1, c):
            out, snapshot_b = dict(a), dict(b)
            _kernel.terms_add_into(out, b, scalar)
            assert list(out.items()) == list(reference_add(a, reference_scale(b, scalar)).items())
            assert b == snapshot_b


@pytest.mark.parametrize("nvars, corpus", CORPORA)
def test_sub_into_matches_fresh_difference_in_order(nvars, corpus):
    # subtracting c * b in place, as subduction does by adding -c * b,
    # leaves the reference difference with the scaled map, insertion order
    # included, and so do the fresh sum and difference for c = 1
    for a, b, c in corpus_cases(nvars, corpus):
        for scalar in (1, -1, c, 3):
            out = dict(a)
            _kernel.terms_add_into(out, b, -scalar)
            assert list(out.items()) == list(reference_sub(a, reference_scale(b, scalar)).items())
        assert list(_kernel.terms_add(a, b).items()) == list(reference_add(a, b).items())
        assert list(_kernel.terms_sub(a, b).items()) == list(reference_sub(a, b).items())


def _integral_as_int(c):
    return c.numerator if c.denominator == 1 else c


def _ints(terms: dict) -> dict:
    return {e: _integral_as_int(c) for e, c in terms.items()}


@pytest.mark.parametrize("nvars, corpus", CORPORA)
def test_int_and_fraction_coefficients_agree_in_order(nvars, corpus):
    # polynomials store integral coefficients as ints: with every integral
    # n given as n instead of Fraction(n), each kernel returns the same term
    # map, insertion order included, and int inputs give int outputs
    for a, b, c in corpus_cases(nvars, corpus):
        ia, ib, ic = _ints(a), _ints(b), _integral_as_int(c)
        out, int_out, out_neg, int_out_neg = dict(a), dict(ia), dict(a), dict(ia)
        _kernel.terms_add_into(out, b, 1)
        _kernel.terms_add_into(int_out, ib, 1)
        _kernel.terms_add_into(out_neg, b, -1)
        _kernel.terms_add_into(int_out_neg, ib, -1)
        pairs = [
            (out, int_out),
            (out_neg, int_out_neg),
            (_kernel.terms_add(a, b), _kernel.terms_add(ia, ib)),
            (_kernel.terms_sub(a, b), _kernel.terms_sub(ia, ib)),
            (_kernel.terms_mul(a, b), _kernel.terms_mul(ia, ib)),
            (_kernel.terms_scale(a, c), _kernel.terms_scale(ia, ic)),
        ]
        for fractions, ints in pairs:
            assert list(ints.items()) == list(fractions.items())
        if corpus is sign_terms:
            # every coefficient is +-1, so nothing but ints may come out
            # (the scaled map is left out: the scalar may be a fraction)
            for _, ints in pairs[:-1]:
                assert all(type(v) is int for v in ints.values())


def _cleared(terms: dict) -> tuple[dict, int]:
    """(int map, den): the Fraction map over its least common denominator."""
    den = math.lcm(*(c.denominator for c in terms.values()))
    return {e: c.numerator * (den // c.denominator) for e, c in terms.items()}, den


def _over(num: dict, den: int) -> dict:
    return {e: Fraction(c, den) for e, c in num.items()}


@pytest.mark.parametrize("nvars, corpus", CORPORA)
def test_int_maps_over_one_den_match_the_fraction_reference(nvars, corpus):
    # polynomials hold an int map over one den: the kernels on int maps,
    # with the dens multiplied (or brought to their lcm for + and -), give
    # the Fraction reference, and so does Polynomial, built from Fractions
    vs = varset(nvars)
    for a, b, c in corpus_cases(nvars, corpus):
        (ia, da), (ib, db) = _cleared(a), _cleared(b)
        den = math.lcm(da, db)
        sa, sb = {e: v * (den // da) for e, v in ia.items()}, {e: v * (den // db) for e, v in ib.items()}
        results = [
            (_kernel.terms_add(sa, sb), den, reference_add(a, b)),
            (_kernel.terms_sub(sa, sb), den, reference_sub(a, b)),
            (_kernel.terms_mul(ia, ib), da * db, reference_mul(vs, a, b)),
            (_kernel.terms_scale(ia, c.numerator), da * c.denominator, reference_scale(a, c)),
        ]
        for num, num_den, reference in results:
            assert all(type(v) is int for v in num.values())
            assert _over(num, num_den) == reference
        f, g = Polynomial(vs, a), Polynomial(vs, b)
        for poly, reference in (
            (f + g, reference_add(a, b)),
            (f - g, reference_sub(a, b)),
            (f * g, reference_mul(vs, a, b)),
            (f.scale(c), reference_scale(a, c)),
        ):
            assert poly.terms == reference
            assert poly.den > 0 and math.gcd(poly.den, *poly._num.values()) == 1


@pytest.mark.parametrize("nvars", [2, 3])
def test_sign_corpora_cancel_in_products(nvars):
    # the reference drops a zero sum, so the corpus reaches the kernel's
    # delete-on-zero branch rather than only the non-cancelling path
    zero_sums = sum(
        list(_accumulate(_products(varset(nvars), a, b)).values()).count(0)
        for a, b, _ in corpus_cases(nvars, sign_terms)
    )
    assert zero_sums > 0


def test_cancellation():
    p, q = varset(2).pack, varset(1).pack
    a = {p((1, 0)): Fraction(1), p((0, 1)): Fraction(2)}
    b = {p((1, 0)): Fraction(-1), p((0, 1)): Fraction(3)}
    assert _kernel.terms_add(a, b) == {p((0, 1)): Fraction(5)}
    assert _kernel.terms_sub(a, a) == {}
    # products that cancel midway must be dropped from the result
    f = {q((1,)): Fraction(1), q((0,)): Fraction(1)}   # x + 1
    g = {q((1,)): Fraction(1), q((0,)): Fraction(-1)}  # x - 1
    assert _kernel.terms_mul(f, g) == {
        q((2,)): Fraction(1),
        q((0,)): Fraction(-1),
    }


def test_inputs_never_mutated():
    p = varset(2).pack
    a = {p((1, 0)): Fraction(1)}
    b = {p((1, 0)): Fraction(-1), p((0, 1)): Fraction(2)}
    snapshot_a, snapshot_b = dict(a), dict(b)
    _kernel.terms_add(a, b)
    _kernel.terms_sub(a, b)
    _kernel.terms_mul(a, b)
    _kernel.terms_scale(a, Fraction(2))
    assert a == snapshot_a and b == snapshot_b


def test_mul_refuses_a_field_overflow():
    # y's field would carry into x's; the guard bit catches it instead
    p = varset(2).pack
    half = {p((0, 2**30)): 1}
    with pytest.raises(ValueError, match="above the limit"):
        _kernel.terms_mul(half, half)
    # the union of the keys' fields reaches the guard bit, no product does
    a = {p((0, 2**30)): 1, p((0, 2**30 - 1)): 1}
    assert _kernel.terms_mul(a, {p((0, 1)): 1}) == {p((0, 2**30 + 1)): 1, p((0, 2**30)): 1}
