"""Term-map kernels against a naive reference on seeded random corpora."""

import random
from fractions import Fraction

import pytest

from screwinv import _kernel


def random_terms(rng: random.Random, nvars: int, nterms: int) -> dict:
    out = {}
    for _ in range(nterms):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        out[exps] = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    return {e: c for e, c in out.items() if c}


# Naive references: accumulate every contribution, then drop the zeros.

def _collect(pairs) -> dict:
    acc = {}
    for e, c in pairs:
        acc[e] = acc.get(e, 0) + c
    return {e: c for e, c in acc.items() if c}


def reference_add(a, b):
    return _collect([*a.items(), *b.items()])


def reference_sub(a, b):
    return _collect([*a.items(), *((e, -c) for e, c in b.items())])


def reference_mul(a, b):
    return _collect(
        (tuple(x + y for x, y in zip(ea, eb)), ca * cb)
        for ea, ca in a.items()
        for eb, cb in b.items()
    )


def reference_scale(a, c):
    return {e: c * v for e, v in a.items()}


@pytest.mark.parametrize("nvars", [1, 4, 9])
def test_matches_reference_on_random_corpora(nvars):
    rng = random.Random(1000 + nvars)
    for _ in range(100):
        a = random_terms(rng, nvars, rng.randint(0, 8))
        b = random_terms(rng, nvars, rng.randint(0, 8))
        assert _kernel.terms_add(a, b) == reference_add(a, b)
        assert _kernel.terms_sub(a, b) == reference_sub(a, b)
        assert _kernel.terms_mul(a, b) == reference_mul(a, b)
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert _kernel.terms_scale(a, c) == reference_scale(a, c)


def test_cancellation():
    a = {(1, 0): Fraction(1), (0, 1): Fraction(2)}
    b = {(1, 0): Fraction(-1), (0, 1): Fraction(3)}
    assert _kernel.terms_add(a, b) == {(0, 1): Fraction(5)}
    assert _kernel.terms_sub(a, a) == {}
    # products that cancel midway must be dropped from the result
    f = {(1,): Fraction(1), (0,): Fraction(1)}   # x + 1
    g = {(1,): Fraction(1), (0,): Fraction(-1)}  # x - 1
    assert _kernel.terms_mul(f, g) == {
        (2,): Fraction(1),
        (0,): Fraction(-1),
    }


def test_inputs_never_mutated():
    a = {(1, 0): Fraction(1)}
    b = {(1, 0): Fraction(-1), (0, 1): Fraction(2)}
    snapshot_a, snapshot_b = dict(a), dict(b)
    _kernel.terms_add(a, b)
    _kernel.terms_sub(a, b)
    _kernel.terms_mul(a, b)
    _kernel.terms_scale(a, Fraction(2))
    assert a == snapshot_a and b == snapshot_b
