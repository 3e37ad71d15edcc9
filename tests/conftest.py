import random
import sys
from fractions import Fraction

import pytest

from screwinv.poly import Polynomial, VariableSet


def random_poly(rng: random.Random, vs: VariableSet, max_terms: int = 5, max_deg: int = 3) -> Polynomial:
    """Small random polynomial; the fuzz generator shared across suites."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = [0] * len(vs)
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(len(vs))] += 1
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[tuple(exps)] = terms.get(tuple(exps), Fraction(0)) + coeff
    return Polynomial(vs, terms)


@pytest.fixture
def default_digit_limit():
    """The interpreter's default int-to-text limit of 4,300 digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def abcd() -> VariableSet:
    return VariableSet(["a", "b", "c", "d"])
