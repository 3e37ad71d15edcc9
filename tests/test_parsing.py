"""Grammar, error reporting, and canonical round-trip printing."""

import random
import time
from fractions import Fraction

import pytest

from conftest import random_poly
from screwinv.parsing import (
    MAX_DECIMAL_EXPONENT,
    ParseError,
    UnknownVariableError,
    format_poly,
    parse,
    parse_rational,
)
from screwinv.poly import Polynomial, TermOrder, VariableSet
from screwinv.sagbi import read_basis_file
from screwinv.screw import screw_varset


@pytest.fixture
def vs1():
    return screw_varset(1)


def test_klein_form(vs1):
    f = parse("w11*v11 + w12*v12 + w13*v13", vs1)
    assert len(f) == 3
    assert f.coefficient(parse("w12*v12", vs1).leading_monomial()) == 1


def test_zero_literal(vs1):
    assert parse("0", vs1).is_zero()


def test_cancellation(vs1):
    assert parse("3/2*w11^2 - 3/2*w11^2", vs1).is_zero()


def test_coefficients_and_exponents(vs1):
    f = parse("2*w11^3 - 1/2*v11 + 7", vs1)
    assert f.coefficient((3, 0, 0, 0, 0, 0)) == 2
    assert f.coefficient((0, 0, 0, 1, 0, 0)) == Fraction(-1, 2)
    assert f.coefficient(vs1.unit()) == 7


def test_leading_sign_and_whitespace(vs1):
    assert parse(" - w11 +  w12 ", vs1) == parse("w12 - w11", vs1)
    assert parse("+w11", vs1) == parse("w11", vs1)


def test_exponent_zero_is_unit(vs1):
    assert parse("w11^0", vs1) == parse("1", vs1)


def test_syntax_error_has_position(vs1):
    with pytest.raises(ParseError) as exc:
        parse("w11 + * w12", vs1)
    assert exc.value.position == 6


def test_unknown_variable(vs1):
    with pytest.raises(UnknownVariableError) as exc:
        parse("w11 + bogus", vs1)
    assert exc.value.name == "bogus"
    assert exc.value.position == 6
    with pytest.raises(UnknownVariableError) as exc:
        parse("w11 + " + "b" * 3000, vs1)
    assert exc.value.name == "b" * 3000


def test_zero_denominator(vs1):
    with pytest.raises(ParseError):
        parse("1/0", vs1)


# One row per error path: input -> (exception class, message, position).
ERRORS = {
    "w11 $ w12": (ParseError, "unexpected character '$'", 4),
    "": (ParseError, "expected a term", 0),
    "+-w11": (ParseError, "expected a term", 1),
    "(w11)": (ParseError, "expected a term", 0),
    "w11 +": (ParseError, "expected a term", 5),
    "2*3": (ParseError, "expected a variable name", 2),
    "w11*2": (ParseError, "expected a variable name", 4),
    "w11*": (ParseError, "expected a variable name", 4),
    "w11^": (ParseError, "expected a natural number", 4),
    "w11^v11": (ParseError, "expected a natural number", 4),
    "2/": (ParseError, "expected a denominator", 2),
    "2/w11": (ParseError, "expected a denominator", 2),
    "1/0": (ParseError, "zero denominator", 2),
    "w11 w12": (ParseError, "unexpected token 'w12'", 4),
    "w11^2^3": (ParseError, "unexpected token '^'", 5),
    "w11)": (ParseError, "unexpected token ')'", 3),
    "w11 + bogus": (UnknownVariableError, "unknown variable 'bogus'", 6),
    # a name longer than 32 characters is quoted by its first 12
    "w11 + " + "b" * 40: (UnknownVariableError, "unknown variable starting 'bbbbbbbbbbbb'", 6),
    # a bad character is reported before any syntax error ahead of it
    "w11 w12 + $": (ParseError, "unexpected character '$'", 10),
}


@pytest.mark.parametrize("text", list(ERRORS))
def test_error_table(vs1, text):
    cls, message, position = ERRORS[text]
    with pytest.raises(ParseError) as exc:
        parse(text, vs1)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


def test_factor_exponents_add(vs1):
    assert parse("w11*w11*v11", vs1) == parse("w11^2*v11", vs1) == parse("v11*w11^2", vs1)
    assert parse("w11^2*w11^3 - w11^5", vs1).is_zero()


def test_integral_coefficients_are_ints(vs1, tmp_path):
    f = parse("1/2*w11 + 1/2*w11 - 3/4 + 7/4", vs1)
    assert f == parse("w11 + 1", vs1)
    assert all(type(c) is int for c in f.terms.values())
    path = tmp_path / "basis.txt"
    path.write_text("order: lex x y\n1/3*x + 2/3*x\n2/4*y + 1/2*y + 1/2\n")
    with open(path) as handle:
        basis, _ = read_basis_file(handle)
    coeffs = sorted(c for g in basis for c in g.terms.values())
    assert coeffs == [Fraction(1, 2), 1, 1]
    assert [type(c) for c in coeffs] == [Fraction, int, int]


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    for bad in ("1/0", "abc", "", "1e_"):
        with pytest.raises(ValueError) as info:
            parse_rational(bad)
        assert str(info.value) == f"{bad!r} is not a rational number"
    # a field longer than QUOTE_WIDTH is quoted by its start only
    with pytest.raises(ValueError) as info:
        parse_rational(" " + "a" * 3000)
    assert str(info.value) == "a field starting 'aaaaaaaaaaaa' is not a rational number"
    # exponents up to the limit are exact; beyond it, refused at once
    cap = MAX_DECIMAL_EXPONENT
    assert parse_rational(f"1e{cap}") == 10**cap
    assert parse_rational(f"-2.5E-{cap}") == Fraction(-5, 2 * 10**cap)
    assert parse_rational(f" 1e+000{cap} ") == 10**cap
    for huge, shown in (
        (f"1e{cap + 1}", repr(f"1e{cap + 1}")),
        (f"1e-{cap + 1}", repr(f"1e-{cap + 1}")),
        ("1e100000000000", "'1e100000000000'"),
        ("-.5E-100000000000", "'-.5E-100000000000'"),
        ("1e" + "9" * 5000, "a field starting '1e9999999999'"),
    ):
        t0 = time.monotonic()
        with pytest.raises(ValueError) as info:
            parse_rational(huge)
        assert time.monotonic() - t0 < 1.0
        assert str(info.value) == f"{shown} has a decimal exponent above {cap} in magnitude"


def test_integer_longer_than_the_digit_limit(default_digit_limit):
    # a ParseError at the literal that names the limit, not the interpreter's own text
    vs = VariableSet(["x"])
    long = "9" * 4301
    for text, position in ((f"{long}*x", 0), (f"x^{long}", 2), (f"1/{long}*x", 2), (f"x - {long}", 4)):
        with pytest.raises(ParseError) as info:
            parse(text, vs)
        assert info.value.position == position
        assert str(info.value) == (
            "an integer of 4,301 digits is longer than the interpreter's limit"
            f" of 4,300 digits (at position {position})"
        )
    assert parse("9" * 4300 + "*x", vs).coefficient((1,)) == 10**4300 - 1


def test_parse_rational_digit_limit(default_digit_limit):
    # the message names the limit and quotes only the start of the field
    long = "9" * 4301
    for field in (long, f" -{long} ", f"1.{long}", f"{long}/7", f"1/{long}", f"{long}e5", "1_" + "0" * 4300):
        with pytest.raises(ValueError) as info:
            parse_rational(field)
        assert str(info.value) == (
            f"a field starting {field.strip()[:12]!r} has a run of 4,301 digits,"
            " longer than the interpreter's limit of 4,300 digits"
        )
    assert parse_rational("9" * 4300) == 10**4300 - 1


def test_trailing_garbage(vs1):
    with pytest.raises(ParseError):
        parse("w11 w12", vs1)
    with pytest.raises(ParseError):
        parse("w11 $ w12", vs1)


def test_number_after_star_rejected(vs1):
    # the grammar allows a coefficient only at the head of a term
    with pytest.raises(ParseError):
        parse("2*3", vs1)
    with pytest.raises(ParseError):
        parse("w11*2", vs1)


def test_format_zero(vs1):
    assert format_poly(Polynomial.zero(vs1)) == "0"


def test_format_klein_canonical(vs1):
    f = parse("w13*v13 + w11*v11 + w12*v12", vs1)
    assert format_poly(f) == "w11*v11 + w12*v12 + w13*v13"


def test_format_suppresses_unit_coefficients(vs1):
    assert format_poly(parse("1*w11", vs1)) == "w11"
    assert format_poly(parse("0 - w11", vs1)) == "-w11"
    assert format_poly(parse("7", vs1)) == "7"
    assert format_poly(parse("0 - 1", vs1)) == "-1"
    assert format_poly(parse("3/2*w11^2 - v11", vs1)) == "3/2*w11^2 - v11"


def test_format_respects_order():
    vs = VariableSet(["x", "y"])
    f = parse("x + y", vs)
    assert format_poly(f) == "x + y"
    assert format_poly(f, TermOrder(vs, ["y", "x"])) == "y + x"
    assert format_poly(f, TermOrder(VariableSet(["x", "y"]), ["y", "x"])) == "y + x"
    with pytest.raises(ValueError, match="^term order over another variable set$"):
        format_poly(f, TermOrder(VariableSet(["a", "b", "c"]), ["c", "b", "a"]))


def test_round_trip_fuzz():
    vs = VariableSet(["t1", "w11", "w12", "v11", "v12"])
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        f = random_poly(rng, vs, max_terms=6, max_deg=4)
        assert parse(format_poly(f), vs) == f


def test_format_deterministic(vs1):
    f = parse("w11*v11 - 2*w12 + 1/3", vs1)
    assert format_poly(f) == format_poly(parse(format_poly(f), vs1))
