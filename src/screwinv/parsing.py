"""Parsing and canonical printing of polynomial expressions.

Grammar (whitespace insignificant, identifiers `[A-Za-z][A-Za-z0-9]*`):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := ident ('^' nat)?
    coeff  := int ('/' nat)?

Parsing is one pass over the tokens: each term's factor exponents and
signed coefficient go straight into one term dict, with no polynomial
arithmetic.  Canonical output prints terms in strictly decreasing term
order with `+`/`-` separators, reduced coefficients, and the coefficient 1
suppressed except on the unit monomial.  `parse(format(f)) == f` always.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction

from .poly import Polynomial, TermOrder, VariableSet, quoted


class ParseError(ValueError):
    """Syntax or lookup error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable {quoted(name, 'starting')}", position)
        self.name = name


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()])|(?P<bad>\S))"
)


def _tokenize(text: str) -> list:
    """(kind, text, position) per token, closed by an `end` token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", m.start(kind))
        tokens.append((kind, m[kind], m.start(kind)))
    tokens.append(("end", "", len(text)))
    return tokens


def _int(tok: str, pos: int) -> int:
    """A token of digits as an int.  One longer than the interpreter's
    text-to-int digit limit (4,300 by default) is a ParseError that names
    the limit."""
    try:
        return int(tok)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ParseError(
            f"an integer of {len(tok):,} digits is longer than the interpreter's limit of {limit:,} digits", pos
        ) from None


def parse(text: str, varset: VariableSet) -> Polynomial:
    """Parse `text` into a polynomial over `varset`.

    Per term, the factor exponents add into one exponent list (`x*x` and
    `x^2` give the same list) and the signed coefficient accumulates into
    the term dict; `Polynomial` then drops zeros and clears the fractions to
    one denominator.
    """
    tokens = _tokenize(text)
    terms: dict = {}
    i = 0
    while True:
        # optional on the first term; the end-of-term check puts one before
        # every later term
        sign = 1
        if tokens[i][:2] in (("op", "+"), ("op", "-")):
            sign = -1 if tokens[i][1] == "-" else 1
            i += 1
        exps = [0] * len(varset)
        coeff = sign
        kind, tok, pos = tokens[i]
        if kind == "nat":
            coeff = sign * _int(tok, pos)
            i += 1
            if tokens[i][:2] == ("op", "/"):
                kind, tok, pos = tokens[i + 1]
                if kind != "nat":
                    raise ParseError("expected a denominator", pos)
                den = _int(tok, pos)
                if den == 0:
                    raise ParseError("zero denominator", pos)
                coeff = Fraction(coeff, den)
                i += 2
            more = tokens[i][:2] == ("op", "*")
            i += more  # step over the '*'
        elif kind == "ident":
            more = True
        else:
            raise ParseError("expected a term", pos)
        while more:
            kind, name, pos = tokens[i]
            if kind != "ident":
                raise ParseError("expected a variable name", pos)
            if name not in varset:
                raise UnknownVariableError(name, pos)
            i += 1
            e = 1
            if tokens[i][:2] == ("op", "^"):
                kind, tok, pos = tokens[i + 1]
                if kind != "nat":
                    raise ParseError("expected a natural number", pos)
                e = _int(tok, pos)
                i += 2
            exps[varset.index(name)] += e
            more = tokens[i][:2] == ("op", "*")
            i += more
        key = tuple(exps)
        prev = terms.get(key)
        terms[key] = coeff if prev is None else prev + coeff
        kind, tok, pos = tokens[i]
        if kind == "end":
            return Polynomial(varset, terms)
        if kind != "op" or tok not in "+-":
            raise ParseError(f"unexpected token {tok!r}", pos)


# `Fraction` expands a decimal exponent n into 10**n, so "1e100000000000"
# would run for hours.  4300 is also the interpreter's default int <-> str
# digit limit.  10**n has n + 1 digits, so 10**4300 (4,301 digits) is
# already too long to print: the bound keeps the arithmetic short, and the
# CLI refuses to print a longer value with a message of its own.
MAX_DECIMAL_EXPONENT = 4300

# A decimal with an exponent, in a form loose enough to cover every one that
# `Fraction` accepts; group 1 holds the exponent's digits.
_EXPONENT_RE = re.compile(r"\s*[-+]?[\d_]*(?:\.[\d_]*)?[eE][-+]?([\d_]+)\s*")


def parse_rational(text: str) -> Fraction:
    """Read `text` as an exact rational, in any form `Fraction` accepts
    (``3``, ``-1/2``, ``0.25``, ``1e-3``); otherwise raise
    ``ValueError("'<text>' is not a rational number")``.  A decimal exponent
    above MAX_DECIMAL_EXPONENT in magnitude is refused with a ValueError
    that names the limit, before any power of ten is computed.  A run of
    digits longer than the interpreter's text-to-int digit limit is refused
    with a ValueError that names that limit.  Each message quotes `text` as
    `quoted` does, so a long one only by its start."""
    shown = quoted(text, "a field starting")
    m = _EXPONENT_RE.fullmatch(text)
    if m:
        digits = m[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_DECIMAL_EXPONENT)) or int(digits or 0) > MAX_DECIMAL_EXPONENT:
            raise ValueError(f"{shown} has a decimal exponent above {MAX_DECIMAL_EXPONENT} in magnitude")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        limit = sys.get_int_max_str_digits()
        longest = max(map(len, re.findall(r"\d+", text.replace("_", ""))), default=0)
        if limit and longest > limit:
            raise ValueError(
                f"{shown} has a run of {longest:,} digits,"
                f" longer than the interpreter's limit of {limit:,} digits"
            ) from None
        raise ValueError(f"{shown} is not a rational number") from None


def _format_monomial(exps, names) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_poly(f: Polynomial, order: TermOrder | None = None) -> str:
    """Canonical text form of `f`: decreasing terms, reduced coefficients."""
    if f.is_zero():
        return "0"
    if order is None:
        order = f.varset.default_order()
    elif order.varset is not f.varset and order.varset != f.varset:
        raise ValueError("term order over another variable set")
    names, unpack = f.varset.names, f.varset.unpack
    den = f.den
    pieces = []
    # the int numerators over den; each |c|/den is printed in lowest terms
    for m, coeff in order.sorted_terms(f._num):
        mono = _format_monomial(unpack(m), names)
        mag = abs(coeff)
        if mono and mag == den:
            body = mono
        else:
            g = math.gcd(mag, den)
            text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
            body = f"{text}*{mono}" if mono else text
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)
