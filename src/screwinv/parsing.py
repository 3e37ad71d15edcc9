"""Parsing and canonical printing of polynomial expressions.

Grammar (whitespace insignificant, identifiers `[A-Za-z][A-Za-z0-9]*`):

    expr   := ('+'|'-')? term (('+'|'-') term)*
    term   := coeff ('*' factor)* | factor ('*' factor)*
    factor := ident ('^' nat)?
    coeff  := int ('/' nat)?

Canonical output prints terms in strictly decreasing term order with
`+`/`-` separators, reduced coefficients, and the coefficient 1 suppressed
except on the unit monomial.  `parse(format(f)) == f` always.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .poly import Polynomial, TermOrder, VariableSet


class ParseError(ValueError):
    """Syntax or lookup error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    def __init__(self, name: str, position: int):
        super().__init__(f"unknown variable {name!r}", position)
        self.name = name


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<nat>\d+)|(?P<ident>[A-Za-z][A-Za-z0-9]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.lastgroup == "nat":
            tokens.append(("nat", m.group("nat"), m.start("nat")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, varset: VariableSet):
        self.tokens = _tokenize(text)
        self.i = 0
        self.varset = varset

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse_nat(self) -> int:
        kind, text, pos = self.next()
        if kind != "nat":
            raise ParseError("expected a natural number", pos)
        return int(text)

    def parse_factor(self) -> Polynomial:
        kind, text, pos = self.next()
        if kind != "ident":
            raise ParseError("expected a variable name", pos)
        if text not in self.varset:
            raise UnknownVariableError(text, pos)
        f = Polynomial.variable(self.varset, text)
        if self.peek()[:2] == ("op", "^"):
            self.next()
            f = f ** self.parse_nat()
        return f

    def parse_coeff(self) -> Fraction:
        kind, text, pos = self.next()
        if kind != "nat":
            raise ParseError("expected a number", pos)
        num = int(text)
        if self.peek()[:2] == ("op", "/"):
            self.next()
            kind, dtext, dpos = self.next()
            if kind != "nat":
                raise ParseError("expected a denominator", dpos)
            den = int(dtext)
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return Fraction(num, den)
        return Fraction(num)

    def parse_term(self) -> Polynomial:
        kind, text, pos = self.peek()
        if kind == "nat":
            f = Polynomial.constant(self.varset, self.parse_coeff())
        elif kind == "ident":
            f = self.parse_factor()
        else:
            raise ParseError("expected a term", pos)
        while self.peek()[:2] == ("op", "*"):
            self.next()
            f = f * self.parse_factor()
        return f

    def parse_expr(self) -> Polynomial:
        sign = 1
        if self.peek()[0] == "op" and self.peek()[1] in "+-":
            if self.next()[1] == "-":
                sign = -1
        total = self.parse_term() * sign
        while True:
            kind, text, pos = self.peek()
            if kind == "op" and text in "+-":
                self.next()
                term = self.parse_term()
                total = total + term if text == "+" else total - term
            elif kind == "end":
                return total
            else:
                raise ParseError(f"unexpected token {text!r}", pos)


def parse(text: str, varset: VariableSet) -> Polynomial:
    """Parse `text` into a polynomial over `varset`."""
    return _Parser(text, varset).parse_expr()


def parse_rational(text: str) -> Fraction:
    """Read `text` as an exact rational, in any form `Fraction` accepts
    (``3``, ``-1/2``, ``0.25``); otherwise raise
    ``ValueError("'<text>' is not a rational number")``."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a rational number") from None


def _format_coeff(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


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
    names = f.varset.names
    pieces = []
    for exps, coeff in order.sorted_terms(f.terms):
        mono = _format_monomial(exps, names)
        mag = abs(coeff)
        if not mono:
            body = _format_coeff(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{_format_coeff(mag)}*{mono}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
    return "".join(pieces)
