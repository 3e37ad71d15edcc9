"""Exact sparse multivariate polynomials over the rationals.

A polynomial is an int term map over one int denominator: a dict mapping
packed monomials (one int per exponent vector over an immutable
:class:`VariableSet`, which packs and unpacks them; see `_kernel` for the
layout) to nonzero int numerators, and one int ``den`` > 0 with
gcd(den, numerators) = 1.  Every operation runs the kernel loops on ints
and takes that gcd once per result, and not at all when ``den`` is 1, as
it is for every pullback, catalog and translation basis.  The zero
polynomial has an empty map and ``den`` 1.  Readers see rationals:
``terms`` is a read-only mapping, and it, `coefficient` and `leading_term`
give an ``int`` when a coefficient is integral and a ``Fraction``
otherwise.  Everything here is exact: no floats, no tolerances, and all
values are immutable after construction, so they are safe to share across
threads.

A term's exponents are read through one walk, `Polynomial._plan`.
`evaluate`, `substitute` and the sampled oracle share one rule: with the
values or images cleared to P_i over one denominator D, the result is
N(P, D) = sum C_t * P^t * D^(top - deg t) over den * D^top.

Term orders are pure lexicographic with an explicit variable priority; a
prefix of the priority list acts as an elimination block.
"""

from __future__ import annotations

import math
import re
import struct
from collections.abc import Mapping
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import itemgetter, or_
from typing import Iterable, Iterator, Sequence

from ._kernel import (
    FIELD_BITS,
    MAX_EXPONENT,
    guard_mask,
    terms_add,
    terms_add_into,
    terms_mul,
    terms_scale,
    terms_sub,
)

Exponents = Sequence[int]  # an exponent vector, one int per variable
Monomial = int  # a packed exponent vector, see VariableSet.pack

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")

Scalar = (int, Fraction)

# An error message quotes a field of up to this many characters whole, and a
# longer one by its first 12, so that it stays one short line.
QUOTE_WIDTH = 32


def quoted(text: str, lead: str) -> str:
    """`text` as an error message quotes it: ``repr(text)`` when it is at
    most QUOTE_WIDTH characters long, else `lead` and the repr of its first
    12 non-blank characters, as in ``a field starting '999999999999'``."""
    if len(text) <= QUOTE_WIDTH:
        return repr(text)
    return f"{lead} {text.strip()[:12]!r}"


class _TermsView(Mapping):
    """A read-only view of a term map or of a certificate's terms; every
    write raises TypeError, naming the owner by `noun`.

    `types.MappingProxyType` cannot be pickled, and it would refuse a write
    whose packed key is above `sys.maxsize` with IndexError: it falls back
    to the sequence protocol, which cannot fit such an int into an index.
    """

    __slots__ = ("_map", "_noun")

    def __init__(self, terms: dict, noun: str = "polynomial"):
        self._map = terms
        self._noun = noun

    def __getitem__(self, mono):
        return self._map[mono]

    def __iter__(self):
        return iter(self._map)

    def __len__(self) -> int:
        return len(self._map)

    def __setitem__(self, mono, value):
        raise TypeError(f"{self._noun} terms are read-only")

    def __delitem__(self, mono):
        raise TypeError(f"{self._noun} terms are read-only")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._map!r})"


class _Immutable:
    """Base of the hand-frozen value types: attributes refuse assignment and
    deletion.  Subclasses declare their own `__slots__` and fill them through
    `object.__setattr__` or the slots' own setters, which go past these.  A
    value copies as itself, as a Fraction does, and each subclass pickles
    through its public constructor with a `__reduce__`."""

    __slots__ = ()

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")


class VariableSet(_Immutable):
    """Ordered, immutable collection of distinct variable names.

    It owns the packed monomial layout of `_kernel`: variable i sits in
    field i from the most significant end, and `guard` has the guard bit
    of every field set.
    """

    __slots__ = ("names", "guard", "_index", "_default_order", "_layout", "_nbytes")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if not names:
            raise ValueError("a VariableSet needs at least one variable")
        seen = set()
        for name in names:
            if not _IDENT_RE.match(name):
                raise ValueError(f"invalid variable name {quoted(name, 'starting')}")
            if name in seen:
                raise ValueError(f"duplicate variable name {quoted(name, 'starting')}")
            seen.add(name)
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "guard", guard_mask(len(names)))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(names)})
        object.__setattr__(self, "_default_order", None)
        object.__setattr__(self, "_layout", struct.Struct(f">{len(names)}I"))  # FIELD_BITS each
        object.__setattr__(self, "_nbytes", self._layout.size)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {quoted(name, 'starting')}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self) -> Iterator[str]:
        return iter(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VariableSet) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VariableSet({list(self.names)!r})"

    def __reduce__(self):
        return VariableSet, (self.names,)

    def unit(self) -> Monomial:
        """The unit monomial, all exponents zero."""
        return 0

    def pack(self, exponents: Exponents) -> Monomial:
        """The packed monomial of an exponent vector, one entry per variable.

        Raises ValueError unless every entry is an int (not a bool) from 0
        to MAX_EXPONENT = 2^31 - 1.
        """
        exps = tuple(exponents)
        try:
            packed = int.from_bytes(self._layout.pack(*exps), "big")
        except struct.error:
            packed = self.guard  # out of range or not an int: sorted out below
        if packed & self.guard or bool in map(type, exps):
            if len(exps) == len(self.names) and all(
                isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in exps
            ):
                name, e = next((n, e) for n, e in zip(self.names, exps) if e > MAX_EXPONENT)
                raise ValueError(f"exponent {e} of {name} is above the limit 2^31 - 1")
            raise ValueError(f"bad exponent tuple {exps!r} for {self!r}")
        return packed

    def unpack(self, monomial: Monomial) -> tuple[int, ...]:
        """The exponent tuple of a packed monomial."""
        return self._layout.unpack(monomial.to_bytes(self._nbytes, "big"))

    def degree(self, monomial: Monomial) -> int:
        """Total degree of a packed monomial."""
        return sum(self.unpack(monomial))

    def default_order(self) -> "TermOrder":
        """Lex order with priority equal to the creation order (cached)."""
        if self._default_order is None:
            object.__setattr__(self, "_default_order", TermOrder(self))
        return self._default_order


class TermOrder(_Immutable):
    """Pure lexicographic term order with an explicit variable priority.

    Monomial ``a`` exceeds ``b`` iff at the first priority variable where
    they differ, ``a`` has the larger exponent.  The order is total,
    multiplicative, and has the unit monomial as minimum, hence it is a
    well-order on monomials.  Any prefix of the priority list forms an
    elimination block: a monomial touching the block beats every monomial
    that avoids it.
    """

    __slots__ = ("varset", "priority", "_perm")

    def __init__(self, varset: VariableSet, priority: Sequence[str] | None = None):
        if priority is None:
            priority = varset.names
        priority = tuple(priority)
        if sorted(priority) != sorted(varset.names):
            raise ValueError("priority must be a permutation of the variable set")
        object.__setattr__(self, "varset", varset)
        object.__setattr__(self, "priority", priority)
        perm = tuple(varset.index(name) for name in priority)
        # None when the priority is the variable-set order (every pullback
        # system): packed monomials then compare as their own keys.
        object.__setattr__(self, "_perm", None if perm == tuple(range(len(perm))) else itemgetter(*perm))

    def key(self, monomial: Monomial | Exponents) -> Monomial:
        """Sort key: the monomial packed with its exponents in priority order.

        Takes a packed monomial or an exponent vector, which it packs.
        When the priority equals the variable-set order the key is the
        packed monomial itself; otherwise it is
        ``varset.pack([exponents[i] for i in perm])``.
        """
        varset = self.varset
        if not isinstance(monomial, int):
            monomial = varset.pack(monomial)
        perm = self._perm
        if perm is None:
            return monomial
        return int.from_bytes(varset._layout.pack(*perm(varset.unpack(monomial))), "big")

    def largest(self, monomials: Iterable[Monomial]) -> Monomial:
        """The largest of some packed monomials, such as a term map's keys."""
        return max(monomials, key=None if self._perm is None else self.key)

    def sorted_terms(self, terms: Mapping):
        """Terms as (monomial, coefficient) pairs in decreasing order."""
        if self._perm is None:
            return sorted(terms.items(), key=itemgetter(0), reverse=True)
        return sorted(terms.items(), key=lambda item: self.key(item[0]), reverse=True)

    def eliminates(self, block: Sequence[str]) -> bool:
        """True iff `block` is exactly a prefix of the priority list."""
        block = tuple(block)
        return self.priority[: len(block)] == block

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TermOrder)
            and self.varset == other.varset
            and self.priority == other.priority
        )

    def __hash__(self) -> int:
        return hash((self.varset, self.priority))

    def __repr__(self) -> str:
        return f"TermOrder(lex {' '.join(self.priority)})"

    def __reduce__(self):
        return TermOrder, (self.varset, self.priority)


def _coerce(value) -> Fraction:
    """The one exact-number rule: an int or a Fraction, never a bool."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"bad coefficient {value!r}: a bool is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def _cleared(values) -> tuple:
    """(numerators, d): the rationals `values` as ints over their least common denominator d."""
    d = math.lcm(*(v.denominator for v in values))
    return tuple(v.numerator * (d // v.denominator) for v in values), d


def _ratio(value) -> tuple[int, int]:
    """(p, q) with q > 0 and value = p/q in lowest terms, by `_coerce`'s rule."""
    if type(value) is int:
        return value, 1
    value = _coerce(value)
    return value.numerator, value.denominator


def _plan_sum(rows, top: int, p, d: int) -> int:
    """N(p, d) = sum(C_t * prod(p_i^e_i) * d^(top - deg_t)) over a `Polynomial._plan`:
    the polynomial's value at p/d is N(p, d) / (den * d^top).  `p` is indexed
    by variable index."""
    total = 0
    for coeff, exps, k in rows:
        term = coeff * d ** (top - k)
        for i, e in exps:
            term *= p[i] ** e
        total += term
    return total


def _value(c: int, den: int) -> int | Fraction:
    """The rational c/den: an int when integral, else a Fraction."""
    if den == 1:
        return c
    q, r = divmod(c, den)
    return Fraction(c, den) if r else q


class Polynomial(_Immutable):
    """Immutable sparse polynomial with exact rational coefficients.

    The value is ``_num / den``: `_num` maps packed monomials to nonzero
    ints, ``den`` > 0 and gcd(den, *_num.values()) = 1.
    """

    __slots__ = ("varset", "_num", "den")

    def __init__(self, varset: VariableSet, terms: Mapping | None = None):
        """`terms` maps exponent vectors, which are packed, or packed
        monomials, such as another polynomial's `terms` keys, to ints or
        Fractions; the Fractions are cleared to one denominator once."""
        clean = {}
        fractional = False
        if terms:
            width = FIELD_BITS * len(varset)
            for exps, coeff in terms.items():
                if type(exps) is int:
                    if exps < 0 or exps >> width or exps & varset.guard:
                        raise ValueError(f"bad packed monomial {exps!r} for {varset!r}")
                    m = exps
                else:
                    m = varset.pack(exps)
                if type(coeff) is not int:
                    coeff = _coerce(coeff)
                    fractional = True
                if not coeff:
                    continue
                prev = clean.get(m)
                if prev is not None:
                    coeff = prev + coeff
                    if not coeff:
                        del clean[m]
                        continue
                clean[m] = coeff
        den = 1
        if fractional:
            # reduced values over their least common denominator: the
            # numerators then share no factor with it
            numerators, den = _cleared(clean.values())
            clean = dict(zip(clean, numerators))
        _set_varset(self, varset)
        _set_num(self, clean)
        _set_den(self, den)

    @classmethod
    def _raw(cls, varset: VariableSet, num: dict, den: int = 1) -> "Polynomial":
        """Internal fast path: `num` has packed keys, int values and no
        zeros, and `den` > 0.  Their common factor is divided out here; with
        `den` 1 there is none, and no gcd is taken."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        self = object.__new__(cls)
        _set_varset(self, varset)
        _set_num(self, num)
        _set_den(self, den)
        return self

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, varset: VariableSet) -> "Polynomial":
        return cls._raw(varset, {})

    @classmethod
    def constant(cls, varset: VariableSet, value) -> "Polynomial":
        p, q = _ratio(value)
        if not p:
            return cls._raw(varset, {})
        return cls._raw(varset, {varset.unit(): p}, q)

    @classmethod
    def variable(cls, varset: VariableSet, name: str) -> "Polynomial":
        shift = FIELD_BITS * (len(varset) - 1 - varset.index(name))
        return cls._raw(varset, {1 << shift: 1})

    # ------------------------------------------------------------------
    # basic queries

    @property
    def terms(self) -> Mapping[Monomial, int | Fraction]:
        """Read-only map from packed monomials to the rational coefficients:
        a view of the int map when `den` is 1, else built on each request."""
        den = self.den
        if den == 1:
            return _TermsView(self._num)
        return _TermsView({m: _value(c, den) for m, c in self._num.items()})

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def coefficient(self, monomial: Monomial | Exponents) -> int | Fraction:
        """Coefficient of a packed monomial or an exponent vector."""
        if not isinstance(monomial, int):
            monomial = self.varset.pack(monomial)
        return _value(self._num.get(monomial, 0), self.den)

    def used_variables(self) -> list[str]:
        """Names appearing with a positive exponent in some term."""
        used = self.varset.unpack(reduce(or_, self._num, 0))
        return [name for name, e in zip(self.varset.names, used) if e]

    # ------------------------------------------------------------------
    # ring operations

    def _check_same(self, other: "Polynomial") -> None:
        if self.varset is not other.varset and self.varset != other.varset:
            raise ValueError("mismatched variable sets")

    def _over_lcm(self, other: "Polynomial") -> tuple[dict, dict, int]:
        """Both int maps over the least common multiple of two unequal dens."""
        a, b = self.den, other.den
        g = math.gcd(a, b)
        ka, kb = b // g, a // g
        return (
            self._num if ka == 1 else terms_scale(self._num, ka),
            other._num if kb == 1 else terms_scale(other._num, kb),
            a * ka,
        )

    def _add_or_sub(self, other, kernel):
        """``self + other`` with `kernel` terms_add, ``self - other`` with terms_sub."""
        if isinstance(other, Scalar):
            other = Polynomial.constant(self.varset, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        if self.den == other.den:
            a, b, den = self._num, other._num, self.den
        else:
            a, b, den = self._over_lcm(other)
        return Polynomial._raw(self.varset, kernel(a, b), den)

    # the kernels are looked up per call, so a wrapped binding is seen
    def __add__(self, other):
        return self._add_or_sub(other, terms_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add_or_sub(other, terms_sub)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial._raw(self.varset, {e: -c for e, c in self._num.items()}, self.den)

    def __mul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same(other)
        return Polynomial._raw(self.varset, terms_mul(self._num, other._num), self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, Scalar):
            return self.scale(other)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, Scalar):
            c = _coerce(other)
            if not c:
                raise ZeroDivisionError("division of a polynomial by zero")
            return self.scale(1 / c)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise ValueError("polynomial power requires a non-negative integer")
        result = Polynomial.constant(self.varset, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def scale(self, c) -> "Polynomial":
        """This polynomial times c = p/q: the int map times p over den * q."""
        p, q = _ratio(c)
        if not p:
            return Polynomial.zero(self.varset)
        return Polynomial._raw(self.varset, terms_scale(self._num, p), self.den * q)

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            if isinstance(other, bool):
                return NotImplemented  # a bool is not a rational
            other = Polynomial.constant(self.varset, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        # both are in lowest terms, so equal values have equal pairs
        return self.varset == other.varset and self.den == other.den and self._num == other._num

    __hash__ = None  # equality is structural; polynomials are not hashable

    # ------------------------------------------------------------------
    # term-order-dependent operations

    def leading_term(self, order: TermOrder | None = None) -> tuple[Monomial, int | Fraction]:
        """Largest (monomial, coefficient) pair under `order`.

        Raises ValueError on the zero polynomial, which has no leading term,
        and for an order over another variable set.
        """
        num = self._num
        if not num:
            raise ValueError("zero polynomial has no leading term")
        if order is None:
            order = self.varset.default_order()
        elif order.varset is not self.varset and order.varset != self.varset:
            raise ValueError("term order over another variable set")
        m = order.largest(num)
        c = num[m]
        return m, c if self.den == 1 else _value(c, self.den)

    def leading_monomial(self, order: TermOrder | None = None) -> Monomial:
        return self.leading_term(order)[0]

    def monic(self, order: TermOrder | None = None) -> "Polynomial":
        """Scaled so the leading coefficient is 1."""
        m, lc = self.leading_term(order)
        if lc == 1:
            return self
        return self.scale(Fraction(self.den, self._num[m]))  # 1/lc

    # ------------------------------------------------------------------
    # substitution and evaluation

    def substitute(self, images: Mapping[str, "Polynomial"]) -> "Polynomial":
        """Ring homomorphism sending each variable to its image polynomial.

        Every variable actually used in `self` must have an image; the
        images must share a single target variable set.  This is
        `evaluate`'s rule on term maps: the used images are cleared to int
        maps P_i over one denominator D, and the result is `_plan_sum`'s
        N(P, D) over den * D^top, with each image power built once.
        """
        rows, used, top = self._plan()
        if not used:
            # constant: nothing to substitute
            target = next(iter(images.values())).varset if images else self.varset
            return Polynomial._raw(target, self._num, self.den)
        names = self.varset.names
        imgs = {}  # variable index -> its image
        for i in used:
            if names[i] not in images:
                raise ValueError(f"no image given for variable {quoted(names[i], 'starting')}")
            imgs[i] = img = images[names[i]]
            if img.varset != imgs[used[0]].varset:
                raise ValueError("substitution images use mismatched variable sets")
        target = imgs[used[0]].varset
        d = math.lcm(*(img.den for img in imgs.values()))
        unit = target.unit()
        # powers[i][e] is P_i^e, built on first use
        powers = {
            i: [{unit: 1}, img._num if img.den == d else terms_scale(img._num, d // img.den)]
            for i, img in imgs.items()
        }
        result: dict = {}
        for coeff, exps, k in rows:
            acc = {unit: coeff * d ** (top - k)}
            for i, e in exps:
                plist = powers[i]
                while len(plist) <= e:
                    plist.append(terms_mul(plist[-1], plist[1]))
                acc = terms_mul(acc, plist[e])
            terms_add_into(result, acc, 1)
        return Polynomial._raw(target, result, self.den * d**top)

    def _plan(self) -> tuple:
        """(rows, used, top): one (C_t, ((i, e_i), ...), deg_t) row per term,
        in `_num`'s order, the indices of the used variables and the largest
        term degree.  The one walk over the packed terms: `evaluate`,
        `substitute`, `rename`, `degree_components` and the sampled oracle
        read a term's exponents from its row."""
        unpack = self.varset.unpack
        rows = []
        for m, coeff in self._num.items():
            exps = unpack(m)
            # a list comprehension builds the tuple faster than a generator would
            rows.append((coeff, tuple([(i, e) for i, e in enumerate(exps) if e]), sum(exps)))
        used = list(compress(range(len(self.varset)), unpack(reduce(or_, self._num, 0))))
        return rows, used, max((row[2] for row in rows), default=0)

    def evaluate(self, point: Mapping[str, Fraction | int]) -> Fraction:
        """Exact value at a point, as a Fraction; every used variable must be assigned.

        Computed in ints: the used variables' values are P_i/D over one
        denominator D, so the value is `_plan_sum` N(P, D) over den * D^top,
        and one Fraction is built.
        """
        index = self.varset._index
        if not index.keys() >= point.keys():
            self.varset.index(next(k for k in point if k not in index))  # raises: unknown variable
        values = {index[name]: _coerce(val) for name, val in point.items()}
        rows, used, top = self._plan()
        for i in used:
            if i not in values:
                raise ValueError(f"missing assignment for variable {quoted(self.varset.names[i], 'starting')}")
        numerators, d = _cleared([values[i] for i in used])
        return Fraction(_plan_sum(rows, top, dict(zip(used, numerators)), d), self.den * d**top)

    def rename(self, target: VariableSet, mapping: Mapping[str, str] | None = None) -> "Polynomial":
        """Re-index into `target`, optionally renaming variables.

        Cheap exponent shuffling: every used variable must map (via
        `mapping`, default identity) to a name present in `target`.
        """
        rows, used, _ = self._plan()
        names, last = self.varset.names, len(target) - 1
        shift = {}  # variable index -> the bit offset of its field in `target`
        for i in used:
            new = mapping.get(names[i], names[i]) if mapping else names[i]
            shift[i] = FIELD_BITS * (last - target.index(new))
        if len(set(shift.values())) != len(shift):
            raise ValueError("rename mapping must be injective on used variables")
        out = {sum(e << shift[i] for i, e in exps): coeff for coeff, exps, _ in rows}
        return Polynomial._raw(target, out, self.den)

    def degree_components(self) -> dict[int, "Polynomial"]:
        """Split into homogeneous components keyed by total degree."""
        buckets: dict[int, dict] = {}
        for m, (coeff, _, k) in zip(self._num, self._plan()[0]):
            buckets.setdefault(k, {})[m] = coeff
        return {d: Polynomial._raw(self.varset, t, self.den) for d, t in buckets.items()}

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        from .parsing import format_poly

        return format_poly(self)

    __str__ = __repr__

    def __reduce__(self):
        return Polynomial, (self.varset, dict(self.terms))


# The slots' own setters, which `_raw` and the constructor call past the
# refusing __setattr__; on CPython 3.11 they take about two thirds of
# object.__setattr__'s time, and `_raw` builds every intermediate polynomial.
_set_varset = Polynomial.varset.__set__
_set_num = Polynomial._num.__set__
_set_den = Polynomial.den.__set__
