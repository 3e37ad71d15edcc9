"""Term-map kernels and the packed monomial layout.

A *term map* is a dict sending packed monomials to nonzero coefficients.
A packed monomial is one non-negative int holding an exponent vector: one
32-bit field per variable, variable 0 in the most significant field, each
exponent in the low 31 bits of its field under a guard bit that stays
clear (Monagan & Pearce, "Polynomial division using dynamic arrays, heaps,
and packed exponent vectors", CASC 2007).  The product of two monomials is
then the sum of their ints: a field sum below 2^32 never carries into the
next field, and it reaches 2^31 exactly when the guard bit comes up.  With
variable 0 first, comparing two ints compares the exponent vectors
lexicographically.  `poly.VariableSet` packs and unpacks.

Coefficients are ints: a `poly.Polynomial` holds its term map over one
int denominator, so every loop here runs on int arithmetic and the
denominator is handled once per result, outside these loops.  The loops
use nothing but `+`, `-`, `*` and truthiness, so the tests run them on
`Fraction` maps as a reference.  These functions are the inner loops of
every polynomial operation in the library.

All functions but `terms_add_into` return fresh dicts, and none stores a
zero coefficient.  `terms_add_into` is the one accumulate loop: `terms_add`
and `terms_sub` run it on a copy, and subduction and substitution run it in
place.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from operator import or_

FIELD_BITS = 32
MAX_EXPONENT = 2**31 - 1


@lru_cache(maxsize=None)
def guard_mask(fields: int) -> int:
    """The guard bit of each of the low `fields` fields."""
    return int.from_bytes(b"\x80\x00\x00\x00" * fields, "big")


def _guards_of(x: int) -> int:
    """The guard bits set in `x`, a sum or union of packed monomials."""
    return x & guard_mask(-(-x.bit_length() // FIELD_BITS))


def terms_add_into(out, b, c):
    """Add `c` times term map `b` into `out` in place (c != 0)."""
    for e, v in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c * v
        else:
            s = s + c * v
            if s:
                out[e] = s
            else:
                del out[e]


def terms_add(a, b):
    """Sum of two term maps."""
    out = dict(a)
    terms_add_into(out, b, 1)
    return out


def terms_sub(a, b):
    """Difference of two term maps."""
    out = dict(a)
    terms_add_into(out, b, -1)
    return out


def terms_scale(a, c):
    """Term map scaled by an int (caller guarantees c != 0)."""
    return {e: c * v for e, v in a.items()}


def terms_mul(a, b):
    """Distributive product of two term maps.

    Raises ValueError when a product exponent exceeds MAX_EXPONENT.  The
    union of `a`'s keys bounds each of their fields from above, and so
    does `b`'s; only when the two bounds can sum into a guard bit are the
    product's own keys checked.
    """
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            prev = out.get(e)
            if prev is None:
                out[e] = ca * cb
            else:
                prev = prev + ca * cb
                if prev:
                    out[e] = prev
                else:
                    del out[e]
    if _guards_of(reduce(or_, a) + reduce(or_, b)) and _guards_of(reduce(or_, out, 0)):
        raise ValueError("a product exponent is above the limit 2^31 - 1")
    return out
