"""Term-map kernels.

A *term map* is a dict sending exponent tuples (one small non-negative int
per variable) to nonzero coefficients.  Coefficients are treated as opaque
field elements: anything supporting `+`, `*` and truthiness (`Fraction`,
`int`).  These functions are the inner loops of every polynomial
operation in the library.

All functions but `terms_add_into` return fresh dicts, and none stores a
zero coefficient.
"""

from __future__ import annotations

from operator import add


def terms_add_into(out, b):
    """Add term map `b` into `out` in place."""
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = c
        else:
            s = s + c
            if s:
                out[e] = s
            else:
                del out[e]


def terms_add(a, b):
    """Sum of two term maps."""
    if not a:
        return dict(b)
    out = dict(a)
    terms_add_into(out, b)
    return out


def terms_sub(a, b):
    """Difference of two term maps."""
    out = dict(a)
    for e, c in b.items():
        s = out.get(e)
        if s is None:
            out[e] = -c
        else:
            s = s - c
            if s:
                out[e] = s
            else:
                del out[e]
    return out


def terms_scale(a, c):
    """Term map scaled by a coefficient (caller guarantees c != 0)."""
    return {e: c * v for e, v in a.items()}


def terms_mul(a, b):
    """Distributive product of two term maps."""
    if not a or not b:
        return {}
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(map(add, ea, eb))
            prev = out.get(e)
            if prev is None:
                out[e] = ca * cb
            else:
                prev = prev + ca * cb
                if prev:
                    out[e] = prev
                else:
                    del out[e]
    return out
