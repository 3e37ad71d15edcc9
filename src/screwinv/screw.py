"""Twists in Pluecker coordinates, pitch, invariant catalogs, DH pairs.

A twist is a pair of exact rational 3-vectors (omega, v); a multi-screw is
an ordered tuple of twists acted on diagonally by the adjoint action of the
rigid-motion group.  This module holds the polynomial catalogs attached to
those actions -- rotation vector invariants and their Gram-minor syzygies,
the generator sets for one, two and three screws, the translation bases --
plus the exact Denavit-Hartenberg pair quantities.

Variable naming is fixed for file and CLI interchange: screw coordinates
are ``w{i}{n}``/``v{i}{n}`` (screw i, component n), abstract rotation
vectors are ``x{i}{n}``, group parameters are ``t1..t3`` and ``q0..q3``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .parsing import parse, parse_rational
from .poly import Polynomial, VariableSet, _coerce, _Immutable

Vec3 = tuple


def vec3(values) -> Vec3:
    """Coerce to a 3-tuple of Fractions; each component an int or a Fraction."""
    vals = tuple(_coerce(v) for v in values)
    if len(vals) != 3:
        raise ValueError("expected exactly three components")
    return vals


def dot(u: Vec3, v: Vec3) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


@dataclass(frozen=True)
class Twist:
    """Pluecker coordinates (omega, v) of an infinitesimal rigid motion."""

    omega: Vec3
    vee: Vec3

    def __post_init__(self):
        object.__setattr__(self, "omega", vec3(self.omega))
        object.__setattr__(self, "vee", vec3(self.vee))


@dataclass(frozen=True)
class MultiScrew:
    """Ordered tuple of twists; the order is significant."""

    twists: tuple

    def __post_init__(self):
        twists = tuple(self.twists)
        if not twists or not all(isinstance(t, Twist) for t in twists):
            raise ValueError("a MultiScrew holds at least one Twist")
        object.__setattr__(self, "twists", twists)

    def __len__(self) -> int:
        return len(self.twists)

    def __getitem__(self, i: int) -> Twist:
        return self.twists[i]

    def __iter__(self):
        return iter(self.twists)

    def coordinates(self) -> dict[str, Fraction]:
        """Assignment of w/v variable names to this multi-screw's values."""
        point = {}
        for i, t in enumerate(self.twists, start=1):
            for n in range(3):
                point[f"w{i}{n + 1}"] = t.omega[n]
                point[f"v{i}{n + 1}"] = t.vee[n]
        return point


# ----------------------------------------------------------------------
# pitch and joint classification

@dataclass(frozen=True)
class Pitch:
    """Finite(value), Infinite, or UndefinedZeroTwist."""

    kind: str  # "finite" | "infinite" | "undefined"
    value: Fraction | None = None

    @classmethod
    def finite(cls, value) -> "Pitch":
        return cls("finite", _coerce(value))

    @classmethod
    def infinite(cls) -> "Pitch":
        return cls("infinite")

    @classmethod
    def undefined_zero_twist(cls) -> "Pitch":
        return cls("undefined")

    def __repr__(self) -> str:
        if self.kind == "finite":
            return f"Pitch.finite({self.value})"
        return f"Pitch.{'infinite' if self.kind == 'infinite' else 'undefined_zero_twist'}()"


class JointType(Enum):
    R = "R"  # revolute: pitch 0
    P = "P"  # prismatic: pitch infinite
    H = "H"  # helical: finite nonzero pitch


def pitch(t: Twist) -> Pitch:
    """Klein form over Killing form; infinite for pure translations.

    Total: the zero twist maps to the undefined case rather than raising.
    """
    ww = dot(t.omega, t.omega)
    if ww:
        return Pitch.finite(dot(t.omega, t.vee) / ww)
    if any(c != 0 for c in t.vee):
        return Pitch.infinite()
    return Pitch.undefined_zero_twist()


def joint_type(t: Twist) -> JointType:
    """R for pitch 0, P for infinite pitch, H for finite nonzero pitch."""
    p = pitch(t)
    if p.kind == "undefined":
        raise ValueError("the zero twist has no joint type")
    if p.kind == "infinite":
        return JointType.P
    return JointType.R if p.value == 0 else JointType.H


# ----------------------------------------------------------------------
# variable sets and polynomial building blocks

def screw_varset(m: int) -> VariableSet:
    """w11..wm3 then v11..vm3; the default lex order is the screw order."""
    if m < 1:
        raise ValueError("need at least one screw")
    names = [f"w{i}{n}" for i in range(1, m + 1) for n in (1, 2, 3)]
    names += [f"v{i}{n}" for i in range(1, m + 1) for n in (1, 2, 3)]
    return VariableSet(names)


def vector_varset(m: int) -> VariableSet:
    """x11..xm3 for m abstract 3-vectors, lex x11 > x12 > ... > xm3."""
    if m < 1:
        raise ValueError("need at least one vector")
    return VariableSet([f"x{i}{n}" for i in range(1, m + 1) for n in (1, 2, 3)])


def symbolic_vector(vs: VariableSet, stem: str) -> Vec3:
    """The variables stem1, stem2, stem3 of `vs` as a 3-vector of polynomials."""
    return tuple(Polynomial.variable(vs, f"{stem}{n}") for n in (1, 2, 3))


def det(matrix):
    """Determinant by cofactor expansion along the first row.

    Any size; the entries may be Fractions or Polynomials over one variable
    set, and a polynomial determinant comes out fully expanded.
    """
    if len(matrix) == 1:
        return matrix[0][0]
    total = 0
    for j, entry in enumerate(matrix[0]):
        term = entry * det([row[:j] + row[j + 1:] for row in matrix[1:]])
        total = total + term if j % 2 == 0 else total - term
    return total


def killing_dot(vs: VariableSet, i: int, j: int) -> Polynomial:
    """omega_i . omega_j"""
    return dot(symbolic_vector(vs, f"w{i}"), symbolic_vector(vs, f"w{j}"))


def klein_form(vs: VariableSet, i: int) -> Polynomial:
    """omega_i . v_i"""
    return dot(symbolic_vector(vs, f"w{i}"), symbolic_vector(vs, f"v{i}"))


def mixed_form(vs: VariableSet, i: int, j: int) -> Polynomial:
    """omega_i . v_j + omega_j . v_i"""
    w_i, w_j = symbolic_vector(vs, f"w{i}"), symbolic_vector(vs, f"w{j}")
    return dot(w_i, symbolic_vector(vs, f"v{j}")) + dot(w_j, symbolic_vector(vs, f"v{i}"))


# ----------------------------------------------------------------------
# rotation vector invariants and Gram minors

def _so3_dots_and_brackets(m: int) -> tuple[list, list]:
    """Named dots x_i . x_j (i <= j) and brackets [x_i, x_j, x_k] (i < j < k)."""
    vs = vector_varset(m)
    x = {i: symbolic_vector(vs, f"x{i}") for i in range(1, m + 1)}
    dots = [(f"minor_{i}_{j}", dot(x[i], x[j])) for i, j in combinations_with_replacement(x, 2)]
    brackets = [
        (f"bracket_{i}{j}{k}", det([x[i], x[j], x[k]])) for i, j, k in combinations(x, 3)
    ]
    return dots, brackets


def so3_vector_invariants(m: int) -> list[Polynomial]:
    """Generators of the rotation vector invariants on m 3-vectors.

    All pairwise dot products x_i . x_j (i <= j) plus, from m >= 3 on, the
    bracket determinants [x_i, x_j, x_k].
    """
    dots, brackets = _so3_dots_and_brackets(m)
    return [p for _, p in dots + brackets]


def gram_minor(i_list: Sequence[int], j_list: Sequence[int], m: int | None = None) -> Polynomial:
    """k x k minor of the Gram matrix of m abstract 3-vectors, expanded.

    Entry (a, b) is the dot product x_{i_a} . x_{j_b}; the determinant is
    returned with the dot products substituted, i.e. as a polynomial in the
    3m coordinates.  Every 4x4 minor vanishes identically (vectors live in
    3-space), which is exactly the syzygy family this feeds.
    """
    if len(i_list) != len(j_list):
        raise ValueError("row and column index lists must have equal length")
    if m is None:
        m = max(max(i_list), max(j_list))
    for idx in list(i_list) + list(j_list):
        if not 1 <= idx <= m:
            raise ValueError(f"index {idx} outside 1..{m}")
    vs = vector_varset(m)
    x = {i: symbolic_vector(vs, f"x{i}") for i in range(1, m + 1)}
    return det([[dot(x[i], x[j]) for j in j_list] for i in i_list])


# ----------------------------------------------------------------------
# catalogs

@dataclass(frozen=True)
class Catalog:
    """Named polynomial list with provenance flags.

    `complete` is three-valued: True when the list is a certified basis,
    False when known partial, None when completeness is unknown.
    """

    entries: tuple
    conjectural: bool = False
    complete: bool | None = True
    notes: tuple = ()

    def polynomials(self) -> list[Polynomial]:
        return [p for _, p in self.entries]

    def names(self) -> list[str]:
        return [name for name, _ in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)


def so3_sagbi_catalog(m: int) -> Catalog:
    """SAGBI basis of the rotation vector invariants on m 3-vectors.

    All 1x1 and 2x2 Gram minors plus the 3-vector brackets, under lex
    x11 > x12 > ... > xm3.
    """
    dots, brackets = _so3_dots_and_brackets(m)
    pairs = list(combinations(range(1, m + 1), 2))
    minors = [
        (f"minor_{rows[0]}{rows[1]}_{cols[0]}{cols[1]}", gram_minor(rows, cols, m))
        for a, rows in enumerate(pairs)
        for cols in pairs[a:]
    ]
    return Catalog(tuple(dots + minors + brackets))


def _klein_and_mixed(vs: VariableSet, m: int) -> list:
    """Named Klein forms of each screw, then mixed forms of each screw pair."""
    entries = [(f"klein_{i}", klein_form(vs, i)) for i in range(1, m + 1)]
    entries += [
        (f"mixed_{i}{j}", mixed_form(vs, i, j)) for i, j in combinations(range(1, m + 1), 2)
    ]
    return entries


def _catalog_varset(m: int) -> VariableSet:
    """The m-screw variable set for a catalog of the screw counts the paper covers."""
    if m not in (1, 2, 3):
        raise ValueError("supported screw counts are 1, 2 and 3")
    return screw_varset(m)


def se3_generator_catalog(m: int) -> Catalog:
    """Generators of the full adjoint invariants on m screws (m = 1, 2, 3).

    The three-screw list is conjectural: every element is exactly
    invariant, but generation of the whole invariant ring is not certified.
    """
    vs = _catalog_varset(m)
    entries = [
        (f"dot_{i}{j}", killing_dot(vs, i, j))
        for i, j in combinations_with_replacement(range(1, m + 1), 2)
    ]
    entries += _klein_and_mixed(vs, m)
    if m < 3:
        return Catalog(tuple(entries))
    w1, w2, w3 = (symbolic_vector(vs, f"w{i}") for i in (1, 2, 3))
    v1, v2, v3 = (symbolic_vector(vs, f"v{i}") for i in (1, 2, 3))
    entries.append(("bracket_www", det([w1, w2, w3])))
    entries.append(("bracket_sum", det([v1, w2, w3]) + det([w1, v2, w3]) + det([w1, w2, v3])))
    return Catalog(
        tuple(entries),
        conjectural=True,
        complete=None,
        notes=("generation of the three-screw invariant ring by this list is conjectural",),
    )


def z_poly(i: int, j: int, k: int) -> Polynomial:
    """Determinant z_{ijk} over three screws.

    Rows are the i-th components of (omega_1, omega_2, omega_3), then the
    j-th components, then the k-th components of (v_1, v_2, v_3); columns
    are indexed by screw number.  Repeated omega rows (i == j) give zero.
    """
    if not all(1 <= idx <= 3 for idx in (i, j, k)):
        raise ValueError("z indices must lie in 1..3")
    vs = screw_varset(3)
    w = [symbolic_vector(vs, f"w{s}") for s in (1, 2, 3)]
    v = [symbolic_vector(vs, f"v{s}") for s in (1, 2, 3)]
    return det([[u[i - 1] for u in w], [u[j - 1] for u in w], [u[k - 1] for u in v]])


# The subduction remainder of `two_screw_tete_a_tete_input()` against the
# other nine two-screw translation catalog elements; `verify` recomputes it.
TWO_SCREW_CUBIC = (
    "w11*w22*v22 + w11*w23*v23 - w12*w21*v22 - w13*w21*v23"
    " - w21^2*v11 - w21*w22*v12 - w21*w23*v13"
)
TWO_SCREW_CUBIC_REJECTED_VARIANT = (
    "w11*w22*v22 + w11*w23*v23 - w12*w21*v22 - w21^2*v23"
    " - w21^2*v11 - w21*w22*v12 - w21*w23*v13"
)


def two_screw_tete_a_tete_input() -> Polynomial:
    """w11*(omega_2 . v_2) - w21*(omega_1 . v_2 + omega_2 . v_1)."""
    vs = screw_varset(2)
    w11, w21 = Polynomial.variable(vs, "w11"), Polynomial.variable(vs, "w21")
    return w11 * klein_form(vs, 2) - w21 * mixed_form(vs, 1, 2)


def translation_sagbi_catalog(m: int) -> Catalog:
    """Basis of the translation sub-action invariants on m screws.

    m = 1 and m = 2 are certified complete.  The two-screw cubic is the
    shipped text `TWO_SCREW_CUBIC`, the remainder of its tete-a-tete
    subducted against the other nine elements (`verify` recomputes that
    remainder and compares); an alternative transcription of that cubic
    with w21*v23 in place of w13*v23 fails the translation-invariance check
    and is rejected (see the catalog note).  The three-screw list carries
    ``complete=None``: the bounded construction is not certified to have
    terminated.
    """
    vs = _catalog_varset(m)
    entries = [(name, Polynomial.variable(vs, name)) for name in vs.names[: 3 * m]]  # w11..wm3
    entries += _klein_and_mixed(vs, m)
    if m == 1:
        return Catalog(tuple(entries))
    if m == 2:
        entries.append(("cubic_12", parse(TWO_SCREW_CUBIC, vs)))
        note = (
            "cubic_12 is the subduction remainder of"
            " w11*(w21*v21 + w22*v22 + w23*v23) - w21*(w11*v21 + ... + w23*v13)"
            " against the other nine elements; the transcription"
            f" `{TWO_SCREW_CUBIC_REJECTED_VARIANT}` (w21^2*v23 in place of"
            " w13*w21*v23) is not translation-invariant and is rejected"
        )
        return Catalog(tuple(entries), notes=(note,))
    # m == 3
    for trip in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        entries.append((f"z_{trip[0]}{trip[1]}{trip[2]}", z_poly(*trip)))
    for a, b in (((1, 2, 1), (3, 2, 3)), ((2, 3, 2), (1, 3, 1)), ((3, 1, 3), (2, 1, 2))):
        name = f"zdiff_{a[0]}{a[1]}{a[2]}_{b[0]}{b[1]}{b[2]}"
        entries.append((name, z_poly(*a) - z_poly(*b)))
    note = (
        "three-screw list: the bounded construction is not certified to"
        " have terminated, so completeness is reported as unknown"
    )
    return Catalog(tuple(entries), complete=None, notes=(note,))


# ----------------------------------------------------------------------
# Denavit-Hartenberg pair invariants

class ExactRadical(_Immutable):
    """The exact value num / sqrt(radicand) with radicand > 0.

    Keeps square roots unevaluated so every comparison stays rational:
    equality cross-multiplies squares and compares signs.  Immutable, so
    no inexact value can be assigned in after construction.
    """

    __slots__ = ("num", "radicand")

    def __init__(self, num, radicand):
        num = _coerce(num)
        radicand = _coerce(radicand)
        if radicand <= 0:
            raise ValueError("radicand must be positive")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "radicand", radicand)

    def __float__(self) -> float:
        """One rounding of the exact square, so a huge num or radicand with a
        moderate quotient still converts; OverflowError when the value is huge."""
        root = math.sqrt(self.squared())
        return -root if self.num < 0 else root

    def as_fraction(self) -> Fraction | None:
        """Exact rational value when the radicand is a perfect square."""
        p, q = self.radicand.numerator, self.radicand.denominator
        rp, rq = math.isqrt(p), math.isqrt(q)
        if rp * rp == p and rq * rq == q:
            return self.num / Fraction(rp, rq)
        return None

    def squared(self) -> Fraction:
        return self.num * self.num / self.radicand

    def __eq__(self, other) -> bool:
        if isinstance(other, bool):
            return NotImplemented  # a bool is not a rational
        if isinstance(other, (int, Fraction)):
            other = ExactRadical(other, 1)
        if not isinstance(other, ExactRadical):
            return NotImplemented
        if (self.num > 0) != (other.num > 0) or (self.num < 0) != (other.num < 0):
            return False
        return self.num ** 2 * other.radicand == other.num ** 2 * self.radicand

    __hash__ = None

    def __reduce__(self):
        return ExactRadical, (self.num, self.radicand)

    def __repr__(self) -> str:
        exact = self.as_fraction()
        if exact is not None:
            return f"ExactRadical({exact})"
        return f"ExactRadical({self.num}/sqrt({self.radicand}))"


@dataclass(frozen=True)
class DhPairReport:
    """Exact twist angle and displacement data for a screw pair's axes.

    cos_alpha and d_sin_alpha are the two invariant quotients over
    sqrt((w1.w1)(w2.w2)); `displacement` is the exact d when the axes are
    not parallel, and the float views are 15-significant-digit
    conveniences only.  All of them belong to the axes: d_sin_alpha and
    `displacement` carry the pitch term, so they do not change with the
    pitches, while `klein_cross` is the raw w1.v2 + w2.v1, pitches included.
    """

    dots: tuple  # (w1.w1, w1.w2, w2.w2)
    klein_cross: Fraction  # w1.v2 + w2.v1
    cos_alpha: ExactRadical
    d_sin_alpha: ExactRadical
    displacement: ExactRadical | None
    parallel_axes: bool
    alpha_float: float
    d_float: float | None


def dh_invariants(pair: MultiScrew) -> DhPairReport:
    """Twist-angle and displacement invariants of the axes of a screw pair.

    With rho = (w1.w1)(w2.w2) and the pitches h_i = (w_i.v_i)/(w_i.w_i),
    cos(alpha) = (w1.w2) / sqrt(rho) and d sin(alpha) =
    (w1.v2 + w2.v1 - (h1 + h2)(w1.w2)) / sqrt(rho).  The pitch term takes
    out what the pitches add to w1.v2 + w2.v1, so both belong to the axes
    and hold for any pitches; both are ratios of two-screw adjoint
    invariants, so the report is a fixed point of the adjoint action.
    Requires nonzero angular parts; when the axes are parallel
    (sin(alpha) = 0) the displacement is reported undefined, and a
    displacement too large for a float raises ValueError.
    """
    if len(pair) != 2:
        raise ValueError("DH pair invariants need exactly two screws")
    t1, t2 = pair[0], pair[1]
    w11 = dot(t1.omega, t1.omega)
    w22 = dot(t2.omega, t2.omega)
    if not w11 or not w22:
        raise ValueError("both screws need a nonzero angular part")
    w12 = dot(t1.omega, t2.omega)
    kc = dot(t1.omega, t2.vee) + dot(t2.omega, t1.vee)
    # kc less the pitch term (h1 + h2)(w1.w2): the axes' own share
    axes = kc - (dot(t1.omega, t1.vee) / w11 + dot(t2.omega, t2.vee) / w22) * w12
    rho = w11 * w22
    cos_alpha = ExactRadical(w12, rho)
    d_sin_alpha = ExactRadical(axes, rho)
    if cos_alpha.squared() > 1:
        raise RuntimeError(
            f"Cauchy-Schwarz violated: (w1.w2)^2 = {w12 * w12} exceeds (w1.w1)(w2.w2) = {rho}"
        )
    parallel = w12 * w12 == rho
    displacement = d_float = None
    if not parallel:
        displacement = ExactRadical(axes, rho - w12 * w12)
        try:
            d_float = float(displacement)
        except OverflowError:
            raise ValueError(
                f"displacement {displacement.num} / sqrt({displacement.radicand})"
                " is too large for a float"
            ) from None
    alpha_float = math.acos(max(-1.0, min(1.0, float(cos_alpha))))
    return DhPairReport(
        dots=(w11, w12, w22),
        klein_cross=kc,
        cos_alpha=cos_alpha,
        d_sin_alpha=d_sin_alpha,
        displacement=displacement,
        parallel_axes=parallel,
        alpha_float=alpha_float,
        d_float=d_float,
    )


# ----------------------------------------------------------------------
# multi-screw text format: m lines of six rationals `w1 w2 w3 v1 v2 v3`

def format_multiscrew(s: MultiScrew) -> str:
    lines = []
    for t in s:
        parts = [str(c) for c in t.omega] + [str(c) for c in t.vee]
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def parse_multiscrew(text: str) -> MultiScrew:
    twists = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 6:
            raise ValueError(f"line {lineno}: expected six rationals, got {len(fields)}")
        try:
            vals = [parse_rational(f) for f in fields]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        twists.append(Twist(vals[:3], vals[3:]))
    if not twists:
        raise ValueError("no screws found in input")
    return MultiScrew(tuple(twists))
