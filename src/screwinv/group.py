"""Exact rigid displacements and their adjoint action on multi-screws.

A rotation is held as M/n: an integer 3x3 matrix M over one int n > 0,
reduced so that gcd(M, n) = 1.  Its one constructor checks every rotation,
products included, in integer arithmetic (M^T M = n^2 I, det M = n^3).
Exact rotations come from integer quaternions q through the
quaternion-to-matrix formula, which gives M over n = |q|^2 before
reduction; the Fraction matrix M/n is a view built on request.  A
displacement acts on a twist by the 6x6 block matrix [[R, 0], [TR, R]],
with T the skew matrix of the translation t; `_adjoint_blocks` is the one
place this is written.  Numerically that matrix is held as an integer
matrix A over one int d, and a twist is acted on with its coordinates
cleared to ints over their common denominator, so each image coordinate
costs one Fraction.  The sampled oracle builds none: it draws an int
quaternion and translation by `_draw` (`randint`'s values at `getrandbits`
cost), checks the rotation with the `Rotation` constructor, applies the
blocks to ints, and builds Fractions only for a counterexample.  `_images`
lifts the blocks' entries, built once over the group variables alone.

Invariance of a polynomial under the full action or either sub-action can
be checked two independent ways: symbolically (substituting the action of
one-parameter families of group elements with symbolic parameters and
comparing polynomials exactly) or by exact evaluation at pseudo-random
rational group elements and screws.

The symbolic check rests on three generation facts.  SE(3) is generated by
SO(3) and the translations, since (R, t) = (I, t)(R, 0).  SO(3) is
generated by the rotations about e3 and about e1 (ZXZ Euler angles).  And
an exact polynomial identity in (q0, q_k), the quaternion restricted to
the axis e_k, holds for every rotation about that axis.  So a polynomial
invariant under the translations and under both axis families is
invariant under the whole group, and each family is one small substitution.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import reduce
from operator import mul

from ._kernel import FIELD_BITS, terms_add
from .poly import Polynomial, TermOrder, VariableSet, _cleared, _coerce, _Immutable, _plan_sum
from .sagbi import (
    DEFAULT_DEGREE_BOUND,
    GeneratorSet,
    SagbiResult,
    eliminate,
    sagbi_construct,
)
from .screw import MultiScrew, Twist, Vec3, cross, dot, screw_varset, vec3

DEFAULT_SAMPLES = 32
DEFAULT_SEED = 0xC0FFEE


def mat_mul(a, b):
    """Matrix product of any compatible sizes; rows of `a` times columns of `b`."""
    columns = transpose(b)
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def mat_vec(a, v):
    """The product a v of a matrix and a vector of numbers."""
    return tuple(sum(map(mul, row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a))


@dataclass(frozen=True)
class RationalQuaternion:
    """Quaternion with rational components, not all zero (never normalized)."""

    q0: Fraction
    q1: Fraction
    q2: Fraction
    q3: Fraction

    def __post_init__(self):
        for name in ("q0", "q1", "q2", "q3"):
            object.__setattr__(self, name, _coerce(getattr(self, name)))
        if not (self.q0 or self.q1 or self.q2 or self.q3):
            raise ValueError("the zero quaternion defines no rotation")

    def components(self) -> tuple:
        return (self.q0, self.q1, self.q2, self.q3)


class Rotation(_Immutable):
    """Exactly orthogonal 3x3 matrix with determinant 1, held as M/n.

    `Rotation(M, n)` takes an int 3x3 matrix M and an int n > 0, raises
    unless M^T M = n^2 I and det M = n^3, and stores the unique reduced pair
    (gcd(M, n) = 1) that equality and hashing compare.  It is the only way
    to build one, and its attributes cannot be set or deleted, so a Rotation
    never holds an inexact or reflecting matrix.  `entries` is the Fraction
    view M/n.
    """

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator, denominator: int):
        rows = tuple(map(tuple, numerator))
        if [len(row) for row in rows] != [3, 3, 3]:
            raise ValueError("expected a 3x3 matrix")
        if not all(type(x) is int for x in (denominator, *(e for row in rows for e in row))):
            raise TypeError("a rotation's numerator and denominator must be ints")
        if denominator <= 0:
            raise ValueError("a rotation's denominator must be positive")
        n2 = denominator * denominator
        c0, c1, c2 = zip(*rows)
        gram = dot(c0, c0), dot(c1, c1), dot(c2, c2), dot(c0, c1), dot(c0, c2), dot(c1, c2)
        if gram != (n2, n2, n2, 0, 0, 0):  # the six distinct entries of the symmetric M^T M
            raise ValueError("matrix is not exactly orthogonal")
        if dot(rows[0], cross(rows[1], rows[2])) != n2 * denominator:  # det M
            raise ValueError("matrix has determinant != 1")
        g = math.gcd(denominator, *c0, *c1, *c2)
        if g != 1:
            rows, denominator = tuple(tuple(x // g for x in row) for row in rows), denominator // g
        object.__setattr__(self, "numerator", rows)
        object.__setattr__(self, "denominator", denominator)

    @property
    def entries(self) -> tuple:
        n = self.denominator
        return tuple(tuple(Fraction(x, n) for x in row) for row in self.numerator)

    def compose(self, other: "Rotation") -> "Rotation":
        n = self.denominator * other.denominator
        return Rotation(mat_mul(self.numerator, other.numerator), n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Rotation)
            and self.denominator == other.denominator
            and self.numerator == other.numerator
        )

    def __hash__(self) -> int:
        return hash((self.numerator, self.denominator))

    def __repr__(self) -> str:
        return f"Rotation({self.numerator!r}, {self.denominator!r})"

    def __reduce__(self):
        return Rotation, (self.numerator, self.denominator)

    @classmethod
    def identity(cls) -> "Rotation":
        """The identity rotation: one shared instance, checked once at import."""
        return _IDENTITY_ROTATION


_IDENTITY_ROTATION = Rotation(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 1)


def _quaternion_matrix_raw(q0, q1, q2, q3):
    """Unnormalized quaternion matrix; the true rotation is this over |q|^2."""
    return (
        (q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)),
        (2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)),
        (2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3),
    )


def _int_rotation(a) -> Rotation:
    """The rotation of the nonzero int quaternion a: its quaternion matrix over |a|^2."""
    return Rotation(_quaternion_matrix_raw(*a), sum(x * x for x in a))


def rotation_from_quaternion(q: RationalQuaternion) -> Rotation:
    """Exact rotation matrix of a (not necessarily unit) quaternion.

    With the components cleared to integers a (q = a/d), the rotation is the
    quaternion matrix of a over |a|^2; the scale d cancels.
    """
    return _int_rotation(_cleared(q.components())[0])


@dataclass(frozen=True)
class EuclideanElement:
    """Rotation plus translation; composition is the semidirect product."""

    rotation: Rotation
    translation: Vec3

    def __post_init__(self):
        object.__setattr__(self, "translation", vec3(self.translation))

    @classmethod
    def identity(cls) -> "EuclideanElement":
        return cls(Rotation.identity(), (0, 0, 0))

    def compose(self, other: "EuclideanElement") -> "EuclideanElement":
        """self after other: (R2, r2)(R1, r1) = (R2 R1, R2 r1 + r2), R2 r1 = (M2 r1)/n2."""
        r2 = self.rotation
        return EuclideanElement(
            r2.compose(other.rotation),
            tuple(
                a / r2.denominator + b
                for a, b in zip(mat_vec(r2.numerator, other.translation), self.translation)
            ),
        )


def _adjoint_blocks(m, u, e) -> tuple:
    """(eM, UM), the columns of UM being u crossed with the columns of M.

    The one place the adjoint action is written: with R = M/n and t = u/e,
    (R, t) acts on (omega, v) by [[eM, 0], [UM, eM]] / (n e).  Ring-generic:
    `_scaled_adjoint` and the sampled oracle call it on ints, `_images` once
    per call on ints and Polynomials over the group variables alone.
    """
    em = tuple(tuple(e * x for x in row) for row in m)
    um = transpose([cross(u, column) for column in transpose(m)])
    return em, um


def _scaled_adjoint(g: EuclideanElement) -> tuple:
    """(A, d): the adjoint matrix of g is A/d, with A a 6x6 matrix of ints and d > 0.

    With t = u/e (u the integer numerators over the common denominator e),
    A = [[eM, 0], [UM, eM]] from `_adjoint_blocks` and d = n e.
    """
    u, e = _cleared(g.translation)
    em, um = _adjoint_blocks(g.rotation.numerator, u, e)
    zero = (0, 0, 0)
    a = tuple(row + zero for row in em) + tuple(x + y for x, y in zip(um, em))
    return a, g.rotation.denominator * e


def adjoint_matrix(g: EuclideanElement) -> tuple:
    """The 6x6 block matrix [[R, 0], [TR, R]] acting on (omega, v), as Fractions."""
    a, d = _scaled_adjoint(g)
    return tuple(tuple(Fraction(x, d) for x in row) for row in a)


def _act_scaled(a, d: int, t: Twist) -> Twist:
    """The twist (A/d) t, in ints: t = p/e, so each coordinate is (A p)_i/(d e)."""
    p, e = _cleared(t.omega + t.vee)
    de = d * e
    image = [Fraction(x, de) for x in mat_vec(a, p)]
    return Twist(image[:3], image[3:])


def transform_twist(g: EuclideanElement, t: Twist) -> Twist:
    """(omega, v) -> (R omega, t x (R omega) + R v), computed on `_scaled_adjoint(g)`."""
    return _act_scaled(*_scaled_adjoint(g), t)


def apply_adjoint(g: EuclideanElement, s: MultiScrew) -> MultiScrew:
    """Adjoint action applied componentwise to each twist, with one `_scaled_adjoint(g)`."""
    a, d = _scaled_adjoint(g)
    return MultiScrew(tuple(_act_scaled(a, d, t) for t in s))


class ActionKind(Enum):
    FULL_ADJOINT = "se3"
    ROTATION_SUB = "so3"
    TRANSLATION_SUB = "t3"


@dataclass(frozen=True)
class PullbackSystem:
    """Symbolic action components y_i = psi*(x_i) under an elimination order.

    For the translation sub-action the images are honest polynomials in
    t1..t3 and the screw coordinates.  For the rotation-bearing kinds the
    quaternion norm denominators are cleared, so each image is |q|^2 times
    the true one (`projective=True`); those systems are pinned by
    `tests/golden/pullback_{se3,so3}_*.txt` and refused as SAGBI seeds.
    """

    kind: ActionKind
    m: int
    varset: VariableSet
    order: TermOrder
    group_vars: tuple
    space_vars: tuple
    images: tuple
    projective: bool

    def image_map(self) -> dict[str, Polynomial]:
        return {name: img for name, img in zip(self.space_vars, self.images)}

    def seed_generators(self) -> GeneratorSet:
        """The images as a SAGBI seed; translation sub-action only."""
        if self.kind is not ActionKind.TRANSLATION_SUB:
            raise ValueError(
                f"{self.kind.value} pullback images are projective; unsupported as a SAGBI seed"
            )
        return GeneratorSet(self.images, self.order)


def pullback(kind: ActionKind, m: int) -> PullbackSystem:
    """Build the pullback system of the chosen action on m screws.

    The group variables, q0..q3 unless `kind` is the translation sub-action
    and t1..t3 unless it is the rotation sub-action, come first; `_images`
    reads the element off them.
    """
    kind = ActionKind(kind)
    space = screw_varset(m)
    group_vars = ()
    if kind is not ActionKind.TRANSLATION_SUB:
        group_vars += ("q0", "q1", "q2", "q3")
    if kind is not ActionKind.ROTATION_SUB:
        group_vars += ("t1", "t2", "t3")
    names = group_vars + space.names
    vs = VariableSet(names)
    images = _images(vs, m)
    return PullbackSystem(
        kind=kind,
        m=m,
        varset=vs,
        order=TermOrder(vs, names),
        group_vars=group_vars,
        space_vars=space.names,
        images=tuple(images[name] for name in space.names),
        projective=kind is not ActionKind.TRANSLATION_SUB,
    )


# Group parameter values at the identity, which `_images` gives a parameter `vs` lacks.
_IDENTITY = {"q0": 1, "q1": 0, "q2": 0, "q3": 0, "t1": 0, "t2": 0, "t3": 0}


def _images(vs: VariableSet, m: int) -> dict[str, Polynomial]:
    """Each screw coordinate's name -> its image over `vs` under (R, t), read
    off the group variables `vs` holds, which must lead it: R is the
    quaternion matrix over q0..q3 with its |q|^2 denominator cleared and t
    is (t1, t2, t3).  An image sum_k entry_k * x_k is the `terms_add` sum of
    the block entries' terms shifted past the screw fields, plus x_k's bit."""
    group = [name for name in vs.names if name in _IDENTITY]
    if list(vs.names[: len(group)]) != group:
        raise ValueError("the group variables must lead the variable set")
    gvs = VariableSet(group) if group else None
    q0, q1, q2, q3, t1, t2, t3 = (
        Polynomial.variable(gvs, name) if name in group else value for name, value in _IDENTITY.items()
    )
    em, um = _adjoint_blocks(_quaternion_matrix_raw(q0, q1, q2, q3), (t1, t2, t3), 1)
    shift, last = FIELD_BITS * (len(vs) - len(group)), len(vs) - 1
    rows = [row + (0, 0, 0) for row in em] + [x + y for x, y in zip(um, em)]  # [[eM, 0], [UM, eM]]
    images = {}
    for i in range(1, m + 1):
        names = [f"{stem}{i}{n}" for stem in "wv" for n in (1, 2, 3)]
        bits = [1 << FIELD_BITS * (last - vs.index(name)) for name in names]
        for name, row in zip(names, rows):
            lifted = ({(mono << shift) + bit: c for mono, c in ({0: x} if type(x) is int else x._num).items()}
                      for x, bit in zip(row, bits) if x)
            images[name] = Polynomial._raw(vs, reduce(terms_add, lifted, {}))
    return images


# The rotation axes whose one-parameter subgroups generate SO(3): e3 and e1.
ROTATION_AXES = ("q3", "q1")


def _families(kind: ActionKind, m: int):
    """Yield (varset, images, norm2) for each family of elements `kind` checks.

    First one rotation family per axis e_k in ROTATION_AXES: the images over
    (q0, q_k), with the cleared denominator norm2 = q0^2 + q_k^2.  Then the
    translations, `pullback(t3, m)`, with norm2 = 1.  Lazy: after a failed
    family nothing more is built.
    """
    space = screw_varset(m)
    if kind is not ActionKind.TRANSLATION_SUB:
        for axis in ROTATION_AXES:
            vs = VariableSet(("q0", axis) + space.names)
            q0, qk = Polynomial.variable(vs, "q0"), Polynomial.variable(vs, axis)
            yield vs, _images(vs, m), q0 * q0 + qk * qk
    if kind is not ActionKind.ROTATION_SUB:
        system = pullback(ActionKind.TRANSLATION_SUB, m)
        yield system.varset, system.image_map(), Polynomial.constant(system.varset, 1)


def _check_screw_input(f: Polynomial, m: int) -> None:
    """Raise ValueError unless `f` lives over the m-screw variable set."""
    if f.varset != screw_varset(m):
        raise ValueError(f"polynomial must live over the {m}-screw variable set")


def check_invariant_symbolic(f: Polynomial, kind: ActionKind, m: int) -> bool:
    """Exact symbolic invariance test of `f` under the chosen action.

    `so3` checks the two rotation families of `_families` (about e3 and e1,
    which generate SO(3)), `t3` the translations, and `se3` both, since
    every (R, t) = (I, t)(R, 0).  Per family, each homogeneous component of
    degree d must map to norm2^d times itself: an exact polynomial identity
    that, the action being linear, is invariance under the whole family.
    See the module docstring for why the families suffice.
    """
    kind = ActionKind(kind)
    _check_screw_input(f, m)
    components = f.degree_components()
    for vs, images, norm2 in _families(kind, m):
        for degree, component in components.items():
            if component.substitute(images) != norm2 ** degree * component.rename(vs):
                return False
    return True


@dataclass(frozen=True)
class Counterexample:
    quaternion: RationalQuaternion | None
    translation: Vec3
    screw: MultiScrew
    before: Fraction
    after: Fraction

    def element(self) -> EuclideanElement:
        return _element(self.quaternion, self.translation)


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of the probabilistic invariance check (exact per sample)."""

    ok: bool
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.ok


def _element(q: RationalQuaternion | None, t: Vec3) -> EuclideanElement:
    """The element (R(q), t); no quaternion means no rotation."""
    return EuclideanElement(Rotation.identity() if q is None else rotation_from_quaternion(q), t)


_BOX_100, _BOX_1000, _BOX_16 = (-100, 201, 8), (-1000, 2001, 11), (1, 16, 5)  # (low, width, k)


def _draw(rng: random.Random, boxes) -> list:
    """One value per (low, width, k) box, each what `rng.randint(low, low +
    width - 1)` gives on CPython 3.10-3.13, with `rng` left in the same state:
    k = width.bit_length() bits from `getrandbits`, redrawn until below width."""
    values = []
    for low, width, k in boxes:
        r = rng.getrandbits(k)
        while r >= width:
            r = rng.getrandbits(k)
        values.append(low + r)
    return values


def _sample_group(rng: random.Random, kind: ActionKind):
    """Random exact group element as ints (a, u), drawn by `_draw`: the
    quaternion a, None when `kind` draws no rotation, and the translation u."""
    a = None if kind is ActionKind.TRANSLATION_SUB else _draw(rng, (_BOX_100,) * 4)
    while a is not None and not any(a):
        a = _draw(rng, (_BOX_100,) * 4)
    u = (0, 0, 0) if kind is ActionKind.ROTATION_SUB else tuple(_draw(rng, (_BOX_1000,) * 3))
    return a, u


def _sample_screw(rng: random.Random, m: int) -> list:
    """Random screw coordinates a/b as 6m (a, b) draws, twist by twist, omega then v."""
    values = _draw(rng, (_BOX_100, _BOX_16) * (6 * m))
    return list(zip(values[::2], values[1::2]))


def check_invariant_sampled(
    f: Polynomial,
    kind: ActionKind,
    m: int,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> SampledCheck:
    """Decide f(g.s) == f(s) exactly at pseudo-random group elements and screws.

    Samples are derived deterministically from (seed, index), so results
    are order-independent and reproducible.  Each is decided in ints: g is
    an int quaternion a and translation u, its rotation M/n checked by the
    `Rotation` constructor, and the screw is P/e.  With (eM, UM) =
    `_adjoint_blocks(M, u, 1)`, each twist's image is (eM w, UM w + eM v)
    over d = n, so g.s is Q/(d e), and with `poly._plan_sum`'s N the values
    are equal exactly when N(P, e) * d^top == N(Q, d e).  Only a failure
    builds Fractions: it is rebuilt through `rotation_from_quaternion`,
    `evaluate` and `apply_adjoint`, must disagree there too, and is
    returned as the exact counterexample.

    Success is probabilistic evidence only.  Modelling the seeded draws as
    independent, each coordinate takes any one value with probability at
    most 1/200, so by the Schwartz-Zippel lemma a non-invariant f of degree
    d passes one sample with probability at most 4d/200 (2d/200 for t3,
    which draws no quaternion).
    """
    kind = ActionKind(kind)
    if type(n_samples) is not int or type(seed) is not int:  # a bool is not a count or a seed
        raise TypeError("n_samples and seed must be ints")
    if n_samples < 1:
        raise ValueError("need at least one sample")
    _check_screw_input(f, m)
    rows, _, top = f._plan()
    # variable index (w11..wm3, v11..vm3) -> its place in a sample's draws
    place = [6 * (i % (3 * m) // 3) + 3 * (i // (3 * m)) + i % 3 for i in range(6 * m)]
    rows = [(c, tuple((place[i], k) for i, k in exps), deg) for c, exps, deg in rows]
    for index in range(n_samples):
        rng = random.Random(seed * 1_000_003 + index)
        a, u = _sample_group(rng, kind)
        draws = _sample_screw(rng, m)
        e = math.lcm(*(b for _, b in draws))
        p = [x * (e // b) for x, b in draws]
        r = _IDENTITY_ROTATION if a is None else _int_rotation(a)
        (em, um), d = _adjoint_blocks(r.numerator, u, 1), r.denominator
        image = []
        for k in range(0, 6 * m, 6):
            w, v = p[k : k + 3], p[k + 3 : k + 6]
            image += (*[dot(x, w) for x in em], *[dot(x, w) + dot(y, v) for x, y in zip(um, em)])
        if _plan_sum(rows, top, p, e) * d**top != _plan_sum(rows, top, image, d * e):
            q, t = None if a is None else RationalQuaternion(*a), tuple(map(Fraction, u))
            c = [Fraction(x, b) for x, b in draws]
            s = MultiScrew(tuple(Twist(c[k : k + 3], c[k + 3 : k + 6]) for k in range(0, 6 * m, 6)))
            before = f.evaluate(s.coordinates())
            after = f.evaluate(apply_adjoint(_element(q, t), s).coordinates())
            if before == after:
                raise RuntimeError("the integer and Fraction evaluations of a sample disagree")
            return SampledCheck(False, Counterexample(q, t, s, before, after))
    return SampledCheck(True)


def translation_invariant_basis(m: int, degree_bound: int = DEFAULT_DEGREE_BOUND) -> SagbiResult:
    """Translation-invariant basis on m screws via pullback plus elimination.

    Runs the bounded SAGBI construction on the translation pullback images
    and keeps the generators free of group variables, re-indexed over the
    screw coordinates.  The completeness flag is inherited from the run.
    """
    system = pullback(ActionKind.TRANSLATION_SUB, m)
    result = sagbi_construct(system.seed_generators(), degree_bound=degree_bound)
    return eliminate(result, system.group_vars)


# ----------------------------------------------------------------------
# group element text, as a counterexample prints it: `q: a b c d; t: x y z`

def format_group_sample(q: RationalQuaternion | None, t: Vec3) -> str:
    qtext = "1 0 0 0" if q is None else " ".join(str(c) for c in q.components())
    ttext = " ".join(str(c) for c in vec3(t))
    return f"q: {qtext}; t: {ttext}"
