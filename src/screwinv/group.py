"""Exact rigid displacements and their adjoint action on multi-screws.

Rotations are 3x3 matrices of Fractions, validated orthogonal with
determinant 1 on construction; exact rotations are sampled by pushing
integer quaternions through the (rational) quaternion-to-matrix formula.
A displacement acts on a twist by the 6x6 block matrix [[R, 0], [TR, R]],
with T the skew matrix of the translation.

Invariance of a polynomial under the full action or either sub-action can
be checked two independent ways: symbolically (substituting the action
with symbolic group parameters and comparing polynomials exactly, clearing
quaternion norm denominators degree by degree) or by exact evaluation at
pseudo-random rational group elements and screws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .parsing import parse_rational
from .poly import Polynomial, TermOrder, VariableSet, _coerce
from .sagbi import (
    DEFAULT_DEGREE_BOUND,
    DEFAULT_MAX_ITERATIONS,
    GeneratorSet,
    SagbiResult,
    eliminate,
    sagbi_construct,
)
from .screw import MultiScrew, Twist, Vec3, cross, det, dot, screw_varset, symbolic_vector, vec3

Mat3 = tuple  # 3 rows of 3 Fractions

DEFAULT_SAMPLES = 32
DEFAULT_SEED = 0xC0FFEE


def _mat3(rows) -> Mat3:
    rows = tuple(vec3(row) for row in rows)
    if len(rows) != 3:
        raise ValueError("expected a 3x3 matrix")
    return rows


def mat_mul(a, b):
    """Matrix product of any compatible sizes; rows of `a` times columns of `b`."""
    columns = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in columns) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def transpose(a):
    return tuple(zip(*a))


def skew(v: Vec3) -> Mat3:
    x, y, z = v
    zero = Fraction(0)
    return ((zero, -z, y), (z, zero, -x), (-y, x, zero))


IDENTITY3: Mat3 = (
    (Fraction(1), Fraction(0), Fraction(0)),
    (Fraction(0), Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(0), Fraction(1)),
)


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

    def norm_squared(self) -> Fraction:
        return self.q0 ** 2 + self.q1 ** 2 + self.q2 ** 2 + self.q3 ** 2

    def components(self) -> tuple:
        return (self.q0, self.q1, self.q2, self.q3)


class Rotation:
    """Exactly orthogonal 3x3 matrix with determinant 1.

    Both conditions are asserted on construction, so a Rotation can never
    hold an inexact or reflecting matrix.
    """

    __slots__ = ("entries",)

    def __init__(self, entries):
        entries = _mat3(entries)
        if mat_mul(transpose(entries), entries) != IDENTITY3:
            raise ValueError("matrix is not exactly orthogonal")
        if det(entries) != 1:
            raise ValueError("matrix has determinant != 1")
        self.entries = entries

    def apply(self, v: Vec3) -> Vec3:
        return mat_vec(self.entries, v)

    def compose(self, other: "Rotation") -> "Rotation":
        out = object.__new__(Rotation)
        out.entries = mat_mul(self.entries, other.entries)
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Rotation) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"Rotation({[list(map(str, row)) for row in self.entries]})"

    @classmethod
    def identity(cls) -> "Rotation":
        out = object.__new__(cls)
        out.entries = IDENTITY3
        return out


def _quaternion_matrix_raw(q0, q1, q2, q3):
    """Unnormalized quaternion matrix; the true rotation is this over |q|^2."""
    return (
        (q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2 * (q1 * q2 - q0 * q3), 2 * (q1 * q3 + q0 * q2)),
        (2 * (q1 * q2 + q0 * q3), q0 * q0 - q1 * q1 + q2 * q2 - q3 * q3, 2 * (q2 * q3 - q0 * q1)),
        (2 * (q1 * q3 - q0 * q2), 2 * (q2 * q3 + q0 * q1), q0 * q0 - q1 * q1 - q2 * q2 + q3 * q3),
    )


def rotation_from_quaternion(q: RationalQuaternion) -> Rotation:
    """Exact rotation matrix of a (not necessarily unit) quaternion."""
    n2 = q.norm_squared()
    raw = _quaternion_matrix_raw(*q.components())
    return Rotation(tuple(tuple(e / n2 for e in row) for row in raw))


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
        """self after other: (R2, r2)(R1, r1) = (R2 R1, R2 r1 + r2)."""
        r = self.rotation.apply(other.translation)
        return EuclideanElement(
            self.rotation.compose(other.rotation),
            tuple(a + b for a, b in zip(r, self.translation)),
        )

    def __matmul__(self, other: "EuclideanElement") -> "EuclideanElement":
        return self.compose(other)


def adjoint_matrix(g: EuclideanElement) -> tuple:
    """The 6x6 block matrix [[R, 0], [TR, R]] acting on (omega, v)."""
    r = g.rotation.entries
    tr = mat_mul(skew(g.translation), r)
    zero = Fraction(0)
    rows = []
    for i in range(3):
        rows.append(tuple(r[i]) + (zero, zero, zero))
    for i in range(3):
        rows.append(tuple(tr[i]) + tuple(r[i]))
    return tuple(rows)


def transform_twist(g: EuclideanElement, t: Twist) -> Twist:
    """(omega, v) -> (R omega, r x (R omega) + R v)."""
    rw = g.rotation.apply(t.omega)
    rv = g.rotation.apply(t.vee)
    tv = cross(g.translation, rw)
    return Twist(rw, tuple(a + b for a, b in zip(tv, rv)))


def apply_adjoint(g: EuclideanElement, s: MultiScrew) -> MultiScrew:
    """Adjoint action applied componentwise to each twist."""
    return MultiScrew(tuple(transform_twist(g, t) for t in s))


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
    the true one (`projective=True`); those systems feed the symbolic
    invariance check but are rejected as SAGBI seeds.
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

    def identity_values(self) -> dict[str, Fraction]:
        values = {}
        for name in self.group_vars:
            values[name] = Fraction(1) if name == "q0" else Fraction(0)
        return values

    def seed_generators(self) -> GeneratorSet:
        """The images as a SAGBI seed; translation sub-action only."""
        if self.kind is not ActionKind.TRANSLATION_SUB:
            raise ValueError(
                f"{self.kind.value} pullback images are projective; unsupported as a SAGBI seed"
            )
        return GeneratorSet(self.images, self.order)


def pullback(kind: ActionKind, m: int) -> PullbackSystem:
    """Build the pullback system of the chosen action on m screws.

    Every kind uses the one adjoint formula: omega_i maps to R omega_i and
    v_i to t x (R omega_i) + R v_i.  R is the quaternion matrix with its
    |q|^2 denominator cleared, or the identity for the translation
    sub-action; t is (t1, t2, t3), or zero for the rotation sub-action.
    """
    if m < 1:
        raise ValueError("need at least one screw")
    space = screw_varset(m)
    group_vars = ()
    if kind is not ActionKind.TRANSLATION_SUB:
        group_vars += ("q0", "q1", "q2", "q3")
    if kind is not ActionKind.ROTATION_SUB:
        group_vars += ("t1", "t2", "t3")
    names = group_vars + space.names
    vs = VariableSet(names)
    order = TermOrder(vs, names)

    if "q0" in vs:
        r = _quaternion_matrix_raw(Polynomial.variable(vs, "q0"), *symbolic_vector(vs, "q"))
    else:
        r = IDENTITY3
    t = symbolic_vector(vs, "t") if "t1" in vs else (0, 0, 0)
    omega_images = []
    vee_images = []
    for i in range(1, m + 1):
        rw = mat_vec(r, symbolic_vector(vs, f"w{i}"))
        rv = mat_vec(r, symbolic_vector(vs, f"v{i}"))
        omega_images.extend(rw)
        vee_images.extend(a + b for a, b in zip(cross(t, rw), rv))
    return PullbackSystem(
        kind=kind,
        m=m,
        varset=vs,
        order=order,
        group_vars=group_vars,
        space_vars=space.names,
        images=tuple(omega_images + vee_images),
        projective=kind is not ActionKind.TRANSLATION_SUB,
    )


def check_invariant_symbolic(f: Polynomial, kind: ActionKind, m: int) -> bool:
    """Exact symbolic invariance test of `f` under the chosen action.

    Substitutes the action with symbolic group parameters and compares
    polynomials.  For rotation-bearing kinds the substituted images carry a
    cleared |q|^2 denominator each, so each homogeneous component of degree
    d in the screw coordinates is compared against |q|^(2d) times itself;
    since the action is linear this per-degree test is exactly equivalent
    to invariance.
    """
    space = screw_varset(m)
    if f.varset != space:
        raise ValueError(f"polynomial must live over the {m}-screw variable set")
    system = pullback(kind, m)
    images = system.image_map()
    if kind is ActionKind.TRANSLATION_SUB:
        return f.substitute(images) == f.rename(system.varset)
    vs = system.varset
    q0, q = Polynomial.variable(vs, "q0"), symbolic_vector(vs, "q")
    norm2 = q0 * q0 + dot(q, q)
    for degree, component in f.degree_components().items():
        lhs = component.substitute(images)
        rhs = norm2 ** degree * component.rename(vs)
        if lhs != rhs:
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
        rot = (
            Rotation.identity()
            if self.quaternion is None
            else rotation_from_quaternion(self.quaternion)
        )
        return EuclideanElement(rot, self.translation)


@dataclass(frozen=True)
class SampledCheck:
    """Outcome of the probabilistic invariance check (exact per sample)."""

    ok: bool
    counterexample: Counterexample | None = None

    def __bool__(self) -> bool:
        return self.ok


def _sample_group(rng: random.Random, kind: ActionKind):
    """Random exact group element: integer quaternion and translation boxes."""
    if kind is ActionKind.TRANSLATION_SUB:
        q = None
    else:
        while True:
            comps = [rng.randint(-100, 100) for _ in range(4)]
            if any(comps):
                break
        q = RationalQuaternion(*comps)
    if kind is ActionKind.ROTATION_SUB:
        t = (Fraction(0), Fraction(0), Fraction(0))
    else:
        t = tuple(Fraction(rng.randint(-1000, 1000)) for _ in range(3))
    rot = Rotation.identity() if q is None else rotation_from_quaternion(q)
    return q, t, EuclideanElement(rot, t)


def _sample_screw(rng: random.Random, m: int) -> MultiScrew:
    twists = []
    for _ in range(m):
        coords = [Fraction(rng.randint(-100, 100), rng.randint(1, 16)) for _ in range(6)]
        twists.append(Twist(coords[:3], coords[3:]))
    return MultiScrew(tuple(twists))


def check_invariant_sampled(
    f: Polynomial,
    kind: ActionKind,
    m: int,
    n_samples: int = DEFAULT_SAMPLES,
    seed: int = DEFAULT_SEED,
) -> SampledCheck:
    """Evaluate f(g.s) == f(s) exactly at pseudo-random group elements.

    Samples are derived deterministically from (seed, index), so results
    are order-independent and reproducible.  A failure returns the exact
    counterexample; success is probabilistic evidence only (though false
    positives at these degrees would need astonishing luck).
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    space = screw_varset(m)
    if f.varset != space:
        raise ValueError(f"polynomial must live over the {m}-screw variable set")
    for index in range(n_samples):
        rng = random.Random(seed * 1_000_003 + index)
        q, t, g = _sample_group(rng, kind)
        s = _sample_screw(rng, m)
        before = f.evaluate(s.coordinates())
        after = f.evaluate(apply_adjoint(g, s).coordinates())
        if before != after:
            return SampledCheck(False, Counterexample(q, t, s, before, after))
    return SampledCheck(True)


def translation_invariant_basis(
    m: int,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SagbiResult:
    """Translation-invariant basis on m screws via pullback plus elimination.

    Runs the bounded SAGBI construction on the translation pullback images
    and keeps the generators free of group variables, re-indexed over the
    screw coordinates.  The completeness flag is inherited from the run.
    """
    system = pullback(ActionKind.TRANSLATION_SUB, m)
    result = sagbi_construct(
        system.seed_generators(), degree_bound=degree_bound, max_iterations=max_iterations
    )
    return eliminate(result, system.group_vars)


# ----------------------------------------------------------------------
# group element text format: `q: a b c d; t: x y z`

def format_group_sample(q: RationalQuaternion | None, t: Vec3) -> str:
    qtext = "1 0 0 0" if q is None else " ".join(str(c) for c in q.components())
    ttext = " ".join(str(c) for c in vec3(t))
    return f"q: {qtext}; t: {ttext}"


def parse_group_element(text: str) -> EuclideanElement:
    parts = text.split(";")
    if len(parts) != 2:
        raise ValueError("expected `q: a b c d; t: x y z`")
    qpart, tpart = parts[0].strip(), parts[1].strip()
    if not qpart.startswith("q:") or not tpart.startswith("t:"):
        raise ValueError("expected `q: a b c d; t: x y z`")
    qvals = [parse_rational(x) for x in qpart[2:].split()]
    tvals = [parse_rational(x) for x in tpart[2:].split()]
    if len(qvals) != 4 or len(tvals) != 3:
        raise ValueError("expected four quaternion and three translation components")
    return EuclideanElement(rotation_from_quaternion(RationalQuaternion(*qvals)), tuple(tvals))
