"""Subduction and degree-bounded SAGBI-basis construction.

A SAGBI basis of a subalgebra is a generating set whose leading monomials
multiplicatively generate every leading monomial of the subalgebra.
Subduction is the subalgebra analogue of the division algorithm: while the
leading monomial of the input factors as a product of generator leading
monomials, the matching scaled product of generators is subtracted.  The
analogue of an S-polynomial is a tete-a-tete: two generator power products
whose leading monomials agree; their difference either subducts to zero or
delivers a new generator.

Because the completion procedure need not terminate, construction here is
explicitly bounded (tete-a-tete degree bound plus a pass limit) and the
result carries a `complete` flag instead of promising a basis.
"""

from __future__ import annotations

import math
from bisect import insort
from collections import Counter
from dataclasses import dataclass, replace
from functools import reduce
from itertools import accumulate
from operator import neg
from typing import IO, Iterable, Mapping, Sequence

from ._kernel import FIELD_BITS, MAX_EXPONENT, terms_add_into
from .parsing import format_poly, parse
from .poly import Monomial, Polynomial, TermOrder, VariableSet, _Immutable, _TermsView, _value


class GeneratorSet(_Immutable):
    """Monic generators with pairwise distinct leading monomials.

    Generators are normalized monic on insertion.  If a candidate's leading
    monomial collides with an existing generator's, the existing one is
    subtracted (which preserves the generated algebra) and the reduced
    candidate is re-inserted; an exact duplicate melts away to zero and is
    dropped.

    A power product of generators is always a tuple of ``(index, exponent)``
    pairs in ascending index, every exponent at least 1.  A set holds its
    leading monomials in index order, the divisor index `_ranked` that
    `_factor_monomial` reads (``(index, lm, fields)`` triples, largest
    ``order.key`` first, `fields` the ``(shift, exponent)`` pairs of `lm`'s
    nonzero fields, lowest field first), generator powers keyed by (index,
    exponent), and factorizations keyed by target monomial.  `with_added`
    copies the first three and inserts only the new generators, so the old
    ones keep their indices and cached powers; it starts the factorizations
    afresh: a new generator can make a target factor or change the one
    found.
    """

    __slots__ = ("gens", "order", "_lms", "_ranked", "_powers", "_factors")

    def __init__(self, gens: Iterable[Polynomial], order: TermOrder):
        self._fill(order, [], [], [], gens, {})

    def _fill(self, order: TermOrder, store: list, lms: list, ranked: list, gens: Iterable, powers: dict) -> None:
        object.__setattr__(self, "order", order)
        for g in gens:
            self._insert(g, store, lms, ranked)
        object.__setattr__(self, "gens", tuple(store))
        object.__setattr__(self, "_lms", tuple(lms))
        object.__setattr__(self, "_ranked", tuple(ranked))
        object.__setattr__(self, "_powers", powers)
        object.__setattr__(self, "_factors", {})

    def _insert(self, g: Polynomial, store: list, lms: list, ranked: list) -> None:
        if g.varset != self.order.varset:
            raise ValueError("generator over the wrong variable set")
        first = True
        while not g.is_zero():
            lm, _ = g.leading_term(self.order)
            if lm == 0:
                if first:
                    raise ValueError("constant generators are not allowed")
                return  # merge residue in the ground field; adds nothing
            g = g.monic(self.order)
            if lm not in lms:
                fields = tuple((FIELD_BITS * k, e) for k, e in enumerate(reversed(self.order.varset.unpack(lm))) if e)
                insort(ranked, (len(lms), lm, fields), key=lambda entry: -self.order.key(entry[1]))
                store.append(g)
                lms.append(lm)
                return
            g = g - store[lms.index(lm)]
            first = False

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return self._lms

    def with_added(self, *new_gens: Polynomial) -> "GeneratorSet":
        grown = object.__new__(GeneratorSet)
        grown._fill(self.order, list(self.gens), list(self._lms), list(self._ranked), new_gens, dict(self._powers))
        return grown

    def power_product(self, exps: Iterable[tuple[int, int]]) -> Polynomial:
        """The product of the powers ``g_i ** e`` over the ``(i, e)`` pairs
        `exps`, multiplied in the order given.  Each power is cached under
        ``(i, e)`` for the set; whole products, far more numerous, are not
        (`subduct` can memoize its own)."""
        result = None
        gens, powers = self.gens, self._powers
        for i, e in exps:
            power = powers.get((i, e))
            if power is None:
                power = powers[i, e] = gens[i] ** e
            result = power if result is None else result * power
        return Polynomial.constant(self.order.varset, 1) if result is None else result

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __repr__(self) -> str:
        return f"GeneratorSet({len(self.gens)} generators, {self.order!r})"

    def __reduce__(self):
        return GeneratorSet, (self.gens, self.order)


@dataclass(frozen=True)
class Certificate:
    """Subducted part written as a sum of scaled generator power products.

    `terms`, a read-only mapping, maps a generator power product, as
    ``(index, exponent)`` pairs, to its scalar coefficient; evaluating
    against the basis reconstructs input - remainder exactly.
    """

    terms: Mapping
    basis: GeneratorSet

    def evaluate(self) -> Polynomial:
        total = Polynomial.zero(self.basis.order.varset)
        for exps, coeff in self.terms.items():
            total = total + self.basis.power_product(exps).scale(coeff)
        return total

    def __len__(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class SubductionResult:
    """`targets` holds the leading monomial each step factored, in step
    order, so strictly descending under the term order."""

    remainder: Polynomial
    certificate: Certificate
    targets: tuple[Monomial, ...]


def _factor_monomial(target: Monomial, basis: GeneratorSet):
    """Write `target` as a product of the leading monomials of `basis`.

    Returns the exponents as ``(index, exponent)`` pairs in ascending index,
    or None when no exact factorization exists.  Complete depth-first search
    over the generators whose leading monomial divides `target` (no other
    can take part), largest leading monomial under the order first, so the
    answer is deterministic.  On packed monomials, `lm` divides `target`
    exactly when ``target - lm`` has no guard bit set: a field of `lm`
    above `target`'s borrows into its own guard bit.

    The candidates come ranked off the set's divisor index, and each level
    tries e from the largest with ``e * lm`` dividing what is left (0 unless
    `lm` divides it, else the least quotient of a field by `lm`'s) down to 0.
    A level fails at once when what is left uses a variable that no open
    candidate uses; ``+ fill`` (2^31 - 1 per field) flags the nonzero fields.
    A candidate that uses a variable no smaller candidate uses can only
    succeed with the largest e, so its level stops when that try fails.
    """
    guard = basis.order.varset.guard
    fill = guard - (guard >> (FIELD_BITS - 1))
    union = 0  # steps: smallest candidate first, each with the fields it or a smaller one flags
    steps = [(i, lm, fields, union := union | (lm + fill))
             for i, lm, fields in reversed(basis._ranked) if not (target - lm) & guard]
    result = {}  # candidate index -> the exponent being tried

    def rec(left: int, remaining: Monomial) -> bool:  # over steps[:left], largest first
        if not remaining:
            return True
        if not left:
            return False
        i, lm, fields, covered = steps[left - 1]
        if (remaining + fill) & ~covered & guard:
            return False
        emax = 0 if (remaining - lm) & guard else min([(remaining >> s & MAX_EXPONENT) // e for s, e in fields])
        result[i] = emax
        if rec(left - 1, remaining - emax * lm):
            return True
        if not (lm + fill) & ~(steps[left - 2][3] if left > 1 else 0) & guard:
            for e in range(emax - 1, -1, -1):
                result[i] = e
                if rec(left - 1, remaining - e * lm):
                    return True
        result[i] = 0
        return False

    return tuple(sorted((i, e) for i, e in result.items() if e)) if rec(len(steps), target) else None


def subduct(f: Polynomial, basis: GeneratorSet, *, products: dict | None = None) -> SubductionResult:
    """Subduct `f` against `basis`.

    Repeatedly cancels the leading term by a scaled product of generator
    powers while it factors over the generator leading monomials.  The
    leading monomial strictly decreases at every step, so the loop
    terminates; the remainder's leading monomial (if any) admits no such
    factorization.  Exactness contract: f == remainder + certificate.

    The running remainder is one int term map `num` over one `den`, and
    each step subtracts its scaled power product from `num` in place, so a
    step costs the product's terms, not a copy of the remainder (Monagan &
    Pearce, CASC 2007).  A product over a den k != 1 first scales `num`
    and `den` by k, then the common factor is divided out, so the
    numbers stay as small as a fresh polynomial's.  `f` is not changed.

    `products`, a dict the caller owns and scopes, memoizes step products
    across calls: target -> (factorization, product).  An entry is used
    only when its factorization is the very tuple this set's factorization
    memo holds for the target (another set may factor it otherwise); any
    other is rebuilt and replaced, so one dict may serve several sets.
    """
    order = basis.order
    if f.varset != order.varset:
        raise ValueError("polynomial over the wrong variable set")
    factors = basis._factors
    cert_terms: dict = {}
    targets: list[Monomial] = []
    num, den = dict(f._num), f.den
    prev_key = None
    while num:
        lt_mono = order.largest(num)
        key = order.key(lt_mono)
        if prev_key is not None and not key < prev_key:
            unpack = order.varset.unpack  # the key's exponents, in priority order
            raise RuntimeError(
                "subduction must strictly descend: "
                f"leading key {unpack(key)} after {unpack(prev_key)}"
            )
        prev_key = key
        if lt_mono in factors:
            exps = factors[lt_mono]
        else:
            exps = factors[lt_mono] = _factor_monomial(lt_mono, basis)
        if exps is None:
            break
        targets.append(lt_mono)
        c = num[lt_mono]
        cert_terms[exps] = _value(c, den)
        # num/den - (c/den) * p: both over den * p.den, then num -= c * p's map
        if products is None:
            product = basis.power_product(exps)
        elif (entry := products.get(lt_mono, (None, None)))[0] is exps:
            product = entry[1]
        else:
            products[lt_mono] = exps, (product := basis.power_product(exps))
        k = product.den
        if k != 1:
            for e in num:
                num[e] *= k
            den *= k
        terms_add_into(num, product._num, -c)
        if k != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                for e in num:
                    num[e] //= g
                den //= g
    remainder = Polynomial._raw(order.varset, num, den)
    return SubductionResult(remainder, Certificate(_TermsView(cert_terms, "certificate"), basis), tuple(targets))


def _side_key(path: tuple) -> tuple:
    """Orders index paths as their exponent vectors do: where two differ first, the smaller
    index is the larger vector's (one more factor of it), and a proper prefix is smaller."""
    return tuple(map(neg, path))


@dataclass(frozen=True, slots=True)
class TeteATete:
    """Two disjoint generator power products with equal leading monomials,
    kept as ascending index paths (an index once per factor), as only
    `tete_a_tetes` builds them; `a` and `b`, their ``(index, exponent)``
    pairs, are built on access.  Equality and hashing compare the paths,
    which is comparing `a` and `b`, since the paths are ascending."""

    path_a: tuple
    path_b: tuple

    a = property(lambda self: tuple(Counter(self.path_a).items()))
    b = property(lambda self: tuple(Counter(self.path_b).items()))


class _Enumeration:
    """What `tete_a_tetes` leaves for its next call on a grown basis.

    The term order, degree bound and leading monomials it covered; every
    index path within the bound, bucketed by its product's exponents in
    ``degree_bound.bit_length()``-bit fields, a bucket holding one path
    bare and more in a list; those keys listed by remaining degree; and the
    minimal pairs by bucket, keyed by its product's order key, as ``[pair,
    record]``: the `TeteATete` built when found and `sagbi_construct`'s
    replay record (None when new), sorted by `_side_key` of the paths.  An
    empty one (no leading monomials yet) makes the next call start afresh.
    """

    __slots__ = ("order", "degree_bound", "lms", "buckets", "levels", "groups")

    def __init__(self):
        self.order = None
        self.degree_bound = None
        self.lms: tuple[Monomial, ...] = ()
        self.buckets: dict[int, tuple | list[tuple]] = {}
        self.levels: dict[int, list[int]] = {}
        self.groups: dict[int, list[list]] = {}


def tete_a_tetes(
    basis: GeneratorSet, degree_bound: int, carried: _Enumeration | None = None
) -> list[TeteATete]:
    """All minimal tete-a-tetes with product degree at most `degree_bound`.

    Enumerates every generator power product whose leading-monomial product
    has total degree within the bound, buckets its index path by that
    product, and pairs up the paths with disjoint support within each
    bucket of two or more.  The products are found by an extension search:
    each product is extended only by generators of index at least its last
    one whose degree fits the remaining bound, so every product is visited
    exactly once (and one that none fits is not pushed).  The search keeps
    its own stack, so a large bound is limited by time, not by the
    interpreter's recursion limit.  No product exponent exceeds the bound,
    so the bucket keys pack them in ``degree_bound.bit_length()``-bit
    fields, and the product monomial, which a bound below 2^31 keeps from
    overflowing, is summed only for the pairs found.

    A disjoint pair ``(a, b)`` is minimal exactly when no leading monomial
    of a product ``x`` with ``0 < x < a`` equals one of a ``y`` with
    ``0 < y < b``.  A shared one, ``LM(x) = LM(y)``, makes ``(x, y)`` and
    ``(a - x, b - y)`` two smaller relations that sum to ``(a, b)``, both
    within the bound and disjoint; conversely, a smaller relation
    ``(x, y)`` with ``0 < x < a`` and ``y <= b`` has
    ``LM(y) = LM(x) != LM(b)`` (no generator is constant), so ``y < b``.
    The result is sorted by product monomial, then by relation.

    `carried` is the enumeration a previous call left, for a basis whose
    leading monomials are a prefix of this one's (as `with_added` keeps
    them), under the same order and bound; the call extends it in place to
    this basis.  Only paths whose last index is a new generator are added,
    grown from the empty path and from the old paths whose remaining
    degree fits the smallest new generator, and minimality is tested only
    for pairs with a new path, in the buckets it joins, whose groups alone
    are sorted again.  An old pair keeps its minimality, and is returned as
    the same object: the test above reads only the leading monomials of its
    own generators, which are unchanged.  The result equals a from-scratch
    enumeration.  Carried state that does not match the basis raises
    ValueError; with nothing carried (None or a fresh `_Enumeration`) the
    call starts from scratch.

    Memory grows with the index paths, kept whole: as the square of the
    bound for a degree-1 generator ({x}: 9 MiB peak at bound 1,500, 36 MiB
    at 3,000, by `tracemalloc`).  The library sets no cap, since the cost is
    that of the products the caller asks for, as with ``g ** n``; the CLI,
    which takes the bound from outside input, caps it at 16.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be at least 1")
    if degree_bound >= 2**31:
        raise ValueError("degree bound must be below 2^31")
    state = _Enumeration() if carried is None else carried
    order = basis.order
    lms = basis.leading_monomials()
    known = len(state.lms)
    if known:
        if state.order != order or state.degree_bound != degree_bound:
            raise ValueError("carried tete-a-tetes were enumerated under another term order or degree bound")
        if lms[:known] != state.lms:
            raise ValueError("carried tete-a-tetes are over leading monomials that do not begin this basis")
    ngens = len(lms)
    exps = list(map(order.varset.unpack, lms))
    degs = list(map(sum, exps))
    width = degree_bound.bit_length()  # no product exponent exceeds the bound
    narrow = [reduce(lambda n, e: n << width | e, es, 0) if d <= degree_bound else None for es, d in zip(exps, degs)]
    least = list(accumulate(reversed(degs), min, initial=degree_bound + 1))[::-1]  # least[i] = min(degs[i:])
    buckets, levels = state.buckets, state.levels
    touched = []  # (product, index of its first new path) per bucket of two or more paths, one of them new

    if known < ngens:
        # (product, its paths, how many of them are old, remaining degree);
        # the empty path first, then the old products the new generators fit
        starts = [(0, [()], 1, degree_bound)]
        for left in range(least[known], degree_bound):
            for p in levels.get(left, ()):
                paths = buckets[p] if buckets[p].__class__ is list else [buckets[p]]
                starts.append((p, paths, len(paths), left))
        for start, paths, count, left in starts:
            stack = [(known, path, start, left) for path in paths[:count]]
            while stack:
                last, path, mono, remaining = stack.pop()
                for i in range(last, ngens):
                    if (rest := remaining - degs[i]) < 0:
                        continue
                    longer = path + (i,)
                    product = mono + narrow[i]
                    bucket = buckets.get(product)
                    if bucket is None:
                        buckets[product] = longer
                        levels.setdefault(rest, []).append(product)
                    elif bucket.__class__ is tuple:
                        buckets[product] = [bucket, longer]
                        touched.append((product, 1))
                    else:
                        if bucket[-1][-1] < known:  # its first new path
                            touched.append((product, len(bucket)))
                        bucket.append(longer)
                    if rest >= least[i]:  # some generator still fits
                        stack.append((i, longer, product, rest))

    def proper_lms(path: tuple, product: int) -> set:
        """The (narrow) leading monomials of the products strictly inside `path`."""
        sums = {0}
        for i in path:
            lm = narrow[i]
            sums |= {s + lm for s in sums}
        sums -= {0, product}
        return sums

    key, groups = order.key, state.groups
    for product, first in touched:
        paths = buckets[product]
        inner: list = [None] * len(paths)  # each path's proper_lms, on first need
        found = []
        for j in range(first, len(paths)):
            b = paths[j]
            support = set(b)  # its generators
            for i in range(j):
                if not support.isdisjoint(paths[i]):
                    continue  # common factor; the reduced pair has its own bucket
                if inner[i] is None:
                    inner[i] = proper_lms(paths[i], product)
                if inner[j] is None:
                    inner[j] = proper_lms(b, product)
                if inner[i].isdisjoint(inner[j]):
                    found.append([TeteATete(*sorted((paths[i], b), key=_side_key)), None])
        if found:
            group = groups.setdefault(key(sum(map(lms.__getitem__, paths[0]))), [])
            group += found
            group.sort(key=lambda entry: (_side_key(entry[0].path_a), _side_key(entry[0].path_b)))
    state.order, state.degree_bound, state.lms = order, degree_bound, lms
    return [pair for k in sorted(groups) for pair, _ in groups[k]]


@dataclass(frozen=True)
class SagbiResult:
    """Outcome of a bounded construction run.

    `complete` is True only when the final pass found every tete-a-tete
    within the degree bound subducting to zero; otherwise the basis is a
    partial answer and membership tests against it are one-sided.
    """

    basis: GeneratorSet
    complete: bool
    degree_bound: int
    iterations: int


DEFAULT_DEGREE_BOUND = 4
DEFAULT_MAX_ITERATIONS = 16


def _divides_any(lms: Iterable[Monomial], targets: Sequence[Monomial], guard: int) -> bool:
    return any(not (t - lm) & guard for lm in lms for t in targets)


def sagbi_construct(
    seed: GeneratorSet,
    degree_bound: int = DEFAULT_DEGREE_BOUND,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> SagbiResult:
    """Buchberger-style completion: subduct tete-a-tetes, insert remainders.

    Each pass enumerates the tete-a-tetes of the current basis within
    `degree_bound`, subducts every difference against a fixed snapshot, and
    inserts the monic nonzero remainders in increasing leading-monomial
    order (re-subducting each against the partially extended basis, so ties
    resolve deterministically).  Stops when a pass adds nothing (complete)
    or when a bound is exhausted (incomplete, never an error).  `complete`
    means that every tete-a-tete within the bound subducts to zero against
    the final basis.

    A pair of the last pass is replayed, not subducted, when its record
    proves that subduction would take the same steps and reach zero.  The
    record holds the steps' targets (the leading monomials they factored)
    and the basis length at which the steps reached zero.  Replay is exact:

    - `with_added` keeps the old generators, unchanged, at the same indices;
    - a step's factorization depends only on the generators whose leading
      monomial divides its target;
    - so when no generator added since divides a target, every step
      subtracts the same power product and the remainder is again zero.

    A zero remainder is recorded at once.  A nonzero remainder `r` is
    recorded at its re-subduction `rr` in the insert phase, with the targets
    of both and the basis length before `rr` can become a generator `g`,
    when no generator inserted earlier in the phase divides `r`'s targets.
    So the next pass tests `LM(g)` against the targets with every other
    generator added since.  The last step, on `LM(rr) = LM(g)`, needs no
    record: `LM(g)` is its largest divisor, so it factors as `g` alone in
    every later basis and leaves zero.

    The enumeration is carried too: each pass hands `tete_a_tetes` what the
    last pass's call left, and the call adds only the products through a
    generator added since.  A pass walks the carried groups in product
    order, each record beside its pair in the group's entry.  The carried
    enumeration is local to the call and freed when it returns.

    Step products are memoized in bounded scopes (`subduct`'s `products`):
    one dict per group (product monomial) in the pair phase, since pairs of
    a bucket often meet the same targets, and one per generator set in the
    insert phase, fresh at every `with_added`, since a product follows the
    factorization of one set and another set's would only be rebuilt.
    """
    if len(seed) == 0:
        raise ValueError("seed generator set is empty")
    if degree_bound < 1 or max_iterations < 1:
        raise ValueError("bounds must be at least 1")
    order, basis = seed.order, seed
    guard = order.varset.guard
    enumeration = _Enumeration()  # the pairs and their records, carried across passes
    for iterations in range(1, max_iterations + 1):
        lms = basis.leading_monomials()
        # bound before enumerating, so that the last pass's remainders are freed
        pending = []  # (remainder, pair entry, targets)
        tete_a_tetes(basis, degree_bound, enumeration)
        for _, group in sorted(enumeration.groups.items()):
            products = {}  # the step products of one bucket
            for entry in group:
                pair, record = entry
                if record is not None and not _divides_any(lms[record[1]:], record[0], guard):
                    continue
                res = subduct(basis.power_product(pair.a) - basis.power_product(pair.b), basis, products=products)
                entry[1] = None if res.remainder else (res.targets, len(basis))
                if res.remainder:
                    pending.append((res.remainder, entry, res.targets))
        pending.sort(key=lambda item: order.key(item[0].leading_monomial(order)))
        current, products = basis, {}  # the step products of one generator set
        for r, entry, targets in pending:
            replayable = not _divides_any(current.leading_monomials()[len(basis):], targets, guard)
            res = subduct(r, current, products=products)
            if replayable:
                entry[1] = (targets + res.targets, len(current))
            if not res.remainder.is_zero():
                current, products = current.with_added(res.remainder.monic(order)), {}
        if current is basis:
            return SagbiResult(basis, True, degree_bound, iterations)
        basis = current
    return SagbiResult(basis, False, degree_bound, max_iterations)


def eliminate(result: SagbiResult, block: Sequence[str]) -> SagbiResult:
    """Intersect a constructed basis with the subring avoiding `block`.

    `block` must be a leading prefix of the order's priority list (so the
    order is an elimination order for it).  Keeps exactly the generators
    free of block variables, re-indexed over the remaining variables with
    the induced lex order; on a complete run this is a basis of the
    intersection subalgebra.
    """
    order = result.basis.order
    if not order.eliminates(block):
        raise ValueError("block is not a leading prefix of the term order priority")
    remaining = order.priority[len(block):]
    if not remaining:
        raise ValueError("elimination would remove every variable")
    new_vs = VariableSet(remaining)
    new_order = TermOrder(new_vs, remaining)
    blocked = set(block)
    kept = [
        g.rename(new_vs)
        for g in result.basis
        if not any(name in blocked for name in g.used_variables())
    ]
    return replace(result, basis=GeneratorSet(kept, new_order))


@dataclass(frozen=True)
class MembershipResult:
    """Subduction-based membership answer.

    `member` is True iff the remainder vanished (with `certificate` as the
    witness).  A False answer is `definitive` only when the basis was
    constructed to completion; below an exhausted bound it merely means
    "not provably a member".
    """

    member: bool
    certificate: Certificate | None
    definitive: bool

    def __bool__(self) -> bool:
        return self.member


def is_member(f: Polynomial, result: SagbiResult) -> MembershipResult:
    """Test membership of `f` in the subalgebra spanned by `result.basis`."""
    res = subduct(f, result.basis)
    member = res.remainder.is_zero()
    return MembershipResult(
        member=member,
        certificate=res.certificate if member else None,
        definitive=member or result.complete,
    )


# ----------------------------------------------------------------------
# basis file format: `order: lex v1 v2 ...` header, one polynomial per line

def write_basis_file(
    stream: IO[str],
    basis: GeneratorSet,
    complete: bool | None = None,
    degree_bound: int | None = None,
    iterations: int | None = None,
) -> None:
    stream.write(f"order: lex {' '.join(basis.order.priority)}\n")
    if complete is not None:
        stream.write(f"complete: {'true' if complete else 'false'}\n")
    if degree_bound is not None:
        stream.write(f"degree_bound: {degree_bound}\n")
    if iterations is not None:
        stream.write(f"iterations: {iterations}\n")
    for g in basis.gens:
        stream.write(format_poly(g, basis.order) + "\n")


def read_basis_file(stream: IO[str]) -> tuple[GeneratorSet, dict]:
    """Parse a basis file; returns the generator set and header metadata."""
    order = None
    meta: dict = {}
    gens: list[Polynomial] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if order is None:
            if not line.startswith("order:"):
                raise ValueError(f"line {lineno}: expected an `order: lex ...` header first")
            fields = line[len("order:"):].split()
            if not fields or fields[0] != "lex":
                raise ValueError(f"line {lineno}: only `lex` orders are supported")
            names = fields[1:]
            try:
                order = TermOrder(VariableSet(names), names)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
            continue
        if line.startswith("complete:"):
            value = line.split(":", 1)[1].strip().lower()
            if value not in ("true", "false"):
                raise ValueError(f"line {lineno}: complete must be true or false")
            meta["complete"] = value == "true"
            continue
        if line.startswith(("degree_bound:", "iterations:")):
            key, _, value = line.partition(":")
            try:
                meta[key] = int(value.strip())
            except ValueError:
                raise ValueError(f"line {lineno}: {key} must be an integer") from None
            continue
        try:
            gens.append(parse(line, order.varset))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    if order is None:
        raise ValueError("basis file has no `order:` header")
    return GeneratorSet(gens, order), meta
