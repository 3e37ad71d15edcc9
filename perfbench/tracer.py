"""Per-layer spans and counts, recorded by wrapping screwinv's public functions.

The library is not changed.  `Tracer.install` replaces every module and
class binding of each layer function with a timing wrapper, and
`Tracer.uninstall` puts the original objects back, so a run without tracing
carries no hooks.  A function is found at its definition site and then at
every other binding in a loaded ``screwinv`` module that holds the same
object (``from .poly import ...`` copies, package re-exports), because
callers reach it through those copies.

A span's self time is its duration minus the time of the spans it encloses.
When a definition site no longer exists, the span is skipped and its
metrics are reported as null, with the reason in `Tracer.missing`.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# span name -> definition sites (module, attribute path); several sites may
# feed one span.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "kernel.terms_mul": (("screwinv._kernel", "terms_mul"),),
    "kernel.terms_add": (("screwinv._kernel", "terms_add"),),
    "kernel.terms_sub": (("screwinv._kernel", "terms_sub"),),
    "kernel.terms_scale": (("screwinv._kernel", "terms_scale"),),
    "poly.mul": (("screwinv.poly", "Polynomial.__mul__"),),
    "poly.pow": (("screwinv.poly", "Polynomial.__pow__"),),
    "poly.substitute": (("screwinv.poly", "Polynomial.substitute"),),
    "poly.leading_term": (("screwinv.poly", "Polynomial.leading_term"),),
    "poly.evaluate": (("screwinv.poly", "Polynomial.evaluate"),),
    "poly.monic": (("screwinv.poly", "Polynomial.monic"),),
    "sagbi.construct": (("screwinv.sagbi", "sagbi_construct"),),
    "sagbi.tete_a_tetes": (("screwinv.sagbi", "tete_a_tetes"),),
    "sagbi.subduct": (("screwinv.sagbi", "subduct"),),
    "sagbi.power_product": (("screwinv.sagbi", "GeneratorSet.power_product"),),
    "sagbi.with_added": (("screwinv.sagbi", "GeneratorSet.with_added"),),
    "group.pullback": (("screwinv.group", "pullback"),),
    "group.symbolic": (("screwinv.group", "check_invariant_symbolic"),),
    "group.sampled": (("screwinv.group", "check_invariant_sampled"),),
    "group.rotation_from_quaternion": (("screwinv.group", "rotation_from_quaternion"),),
    "group.apply_adjoint": (("screwinv.group", "apply_adjoint"),),
    "parsing.parse": (("screwinv.parsing", "parse"),),
    "parsing.format_poly": (("screwinv.parsing", "format_poly"),),
    "screw.catalog": (
        ("screwinv.screw", "se3_generator_catalog"),
        ("screwinv.screw", "translation_sagbi_catalog"),
        ("screwinv.screw", "so3_sagbi_catalog"),
    ),
    "cli.main": (("screwinv.cli", "main"),),
}

# The ten verify items are timed through the suite table the CLI iterates;
# each (name, check) entry becomes span "verify.<name>".
SUITE_SITE = ("screwinv.verification", "PAPER_SUITE")


# Hooks adding a span's extra counts: (tracer, stat, args, kwargs, result).

def _terms_mul(tracer, stat, args, kwargs, result):
    stat["pairs"] += len(args[0]) * len(args[1])


def _substitute(tracer, stat, args, kwargs, result):
    stat["terms_out"] += len(result)


def _construct(tracer, stat, args, kwargs, result):
    seed = args[0] if args else kwargs["seed"]
    stat["passes"] += result.iterations
    stat["inserted"] += len(result.basis) - len(seed)


def _tete_a_tetes(tracer, stat, args, kwargs, result):
    stat["pairs_out"] += len(result)


def _subduct(tracer, stat, args, kwargs, result):
    stat["nonzero"] += not result.remainder.is_zero()


def _power_product(tracer, stat, args, kwargs, result):
    if tracer.active["sagbi.subduct"]:
        tracer.stats["sagbi.subduct"]["steps"] += 1


def _apply_adjoint(tracer, stat, args, kwargs, result):
    if tracer.active["group.sampled"]:
        tracer.stats["group.sampled"]["samples"] += 1


HOOKS = {
    "kernel.terms_mul": _terms_mul,
    "poly.substitute": _substitute,
    "sagbi.construct": _construct,
    "sagbi.tete_a_tetes": _tete_a_tetes,
    "sagbi.subduct": _subduct,
    "sagbi.power_product": _power_product,
    "group.apply_adjoint": _apply_adjoint,
}


def _resolve(module_name: str, path: str):
    """(owner, object) of a definition site; raises LookupError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{module_name} cannot be imported ({exc})") from None
    *parents, attr = path.split(".")
    for name in parents:
        owner = vars(owner).get(name)
        if owner is None:
            raise LookupError(f"{module_name}.{path} is gone")
    if attr not in vars(owner):
        raise LookupError(f"{module_name}.{path} is gone")
    return owner, vars(owner)[attr]


def _bindings(owner, obj) -> list[tuple[object, str]]:
    """Every (namespace, attribute) holding `obj`: the class, or loaded screwinv modules."""
    if isinstance(owner, type):
        spaces = [owner]
    else:
        spaces = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "screwinv" or name.startswith("screwinv."))
        ]
    return [(space, name) for space in spaces for name, value in vars(space).items() if value is obj]


class Tracer:
    """Span statistics gathered while installed; install, run, uninstall."""

    def __init__(self, clock=perf_counter) -> None:
        self.clock = clock  # HostSpeed.clock leaves the sampler's probes out of spans
        self.stats: defaultdict[str, defaultdict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.active: defaultdict[str, int] = defaultdict(int)
        self.missing: dict[str, str] = {}
        self.patches: list[tuple[object, str, object]] = []
        self._children: list[float] = []

    def _wrap(self, span: str, fn):
        stat = self.stats[span]
        active = self.active
        children = self._children
        hook = HOOKS.get(span)
        clock = self.clock

        def traced(*args, **kwargs):
            active[span] += 1
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += dt
                active[span] -= 1
                stat["calls"] += 1
                stat["total_s"] += dt
                stat["self_s"] += dt - inner
            if hook is not None:
                hook(self, stat, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every binding of every layer function that still exists."""
        if self.patches:
            raise RuntimeError("tracer is already installed")
        # Resolve (and so import) every site before scanning for bindings, so
        # that copies held by modules imported late are found too.
        found = []
        for span, sites in LAYERS.items():
            reasons = []
            for module_name, path in sites:
                try:
                    found.append((span, *_resolve(module_name, path)))
                except LookupError as exc:
                    reasons.append(str(exc))
            if len(reasons) == len(sites):
                self.missing[span] = "; ".join(reasons)
        for span, owner, obj in found:
            wrapped = self._wrap(span, obj)
            for space, name in _bindings(owner, obj):
                self._patch(space, name, wrapped)
        try:
            owner, suite = _resolve(*SUITE_SITE)
        except LookupError as exc:
            self.missing["verify"] = str(exc)
        else:
            wrapped = [(name, self._wrap(f"verify.{name}", fn)) for name, fn in suite]
            self._patch(owner, SUITE_SITE[1], wrapped)

    def uninstall(self) -> None:
        """Put every original object back, newest patch first."""
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)
