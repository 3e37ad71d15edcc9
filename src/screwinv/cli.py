"""Command-line front end.

Subcommands: poly, subduct, sagbi, invariance, catalog, dh, verify.
Exit codes form a stable contract: 0 success, 1 usage or parse error,
2 incomplete SAGBI construction, 3 invariance failure.  All output is
deterministic under fixed flags; sampling seeds are explicit flags with
documented defaults, never wall-clock derived.  `--json` mirrors every
report as one object with `command`, `items` and `pass` fields.
"""

from __future__ import annotations

import argparse
import io
import json
import sys

from .group import (
    DEFAULT_SAMPLES,
    DEFAULT_SEED,
    ActionKind,
    check_invariant_sampled,
    check_invariant_symbolic,
    format_group_sample,
    pullback,
)
from .parsing import format_poly, parse, parse_rational
from .poly import TermOrder, VariableSet, quoted
from .sagbi import (
    DEFAULT_DEGREE_BOUND,
    DEFAULT_MAX_ITERATIONS,
    eliminate,
    read_basis_file,
    sagbi_construct,
    subduct,
    write_basis_file,
)
from .screw import (
    dh_invariants,
    format_multiscrew,
    parse_multiscrew,
    screw_varset,
    se3_generator_catalog,
    so3_sagbi_catalog,
    translation_sagbi_catalog,
)
from .verification import run_paper_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCOMPLETE = 2
EXIT_INVARIANCE = 3

# The so3 catalog grows about as M^4 in its vector count M; 9 covers the 2m
# vectors (omega_i, v_i) of up to four screws.
MAX_SO3_VECTORS = 9

# Caps --screws for every subcommand that takes it (the se3, t3 and so3
# catalogs refuse smaller counts themselves).  Every pullback image is a
# polynomial over all 6M screw variables and up to 7 group variables, so
# time and memory grow with M; even `poly` builds the 6M-variable set.  In
# process with the cap lifted (Intel Xeon, 2 cores, CPython 3.11), the
# 3-term Klein form takes 0.6 s and 145 MiB to check symbolically at
# M = 400, the pullback catalog 0.3 s and 25 MiB at M = 200, and
# `poly w11` 1.8 s and 242 MiB at M = 200,000.  At the cap the Klein form
# takes 0.02 s symbolically, the 96-term sum of all 32 Klein forms 0.05 s
# symbolically and ~3 s per 1,000 samples, so ~30 s at MAX_SAMPLES, and
# the pullback catalog 0.01 s within the interpreter's own 17 MiB.
MAX_SCREWS = 32

# SAGBI cost grows steeply with the degree bound: three screws take ~0.8 s
# and 53 MiB at bound 7 and ~5.3 s and 180 MiB at bound 8 (in-process,
# Intel Xeon, 2 cores, CPython 3.11), and even the three-generator seed
# x + y, x*y, x*y^2 takes 0.02 s at 16 but ~2.6 s at 32.  16 is twice the
# paper's largest bound.
MAX_DEGREE_BOUND = 16

# One sample costs ~0.2 ms on one screw and ~0.2-0.26 ms on three-screw
# SE(3) catalog elements (Intel Xeon, 2 cores, CPython 3.11), so the cap
# bounds a passing sampled check to ~2-3 s on such inputs; the default is
# 32.
MAX_SAMPLES = 10_000

# The symbolic check expands every image power the input's exponents ask
# for, and sampling and `poly --eval` evaluate the input at exact rationals
# whose size grows with the degree (w11^1000000 would run for seconds and
# print a value too long to convert); `poly` without --eval only parses and
# prints, so it is not capped.  On three screws over se3 (Intel Xeon, 2
# cores, CPython 3.11), a degree-32 monomial spread over all 18 coordinates
# takes ~1.7 s to fail symbolically, and the expanded
# (w11^2 + w12^2 + w13^2)^16, 153 terms, ~1.0 s to pass symbolically and
# ~1.2 s per 1,000 samples, so ~12 s at MAX_SAMPLES.  `subduct` takes one
# step per degree against the basis x + 1, each expanding a power: x^32
# takes ~0.003 s there, x^200 0.2 s, x^400 1.5 s and x^800 ~20 s.  At the
# cap, the expanded mixed form of screws 1 and 2 to the 16th, 20,349 terms,
# takes ~0.5 s against the two-screw translation basis; the term count
# stays uncapped.
# Catalog elements have degree at most 4.
MAX_POLY_DEGREE = 32


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures remapped onto the exit-code contract."""

    def error(self, message):
        raise ValueError(message)

    def _check_value(self, action, value):
        """argparse's own check, with a bad choice quoted as `quoted` does."""
        try:
            super()._check_value(action, value)
        except argparse.ArgumentError as exc:
            message = exc.message.replace(repr(value), quoted(value, "a value starting"), 1)
            raise argparse.ArgumentError(action, message) from None


def _cap_degree(f, what: str) -> None:
    """Refuse `f` above MAX_POLY_DEGREE, saying "<what> of degree at most <cap>"."""
    if f._plan()[2] > MAX_POLY_DEGREE:  # the largest term degree
        raise ValueError(f"{what} of degree at most {MAX_POLY_DEGREE}")


def _int_any_base(text: str) -> int:
    """An int in Python literal syntax, decimal or 0x/0o/0b prefixed."""
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer (decimal, or prefixed 0x, 0o or 0b), got {quoted(text, 'a value starting')}"
        ) from None


def _float15(x: float) -> str:
    return f"{x:.15g}"


def _printed(value) -> str:
    """`str(value)` for an exact number, refused with a ValueError that says
    so when the interpreter's int-to-text digit limit (4,300 by default)
    forbids printing it."""
    try:
        return str(value)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a value has more than {limit:,} digits, too many to print") from None


def _resolve_varset(args) -> VariableSet:
    if getattr(args, "vars", None):
        names = args.vars.replace(",", " ").split()
        return VariableSet(names)
    if getattr(args, "screws", None) is not None:
        if args.screws > MAX_SCREWS:
            raise ValueError(f"--screws supports at most {MAX_SCREWS}")
        return screw_varset(args.screws)
    raise ValueError("give a variable context: --screws M or --vars LIST")


def cmd_poly(args) -> tuple[int, list[str], dict]:
    vs = _resolve_varset(args)
    order = TermOrder(vs, args.order.replace(",", " ").split()) if args.order else vs.default_order()
    f = parse(args.expr, vs)
    if args.eval is not None:
        if args.format:
            raise ValueError("--format and --eval are mutually exclusive")
        point = {}
        for piece in args.eval.split(","):
            if not piece.strip():
                continue
            name, _, value = piece.partition("=")
            shown = quoted(piece, "starting")
            if not _:
                raise ValueError(f"bad assignment {shown}, expected name=value")
            try:
                point[name.strip()] = parse_rational(value.strip())
            except ValueError as exc:
                raise ValueError(f"bad assignment {shown}, {exc}") from None
        _cap_degree(f, "--eval supports polynomials")
        value = _printed(f.evaluate(point))
        return EXIT_OK, [value], {"value": value}
    text = format_poly(f, order)
    return EXIT_OK, [text], {"formatted": text}


def cmd_subduct(args) -> tuple[int, list[str], dict]:
    with open(args.basis) as handle:
        basis, _ = read_basis_file(handle)
    f = parse(args.poly, basis.order.varset)
    _cap_degree(f, "subduct supports --poly")
    result = subduct(f, basis)
    lines = [f"remainder: {format_poly(result.remainder, basis.order)}"]
    cert_items = []
    # (-index, exponent) per pair sorts the products as dense exponent vectors do: the printed order
    for exps, coeff in sorted(result.certificate.terms.items(), key=lambda item: [(-i, e) for i, e in item[0]]):
        factors = " * ".join(f"g{i + 1}^{e}" if e > 1 else f"g{i + 1}" for i, e in exps)
        cert_items.append({"coefficient": str(coeff), "product": factors or "1"})
        lines.append(f"certificate: {coeff} * {factors or '1'}")
    if not cert_items:
        lines.append("certificate: (empty)")
    lines.append(f"member: {'yes' if result.remainder.is_zero() else 'no'}")
    payload = {
        "remainder": format_poly(result.remainder, basis.order),
        "certificate": cert_items,
        "member": result.remainder.is_zero(),
    }
    return EXIT_OK, lines, payload


def cmd_sagbi(args) -> tuple[int, list[str], dict]:
    for flag, value in (("--degree-bound", args.degree_bound), ("--max-iter", args.max_iter)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1")
    if args.degree_bound > MAX_DEGREE_BOUND:
        raise ValueError(f"--degree-bound supports at most {MAX_DEGREE_BOUND}")
    with open(args.generators) as handle:
        seed, _ = read_basis_file(handle)
    result = sagbi_construct(seed, degree_bound=args.degree_bound, max_iterations=args.max_iter)
    if args.eliminate:
        block = args.eliminate.replace(",", " ").split()
        result = eliminate(result, block)
    buf = io.StringIO()
    write_basis_file(
        buf,
        result.basis,
        complete=result.complete,
        degree_bound=result.degree_bound,
        iterations=result.iterations,
    )
    lines = buf.getvalue().splitlines()
    payload = {
        "complete": result.complete,
        "degree_bound": result.degree_bound,
        "iterations": result.iterations,
        "basis": [format_poly(g, result.basis.order) for g in result.basis],
    }
    return (EXIT_OK if result.complete else EXIT_INCOMPLETE), lines, payload


def cmd_invariance(args) -> tuple[int, list[str], dict]:
    kind = ActionKind(args.group)
    vs = _resolve_varset(args)
    f = parse(args.poly, vs)
    _cap_degree(f, f"{args.mode} mode supports --poly")
    if args.mode == "symbolic":
        ok = check_invariant_symbolic(f, kind, args.screws)
        detail = "symbolic identity holds" if ok else "symbolic difference is nonzero"
        lines = [f"{'PASS' if ok else 'FAIL'}: {detail}"]
        payload = {"invariant": ok, "mode": "symbolic"}
        return (EXIT_OK if ok else EXIT_INVARIANCE), lines, payload
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.samples > MAX_SAMPLES:
        raise ValueError(f"--samples supports at most {MAX_SAMPLES}")
    check = check_invariant_sampled(f, kind, args.screws, n_samples=args.samples, seed=args.seed)
    payload = {"invariant": check.ok, "mode": "sample", "samples": args.samples, "seed": args.seed}
    if check.ok:
        return EXIT_OK, [f"PASS: {args.samples} samples, seed {args.seed:#x}"], payload
    ce = check.counterexample
    lines = [
        "FAIL: counterexample found",
        f"  element: {format_group_sample(ce.quaternion, ce.translation)}",
        "  screw:",
    ]
    lines.extend("    " + line for line in format_multiscrew(ce.screw).splitlines())
    lines.append(f"  f(s) = {ce.before}, f(g.s) = {ce.after}")
    payload["counterexample"] = {
        "element": format_group_sample(ce.quaternion, ce.translation),
        "screw": format_multiscrew(ce.screw).splitlines(),
        "before": str(ce.before),
        "after": str(ce.after),
    }
    return EXIT_INVARIANCE, lines, payload


def cmd_catalog(args) -> tuple[int, list[str], dict]:
    m = args.screws
    if args.which == "se3":
        catalog = se3_generator_catalog(m)
    elif args.which == "t3":
        catalog = translation_sagbi_catalog(m)
    elif args.which == "so3":
        if m > MAX_SO3_VECTORS:
            raise ValueError(f"so3 catalogs support 1 to {MAX_SO3_VECTORS} vectors")
        catalog = so3_sagbi_catalog(m)
    else:  # pullback: translation pullback images as a ready SAGBI seed file
        _resolve_varset(args)  # caps --screws
        system = pullback(ActionKind.TRANSLATION_SUB, m)
        buf = io.StringIO()
        write_basis_file(buf, system.seed_generators())
        lines = buf.getvalue().splitlines()
        payload = {"order": list(system.order.priority), "images": lines[1:]}
        return EXIT_OK, lines, payload
    lines = []
    if catalog.conjectural:
        lines.append("# conjectural: generation is not certified")
    if catalog.complete is None:
        lines.append("# completeness: unknown")
    for note in catalog.notes:
        lines.append(f"# note: {note}")
    for name, p in catalog:
        lines.append(f"{format_poly(p)}  # {name}")
    payload = {
        "which": args.which,
        "screws": m,
        "conjectural": catalog.conjectural,
        "complete": catalog.complete,
        "notes": list(catalog.notes),
        "entries": [{"name": name, "poly": format_poly(p)} for name, p in catalog],
    }
    return EXIT_OK, lines, payload


def cmd_dh(args) -> tuple[int, list[str], dict]:
    with open(args.pair) as handle:
        pair = parse_multiscrew(handle.read())
    if len(pair) != 2:
        raise ValueError("the DH pair file must hold exactly two screws")
    report = dh_invariants(pair)
    dots = [_printed(v) for v in report.dots]
    klein_cross = _printed(report.klein_cross)
    cos_alpha = {"num": _printed(report.cos_alpha.num), "radicand": _printed(report.cos_alpha.radicand)}
    d_sin_alpha = {
        "num": _printed(report.d_sin_alpha.num),
        "radicand": _printed(report.d_sin_alpha.radicand),
    }
    lines = [
        "dots: w1.w1 = {}, w1.w2 = {}, w2.w2 = {}".format(*dots),
        f"klein_cross: {klein_cross}",
        f"cos_alpha: {cos_alpha['num']} / sqrt({cos_alpha['radicand']})",
        f"d_sin_alpha: {d_sin_alpha['num']} / sqrt({d_sin_alpha['radicand']})",
        f"alpha: {_float15(report.alpha_float)} rad",
    ]
    if report.parallel_axes:
        lines.append("displacement: undefined (parallel axes, sin alpha = 0)")
    else:
        num, radicand = _printed(report.displacement.num), _printed(report.displacement.radicand)
        lines.append(f"displacement: {num} / sqrt({radicand}) = {_float15(report.d_float)}")
    payload = {
        "dots": dots,
        "klein_cross": klein_cross,
        "cos_alpha": cos_alpha,
        "d_sin_alpha": d_sin_alpha,
        "alpha_float": _float15(report.alpha_float),
        "parallel_axes": report.parallel_axes,
        "d_float": None if report.d_float is None else _float15(report.d_float),
    }
    return EXIT_OK, lines, payload


def cmd_verify(args) -> tuple[int, list[str], dict]:
    if args.suite != "paper":
        raise ValueError(f"unknown suite {quoted(args.suite, 'starting')}")
    items = run_paper_suite()
    width = max(len(item.name) for item in items)
    lines = [f"{'PASS' if i.passed else 'FAIL'}  {i.name:<{width}}  {i.detail}" for i in items]
    ok = all(i.passed for i in items)
    lines.append(f"{'all items passed' if ok else 'FAILURES PRESENT'} (pure kernel)")
    payload = {
        "items": [
            {"name": i.name, "passed": i.passed, "detail": i.detail} for i in items
        ],
        "pass": ok,
    }
    return (EXIT_OK if ok else EXIT_INVARIANCE), lines, payload


def build_parser() -> _Parser:
    parser = _Parser(prog="screwinv", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit one JSON object")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def sub(name: str, **kwargs):
        p = subparsers.add_parser(name, **kwargs)
        # accepted after the subcommand too; SUPPRESS keeps the global value
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="emit one JSON object")
        return p

    p = sub("poly", help="format or evaluate a polynomial")
    p.add_argument("expr")
    context = p.add_mutually_exclusive_group()
    context.add_argument("--screws", type=int, help="use the m-screw w/v variable set")
    context.add_argument("--vars", help="explicit variable list (space or comma separated)")
    p.add_argument("--order", help="lex priority override")
    p.add_argument("--format", action="store_true", help="canonical form (the default)")
    p.add_argument("--eval", help="assignment name=value,... for exact evaluation")
    p.set_defaults(func=cmd_poly)

    p = sub("subduct", help="subduct a polynomial against a basis file")
    p.add_argument("--basis", required=True)
    p.add_argument("--poly", required=True)
    p.set_defaults(func=cmd_subduct)

    p = sub("sagbi", help="degree-bounded SAGBI construction from a file")
    p.add_argument("generators")
    p.add_argument("--degree-bound", type=int, default=DEFAULT_DEGREE_BOUND)
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITERATIONS)
    p.add_argument("--eliminate", help="drop generators touching these leading variables")
    p.set_defaults(func=cmd_sagbi)

    p = sub("invariance", help="check invariance of a polynomial")
    p.add_argument("--poly", required=True)
    p.add_argument("--group", choices=sorted(k.value for k in ActionKind), required=True)
    p.add_argument("--screws", type=int, required=True)
    p.add_argument("--mode", choices=["symbolic", "sample"], default="symbolic")
    p.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    p.add_argument("--seed", type=_int_any_base, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_invariance)

    p = sub("catalog", help="dump an invariant catalog")
    p.add_argument("--screws", type=int, required=True)
    p.add_argument("--which", choices=["se3", "t3", "so3", "pullback"], required=True)
    p.set_defaults(func=cmd_catalog)

    p = sub("dh", help="exact DH pair invariants from a screw file")
    p.add_argument("--pair", required=True)
    p.set_defaults(func=cmd_dh)

    p = sub("verify", help="run the reproduction suite")
    p.add_argument("--suite", default="paper")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, lines, payload = args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.json:
        obj = {"command": args.command, "pass": code == EXIT_OK}
        items = payload.pop("items", None)
        obj["items"] = items if items is not None else [payload]
        print(json.dumps(obj, indent=2))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
