"""Byte-identical outputs, pinned against recorded text under tests/golden/.

Each CLI case stores its exit code on the first line and its stdout after
it; the pullback cases store the canonical text of every image, one per
line, for all three action kinds (the rotation-bearing pullbacks are not
reachable from the CLI).  After a deliberate output change, re-record with
``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from screwinv import cli
from screwinv.group import ActionKind, pullback
from screwinv.parsing import format_poly

GOLDEN = Path(__file__).parent / "golden"

CHAIN_SEED = "order: lex x y\nx + y\nx*y\nx*y^2\n"

# Generators whose leading coefficients are not 1: insertion makes them
# monic with fractional coefficients (x^2 + 3/2*y, x*y - 2/3*y^2,
# y^2 + 2/5*y), completion adds a fourth, and subducting FRACTIONAL_POLY
# against the seed leaves a fractional certificate and remainder.
FRACTIONAL_SEED = "order: lex x y\n2*x^2 + 3*y\n3*x*y - 2*y^2\n5*y^2 + 2*y\n"
FRACTIONAL_POLY = "1/2*x^4 + 5*x^3*y - 7/3"

# Screw pair files for `dh`: the README example pair (cos alpha = 4/5, d = 2)
# and a pair with antiparallel axes, whose displacement is undefined; its
# second screw has pitch -5/2, which the pitch term takes out of d sin alpha.
DH_PAIRS = {
    "dh_example": "0 0 1 0 0 0\n0 3/5 4/5 0 -8/5 6/5\n",
    "dh_parallel": "0 0 1 0 0 0\n0 0 -2 2 1 5\n",
}

# Inputs subducted against the recorded two-screw translation basis: three
# members whose certificates take several steps (klein_1*klein_2 + w13^2*w22,
# mixed_12^2 - 3/2*w12*w23*klein_2, w23*cubic_12 + klein_1^2 - 7, expanded)
# and a non-member whose first step succeeds (w11*klein_1 + w21*v12).
SUBDUCT_INPUTS = {
    "klein_product": (
        "w11*w21*v11*v21 + w11*w22*v11*v22 + w11*w23*v11*v23 +"
        " w12*w21*v12*v21 + w12*w22*v12*v22 + w12*w23*v12*v23 + w13^2*w22 +"
        " w13*w21*v13*v21 + w13*w22*v13*v22 + w13*w23*v13*v23"
    ),
    "mixed_square": (
        "w11^2*v21^2 + 2*w11*w12*v21*v22 + 2*w11*w13*v21*v23 +"
        " 2*w11*w21*v11*v21 + 2*w11*w22*v12*v21 + 2*w11*w23*v13*v21 +"
        " w12^2*v22^2 + 2*w12*w13*v22*v23 - 3/2*w12*w21*w23*v21 +"
        " 2*w12*w21*v11*v22 - 3/2*w12*w22*w23*v22 + 2*w12*w22*v12*v22 -"
        " 3/2*w12*w23^2*v23 + 2*w12*w23*v13*v22 + w13^2*v23^2 +"
        " 2*w13*w21*v11*v23 + 2*w13*w22*v12*v23 + 2*w13*w23*v13*v23 +"
        " w21^2*v11^2 + 2*w21*w22*v11*v12 + 2*w21*w23*v11*v13 + w22^2*v12^2"
        " + 2*w22*w23*v12*v13 + w23^2*v13^2"
    ),
    "cubic_multiple": (
        "w11^2*v11^2 + 2*w11*w12*v11*v12 + 2*w11*w13*v11*v13 +"
        " w11*w22*w23*v22 + w11*w23^2*v23 + w12^2*v12^2 + 2*w12*w13*v12*v13"
        " - w12*w21*w23*v22 + w13^2*v13^2 - w13*w21*w23*v23 - w21^2*w23*v11"
        " - w21*w22*w23*v12 - w21*w23^2*v13 - 7"
    ),
    "nonmember": "w11^2*v11 + w11*w12*v12 + w11*w13*v13 + w21*v12",
}

# invariance checks, label -> (poly, group, screws, mode): the Klein form of
# one screw passes both se3 oracles; the cross-screw Klein-like form fails
# the symbolic one, and w11 fails se3 sampling with a counterexample
# (default seed), as does a non-homogeneous two-screw form with fractional
# coefficients.  v11 fails t3 sampling, whose elements carry no rotation,
# and w11 fails so3 sampling on two screws, with zero translation.
INVARIANCE_INPUTS = {
    "symbolic_klein": ("w11*v11 + w12*v12 + w13*v13", "se3", 1, "symbolic"),
    "symbolic_cross": ("w11*v21 + w12*v22 + w13*v23", "se3", 2, "symbolic"),
    "sample_klein": ("w11*v11 + w12*v12 + w13*v13", "se3", 1, "sample"),
    "sample_w11": ("w11", "se3", 1, "sample"),
    "sample_fractional_two_screw": ("1/3*w11*v21 + w12^2 - 5/7", "se3", 2, "sample"),
    "sample_v11_t3": ("v11", "t3", 1, "sample"),
    "sample_w11_so3_two_screw": ("w11", "so3", 2, "sample"),
}

# `poly` runs, label -> argv after the subcommand: a leading sign,
# cancellation to zero, fraction arithmetic, a --order override and --eval.
POLY_INPUTS = {
    "leading_sign": ["- w11*v11 + w12 -3*w13^2", "--screws", "1"],
    "cancellation": ["3/2*w11^2*v11 - w12 - 3/2*v11*w11*w11 + w12", "--screws", "1"],
    "fractions": ["1/2*x + 1/3*x - 5/6*y*y + 7/4 - 2/8*x*y", "--vars", "x,y"],
    "order_y_x": ["x^2 + y + x*y^2 - 2", "--vars", "x,y", "--order", "y x"],
    "eval": ["1/2*x^2*y - 3*y + 4/3", "--vars", "x,y", "--eval", "x=2,y=-3/4"],
}


def _cli_cases() -> dict:
    """Golden name -> argv; `{pullback_m}`, `{chain}`, `{fractional}`,
    `{eliminated_2}` and `{dh_*}` name seed files."""
    cases = {}
    for which in ("se3", "t3", "so3", "pullback"):
        for m in (1, 2, 3):
            argv = ["catalog", "--which", which, "--screws", str(m)]
            cases[f"catalog_{which}_{m}"] = argv
            cases[f"catalog_{which}_{m}_json"] = ["--json", *argv]
    for m in (1, 2, 3):
        argv = ["sagbi", f"{{pullback_{m}}}", "--degree-bound", "4"]
        cases[f"sagbi_pullback_{m}"] = argv
        cases[f"sagbi_pullback_{m}_eliminated"] = [*argv, "--eliminate", "t1,t2,t3"]
    # bound 5 on three screws: 45/163/207 tete-a-tetes in the three passes
    # (21/54/64 at bound 4), so many more subduction paths are pinned
    argv = ["sagbi", "{pullback_3}", "--degree-bound", "5"]
    for label, extra in (("", []), ("_eliminated", ["--eliminate", "t1,t2,t3"])):
        cases[f"sagbi_pullback_3_bound_5{label}"] = [*argv, *extra]
        cases[f"sagbi_pullback_3_bound_5{label}_json"] = ["--json", *argv, *extra]
    cases["sagbi_chain_max_iter_1"] = ["sagbi", "{chain}", "--max-iter", "1"]
    # complete at 16 generators, with factorizations using exponents up to 6
    cases["sagbi_chain_bound_16"] = ["sagbi", "{chain}", "--degree-bound", "16"]
    cases["sagbi_chain_bound_16_json"] = ["--json", "sagbi", "{chain}", "--degree-bound", "16"]
    for label, argv in (
        ("sagbi_fractional", ["sagbi", "{fractional}"]),
        ("subduct_fractional", ["subduct", "--basis", "{fractional}", "--poly", FRACTIONAL_POLY]),
    ):
        cases[label] = argv
        cases[f"{label}_json"] = ["--json", *argv]
    for label, poly in SUBDUCT_INPUTS.items():
        argv = ["subduct", "--basis", "{eliminated_2}", "--poly", poly]
        cases[f"subduct_2_{label}"] = argv
        cases[f"subduct_2_{label}_json"] = ["--json", *argv]
    for label in DH_PAIRS:
        argv = ["dh", "--pair", f"{{{label}}}"]
        cases[label] = argv
        cases[f"{label}_json"] = ["--json", *argv]
    for label, (poly, group, m, mode) in INVARIANCE_INPUTS.items():
        argv = ["invariance", "--poly", poly, "--group", group, "--screws", str(m), "--mode", mode]
        cases[f"invariance_{label}"] = argv
        cases[f"invariance_{label}_json"] = ["--json", *argv]
    for label, args in POLY_INPUTS.items():
        cases[f"poly_{label}"] = ["poly", *args]
        cases[f"poly_{label}_json"] = ["--json", "poly", *args]
    return cases


CLI_CASES = _cli_cases()
KINDS = sorted(kind.value for kind in ActionKind)


def run_cli(argv) -> str:
    """Exit code line plus stdout of one in-process CLI run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"exit: {code}\n{out.getvalue()}"


def _seed_text(seed: str) -> str:
    if seed == "chain":
        return CHAIN_SEED
    if seed == "fractional":
        return FRACTIONAL_SEED
    if seed in DH_PAIRS:
        return DH_PAIRS[seed]
    if seed == "eliminated_2":
        # the recorded two-screw translation basis, without its exit line
        return (GOLDEN / "sagbi_pullback_2_eliminated.txt").read_text().split("\n", 1)[1]
    m = seed.rsplit("_", 1)[1]
    return run_cli(["catalog", "--which", "pullback", "--screws", m]).split("\n", 1)[1]


def run_cli_case(name: str, workdir: Path) -> str:
    argv = []
    for arg in CLI_CASES[name]:
        if arg.startswith("{"):
            seed = arg[1:-1]
            path = workdir / f"{seed}.txt"
            path.write_text(_seed_text(seed))
            arg = str(path)
        argv.append(arg)
    return run_cli(argv)


def pullback_text(kind: str, m: int) -> str:
    return "".join(format_poly(img) + "\n" for img in pullback(ActionKind(kind), m).images)


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_output_matches_golden(name, tmp_path):
    assert run_cli_case(name, tmp_path) == (GOLDEN / f"{name}.txt").read_text()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", KINDS)
def test_pullback_images_match_golden(kind, m):
    assert pullback_text(kind, m) == (GOLDEN / f"pullback_{kind}_{m}.txt").read_text()


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in CLI_CASES:
            (GOLDEN / f"{name}.txt").write_text(run_cli_case(name, Path(tmp)))
    for kind in KINDS:
        for m in (1, 2, 3):
            (GOLDEN / f"pullback_{kind}_{m}.txt").write_text(pullback_text(kind, m))
    for name, argv in (("verify_paper", []), ("verify_paper_json", ["--json"])):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.main([*argv, "verify", "--suite", "paper"])
        (GOLDEN / f"{name}.txt").write_text(out.getvalue())


if __name__ == "__main__":
    _record()
