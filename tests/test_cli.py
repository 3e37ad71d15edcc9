"""CLI behaviour: exit codes, output shapes, --json, mutation sanity."""

import json
import time
from pathlib import Path

import pytest

from screwinv import cli, parsing
from screwinv.parsing import format_poly, parse
from screwinv.screw import screw_varset

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TOO_LONG = "error: a value has more than 4,300 digits, too many to print\n"
LONG_LITERAL = "9" * 4301  # one digit more than the interpreter's default limit
LONG_WORD = "a" * 3000
LONG_EXPONENT = "1e" + "9" * 3000


def shown(text, lead="a field starting"):
    """`text` as an error message quotes it: whole up to 32 characters,
    else by its first 12 after `lead`."""
    return repr(text) if len(text) <= 32 else f"{lead} {text[:12]!r}"


def assert_one_short_error_line(out, err):
    assert out == "" and err.startswith("error: ")
    assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200


class TestPoly:
    def test_format(self, capsys):
        code, out, _ = run(capsys, "poly", "w12*v12 + w11*v11 + w13*v13", "--screws", "1")
        assert code == 0
        assert out.strip() == "w11*v11 + w12*v12 + w13*v13"

    def test_eval(self, capsys):
        code, out, _ = run(
            capsys, "poly", "w11*v11", "--screws", "1", "--eval", "w11=2, v11=3/2"
        )
        assert code == 0 and out.strip() == "3"

    def test_eval_prints_integral_values_plainly(self, capsys):
        argv = ["poly", "2*x - y", "--vars", "x y", "--eval", "x=2, y=1"]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out == "3\n"
        code, out, _ = run(capsys, "--json", *argv)
        assert code == 0 and json.loads(out)["items"] == [{"value": "3"}]

    def test_parse_error_exits_1(self, capsys):
        code, _, err = run(capsys, "poly", "w11 + $", "--screws", "1")
        assert code == 1 and "error" in err

    def test_unknown_variable_exits_1(self, capsys):
        code, _, err = run(capsys, "poly", "bogus", "--screws", "1")
        assert code == 1 and "bogus" in err

    def test_long_unknown_variable_is_quoted_by_its_start(self, capsys):
        code, out, err = run(capsys, "poly", LONG_WORD, "--vars", "x")
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err == "error: unknown variable starting 'aaaaaaaaaaaa' (at position 0)\n"

    def test_division_by_zero_in_eval_exits_1(self, capsys):
        code, out, err = run(capsys, "poly", "x", "--vars", "x", "--eval", "x=1/0")
        assert code == 1 and out == ""
        assert err.startswith("error: bad assignment 'x=1/0'")
        assert "Traceback" not in err

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize("flags", [("--format", "--eval", "x=1"), ("--eval", "x=1", "--format")])
    def test_format_with_eval_exits_1(self, capsys, json_flag, flags):
        code, out, err = run(capsys, *json_flag, "poly", "x", "--vars", "x", *flags)
        assert code == 1 and out == ""
        assert err == "error: --format and --eval are mutually exclusive\n"

    def test_non_rational_in_eval_exits_1(self, capsys):
        code, out, err = run(capsys, "poly", "x", "--vars", "x", "--eval", "x=abc")
        assert code == 1 and out == ""
        assert err == "error: bad assignment 'x=abc', 'abc' is not a rational number\n"

    @pytest.mark.parametrize(
        "value", ["1e-100000000000", "1e100000000000", pytest.param(LONG_EXPONENT, id="long")]
    )
    def test_huge_decimal_exponent_in_eval_exits_1(self, capsys, value):
        cap = parsing.MAX_DECIMAL_EXPONENT
        t0 = time.monotonic()
        code, out, err = run(capsys, "poly", "x", "--vars", "x", "--eval", f"x={value}")
        assert time.monotonic() - t0 < 1.0
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err == (
            f"error: bad assignment {shown(f'x={value}', 'starting')}, "
            f"{shown(value)} has a decimal exponent above {cap} in magnitude\n"
        )

    @pytest.mark.parametrize(
        "piece, reason",
        [
            pytest.param(f"x={LONG_WORD}", "a field starting 'aaaaaaaaaaaa' is not a rational number", id="word"),
            pytest.param(
                f"x={LONG_LITERAL}",
                "a field starting '999999999999' has a run of 4,301 digits,"
                " longer than the interpreter's limit of 4,300 digits",
                id="digits",
            ),
            pytest.param(LONG_WORD, "expected name=value", id="no-equals"),
        ],
    )
    def test_long_assignment_is_quoted_by_its_start(self, capsys, default_digit_limit, piece, reason):
        code, out, err = run(capsys, "poly", "x", "--vars", "x", "--eval", piece)
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err == f"error: bad assignment starting {piece[:12]!r}, {reason}\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize(
        "expr, value", [("x", "1e4300"), ("x^2", "1e4299"), ("x", "1e-4300"), ("x^2", "1e2150")]
    )
    def test_value_too_long_to_print_exits_1(self, capsys, default_digit_limit, json_flag, expr, value):
        t0 = time.monotonic()
        code, out, err = run(capsys, *json_flag, "poly", expr, "--vars", "x", "--eval", f"x={value}")
        assert time.monotonic() - t0 < 1.0
        assert code == 1 and out == ""
        assert err == TOO_LONG

    @pytest.mark.parametrize(
        "expr, position", [(f"{LONG_LITERAL}*x", 0), (f"x^{LONG_LITERAL}", 2), (f"1/{LONG_LITERAL}*x", 2)]
    )
    def test_literal_longer_than_the_digit_limit_exits_1(self, capsys, default_digit_limit, expr, position):
        t0 = time.monotonic()
        code, out, err = run(capsys, "poly", expr, "--vars", "x")
        assert time.monotonic() - t0 < 1.0
        assert code == 1 and out == ""
        assert err == (
            "error: an integer of 4,301 digits is longer than the interpreter's limit"
            f" of 4,300 digits (at position {position})\n"
        )

    def test_longest_printable_value(self, capsys, default_digit_limit):
        # 10**4299 has 4,300 digits, exactly the limit
        code, out, err = run(capsys, "poly", "x", "--vars", "x", "--eval", "x=1e4299")
        assert code == 0 and err == ""
        assert out == "1" + "0" * 4299 + "\n"

    def test_eval_degree_capped(self, capsys):
        cap = cli.MAX_POLY_DEGREE
        code, out, _ = run(capsys, "poly", f"w11^{cap}", "--screws", "1", "--eval", "w11=3")
        assert code == 0 and out == f"{3 ** cap}\n"
        for poly in (f"w11^{cap + 1}", f"w11 + w12^{cap}*v11", "w11^1000000"):
            t0 = time.monotonic()
            code, out, err = run(capsys, "poly", poly, "--screws", "1", "--eval", "w11=3")
            assert time.monotonic() - t0 < 1.0
            assert code == 1 and out == ""
            assert err == f"error: --eval supports polynomials of degree at most {cap}\n"

    def test_format_without_eval_not_degree_capped(self, capsys):
        code, out, _ = run(capsys, "poly", "w11^1000000", "--screws", "1")
        assert code == 0 and out == "w11^1000000\n"

    def test_missing_context_exits_1(self, capsys):
        code, _, err = run(capsys, "poly", "w11")
        assert code == 1

    def test_zero_screws_exits_1(self, capsys):
        code, out, err = run(capsys, "poly", "w11", "--screws", "0")
        assert code == 1 and out == ""
        assert err == "error: need at least one screw\n"

    def test_screw_count_capped(self, capsys):
        # the same range as invariance and the pullback catalog
        cap = cli.MAX_SCREWS
        code, out, _ = run(capsys, "poly", f"w{cap}1", "--screws", str(cap))
        assert code == 0 and out == f"w{cap}1\n"
        for screws in (cap + 1, 2_000_000):
            t0 = time.monotonic()
            code, out, err = run(capsys, "poly", "w11", "--screws", str(screws))
            assert time.monotonic() - t0 < 1.0
            assert code == 1 and out == ""
            assert err == f"error: --screws supports at most {cap}\n"

    def test_screws_and_vars_exclusive(self, capsys):
        # one variable context, so neither flag is silently ignored
        for argv, message in (
            (("--vars", "x", "--screws", "1"), "argument --screws: not allowed with argument --vars"),
            (("--screws", "1", "--vars", "x"), "argument --vars: not allowed with argument --screws"),
        ):
            code, out, err = run(capsys, "poly", "x", *argv)
            assert code == 1 and out == ""
            assert err == f"error: {message}\n"

    def test_explicit_vars_and_order(self, capsys):
        code, out, _ = run(
            capsys, "poly", "x + y", "--vars", "x y", "--order", "y x"
        )
        assert code == 0 and out.strip() == "y + x"


class TestSagbi:
    def test_pullback_to_basis(self, capsys, tmp_path):
        code, out, _ = run(capsys, "catalog", "--screws", "1", "--which", "pullback")
        assert code == 0
        seed_file = tmp_path / "seed.txt"
        seed_file.write_text(out)
        code, out, _ = run(
            capsys, "sagbi", str(seed_file), "--eliminate", "t1,t2,t3"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("order: lex")
        assert "complete: true" in lines
        polys = [l for l in lines if l and ":" not in l]
        assert polys == ["w11", "w12", "w13", "w11*v11 + w12*v12 + w13*v13"]
        # the sagbi output must itself be a readable basis file
        basis_file = tmp_path / "basis.txt"
        basis_file.write_text(out)
        code, out, _ = run(
            capsys, "subduct", "--basis", str(basis_file),
            "--poly", "w12*w11*v11 + w12^2*v12 + w12*w13*v13",
        )
        assert code == 0 and "member: yes" in out

    def test_incomplete_exits_2_with_partial_basis(self, capsys, tmp_path):
        seed_file = tmp_path / "chain.txt"
        seed_file.write_text("order: lex x y\nx + y\nx*y\nx*y^2\n")
        code, out, _ = run(capsys, "sagbi", str(seed_file), "--max-iter", "1")
        assert code == 2
        assert "complete: false" in out
        assert any(line.startswith("x*y^3") for line in out.splitlines())

    def test_huge_degree_bound_exits_1(self, capsys, tmp_path):
        # an unchecked bound this size would not finish in any useful time
        seed_file = tmp_path / "chain.txt"
        seed_file.write_text("order: lex x y\nx + y\nx*y\nx*y^2\n")
        code, out, err = run(capsys, "sagbi", str(seed_file), "--degree-bound", "100000")
        assert code == 1 and out == ""
        assert err == f"error: --degree-bound supports at most {cli.MAX_DEGREE_BOUND}\n"

    def test_degree_bound_at_cap_runs(self, capsys, tmp_path):
        seed_file = tmp_path / "chain.txt"
        seed_file.write_text("order: lex x y\nx + y\nx*y\nx*y^2\n")
        bound = str(cli.MAX_DEGREE_BOUND)
        code, out, _ = run(capsys, "sagbi", str(seed_file), "--degree-bound", bound)
        assert code == 0 and f"degree_bound: {bound}" in out.splitlines()

    @pytest.mark.parametrize("flag", ["--degree-bound", "--max-iter"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bound_below_1_names_the_flag(self, capsys, tmp_path, flag, value):
        seed_file = tmp_path / "chain.txt"
        seed_file.write_text("order: lex x y\nx + y\nx*y\nx*y^2\n")
        code, out, err = run(capsys, "sagbi", str(seed_file), flag, value)
        assert code == 1 and out == ""
        assert err == f"error: {flag} must be at least 1\n"

    def test_bad_file_exits_1(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("order: lex x\nx + $\n")
        code, _, err = run(capsys, "sagbi", str(bad))
        assert code == 1 and "line 2" in err

    @pytest.mark.parametrize("key", ["degree_bound", "iterations"])
    def test_non_integer_header_exits_1_with_line(self, capsys, tmp_path, key):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"order: lex x\n{key}: abc\nx\n")
        code, out, err = run(capsys, "sagbi", str(bad))
        assert code == 1 and out == ""
        assert err == f"error: line 2: {key} must be an integer\n"
        assert "Traceback" not in err


class TestSubduct:
    def test_generator_against_own_basis(self, capsys, tmp_path):
        basis = tmp_path / "basis.txt"
        basis.write_text(
            "order: lex w11 w12 w13 v11 v12 v13\n"
            "w11^2 + w12^2 + w13^2\n"
            "w11*v11 + w12*v12 + w13*v13\n"
        )
        code, out, _ = run(
            capsys, "subduct", "--basis", str(basis), "--poly", "w11*v11 + w12*v12 + w13*v13"
        )
        assert code == 0
        assert "remainder: 0" in out
        assert "member: yes" in out
        assert "g2" in out

    def test_nonmember(self, capsys, tmp_path):
        basis = tmp_path / "basis.txt"
        basis.write_text("order: lex x y\nx\n")
        code, out, _ = run(capsys, "subduct", "--basis", str(basis), "--poly", "y")
        assert code == 0 and "member: no" in out

    def test_degree_capped(self, capsys, tmp_path):
        # every subduction step against x + 1 lowers the degree by one, so
        # x^1600 would run for minutes
        cap = cli.MAX_POLY_DEGREE
        basis = tmp_path / "basis.txt"
        basis.write_text("order: lex x\nx + 1\n")
        argv = ["subduct", "--basis", str(basis), "--poly"]
        code, out, _ = run(capsys, *argv, f"x^{cap}")
        assert code == 0 and "member: yes" in out
        for poly in (f"x^{cap + 1}", f"1 + x^{cap + 1}", "x^1600"):
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv, poly)
            assert time.monotonic() - t0 < 1.0
            assert code == 1 and out == ""
            assert err == f"error: subduct supports --poly of degree at most {cap}\n"


class TestInvariance:
    def test_symbolic_pass(self, capsys):
        code, out, _ = run(
            capsys,
            "invariance", "--poly", "w11*v11 + w12*v12 + w13*v13",
            "--group", "se3", "--screws", "1",
        )
        assert code == 0 and out.startswith("PASS")

    @pytest.mark.parametrize("seed, expected", [("0xC0FFEE", 0xC0FFEE), ("12", 12), ("0b101", 5)])
    def test_seed_in_any_base(self, capsys, seed, expected):
        argv = ["invariance", "--poly", "w11*w11", "--group", "t3", "--screws", "1"]
        code, out, _ = run(capsys, "--json", *argv, "--mode", "sample", "--seed", seed)
        assert code == 0 and json.loads(out)["items"][0]["seed"] == expected

    @pytest.mark.parametrize("seed", ["abc", "1.5", "0x", "", "9" * 3000 + "x"])
    def test_bad_seed_names_an_integer(self, capsys, seed):
        argv = ["invariance", "--poly", "w11", "--group", "se3", "--screws", "1"]
        code, out, err = run(capsys, *argv, "--mode", "sample", "--seed", seed)
        assert code == 1 and out == ""
        assert err == (
            "error: argument --seed: expected an integer (decimal, or prefixed 0x, 0o or 0b),"
            f" got {shown(seed, 'a value starting')}\n"
        )
        assert "lambda" not in err

    def test_long_bad_seed_is_quoted_by_its_start(self, capsys):
        argv = ["invariance", "--poly", "w11", "--group", "se3", "--screws", "1", "--seed"]
        code, out, err = run(capsys, *argv, "9" * 3000 + "x")
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err.endswith("got a value starting '999999999999'\n")

    def test_sample_fail_shows_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            "invariance", "--poly", "w11", "--group", "se3", "--screws", "1",
            "--mode", "sample",
        )
        assert code == 3
        assert "FAIL" in out and "q:" in out and "t:" in out

    def test_sample_count_capped(self, capsys):
        argv = ["invariance", "--poly", "w11", "--group", "se3", "--screws", "1", "--mode", "sample"]
        code, out, _ = run(capsys, *argv, "--samples", str(cli.MAX_SAMPLES))
        assert code == 3 and out.startswith("FAIL")
        code, out, err = run(capsys, *argv, "--samples", str(cli.MAX_SAMPLES + 1))
        assert code == 1 and out == ""
        assert err == f"error: --samples supports at most {cli.MAX_SAMPLES}\n"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_1_names_the_flag(self, capsys, samples):
        argv = ["invariance", "--poly", "w11", "--group", "se3", "--screws", "1", "--mode", "sample"]
        code, out, err = run(capsys, *argv, "--samples", samples)
        assert code == 1 and out == ""
        assert err == "error: --samples must be at least 1\n"

    def test_sample_degree_capped(self, capsys):
        cap = cli.MAX_POLY_DEGREE
        argv = ["invariance", "--group", "so3", "--screws", "1", "--mode", "sample"]
        norm = parse("w11^2 + w12^2 + w13^2", screw_varset(1)) ** (cap // 2)
        code, out, _ = run(capsys, *argv, "--poly", format_poly(norm))
        assert code == 0 and out.startswith("PASS")
        for poly in (f"w11^{cap + 1}", f"w11 + w12^{cap}*v11", "w11^1000000"):
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv, "--poly", poly)
            assert time.monotonic() - t0 < 1.0
            assert code == 1 and out == ""
            assert err == f"error: sample mode supports --poly of degree at most {cap}\n"

    def test_symbolic_degree_capped(self, capsys):
        cap = cli.MAX_POLY_DEGREE
        argv = ["invariance", "--group", "t3", "--screws", "3"]
        code, out, _ = run(capsys, *argv, "--poly", f"w11^{cap}")
        assert code == 0 and out.startswith("PASS")
        for poly in (f"w11^{cap + 1}", f"w11 + w12^{cap}*v33", "w11^1000000"):
            code, out, err = run(capsys, *argv, "--poly", poly)
            assert code == 1 and out == ""
            assert err == (
                f"error: symbolic mode supports --poly of degree at most {cap}\n"
            )

    @pytest.mark.parametrize("mode", ["symbolic", "sample"])
    def test_screw_count_capped(self, capsys, mode):
        cap = cli.MAX_SCREWS
        argv = ["invariance", "--poly", "w11*v11 + w12*v12 + w13*v13", "--group", "se3"]
        code, out, _ = run(capsys, *argv, "--mode", mode, "--screws", str(cap))
        assert code == 0 and out.startswith("PASS")
        for screws in (cap + 1, 400, 10 ** 9):
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv, "--mode", mode, "--screws", str(screws))
            assert time.monotonic() - t0 < 1.0
            assert code == 1 and out == ""
            assert err == f"error: --screws supports at most {cap}\n"

    def test_bracket_sum_symbolic(self, capsys):
        zsum = (
            "v11*w22*w33 - v11*w23*w32 - v21*w12*w33 + v21*w13*w32"
            " + v31*w12*w23 - v31*w13*w22"
        )
        code, out, _ = run(
            capsys, "invariance", "--poly", zsum, "--group", "t3", "--screws", "3"
        )
        assert code == 0

    def test_json_shape(self, capsys):
        code, out, _ = run(
            capsys, "--json",
            "invariance", "--poly", "w11^2 + w12^2 + w13^2",
            "--group", "so3", "--screws", "1",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["command"] == "invariance"
        assert obj["pass"] is True
        assert obj["items"][0]["invariant"] is True


class TestCatalog:
    def test_se3_two_screws(self, capsys):
        code, out, _ = run(capsys, "catalog", "--screws", "2", "--which", "se3")
        assert code == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 6
        assert any("# mixed_12" in l for l in lines)

    def test_t3_three_screws_reports_unknown_completeness(self, capsys):
        code, out, _ = run(capsys, "catalog", "--screws", "3", "--which", "t3")
        assert code == 0
        assert "# completeness: unknown" in out
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert len(lines) == 21

    @pytest.mark.parametrize(
        "which, screws, message",
        [
            ("se3", "0", "supported screw counts are 1, 2 and 3"),
            ("t3", "0", "supported screw counts are 1, 2 and 3"),
            ("se3", "4", "supported screw counts are 1, 2 and 3"),
            ("t3", "4", "supported screw counts are 1, 2 and 3"),
            ("so3", "0", "need at least one vector"),
            ("pullback", "0", "need at least one screw"),
        ],
    )
    def test_bad_screw_count_exits_1(self, capsys, which, screws, message):
        code, out, err = run(capsys, "catalog", "--which", which, "--screws", screws)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_so3_vector_count_capped(self, capsys):
        cap = cli.MAX_SO3_VECTORS
        code, out, _ = run(capsys, "catalog", "--which", "so3", "--screws", str(cap))
        assert code == 0 and out
        code, out, err = run(capsys, "catalog", "--which", "so3", "--screws", str(cap + 1))
        assert code == 1 and out == ""
        assert err == "error: so3 catalogs support 1 to 9 vectors\n"
        assert "Traceback" not in err

    def test_pullback_screw_count_capped(self, capsys):
        cap = cli.MAX_SCREWS
        argv = ["catalog", "--which", "pullback", "--screws"]
        code, out, _ = run(capsys, *argv, str(cap))
        assert code == 0 and len(out.splitlines()) == 1 + 6 * cap
        for screws in (cap + 1, 400, 10 ** 9):
            t0 = time.monotonic()
            code, out, err = run(capsys, *argv, str(screws))
            assert time.monotonic() - t0 < 1.0
            assert code == 1 and out == ""
            assert err == f"error: --screws supports at most {cap}\n"

    def test_se3_three_screws_flags_conjecture(self, capsys):
        code, out, _ = run(capsys, "--json", "catalog", "--screws", "3", "--which", "se3")
        obj = json.loads(out)
        assert obj["items"][0]["conjectural"] is True
        assert len(obj["items"][0]["entries"]) == 14


class TestDh:
    def test_example_pair(self, capsys, tmp_path):
        pair = tmp_path / "pair.txt"
        pair.write_text("0 0 1 0 0 0\n0 3/5 4/5 0 -8/5 6/5\n")
        code, out, _ = run(capsys, "dh", "--pair", str(pair))
        assert code == 0
        assert "cos_alpha: 4/5 / sqrt(1)" in out
        assert "d_sin_alpha: 6/5 / sqrt(1)" in out
        assert "= 2" in out

    def test_wrong_count_exits_1(self, capsys, tmp_path):
        pair = tmp_path / "pair.txt"
        pair.write_text("0 0 1 0 0 0\n")
        code, _, err = run(capsys, "dh", "--pair", str(pair))
        assert code == 1

    @pytest.mark.parametrize("field", ["1/0", "abc", pytest.param(LONG_WORD, id="long")])
    def test_bad_field_exits_1_with_line(self, capsys, tmp_path, field):
        pair = tmp_path / "pair.txt"
        pair.write_text(f"0 0 1 0 0 0\n0 3/5 4/5 0 -8/5 {field}\n")
        code, out, err = run(capsys, "dh", "--pair", str(pair))
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err == f"error: line 2: {shown(field)} is not a rational number\n"

    @pytest.mark.parametrize(
        "field", ["1e100000000000", "-1E-100000000000", pytest.param(LONG_EXPONENT, id="long")]
    )
    def test_huge_decimal_exponent_exits_1(self, capsys, tmp_path, field):
        pair = tmp_path / "pair.txt"
        pair.write_text(f"0 0 1 0 0 0\n0 3/5 4/5 0 -8/5 {field}\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, "dh", "--pair", str(pair))
        assert time.monotonic() - t0 < 1.0
        assert code == 1
        assert_one_short_error_line(out, err)
        cap = parsing.MAX_DECIMAL_EXPONENT
        assert err == f"error: line 2: {shown(field)} has a decimal exponent above {cap} in magnitude\n"

    @pytest.mark.parametrize("json_flag", [(), ("--json",)])
    @pytest.mark.parametrize(
        "text",
        [
            "1e4300 0 0 0 0 0\n0 1 0 0 0 1\n",
            "1e4300 0 0 0 0 0\n0 1e4300 0 0 0 1\n",
            "1e2200 0 0 0 0 0\n0 1 0 0 0 1\n",
        ],
    )
    def test_value_too_long_to_print_exits_1(self, capsys, tmp_path, default_digit_limit, json_flag, text):
        pair = tmp_path / "pair.txt"
        pair.write_text(text)
        t0 = time.monotonic()
        code, out, err = run(capsys, *json_flag, "dh", "--pair", str(pair))
        assert time.monotonic() - t0 < 1.0
        assert code == 1 and out == ""
        assert err == TOO_LONG

    @pytest.mark.parametrize("field", [LONG_LITERAL, f"-{LONG_LITERAL}", f"1/{LONG_LITERAL}", f"0.{LONG_LITERAL}"])
    def test_field_longer_than_the_digit_limit_exits_1(self, capsys, tmp_path, default_digit_limit, field):
        pair = tmp_path / "pair.txt"
        pair.write_text(f"{field} 0 0 0 0 0\n0 1 0 0 0 1\n")
        t0 = time.monotonic()
        code, out, err = run(capsys, "dh", "--pair", str(pair))
        assert time.monotonic() - t0 < 1.0
        assert code == 1 and out == ""
        assert err == (
            f"error: line 1: a field starting {field[:12]!r} has a run of 4,301 digits,"
            " longer than the interpreter's limit of 4,300 digits\n"
        )

    def test_huge_coordinates_with_small_quotients(self, capsys, tmp_path):
        # w1.w1 = w2.w2 = 1e400: each float view is a quotient of numbers
        # beyond float range, but cos alpha = 0 and d = 0
        pair = tmp_path / "pair.txt"
        pair.write_text("1e200 0 0 0 0 0\n0 1e200 0 0 0 1\n")
        code, out, err = run(capsys, "dh", "--pair", str(pair))
        assert code == 0 and err == ""
        assert "alpha: 1.5707963267949 rad" in out
        assert out.endswith(" = 0\n")

    def test_huge_displacement_exits_1(self, capsys, tmp_path):
        pair = tmp_path / "pair.txt"
        pair.write_text("0 0 1 0 0 0\n0 3/5 4/5 0 -8/5 1e400\n")
        code, out, err = run(capsys, "dh", "--pair", str(pair))
        assert code == 1 and out == ""
        assert "Traceback" not in err
        assert err.startswith("error: displacement ") and err.count("\n") == 1


class TestVerify:
    def test_unknown_suite_exits_1(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "everything")
        assert code == 1

    def test_mutated_z_poly_fails_bracket_item(self, monkeypatch):
        # inject a sign error and watch the bracket-sum identity item fail
        import screwinv.screw as screw_mod
        from screwinv.verification import check_bracket_sum_identity

        original = screw_mod.z_poly

        def flipped(i, j, k):
            return -original(i, j, k)

        monkeypatch.setattr(screw_mod, "z_poly", flipped)
        item = check_bracket_sum_identity()
        assert not item.passed

    def test_gram_item_uses_library_det(self, monkeypatch):
        # a determinant that is wrong on numbers must fail the sampled half
        import screwinv.verification as verification
        from fractions import Fraction

        library_det = verification.det

        def broken(matrix):
            return 1 if isinstance(matrix[0][0], Fraction) else library_det(matrix)

        monkeypatch.setattr(verification, "det", broken)
        assert not verification.check_gram_syzygy().passed

    @pytest.mark.parametrize("fault", ["count", "element", "flags"])
    def test_se3_catalog_item_reports_each_failure(self, monkeypatch, fault):
        import dataclasses

        import screwinv.verification as verification

        real = verification.se3_generator_catalog
        name, target = real(2).entries[0]
        catalog, invariant = real, lambda p, kind, m: True
        if fault == "count":  # one element short at m = 2
            catalog = lambda m: dataclasses.replace(real(m), entries=real(m).entries[:-1]) if m == 2 else real(m)
        elif fault == "element":  # one element not invariant
            invariant = lambda p, kind, m: p != target
        else:  # no list flagged conjectural
            catalog = lambda m: dataclasses.replace(real(m), conjectural=False)
        monkeypatch.setattr(verification, "se3_generator_catalog", catalog)
        monkeypatch.setattr(verification, "check_invariant_symbolic", invariant)
        item = verification.check_se3_catalog_invariance()
        assert item.passed is False
        assert item.detail == {
            "count": "m=2: 5 != 6 elements", "element": f"m=2: {name}", "flags": "conjectural flags wrong",
        }[fault]

    def test_dh_item_fails_when_an_adjoint_moves_the_pair(self, monkeypatch):
        import screwinv.verification as verification
        from screwinv.screw import MultiScrew, Twist

        moved = MultiScrew((Twist((0, 0, 1), (0, 0, 0)), Twist((0, 1, 0), (1, 0, 0))))  # cos alpha = 0
        monkeypatch.setattr(verification, "apply_adjoint", lambda g, pair: moved)
        item = verification.check_dh_formulas()
        assert item.passed is False
        assert item.detail == (
            "cos_alpha=ExactRadical(4/5), d_sin_alpha=ExactRadical(6/5), d=ExactRadical(2);"
            " unchanged under 100 sampled adjoints: False"
        )

    @pytest.mark.parametrize("fault, detail", [
        ("wrong", "classified R:R, P:R, H:R; invariant under 100 sampled adjoints"),
        ("changed", "classified R:R, P:P, H:H; changed under a sampled adjoint"),
    ])
    def test_pitch_item_reports_a_wrong_or_changed_class(self, monkeypatch, fault, detail):
        import screwinv.verification as verification
        from screwinv.screw import JointType, Twist

        if fault == "wrong":  # every twist classified revolute
            monkeypatch.setattr(verification, "joint_type", lambda t: JointType.R)
        else:  # every moved twist prismatic, so R and H change class
            moved = Twist((0, 0, 0), (1, 0, 0))
            monkeypatch.setattr(verification, "transform_twist", lambda g, t: moved)
        item = verification.check_pitch_classification()
        assert item.passed is False and item.detail == detail

    @pytest.mark.parametrize("fault, detail", [
        ("add", "associativity of + failed"),
        ("mul", "associativity of * failed"),
        ("distribute", "distributivity failed"),
        ("commute", "commutativity failed"),
        ("reduce", "unreduced rational stored"),
        ("order", "order multiplicativity failed"),
        ("round_trip", "round trip failed on "),
        ("adjoint", "adjoint homomorphism failed"),
    ])
    def test_property_item_reports_each_failure(self, monkeypatch, fault, detail):
        # each fault breaks only the law its message names, so the suites
        # before it still pass and the item stops at its own message
        import screwinv.verification as verification
        from screwinv.group import EuclideanElement
        from screwinv.poly import Polynomial, TermOrder

        add, mul, compose = Polynomial.__add__, Polynomial.__mul__, EuclideanElement.compose
        if fault == "add":  # f (+) g = f + 2g
            monkeypatch.setattr(Polynomial, "__add__", lambda f, g: add(add(f, g), g))
        elif fault == "mul":  # f (*) g = fg + f
            monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: add(mul(f, g), f))
        elif fault == "distribute":  # f (*) g = fg + f + g: associative and commutative
            monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: add(add(mul(f, g), f), g))
        elif fault == "commute":  # f (*) g = f(0) g: associative and distributive
            monkeypatch.setattr(Polynomial, "__mul__", lambda f, g: g.scale(f.terms.get(0, 0)))
        elif fault == "reduce":  # -f stored over twice its denominator, past `_raw`'s reduction
            def unreduced(f):
                g = object.__new__(Polynomial)
                for slot, value in (("varset", f.varset), ("_num", {e: -2 * c for e, c in f._num.items()}),
                                    ("den", 2 * f.den)):
                    getattr(Polynomial, slot).__set__(g, value)
                return g

            monkeypatch.setattr(Polynomial, "__neg__", unreduced)
        elif fault == "order":  # the sum of the squared exponents
            monkeypatch.setattr(TermOrder, "key", lambda order, exps: sum(e * e for e in exps))
        elif fault == "round_trip":  # every parse doubled
            real_parse = verification.parse
            monkeypatch.setattr(verification, "parse", lambda text, vs: real_parse(text, vs).scale(2))
        else:  # products composed in the wrong order
            monkeypatch.setattr(EuclideanElement, "compose", lambda g1, g2: compose(g2, g1))
        item = verification.check_property_suites()
        assert item.passed is False
        if fault == "round_trip":  # the first nonzero polynomial, as it prints
            assert item.detail.startswith(detail) and item.detail != detail and item.detail[-1] != "0"
        else:
            assert item.detail == detail

    def test_full_suite_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "paper")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 10
        assert all(l.startswith("PASS") for l in lines)
        assert out.splitlines()[-1] == "all items passed (pure kernel)"
        assert out == (GOLDEN / "verify_paper.txt").read_text()

    def test_json_verify_shape(self, capsys):
        code, out, _ = run(capsys, "--json", "verify", "--suite", "paper")
        assert code == 0
        obj = json.loads(out)
        assert obj["command"] == "verify" and obj["pass"] is True
        assert len(obj["items"]) == 10
        assert all(item["passed"] for item in obj["items"])
        assert out == (GOLDEN / "verify_paper_json.txt").read_text()

    def test_json_flag_accepted_after_subcommand(self, capsys):
        code, out, _ = run(capsys, "catalog", "--screws", "1", "--which", "se3", "--json")
        assert code == 0
        assert json.loads(out)["command"] == "catalog"


class TestLongInputs:
    """Every echoed input of more than 32 characters is quoted by its first
    12, so the error stays one short line."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(
                ["poly", "x", "--vars", "x", "--eval", f"{LONG_WORD}=1"],
                "unknown variable starting 'aaaaaaaaaaaa'",
                id="eval-name",
            ),
            pytest.param(
                ["poly", LONG_WORD, "--vars", LONG_WORD, "--eval", ","],
                "missing assignment for variable starting 'aaaaaaaaaaaa'",
                id="eval-missing",
            ),
            pytest.param(
                ["poly", "x", "--vars", f"1{LONG_WORD}"],
                "invalid variable name starting '1aaaaaaaaaaa'",
                id="vars-invalid",
            ),
            pytest.param(
                ["poly", "x", "--vars", f"{LONG_WORD} {LONG_WORD}"],
                "duplicate variable name starting 'aaaaaaaaaaaa'",
                id="vars-duplicate",
            ),
            pytest.param(
                ["catalog", "--screws", "1", "--which", LONG_WORD],
                "argument --which: invalid choice: a value starting 'aaaaaaaaaaaa' (choose from ",
                id="catalog-which",
            ),
            pytest.param(
                ["invariance", "--group", LONG_WORD, "--screws", "1", "--poly", "w11"],
                "argument --group: invalid choice: a value starting 'aaaaaaaaaaaa' (choose from ",
                id="invariance-group",
            ),
            pytest.param(["verify", "--suite", LONG_WORD], "unknown suite starting 'aaaaaaaaaaaa'", id="verify-suite"),
        ],
    )
    def test_long_input_is_quoted_by_its_start(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err.startswith(f"error: {message}")
        assert "choose from" not in message or "se3" in err

    def test_short_choice_is_quoted_whole(self, capsys):
        code, out, err = run(capsys, "catalog", "--screws", "1", "--which", "everything")
        assert code == 1
        assert_one_short_error_line(out, err)
        assert err.startswith("error: argument --which: invalid choice: 'everything' (choose from ")


class TestUsage:
    def test_no_command_exits_1(self, capsys):
        code = cli.main([])
        assert code == 1

    def test_bad_flag_exits_1(self, capsys):
        code = cli.main(["catalog", "--screws", "2", "--which", "everything"])
        assert code == 1
