"""Command-line interface: reports, formats, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from jsonschema import Draft7Validator

from keller_lab import certify, cli, jacobian, linalg
from keller_lab.certify import BAD_RESOLUTION
from keller_lab.families import ZShiftMap
from keller_lab.parser import parse_map
from keller_lab.poly import ExpansionLimitError, PolyMap, digit_limit

from conftest import DATA_DIR, shift_maps

SCHEMA_PATH = (Path(__file__).resolve().parents[1]
               / "src" / "keller_lab" / "schemas" / "report.schema.json")
VALIDATOR = Draft7Validator(json.loads(SCHEMA_PATH.read_text()))

EXAMPLE_EXPRS = [
    "x1 - 11*(x1+x2+x3)^2 - 13*(x1+x2+x3)^3",
    "x2 + 6*(x1+x2+x3)^2 + 9*(x1+x2+x3)^3",
    "x3 + 5*(x1+x2+x3)^2 + 4*(x1+x2+x3)^3",
]

# the coordinate sum in 9 variables, the parser's limit
Z9 = "(" + "+".join(f"x{i}" for i in range(1, 10)) + ")"


def expr_flags(exprs):
    flags = []
    for text in exprs:
        flags += ["--expr", text]
    return flags


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    report = json.loads(out)
    VALIDATOR.validate(report)
    return report


class TestReports:
    def test_jacobian(self, capsys):
        report = run_json(capsys, ["jacobian", "--expr", "x + y^2",
                                   "--expr", "y"])
        assert report["command"] == "jacobian"
        result = report["result"]
        assert result["kind"] == "jacobian"
        assert result["matrix"] == [["1", "0"], ["2*x2", "1"]]
        assert result["det"] == "1"

    def test_keller_verdict(self, capsys, data_dir):
        report = run_json(
            capsys, ["keller", "--map", str(data_dir / "example_map.txt")])
        result = report["result"]
        assert result["kind"] == "keller-verdict"
        assert result["is_keller"] is True
        assert result["det"] == "1"

    def test_non_keller_verdict(self, capsys):
        report = run_json(capsys, ["keller", "--expr", "x + x^2",
                                   "--expr", "y"])
        result = report["result"]
        assert result["is_keller"] is False
        assert result["constant"] is None

    def test_inverse_round_trip(self, capsys, data_dir):
        path = str(data_dir / "example_family.txt")
        report = run_json(capsys, ["inverse", "--map", path])
        assert report["result"]["kind"] == "map"
        inverse = parse_map(report["result"]["map"])
        original = parse_map(EXAMPLE_EXPRS)
        assert original.compose(inverse) == parse_map(["x1", "x2", "x3"])

    def test_decompose_factors_multiply_back(self, capsys, data_dir):
        path = str(data_dir / "example_family.txt")
        report = run_json(capsys, ["decompose", "--map", path])
        result = report["result"]
        assert result["kind"] == "factorization"
        assert result["verified"] is True
        assert len(result["factors"]) == 2
        for factor in result["factors"]:
            assert sum(Fraction(g) for g in factor["gamma"]) == 0

    def test_member_negative_with_witness(self, capsys, data_dir):
        path = str(data_dir / "example_map.txt")
        report = run_json(capsys, ["member", "--map", path])
        result = report["result"]
        assert result["kind"] == "membership"
        assert result["member"] is False
        witness = result["witness"]
        assert Fraction(witness["minor"]) == -21
        assert witness["rows"] == [1, 2]
        assert witness["degrees"] == [2, 3]

    def test_member_positive(self, capsys, data_dir):
        path = str(data_dir / "rank_one_family.txt")
        report = run_json(capsys, ["member", "--map", path])
        result = report["result"]
        assert result["member"] is True
        assert [Fraction(g) for g in result["spec"]["gamma"]] == [1, 2, -3]

    def test_normal_form(self, capsys):
        report = run_json(capsys, ["normal-form-2d",
                                   "--expr", "x + 2*y^3", "--expr", "y"])
        result = report["result"]
        assert result["kind"] == "normal-form"
        assert result["case"] == "identity-base-shear"
        assert result["A"] == [["1", "0"], ["-1", "1"]]
        assert result["alpha_top"] == "2"

    @pytest.mark.parametrize("exprs, result", [
        (["x + (x+y)^2 + (x+y)^3", "y - (x+y)^2 - (x+y)^3"],
         {"case": "nonidentity-base", "A": [["1", "0"], ["0", "1"]],
          "alpha_top": "1", "alphas": ["1"], "swapped": False,
          "normal_map": ["x1^3 + 3*x1^2*x2 + 3*x1*x2^2 + x2^3 + x1^2 "
                         "+ 2*x1*x2 + x2^2 + x1",
                         "-x1^3 - 3*x1^2*x2 - 3*x1*x2^2 - x2^3 - x1^2 "
                         "- 2*x1*x2 - x2^2 + x2"]}),
        (["x + 2*y^3", "y"],
         {"case": "identity-base-shear", "A": [["1", "0"], ["-1", "1"]],
          "alpha_top": "2", "alphas": ["0"], "swapped": False,
          "normal_map": ["2*x1^3 + 6*x1^2*x2 + 6*x1*x2^2 + 2*x2^3 + x1",
                         "-2*x1^3 - 6*x1^2*x2 - 6*x1*x2^2 - 2*x2^3 + x2"]}),
        (["x + (y - 2*x)^3", "y + 2*(y - 2*x)^3"],
         {"case": "identity-base-scaled", "A": [["-2", "0"], ["0", "1"]],
          "alpha_top": "-2", "alphas": ["0"], "swapped": False,
          "normal_map": ["-2*x1^3 - 6*x1^2*x2 - 6*x1*x2^2 - 2*x2^3 + x1",
                         "2*x1^3 + 6*x1^2*x2 + 6*x1*x2^2 + 2*x2^3 + x2"]}),
        (["x", "y + 2*x^3"],
         {"case": "identity-base-shear", "A": [["1", "-1"], ["0", "1"]],
          "alpha_top": "-2", "alphas": ["0"], "swapped": True,
          "normal_map": ["-2*x1^3 - 6*x1^2*x2 - 6*x1*x2^2 - 2*x2^3 + x1",
                         "2*x1^3 + 6*x1^2*x2 + 6*x1*x2^2 + 2*x2^3 + x2"]}),
    ], ids=["active_base", "shear", "scaled", "swapped"])
    def test_normal_form_result_is_pinned(self, capsys, exprs, result):
        report = run_json(capsys, ["normal-form-2d"] + expr_flags(exprs))
        assert report["result"] == {
            "kind": "normal-form", "case": result["case"], "A": result["A"],
            "alpha_top": result["alpha_top"],
            "base": {"gamma": ["1", "-1"], "alphas": result["alphas"]},
            "m": 2, "swapped": result["swapped"], "degenerate": False,
            "normal_map": result["normal_map"]}

    def test_inject_symbolic(self, capsys, data_dir):
        path = str(data_dir / "example_family.txt")
        report = run_json(capsys, ["inject-symbolic", "--map", path])
        result = report["result"]
        assert result["kind"] == "certificate"
        assert result["status"] == "proven-injective"

    def test_inject_sample_witness(self, capsys):
        report = run_json(capsys, [
            "inject-sample", "--expr", "x^2", "--expr", "y",
            "--domain", "box:-1,1;-1,1", "--trials", "40", "--seed", "1"])
        result = report["result"]
        assert result["status"] == "failure-witness"
        assert result["evidence"]["values_collide"] is True
        v1, v2 = result["evidence"]["values"]
        assert v1 == v2

    def test_shear_check(self, capsys):
        report = run_json(capsys, [
            "shear-check", "--h", "0,1", "--g", "0,0,1/4"])
        result = report["result"]
        assert result["status"] == "proven-injective"

    def test_analytic_check(self, capsys):
        report = run_json(capsys, [
            "analytic-check", "--coeffs", "0,0,1",
            "--domain", "box:1/10,1;-1,1"])
        result = report["result"]
        assert result["status"] == "proven-injective"
        assert result["evidence"]["range"][0] == "1/5"

    def test_pvalent(self, capsys):
        report = run_json(capsys, [
            "pvalent", "--expr", "x^2", "--expr", "y",
            "--piece", "box:-1,-1/100;-1,1",
            "--piece", "box:1/100,1;-1,1", "--grid", "16"])
        result = report["result"]
        assert result["kind"] == "pvalence"
        assert result["bound"] == 2

    def test_compose_with_inverse_is_identity(self, capsys, data_dir):
        path = str(data_dir / "example_family.txt")
        inverse_report = run_json(capsys, ["inverse", "--map", path])
        inner = inverse_report["result"]["map"]
        report = run_json(capsys, ["compose", "--map", path]
                          + [flag for expr in inner
                             for flag in ("--with-expr", expr)])
        assert report["result"]["map"] == ["x1", "x2", "x3"]


class TestDigest:
    def test_expression_and_family_inputs_share_digest(
            self, capsys, data_dir):
        by_family = run_json(
            capsys, ["keller", "--map", str(data_dir / "example_family.txt")])
        by_expr = run_json(capsys,
                           ["keller"] + expr_flags(EXAMPLE_EXPRS))
        assert by_family["input_digest"] == by_expr["input_digest"]

    def test_expression_and_family_inputs_share_the_result(
            self, capsys, data_dir):
        # the expression map is read as the shift map it is, so pvalent
        # proves it by the family identity, as it does the family file
        reports = [run_json(capsys, ["pvalent", "--map", str(data_dir / name),
                                     "--piece", "box:-1,1;-1,1;-1,1"])
                   for name in ("example_map.txt", "example_family.txt")]
        for report in reports:
            del report["elapsed_ms"]
        assert reports[0] == reports[1]
        assert reports[0]["result"]["bound"] == 1

    @pytest.mark.parametrize("argv, digest", [
        (["--map", str(DATA_DIR / "example_map.txt")],
         "9c0d49b65127dbb39e739356ec48a646dfd6ea3c3ed3bc1e5caccf0946976ecc"),
        (["--map", str(DATA_DIR / "example_family.txt")],
         "9c0d49b65127dbb39e739356ec48a646dfd6ea3c3ed3bc1e5caccf0946976ecc"),
        (["--expr", "x - 3/7*y^2 + 12345678901234567890123/2*x*y^3",
          "--expr", "-y + 1"],
         "0e2be46dffd72f5e0774166bbddf14d50aa9edec492501043cde16177967aa52"),
    ])
    def test_digests_are_pinned(self, capsys, argv, digest):
        # the digest hashes the printed components, so any change to how a
        # map is read or printed shows here
        assert run_json(capsys, ["keller"] + argv)["input_digest"] == digest

    def test_different_maps_differ(self, capsys):
        a = run_json(capsys, ["keller", "--expr", "x + y^2", "--expr", "y"])
        b = run_json(capsys, ["keller", "--expr", "x - y^2", "--expr", "y"])
        assert a["input_digest"] != b["input_digest"]


class TestExitCodes:
    def test_syntax_error_is_two(self, capsys):
        code = cli.main(["keller", "--expr", "x +"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_domain_error_is_one(self, capsys):
        # inverse needs the structured family: a generic map is rejected
        code = cli.main(["inverse", "--expr", "x + y^3", "--expr", "y"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_one(self, capsys, tmp_path):
        code = cli.main(["keller", "--map", str(tmp_path / "missing.txt")])
        assert code == 1

    def test_bad_domain_string_is_two(self, capsys):
        code = cli.main(["inject-sample", "--expr", "x", "--expr", "y",
                         "--domain", "pentagon:1"])
        assert code == 2

    @pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000,
                                      "-" * 3000 + "x"])
    def test_hostile_nesting_is_two(self, capsys, text):
        code = cli.main(["keller", "--expr=" + text, "--expr", "y"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "nests deeper" in captured.err
        assert "Traceback" not in captured.err

    def test_huge_exponent_is_two_promptly(self, capsys):
        start = time.perf_counter()
        code = cli.main(["keller", "--expr", "x^100000000", "--expr", "y"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "exceeds the limit" in captured.err
        assert elapsed < 5

    @pytest.mark.parametrize("power", ["^60", "^10*" + Z9 + "^10"])
    def test_work_over_the_limit_is_two_promptly(self, capsys, power):
        # neither finished in 15 s before the parser bounded the work
        argv = (["keller", "--expr", Z9 + power]
                + expr_flags(f"x{i}" for i in range(2, 10)))
        start = time.process_time()
        code = cli.main(argv)
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "multiply-adds" in captured.err
        assert elapsed < 1

    def test_overlong_literal_is_two(self, capsys):
        code = cli.main(["keller", "--expr", "x + " + "9" * 5000,
                         "--expr", "y"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "5000 digits is too long (at position 4)" in captured.err

    @pytest.mark.skipif(not digit_limit(), reason="no digit limit")
    @pytest.mark.parametrize("expr", [
        "x + (7^1000)^1000",
        "x + 99^1000*99^1000*99^1000",
        "x + " + "9" * 4300 + " + " + "9" * 4300,
    ], ids=["power", "product", "sum"])
    def test_coefficient_over_the_digit_limit_is_two_promptly(self, capsys,
                                                              expr):
        # the power took 6 s and then failed to print with exit 1
        start = time.process_time()
        code = cli.main(["keller", "--expr", expr, "--expr", "y"])
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"the {digit_limit()}-digit limit" in captured.err
        assert elapsed < 1

    @pytest.mark.skipif(not digit_limit(), reason="no digit limit")
    @pytest.mark.parametrize("source", ["file", "expr"])
    def test_table_coefficient_over_the_digit_limit_is_two(self, capsys,
                                                           tmp_path, source):
        # a family file's coefficients went unchecked: the expanded map
        # failed to print, with exit 1 and Python's set_int_max_str_digits
        # hint
        big = "9" * digit_limit()
        if source == "file":
            path = tmp_path / "big.txt"
            path.write_text("family = zshift\nn = 2\nm = 3\np2 = 0, 0\n"
                            f"p3 = {big}, -{big}\n")
            argv = ["keller", "--map", str(path)]
        else:
            argv = ["keller", "--expr", f"x + {big}*(x+y)^3",
                    "--expr", f"y - {big}*(x+y)^3"]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: a coefficient is over the "
                                f"{digit_limit()}-digit limit "
                                "(at position 0)\n")
        assert "set_int_max_str_digits" not in captured.err

    def test_float_too_large_for_a_result_is_one(self, capsys):
        # float() of a 400-digit coefficient used to raise OverflowError
        # out of cli.main
        big = "9" * 400
        code = cli.main(["inverse", "--expr", f"x + {big}*(x+y)^2",
                         "--expr", f"y - {big}*(x+y)^2", "--float"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert "--float" in captured.err

    def test_float_too_small_for_a_result_is_one(self, capsys):
        # float() of 1/N for a 400-digit N is 0.0: the report read
        # [[-0.0], [0.0]], as if the map were the identity
        big = "9" * 400
        code = cli.main(["inverse", "--expr", f"x + 1/{big}*(x+y)^2",
                         "--expr", f"y - 1/{big}*(x+y)^2", "--float"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == ("error: a result number is too small for "
                                "--float; rerun without it for exact "
                                "fractions\n")

    @pytest.mark.skipif(not digit_limit(), reason="no digit limit")
    def test_result_over_the_digit_limit_is_one(self, capsys):
        # legal input whose composite has coefficients past the limit; it
        # used to exit with Python's set_int_max_str_digits hint
        c = "9^1000*9^1000"
        pair = [f"x + {c}*y^2", f"y + {c}*x^2"]
        argv = ["compose"] + expr_flags(pair)
        for text in pair:
            argv += ["--with-expr", text]
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert f"the {digit_limit()}-digit limit" in captured.err
        assert "set_int_max_str_digits" not in captured.err

    def test_result_over_the_work_limit_keeps_its_message(self):
        # `inverse` prints its family map expanded; nonzero degrees 11 and
        # 12 in 9 variables take 1.9e7 multiply-adds, over the limit, and
        # that was reported as a number past the digit limit
        table = [[0] * 9 + [1, 1], [0] * 9 + [-1, -1]] + [[0] * 11] * 7
        with pytest.raises(ExpansionLimitError,
                           match="power 12 of 9 terms takes the map past"):
            cli._render({"kind": "map", "map": ZShiftMap(table)}, False)

    @pytest.mark.parametrize("argv", [
        ["inject-sample", "--expr", "x", "--expr", "y",
         "--domain", "box:-1,1;-1,1"],
        # five variables: pvalent samples without an interval check first
        ["pvalent"] + expr_flags(["x1 + x2^2"]
                                 + [f"x{i}" for i in range(2, 6)])
        + ["--piece", "box:" + ";".join(["-1,1"] * 5)],
    ], ids=["inject-sample", "pvalent"])
    def test_trials_over_the_cap_are_one_promptly(self, capsys, argv):
        # an unbounded --trials could run for days; refused before sampling
        start = time.process_time()
        code = cli.main(argv + ["--trials", str((1 << 20) + 1)])
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == (
            "error: 1048577 trials are over the cap of 1048576\n")
        assert elapsed < 1

    def test_pvalent_piece_of_wrong_dimension_is_one(self, capsys, data_dir):
        # a 3-variable family map against a planar piece
        code = cli.main(["pvalent", "--map",
                         str(data_dir / "example_family.txt"),
                         "--piece", "box:-1,1;-1,1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "dimension mismatch" in captured.err

    @pytest.mark.parametrize("radius", ["1/0", "abc"])
    def test_bad_radius_is_two(self, capsys, radius):
        code = cli.main(["shear-check", "--h", "0,1", "--radius", radius])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"error: bad radius {radius!r}")

    @pytest.mark.parametrize("radius", [["--radius", "0"], ["--radius=-1/2"]],
                             ids=["zero", "negative"])
    def test_radius_not_positive_is_one(self, capsys, radius):
        code = cli.main(["shear-check", "--h", "0,1"] + radius)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: disk radius must be positive\n"

    @pytest.mark.parametrize("top", ["(y^1000)^1000", "((y^1000)^1000)^1000"],
                             ids=["degree-10^6", "degree-10^9"])
    def test_normal_form_past_the_exponent_limit_is_one_promptly(self, capsys,
                                                                 top):
        # degree 10^6 took 4.5 s to say so, and degree 10^9 padded its base
        # alphas to 10^9 zeros and ended in a MemoryError
        start = time.process_time()
        code = cli.main(["normal-form-2d", "--expr", f"x + {top}",
                         "--expr", "y"])
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: exponent exceeds the limit of 1000\n"
        assert elapsed < 1

    @pytest.mark.parametrize("grid", ["0", "-3"])
    @pytest.mark.parametrize("argv", [
        ["jacobian", "--expr", "x^2", "--expr", "y"],
        ["compose", "--expr", "x", "--expr", "y", "--with-expr", "x",
         "--with-expr", "y"],
    ])
    def test_plot_grid_below_one_is_one(self, capsys, argv, grid):
        code = cli.main(argv + ["--plot-data", "--grid", grid])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: grid resolution must be at least 1\n"

    @pytest.mark.parametrize("argv, message", [
        (["shear-check", "--h", "0,1", "--grid", "100000"],
         "a grid of 100000^2 cells is over the cap of 1048576 cells"),
        (["shear-check", "--h", "0,1", "--gamma-steps", "1048577"],
         "1048577 angles are over the cap of 1048576"),
        (["analytic-check", "--coeffs", "0,1", "--domain", "box:-1,1;-1,1",
          "--grid", "1025"],
         "a grid of 1025^2 cells is over the cap of 1048576 cells"),
        (["pvalent", "--expr", "x1 + x2^2", "--expr", "x2", "--expr", "x3",
          "--expr", "x4", "--piece", "box:-1,1;-1,1;-1,1;-1,1",
          "--grid", "33"],
         "a grid of 33^4 cells is over the cap of 1048576 cells"),
        (["jacobian", "--expr", "x^2", "--expr", "y", "--plot-data",
          "--grid", "100000"],
         "a grid of 100000^2 cells is over the cap of 1048576 cells"),
    ])
    def test_grid_over_the_cap_is_one(self, capsys, argv, message):
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("coeffs", ["1:", "1: ", "0,1:,2", "1/2:  "])
    def test_empty_imaginary_part_is_two(self, capsys, coeffs):
        code = cli.main(["analytic-check", "--coeffs", coeffs,
                         "--domain", "box:-1,1;-1,1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: bad coefficient")

    def test_explicit_imaginary_part_still_parses(self, capsys):
        assert cli.main(["analytic-check", "--coeffs", "0,1: 0,0:1/4",
                         "--domain", "box:-1,1;-1,1"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("exprs, message", [
        ([f"x{i}" for i in range(1, 10)] + ["x1"],
         "variable count must be between 1 and 9 (at position 0)"),
        # a map has one variable per component
        (["x1", "x2 + x3"],
         "unknown variable 'x3' (map has 2 variables) (at position 5)"),
        (["x + y"], "unknown variable 'y' (at position 4)"),
    ], ids=["ten-components", "x3-of-two", "y-of-one"])
    def test_variable_count_out_of_range_is_two(self, capsys, exprs,
                                                message):
        code = cli.main(["keller"] + expr_flags(exprs))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("sizes, message", [
        ("n = 10\nm = 2\n", "need 1 <= n <= 9 and m >= 1"),
        ("n = 2\nm = 0\n", "need 1 <= n <= 9 and m >= 1"),
        ("n = two\nm = 2\n", "'n' and 'm' must be integers"),
    ], ids=["n-10", "m-0", "n-two"])
    def test_family_size_out_of_range_is_two(self, capsys, tmp_path, sizes,
                                             message):
        path = tmp_path / "family.txt"
        path.write_text("family = zshift\n" + sizes)
        code = cli.main(["keller", "--map", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {message} (at position 0)\n"

    @pytest.mark.parametrize("argv, conflict", [
        (["keller", "--map", "family.txt", "--expr", "x^2"],
         "argument --expr: not allowed with argument --map"),
        (["compose", "--expr", "x", "--with", "map.txt", "--with-expr", "x"],
         "argument --with-expr: not allowed with argument --with"),
    ], ids=["keller", "compose"])
    def test_two_sources_of_one_map_are_a_usage_error(self, capsys, argv,
                                                      conflict):
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: {conflict}\n")

    def test_variable_count_flag_is_unrecognized(self, capsys):
        assert cli.main(["keller", "--expr", "x", "--expr", "y",
                         "--n", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            "error: unrecognized arguments: --n 2\n")

    @pytest.mark.parametrize("spec", ["box:0,1,2;0,1", "half:0,1,2;0,1|1,1,1",
                                      "box:0;0,1", "half:0,1;1|1,1,1"])
    def test_box_coordinate_without_a_pair_is_two(self, capsys, spec):
        code = cli.main(["inject-sample", "--expr", "x", "--expr", "y",
                         "--domain", spec])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (f"error: bad domain {spec!r}: each box "
                                "coordinate needs lo,hi (at position 0)\n")

    def test_negative_denominator_bits_is_one(self, capsys):
        code = cli.main(["inject-sample", "--expr", "x", "--expr", "y",
                         "--domain", "box:-1,1;-1,1", "--denom-bits", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == \
            "error: denominator bits must be non-negative\n"

    def test_a_one_point_domain_is_one(self, capsys):
        code = cli.main(["inject-sample", "--expr", "x",
                         "--domain", "box:0,0"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == \
            "error: domain too small to sample distinct pairs\n"

    @pytest.mark.parametrize("argv, bits", [
        (["inject-sample", "--expr", "x^2", "--expr", "y",
          "--domain", "box:-1,1;-1,1", "--denom-bits", "100000",
          "--trials", "40"], 100000),
        # five variables: pvalent samples on its 2^-4 lattice, and ran past
        # 30 s on degree 10^6 and into a MemoryError on degree 10^9
        *[(["pvalent"] + expr_flags([f"x1 + {power}"]
                                    + [f"x{i}" for i in range(2, 6)])
           + ["--piece", "box:" + ";".join(["-1,1"] * 5)], 4)
          for power in ("(x1^1000)^1000", "((x1^1000)^1000)^1000")],
    ], ids=["inject-sample", "pvalent-degree-10^6", "pvalent-degree-10^9"])
    def test_huge_denominator_bits_fail_fast(self, capsys, argv, bits):
        # the witness values would have about 60206 digits: refused before
        # any pair is sampled, not after
        start = time.perf_counter()
        code = cli.main(argv)
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: denominator bits {bits} ")
        assert "digit" in captured.err

    def test_option_like_expression_is_usage_error(self, capsys):
        # argparse takes "-x" for an option: exit 2, not SystemExit
        code = cli.main(["keller", "--expr", "-x", "--expr", "y"])
        assert code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_option_like_expression_with_equals_form(self, capsys):
        assert cli.main(["keller", "--expr=-x", "--expr", "y"]) == 0
        capsys.readouterr()

    def test_success_is_zero(self, capsys):
        assert cli.main(["keller", "--expr", "x", "--expr", "y"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("exprs, seconds", [
        (["x1 + " + " + ".join(f"x1^{k}" for k in range(2, 12))]
         + [f"x{i}" for i in range(2, 10)], 0.5),
        (["x1 + x1^13"] + [f"x{i}" for i in range(2, 10)], 0.5),
        # 19,600 terms, read, added and recognised in linear time
        (["x + " + " + ".join(f"{a}/{b}*x^{a}*y^{b}" for a in range(1, 141)
                              for b in range(1, 141)), "y"], 2),
    ], ids=["x1-powers-to-11", "x1^13", "19600-terms"])
    def test_nine_variables_not_a_shift_map_is_one_promptly(self, capsys,
                                                            exprs, seconds):
        # recognition expanded z^2..z^11 in 9 variables (3 s) before it
        # said no, and refused z^13 with the expansion limit's message
        start = time.process_time()
        code = cli.main(["inverse"] + expr_flags(exprs))
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error: map is not a z-shift map: shifts are not polynomials "
            "in the coordinate sum\n")
        assert elapsed < seconds

    @pytest.mark.parametrize("argv", [
        ["inverse"] + expr_flags([
            "x1 + (x1+x2+x3+x4+x5)^9", "x2 - (x1+x2+x3+x4+x5)^9",
            "x3", "x4", "x5"]),
        ["keller", "--expr", "x", "--expr", "y", "--format", "csv"],
    ], ids=["inverse-json", "keller-csv"])
    def test_closed_stdout_is_one_error_line(self, argv):
        # a pipe with no reader left: the first write fails, as under
        # `| head -c 1` once head has exited
        read_end, write_end = os.pipe()
        proc = subprocess.Popen(
            [sys.executable, "-m", "keller_lab.cli"] + argv,
            stdout=write_end, stderr=subprocess.PIPE, text=True)
        os.close(write_end)
        os.close(read_end)
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert "Exception ignored" not in err

    def test_jacobian_builds_one_matrix(self, capsys, monkeypatch,
                                        data_dir):
        calls = []
        real = jacobian.jacobian_matrix

        def counted(f):
            calls.append(f.n)
            return real(f)

        monkeypatch.setattr(jacobian, "jacobian_matrix", counted)
        report = run_json(capsys, ["jacobian"] + expr_flags(EXAMPLE_EXPRS))
        assert calls == [3]
        assert report["result"]["det"] == "1"
        # a family map takes its determinant from the closed form
        calls.clear()
        run_json(capsys, ["jacobian", "--map",
                          str(data_dir / "example_family.txt")])
        assert calls == [3]

    @pytest.mark.parametrize("command", ["keller", "jacobian"])
    def test_expression_shift_map_takes_the_closed_form(
            self, capsys, monkeypatch, data_dir, command):
        def refuse(self):
            raise AssertionError("reached the polynomial determinant")

        monkeypatch.setattr(linalg.PolyMatrix, "det", refuse)
        assert isinstance(cli._read_map(None, EXAMPLE_EXPRS, ""), ZShiftMap)
        by_expr = run_json(capsys, [command] + expr_flags(EXAMPLE_EXPRS))
        by_family = run_json(capsys, [
            command, "--map", str(data_dir / "example_family.txt")])
        assert by_expr["result"]["det"] == by_family["result"]["det"] == "1"

    @pytest.mark.parametrize("argv, message", [
        (["--map", str(DATA_DIR / "example_family.txt"), "--piece",
          "box:-1,1;-1,1;-1,1", "--grid", "0"], BAD_RESOLUTION),
        (["--map", str(DATA_DIR / "example_family.txt"), "--piece",
          "box:-1,1;-1,1;-1,1", "--trials", "0"],
         "at least one trial is required"),
        # five variables: pvalent samples and never builds a grid
        (expr_flags(["x1 + x2^2"] + [f"x{i}" for i in range(2, 6)])
         + ["--piece", "box:" + ";".join(["-1,1"] * 5), "--grid", "0"],
         BAD_RESOLUTION),
    ], ids=["family-grid", "family-trials", "five-variables-grid"])
    def test_pvalent_grid_and_trials_below_one_are_one(self, capsys, argv,
                                                       message):
        code = cli.main(["pvalent"] + argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["inverse", "decompose", "member",
                                         "inject-symbolic"])
    def test_recognition_builds_no_row_per_degree(self, command):
        # one term of degree 10^9: a row per x1-degree would take about
        # 8 GB, and under this address-space cap it ends in a MemoryError
        limit = 1_500_000 * 1024

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "keller_lab.cli", command,
             "--expr", "x + ((x^1000)^1000)^1000", "--expr", "y"],
            capture_output=True, text=True, timeout=60, preexec_fn=cap)
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: map is not a z-shift map: shifts are not polynomials "
            "in the coordinate sum\n")

    @pytest.mark.parametrize("exprs, code, err", [
        (EXAMPLE_EXPRS, 0, ""),
        (["x^2", "y"], 1, "error: map is not a z-shift map: shifts must "
                          "start at degree 2\n"),
    ], ids=["recognised", "refused"])
    @pytest.mark.parametrize("command", ["inverse", "decompose", "member",
                                         "inject-symbolic"])
    def test_shift_only_commands_recognise_once(
            self, capsys, monkeypatch, command, exprs, code, err):
        # the reader hands its one recognition, map or error, to the command
        calls = []
        recognise = cli.families.zshift_from_map

        def counting(f):
            calls.append(f)
            return recognise(f)

        monkeypatch.setattr(cli.families, "zshift_from_map", counting)
        assert cli.main([command] + expr_flags(exprs)) == code
        assert capsys.readouterr().err == err
        assert len(calls) == 1

    @pytest.mark.parametrize("command, code", [("inverse", 1), ("keller", 0)])
    def test_one_variable_shift_past_the_exponent_limit(
            self, capsys, command, code):
        # every x + c*x^l is a shift map; degree 10^6 is one no family file
        # can state, so it is refused before a row that wide is built, and
        # keller falls back to the parsed map
        start = time.process_time()
        assert cli.main([command, "--expr", "x + (x^1000)^1000"]) == code
        assert time.process_time() - start < 2
        err = capsys.readouterr().err
        assert err == ("error: exponent exceeds the limit of 1000\n"
                       if code else "")

    @pytest.mark.parametrize("command", ["decompose", "member",
                                         "inject-symbolic"])
    def test_shift_map_past_the_exponent_limit_is_one(self, capsys,
                                                      command):
        # degree 1001: inverse refused it when printing its inverse; the
        # others now refuse it at recognition with the same message
        code = cli.main([command, "--expr", "x + (x+y)^1000*(x+y)",
                         "--expr", "y - (x+y)^1000*(x+y)"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == "error: exponent exceeds the limit of 1000\n"


# a degree-2998 coefficient list: at the default grid 32 its lattice scale
# (2 * 32)^2998 has over 4300 digits
LONG_COEFFS = ",".join(["0", "1"] + ["1/1000"] * 2998)


@pytest.mark.parametrize("argv", [
    ["pvalent", "--expr", "x + (x^1000)^1000", "--expr", "y",
     "--piece", "box:-1,1;-1,1", "--grid", "4"],
    ["analytic-check", "--coeffs", LONG_COEFFS, "--domain", "box:-1,1;-1,1"],
    ["shear-check", "--h", LONG_COEFFS],
    # nodes -1, -1/3, 1/3, 1: the values would carry 3^(10^9)
    ["jacobian", "--expr", "x + ((x^1000)^1000)^1000", "--expr", "y",
     "--plot-data", "--grid", "4"],
], ids=["pvalent", "analytic-check", "shear-check", "jacobian-plot"])
def test_grid_past_the_digit_limit_is_one_promptly(capsys, argv):
    # the degree is refused before any lattice value is built; the pvalent
    # request's Jacobian entry 1 + 10^6 x^999999 would carry 8^999999
    start = time.process_time()
    code = cli.main(argv)
    elapsed = time.process_time() - start
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: degree ")
    assert "-digit limit" in captured.err
    assert "Traceback" not in captured.err
    assert elapsed < 1


def test_plot_on_integer_nodes_takes_any_degree(capsys):
    # grid 3 puts the nodes at -1, 0 and 1, whose lattice scale is 1
    report = run_json(capsys, ["jacobian", "--expr",
                               "x + ((x^1000)^1000)^1000", "--expr", "y",
                               "--plot-data", "--grid", "3"])
    rows = report["result"]["rows"]
    assert len(rows) == 9
    assert {(x, f1) for x, _, f1, _ in rows} == {
        ("-1", "0"), ("0", "0"), ("1", "2")}


# a zero-sum shift map in 9 variables, the parser's limit, of degree 2
SHIFT_9 = ([f"x1 + 2*{Z9}^2", f"x2 - 3*{Z9}^2", f"x3 + {Z9}^2"]
           + [f"x{i}" for i in range(4, 10)])


@pytest.mark.parametrize("command", ["inverse", "decompose", "member",
                                     "inject-symbolic"])
def test_nine_variable_shift_map(capsys, command):
    report = run_json(capsys, [command] + expr_flags(SHIFT_9))
    result = report["result"]
    if command == "inverse":
        inverse = parse_map(result["map"])
        assert parse_map(SHIFT_9).compose(inverse) == parse_map(
            [f"x{i}" for i in range(1, 10)])
    elif command == "decompose":
        assert result["verified"] is True
    elif command == "member":
        assert result["member"] is True
    else:
        assert result["status"] == "proven-injective"


class TestOutputModes:
    def test_float_rendering(self, capsys):
        report = run_json(capsys, ["jacobian", "--expr", "x + 1/2*y",
                                   "--expr", "y", "--float"])
        assert report["result"]["det"] == "1"
        # matrix entries stay symbolic strings; scalars become floats
        assert report["result"]["n"] == 2

    @pytest.mark.parametrize("float_mode", [False, True])
    def test_a_float_in_a_result_is_refused(self, float_mode):
        # results are exact: a float appears only when --float renders a
        # Fraction, so one already in a result is a bug, not output
        assert cli.to_jsonable([Fraction(1, 2)], True) == [0.5]
        with pytest.raises(TypeError, match="cannot serialize float"):
            cli.to_jsonable({"margin": 0.5}, float_mode)

    def test_csv_key_value(self, capsys):
        code = cli.main(["keller", "--expr", "x", "--expr", "y",
                         "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "result.is_keller" in keys
        assert "command" in keys

    @pytest.mark.parametrize("argv", [
        ["decompose", "--expr", "x"],
        ["inject-symbolic", "--expr", "x"],
        ["member", "--expr", "x", "--expr", "y"],
        ["inverse", "--expr", "x", "--expr", "y"],
        ["normal-form-2d", "--expr", "x", "--expr", "y"],
    ], ids=["decompose", "inject-symbolic", "member", "inverse",
            "normal-form-2d"])
    def test_csv_keys_are_the_json_leaves(self, capsys, argv):
        # an empty list or object is a leaf: one row, [] or {}
        def leaves(prefix, value):
            if isinstance(value, dict) and value:
                for k, v in value.items():
                    yield from leaves(f"{prefix}.{k}" if prefix else k, v)
            elif isinstance(value, list) and value:
                for i, v in enumerate(value):
                    yield from leaves(f"{prefix}[{i}]", v)
            else:
                yield prefix, value

        report = run_json(capsys, argv)
        assert cli.main(argv + ["--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "value"]
        assert [key for key, _ in rows[1:]] == [
            key for key, _ in leaves("", report)]
        empty = {key: json.dumps(value) for key, value in leaves("", report)
                 if value in ([], {})}
        assert empty
        assert {key: value for key, value in rows[1:] if key in empty} == empty

    def test_plot_data_grid(self, capsys):
        report = run_json(capsys, ["jacobian", "--expr", "x^2", "--expr", "y",
                                   "--plot-data", "--grid", "5", "--float"])
        result = report["result"]
        assert result["kind"] == "plot-data"
        assert result["columns"] == ["x", "y", "f1", "f2"]
        assert len(result["rows"]) == 25

    def test_plot_data_csv(self, capsys):
        code = cli.main(["jacobian", "--expr", "x^2", "--expr", "y",
                         "--plot-data", "--grid", "4",
                         "--format", "csv", "--float"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,y,f1,f2"
        assert len(lines) == 17

    @pytest.mark.parametrize("argv, proven", [
        (["--h", "0,0,1", "--gamma-steps", "360", "--grid", "16"], False),
        (["--h", "0,1", "--g", "0,0,1/4"], True),
    ], ids=["inconclusive", "proven"])
    def test_shear_plot_data_is_at_the_reported_angle(self, capsys, argv,
                                                      proven):
        """The margin is plotted at the angle that proved the pair, or at
        the best angle tried when none did."""
        cert = run_json(capsys, ["shear-check"] + argv)["result"]
        assert (cert["status"] == "proven-injective") is proven
        gamma = cert["evidence"]["gamma" if proven else "best_gamma"]
        plot = run_json(capsys, ["shear-check", "--plot-data"] + argv)
        h = cli.parse_complex_coeffs(argv[1])
        g = (cli.parse_complex_coeffs(argv[argv.index("--g") + 1])
             if "--g" in argv else [(Fraction(0), Fraction(0))])
        inp = certify.PlanarShearInput(tuple(h), tuple(g), Fraction(1))
        grid = int(argv[argv.index("--grid") + 1]) if "--grid" in argv else 32
        rows = certify.shear_margin_grid(
            inp, grid, tuple(Fraction(x) for x in gamma))
        assert plot["result"]["rows"] == cli.to_jsonable(rows)


def _without_elapsed(text: str) -> str:
    return re.sub(r'("elapsed_ms": |elapsed_ms,)[0-9.e+-]+', r"\1X", text)


@pytest.mark.parametrize("f", shift_maps(29))
def test_shift_map_jacobian_report_matches_the_n_squared_matrix(
        capsys, monkeypatch, tmp_path, f):
    """A shift map's 2n-partial Jacobian prints the report, json and csv,
    of the n^2 matrix of its expanded components."""
    table = tmp_path / "map.txt"
    table.write_text("\n".join(map(str, f.components)) + "\n")
    sources = [["--map", str(table)]]
    if f.is_keller_family():  # a family file takes zero column sums
        family = tmp_path / "family.txt"
        family.write_text("\n".join(
            ['family = "zshift"', f"n = {f.n}", f"m = {f.m}"]
            + [f"p{l} = " + ", ".join(map(str, column))
               for l, column in enumerate(zip(*f.coeffs), 2)]) + "\n")
        sources.append(["--map", str(family)])

    def reports():
        out = []
        for source in sources:
            for fmt in ("json", "csv"):
                assert cli.main(["jacobian", *source, "--format", fmt]) == 0
                out.append(_without_elapsed(capsys.readouterr().out))
        return out

    shared = reports()
    generic = jacobian.jacobian_matrix
    monkeypatch.setattr(jacobian, "jacobian_matrix",
                        lambda g: generic(PolyMap(g.components)))
    assert shared == reports()


PLANAR =["--expr", "x", "--expr", "y"]
# subcommands that read neither --plot-data nor --grid, then those that
# read --grid only
NO_GRID = [
    ["decompose", "--map", "{family}"],
    ["member", "--map", "{family}"],
    ["normal-form-2d", "--expr", "x + 2*y^3", "--expr", "y"],
    ["inject-symbolic", "--map", "{family}"],
    ["inject-sample", *PLANAR, "--domain", "box:-1,1;-1,1"],
]
GRID_ONLY = [
    ["analytic-check", "--coeffs", "0,1", "--domain", "box:-1,1;-1,1"],
    ["pvalent", *PLANAR, "--piece", "box:-1,1;-1,1", "--grid", "8"],
]


@pytest.mark.parametrize("argv, flag", (
    [(argv, ["--plot-data"]) for argv in NO_GRID + GRID_ONLY]
    + [(argv, ["--grid", "8"]) for argv in NO_GRID]))
def test_flags_a_subcommand_ignores_are_usage_errors(capsys, data_dir,
                                                     argv, flag):
    argv = [a.format(family=data_dir / "example_family.txt") for a in argv]
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main(argv + flag) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(flag)}" in captured.err


ELAPSED = re.compile(r'elapsed_ms(": |,)[-+.e0-9]+')


def _run_main(argv):
    """(exit code, stdout, stderr) of one cli.main call, elapsed_ms blanked."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, ELAPSED.sub("elapsed_ms", out.getvalue()), err.getvalue()


def parser_sequence(data_dir):
    """Every subcommand once, with --help, an unknown subcommand, a missing
    required flag and a dangling --expr between them."""
    family = str(data_dir / "example_family.txt")
    return [
        ["jacobian", "--expr", "x + y^2", "--expr", "y"],
        ["--help"],
        ["keller", "--map", family],
        ["inverse", "--map", family, "--format", "csv"],
        ["nosuch", "--expr", "x"],
        ["compose", "--map", family, "--with", family],
        ["decompose", "--map", family],
        ["inject-sample", *PLANAR],
        ["member", "--map", str(data_dir / "rank_one_family.txt")],
        ["normal-form-2d", "--expr", "x + 2*y^3", "--expr", "y"],
        ["keller", "--expr", "x", "--expr"],
        ["inject-sample", "--expr", "x^2", "--expr", "y", "--domain",
         "box:-1,1;-1,1", "--trials", "5"],
        ["inject-symbolic", "--map", family],
        ["keller", "--help"],
        ["shear-check", "--h", "0,1", "--gamma-steps", "8", "--float"],
        ["analytic-check", "--coeffs", "0,1", "--domain", "box:-1,1;-1,1",
         "--grid", "4"],
        ["pvalent", *PLANAR, "--piece", "box:-1,1;-1,1", "--grid", "4"],
    ]


def test_cached_parser_matches_a_fresh_one(data_dir):
    sequence = parser_sequence(data_dir)
    assert {argv[0] for argv in sequence} >= set(cli._HANDLERS)
    fresh = []
    for argv in sequence:
        cli.build_arg_parser.cache_clear()
        fresh.append(_run_main(argv))
    cli.build_arg_parser.cache_clear()
    cached = [_run_main(argv) for argv in sequence]
    parser = cli.build_arg_parser()
    assert cli.build_arg_parser() is parser
    assert cached == fresh
    codes = [code for code, _, _ in cached]
    assert codes == [0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0]


def test_cached_parser_keeps_no_list_between_calls(data_dir):
    _, args = cli.build_report(["pvalent", "--expr", "x", "--expr", "y",
                                "--piece", "box:-1,0;-1,1",
                                "--piece", "box:0,1;-1,1", "--grid", "2"])
    assert args.expr == ["x", "y"]
    assert args.piece == ["box:-1,0;-1,1", "box:0,1;-1,1"]
    _, args = cli.build_report(["pvalent", "--expr", "x^3 + x",
                                "--piece", "box:-1,1", "--grid", "2"])
    assert args.expr == ["x^3 + x"]
    assert args.piece == ["box:-1,1"]
    _, args = cli.build_report(
        ["keller", "--map", str(data_dir / "example_family.txt")])
    assert args.expr is None


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "keller_lab.cli",
             "keller", "--expr", "x", "--expr", "y"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        VALIDATOR.validate(report)
        assert report["result"]["is_keller"] is True


README = Path(__file__).resolve().parents[1] / "README.md"
# the map files the README's examples name, and files under tests/data
# that fit each example
README_FILES = {"map.txt": "planar_map.txt",
                "family.txt": "example_family.txt",
                "outer.txt": "example_family.txt",
                "inner.txt": "rank_one_family.txt"}


def readme_commands() -> list[list[str]]:
    """Every keller-lab line of the sh blocks under README's "Command
    line" heading, with continuation lines joined."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", section, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line)
            if words and words[0] == "keller-lab":
                commands.append(words[1:])
    return commands


def test_readme_shows_every_subcommand():
    assert sorted(argv[0] for argv in readme_commands()) == [
        "analytic-check", "compose", "decompose", "inject-sample",
        "inject-symbolic", "inverse", "jacobian", "keller", "member",
        "normal-form-2d", "pvalent", "shear-check"]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_runs(capsys, data_dir, argv):
    argv = [str(data_dir / README_FILES[a]) if a in README_FILES else a
            for a in argv]
    run_json(capsys, argv)


# -- fuzz: every subcommand, good and malformed input -------------------------

# maps by variable count, and ones that do not parse or do not fit
GOOD_MAPS = {
    1: [["x^3 + x"], ["x^2"]],
    2: [["x + y^2", "y"], ["x^3 + x", "y"], ["x^2", "y"], ["x + 2*y^3", "y"],
        ["x + 1/8*(x+y)^2", "y - 1/8*(x+y)^2"]],
    3: [["x1 + (x1+x2+x3)^2", "x2 - (x1+x2+x3)^2", "x3"]],
    4: [["x1 + x4^2", "x2", "x3 - x1^3", "x4"]],
}
BAD_EXPRS = ["x +", "(", "x^^2", "", "1/0", "2*", "x*y*q", "-x", "x^1001",
             "9" * 40, "x4"]
GOOD_DOMAINS = {
    1: ["box:0,1", "box:-1,1/2", "ball:0;1"],
    2: ["box:-1,1;-1,1", "box:1/10,1;-1,1", "ball:0,0;1", "ball:1/3,0;1/2",
        "half:-1,1;-1,1|1,1,0", "box:1,1;2,2"],
    3: ["box:-1,1;-1,1;-1,1", "ball:0,0,0;1/2"],
    4: ["box:-1,1;-1,1;-1,1;-1,1"],
}
BAD_DOMAINS = ["box:1,0;0,1", "ball:0,0;-1", "ball:0,0", "half:0,1;0,1|1,1,-1",
               "half:0,1,2;0,1|1,1,1", "half:0,1|1,1,1", "box:", "box:a,b",
               "box:1/0,1", "circle:1", "", "box:-1,1;-1,1;-1,1"]
GOOD_COEFFS = ["0,1", "0,1:1", "0,0,1", "1,1/2,1/3", "0,1: 0,0:1/4", "5",
               "0,1,1/4", "1/2:-1/3,1", "0,1,0,1/8"]
BAD_COEFFS = ["1:", ",", "", "a", "1/0", "0,,1"]
DATA_FILES = ["example_family.txt", "example_map.txt", "planar_map.txt",
              "rank_one_family.txt", "missing.txt"]
MAP_COMMANDS = ["jacobian", "keller", "inverse", "compose", "decompose",
                "member", "normal-form-2d", "inject-sample",
                "inject-symbolic", "pvalent"]
FUZZ_SECONDS = 5


def _pick(draw, good, bad):
    """A good value three times in four, else a malformed one."""
    return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0
                                else good))


def _fuzz_map_flags(draw, data_dir, n, file_flag, expr_flag):
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return [file_flag, str(data_dir / draw(st.sampled_from(DATA_FILES)))]
    exprs = (draw(st.lists(st.sampled_from(BAD_EXPRS + ["x", "y"]),
                           max_size=3)) if kind == 1
             else draw(st.sampled_from(GOOD_MAPS[n])))
    return [a for e in exprs for a in (expr_flag, e)]


@st.composite
def cli_argvs(draw, data_dir):
    """argv for one cli.main call: each subcommand with a mix of good and
    malformed maps, domains, coefficients, grids and counts, kept small
    enough that a valid request runs in milliseconds."""
    command = draw(st.sampled_from(MAP_COMMANDS + ["shear-check",
                                                   "analytic-check"]))
    n = draw(st.integers(1, 4))
    argv = [command]
    if command in MAP_COMMANDS:
        argv += _fuzz_map_flags(draw, data_dir, n, "--map", "--expr")
    if command == "compose":
        argv += _fuzz_map_flags(draw, data_dir, n, "--with", "--with-expr")
    if command == "inject-sample":
        argv += ["--domain", _pick(draw, GOOD_DOMAINS[n], BAD_DOMAINS),
                 "--trials", str(_pick(draw, [1, 3], [-1, 0])),
                 "--seed", str(draw(st.integers(0, 5))),
                 "--denom-bits", str(_pick(draw, [0, 2, 4], [-1]))]
    if command == "pvalent":
        for _ in range(draw(st.integers(1, 2))):
            argv += ["--piece", _pick(draw, GOOD_DOMAINS[n], BAD_DOMAINS)]
        argv += ["--trials", str(_pick(draw, [1, 3], [-1, 0])),
                 "--seed", str(draw(st.integers(0, 5)))]
    if command == "shear-check":
        argv += ["--h", _pick(draw, GOOD_COEFFS, BAD_COEFFS)]
        if draw(st.booleans()):
            argv += ["--g", _pick(draw, GOOD_COEFFS, BAD_COEFFS)]
        argv += ["--radius", _pick(draw, ["1", "1/2"],
                                   ["0", "-1", "abc", "1/0"]),
                 "--gamma-steps", str(_pick(draw, [1, 8, 40],
                                            [-1, 0, 10 ** 9]))]
    if command == "analytic-check":
        argv += ["--coeffs", _pick(draw, GOOD_COEFFS, BAD_COEFFS),
                 "--domain", _pick(draw, GOOD_DOMAINS[2], BAD_DOMAINS)]
    plots = command in ("jacobian", "keller", "inverse", "compose",
                        "shear-check")
    if plots and draw(st.booleans()):
        argv.append("--plot-data")
    # pvalent always gets a grid: its default of 32 is 2^20 cells in 4-D
    if command == "pvalent" or (plots or command == "analytic-check") and draw(
            st.booleans()):
        argv += ["--grid", str(_pick(draw, [1, 2, 4], [-1, 0, 10 ** 7]))]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--format", _pick(draw, ["json", "csv"], ["xml"])]
    if draw(st.booleans()):
        argv.append("--float")
    return argv


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzz_main_keeps_the_exit_code_contract(data_dir, data):
    argv = data.draw(cli_argvs(data_dir))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < FUZZ_SECONDS
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert err.startswith("error: ") or "usage:" in err
        assert "Traceback" not in err
        return
    assert err == ""
    if "csv" not in argv:
        VALIDATOR.validate(json.loads(out))
