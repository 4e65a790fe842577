"""Command-line interface: reports, formats, exit codes."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import Draft7Validator

from keller_lab import cli
from keller_lab.parser import parse_map

SCHEMA_PATH = (Path(__file__).resolve().parents[1]
               / "src" / "keller_lab" / "schemas" / "report.schema.json")
VALIDATOR = Draft7Validator(json.loads(SCHEMA_PATH.read_text()))

EXAMPLE_EXPRS = [
    "x1 - 11*(x1+x2+x3)^2 - 13*(x1+x2+x3)^3",
    "x2 + 6*(x1+x2+x3)^2 + 9*(x1+x2+x3)^3",
    "x3 + 5*(x1+x2+x3)^2 + 4*(x1+x2+x3)^3",
]


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
                         "--n", "2", "--domain", "pentagon:1"])
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

    def test_option_like_expression_is_usage_error(self, capsys):
        # argparse takes "-x" for an option: exit 2, not SystemExit
        code = cli.main(["keller", "--expr", "-x", "--expr", "y",
                         "--n", "2"])
        assert code == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_option_like_expression_with_equals_form(self, capsys):
        assert cli.main(["keller", "--expr=-x", "--expr", "y",
                         "--n", "2"]) == 0
        capsys.readouterr()

    def test_success_is_zero(self, capsys):
        assert cli.main(["keller", "--expr", "x", "--expr", "y",
                         "--n", "2"]) == 0
        capsys.readouterr()


class TestOutputModes:
    def test_float_rendering(self, capsys):
        report = run_json(capsys, ["jacobian", "--expr", "x + 1/2*y",
                                   "--expr", "y", "--float"])
        assert report["result"]["det"] == "1"
        # matrix entries stay symbolic strings; scalars become floats
        assert report["result"]["n"] == 2

    def test_csv_key_value(self, capsys):
        code = cli.main(["keller", "--expr", "x", "--expr", "y",
                         "--n", "2", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "result.is_keller" in keys
        assert "command" in keys

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


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "keller_lab.cli",
             "keller", "--expr", "x", "--expr", "y", "--n", "2"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        VALIDATOR.validate(report)
        assert report["result"]["is_keller"] is True
