"""Tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/tests

Each workload runs one tiny round and passes its checks, and each
workload's check rejects a result with one coefficient changed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from keller_lab import KERNEL_IMPLEMENTATION  # noqa: E402
from keller_lab.linalg import RatMatrix  # noqa: E402
from keller_lab.poly import Poly, PolyMap  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_pool(name: str, tmp_path: Path):
    return workloads.generate(name, 7, tmp_path, tiny=True)[0]


def run_op(op):
    try:
        return op.run()
    except RecursionError:
        return None


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_round_passes_its_checks(name, tmp_path):
    failed = []
    for op in tiny_pool(name, tmp_path):
        result = run_op(op)
        if result is None:
            failed.append(op)
            continue
        op.check(result)
    # only the deep-nesting request may fail, and only in cli-mix
    assert all(workloads.DEEP_EXPR in op.run.args[0] for op in failed)
    assert len(failed) <= (1 if name == "cli-mix" else 0)


def perturbed(p: Poly) -> Poly:
    terms = p.terms
    mono = next(iter(terms))
    terms[mono] += Fraction(1, 7)
    return Poly(p.n, terms)


def test_compose_check_rejects_one_changed_coefficient(tmp_path):
    ops = tiny_pool("compose-roundtrip", tmp_path)
    for op in (ops[0], ops[-1]):  # a round trip and an unrelated pair
        result = op.run()
        op.check(result)
        comps = list(result.components)
        comps[-1] = perturbed(comps[-1])
        with pytest.raises(workloads.CheckError):
            op.check(PolyMap(comps))


def test_segment_check_rejects_any_changed_entry(tmp_path):
    op = tiny_pool("segment-certify", tmp_path)[-1]
    a, det = op.run()
    op.check((a, det))
    for i in range(a.rows):
        for j in range(a.cols):
            rows = [row[:] for row in a.data]
            rows[i][j] += Fraction(1, 3)
            with pytest.raises(workloads.CheckError):
                op.check((RatMatrix(rows), det))


def test_cli_check_rejects_one_changed_coefficient(tmp_path):
    ops = tiny_pool("cli-mix", tmp_path)
    op = next(o for o in ops if o.run.args[0][:2] == ["inverse", "--map"]
              and "--format" not in o.run.args[0])
    result = op.run()
    op.check(result)
    report = json.loads(result.stdout)
    table = report["result"]["coefficient_table"]
    table[0][0] = str(Fraction(table[0][0]) + 1)
    result.stdout = json.dumps(report)
    with pytest.raises(workloads.CheckError):
        op.check(result)


def test_cli_check_rejects_a_wrong_exit_code(tmp_path):
    op = next(o for o in tiny_pool("cli-mix", tmp_path)
              if o.run.args[0][0] == "keller")
    result = op.run()
    result.code = 1
    with pytest.raises(workloads.CheckError):
        op.check(result)


def test_per_layer_metrics_match_the_benchmark_spec(tmp_path):
    names = {m["name"] for m in SPEC["per_layer"]}
    tracer = tracing.Tracer()
    runner = run.Runner(tracer)
    busiest = {"compose-roundtrip": "poly.compose.calls",
               "segment-certify": "certify.segment_matrix.calls",
               "cli-mix": "parser.parse.calls"}
    for name in workloads.NAMES:
        ops = tiny_pool(name, tmp_path / name)
        plain = sum(runner.run_round(ops))
        tracer.reset()
        tracing.install(tracer)
        try:
            traced = sum(runner.run_round(ops, traced=True))
        finally:
            tracer.restore()
        metrics = run.per_layer([tracer.tally()], {}, [traced - plain],
                                [plain])
        assert set(metrics) == names
        assert metrics[busiest[name]][0] > 0
    # the wrappers are gone once restored
    from keller_lab import _kernels, cli
    assert not hasattr(_kernels.mul_terms, "__wrapped__")
    assert not hasattr(cli._HANDLERS["keller"], "__wrapped__")


def test_command_prints_the_contract_line(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "cli-mix",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=False)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(tiny_pool("cli-mix", tmp_path))
    assert result["failed"] <= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    meta = json.loads(lines[-2])["meta"]
    assert meta["seed"] == 3
    assert meta["kernel"] == KERNEL_IMPLEMENTATION
