"""keller-lab benchmark: one workload, one closed loop, checked results.

Usage, from the repository root:

    python3 perfbench/run.py --workload compose-roundtrip --seed 1 \
        --seconds 30 --trace 0

One client in one process and one thread sends the next operation as soon
as the previous one has returned.  A run repeats whole rounds of the
workload until --seconds of wall time have passed, so every run attempts
the same mix.  Each result is checked outside the timed section.  Times
are scaled to a reference host speed by a probe taken around every round
(see speed.py); the unscaled figures go into the metadata.

--trace 0 prints the end-to-end metrics; --trace 1 wraps the program's
layer boundaries (see tracing.py) and prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; the line before it holds the
run's metadata.  Both are also written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

sys.path.insert(0, str(ROOT / "src"))


def import_program():
    """Import keller_lab from this checkout's src/, or stop with exit 1."""
    try:
        import keller_lab
    except ImportError as exc:
        sys.exit(f"error: cannot import keller_lab from {ROOT / 'src'}: {exc}")
    where = Path(keller_lab.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        sys.exit(f"error: keller_lab was imported from {where}, "
                 f"not from {ROOT / 'src'}")
    return keller_lab


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.exists():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def run_metadata(keller_lab, args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "kernel": keller_lab.KERNEL_IMPLEMENTATION,
        "commit": git_commit(),
        "cpu_count": os.cpu_count(),
    }


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up time, speed probe) of fresh processes.

    Set-up is the import of keller_lab plus the generation of the inputs;
    each process runs the speed probe right after it.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "probe_setup.py"), workload,
             str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            check=False)
        if done.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{done.stderr}")
        setup, probe = done.stdout.split()[-2:]
        samples.append((float(setup), float(probe)))
    return samples


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Runner:
    """Runs rounds, times each operation, checks each result."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.completed = 0
        self.problems: set[str] = set()
        # per operation: (seconds, seconds at reference speed); failed
        # operations keep their time here but count as infinitely late
        self.times: list[tuple[float, float]] = []
        self.ok: list[bool] = []

    def run_round(self, ops, traced: bool = False) -> list[float]:
        """Run one round; returns each operation's time in the program."""
        clock = time.perf_counter
        tracer = self.tracer
        times = []
        for index, op in enumerate(ops):
            if traced:
                tracer.op_id = index
                tracer.active = True
                tracer.enter("op")
            start = clock()
            try:
                result = op.run()
            except Exception as exc:  # a fault of the program: count it
                elapsed = clock() - start
                ok = False
                self.problems.add(
                    f"{op.label}: {type(exc).__name__}: {exc}"[:300])
            else:
                elapsed = clock() - start
                ok = True
            finally:
                if traced:
                    tracer.exit()
                    tracer.active = False
            times.append(elapsed)
            self.ok.append(ok)
            self.attempted += 1
            if not ok:
                self.failed += 1
                continue
            self.completed += 1
            if traced and hasattr(result, "stdout"):
                tracer.counts["cli.report.bytes"] += len(
                    result.stdout.encode("utf-8"))
            op.check(result)
        return times

    def keep(self, times: list[float], scale: float) -> None:
        """Record a round's times with the host-speed scale around it."""
        self.times.extend((t, t * scale) for t in times)


def end_to_end(runner: Runner, setup: list[float], column: int) -> dict:
    """The end-to-end metrics from raw (column 0) or scaled (1) times."""
    times = [t[column] for t in runner.times]
    lat = sorted(t if ok else math.inf for t, ok in zip(times, runner.ok))
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (runner.completed / sum(times), "ops/s"),
        "op_ms_p50": (nearest_rank(lat, 0.5) * 1000.0, "ms"),
        "op_ms_p90": (nearest_rank(lat, 0.9) * 1000.0, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MiB"),
    }


# Spans whose self time is reported, and spans whose calls are counted.
SELF_TIMES = [
    "kernel.mul", "kernel.pow", "kernel.add", "kernel.eval", "poly.compose",
    "poly.restrict_segment", "poly.partial", "poly.divexact",
    "jacobian.matrix", "linalg.polydet_cofactor", "linalg.polydet_bareiss",
    "linalg.ratdet", "linalg.rat_solve", "families.z_power",
    "families.inverse", "families.compose_zshift", "factor.decompose",
    "factor.membership", "factor.normal_form", "certify.segment_matrix",
    "certify.grid_cells", "certify.shear", "certify.sampling",
    "parser.parse", "cli.serialize", "cli.handler",
]
CALLS = ["kernel.mul", "kernel.pow", "kernel.add", "kernel.eval",
         "poly.compose", "poly.restrict_segment", "jacobian.matrix",
         "certify.segment_matrix", "parser.parse"]
COUNTS = ["kernel.mul.pairs", "kernel.mul.terms_out", "certify.cells",
          "certify.shear.angles_tried", "cli.report.bytes"]


def per_layer(rounds: list[dict], setup_total: dict, overheads: list[float],
              untraced: list[float]) -> dict:
    """Per-layer metrics of one round of the workload.

    Counts come from the first traced round (every traced round runs the
    same inputs, so they repeat exactly); self times are medians over the
    traced rounds.  families.z_power.setup_s is the time inside z_power
    during set-up, children included, since set-up is where the workload
    expands its maps.
    """
    first = rounds[0]
    out = {}
    for span in SELF_TIMES:
        out[f"{span}.self_s"] = (statistics.median(
            r["self_s"].get(span, 0.0) for r in rounds), "s")
    for span in CALLS:
        out[f"{span}.calls"] = (first["calls"].get(span, 0), "count")
    for name in COUNTS:
        unit = "B" if name.endswith("bytes") else "count"
        out[name] = (first["counts"].get(name, 0), unit)
    pairs = first["counts"].get("kernel.mul.pairs", 0)
    out["kernel.mul.yield"] = (
        first["counts"].get("kernel.mul.terms_out", 0) / pairs if pairs
        else 0.0, "ratio")
    out["poly.compose.peak_terms"] = (
        first["peaks"].get("poly.compose.peak_terms", 0), "terms")
    maps = first["maps"]
    out["jacobian.matrix.calls_per_map"] = (
        first["calls"].get("jacobian.matrix", 0) / maps if maps else 0.0,
        "calls/map")
    out["families.z_power.setup_s"] = (
        setup_total.get("families.z_power", 0.0), "s")
    overhead = statistics.median(overheads)
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.overhead_pct"] = (100.0 * overhead / statistics.median(
        untraced), "%")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    keller_lab = import_program()
    import speed
    import tracing
    import workloads
    if args.workload not in workloads.NAMES:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    meta = run_metadata(keller_lab, args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}"

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        tracer.active = True
        tracer.enter("setup")
    else:
        setup = setup_seconds(args.workload, args.seed)
        meta["setup_probes"] = setup
    pool = workloads.generate(args.workload, args.seed, workdir)
    if tracer is not None:
        tracer.exit()
        tracer.restore()
        setup_total = dict(tracer.total_s)

    runner = Runner(tracer)
    begin = time.perf_counter()
    correct = True
    try:
        if not args.trace:
            # each round is scaled by the mean of the host-speed probes
            # taken just before and just after it
            probes = [speed.probe()]
            while (len(probes) == 1
                   or time.perf_counter() - begin < args.seconds):
                times = runner.run_round(pool[(len(probes) - 1) % len(pool)])
                probes.append(speed.probe())
                runner.keep(times, speed.REFERENCE_S * 2
                            / (probes[-2] + probes[-1]))
            metrics = end_to_end(runner, [
                t * speed.REFERENCE_S / p for t, p in setup], 1)
            meta["raw"] = {name: value for name, (value, _) in end_to_end(
                runner, [t for t, _ in setup], 0).items()}
            meta["speed_probe_s"] = statistics.median(probes)
        else:
            # untraced and traced runs of round 0 alternate, so the
            # overhead compares identical work and counts repeat exactly;
            # which of the two goes first alternates too, against drift
            def scaled_round(traced: bool) -> tuple[float, float]:
                before = speed.probe()
                if traced:
                    tracer.reset()
                    tracing.install(tracer)
                spent = sum(runner.run_round(pool[0], traced=traced))
                tracer.restore()
                scale = speed.REFERENCE_S * 2 / (before + speed.probe())
                return spent * scale, scale

            traced_rounds, overheads, untraced = [], [], []
            tracer.keep_spans = True
            while (not traced_rounds
                   or time.perf_counter() - begin < args.seconds):
                if len(traced_rounds) % 2 == 0:
                    plain, _ = scaled_round(False)
                traced, scale = scaled_round(True)
                if len(traced_rounds) % 2 == 1:
                    plain, _ = scaled_round(False)
                tracer.keep_spans = False
                tally = tracer.tally()
                tally["self_s"] = {name: value * scale
                                   for name, value in tally["self_s"].items()}
                traced_rounds.append(tally)
                overheads.append(traced - plain)
                untraced.append(plain)
            tracer.write_spans(
                OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics = per_layer(traced_rounds, setup_total, overheads,
                                untraced)
    except workloads.CheckError as exc:
        correct = False
        runner.problems.add(f"check failed: {exc}")
        traceback.print_exc(file=sys.stderr)
        metrics = {}

    for problem in sorted(runner.problems):
        print(f"# {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        raw = meta.get("raw", {}).get(name)
        note = "" if raw is None else f"   (raw {raw:.6f})"
        print(f"{name:40s} {value:16.6f} {unit}{note}")
    print(f"attempted {runner.attempted}, failed {runner.failed}, "
          f"correct {str(correct).lower()}")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stem = f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
