"""Time one set-up of a workload in a fresh process.

    python3 perfbench/probe_setup.py WORKLOAD SEED

Prints the set-up time and then the host-speed probe (speed.py) taken
right after it, both in seconds.

Set-up is the import of keller_lab and the benchmark's workload module
plus the generation of the workload's inputs from the seed.  The clock
starts before any of those imports; the interpreter's own start-up is
not counted.
"""

import time

_START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

name, seed = sys.argv[1], int(sys.argv[2])
workloads.generate(name, seed, HERE / "out" / "work" / f"{name}-seed{seed}")
setup_s = time.perf_counter() - _START

import speed  # noqa: E402

print(setup_s, speed.probe())
