"""A fixed piece of pure-Python work that gauges the host's current speed.

The measuring host is a shared virtual machine whose speed drifts by tens
of percent over minutes, for every process alike.  The benchmark runs this
probe between rounds (and after each set-up), outside every timed section,
and scales the times measured around it by REFERENCE_S / probe time.  A
time is thereby reported as it would read at a fixed host speed: the speed
at which one probe takes REFERENCE_S.  The probe does not touch keller_lab,
so a change to the program moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# What one probe takes on the measuring host at its usual speed; any fixed
# value would do, this one keeps scaled times close to raw ones there.
REFERENCE_S = 0.007
REPEATS = 3


def _work() -> dict:
    # a schoolbook square of a 36-term dict with Fraction values and
    # tuple keys, the same kind of work as the program's pure kernel
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(6) for j in range(6)}
    out: dict = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in a.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def probe() -> float:
    """Median wall time of a few runs of the fixed work, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
