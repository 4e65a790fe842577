"""Shared randomized generators for map families.

All randomness is seeded by the caller so every test is reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from keller_lab.families import RankOneSpec, ZShiftMap, zshift_from_map
from keller_lab.parser import parse_map

DATA_DIR = Path(__file__).parent / "data"


def rational(rng: random.Random, span: int = 9) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def random_keller_table(rng: random.Random, n: int, m: int
                        ) -> tuple[tuple[Fraction, ...], ...]:
    """An n-row coefficient table for degrees 2..m with zero column sums."""
    cols = m - 1
    rows = [[rational(rng) for _ in range(cols)] for _ in range(n - 1)]
    last = [-sum(col) for col in zip(*rows)] if rows else [Fraction(0)] * cols
    rows.append(last if cols else [])
    return tuple(tuple(row) for row in rows)


def shift_texts(table) -> list[str]:
    """x_k + sum_l p_k^(l) * (x1+...+xn)^l, written term by term as a user
    (and the benchmark's cli-mix) writes a shift map."""
    z = "(" + "+".join(f"x{i}" for i in range(1, len(table) + 1)) + ")"
    return [f"x{k}" + "".join(f" {'-' if c < 0 else '+'} {abs(c)}*{z}^{l}"
                              for l, c in enumerate(row, 2) if c)
            for k, row in enumerate(table, 1)]


def shift_maps(seed: int) -> list:
    """ZShiftMaps in n = 2..6 variables, Keller and not, with a zero column
    and a zero row: each built from its table and read from expressions,
    as pytest parameters."""
    rng = random.Random(seed)
    out = []
    for n in range(2, 7):
        keller = [list(row) for row in random_keller_table(rng, n, 4)]
        for row in keller:
            row[1] = Fraction(0)  # degree 3 left out
        free = [[rational(rng) for _ in range(2)] for _ in range(n)]
        free[-1] = [Fraction(0)] * 2
        for kind, table in (("keller", keller), ("free", free)):
            out += [pytest.param(ZShiftMap(table), id=f"n{n}-{kind}-table"),
                    pytest.param(zshift_from_map(parse_map(shift_texts(table))),
                                 id=f"n{n}-{kind}-expr")]
    return out


def random_keller_zshift(rng: random.Random, n: int, m: int) -> ZShiftMap:
    return ZShiftMap(random_keller_table(rng, n, m))


def random_rank_one_spec(rng: random.Random, n: int, m: int) -> RankOneSpec:
    gamma = [rational(rng) for _ in range(n - 1)]
    gamma.append(-sum(gamma))
    alphas = [rational(rng) for _ in range(m - 1)]
    return RankOneSpec(tuple(gamma), tuple(alphas))


def random_point(rng: random.Random, n: int, span: int = 5
                 ) -> tuple[Fraction, ...]:
    return tuple(rational(rng, span) for _ in range(n))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
