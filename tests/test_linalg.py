"""Exact rational and polynomial linear algebra."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keller_lab.linalg import (
    PolyMatrix,
    RatMatrix,
    linear_poly_map,
    rat_solve,
)
from keller_lab.poly import Poly

from conftest import rational


class TestRatMatrix:
    def test_identity_and_indexing(self):
        ident = RatMatrix.identity(3)
        assert ident[0, 0] == 1
        assert ident[0, 1] == 0

    def test_matmul(self):
        a = RatMatrix([[1, 2], [3, 4]])
        b = RatMatrix([[0, 1], [1, 0]])
        assert a @ b == RatMatrix([[2, 1], [4, 3]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2]]) @ RatMatrix([[1, 2]])

    def test_apply(self):
        a = RatMatrix([[1, 2], [3, 4]])
        assert a.apply((1, 1)) == (3, 7)

    def test_transpose(self):
        a = RatMatrix([[1, 2, 3], [4, 5, 6]])
        assert a.transpose() == RatMatrix([[1, 4], [2, 5], [3, 6]])

    def test_det_2x2(self):
        assert RatMatrix([[1, 2], [3, 4]]).det() == -2

    def test_det_singular(self):
        assert RatMatrix([[1, 2], [2, 4]]).det() == 0

    def test_det_rational_entries(self):
        a = RatMatrix([[Fraction(1, 2), 1], [1, Fraction(1, 2)]])
        assert a.det() == Fraction(-3, 4)

    def test_det_requires_square(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 2]]).det()

    def test_rank(self):
        assert RatMatrix([[1, 2], [2, 4]]).rank() == 1
        assert RatMatrix.identity(4).rank() == 4
        assert RatMatrix.zeros(3, 2).rank() == 0

    def test_inverse_round_trip(self):
        a = RatMatrix([[2, 1], [7, 4]])
        assert a @ a.inverse() == RatMatrix.identity(2)
        assert a.inverse() @ a == RatMatrix.identity(2)

    def test_inverse_singular_raises(self):
        with pytest.raises(ValueError):
            RatMatrix([[1, 1], [1, 1]]).inverse()

    def test_random_det_multiplicative(self):
        rng = random.Random(7)
        for _ in range(25):
            size = rng.randint(1, 4)
            a = RatMatrix([[rational(rng) for _ in range(size)]
                           for _ in range(size)])
            b = RatMatrix([[rational(rng) for _ in range(size)]
                           for _ in range(size)])
            assert (a @ b).det() == a.det() * b.det()


class TestRatSolve:
    def test_unique_solution(self):
        a = RatMatrix([[2, 1], [1, -1]])
        res = rat_solve(a, (5, 1))
        assert res.unique
        assert a.apply(res.solution) == (5, 1)

    def test_inconsistent_system(self):
        a = RatMatrix([[1, 1], [1, 1]])
        res = rat_solve(a, (0, 1))
        assert not res.consistent
        assert res.solution is None

    def test_underdetermined_nullspace(self):
        a = RatMatrix([[1, 1, 1]])
        res = rat_solve(a, (3,))
        assert res.consistent and not res.unique
        assert len(res.nullspace) == 2
        assert a.apply(res.solution) == (3,)
        for basis_vec in res.nullspace:
            assert a.apply(basis_vec) == (0,)

    def test_rank_reported(self):
        a = RatMatrix([[1, 2], [2, 4], [0, 0]])
        res = rat_solve(a, (1, 2, 0))
        assert res.rank == 1
        assert res.consistent

    def test_random_solutions_verify(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = RatMatrix([[rational(rng) for _ in range(cols)]
                           for _ in range(rows)])
            b = tuple(rational(rng) for _ in range(rows))
            res = rat_solve(a, b)
            if res.consistent:
                assert a.apply(res.solution) == b
            else:
                # Kronecker-Capelli: augmenting must raise the rank
                aug = RatMatrix([list(row) + [bi]
                                 for row, bi in zip(a.data, b)])
                assert aug.rank() == res.rank + 1


class TestLinearPolyMap:
    def test_matches_matrix_action(self):
        a = RatMatrix([[1, 2], [0, 1]])
        f = linear_poly_map(a)
        assert f.eval((3, 4)) == a.apply((3, 4))

    def test_identity_matrix_gives_identity_map(self):
        assert linear_poly_map(RatMatrix.identity(3)).is_identity()


def _poly_entries(rng: random.Random, size: int, n: int,
                  degree: int = 2) -> list[list[Poly]]:
    out = []
    for _ in range(size):
        row = []
        for _ in range(size):
            p = Poly.zero(n)
            for _ in range(rng.randint(0, 3)):
                mono = tuple(rng.randint(0, degree) for _ in range(n))
                p = p + Poly.monomial(n, mono, rational(rng, 4))
            row.append(p)
        out.append(row)
    return out


class TestPolyMatrix:
    def test_eval_matches_entrywise(self):
        x = Poly.variable(2, 1)
        y = Poly.variable(2, 2)
        m = PolyMatrix([[x, y], [y, x]])
        assert m.eval((2, 3)) == RatMatrix([[2, 3], [3, 2]])

    def test_det_2x2(self):
        x = Poly.variable(2, 1)
        y = Poly.variable(2, 2)
        m = PolyMatrix([[x, y], [y, x]])
        assert m.det() == x * x - y * y

    def test_det_of_constant_matrix(self):
        entries = [[Poly.const(1, 3), Poly.const(1, 1)],
                   [Poly.const(1, 1), Poly.const(1, 2)]]
        assert PolyMatrix(entries).det() == Poly.const(1, 5)

    def test_det_matches_eval_then_det(self):
        # the symbolic determinant must commute with evaluation
        rng = random.Random(3)
        for _ in range(20):
            size = rng.randint(1, 5)
            entries = _poly_entries(rng, size, 2)
            m = PolyMatrix(entries)
            point = (rational(rng, 3), rational(rng, 3))
            assert m.det().eval(point) == m.eval(point).det()

    def test_bareiss_and_cofactor_agree(self):
        from keller_lab.linalg import _det_bareiss, _det_cofactor
        rng = random.Random(5)
        for _ in range(10):
            size = rng.randint(2, 5)
            entries = _poly_entries(rng, size, 2, degree=1)
            assert _det_bareiss([row[:] for row in entries], 2) \
                == _det_cofactor([row[:] for row in entries], 2)

    def test_zero_column_gives_zero_det(self):
        zero = Poly.zero(2)
        x = Poly.variable(2, 1)
        m = PolyMatrix([[zero, x], [zero, x]])
        assert m.det().is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.fractions(min_value=-3, max_value=3,
                                      max_denominator=3),
                         min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_transpose_invariant(rows):
    a = RatMatrix(rows)
    assert a.det() == a.transpose().det()


def leibniz_det(rows):
    """Oracle: sum over permutations of sign * prod of one entry per row."""
    total = Fraction(0)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = prod((rows[i][perm[i]] for i in range(len(perm))), start=1)
        total += -term if inversions % 2 else term
    return total


@st.composite
def square_matrices(draw):
    """Square matrices up to 4x4; half of them have one row made a
    combination of the others (zero rows and 1x1 zeros included)."""
    size = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-4, max_value=4,
                                   max_denominator=3))
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if draw(st.booleans()):
        j = draw(st.integers(0, size - 1))
        weights = [draw(entry) for _ in range(size)]
        rows[j] = [sum((weights[i] * rows[i][c] for i in range(size)
                        if i != j), Fraction(0)) for c in range(size)]
    return rows


@settings(max_examples=150, deadline=None)
@given(square_matrices())
def test_det_and_nullspace_against_oracles(rows):
    a = RatMatrix(rows)
    size = len(rows)
    det = a.det()
    assert det == leibniz_det(rows)
    res = rat_solve(a, (0,) * size)
    assert res.rank == a.rank() == size - len(res.nullspace)
    assert (det != 0) == (res.rank == size)
    for vec in res.nullspace:
        assert any(vec)
        assert a.apply(vec) == (0,) * size
    if det:
        assert a @ a.inverse() == RatMatrix.identity(size)
    else:
        with pytest.raises(ValueError):
            a.inverse()
