"""Exact rational and polynomial linear algebra."""

import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from keller_lab.families import ZShiftMap
from keller_lab.jacobian import jacobian_matrix, zshift_det_formula
from keller_lab.linalg import (
    PolyMatrix,
    RatMatrix,
    linear_poly_map,
    rat_solve,
)
from keller_lab.poly import Poly, PolyMap

from conftest import rational

# Leibniz-oracle tests skip shrinking: each replay of a failing 6x6 example
# runs the 720-permutation oracle, so shrinking one took minutes
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]


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
        assert RatMatrix([[0, 0]] * 3).rank() == 0

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
        assert res.solution is not None and not res.nullspace
        assert a.apply(res.solution) == (5, 1)

    def test_inconsistent_system(self):
        a = RatMatrix([[1, 1], [1, 1]])
        res = rat_solve(a, (0, 1))
        assert res.solution is None

    def test_underdetermined_nullspace(self):
        a = RatMatrix([[1, 1, 1]])
        res = rat_solve(a, (3,))
        assert res.solution is not None and res.nullspace
        assert len(res.nullspace) == 2
        assert a.apply(res.solution) == (3,)
        for basis_vec in res.nullspace:
            assert a.apply(basis_vec) == (0,)

    def test_rank_reported(self):
        a = RatMatrix([[1, 2], [2, 4], [0, 0]])
        res = rat_solve(a, (1, 2, 0))
        assert res.rank == 1
        assert res.solution is not None

    def test_random_solutions_verify(self):
        rng = random.Random(11)
        for _ in range(30):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            a = RatMatrix([[rational(rng) for _ in range(cols)]
                           for _ in range(rows)])
            b = tuple(rational(rng) for _ in range(rows))
            res = rat_solve(a, b)
            if res.solution is not None:
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


def _poly_entries(rng: random.Random, size: int, n: int) -> list[list[Poly]]:
    out = []
    for _ in range(size):
        row = []
        for _ in range(size):
            p = Poly.zero(n)
            for _ in range(rng.randint(0, 3)):
                mono = tuple(rng.randint(0, 2) for _ in range(n))
                p = p + Poly(n, {mono: rational(rng, 4)})
            row.append(p)
        out.append(row)
    return out


@st.composite
def poly_matrices(draw):
    """Square Poly matrices up to 6x6 in 0-3 variables, with zero
    entries, and some with a zero column or a repeated row."""
    size = draw(st.integers(1, 6))
    n = draw(st.integers(0, 3))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n),
                     st.fractions(min_value=-3, max_value=3,
                                  max_denominator=3))
    entry = st.one_of(st.just([]), st.lists(term, max_size=3))
    rows = [[Poly(n, dict(draw(entry))) for _ in range(size)]
            for _ in range(size)]
    shape = draw(st.sampled_from(["dense", "zero column", "repeated row"]))
    if shape == "zero column":
        col = draw(st.integers(0, size - 1))
        for row in rows:
            row[col] = Poly.zero(n)
    elif shape == "repeated row" and size > 1:
        i, j = draw(st.lists(st.integers(0, size - 1), min_size=2,
                             max_size=2, unique=True))
        rows[i] = list(rows[j])
    return rows


class TestPolyMatrix:
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
            at_point = RatMatrix([[p.eval(point) for p in row]
                                  for row in entries])
            assert m.det().eval(point) == at_point.det()

    @settings(max_examples=80, deadline=None, phases=NO_SHRINK)
    @given(poly_matrices())
    def test_det_matches_leibniz(self, rows):
        assert PolyMatrix(rows).det() == leibniz_det(rows)

    def test_det_never_divides(self, monkeypatch):
        # neither a pivot division nor a polynomial division (whose
        # leading-term steps divide Fractions) may run inside det()
        def refuse(self, other):
            raise AssertionError("the determinant divided")
        rng = random.Random(6)
        coeffs = [[rational(rng, 4) for _ in range(2)] for _ in range(6)]
        jac = jacobian_matrix(PolyMap(ZShiftMap(coeffs).components))
        assert jac.rows == 6
        with monkeypatch.context() as patch:
            for name in ("__truediv__", "__rtruediv__"):
                patch.setattr(Fraction, name, refuse)
            det = jac.det()
        assert not det.is_constant()
        assert det == zshift_det_formula(coeffs)

    @pytest.mark.parametrize("rows", [
        [[1]], [[Fraction(1)]], [[Poly.const(1, 1), 2]],
        [[Poly.const(1, 1), Poly.const(2, 1)]]])
    def test_entries_must_be_poly_of_one_dimension(self, rows):
        with pytest.raises(ValueError, match="entries must be Poly"):
            PolyMatrix(rows)

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
    assert RatMatrix(rows).det() == RatMatrix(list(zip(*rows))).det()


def leibniz_det(rows):
    """Oracle: sum over permutations of sign * prod of one entry per row.

    The entries may be Fractions or Polys.
    """
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
