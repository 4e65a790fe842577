"""Jacobian matrices, determinants, and the Keller predicate."""

import random
from fractions import Fraction

import pytest

from keller_lab.families import ZShiftMap, shear_matrix
from keller_lab.jacobian import (
    KellerVerdict,
    jacobian_det,
    jacobian_matrix,
    keller_check,
    zshift_det_formula,
)
from keller_lab.linalg import PolyMatrix, linear_poly_map
from keller_lab.parser import parse_map
from keller_lab.poly import Poly, PolyMap, coordinate_sum

from conftest import (
    random_keller_table,
    random_keller_zshift,
    rational,
    shift_maps,
)


class TestJacobianMatrix:
    def test_entry_orientation(self):
        # entry (i, j) is the partial of component j by variable i
        f = parse_map(["x + y^2", "y"])
        jm = jacobian_matrix(f)
        assert jm[0, 0] == 1
        assert jm[1, 0] == 2 * Poly.variable(2, 2)
        assert jm[0, 1] == 0
        assert jm[1, 1] == 1

    def test_identity_map(self):
        jm = jacobian_matrix(PolyMap.identity(3))
        for i in range(3):
            for j in range(3):
                assert jm[i, j] == (1 if i == j else 0)

    def test_linear_map_matches_matrix(self):
        from keller_lab.linalg import RatMatrix
        a = RatMatrix([[1, 2], [3, 4]])
        jm = jacobian_matrix(linear_poly_map(a))
        for i in range(2):
            for j in range(2):
                # component j is sum_i a[j][i] x_i, so the Jacobian in the
                # (variable, component) orientation is the transpose
                assert jm[i, j] == a[j, i]


class TestShiftMapJacobian:
    """A z-shift map in n >= 2 variables takes 2n partials, and its
    off-diagonal entries share one Poly per column."""

    @pytest.mark.parametrize("f", shift_maps(28))
    def test_2n_partials_match_the_n_squared_matrix(self, monkeypatch, f):
        want = jacobian_matrix(PolyMap(f.components))
        calls = []
        partial = Poly.partial

        def counting(p, i):
            calls.append(i)
            return partial(p, i)

        monkeypatch.setattr(Poly, "partial", counting)
        got = jacobian_matrix(f)
        assert len(calls) == 2 * f.n
        assert got.data == want.data
        for j in range(f.n):
            assert len({id(got[i, j]) for i in range(f.n) if i != j}) == 1

    def test_one_variable_takes_its_one_partial(self):
        jm = jacobian_matrix(ZShiftMap([[3, -1]]))
        assert jm[0, 0] == parse_map(["x + 3*x^2 - x^3"]).components[
            0].partial(1)


class TestJacobianDet:
    def test_generic_det(self):
        f = parse_map(["x + y^2", "y"])
        assert jacobian_det(f) == 1

    def test_non_keller_det(self):
        f = parse_map(["x^2", "y"])
        assert jacobian_det(f) == 2 * Poly.variable(2, 1)

    def test_closed_form_hook_is_used_and_correct(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        det = jacobian_det(f)
        assert det == 1
        # cross-check against the dense symbolic determinant
        dense = jacobian_matrix(PolyMap(f.components)).det()
        assert dense == det

    def test_chain_rule(self):
        rng = random.Random(2)
        for _ in range(5):
            f = random_keller_zshift(rng, 3, 3)
            g = random_keller_zshift(rng, 3, 3)
            composed = PolyMap(f.components).compose(PolyMap(g.components))
            lhs = jacobian_det(composed)
            rhs = jacobian_det(f).compose(PolyMap(g.components)) \
                * jacobian_det(g)
            assert lhs == rhs


class TestKellerCheck:
    def test_keller_verdict_carries_constant(self):
        verdict = keller_check(ZShiftMap([[-11, -13], [6, 9], [5, 4]]))
        assert verdict.is_keller
        assert verdict.constant_value == 1
        assert verdict.det == 1

    def test_non_keller_verdict(self):
        verdict = keller_check(parse_map(["x^2", "y"]))
        assert not verdict.is_keller
        assert verdict.constant_value is None

    def test_scaled_map_keeps_nonunit_constant(self):
        f = parse_map(["2*x", "y"])
        verdict = keller_check(f)
        assert verdict.is_keller
        assert verdict.constant_value == 2

    def test_verdict_validation(self):
        with pytest.raises(ValueError):
            KellerVerdict(True, Poly.const(1, 1), None)


class TestZShiftDetFormula:
    def test_matches_generic_determinant(self):
        rng = random.Random(9)
        for _ in range(10):
            n = rng.randint(1, 3)
            m = rng.randint(2, 4)
            coeffs = [[rational(rng, 4) for _ in range(m - 1)]
                      for _ in range(n)]
            formula = zshift_det_formula(coeffs)
            dense = jacobian_matrix(
                PolyMap(ZShiftMap(coeffs).components)).det()
            assert formula == dense

    def test_nonzero_column_sums_show_up(self):
        det = zshift_det_formula([[1]])
        # single variable, p^(2) = 1: det = 1 + 2z
        assert det == 1 + 2 * coordinate_sum(1)

    def test_keller_table_gives_unit_det(self):
        rng = random.Random(4)
        coeffs = random_keller_table(rng, 4, 5)
        assert zshift_det_formula(coeffs) == 1

    @pytest.mark.parametrize("coeffs", [
        [[], []],
        [[]],
        [[1, 0, 0], [2, 0, 0]],
        [[0, 0], [0, 0], [0, 0]],
        [[Fraction(1, 2), 3, 0], [-1, Fraction(-2, 3), 0]],
        [[1, -1, 0, 0], [-1, 1, 0, 0]],
    ])
    def test_raw_tables_match_the_dense_determinant(self, coeffs):
        # components built by hand from powers of z, zero columns included
        n = len(coeffs)
        z = coordinate_sum(n)
        f = PolyMap(sum((z ** l * c for l, c in enumerate(row, 2)),
                        Poly.variable(n, k + 1))
                    for k, row in enumerate(coeffs))
        assert zshift_det_formula(coeffs) == jacobian_matrix(f).det()

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValueError):
            zshift_det_formula([[1, 2], [3]])
        with pytest.raises(ValueError):
            zshift_det_formula([])


class TestShearedDeterminant:
    def test_shear_matrix_is_unimodular(self):
        for n in (2, 3, 5):
            assert shear_matrix(n).det() == 1

    def test_sheared_map_det_agrees_with_direct_det(self):
        # determinant of the sheared map equals det Df composed with the
        # shear, so both are the same constant whenever either one is
        rng = random.Random(13)
        for _ in range(6):
            n = rng.randint(2, 3)
            f = random_keller_zshift(rng, n, 3)
            g = f.sheared()
            det_sheared = jacobian_matrix(g).det()
            det_direct = jacobian_matrix(PolyMap(f.components)).det()
            shear = linear_poly_map(shear_matrix(n))
            assert det_sheared == det_direct.compose(shear)

    def test_sheared_map_of_non_keller_table(self):
        f = ZShiftMap([[1, 0], [0, 2]])  # column sums 1 and 2: not Keller
        g = f.sheared()
        det = jacobian_matrix(g).det()
        z1 = Poly.variable(2, 1)
        assert det == 1 + 2 * z1 + 6 * z1 * z1
