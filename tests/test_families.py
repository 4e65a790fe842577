"""Coordinate-sum shift maps: construction, composition, inversion."""

import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from keller_lab import _kernels, families
from keller_lab.families import (
    RankOneSpec,
    ZShiftMap,
    compose_zshift,
    conjugate,
    keller_zshift_map,
    rank_one_map,
    shear_matrix,
    zshift_from_map,
    zshift_inverse,
)
from keller_lab.jacobian import keller_check
from keller_lab.linalg import RatMatrix, linear_poly_map
from keller_lab.parser import parse_map
from keller_lab.poly import Poly, PolyMap, univariate_coefficients, z_power

from conftest import (
    random_keller_zshift,
    random_point,
    random_rank_one_spec,
    rational,
)


def poly_components(f: ZShiftMap) -> tuple[Poly, ...]:
    """The expansion as it was, by Poly + and * of z_power on Fractions:
    the oracle for ZShiftMap.components, which builds one Fraction per
    distinct value from the integer coefficients of z^l."""
    comps = [Poly.variable(f.n, k + 1) for k in range(f.n)]
    for l, column in enumerate(zip(*f.coeffs), 2):
        zp = z_power(f.n, l)
        comps = [p + zp * c for p, c in zip(comps, column)]
    return tuple(comps)


class TestRankOneSpec:
    def test_zero_sum_enforced(self):
        with pytest.raises(ValueError):
            RankOneSpec((1, 2), (1,))
        RankOneSpec((1, -1), (1,))

    def test_empty_gamma_rejected(self):
        with pytest.raises(ValueError):
            RankOneSpec((), ())

    def test_coefficient_table_is_outer_product(self):
        spec = RankOneSpec((1, 2, -3), (1, 2))
        assert spec.coefficient_table() == (
            (1, 2), (2, 4), (-3, -6))

    def test_dimensions(self):
        spec = RankOneSpec((1, -1), (5, 7, 9))
        assert spec.n == 2
        assert spec.m == 4


class TestZShiftMap:
    def test_components_expand_the_table(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        z = Poly.variable(3, 1) + Poly.variable(3, 2) + Poly.variable(3, 3)
        assert f.components[0] == Poly.variable(3, 1) - 11 * z**2 - 13 * z**3
        assert f.components[1] == Poly.variable(3, 2) + 6 * z**2 + 9 * z**3
        assert f.components[2] == Poly.variable(3, 3) + 5 * z**2 + 4 * z**3

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.integers(0, 5).flatmap(
        lambda width: st.lists(st.lists(
            st.one_of(st.just(Fraction(0)),
                      st.fractions(-20, 20, max_denominator=9)),
            min_size=width, max_size=width), min_size=n, max_size=n))))
    def test_components_match_poly_arithmetic(self, table):
        # zero columns, n = 1 and m = 1 (no column) included
        f = ZShiftMap(table)
        oracle = poly_components(f)
        assert f.components == oracle
        # in z_power's term order, degree by degree
        for comp, want in zip(f.components, oracle):
            assert list(comp.terms) == list(want.terms)
        # equal coefficients of one degree are one Fraction
        for comp in f.components:
            shared = {}
            for mono, c in comp.terms.items():
                assert shared.setdefault((sum(mono), c), c) is c

    def test_each_distinct_value_is_built_once(self):
        f = ZShiftMap([[Fraction(2, 3), 5, -1], [Fraction(-2, 3), 0, 1],
                       [0, -5, 0]])
        for comp, row in zip(f.components, f.coeffs):
            for l, c in enumerate(row, 2):
                values = [v for mono, v in comp.terms.items()
                          if sum(mono) == l]
                # z^2, z^3, z^4 in 3 variables: multinomials {1, 2},
                # {1, 3, 6} and {1, 4, 6, 12}
                assert len(set(map(id, values))) == (l if c else 0)
                assert sorted(set(values)) == sorted(
                    {c * m for m in z_power(3, l).terms.values()} - {0})

    def test_trailing_zero_columns_trimmed(self):
        f = ZShiftMap([[1, 0], [-1, 0]])
        g = ZShiftMap([[1], [-1]])
        assert f.m == g.m == 2
        assert f == g

    def test_identity_is_width_zero(self):
        f = ZShiftMap([[], []])
        assert f.is_identity()
        assert f.m == 1
        assert f.degree() == 1

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            ZShiftMap([[1, 2], [3]])

    def test_eval_uses_coordinate_sum(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        assert f.eval((1, 0, 0)) == (-23, 15, 9)
        assert f.eval((0, 0, 0)) == (0, 0, 0)

    def test_eval_matches_expanded_components(self):
        rng = random.Random(21)
        for _ in range(5):
            f = random_keller_zshift(rng, 3, 4)
            pt = random_point(rng, 3)
            assert f.eval(pt) == PolyMap(f.components).eval(pt)

    def test_column_sums_and_keller(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        assert f.column_sums() == (0, 0)
        assert f.is_keller_family()
        g = ZShiftMap([[1, 0], [0, 1]])
        assert g.column_sums() == (1, 1)
        assert not g.is_keller_family()

    def test_degree_reflects_width(self):
        assert ZShiftMap([[0, 7], [0, -7]]).degree() == 3

    def test_imports_without_the_jacobian_module(self):
        # the family answers for its own determinant
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, keller_lab.families; "
             "print('keller_lab.jacobian' in sys.modules)"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestConstructors:
    def test_rank_one_map_is_keller(self):
        spec = RankOneSpec((1, 2, -3), (1, 2))
        f = rank_one_map(spec)
        assert f.is_keller_family()
        assert keller_check(f).constant_value == 1

    def test_keller_zshift_rejects_bad_columns(self):
        with pytest.raises(ValueError) as err:
            keller_zshift_map([[1, 0], [0, 1]])
        assert "degree" in str(err.value)

    def test_keller_zshift_accepts_good_table(self):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        assert isinstance(f, ZShiftMap)


class TestZShiftRecognition:
    def test_round_trip_from_expressions(self):
        f = parse_map([
            "x1 - 11*(x1+x2+x3)^2 - 13*(x1+x2+x3)^3",
            "x2 + 6*(x1+x2+x3)^2 + 9*(x1+x2+x3)^3",
            "x3 + 5*(x1+x2+x3)^2 + 4*(x1+x2+x3)^3",
        ])
        zmap = zshift_from_map(f)
        assert zmap.coeffs == ((-11, -13), (6, 9), (5, 4))

    def test_zshift_maps_pass_through(self):
        rng = random.Random(3)
        f = random_keller_zshift(rng, 4, 4)
        assert zshift_from_map(PolyMap(f.components)) == f

    def test_rejects_non_zshift(self):
        with pytest.raises(ValueError):
            zshift_from_map(parse_map(["x + y^2", "y"]))

    def test_rejects_shifts_below_degree_two(self):
        with pytest.raises(ValueError):
            zshift_from_map(parse_map(["x + (x+y)", "y"]))

    def test_identity_recognized(self):
        assert zshift_from_map(PolyMap.identity(3)).is_identity()

    def test_matches_the_expand_and_compare_oracle(self, monkeypatch):
        """Random tables, each with one mutation of a term or a degree
        block, give the oracle's table or its exact message, and the
        recognizer runs no kernel to decide."""
        rng = random.Random(18)
        cases = []
        for _ in range(2000):
            n, m = rng.randint(1, 4), rng.randint(1, 5)
            table = [[rational(rng) if rng.random() < 0.7 else 0
                      for _ in range(m - 1)] for _ in range(n)]
            f = _mutated(rng, PolyMap(ZShiftMap(table).components))
            cases.append((f, _outcome(_expand_and_compare, f)))
        _refuse_kernels(monkeypatch)
        for f, want in cases:
            assert _outcome(zshift_from_map, f) == want, f
        # both accepted maps and both messages occur
        assert len({want[-1] if want[0] == "error" else "table"
                    for _, want in cases}) == 3

    def test_recognition_expands_nothing(self, monkeypatch):
        f = parse_map([
            "x1 - 11*(x1+x2+x3)^2 - 13*(x1+x2+x3)^3",
            "x2 + 6*(x1+x2+x3)^2 + 9*(x1+x2+x3)^3",
            "x3 + 5*(x1+x2+x3)^2 + 4*(x1+x2+x3)^3",
        ])
        not_shift = parse_map(["x1 + x1^2 + x1^3", "x2", "x3"])
        _refuse_kernels(monkeypatch)
        zmap = zshift_from_map(f)
        assert zmap.coeffs == ((-11, -13), (6, 9), (5, 4))
        assert zmap.components == f.components
        with pytest.raises(ValueError, match="not polynomials"):
            zshift_from_map(not_shift)

    @pytest.mark.parametrize("change", ["coefficient", "scaled_block"])
    def test_only_the_last_component_failing_is_refused(self, change):
        """Every component holds the same monomials, so the last one's
        multinomials are all computed already: its check still runs."""
        comps = [p.terms for p in ZShiftMap(
            [[3, -2], [Fraction(1, 2), 5], [-7, 1], [1, 1]]).components]
        last = comps[-1]
        if change == "coefficient":  # the x2*x3^2 term, of multinomial 3
            last[(0, 1, 2, 0)] += 1
        else:  # t_3 of the x1-axis term alone, the rest of degree 3 kept
            last[(3, 0, 0, 0)] *= 2
        f = PolyMap(Poly(4, t) for t in comps)
        assert len({frozenset(e for e in p.terms if sum(e) > 1)
                    for p in f.components}) == 1
        with pytest.raises(ValueError, match="not polynomials in the "
                           "coordinate sum"):
            zshift_from_map(f)
        assert _outcome(_expand_and_compare, f) == _outcome(
            zshift_from_map, f)


def _refuse_kernels(monkeypatch) -> None:
    """Make every term-dict kernel, z_power and the expansion charge
    raise."""
    def refuse(*args):
        raise AssertionError("recognition reached a kernel")

    for name in ("add_terms", "sub_terms", "scale_terms", "mul_terms",
                 "pow_terms", "compose_terms", "eval_terms"):
        monkeypatch.setattr(_kernels, name, refuse)
    for name in ("z_power", "charge_power"):
        monkeypatch.setattr(families, name, refuse)


def _expand_and_compare(f: PolyMap) -> ZShiftMap:
    """The recognizer as it was: read a candidate table from the x1-axis,
    expand it, and compare it with f."""
    n, rows = f.n, []
    for k in range(n):
        shift = f.components[k] - Poly.variable(n, k + 1)
        cs = univariate_coefficients({(mono[0],): c for mono, c
                                      in shift.terms.items()
                                      if not any(mono[1:])})
        if cs[0] != 0 or (len(cs) > 1 and cs[1] != 0):
            raise ValueError(
                "map is not a z-shift map: shifts must start at degree 2")
        rows.append(cs[2:])
    width = max(map(len, rows))
    candidate = ZShiftMap(row + (0,) * (width - len(row)) for row in rows)
    if candidate.components != f.components:
        raise ValueError(
            "map is not a z-shift map: shifts are not polynomials in the "
            "coordinate sum")
    return candidate


def _outcome(recognize, f: PolyMap):
    try:
        zmap = recognize(f)
    except ValueError as exc:
        return ("error", str(exc))
    return ("table", zmap.coeffs, zmap.components)


def _mutated(rng: random.Random, f: PolyMap) -> PolyMap:
    """f with one of: a changed coefficient, a dropped term, an added
    monomial of degree 0..6, a scaled degree block, or nothing."""
    comps = [p.terms for p in f.components]
    terms = comps[rng.randrange(f.n)]
    kind = rng.choice(["coefficient", "drop", "add", "scale", "none"])
    if kind == "coefficient" and terms:
        mono = rng.choice(list(terms))
        terms[mono] += rng.choice([1, -1, Fraction(1, 2)])
    elif kind == "drop" and terms:
        del terms[rng.choice(list(terms))]
    elif kind == "add":
        exps = [0] * f.n
        for _ in range(rng.randint(0, 6)):
            exps[rng.randrange(f.n)] += 1
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + rational(rng)
    elif kind == "scale" and terms:
        degree = sum(rng.choice(list(terms)))
        factor = rng.choice([2, -1, Fraction(1, 3)])
        for mono in terms:
            if sum(mono) == degree:
                terms[mono] *= factor
    return PolyMap(Poly(f.n, t) for t in comps)


class TestComposeZShift:
    def test_keller_tables_add(self):
        f = ZShiftMap([[1, 2], [-1, -2]])
        g = ZShiftMap([[3, 0], [-3, 0]])
        assert compose_zshift(f, g).coeffs == ((4, 2), (-4, -2))

    def test_matches_generic_composition(self):
        rng = random.Random(17)
        for _ in range(6):
            n = rng.randint(2, 3)
            outer = random_keller_zshift(rng, n, 3)
            inner = random_keller_zshift(rng, n, 3)
            fast = compose_zshift(outer, inner)
            slow = PolyMap(outer.components).compose(
                PolyMap(inner.components))
            assert PolyMap(fast.components) == slow

    def test_non_keller_inner_substitutes(self):
        # inner column sums feed the outer shifts through s(z)
        outer = ZShiftMap([[1], [1]])       # shift z^2 in both rows
        inner = ZShiftMap([[2], [1]])       # z o inner = z + 3 z^2
        composed = compose_zshift(outer, inner)
        slow = PolyMap(outer.components).compose(PolyMap(inner.components))
        assert PolyMap(composed.components) == slow

    def test_non_keller_tables_match_generic_composition(self):
        # nonzero column sums, unequal widths, an all-zero z^2 column under
        # higher ones, and the identity on either side
        rng = random.Random(23)

        def table(n, width):
            return [[0 if (l == 0 < width - 1) or rng.random() < 0.25
                     else rational(rng) for l in range(width)]
                    for _ in range(n)]

        for n, w_outer, w_inner in [(2, 3, 1), (2, 1, 3), (3, 2, 2),
                                    (4, 2, 2), (3, 0, 2), (2, 2, 0)]:
            outer = ZShiftMap(table(n, w_outer))
            inner = ZShiftMap(table(n, w_inner))
            fast = compose_zshift(outer, inner)
            slow = PolyMap(outer.components).compose(
                PolyMap(inner.components))
            assert PolyMap(fast.components) == slow
            point = random_point(rng, n)
            assert fast.eval(point) == outer.eval(inner.eval(point))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            compose_zshift(ZShiftMap([[1], [-1]]),
                           ZShiftMap([[1], [0], [-1]]))


class TestInverse:
    def test_inverse_negates_table(self):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        g = zshift_inverse(f)
        assert g.coeffs == ((11, 13), (-6, -9), (-5, -4))

    def test_round_trip_is_identity(self):
        rng = random.Random(31)
        for _ in range(8):
            f = random_keller_zshift(rng, rng.randint(2, 4), rng.randint(2, 4))
            g = zshift_inverse(f)
            assert compose_zshift(g, f).is_identity()
            assert compose_zshift(f, g).is_identity()

    def test_generic_composition_confirms(self):
        f = keller_zshift_map([[5, -2], [-5, 2]])
        g = zshift_inverse(f)
        both = PolyMap(g.components).compose(PolyMap(f.components))
        assert both.is_identity()

    def test_point_round_trip(self):
        rng = random.Random(5)
        f = random_keller_zshift(rng, 3, 4)
        g = zshift_inverse(f)
        for _ in range(10):
            pt = random_point(rng, 3)
            assert g.eval(f.eval(pt)) == pt

    def test_non_keller_rejected(self):
        with pytest.raises(ValueError):
            zshift_inverse(ZShiftMap([[1], [1]]))


class TestConjugate:
    def test_identity_conjugation_is_identity(self):
        f = rank_one_map(RankOneSpec((1, -1), (2,)))
        ident = RatMatrix.identity(2)
        assert conjugate(ident, f, ident) == PolyMap(f.components)

    def test_linear_sandwich(self):
        f = PolyMap.identity(2)
        a = RatMatrix([[2, 0], [0, 1]])
        b = RatMatrix([[Fraction(1, 2), 0], [0, 1]])
        g = conjugate(a, f, b)
        assert g.is_identity()

    def test_singular_matrices_rejected(self):
        f = PolyMap.identity(2)
        singular = RatMatrix([[1, 1], [1, 1]])
        with pytest.raises(ValueError):
            conjugate(singular, f, RatMatrix.identity(2))
        with pytest.raises(ValueError):
            conjugate(RatMatrix.identity(2), f, singular)

    def test_matches_pointwise_composition(self):
        rng = random.Random(21)
        for _ in range(40):
            n = rng.randint(1, 4)
            f = PolyMap(Poly(n, {tuple(rng.randint(0, 2) for _ in range(n)):
                                 rational(rng) for _ in range(3)})
                        for _ in range(n))
            a, b = (RatMatrix([[rational(rng) for _ in range(n)]
                               for _ in range(n)]) for _ in range(2))
            if not a.det() or not b.det():
                continue
            g = conjugate(a, f, b)
            for _ in range(3):
                p = random_point(rng, n)
                assert g.eval(p) == a.apply(f.eval(b.apply(p)))


class TestSheared:
    def test_sheared_components_are_sparse(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        g = f.sheared()
        y1 = Poly.variable(3, 1)
        y2 = Poly.variable(3, 2)
        y3 = Poly.variable(3, 3)
        assert g.components[0] == y1 - y2 - y3 - 11 * y1**2 - 13 * y1**3
        assert g.components[1] == y2 + 6 * y1**2 + 9 * y1**3
        assert g.components[2] == y3 + 5 * y1**2 + 4 * y1**3

    def test_sheared_equals_compose_with_shear(self):
        rng = random.Random(8)
        maps = [random_keller_zshift(rng, rng.randint(2, 4), 3)
                for _ in range(4)]
        # zero entries, one variable, and nonzero column sums
        maps += [ZShiftMap([[0, 3, 0], [Fraction(1, 2), 0, 0],
                            [Fraction(-1, 2), -3, 0]]),
                 ZShiftMap([[2, 0, -1]]),
                 ZShiftMap([[1, 2], [1, 0], [0, 5]])]
        for f in maps:
            shear = linear_poly_map(shear_matrix(f.n))
            assert f.sheared() == PolyMap(f.components).compose(shear)

    def test_shear_matrix_shape(self):
        s = shear_matrix(3)
        assert s.data == [
            [Fraction(1), Fraction(-1), Fraction(-1)],
            [Fraction(0), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(1)],
        ]


class TestEqualityAndRepr:
    def test_equality_with_plain_polymap(self):
        f = ZShiftMap([[1], [-1]])
        assert f == PolyMap(f.components)
        assert PolyMap(f.components) == f

    def test_hash_consistency(self):
        f = ZShiftMap([[1], [-1]])
        g = ZShiftMap([[1, 0], [-1, 0]])
        assert hash(PolyMap(f.components)) == hash(g)

    def test_repr_mentions_table(self):
        assert "ZShiftMap" in repr(ZShiftMap([[1], [-1]]))
