"""Contracts of the term-dict kernels, checked against independent oracles."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import lcm

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

import keller_lab
from conftest import random_keller_table
from keller_lab import _kernels, _purepoly
from keller_lab.families import ZShiftMap, zshift_inverse
from keller_lab.parser import parse_map
from keller_lab.poly import Poly


def term_dicts(n):
    return st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n),
        st.fractions(min_value=-30, max_value=30,
                     max_denominator=7).filter(bool),
        max_size=8)


def schoolbook_mul(a, b):
    """Oracle: plain Fraction convolution over exponent tuples."""
    out = {}
    for mono_a, coeff_a in a.items():
        for mono_b, coeff_b in b.items():
            mono = tuple(x + y for x, y in zip(mono_a, mono_b))
            out[mono] = out.get(mono, Fraction(0)) + coeff_a * coeff_b
    return {mono: coeff for mono, coeff in out.items() if coeff}


def dict_sum(a, b, sign):
    """Oracle: a + sign * b over a plain dict, zero sums dropped."""
    out = {}
    for terms, s in ((a, 1), (b, sign)):
        for mono, coeff in terms.items():
            out[mono] = out.get(mono, 0) + s * coeff
    return {mono: coeff for mono, coeff in out.items() if coeff}


def naive_eval(a, point):
    """Oracle: sum of c * prod x_i**e_i in Fraction arithmetic."""
    total = Fraction(0)
    for mono, coeff in a.items():
        term = coeff
        for x, e in zip(point, mono):
            term *= x ** e
        total += term
    return total


operand_pairs = st.integers(0, 3).flatmap(
    lambda n: st.tuples(term_dicts(n), term_dicts(n)))

# coordinates: zero, negative, and denominators that share no factor
coordinates = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12))

eval_cases = st.integers(0, 3).flatmap(
    lambda n: st.tuples(term_dicts(n), st.tuples(*[coordinates] * n)))

# integer points of mixed sign, read over units from 1 up
lattice_cases = st.integers(0, 3).flatmap(lambda n: st.tuples(
    term_dicts(n), st.lists(st.tuples(*[st.integers(-9, 9)] * n), max_size=4),
    st.integers(1, 12)))


def substitute(outer, components, n):
    """Oracle: sum of c * prod g_i**e_i, built with Poly + and *."""
    total = Poly.zero(n)
    for mono, coeff in outer.items():
        term = Poly.const(n, coeff)
        for g, e in zip(components, mono):
            for _ in range(e):
                term = term * Poly(n, g)
        total = total + term
    return total.terms


coefficients = st.fractions(min_value=-30, max_value=30,
                            max_denominator=7).filter(bool)


def random_coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                    rng.randint(1, 9))


def random_component(rng, n):
    """A term dict of one to three terms of degree <= 2 in n variables."""
    return {tuple(rng.randint(0, 1) for _ in range(n)): random_coefficient(rng)
            for _ in range(rng.randint(1, 3))}


def compositions(n):
    """An outer term dict of degree <= 4 and n components: zero, constant
    or up to three terms of degree <= 4."""
    exponents = st.tuples(*[st.integers(0, 2)] * n)
    outer = st.dictionaries(exponents.filter(lambda m: sum(m) <= 4),
                            coefficients, max_size=6)
    component = st.one_of(
        st.just({}),
        coefficients.map(lambda c: {(0,) * n: c}),
        st.dictionaries(exponents, coefficients, min_size=1, max_size=3))
    return st.tuples(outer, st.tuples(*[component] * n))


compose_cases = st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), compositions(n)))


def line_moment(kernel, mono, start, end):
    """Oracle: prod (a_k + (b_k - a_k) t)**e_k expanded with pow_terms and
    mul_terms, then c_j t^j integrated over [0, 1] to c_j / (j + 1)."""
    product = {(0,): Fraction(1)}
    for a, b, e in zip(start, end, mono):
        line = {k: c for k, c in (((0,), a), ((1,), b - a)) if c}
        product = kernel.mul_terms(product, kernel.pow_terms(line, e, 1))
    return sum((c / (j + 1) for (j,), c in product.items()), Fraction(0))


# monomials of degree <= 16 and a segment whose end repeats some start
# coordinates (None) and may start or end at zero
segment_cases = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.sets(st.tuples(*[st.integers(0, 4)] * n), max_size=8),
    st.tuples(*[coordinates] * n),
    st.tuples(*[st.one_of(st.none(), coordinates)] * n)))


# pow operands: empty, constant, cancelling (x - y), coprime denominators
POW_OPERANDS = [
    {},
    {(0, 0): Fraction(-3, 2)},
    {(1, 0): Fraction(1), (0, 1): Fraction(-1)},
    {(1, 0): Fraction(1, 3), (0, 2): Fraction(2, 5), (0, 0): Fraction(-1, 7)},
]


def leibniz_terms(rows, n):
    """Oracle: the Leibniz sum of signed products, built with Poly + and *."""
    total = Poly.zero(n)
    for perm in permutations(range(len(rows))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = Poly.const(n, -1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * Poly(n, rows[i][j])
        total = total + term
    return total.terms


# the Leibniz oracle skips shrinking: replaying a failing 5x5 example runs
# 120 products of Poly
NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]

# square matrices of term dicts, sizes 1-5 in 0-3 variables, zero entries
# included
det_cases = st.tuples(st.integers(1, 5), st.integers(0, 3)).flatmap(
    lambda shape: st.tuples(st.just(shape[1]), st.lists(
        st.lists(st.dictionaries(st.tuples(*[st.integers(0, 2)] * shape[1]),
                                 coefficients, max_size=3),
                 min_size=shape[0], max_size=shape[0]),
        min_size=shape[0], max_size=shape[0])))


class TestLaneSelection:
    def test_active_lane_reports_itself(self):
        assert _kernels.IMPLEMENTATION == "pure"
        assert keller_lab.KERNEL_IMPLEMENTATION == _kernels.IMPLEMENTATION

    def test_pure_lane_label(self):
        assert _purepoly.IMPLEMENTATION == "pure"


# one parameter, the kernel poly calls, so each test keeps its [pure] id
@pytest.mark.parametrize("kernel", [_kernels], ids=[_kernels.IMPLEMENTATION])
class TestKernelContracts:
    def test_results_are_canonical(self, kernel):
        # cancelling sums must drop keys, never keep zero coefficients
        a = {(1, 0): Fraction(2)}
        b = {(1, 0): Fraction(-2), (0, 1): Fraction(3)}
        assert kernel.add_terms(a, b) == {(0, 1): Fraction(3)}
        assert kernel.sub_terms(a, a) == {}
        assert kernel.mul_terms(a, {}) == {}
        assert kernel.scale_terms(Fraction(0), a) == {}

    def test_inputs_not_mutated(self, kernel):
        a = {(1,): Fraction(1)}
        b = {(1,): Fraction(-1)}
        kernel.add_terms(a, b)
        kernel.mul_terms(a, b)
        kernel.pow_terms(a, 3, 1)
        assert a == {(1,): Fraction(1)}
        assert b == {(1,): Fraction(-1)}

    def test_pow_zero_is_one(self, kernel):
        assert kernel.pow_terms({}, 0, 2) == {(0, 0): Fraction(1)}

    def test_pow_negative_rejected(self, kernel):
        with pytest.raises(ValueError):
            kernel.pow_terms({(1,): Fraction(1)}, -1, 1)

    @given(pair=operand_pairs)
    def test_add_sub_match_dict_oracle(self, kernel, pair):
        a, b = pair
        assert kernel.add_terms(a, b) == dict_sum(a, b, 1)
        assert kernel.sub_terms(a, b) == dict_sum(a, b, -1)
        assert kernel.add_terms(a, kernel.scale_terms(Fraction(-1), a)) == {}

    @given(c=st.one_of(st.just(Fraction(0)), coefficients), a=term_dicts(3))
    def test_scale_matches_dict_oracle(self, kernel, c, a):
        got = kernel.scale_terms(c, a)
        assert got == {mono: c * coeff for mono, coeff in a.items() if c}
        assert all(isinstance(v, Fraction) and v for v in got.values())

    # always tried: n = 0, a zero coordinate (x^0 is still 1 there) and
    # denominators that share no factor
    @given(case=eval_cases)
    @example(case=({(): Fraction(-3, 4)}, ()))
    @example(case=({(0, 1): Fraction(2, 3), (2, 1): Fraction(5)},
                   (Fraction(0), Fraction(-3, 7))))
    @example(case=({(1, 2): Fraction(1, 3), (0, 0): Fraction(-1)},
                   (Fraction(2, 5), Fraction(-5, 7))))
    def test_eval_matches_naive_sum(self, kernel, case):
        a, point = case
        got = kernel.eval_terms(a, point)
        assert got == naive_eval(a, point)
        assert isinstance(got, Fraction)

    def test_eval_empty_is_zero(self, kernel):
        assert kernel.eval_terms({}, (Fraction(2), Fraction(3))) == 0

    def test_eval_exactness(self, kernel):
        a = {(2, 1): Fraction(3, 2), (0, 0): Fraction(-1, 3)}
        val = kernel.eval_terms(a, (Fraction(1, 3), Fraction(6)))
        assert val == Fraction(3, 2) * Fraction(1, 9) * 6 - Fraction(1, 3)
        assert isinstance(val, Fraction)

    @given(case=lattice_cases)
    @example(case=({}, [(3, -2), (0, 0)], 5))
    @example(case=({(0, 0): Fraction(-3, 4)}, [(1, 1), (-2, 7)], 1))
    @example(case=({(2, 1): Fraction(5, 3), (0, 1): Fraction(-1, 2)},
                   [(-3, 4), (5, -1), (0, 0)], 6))
    @example(case=({(): Fraction(7)}, [()], 3))
    def test_lattice_values_match_naive_sums(self, kernel, case):
        a, points, unit = case
        values, den = kernel.lattice_values(a, points, unit)
        assert isinstance(den, int) and den > 0
        assert all(isinstance(v, int) for v in values)
        assert [Fraction(v, den) for v in values] == [
            naive_eval(a, tuple(Fraction(x, unit) for x in point))
            for point in points]

    @given(pair=operand_pairs)
    def test_mul_matches_schoolbook(self, kernel, pair):
        a, b = pair
        got = kernel.mul_terms(a, b)
        assert got == schoolbook_mul(a, b)
        assert all(isinstance(c, Fraction) and c for c in got.values())

    def test_mul_exponents_never_carry(self, kernel):
        # a packing base of 8 or less would carry the 8 into the next slot
        one = Fraction(1)
        assert kernel.mul_terms({(4, 0): one}, {(4, 0): one}) == {(8, 0): one}
        assert kernel.mul_terms({(0, 4): one}, {(0, 4): one}) == {(0, 8): one}
        assert (kernel.mul_terms({(3, 5, 0): one}, {(5, 3, 7): Fraction(2)})
                == {(8, 8, 7): Fraction(2)})

    def test_mul_cancelled_terms_dropped(self, kernel):
        x, y, c = (1, 0), (0, 1), (0, 0)
        one = Fraction(1)
        # (x - y)(x + y): both cross terms cancel
        got = kernel.mul_terms({x: one, y: -one}, {x: one, y: one})
        assert got == {(2, 0): one, (0, 2): -one}
        # (1 + x + x^2)(1 - x) = 1 - x^3: every middle term cancels
        got = kernel.mul_terms({c: one, x: one, (2, 0): one},
                               {c: one, x: -one})
        assert got == {c: one, (3, 0): -one}

    def test_mul_coprime_denominators(self, kernel):
        # (x/3 + 1/2)(x/5 + 1/7): denominators share no factor
        a = {(1,): Fraction(1, 3), (0,): Fraction(1, 2)}
        b = {(1,): Fraction(1, 5), (0,): Fraction(1, 7)}
        got = kernel.mul_terms(a, b)
        assert got == {(2,): Fraction(1, 15), (1,): Fraction(31, 210),
                       (0,): Fraction(1, 14)}
        # the shared denominator 3 * 4 must reduce away
        got = kernel.mul_terms({(1,): Fraction(2, 3)},
                               {(0,): Fraction(3, 4)})
        assert got == {(1,): Fraction(1, 2)}

    def test_mul_zero_and_one_variables(self, kernel):
        assert (kernel.mul_terms({(): Fraction(3, 2)}, {(): Fraction(-2, 3)})
                == {(): Fraction(-1)})
        assert kernel.mul_terms({(): Fraction(5)}, {}) == {}
        assert (kernel.pow_terms({(): Fraction(1, 2)}, 3, 0)
                == {(): Fraction(1, 8)})
        x1 = {(1,): Fraction(1), (0,): Fraction(1)}
        assert kernel.mul_terms(x1, x1) == {
            (2,): Fraction(1), (1,): Fraction(2), (0,): Fraction(1)}
        assert kernel.pow_terms(x1, 4, 1) == {
            (k,): Fraction(c) for k, c in enumerate((1, 4, 6, 4, 1))}

    @settings(deadline=None)
    @given(a=term_dicts(2), k=st.integers(0, 4))
    def test_pow_matches_schoolbook(self, kernel, a, k):
        expected = {(0, 0): Fraction(1)}
        for _ in range(k):
            expected = schoolbook_mul(expected, a)
        assert kernel.pow_terms(a, k, 2) == expected

    @pytest.mark.parametrize("k", range(7))
    def test_pow_matches_repeated_mul(self, kernel, k):
        for a in POW_OPERANDS:
            expected = {(0, 0): Fraction(1)}
            for _ in range(k):
                expected = kernel.mul_terms(expected, a)
            assert kernel.pow_terms(a, k, 2) == expected

    @pytest.mark.parametrize("k", range(6))
    def test_pow_of_one_term_matches_repeated_mul(self, kernel, k):
        # a one-term base is raised directly: negative and fractional
        # coefficients, a constant, and no variables at all
        for n, a in ((0, {(): Fraction(-3, 2)}), (1, {(2,): Fraction(-1)}),
                     (2, {(0, 0): Fraction(-2, 9)}),
                     (3, {(1, 0, 2): Fraction(5, 7)})):
            expected = {(0,) * n: Fraction(1)}
            for _ in range(k):
                expected = kernel.mul_terms(expected, a)
            assert kernel.pow_terms(a, k, n) == expected

    @settings(deadline=None)
    @given(case=compose_cases)
    def test_compose_matches_substitution(self, kernel, case):
        n, (outer, components) = case
        got = kernel.compose_terms(outer, list(components), n)
        assert got == substitute(outer, components, n)
        assert all(isinstance(c, Fraction) and c for c in got.values())

    def test_compose_results_are_canonical(self, kernel):
        one = Fraction(1)
        x = {(1, 0): one}
        x_squared = {(2, 0): one}
        # x1 - x2 and x1^2 - x2 under substitutions that make them vanish
        assert kernel.compose_terms({(1, 0): one, (0, 1): -one},
                                    [x, x], 2) == {}
        assert kernel.compose_terms({(2, 0): one, (0, 1): -one},
                                    [x, x_squared], 2) == {}
        assert kernel.compose_terms({}, [x, x], 2) == {}
        # a zero component kills every monomial that uses its variable
        assert (kernel.compose_terms({(1, 1): one, (0, 0): Fraction(5)},
                                     [{}, x], 2) == {(0, 0): Fraction(5)})

    def test_compose_coprime_denominators(self, kernel):
        # (1/2) g1 g2 + 1/3 with g1 = x/5 + 1/7 and g2 = y/3
        outer = {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 3)}
        g1 = {(1, 0): Fraction(1, 5), (0, 0): Fraction(1, 7)}
        g2 = {(0, 1): Fraction(1, 3)}
        assert kernel.compose_terms(outer, [g1, g2], 2) == {
            (1, 1): Fraction(1, 30), (0, 1): Fraction(1, 42),
            (0, 0): Fraction(1, 3)}

    def test_compose_deep_univariate_outer(self, kernel):
        # the trie of x^1500 is a chain 1500 deep: no recursion allowed
        g = {(1,): Fraction(1, 2), (0,): Fraction(-1)}
        got = kernel.compose_terms({(1500,): Fraction(1)}, [g], 1)
        assert got == kernel.pow_terms(g, 1500, 1)
        assert len(got) == 1501

    @pytest.mark.parametrize("n, d, top", [
        (2, 6, False), (3, 4, False), (4, 3, False),
        (2, 5, True), (3, 3, True), (4, 2, True)])
    def test_compose_dense_outer(self, kernel, n, d, top):
        # every monomial of degree <= d, as in shift maps, so most trie
        # nodes are deep; or (top) only those of degree d, so no inner trie
        # node is a monomial of outer and its sum comes from its children
        rng = random.Random(f"dense:{n}:{d}:{top}")
        outer = {mono: random_coefficient(rng)
                 for mono in product(range(d + 1), repeat=n)
                 if sum(mono) == d or not top and sum(mono) < d}
        components = [random_component(rng, n) for _ in range(n)]
        assert (kernel.compose_terms(outer, components, n)
                == substitute(outer, components, n))

    def test_compose_chain_with_branch(self, kernel):
        # x1^1500 + x1^1499*x2: a chain 1500 deep that branches at its last
        # inner node, past the default recursion limit
        outer = {(1500, 0): Fraction(1), (1499, 1): Fraction(-2, 5)}
        # a one-term g1 keeps the substitution oracle fast
        components = [{(1, 0): Fraction(-1, 2)},
                      {(0, 1): Fraction(3), (0, 0): Fraction(1, 3)}]
        assert (kernel.compose_terms(outer, components, 2)
                == substitute(outer, components, 2))
        # a two-term g1: g1^1500 - 2/5 g1^1499 g2 = g1^1499 (g1 - 2/5 g2)
        g1 = {(1, 0): Fraction(1, 2), (0, 0): Fraction(-1)}
        g2 = components[1]
        expected = kernel.mul_terms(
            kernel.pow_terms(g1, 1499, 2),
            kernel.sub_terms(g1, kernel.scale_terms(Fraction(2, 5), g2)))
        got = kernel.compose_terms(outer, [g1, g2], 2)
        assert got == expected
        assert len(got) == 3001

    def test_compose_zero_component_under_deep_chain(self, kernel):
        # monomials that use x2 below a chain 200 deep in x1 vanish, and
        # their zero sums must not leak into the result
        outer = {(200, 1): Fraction(3), (200, 0): Fraction(-1, 4),
                 (199, 2): Fraction(5, 7), (0, 3): Fraction(1)}
        components = [{(1, 1): Fraction(2, 3), (0, 0): Fraction(1)}, {}]
        got = kernel.compose_terms(outer, components, 2)
        assert got == substitute(outer, components, 2)
        assert got == kernel.scale_terms(
            Fraction(-1, 4), kernel.pow_terms(components[0], 200, 2))

    @settings(deadline=None)
    @given(case=segment_cases)
    @example(case=(set(), (Fraction(1),), (None,)))
    @example(case=({(0, 0), (2, 1)}, (Fraction(0), Fraction(1, 3)),
                   (Fraction(1, 2), None)))
    def test_segment_moments_match_expanded_lines(self, kernel, case):
        monos, start, ends = case
        end = tuple(a if b is None else b for a, b in zip(start, ends))
        moments, unit = kernel.segment_moments(monos, start, end)
        assert set(moments) == monos
        for mono in monos:
            assert (Fraction(moments[mono], unit)
                    == line_moment(kernel, mono, start, end))
        # one shared unit: lcm(1..d+1) * D**d
        deg = max((sum(mono) for mono in monos), default=0)
        den = lcm(*[c.denominator for a, b in zip(start, end)
                    for c in (a, b - a)])
        assert unit == lcm(*range(1, deg + 2)) * den ** deg

    def test_segment_moments_pinned(self, kernel):
        half = Fraction(1, 2)
        # x^2 on [-1, 1] gives 1/3; x*y along x = t, y = 1 - t gives 1/6;
        # the empty monomial integrates to 1 and a zero line to 0
        cases = [({(2,)}, (Fraction(-1),), (Fraction(1),),
                  {(2,): Fraction(1, 3)}),
                 ({(1, 1), (0, 0)}, (Fraction(0), Fraction(1)),
                  (Fraction(1), Fraction(0)),
                  {(1, 1): Fraction(1, 6), (0, 0): Fraction(1)}),
                 ({(0, 3), (1, 0)}, (half, Fraction(0)), (half, Fraction(0)),
                  {(0, 3): Fraction(0), (1, 0): half})]
        for monos, start, end, want in cases:
            moments, unit = kernel.segment_moments(monos, start, end)
            assert {m: Fraction(v, unit) for m, v in moments.items()} == want

    def test_det_results_are_canonical(self, kernel):
        one = Fraction(1)
        x, y = {(1, 0): one}, {(0, 1): Fraction(-2, 3)}
        rows = [[x, y], [y, {(1, 0): Fraction(1, 2), (0, 0): one}]]
        before = [[dict(p) for p in row] for row in rows]
        got = kernel.det_terms(rows, 2)
        # x * (x/2 + 1) - (2/3 y)^2
        assert got == {(2, 0): Fraction(1, 2), (1, 0): one,
                       (0, 2): Fraction(-4, 9)}
        assert all(isinstance(c, Fraction) and c for c in got.values())
        assert rows == before

    def test_det_one_by_one_and_constants(self, kernel):
        entry = {(2, 1): Fraction(-3, 4), (0, 0): Fraction(5)}
        assert kernel.det_terms([[entry]], 2) == entry
        assert kernel.det_terms([[{}]], 2) == {}
        # every row degree 0: the packing base is its floor of 2, in
        # one variable and in none
        const = [[{(0,): Fraction(c)} for c in row]
                 for row in ((3, 1, 0), (1, 2, 1), (0, 1, 4))]
        assert kernel.det_terms(const, 1) == {(0,): Fraction(17)}
        assert (kernel.det_terms([[{(): Fraction(1, 2)}, {(): Fraction(3)}],
                                  [{(): Fraction(1, 5)}, {(): Fraction(2)}]],
                                 0) == {(): Fraction(2, 5)})

    def test_det_cancels_to_zero(self, kernel):
        one = Fraction(1)
        x, y, c = {(1, 0): one}, {(0, 1): one}, {(0, 0): one}
        xy = {(1, 1): one}
        # equal rows; x * y - xy * 1 with every term cancelling
        assert kernel.det_terms([[x, y], [x, y]], 2) == {}
        assert kernel.det_terms([[x, xy], [c, y]], 2) == {}
        # a zero row, at the bottom and at the top
        assert kernel.det_terms([[x, y], [{}, {}]], 2) == {}
        assert kernel.det_terms([[{}, {}, {}], [x, y, c], [c, x, y]], 2) == {}

    def test_det_coprime_denominators(self, kernel):
        # (x/3)(y/2) - (1/5)(1/7): the shared denominator 210 must reduce
        rows = [[{(1, 0): Fraction(1, 3)}, {(0, 0): Fraction(1, 5)}],
                [{(0, 0): Fraction(1, 7)}, {(0, 1): Fraction(1, 2)}]]
        assert kernel.det_terms(rows, 2) == {(1, 1): Fraction(1, 6),
                                             (0, 0): Fraction(-1, 35)}

    def test_det_exponents_never_carry(self, kernel):
        # row degrees 4 + 4: a packing base of 8 would carry the 8
        one = Fraction(1)
        assert (kernel.det_terms([[{(4, 0): one}, {}], [{}, {(4, 0): one}]],
                                 2) == {(8, 0): one})
        assert (kernel.det_terms([[{}, {(0, 4): one}], [{(0, 4): one}, {}]],
                                 2) == {(0, 8): -one})
        rows = [[{(3, 5, 0): one}, {(0, 0, 0): one}],
                [{(0, 0, 0): Fraction(2)}, {(5, 3, 7): Fraction(2)}]]
        assert kernel.det_terms(rows, 3) == {(8, 8, 7): Fraction(2),
                                             (0, 0, 0): Fraction(-2)}

    @settings(max_examples=60, deadline=None, phases=NO_SHRINK)
    @given(case=det_cases)
    def test_det_matches_leibniz(self, kernel, case):
        n, rows = case
        assert kernel.det_terms(rows, n) == leibniz_terms(rows, n)


def digit_table(rng, n, m, digits):
    """A zero-sum shift table for degrees 2..m whose entries have
    numerators and denominators of the given number of digits."""
    lo, hi = 10 ** (digits - 1), 10 ** digits - 1
    rows = [[Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi),
                      rng.randint(lo, hi)) for _ in range(m - 1)]
            for _ in range(n - 1)]
    rows.append([-sum(col) for col in zip(*rows)])
    return rows


def round_trips(table):
    """(outer, inner) term-dict maps of f^-1 o f and f o f^-1, where f is
    the shift map of the table."""
    f = ZShiftMap(table)
    terms = [c.terms for c in f.components]
    inverse = [c.terms for c in zshift_inverse(f).components]
    return [(inverse, terms), (terms, inverse)]


def parsed_pair(outer, inner):
    return [([c.terms for c in parse_map(outer).components],
             [c.terms for c in parse_map(inner).components])]


# compositions on each side of compose_terms' fold rule: dense shift maps
# fold x_n; 20-digit coefficients need slots over 400 bits, and three terms
# spread over 31 slots fill too few, so those keep the plain keys
FOLD_SIDES = {
    **{f"shift ({n},{m})": (True, lambda n=n, m=m: round_trips(
        random_keller_table(random.Random(f"fold:{n},{m}"), n, m)))
       for n, m in ((2, 3), (2, 6), (3, 3), (4, 3))},
    # z^3 alone is homogeneous, so each of its x_n-fibres holds one term,
    # but x_k + c*z^3 is dense in products: it folds
    "shift (4,3), z^3 alone": (True, lambda: round_trips(
        [(0, 2), (0, -1), (0, Fraction(1, 3)), (0, Fraction(-4, 3))])),
    "20-digit table": (False, lambda: round_trips(
        digit_table(random.Random("fold:20"), 2, 3, 20))),
    "sparse degree 30": (False, lambda: parsed_pair(
        ["x1 + 3*x1^2 - 7/5*x1^30"], ["x1 - 2/9*x1^3 + x1^30"])),
}


def slot_width_of(outer, components):
    """compose_terms' slot width, from numerators scaled here: the outer's
    over the lcm q of its denominators, the components' over their shared
    lcm D."""
    q = lcm(*[c.denominator for c in outer.values()])
    shared = lcm(*[c.denominator for g in components for c in g.values()])
    top = sum(abs(int(c * q)) for c in outer.values())
    numerators = [{mono: int(c * shared) for mono, c in g.items()}
                  for g in components]
    deg = max(sum(mono) for mono in outer)
    return (_purepoly._slot_width(top, shared, numerators, deg),
            q * shared ** deg)


def assert_width_bounds(outer, components, n):
    """Every numerator of the composition over q * D**deg fits a balanced
    slot of the width compose_terms would choose."""
    if not outer:
        return
    width, den = slot_width_of(outer, components)
    for coeff in _purepoly.compose_terms(outer, components, n).values():
        numerator = coeff * den
        assert numerator.denominator == 1
        assert abs(numerator) < 2 ** (width - 1)


class TestFoldedCompose:
    """compose_terms' fold of x_n into the numerators (x_n -> 2**width)."""

    @pytest.fixture
    def fold_calls(self, monkeypatch):
        """The widths of every _folded call, one per folded component."""
        calls = []
        fold = _purepoly._folded

        def recording(packed, base, width):
            calls.append(width)
            return fold(packed, base, width)

        monkeypatch.setattr(_purepoly, "_folded", recording)
        return calls

    @pytest.mark.parametrize("n", [1, 3])
    def test_fold_round_trip_at_the_slot_limits(self, n):
        # both balanced limits, zero slots between them and a negative top
        # slot; with n = 1 every key folds into head 0
        width, base = 8, 10
        edge = 2 ** (width - 1) - 1
        fibres = {0: [edge, 0, -edge, 0, 0, 3, -edge],
                  1: [-edge, edge, 0, -1],
                  5: [0, 0, edge]}
        if n == 1:
            fibres = {0: fibres[0]}
        packed = {head * base + e: num for head, fibre in fibres.items()
                  for e, num in enumerate(fibre) if num}
        folded = _purepoly._folded(packed, base, width)
        assert folded == {head: sum(num << (width * e)
                                    for e, num in enumerate(fibre))
                          for head, fibre in fibres.items()}
        assert folded[0] < 0
        assert _purepoly._unfolded(folded, base, width) == packed

    def test_unfold_drops_zero_fibres_and_skips_zero_slots(self):
        assert _purepoly._unfolded({0: 0, 3: 0}, 5, 6) == {}
        # one term atop 10^5 zero slots, as y^38 under y -> y^1000 leaves
        # it: read slot by slot, this takes over a second
        top = 10 ** 5
        assert (_purepoly._unfolded({2: -3 << (3 * top)}, top + 1, 3)
                == {2 * (top + 1) + top: -3})

    @pytest.mark.parametrize("name", FOLD_SIDES)
    def test_each_side_of_the_rule_matches_substitution(self, name,
                                                        fold_calls):
        folds, build = FOLD_SIDES[name]
        for outer, inner in build():
            n = len(inner)
            for component in outer:
                del fold_calls[:]
                got = _purepoly.compose_terms(component, inner, n)
                assert got == substitute(component, inner, n)
                # a folding call folds each of its n components once
                assert len(fold_calls) == (n if folds else 0)

    @pytest.mark.parametrize("outer, components, want", [
        # y^38 under (a 1000-term sum in x, y^1000): the dense component is
        # unused, and y^1000 is one term spanning 1001 slots
        ({(0, 38): Fraction(1)},
         [{(k, 0): Fraction(1) for k in range(1000)},
          {(0, 1000): Fraction(1)}], {(0, 38000): Fraction(1)}),
        # x^30000 under -x: every step would multiply a longer int
        ({(30000,): Fraction(1)}, [{(1,): Fraction(-1)}],
         {(30000,): Fraction(1)}),
    ])
    def test_unused_and_one_term_components_keep_the_plain_keys(
            self, outer, components, want, fold_calls):
        n = len(components)
        assert _purepoly.compose_terms(outer, components, n) == want
        assert fold_calls == []

    @settings(deadline=None)
    @given(case=compose_cases)
    def test_slot_width_bounds_every_numerator(self, case):
        n, (outer, components) = case
        assert_width_bounds(outer, list(components), n)

    @pytest.mark.parametrize("shape", [(2, 3), (2, 6), (4, 3)])
    def test_slot_width_bounds_seven_digit_round_trips(self, shape):
        table = digit_table(random.Random(f"width:{shape}"), *shape, 7)
        for outer, inner in round_trips(table):
            for component in outer:
                assert_width_bounds(component, inner, len(inner))
