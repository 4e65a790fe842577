"""Contracts of the term-dict kernels, checked against independent oracles."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import keller_lab
from keller_lab import _kernels, _purepoly
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

# pow operands: empty, constant, cancelling (x - y), coprime denominators
POW_OPERANDS = [
    {},
    {(0, 0): Fraction(-3, 2)},
    {(1, 0): Fraction(1), (0, 1): Fraction(-1)},
    {(1, 0): Fraction(1, 3), (0, 2): Fraction(2, 5), (0, 0): Fraction(-1, 7)},
]


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
