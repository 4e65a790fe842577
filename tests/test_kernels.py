"""Pure and compiled term-dict kernels must agree exactly."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from keller_lab import _kernels, _purepoly
from keller_lab.poly import Poly

try:
    from keller_lab import _fastpoly
except ImportError:
    _fastpoly = None

LANES = [_purepoly] if _fastpoly is None else [_purepoly, _fastpoly]


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


operand_pairs = st.integers(0, 3).flatmap(
    lambda n: st.tuples(term_dicts(n), term_dicts(n)))


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
        assert _kernels.IMPLEMENTATION in ("pure", "compiled")

    def test_pure_lane_label(self):
        assert _purepoly.IMPLEMENTATION == "pure"

    @pytest.mark.skipif(_fastpoly is None,
                        reason="compiled extension not built")
    def test_compiled_lane_label(self):
        assert _fastpoly.IMPLEMENTATION == "compiled"

    def test_env_override_forces_pure(self):
        code = ("import keller_lab._kernels as k; "
                "print(k.IMPLEMENTATION)")
        env = dict(os.environ, KELLER_LAB_PURE="1")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "pure"


@pytest.mark.skipif(_fastpoly is None,
                    reason="compiled extension not built")
class TestLaneEquivalence:
    @given(term_dicts(3), term_dicts(3))
    def test_add(self, a, b):
        assert _purepoly.add_terms(a, b) == _fastpoly.add_terms(a, b)

    @given(term_dicts(3), term_dicts(3))
    def test_sub(self, a, b):
        assert _purepoly.sub_terms(a, b) == _fastpoly.sub_terms(a, b)

    @given(st.fractions(min_value=-9, max_value=9, max_denominator=5),
           term_dicts(3))
    def test_scale(self, c, a):
        assert _purepoly.scale_terms(c, a) == _fastpoly.scale_terms(c, a)

    @given(term_dicts(2), term_dicts(2))
    def test_mul(self, a, b):
        assert _purepoly.mul_terms(a, b) == _fastpoly.mul_terms(a, b)

    @settings(deadline=None)
    @given(term_dicts(2), st.integers(0, 4))
    def test_pow(self, a, k):
        assert _purepoly.pow_terms(a, k, 2) == _fastpoly.pow_terms(a, k, 2)

    @given(term_dicts(3),
           st.tuples(*[st.fractions(min_value=-5, max_value=5,
                                    max_denominator=4)] * 3))
    def test_eval(self, a, point):
        assert (_purepoly.eval_terms(a, point)
                == _fastpoly.eval_terms(a, point))


@pytest.mark.parametrize("lane", LANES,
                         ids=[m.IMPLEMENTATION for m in LANES])
class TestKernelContracts:
    def test_results_are_canonical(self, lane):
        # cancelling sums must drop keys, never keep zero coefficients
        a = {(1, 0): Fraction(2)}
        b = {(1, 0): Fraction(-2), (0, 1): Fraction(3)}
        assert lane.add_terms(a, b) == {(0, 1): Fraction(3)}
        assert lane.sub_terms(a, a) == {}
        assert lane.mul_terms(a, {}) == {}
        assert lane.scale_terms(Fraction(0), a) == {}

    def test_inputs_not_mutated(self, lane):
        a = {(1,): Fraction(1)}
        b = {(1,): Fraction(-1)}
        lane.add_terms(a, b)
        lane.mul_terms(a, b)
        lane.pow_terms(a, 3, 1)
        assert a == {(1,): Fraction(1)}
        assert b == {(1,): Fraction(-1)}

    def test_pow_zero_is_one(self, lane):
        assert lane.pow_terms({}, 0, 2) == {(0, 0): Fraction(1)}

    def test_pow_negative_rejected(self, lane):
        with pytest.raises(ValueError):
            lane.pow_terms({(1,): Fraction(1)}, -1, 1)

    def test_eval_empty_is_zero(self, lane):
        assert lane.eval_terms({}, (Fraction(2), Fraction(3))) == 0

    def test_eval_exactness(self, lane):
        a = {(2, 1): Fraction(3, 2), (0, 0): Fraction(-1, 3)}
        val = lane.eval_terms(a, (Fraction(1, 3), Fraction(6)))
        assert val == Fraction(3, 2) * Fraction(1, 9) * 6 - Fraction(1, 3)
        assert isinstance(val, Fraction)

    @given(pair=operand_pairs)
    def test_mul_matches_schoolbook(self, lane, pair):
        a, b = pair
        got = lane.mul_terms(a, b)
        assert got == schoolbook_mul(a, b)
        assert all(isinstance(c, Fraction) and c for c in got.values())

    def test_mul_exponents_never_carry(self, lane):
        # a packing base of 8 or less would carry the 8 into the next slot
        one = Fraction(1)
        assert lane.mul_terms({(4, 0): one}, {(4, 0): one}) == {(8, 0): one}
        assert lane.mul_terms({(0, 4): one}, {(0, 4): one}) == {(0, 8): one}
        assert (lane.mul_terms({(3, 5, 0): one}, {(5, 3, 7): Fraction(2)})
                == {(8, 8, 7): Fraction(2)})

    def test_mul_cancelled_terms_dropped(self, lane):
        x, y, c = (1, 0), (0, 1), (0, 0)
        one = Fraction(1)
        # (x - y)(x + y): both cross terms cancel
        got = lane.mul_terms({x: one, y: -one}, {x: one, y: one})
        assert got == {(2, 0): one, (0, 2): -one}
        # (1 + x + x^2)(1 - x) = 1 - x^3: every middle term cancels
        got = lane.mul_terms({c: one, x: one, (2, 0): one}, {c: one, x: -one})
        assert got == {c: one, (3, 0): -one}

    def test_mul_coprime_denominators(self, lane):
        # (x/3 + 1/2)(x/5 + 1/7): denominators share no factor
        a = {(1,): Fraction(1, 3), (0,): Fraction(1, 2)}
        b = {(1,): Fraction(1, 5), (0,): Fraction(1, 7)}
        got = lane.mul_terms(a, b)
        assert got == {(2,): Fraction(1, 15), (1,): Fraction(31, 210),
                       (0,): Fraction(1, 14)}
        # the shared denominator 3 * 4 must reduce away
        got = lane.mul_terms({(1,): Fraction(2, 3)}, {(0,): Fraction(3, 4)})
        assert got == {(1,): Fraction(1, 2)}

    def test_mul_zero_and_one_variables(self, lane):
        assert (lane.mul_terms({(): Fraction(3, 2)}, {(): Fraction(-2, 3)})
                == {(): Fraction(-1)})
        assert lane.mul_terms({(): Fraction(5)}, {}) == {}
        assert lane.pow_terms({(): Fraction(1, 2)}, 3, 0) == {(): Fraction(1, 8)}
        x1 = {(1,): Fraction(1), (0,): Fraction(1)}
        assert lane.mul_terms(x1, x1) == {(2,): Fraction(1), (1,): Fraction(2),
                                          (0,): Fraction(1)}
        assert lane.pow_terms(x1, 4, 1) == {(k,): Fraction(c) for k, c in
                                            enumerate((1, 4, 6, 4, 1))}

    @pytest.mark.parametrize("k", range(7))
    def test_pow_matches_repeated_mul(self, lane, k):
        for a in POW_OPERANDS:
            expected = {(0, 0): Fraction(1)}
            for _ in range(k):
                expected = lane.mul_terms(expected, a)
            assert lane.pow_terms(a, k, 2) == expected

    @settings(deadline=None)
    @given(case=compose_cases)
    def test_compose_matches_substitution(self, lane, case):
        n, (outer, components) = case
        got = _kernels.compose_terms(outer, list(components), n)
        assert got == substitute(outer, components, n)
        assert all(isinstance(c, Fraction) and c for c in got.values())

    def test_compose_results_are_canonical(self, lane):
        one = Fraction(1)
        x = {(1, 0): one}
        x_squared = {(2, 0): one}
        # x1 - x2 and x1^2 - x2 under substitutions that make them vanish
        assert _kernels.compose_terms({(1, 0): one, (0, 1): -one},
                                      [x, x], 2) == {}
        assert _kernels.compose_terms({(2, 0): one, (0, 1): -one},
                                      [x, x_squared], 2) == {}
        assert _kernels.compose_terms({}, [x, x], 2) == {}
        # a zero component kills every monomial that uses its variable
        assert (_kernels.compose_terms({(1, 1): one, (0, 0): Fraction(5)},
                                       [{}, x], 2) == {(0, 0): Fraction(5)})

    def test_compose_coprime_denominators(self, lane):
        # (1/2) g1 g2 + 1/3 with g1 = x/5 + 1/7 and g2 = y/3
        outer = {(1, 1): Fraction(1, 2), (0, 0): Fraction(1, 3)}
        g1 = {(1, 0): Fraction(1, 5), (0, 0): Fraction(1, 7)}
        g2 = {(0, 1): Fraction(1, 3)}
        assert _kernels.compose_terms(outer, [g1, g2], 2) == {
            (1, 1): Fraction(1, 30), (0, 1): Fraction(1, 42),
            (0, 0): Fraction(1, 3)}

    def test_compose_deep_univariate_outer(self, lane):
        # the trie of x^1500 is a chain 1500 deep: no recursion allowed
        g = {(1,): Fraction(1, 2), (0,): Fraction(-1)}
        got = _kernels.compose_terms({(1500,): Fraction(1)}, [g], 1)
        assert got == lane.pow_terms(g, 1500, 1)
        assert len(got) == 1501
