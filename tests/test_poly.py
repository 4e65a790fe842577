"""Core polynomial arithmetic: exactness, ordering, calculus helpers."""

import json
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from keller_lab import _purepoly, cli
from keller_lab.families import ZShiftMap
from keller_lab.parser import ParseError, parse_map, parse_map_file, parse_poly
from keller_lab.poly import (
    MAX_EXPONENT,
    MAX_WORK,
    ExpansionLimitError,
    Poly,
    PolyMap,
    as_rational,
    coordinate_sum,
    grlex_key,
    z_power,
)


def xy():
    return Poly.variable(2, 1), Poly.variable(2, 2)


class TestConstruction:
    def test_zero_has_no_terms_and_degree_minus_one(self):
        z = Poly.zero(3)
        assert z.is_zero()
        assert z.degree() == -1
        assert len(z) == 0

    def test_constant(self):
        c = Poly.const(2, Fraction(3, 2))
        assert c.is_constant()
        assert c.constant_value() == Fraction(3, 2)
        assert c.degree() == 0

    def test_zero_coefficient_is_dropped(self):
        c = Poly.const(2, 0)
        assert c.is_zero()
        assert c.constant_value() == 0

    def test_variable_bounds(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 0)
        with pytest.raises(ValueError):
            Poly.variable(2, 3)

    def test_monomial(self):
        m = Poly(3, {(1, 0, 2): Fraction(5)})
        assert m.degree() == 3
        assert m.coefficient((1, 0, 2)) == 5
        assert m.coefficient((0, 0, 0)) == 0

    def test_as_rational_accepts_strings_and_rejects_floats(self):
        assert as_rational("3/4") == Fraction(3, 4)
        assert as_rational(7) == 7
        with pytest.raises(TypeError):
            as_rational(0.5)


class TestArithmetic:
    def test_addition_cancels(self):
        x, y = xy()
        assert (x + y) - x == y
        assert x - x == Poly.zero(2)

    def test_scalar_multiplication(self):
        x, _ = xy()
        assert x * 2 == x + x
        assert 2 * x == x + x
        assert x * Fraction(1, 2) + x * Fraction(1, 2) == x

    def test_product_expands(self):
        x, y = xy()
        p = (x + y) * (x - y)
        assert p == x * x - y * y

    def test_power(self):
        x, y = xy()
        p = (x + y) ** 3
        assert p.coefficient((2, 1)) == 3
        assert p.coefficient((0, 3)) == 1
        assert (x ** 0) == Poly.const(2, 1)
        with pytest.raises(ValueError):
            x ** -1

    def test_equality_against_scalars(self):
        assert Poly.const(2, 5) == 5
        assert Poly.zero(2) == 0
        assert Poly.const(2, Fraction(1, 3)) == Fraction(1, 3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Poly.variable(2, 1) + Poly.variable(3, 1)

    def test_hashable(self):
        x, y = xy()
        assert len({x + y, y + x, x}) == 2


class TestOrderingAndParts:
    def test_grlex_orders_by_total_degree_first(self):
        assert grlex_key((0, 2)) > grlex_key((1, 0))
        assert grlex_key((2, 0)) > grlex_key((1, 1))

    def test_sorted_terms_descending(self):
        x, y = xy()
        p = x + y * y + Poly.const(2, 7)
        monos = [m for m, _ in p.sorted_terms()]
        assert monos == [(0, 2), (1, 0), (0, 0)]

    def test_leading_term(self):
        x, y = xy()
        p = 3 * x * x + y
        mono, coeff = p.leading()
        assert mono == (2, 0)
        assert coeff == 3

    def test_homogeneous_part(self):
        x, y = xy()
        p = (x + y) ** 2 + x + 1
        quad = p.homogeneous_part(2)
        assert quad == (x + y) ** 2
        assert p.homogeneous_part(5).is_zero()


class TestCalculus:
    def test_partial_derivative(self):
        x, y = xy()
        p = x ** 3 + 2 * x * y
        assert p.partial(1) == 3 * x * x + 2 * y
        assert p.partial(2) == 2 * x

    def test_partial_of_constant_is_zero(self):
        assert Poly.const(2, 4).partial(1).is_zero()

    def test_eval(self):
        x, y = xy()
        p = x * x - y
        assert p.eval((Fraction(1, 2), Fraction(1, 4))) == 0

    def test_compose_with_map(self):
        x, y = xy()
        p = x * y
        q = p.compose(PolyMap([x + y, x - y]))
        assert q == x * x - y * y

    def test_restrict_segment_is_univariate_in_t(self):
        x, y = xy()
        p = x * x + y
        coeffs = p.restrict_segment((1, 0), (3, 2))
        # p(1+2t, 2t) = 1 + 4t + 4t^2 + 2t
        assert coeffs == (Fraction(1), Fraction(6), Fraction(4))

    def test_restrict_segment_constant(self):
        p = Poly.const(2, 9)
        assert p.restrict_segment((0, 0), (1, 1)) == (Fraction(9),)

    def test_restrict_segment_pinned_cases(self):
        x, y = xy()
        p = x * x * y - 3 * y + 1
        # the zero polynomial, and a restriction that vanishes
        assert Poly.zero(2).restrict_segment((1, 2), (3, 4)) == (0,)
        assert (x - y).restrict_segment((1, 1), (2, 2)) == (0,)
        # a_i = 0: p(2t, 1 + t) = 1 - 3(1 + t) + 4t^2 (1 + t)
        assert p.restrict_segment((0, 1), (2, 2)) == (-2, -3, 4, 4)
        # b_i = a_i: y stays at 2, p(1 + 2t, 2) = 2(1 + 2t)^2 - 5
        assert p.restrict_segment((1, 2), (3, 2)) == (-3, 8, 8)
        # a_i = b_i = 0: x stays at 0, interior zeros are kept
        q = y ** 3 + x * y
        assert q.restrict_segment((0, 0), (0, Fraction(1, 2))) == (
            0, 0, 0, Fraction(1, 8))
        assert q.restrict_segment((0, 0), (0, 0)) == (0,)

    def test_partial_keeps_coefficients_canonical(self):
        x, y = xy()
        dx = (Fraction(1, 3) * x ** 3).partial(1)
        assert dx.terms == {(2, 0): Fraction(1)}
        ((_, c),) = dx.terms.items()
        assert (c.numerator, c.denominator) == (1, 1)
        dy = (Fraction(5, 6) * x ** 2 * y ** 3).partial(2)
        assert dy.terms == {(2, 2): Fraction(5, 2)}
        ((_, c),) = dy.terms.items()
        assert (c.numerator, c.denominator) == (5, 2)


class TestDivision:
    def test_exact_division(self):
        x, y = xy()
        p = (x + y) * (x - y + 2)
        assert p.divexact(x + y) == x - y + 2

    def test_inexact_division_raises(self):
        x, y = xy()
        with pytest.raises(ValueError):
            (x * x + y).divexact(x + y)

    def test_division_by_zero(self):
        x, _ = xy()
        with pytest.raises(ZeroDivisionError):
            x.divexact(Poly.zero(2))


class TestPrinting:
    def test_canonical_string(self):
        x, y = xy()
        p = Fraction(3, 2) * (x * x * y) - y + 5
        assert str(p) == "3/2*x1^2*x2 - x2 + 5"

    def test_zero_prints_as_zero(self):
        assert str(Poly.zero(2)) == "0"

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 9).flatmap(lambda n: st.builds(
        Poly, st.just(n), st.dictionaries(
            st.tuples(*[st.sampled_from([0, 0, 1, 2, 13])] * n),
            st.one_of(st.sampled_from([1, -1, 0]),
                      st.integers(-9, 9),
                      st.builds(Fraction, st.integers(-10 ** 40, 10 ** 40),
                                st.integers(1, 10 ** 40))),
            max_size=8))))
    def test_printing_matches_fraction_arithmetic(self, p):
        assert str(p) == fraction_str(p)


def fraction_str(p: Poly) -> str:
    """The printer as it was, on Fraction abs and comparisons: the oracle
    for Poly.__str__, which reads signs and magnitudes from the
    coefficients' numerators and denominators."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for mono, coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(mono):
            if e == 1:
                factors.append(f"x{i + 1}")
            elif e > 1:
                factors.append(f"x{i + 1}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if not pieces:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(pieces)


class TestPolyMap:
    def test_identity(self):
        ident = PolyMap.identity(3)
        assert ident.is_identity()
        assert ident.degree() == 1
        assert ident.eval((1, 2, 3)) == (1, 2, 3)

    def test_compose_order(self):
        x, y = xy()
        outer = PolyMap([x + y, y])
        inner = PolyMap([x * x, y])
        composed = outer.compose(inner)
        assert composed.components[0] == x * x + y

    def test_compose_dimension_mismatch(self):
        with pytest.raises(ValueError):
            PolyMap.identity(2).compose(PolyMap.identity(3))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_compose_calls_poly_compose_once_per_component(self, n,
                                                           monkeypatch):
        # the benchmark's poly.compose rows count these calls, so a map
        # composition must go through Poly.compose, one component at a time
        outer = PolyMap([Poly.variable(n, i + 1) ** 2 + Poly.const(n, i)
                         for i in range(n)])
        inner = PolyMap([Poly.variable(n, n - i) * Fraction(1, i + 2)
                         for i in range(n)])
        expected = [c.compose(inner) for c in outer.components]
        calls = []
        original = Poly.compose

        def counted(self, pmap):
            calls.append((self, pmap))
            return original(self, pmap)

        monkeypatch.setattr(Poly, "compose", counted)
        composed = outer.compose(inner)
        assert list(composed.components) == expected
        assert calls == [(c, inner) for c in outer.components]

    def test_coordinate_sum(self):
        z = coordinate_sum(3)
        assert z.eval((1, 2, 3)) == 6
        assert z.degree() == 1


def zshift_file(tmp_path, n, m, row):
    """A zshift map file with the same row for every degree 2..m."""
    lines = ["family = zshift", f"n = {n}", f"m = {m}"]
    lines += [f"p{l} = " + ", ".join(row) for l in range(2, m + 1)]
    path = tmp_path / f"zshift-{n}-{m}.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def pow_calls(monkeypatch):
    """Record every call of the integer power kernel, which the parser and
    ``pow_terms`` both run, and which returns {} instead of expanding: a
    test then sees which powers a rule lets through."""
    calls = []

    def stub(terms, k, n):
        calls.append((len(terms), k, n))
        return {}

    monkeypatch.setattr(_purepoly, "pow_ints", stub)
    return calls


class TestExpansionGuard:
    """One expansion limit, in ``poly``, for every map however it arrives:
    z_power, the parser and the z-shift table refuse alike."""

    def test_z_power_and_the_parser_decide_alike(self, pow_calls):
        refused = set()
        for n in range(1, 10):
            z = "(" + "+".join(f"x{i}" for i in range(1, n + 1)) + ")"
            for k in range(15):
                decisions = []
                for expand in (lambda: z_power(n, k),
                               lambda: parse_poly(f"{z}^{k}", n)):
                    pow_calls.clear()
                    try:
                        expand()
                    except ExpansionLimitError as exc:
                        decisions.append(str(exc))
                    except ParseError as exc:
                        decisions.append(exc.message)
                    else:
                        decisions.append(None)
                    assert len(pow_calls) == (decisions[-1] is None)
                assert decisions[0] == decisions[1], (n, k)
                if decisions[0]:
                    refused.add((n, k))
        # (x1+...+x9)^12 is bounded by 1.25e7 multiply-adds, ^13 by 2.2e7
        assert refused == {(9, 13), (9, 14)}

    def test_linear_powers_are_never_guarded(self):
        assert z_power(9, 1).degree() == 1
        assert z_power(9, 0) == 1

    def test_z_power_matches_direct_expansion(self):
        assert z_power(3, 4) == coordinate_sum(3) ** 4

    def test_work_is_counted_over_the_whole_map(self, pow_calls):
        z9 = "(" + "+".join(f"x{i}" for i in range(1, 10)) + ")"
        texts = [f"x1 + {z9}^12", f"x2 - {z9}^12"] + [
            f"x{i}" for i in range(3, 10)]
        parse_poly(texts[1], 9)  # each power alone is legal
        for read in (lambda: parse_map(texts),
                     lambda: parse_map_file("\n".join(texts))):
            pow_calls.clear()
            with pytest.raises(ParseError) as info:
                read()
            assert info.value.message == (
                f"power 12 of 9 terms takes the map past the limit of "
                f"{MAX_WORK} multiply-adds")
            assert info.value.position == texts[1].index("12")
            assert pow_calls == [(9, 12, 9)]

    def test_a_table_pays_for_its_nonzero_degrees_before_expanding(
            self, pow_calls):
        # every power z^2..z^11 in 9 variables: 13,453,605 multiply-adds
        # at most; with z^12, 25,924,635
        row = (1, -1) + (0,) * 7
        ZShiftMap([(c,) * 10 for c in row]).components
        assert [k for _, k, _ in pow_calls] == list(range(2, 12))
        pow_calls.clear()
        with pytest.raises(ExpansionLimitError,
                           match=f"power 12 of 9 terms takes the map past "
                           f"the limit of {MAX_WORK} multiply-adds"):
            ZShiftMap([(c,) * 11 for c in row]).components
        assert pow_calls == []
        # an all-zero column costs nothing and expands nothing
        ZShiftMap([(0,) * 10 + (c,) for c in row]).components
        assert pow_calls == [(9, 12, 9)]

    @pytest.mark.parametrize("command", ["inverse", "decompose", "member",
                                         "inject-symbolic"])
    def test_degree_11_map_runs_through_every_map_subcommand(
            self, capsys, command):
        code = cli.main([command, "--expr", "x + (x+y)^11",
                         "--expr", "y - (x+y)^11"])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        if command == "inverse":
            zeros = ["0"] * 9
            assert json.loads(captured.out)["result"][
                "coefficient_table"] == [zeros + ["-1"], zeros + ["1"]]

    @pytest.mark.parametrize("command", ["keller", "inverse"])
    def test_degree_12_table_runs(self, capsys, tmp_path, command):
        path = zshift_file(tmp_path, 2, 12, ["1", "-1"])
        code = cli.main([command, "--map", path])
        assert code == 0, capsys.readouterr().err

    def test_a_long_sum_of_powers_is_refused_before_expanding(self, capsys):
        # legal power by power; the running total first passes 2^24 at ^293
        # (16,854,532), and expanding the powers before it takes seconds
        text = "x + " + " + ".join(f"(x+y)^{k}" for k in range(2, 401))
        start = time.process_time()
        code = cli.main(["keller", "--expr", text, "--expr", "y"])
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: power 293 of 2 terms takes the map past the limit of "
            f"{MAX_WORK} multiply-adds (at position "
            f"{text.index('^293') + 1})\n")
        assert elapsed < 1

    def test_a_table_over_the_work_limit_is_refused_before_expanding(
            self, capsys, tmp_path):
        path = zshift_file(tmp_path, 9, 12, ["1", "-1"] + ["0"] * 7)
        start = time.process_time()
        code = cli.main(["keller", "--map", path])
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"error: power 12 of 9 terms takes the map past the limit of "
            f"{MAX_WORK} multiply-adds (at position 0)\n")
        assert elapsed < 1

    def test_a_table_over_the_exponent_limit_is_refused(self, capsys,
                                                        tmp_path):
        path = zshift_file(tmp_path, 2, MAX_EXPONENT + 2, ["1", "-1"])
        start = time.process_time()
        code = cli.main(["keller", "--map", path])
        elapsed = time.process_time() - start
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (f"error: exponent exceeds the limit of "
                                f"{MAX_EXPONENT} (at position 0)\n")
        assert elapsed < 1


small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=4)


@st.composite
def polys(draw, n=2, max_degree=3, max_terms=4):
    terms = draw(st.lists(
        st.tuples(
            st.tuples(*[st.integers(0, max_degree) for _ in range(n)]),
            small_rationals),
        max_size=max_terms))
    p = Poly.zero(n)
    for mono, coeff in terms:
        p = p + Poly(n, {mono: coeff})
    return p


@st.composite
def segments(draw):
    """A sparse poly in n = 0..4 variables and two endpoints, which share
    coordinates or are zero now and then."""
    n = draw(st.integers(0, 4))
    p = draw(polys(n=n, max_terms=6))
    a = draw(st.tuples(*[small_rationals] * n))
    b = tuple(draw(st.sampled_from([ai, 0]) | small_rationals) for ai in a)
    return p, a, b


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_multiplication_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys(), polys())
    def test_multiplication_associates(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @settings(max_examples=60, deadline=None)
    @given(polys(), polys())
    def test_product_rule(self, a, b):
        lhs = (a * b).partial(1)
        rhs = a.partial(1) * b + a * b.partial(1)
        assert lhs == rhs

    @settings(max_examples=60, deadline=None)
    @given(polys(), st.tuples(small_rationals, small_rationals))
    def test_eval_is_ring_homomorphism(self, a, point):
        b = Poly.variable(2, 1) + 1
        assert (a * b).eval(point) == a.eval(point) * b.eval(point)
        assert (a + b).eval(point) == a.eval(point) + b.eval(point)

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_compose_commutes_with_eval(self, a, g1):
        g2 = Poly.variable(2, 2) * 2 - 1
        point = (Fraction(1, 2), Fraction(-2, 3))
        composed = a.compose(PolyMap([g1, g2]))
        assert composed.eval(point) == a.eval(
            (g1.eval(point), g2.eval(point)))

    @settings(max_examples=80, deadline=None)
    @given(segments())
    def test_restrict_segment_matches_eval_on_the_line(self, case):
        p, a, b = case
        coeffs = p.restrict_segment(a, b)
        assert coeffs == (0,) or coeffs[-1] != 0
        # at most deg + 1 coefficients that agree at deg + 2 points: the
        # restriction is exactly p on the line
        assert 1 <= len(coeffs) <= max(p.degree(), 0) + 1
        for k in range(max(p.degree(), 0) + 2):
            t = Fraction(k, 3) - Fraction(1, 2)
            value = sum(c * t ** d for d, c in enumerate(coeffs))
            assert value == p.eval(tuple(s + t * (e - s)
                                         for s, e in zip(a, b)))

    @settings(max_examples=40, deadline=None)
    @given(polys(), polys())
    def test_exact_division_round_trip(self, a, b):
        if a.is_zero() or b.is_zero():
            return
        assert (a * b).divexact(b) == a
