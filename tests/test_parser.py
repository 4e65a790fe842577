"""Expression and map-file parsing."""

import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import Phase, given, settings, strategies as st

from keller_lab import _purepoly
from keller_lab.families import ZShiftMap, keller_zshift_map, rank_one_map
from keller_lab.families import RankOneSpec
from keller_lab.parser import (
    MAX_NESTING,
    ParseError,
    is_family_format,
    parse_family_file,
    parse_map,
    parse_map_file,
    parse_poly,
)
from keller_lab.poly import MAX_EXPONENT, MAX_WORK, Poly, PolyMap, digit_limit

from conftest import shift_texts


class TestTokens:
    @pytest.mark.parametrize("text, stray, value", [
        ("x1 @ 2", 3, None),
        ("  x1  ", None, Poly.variable(1, 1)),
        ("x1 + 2", None, Poly.variable(1, 1) + 2),
        ("x1 ) + @", 7, None),
    ], ids=["bad_character_position", "whitespace_skipped", "positions",
            "stray_character_before_syntax_error"])
    def test_tokens_are_matched_at_the_cursor(self, text, stray, value):
        if stray is not None:
            with pytest.raises(ParseError, match="unexpected character '@'"
                               ) as err:
                parse_poly(text, 1)
            assert err.value.position == stray
            return
        assert parse_poly(text, 1) == value
        with pytest.raises(ParseError, match=r"unexpected '\)'") as err:
            parse_poly(text + ")", 1)
        assert err.value.position == len(text)
        # the end of input sits one past the last character
        with pytest.raises(ParseError, match="found 'end of input'") as err:
            parse_poly("(" + text, 1)
        assert err.value.position == len(text) + 1


class TestExpressions:
    def test_constant(self):
        assert parse_poly("7", 1) == Poly.const(1, 7)

    def test_fraction_literal(self):
        p = parse_poly("3/2*x1", 1)
        assert p == Poly(1, {(1,): Fraction(3, 2)})

    def test_fraction_binds_before_product(self):
        # 1/2*x1 is (1/2)*x1, not 1/(2*x1)
        assert parse_poly("1/2*x1", 1).eval((2,)) == 1

    def test_power_expansion(self):
        p = parse_poly("x1 + (x1+x2)^2", 2)
        expected = (Poly.variable(2, 1)
                    + (Poly.variable(2, 1) + Poly.variable(2, 2)) ** 2)
        assert p == expected

    def test_unary_minus_binds_tighter_than_sum(self):
        assert parse_poly("-x1^2", 1).eval((3,)) == -9

    def test_subtraction_chain_left_associates(self):
        assert parse_poly("5 - 2 - 1", 1).eval((0,)) == 2

    def test_worked_component(self):
        p = parse_poly("x1 - 11*(x1+x2+x3)^2 - 13*(x1+x2+x3)^3", 3)
        assert p.eval((1, 0, 0)) == 1 - 11 - 13
        assert p.eval((1, 1, -2)) == 1

    def test_zero_exponent(self):
        assert parse_poly("x1^0", 1) == Poly.const(1, 1)

    def test_xy_aliases_in_two_variables(self):
        assert parse_poly("x + y", 2) == parse_poly("x1 + x2", 2)

    def test_x_alias_in_one_variable(self):
        assert parse_poly("x^2", 1) == parse_poly("x1^2", 1)

    def test_a_long_sum_takes_linear_time(self):
        # 10,000 small terms after one of 52,920: adding polynomials copied
        # the partial sum for each term: 5.3e8 copies in all, 11 s
        big = "(1+x1+x2+x3+x4)^6*(1+x5+x6+x7+x8+x9)^5"
        start = time.process_time()
        p = parse_poly(big + " + x9 - 1" * 5000, 9)
        assert time.process_time() - start < 2
        assert p == parse_poly(big, 9) + Poly.variable(9, 9) * 5000 - 5000
        assert len(p) == 52920


class TestExpressionErrors:
    def test_unknown_variable_reports_limit(self):
        with pytest.raises(ParseError, match="unknown variable 'x4'"):
            parse_poly("x4", 3)

    def test_alias_rejected_in_three_variables(self):
        with pytest.raises(ParseError, match="unknown variable 'x'"):
            parse_poly("x", 3)

    def test_y_rejected_in_one_variable(self):
        with pytest.raises(ParseError, match="unknown variable 'y'"):
            parse_poly("y", 1)

    def test_symbolic_exponent_rejected(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_poly("x1^x1", 1)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_poly("1/0", 1)

    @pytest.mark.parametrize("text, position", [
        ("2/x", 1), ("2/(3)", 1), ("2/", 1), ("1/2/3", 3), ("1 / 2 /-3", 6)])
    def test_slash_needs_an_integer_after_it(self, text, position):
        # a fraction literal looks one token past the '/'
        with pytest.raises(ParseError, match="unexpected '/'") as err:
            parse_poly(text, 1)
        assert err.value.position == position

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError, match="expected rparen"):
            parse_poly("(x1 + 1", 1)

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            parse_poly("x1 )", 1)
        assert err.value.position == 3

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_poly("", 1)

    def test_dimension_bounds(self):
        with pytest.raises(ValueError):
            parse_poly("x1", 0)
        with pytest.raises(ValueError):
            parse_poly("x1", 10)

    @pytest.mark.parametrize("text", ["(" * 3000 + "x" + ")" * 3000,
                                      "-" * 3000 + "x"])
    def test_hostile_nesting_rejected(self, text):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_map([text, "y"])

    def test_nesting_up_to_the_cap_parses(self):
        x = Poly.variable(1, 1)
        depth = MAX_NESTING
        assert parse_poly("(" * depth + "x" + ")" * depth, 1) == x
        assert parse_poly("-" * depth + "x", 1) == x * (-1) ** depth
        assert parse_poly("-(" * (depth // 2) + "x" + ")" * (depth // 2),
                          1) == x * (-1) ** (depth // 2)
        with pytest.raises(ParseError, match="nests deeper"):
            parse_poly("(" * (depth + 1) + "x" + ")" * (depth + 1), 1)

    def test_exponent_up_to_the_cap_parses(self):
        x = Poly.variable(1, 1)
        assert parse_poly(f"x^{MAX_EXPONENT}", 1) == Poly(
            1, {(MAX_EXPONENT,): 1})
        assert parse_poly(f"(x + 1)^{MAX_EXPONENT}", 1).degree() == MAX_EXPONENT
        assert parse_poly("x^0", 1) == x ** 0
        assert parse_poly("x^000" + str(MAX_EXPONENT), 1) == Poly(
            1, {(MAX_EXPONENT,): 1})

    @pytest.mark.parametrize("exponent", [MAX_EXPONENT + 1, 100000000,
                                          "9" * 5000])
    def test_exponent_above_the_cap_rejected(self, exponent):
        with pytest.raises(ParseError, match="exceeds the limit") as info:
            parse_map([f"y + x^{exponent}", "y"])
        assert info.value.position == len("y + x^")

    @pytest.mark.parametrize("text", ["x + " + "9" * 5000,
                                      "x + 1/" + "9" * 5000,
                                      "x + 7*" + "9" * 5000 + "/3"])
    def test_overlong_literal_rejected(self, text):
        # int() refuses more than 4300 digits; that is a syntax error here
        with pytest.raises(ParseError, match="5000 digits is too long") as info:
            parse_map([text, "y"])
        assert info.value.position == text.index("9")

    @pytest.mark.parametrize("text, at", [
        ("(x1+x2+x3+x4+x5+x6+x7+x8+x9)^60", "60"),
        ("(x1+x2+x3+x4+x5+x6+x7+x8+x9)^10*(x1+x2+x3+x4+x5+x6+x7+x8+x9)^10",
         "*"),
        # at most 200,001 terms, but about 4e10 multiply-adds
        ("((x1+1)^100*(x1+1)^100)^1000", "1000"),
    ])
    def test_work_over_the_limit_rejected(self, text, at):
        with pytest.raises(ParseError, match=f"limit of {MAX_WORK} "
                           "multiply-adds") as info:
            parse_poly(text, 9)
        assert info.value.position == text.index(at)

    def test_one_term_and_one_variable_powers_stay_legal(self):
        x = Poly.variable(2, 1)
        assert parse_poly("((x^1000)^1000)^1000", 2) == Poly(
            2, {(10 ** 9, 0): 1})
        assert parse_poly("((y-7)^12)^12", 2) == (
            Poly.variable(2, 2) - 7) ** 144
        assert parse_poly("(x+1)^100*(x+1)^100", 2) == (x + 1) ** 200

    @pytest.mark.skipif(not digit_limit(), reason="no digit limit")
    @pytest.mark.parametrize("text, at", [
        # a bound on the power's coefficients, before powering
        ("x + (7^1000)^1000", "1000"),
        ("(1/" + "9" * 1000 + "*x + y)^5", "5"),
        # the parsed polynomial
        ("x + 99^1000*99^1000*99^1000", None),
        ("x + " + "9" * 4300 + " + " + "9" * 4300, None),
        ("1/" + "9" * 4300 + " * 1/9", None),
    ], ids=["power_numerator", "power_denominator", "product", "sum",
            "denominator"])
    def test_coefficients_over_the_digit_limit_rejected(self, text, at):
        start = time.process_time()
        with pytest.raises(ParseError, match=f"the {digit_limit()}-digit "
                           "limit") as info:
            parse_poly(text, 2)
        assert time.process_time() - start < 1
        position = 0 if at is None else text.rindex(at)
        assert info.value.position == position

    def test_big_coefficients_under_the_digit_limit_stay_legal(self):
        x, y = Poly.variable(2, 1), Poly.variable(2, 2)
        assert parse_poly("7^1000", 2) == Poly.const(2, 7 ** 1000)
        assert parse_poly("(1/" + "9" * 1000 + "*x + y)^4", 2) == (
            x * Fraction(1, 10 ** 1000 - 1) + y) ** 4
        p = parse_poly("x + (x+y)^1000*(x+y)^1000", 2)
        assert len(p) == 2002
        assert p.coefficient((1000, 1000)) == comb(2000, 1000)
        assert p.coefficient((1, 0)) == 1


NO_SHRINK = [Phase.explicit, Phase.reuse, Phase.generate]
PARSE_SECONDS = 2

EXPR_PIECES = ["x", "y", "x1", "x2", "x3", "x9", "x10", "xy", "_a", "0", "2",
               "12", "007", "3/2", "1/0", "\u0663", "+", "-", "*", "/", "^",
               "^0", "^3", "^12", "^1001", "(", ")", " ", "\t", "\u00e9",
               "\u00b2", "(x1+x2)", "(x+y-1/2)", "(x1+x2+1)^999",
               "(" * 101, "9" * 4400]
FAMILY_KEYS = ["family", "n", "m", "p2", "p3", "gamma", "alpha", "N", "x"]
FAMILY_VALUES = ["zshift", '"zshift"', "rank-one", "affine", "1", "2", "3",
                 "0", "10", "-1", "1, -1", "1, -1, 0", "1/2, -1/2", "1, 2",
                 "2, -1, -1", "1/0", "x", ""]

expression_texts = st.lists(
    st.one_of(st.sampled_from(EXPR_PIECES), st.text(max_size=2)),
    max_size=10).map("".join)


@st.composite
def map_file_texts(draw):
    """An expression file or a family key-value file."""
    if draw(st.booleans()):
        lines = draw(st.lists(st.one_of(
            expression_texts, st.sampled_from(["# note", "x + y  # c", ""])),
            max_size=4))
    else:
        lines = [f"{key} = {value}" for key, value in draw(st.lists(
            st.tuples(st.sampled_from(FAMILY_KEYS),
                      st.one_of(st.sampled_from(FAMILY_VALUES),
                                st.text(max_size=3))), max_size=6))]
        lines += draw(st.lists(st.text(max_size=4), max_size=1))
    return "\n".join(draw(st.permutations(lines)))


@settings(max_examples=300, deadline=None, phases=NO_SHRINK)
@given(st.one_of(st.lists(expression_texts, max_size=3), map_file_texts()))
def test_fuzz_parse_map_returns_a_map_or_a_parse_error(source):
    start = time.perf_counter()
    try:
        f = (parse_map_file(source) if isinstance(source, str)
             else parse_map(source))
    except ValueError:  # ParseError, or a family hypothesis that fails
        f = None
    assert time.perf_counter() - start < PARSE_SECONDS
    if f is not None:
        assert isinstance(f, PolyMap)
        assert parse_map([str(c) for c in f.components]) == f


# -- the Fraction oracle ----------------------------------------------------
#
# The parser runs on integer numerators over one denominator.  The oracle
# below evaluates the same expression trees on Fraction term dicts, one
# multiply-add per pair of terms, as the parser did before.

def oracle_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for mono, coeff in b.items():
        out[mono] = out.get(mono, Fraction(0)) + sign * coeff
    return {mono: c for mono, c in out.items() if c}


def oracle_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, Fraction(0)) + ca * cb
    return {mono: c for mono, c in out.items() if c}


ORACLE_N = 3
ONE = (0,) * ORACLE_N
# a node is (text, precedence, term dict): 0 a sum, 1 a product, 2 a unary
# minus or a power, 3 an atom
LITERALS = st.one_of(
    st.integers(0, 12),
    st.integers(10 ** 29, 10 ** 30 - 1),
    st.integers(-(10 ** 30), 10 ** 30),
).map(abs)


@st.composite
def oracle_leaves(draw):
    kind = draw(st.sampled_from(["int", "fraction", "variable", "0^0"]))
    if kind == "variable":
        i = draw(st.integers(0, ORACLE_N - 1))
        mono = tuple(int(j == i) for j in range(ORACLE_N))
        return f"x{i + 1}", 3, {mono: Fraction(1)}
    if kind == "0^0":
        return "0^0", 2, {ONE: Fraction(1)}
    num = draw(LITERALS)
    text, value = str(num), Fraction(num)
    if kind == "fraction":
        den = draw(st.one_of(st.integers(1, 12), LITERALS.filter(bool)))
        text, value = f"{num}/{den}", Fraction(num, den)
    return text, 3, {ONE: value} if value else {}


def wrap(node, precedence: int, draw) -> str:
    """The node's text, parenthesized where the grammar needs it, and at
    random where it does not."""
    text, own, _ = node
    if own < precedence or draw(st.integers(0, 5)) == 0:
        return f"({text})"
    return text


@st.composite
def oracle_nodes(draw, depth: int = 4):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return draw(oracle_leaves())
    op = draw(st.sampled_from(["+", "-", "*", "neg", "^", "cancel"]))
    a = draw(oracle_nodes(depth - 1))
    if op == "neg":
        return ("-" + wrap(a, 2, draw), 2,
                {mono: -c for mono, c in a[2].items()})
    if op == "^":
        k = draw(st.integers(0, 3))
        value = {ONE: Fraction(1)}
        for _ in range(k):
            value = oracle_mul(value, a[2])
        return f"{wrap(a, 3, draw)}^{k}", 2, value
    if op == "cancel":  # a term that cancels to zero
        return f"{wrap(a, 0, draw)} - {wrap(a, 1, draw)}", 0, {}
    b = draw(oracle_nodes(depth - 1))
    if op == "*":
        return (f"{wrap(a, 1, draw)}*{wrap(b, 2, draw)}", 1,
                oracle_mul(a[2], b[2]))
    sign = 1 if op == "+" else -1
    return (f"{wrap(a, 0, draw)} {op} {wrap(b, 1, draw)}", 0,
            oracle_add(a[2], b[2], sign))


class TestFractionOracle:
    @settings(max_examples=300, deadline=None)
    @given(node=oracle_nodes())
    def test_parser_matches_fraction_arithmetic(self, node):
        text, _, want = node
        assert parse_poly(text, ORACLE_N) == Poly(ORACLE_N, want), text

    @pytest.mark.parametrize("text, want", [
        ("0^0", 1), ("(x1 - x1)^0", 1), ("(x1 + 1)^0*3", 3), ("0^3", 0),
        ("2*3/4*(-5)", Fraction(-15, 2)), ("1/2 + 1/2 - 1", 0),
        ("-(-(2/6))", Fraction(1, 3)),
    ])
    def test_constants(self, text, want):
        assert parse_poly(text, 2) == Poly.const(2, want)

    def test_thirty_digit_literals(self):
        big, den = 10 ** 29 + 7, 3 * 10 ** 29
        p = parse_poly(f"{big}/{den}*x1^2 - {big}*x2 + 1/{den}", 2)
        assert p == Poly(2, {(2, 0): Fraction(big, den), (0, 1): -big,
                             (0, 0): Fraction(1, den)})


class TestRoundTrip:
    def test_canonical_string_reparses(self):
        p = parse_poly("(x1 - x2)^3 + 1/3*x2", 2)
        assert parse_poly(str(p), 2) == p

    def test_zero(self):
        zero = Poly.zero(2)
        assert parse_poly(str(zero), 2) == zero

    @given(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-50, max_value=50, max_denominator=9),
        max_size=6))
    def test_random_polys_round_trip(self, terms):
        p = Poly.zero(2)
        for exps, coeff in terms.items():
            p = p + Poly(2, {exps: coeff})
        assert parse_poly(str(p), 2) == p


class TestMapParsing:
    def test_parse_map_square(self):
        f = parse_map(["x + y^2", "y"])
        assert f.n == 2
        assert f.eval((1, 2)) == (5, 2)

    def test_component_count_mismatch(self):
        # a map has one variable per component, so x3 is unknown in two
        with pytest.raises(ParseError) as info:
            parse_map(["x1 + x3", "0"])
        assert info.value.message == \
            "unknown variable 'x3' (map has 2 variables)"
        assert info.value.position == 5

    def test_empty_map(self):
        with pytest.raises(ParseError):
            parse_map([])

    def test_more_than_nine_components_are_refused(self):
        with pytest.raises(ParseError, match="between 1 and 9"):
            parse_map(["x1"] * 10)


class TestSharedPowers:
    """parse_map expands each distinct power of a map once, and charges
    every occurrence at its own token."""

    @staticmethod
    def count_powers(monkeypatch) -> list:
        calls = []
        pow_ints = _purepoly.pow_ints

        def counting(*args):
            calls.append(args[1])
            return pow_ints(*args)

        monkeypatch.setattr(_purepoly, "pow_ints", counting)
        return calls

    def test_a_shift_map_expands_each_power_once(self, monkeypatch):
        table = [[Fraction(k, 7), -k] for k in range(1, 6)]  # shape (5, 3)
        calls = self.count_powers(monkeypatch)
        f = parse_map(shift_texts(table))
        assert sorted(calls) == [2, 3]
        assert f == PolyMap(ZShiftMap(table).components)

    def test_components_equal_their_own_parse(self, monkeypatch):
        texts = [
            "x + 3*(x+y)^2 - ((x+y)^2)^2 + (x+y)^2*(x+y)^2",
            "y - 3/4*(x+y)^2 + 2*-(x+y)^2 - (x - y)^2",
        ]
        calls = self.count_powers(monkeypatch)
        f = parse_map(texts)
        # (x+y)^2 once, its square once, (x - y)^2 once
        assert len(calls) == 3
        assert f.components == tuple(parse_poly(t, 2) for t in texts)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.sampled_from([
        "x", "y", "-(x+y)^3", "2*(x+y)^3", "(x+y)^3*(x-1/2)^2",
        "-1/3*(x-1/2)^2", "((x+y)^3)^2", "(x-1/2)^2 - (x+y)^3"]),
        min_size=1, max_size=3).map(" + ".join), min_size=2, max_size=2))
    def test_shared_powers_match_separate_parses(self, texts):
        f = parse_map(texts)
        assert f.components == tuple(parse_poly(t, 2) for t in texts)

    def test_a_repeated_power_is_charged_at_each_token(self):
        z = "(x1+x2+x3+x4+x5+x6+x7+x8+x9)^12"
        texts = [f"x1 + {z}", f"x2 - {z}"] + [f"x{k}" for k in range(3, 10)]
        with pytest.raises(ParseError) as info:
            parse_map(texts)
        assert str(info.value) == (
            f"power 12 of 9 terms takes the map past the limit of {MAX_WORK} "
            "multiply-adds (at position 34)")

    @pytest.mark.skipif(not digit_limit(), reason="no digit limit")
    def test_a_digit_refusal_keeps_its_position(self):
        base = "(1/" + "9" * 1000 + "*x + y)"
        texts = [f"x + {base}^4", f"y + {base}^4 - {base}^5"]
        with pytest.raises(ParseError, match="digit limit") as info:
            parse_map(texts)
        assert info.value.position == texts[1].rindex("5")


class TestMapFiles:
    def test_expression_file(self):
        text = "# comment line\nx + y^2  # inline\n\ny\n"
        f = parse_map_file(text)
        assert f == parse_map(["x + y^2", "y"])

    def test_format_detection(self):
        assert is_family_format("family = zshift\n")
        assert not is_family_format("# note\nx + y\ny\n")
        assert not is_family_format("")

    def test_zshift_family(self, data_dir):
        f = parse_map_file((data_dir / "example_family.txt").read_text())
        assert f == keller_zshift_map(
            [[-11, -13], [6, 9], [5, 4]])

    def test_zshift_matches_expressions(self, data_dir):
        by_family = parse_map_file(
            (data_dir / "example_family.txt").read_text())
        by_expr = parse_map_file((data_dir / "example_map.txt").read_text())
        assert PolyMap(list(by_family.components)) == by_expr

    def test_rank_one_family(self, data_dir):
        f = parse_map_file((data_dir / "rank_one_family.txt").read_text())
        assert f == rank_one_map(RankOneSpec((1, 2, -3), (1, 2)))

    def test_quoted_family_name(self):
        text = 'family = "zshift"\nn = 2\nm = 2\np2 = 1, -1\n'
        assert parse_family_file(text) == keller_zshift_map([[1], [-1]])

    def test_rank_one_identity_when_m_is_one(self):
        text = "family = rank-one\nn = 2\nm = 1\ngamma = 1, -1\n"
        assert parse_family_file(text) == ZShiftMap([[], []])


class TestMapFileErrors:
    def test_duplicate_key(self):
        with pytest.raises(ParseError, match="duplicate key 'n'"):
            parse_family_file("family = zshift\nn = 2\nn = 3\n")

    def test_unknown_key(self):
        text = "family = zshift\nn = 2\nm = 2\np2 = 1, -1\nbogus = 1\n"
        with pytest.raises(ParseError, match="unexpected key 'bogus'"):
            parse_family_file(text)

    def test_missing_row(self):
        with pytest.raises(ParseError, match="missing row 'p3'"):
            parse_family_file("family = zshift\nn = 2\nm = 3\np2 = 1, -1\n")

    def test_row_width(self):
        with pytest.raises(ParseError, match="needs 2 entries"):
            parse_family_file("family = zshift\nn = 2\nm = 2\np2 = 1\n")

    def test_bad_rational_cites_line(self):
        with pytest.raises(ParseError, match="line 4"):
            parse_family_file("family = zshift\nn = 2\nm = 2\np2 = 1, z\n")

    def test_unknown_family(self):
        with pytest.raises(ParseError, match="unknown family 'affine'"):
            parse_family_file("family = affine\nn = 2\nm = 2\n")

    def test_missing_gamma(self):
        with pytest.raises(ParseError, match="missing 'gamma'"):
            parse_family_file("family = rank-one\nn = 2\nm = 2\nalpha = 1\n")

    def test_alpha_length(self):
        text = "family = rank-one\nn = 2\nm = 3\ngamma = 1, -1\nalpha = 1\n"
        with pytest.raises(ParseError, match="alpha needs 2 entries"):
            parse_family_file(text)

    def test_gamma_length(self):
        text = "family = rank-one\nn = 3\nm = 2\ngamma = 1, -1\nalpha = 1\n"
        with pytest.raises(ParseError, match="gamma needs 3 entries, got 2"):
            parse_family_file(text)

    def test_nonzero_column_sum_is_a_domain_error(self):
        # syntax is fine: the structural hypothesis fails downstream
        text = "family = zshift\nn = 2\nm = 2\np2 = 1, 1\n"
        with pytest.raises(ValueError) as err:
            parse_family_file(text)
        assert not isinstance(err.value, ParseError)

    def test_nonzero_gamma_sum_is_a_domain_error(self):
        text = "family = rank-one\nn = 2\nm = 2\ngamma = 1, 1\nalpha = 1\n"
        with pytest.raises(ValueError) as err:
            parse_family_file(text)
        assert not isinstance(err.value, ParseError)

    def test_malformed_line(self):
        with pytest.raises(ParseError, match="expected key = value"):
            parse_family_file("family = zshift\nn 2\n")
