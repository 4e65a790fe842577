"""Expression and file parsing for polynomial map input.

The expression grammar is plain arithmetic: ``+ - * ^``, unary minus,
parentheses, integer and fraction literals (``3/2``), and variables
``x1``..``x9`` (with ``x``/``y`` as aliases when the map has at most two
variables).  A map has as many variables as component expressions.  ``^``
takes a non-negative integer literal of at most ``MAX_EXPONENT``.
Multiplication is always explicit.  Pretty-printed polynomials re-parse to
themselves when no exponent exceeds ``MAX_EXPONENT``: ``((x^1000)^1000)``
prints ``x1^1000000``.

An expression is read in one pass: after one regex search for a character
that no token can hold, a recursive descent matches each token at its
cursor when it needs it.  Products and powers are bounded by ``MAX_WORK``,
and coefficients by Python's limit on the digits of an int printed as text
(``digit_limit``): a power is refused when a bound on its coefficients
passes the limit, and a parsed polynomial when any coefficient does.

Map files hold either one component expression per line (``#`` comments
allowed) or a key-value family description:

    family = "zshift"        # or "rank-one"
    n = 3
    m = 3
    p2 = -11, 6, 5           # zshift: one row per degree, n entries each
    p3 = -13, 9, 4

    gamma = 1, -1            # rank-one instead of p-rows
    alpha = 1, 2             # degrees 2..m
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import comb, lcm, log10

from keller_lab.families import (
    RankOneSpec,
    ZShiftMap,
    keller_zshift_map,
    rank_one_map,
)
from keller_lab.poly import Poly, PolyMap


class ParseError(ValueError):
    """Syntax error with a character position (0-based)."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


# A token is a (kind, text, position) tuple.  Its kind is "int", "name",
# the operator character itself, or "" at the end of the text.
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(.?))")
_KINDS = (None, "int", "name", None)
_STRAY_RE = re.compile(r"[^\s\dA-Za-z_+\-*^/()]")

# Each '(' costs the recursive-descent parser four stack frames and each
# unary '-' one, so nesting is capped well below Python's recursion limit.
MAX_NESTING = 100

# Powering repeats one multiplication per unit of the exponent, so a literal
# like x^100000000 would never finish; exponents are capped before powering.
MAX_EXPONENT = 1000

# Multiply-adds that one product or power may take, bounded before the
# kernel runs: the bound is 1.25e7 for (x1+...+x9)^12, 2.0e6 for
# (x+1)^1000 and 3.9e12 for (x1+...+x9)^60.
MAX_WORK = 1 << 24


def _literal(tok) -> int:
    _, text, position = tok
    try:
        return int(text)
    except ValueError as exc:  # longer than int() converts (4300 digits)
        raise ParseError(
            f"integer literal of {len(text)} digits is too long",
            position) from exc


def digit_limit() -> int:
    """Python's limit on the digits of an int printed as text, or 0 (no
    limit) on Pythons before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _power_digits(base: Poly, k: int) -> float:
    """log10 of a bound on the numerators and denominators of ``base ** k``.

    With base = (sum a_i m_i) / D over integers a_i, every coefficient of
    the power has a numerator of at most (sum |a_i|)^k and a denominator
    dividing D^k."""
    coeffs = base.terms.values()
    den = lcm(*(c.denominator for c in coeffs))
    top = sum(abs(c.numerator) * (den // c.denominator) for c in coeffs)
    return k * log10(max(top, den))


def _power_work(base: Poly, k: int) -> int:
    """An upper bound on the multiply-adds of ``base ** k``: k - 1 products
    of base by a partial power, which has no more terms than the multisets
    of k terms of base or the monomials of degree <= k * deg(base) in the v
    variables that base uses."""
    t = len(base)
    if k < 2 or not t:
        return 0
    v = sum(map(any, zip(*base.terms)))
    terms = min(comb(t + k - 1, k), comb(v + k * base.degree(), v))
    return (k - 1) * t * terms


class _Parser:
    """Recursive descent; ``tok`` is the current token, ``cursor`` the index
    just past it."""

    def __init__(self, text: str, n: int):
        stray = _STRAY_RE.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}",
                             stray.start())
        self.text = text
        self.n = n
        self.depth = 0
        self.tok, self.cursor = None, 0
        self.take()

    def take(self) -> tuple[str, str, int]:
        """Return the current token and match the next one at the cursor."""
        tok = self.tok
        m = _TOKEN_RE.match(self.text, self.cursor)
        text = m.group(m.lastindex)
        self.tok = (_KINDS[m.lastindex] or text, text, m.start(m.lastindex))
        self.cursor = m.end()
        return tok

    def nest(self, tok) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} levels of "
                "parentheses and unary minus", tok[2])

    def parse(self) -> Poly:
        value = self.expression()
        if self.tok[0]:
            raise ParseError(f"unexpected {self.tok[1]!r}", self.tok[2])
        limit = digit_limit()
        big = max((max(abs(c.numerator), c.denominator)
                   for c in value.terms.values()), default=0)
        # 2^(3 * limit) < 10^limit: skip the exact test on short ints
        if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
            raise ParseError(
                f"a coefficient is over the {limit}-digit limit", 0)
        return value

    def expression(self) -> Poly:
        value = self.term()
        while self.tok[0] in ("+", "-"):
            if self.take()[0] == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.tok[0] == "*":
            star = self.take()
            right = self.factor()
            if len(value) * len(right) > MAX_WORK:
                raise ParseError(
                    f"product of {len(value)} by {len(right)} terms exceeds "
                    f"the limit of {MAX_WORK} multiply-adds", star[2])
            value = value * right
        return value

    def factor(self) -> Poly:
        if self.tok[0] == "-":
            self.nest(self.take())
            value = -self.factor()
            self.depth -= 1
            return value
        base = self.atom()
        if self.tok[0] != "^":
            return base
        self.take()
        kind, text, position = self.take()
        if kind != "int":
            raise ParseError(
                "exponent must be a non-negative integer literal", position)
        # compare digit counts first: int() refuses literals of more than
        # 4300 digits
        digits = text.lstrip("0") or "0"
        if (len(digits) > len(str(MAX_EXPONENT))
                or int(digits) > MAX_EXPONENT):
            raise ParseError(
                f"exponent exceeds the limit of {MAX_EXPONENT}", position)
        k = int(digits)
        if _power_work(base, k) > MAX_WORK:
            raise ParseError(
                f"power {k} of {len(base)} terms exceeds the limit of "
                f"{MAX_WORK} multiply-adds", position)
        limit = digit_limit()
        if limit and _power_digits(base, k) > limit:
            raise ParseError(
                f"power {k} may give coefficients over the {limit}-digit "
                "limit", position)
        return base ** k

    def atom(self) -> Poly:
        tok = self.take()
        kind, text, position = tok
        if kind == "int":
            value = Fraction(_literal(tok))
            # a fraction needs an integer token after the '/'
            if (self.tok[0] == "/"
                    and _TOKEN_RE.match(self.text, self.cursor).group(1)):
                self.take()
                den_tok = self.take()
                den = _literal(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                value /= den
            return Poly.const(self.n, value)
        if kind == "name":
            return Poly.variable(self.n, self.variable_index(tok))
        if kind == "(":
            self.nest(tok)
            value = self.expression()
            kind, text, position = self.take()
            if kind != ")":
                raise ParseError(
                    f"expected rparen, found {text or 'end of input'!r}",
                    position)
            self.depth -= 1
            return value
        raise ParseError(
            f"expected a number, variable or '(', found "
            f"{text or 'end of input'!r}", position)

    def variable_index(self, tok) -> int:
        _, name, position = tok
        if name == "x" and self.n <= 2:
            return 1
        if name == "y" and self.n == 2:
            return 2
        match = re.fullmatch(r"x([1-9])", name)
        if match:
            index = int(match.group(1))
            if index > self.n:
                raise ParseError(
                    f"unknown variable {name!r} (map has {self.n} "
                    f"variable{'s' if self.n != 1 else ''})", position)
            return index
        raise ParseError(f"unknown variable {name!r}", position)


def parse_poly(text: str, n: int) -> Poly:
    """Parse one polynomial in n variables."""
    if n < 1 or n > 9:
        raise ValueError("variable count must be between 1 and 9")
    return _Parser(text, n).parse()


def parse_map(texts: list[str]) -> PolyMap:
    """Parse one expression per component into a square polynomial map.

    A map of k components lives in k variables: a variable past the count
    is an unknown variable, refused with its position."""
    if not texts:
        raise ParseError("a map needs at least one component expression", 0)
    n = len(texts)
    if n > 9:
        raise ParseError("variable count must be between 1 and 9", 0)
    return PolyMap([parse_poly(text, n) for text in texts])


# -- map files ----------------------------------------------------------------

def _strip_comment(line: str) -> str:
    cut = line.find("#")
    return line if cut < 0 else line[:cut]


_KEY_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*=\s*(.*?)\s*$")


def is_family_format(text: str) -> bool:
    for line in text.splitlines():
        line = _strip_comment(line).strip()
        if line:
            return _KEY_RE.match(line) is not None
    return False


def _parse_rational(text: str, line_no: int) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"line {line_no}: bad rational {text.strip()!r}",
                         0) from exc


def _parse_rational_list(text: str, line_no: int) -> tuple[Fraction, ...]:
    return tuple(_parse_rational(part, line_no)
                 for part in text.split(","))


def parse_family_file(text: str) -> ZShiftMap:
    """Build a structured family map from key-value lines.

    Zero-sum hypotheses are enforced at construction, so violations
    surface as ValueError (a domain error rather than a syntax error).
    """
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        match = _KEY_RE.match(line)
        if match is None:
            raise ParseError(f"line {line_no}: expected key = value", 0)
        key = match.group(1).lower()
        if key in entries:
            raise ParseError(f"line {line_no}: duplicate key {key!r}", 0)
        entries[key] = (match.group(2), line_no)

    family_entry = entries.pop("family", None)
    if family_entry is None:
        raise ParseError("missing 'family' key", 0)
    family = family_entry[0].strip().strip("\"'")

    n_entry = entries.pop("n", None)
    m_entry = entries.pop("m", None)
    if n_entry is None or m_entry is None:
        raise ParseError("missing 'n' or 'm' key", 0)
    try:
        n = int(n_entry[0])
        m = int(m_entry[0])
    except ValueError as exc:
        raise ParseError("'n' and 'm' must be integers", 0) from exc
    if not 1 <= n <= 9 or m < 1:
        raise ParseError("need 1 <= n <= 9 and m >= 1", 0)

    if family == "zshift":
        rows = []
        for degree in range(2, m + 1):
            row_entry = entries.pop(f"p{degree}", None)
            if row_entry is None:
                raise ParseError(f"missing row 'p{degree}'", 0)
            row = _parse_rational_list(*row_entry)
            if len(row) != n:
                raise ParseError(
                    f"row p{degree} needs {n} entries, got {len(row)}", 0)
            rows.append(row)
        _reject_leftovers(entries)
        # stored row-per-coordinate: transpose the per-degree rows
        table = [[rows[d][k] for d in range(m - 1)] for k in range(n)]
        return keller_zshift_map(table)

    if family == "rank-one":
        gamma_entry = entries.pop("gamma", None)
        alpha_entry = entries.pop("alpha", None)
        if gamma_entry is None:
            raise ParseError("missing 'gamma' key", 0)
        gamma = _parse_rational_list(*gamma_entry)
        if len(gamma) != n:
            raise ParseError(f"gamma needs {n} entries, got {len(gamma)}", 0)
        alphas = _parse_rational_list(*alpha_entry) if alpha_entry else ()
        if len(alphas) != m - 1:
            raise ParseError(
                f"alpha needs {m - 1} entries (degrees 2..{m}), "
                f"got {len(alphas)}", 0)
        _reject_leftovers(entries)
        return rank_one_map(RankOneSpec(gamma, alphas))

    raise ParseError(
        f"unknown family {family!r} (expected 'zshift' or 'rank-one')", 0)


def _reject_leftovers(entries: dict) -> None:
    if entries:
        key = next(iter(entries))
        raise ParseError(f"unexpected key {key!r}", 0)


def parse_map_file(text: str) -> PolyMap:
    """Parse a map file: family key-value format or expression lines."""
    if is_family_format(text):
        return parse_family_file(text)
    lines = [stripped for raw in text.splitlines()
             if (stripped := _strip_comment(raw).strip())]
    return parse_map(lines)
