"""Expression and file parsing for polynomial map input.

The expression grammar is plain arithmetic: ``+ - * ^``, unary minus,
parentheses, integer and fraction literals (``3/2``), and variables
``x1``..``x9`` (with ``x``/``y`` as aliases when the map has at most two
variables).  ``^`` takes a non-negative integer literal of at most
``MAX_EXPONENT``.  Multiplication is always explicit.  Pretty-printed
polynomials re-parse to themselves.

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
from dataclasses import dataclass
from fractions import Fraction

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


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    position: int


_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^/()])
""", re.VERBOSE)

_OP_KINDS = {"+": "plus", "-": "minus", "*": "star", "^": "caret",
             "/": "slash", "(": "lparen", ")": "rparen"}


def tokenize(text: str) -> list[Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if match.lastgroup == "int":
            tokens.append(Token("int", match.group(), pos))
        elif match.lastgroup == "name":
            tokens.append(Token("name", match.group(), pos))
        elif match.lastgroup == "op":
            tokens.append(Token(_OP_KINDS[match.group()], match.group(), pos))
        pos = match.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


# Each '(' and each unary '-' costs the recursive-descent parser stack
# frames (five per parenthesis), so nesting is capped well below Python's
# recursion limit.
MAX_NESTING = 100

# Powering repeats one multiplication per unit of the exponent, so a literal
# like x^100000000 would never finish; exponents are capped before powering.
MAX_EXPONENT = 1000


def _literal(tok: Token) -> int:
    try:
        return int(tok.text)
    except ValueError as exc:  # longer than int() converts (4300 digits)
        raise ParseError(
            f"integer literal of {len(tok.text)} digits is too long",
            tok.position) from exc


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = tokenize(text)
        self.index = 0
        self.n = n
        self.depth = 0

    def nest(self, tok: Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} levels of "
                "parentheses and unary minus", tok.position)

    def peek(self) -> Token:
        return self.tokens[self.index]

    def advance(self) -> Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(
                f"expected {kind}, found {tok.text or 'end of input'!r}",
                tok.position)
        return self.advance()

    def parse(self) -> Poly:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.position)
        return value

    def expression(self) -> Poly:
        value = self.term()
        while self.peek().kind in ("plus", "minus"):
            if self.advance().kind == "plus":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self) -> Poly:
        value = self.factor()
        while self.peek().kind == "star":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> Poly:
        if self.peek().kind == "minus":
            self.nest(self.advance())
            value = -self.factor()
            self.depth -= 1
            return value
        return self.power()

    def power(self) -> Poly:
        base = self.atom()
        if self.peek().kind == "caret":
            self.advance()
            tok = self.peek()
            if tok.kind != "int":
                raise ParseError(
                    "exponent must be a non-negative integer literal",
                    tok.position)
            self.advance()
            # compare digit counts first: int() refuses literals of more
            # than 4300 digits
            digits = tok.text.lstrip("0") or "0"
            if (len(digits) > len(str(MAX_EXPONENT))
                    or int(digits) > MAX_EXPONENT):
                raise ParseError(
                    f"exponent exceeds the limit of {MAX_EXPONENT}",
                    tok.position)
            return base ** int(digits)
        return base

    def atom(self) -> Poly:
        tok = self.advance()
        if tok.kind == "int":
            value = Fraction(_literal(tok))
            if (self.peek().kind == "slash"
                    and self.tokens[self.index + 1].kind == "int"):
                self.advance()
                den_tok = self.advance()
                den = _literal(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok.position)
                value /= den
            return Poly.const(self.n, value)
        if tok.kind == "name":
            return Poly.variable(self.n, self.variable_index(tok))
        if tok.kind == "lparen":
            self.nest(tok)
            value = self.expression()
            self.expect("rparen")
            self.depth -= 1
            return value
        raise ParseError(
            f"expected a number, variable or '(', found "
            f"{tok.text or 'end of input'!r}", tok.position)

    def variable_index(self, tok: Token) -> int:
        name = tok.text
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
                    f"variable{'s' if self.n != 1 else ''})", tok.position)
            return index
        raise ParseError(f"unknown variable {name!r}", tok.position)


def parse_poly(text: str, n: int) -> Poly:
    """Parse one polynomial in n variables."""
    if n < 1 or n > 9:
        raise ValueError("variable count must be between 1 and 9")
    return _Parser(text, n).parse()


def infer_dimension(texts: list[str]) -> int:
    """Guess n from variable mentions and the component count."""
    n = len(texts)
    for text in texts:
        for match in re.finditer(r"\bx([1-9])\b", text):
            n = max(n, int(match.group(1)))
        if re.search(r"\by\b", text):
            n = max(n, 2)
    return max(n, 1)


def parse_map(texts: list[str], n: int | None = None) -> PolyMap:
    """Parse one expression per component into a square polynomial map."""
    if not texts:
        raise ParseError("a map needs at least one component expression", 0)
    if n is None:
        n = infer_dimension(texts)
    if not 1 <= n <= 9:
        raise ParseError("variable count must be between 1 and 9", 0)
    if len(texts) != n:
        raise ParseError(
            f"map on {n} variables needs {n} component expressions, "
            f"got {len(texts)}", 0)
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

    def take(key: str) -> tuple[str, int] | None:
        return entries.pop(key, None)

    family_entry = take("family")
    if family_entry is None:
        raise ParseError("missing 'family' key", 0)
    family = family_entry[0].strip().strip("\"'")

    n_entry = take("n")
    m_entry = take("m")
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
            row_entry = take(f"p{degree}")
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
        gamma_entry = take("gamma")
        alpha_entry = take("alpha")
        if gamma_entry is None:
            raise ParseError("missing 'gamma' key", 0)
        gamma = _parse_rational_list(*gamma_entry)
        if len(gamma) != n:
            raise ParseError(f"gamma needs {n} entries, got {len(gamma)}", 0)
        alphas: tuple[Fraction, ...] = ()
        if alpha_entry is not None:
            alphas = _parse_rational_list(*alpha_entry)
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
