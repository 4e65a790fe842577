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
cursor when it needs it.  Every subexpression is a dict of integer
numerators over one denominator: sums add numerators over the lcm of their
denominators, products and powers run the kernel's integer convolution, and
a finished component builds one Fraction per term.

The expansion limits are ``poly``'s: every product and power of a map is
charged to one running total of at most ``poly.MAX_WORK`` multiply-adds,
and the step that would take the total past it is refused at its token,
before any work.  The powers that are terms of a sum are expanded only
once the whole map is read and paid for, so a long sum of powers in any
component is refused before any is expanded.  A power that repeats in a map,
such as ``(x1+x2+x3)^2`` in every component of a shift map, is expanded
once per map and shared; each occurrence is still charged at its own
``^``, so the limits and their messages do not depend on the sharing.
Coefficients are bounded by Python's limit on the digits of an int printed
as text (``poly.digit_limit``): a power is refused when a bound on its
coefficients passes the limit, and a parsed polynomial when any coefficient
does.  Family files obey the same exponent, work and digit limits.

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
from fractions import Fraction
from math import gcd, lcm

from keller_lab import _purepoly
from keller_lab.families import (
    RankOneSpec,
    ZShiftMap,
    keller_zshift_map,
    rank_one_map,
)
from keller_lab.poly import (
    MAX_EXPONENT,
    ExpansionLimitError,
    Poly,
    PolyMap,
    charge,
    charge_power,
    check_exponent,
    digit_limit,
)

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


def _literal(tok) -> int:
    _, text, position = tok
    try:
        return int(text)
    except ValueError as exc:  # longer than int() converts (4300 digits)
        raise ParseError(
            f"integer literal of {len(text)} digits is too long",
            position) from exc


def _check_digits(p: Poly) -> None:
    """Refuse a polynomial with a coefficient over the digit limit, which
    could never be printed."""
    limit = digit_limit()
    big = max(map(abs, (part for c in p.terms.values()
                        for part in c.as_integer_ratio())), default=0)
    # 2^(3 * limit) < 10^limit: skip the exact test on short ints
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise ParseError(f"a coefficient is over the {limit}-digit limit", 0)


def _lowest(nums: dict, den: int) -> tuple[dict, int]:
    """nums over den with den made coprime to the numerators as a whole, so
    that den is the lowest common denominator of the coefficients."""
    if den == 1:
        return nums, den
    g = gcd(den, *nums.values())
    if g == 1:
        return nums, den
    return {mono: num // g for mono, num in nums.items()}, den // g


class _Parser:
    """Recursive descent over the components of one map; ``tok`` is the
    current token, ``cursor`` the index just past it, ``work`` the
    multiply-adds charged so far to the map, and ``powers`` the powers it
    has expanded, keyed by (base numerators as a frozenset of items, exponent).

    A value is a pair (nums, den): a dict {exponent tuple: nonzero integer
    numerator} over one positive denominator, kept coprime to the numerators
    as a whole.  A pending power, paid for but not yet expanded, is a triple
    (nums, den, k): base nums to the power k, over the denominator den, the
    base's to the power k.  Products and powers run on the kernel's integer
    convolution (``_purepoly.mul_ints``, ``_purepoly.pow_ints``), and a
    finished component builds one Fraction per term."""

    def __init__(self, n: int):
        self.n, self.work, self.powers = n, 0, {}

    def read(self, text: str) -> list:
        """One component's sum, its steps charged, its powers unexpanded."""
        stray = _STRAY_RE.search(text)
        if stray:
            raise ParseError(f"unexpected character {stray.group()!r}",
                             stray.start())
        self.text = text
        self.depth = 0
        self.tok, self.cursor = None, 0
        self.take()
        terms = self.expression()
        if self.tok[0]:
            raise ParseError(f"unexpected {self.tok[1]!r}", self.tok[2])
        return terms

    def expand(self, terms: list) -> Poly:
        """The polynomial of a sum that ``read`` returned."""
        nums, den = self.total(terms)
        value = Poly._wrap(self.n, _purepoly.terms_over(nums, den))
        _check_digits(value)
        return value

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

    def pay(self, position: int, step, *args) -> None:
        """Charge a step (``charge`` or ``charge_power`` and its arguments)
        to self.work, or refuse it at position."""
        try:
            self.work = step(self.work, *args)
        except ExpansionLimitError as exc:
            raise ParseError(str(exc), position) from exc

    def expanded(self, term) -> tuple[dict, int]:
        """A term's value: a pending power is expanded here, or read from
        self.powers if the map has expanded it before.  No value dict is
        ever changed in place, so a memoised power is safe to share."""
        if len(term) == 2:
            return term
        nums, den, k = term
        key = frozenset(nums.items()), k
        power = self.powers.get(key)
        if power is None:
            power = self.powers[key] = _purepoly.pow_ints(nums, k, self.n)
        return power, den

    def total(self, terms: list) -> tuple[dict, int]:
        """Expand the terms of a sum and add them, left to right, into one
        dict of numerators over the lcm of their denominators: adding
        polynomials would copy the partial sum for every term."""
        (_, first), *rest = terms
        if not rest:
            return self.expanded(first)
        den = lcm(*[term[1] for _, term in terms])
        total: dict = {}
        get = total.get
        for sign, term in terms:
            nums, d = self.expanded(term)
            scale = den // d if sign == "+" else -(den // d)
            for mono, num in nums.items():
                num = get(mono, 0) + num * scale
                if num:
                    total[mono] = num
                else:
                    del total[mono]
        return _lowest(total, den)

    def expression(self) -> list:
        """A sum as (sign, term) pairs; its powers are paid for but left
        unexpanded (see ``total``)."""
        terms = [("+", self.term())]
        while self.tok[0] in ("+", "-"):
            terms.append((self.take()[0], self.term()))
        return terms

    def term(self):
        value = self.factor()
        while self.tok[0] == "*":
            star = self.take()
            right = self.factor()
            (a, da), (b, db) = self.expanded(value), self.expanded(right)
            self.pay(star[2], charge, len(a) * len(b),
                     f"product of {len(a)} by {len(b)} terms")
            value = _lowest(_purepoly.mul_ints(a, b), da * db)
        return value

    def factor(self):
        """A value, or a pending power already paid for."""
        if self.tok[0] == "-":
            self.nest(self.take())
            nums, den = self.expanded(self.factor())
            self.depth -= 1
            return {mono: -num for mono, num in nums.items()}, den
        base = self.atom()
        if self.tok[0] != "^":
            return base
        self.take()
        kind, text, position = self.take()
        if kind != "int":
            raise ParseError(
                "exponent must be a non-negative integer literal", position)
        # int() refuses literals of more than 4300 digits: a literal longer
        # than MAX_EXPONENT's is over the limit, whatever its value
        digits = text.lstrip("0") or "0"
        k = (int(digits) if len(digits) <= len(str(MAX_EXPONENT))
             else MAX_EXPONENT + 1)
        nums, den = base
        self.pay(position, charge_power, nums, den, k)
        return nums, den ** k, k

    def atom(self) -> tuple[dict, int]:
        tok = self.take()
        kind, text, position = tok
        if kind == "int":
            num, den = _literal(tok), 1
            # a fraction needs an integer token after the '/'
            if (self.tok[0] == "/"
                    and _TOKEN_RE.match(self.text, self.cursor).group(1)):
                self.take()
                den_tok = self.take()
                den = _literal(den_tok)
                if den == 0:
                    raise ParseError("zero denominator", den_tok[2])
                g = gcd(num, den)
                num, den = num // g, den // g
            return ({(0,) * self.n: num}, den) if num else ({}, 1)
        if kind == "name":
            mono = [0] * self.n
            mono[self.variable_index(tok) - 1] = 1
            return {tuple(mono): 1}, 1
        if kind == "(":
            self.nest(tok)
            terms = self.expression()
            kind, text, position = self.take()
            if kind != ")":
                raise ParseError(
                    f"expected rparen, found {text or 'end of input'!r}",
                    position)
            self.depth -= 1
            return self.total(terms)
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
    parser = _Parser(n)
    return parser.expand(parser.read(text))


def parse_map(texts: list[str]) -> PolyMap:
    """Parse one expression per component into a square polynomial map.

    A map of k components lives in k variables: a variable past the count
    is an unknown variable, refused with its position.  Every component
    is read and charged to one running total of work, bounded by
    ``poly.MAX_WORK``, before the powers of any sum are expanded; each
    distinct power is expanded once per map, while every occurrence is
    charged to the total at its own token."""
    if not texts:
        raise ParseError("a map needs at least one component expression", 0)
    n = len(texts)
    if n > 9:
        raise ParseError("variable count must be between 1 and 9", 0)
    parser = _Parser(n)
    sums = [parser.read(text) for text in texts]
    return PolyMap([parser.expand(terms) for terms in sums])


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
    """Build a structured family map from key-value lines, and expand it.

    The map obeys the expression reader's limits, each refused with a
    ParseError: a degree m over MAX_EXPONENT before any row is read, the
    work of expanding its powers (``ZShiftMap.components``) over MAX_WORK
    before any is expanded, and an expanded coefficient over the digit
    limit.  Zero-sum hypotheses are enforced at construction, so violations
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
    try:
        check_exponent(m)
        f = _family_map(family, n, m, entries)
        components = f.components
    except ExpansionLimitError as exc:
        raise ParseError(str(exc), 0) from exc
    for p in components:
        _check_digits(p)
    return f


def _family_map(family: str, n: int, m: int, entries: dict) -> ZShiftMap:
    """The family map of the key-value entries left after family, n, m."""
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
