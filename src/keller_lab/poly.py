"""Exact sparse multivariate polynomials over the rationals.

A polynomial in n variables x1..xn is a map from exponent tuples (length n,
non-negative ints) to nonzero Fraction coefficients.  All arithmetic is
exact; there is no floating point anywhere in this module.  Canonical form:
no zero coefficients are stored, and sorted_terms and printing follow
descending graded-lexicographic order, so equal polynomials have equal
representations.

Polynomial maps R^n -> R^n are tuples of n such polynomials.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import comb, log10
from typing import Iterable, Mapping, Sequence

from keller_lab import _kernels

Rational = Fraction
Monomial = tuple[int, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def as_rational(value: int | Fraction | str) -> Fraction:
    """Coerce ints and 'p/q' strings to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"cannot treat {value!r} as an exact rational")


def grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    """Sort key for graded-lexicographic order (degree first, then lex)."""
    return (sum(mono), mono)


class Poly:
    """Immutable sparse polynomial in n variables with Fraction coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Fraction] | None = None):
        if n < 0:
            raise ValueError("dimension must be non-negative")
        self.n = n
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                mono = tuple(mono)
                if len(mono) != n:
                    raise ValueError(
                        f"monomial {mono} has {len(mono)} exponents, expected {n}")
                if any(e < 0 for e in mono):
                    raise ValueError(f"negative exponent in monomial {mono}")
                c = as_rational(coeff)
                if c:
                    c = clean.get(mono, _ZERO) + c
                    if c:
                        clean[mono] = c
                    else:
                        del clean[mono]
        self._terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def const(cls, n: int, value: int | Fraction | str) -> "Poly":
        c = as_rational(value)
        return cls._wrap(n, {(0,) * n: c} if c else {})

    @classmethod
    def variable(cls, n: int, i: int) -> "Poly":
        """The polynomial x_i (1-based index)."""
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        exps = [0] * n
        exps[i - 1] = 1
        return cls._wrap(n, {tuple(exps): _ONE})

    @classmethod
    def _wrap(cls, n: int, terms: dict) -> "Poly":
        """Wrap an already-canonical term dict without re-validating."""
        p = object.__new__(cls)
        p.n = n
        p._terms = terms
        return p

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """A copy of the term dict."""
        return dict(self._terms)

    def sorted_terms(self) -> list[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lexicographic order."""
        return sorted(self._terms.items(),
                      key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __len__(self) -> int:
        return len(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(not any(mono) for mono in self._terms)

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (error otherwise)."""
        if not self._terms:
            return _ZERO
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self._terms.values()))

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self._terms.get(tuple(exps), _ZERO)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(sum(mono) for mono in self._terms)

    def leading(self) -> tuple[Monomial, Fraction]:
        """Leading term under graded-lexicographic order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        mono = max(self._terms, key=grlex_key)
        return mono, self._terms[mono]

    def homogeneous_part(self, d: int) -> "Poly":
        """The sum of terms of total degree exactly d."""
        return Poly._wrap(self.n, {m: c for m, c in self._terms.items()
                                   if sum(m) == d})

    # -- arithmetic --------------------------------------------------------

    def _check_dim(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(
                f"dimension mismatch: {self.n} vs {other.n} variables")

    def _coerce(self, other) -> "Poly | None":
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(self.n, other)
        return None

    def __add__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_dim(o)
        return Poly._wrap(self.n, _kernels.add_terms(self._terms, o._terms))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_dim(o)
        return Poly._wrap(self.n, _kernels.sub_terms(self._terms, o._terms))

    def __rsub__(self, other) -> "Poly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.n, _kernels.scale_terms(Fraction(-1), self._terms))

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly._wrap(self.n,
                              _kernels.scale_terms(as_rational(other), self._terms))
        if isinstance(other, Poly):
            self._check_dim(other)
            return Poly._wrap(self.n, _kernels.mul_terms(self._terms, other._terms))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return Poly._wrap(self.n, _kernels.pow_terms(self._terms, k, self.n))

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def divexact(self, divisor: "Poly") -> "Poly":
        """Exact polynomial division; raises if the division is not exact.

        Repeated leading-term reduction in graded-lex order.
        """
        self._check_dim(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        lead_mono, lead_coeff = divisor.leading()
        rem = dict(self._terms)
        quot: dict[Monomial, Fraction] = {}
        while rem:
            mono = max(rem, key=grlex_key)
            qm = tuple(a - b for a, b in zip(mono, lead_mono))
            if any(e < 0 for e in qm):
                raise ValueError("polynomial division is not exact")
            qc = rem[mono] / lead_coeff
            quot[qm] = qc
            step = _kernels.mul_terms({qm: qc}, divisor._terms)
            rem = _kernels.sub_terms(rem, step)
        return Poly._wrap(self.n, quot)

    # -- calculus / substitution -------------------------------------------

    def partial(self, i: int) -> "Poly":
        """Formal partial derivative with respect to x_i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"variable index {i} out of range 1..{self.n}")
        j = i - 1
        # lowering x_j is one-to-one on the monomials with e_j > 0, and
        # coeff * e_j is never zero: no accumulation, no zero filter
        out = {}
        for mono, coeff in self._terms.items():
            e = mono[j]
            if e:
                out[mono[:j] + (e - 1,) + mono[j + 1:]] = Fraction(
                    coeff.numerator * e, coeff.denominator)
        return Poly._wrap(self.n, out)

    def compose(self, pmap: "PolyMap") -> "Poly":
        """Substitute x_i -> pmap.components[i-1], fully expanded."""
        if self.n != pmap.n:
            raise ValueError(
                f"dimension mismatch: {self.n} variables vs map on {pmap.n}")
        return Poly._wrap(pmap.n, _kernels.compose_terms(
            self._terms, [c._terms for c in pmap.components], pmap.n))

    def eval(self, point: Sequence[int | Fraction]) -> Fraction:
        """Exact value at a rational point."""
        if len(point) != self.n:
            raise ValueError(
                f"dimension mismatch: point has {len(point)} coordinates, "
                f"expected {self.n}")
        pt = tuple(as_rational(c) for c in point)
        return _kernels.eval_terms(self._terms, pt)

    def restrict_segment(self, start: Sequence, end: Sequence) -> tuple[Fraction, ...]:
        """Coefficients (in t) of p(start + t*(end - start)), exact.

        Returns the univariate coefficient tuple c0..cd with
        p(gamma(t)) = sum c_k t^k: p composed, by the compose kernel, with
        the line x_i = start_i + (end_i - start_i) * t.
        """
        if len(start) != self.n or len(end) != self.n:
            raise ValueError("dimension mismatch in segment endpoints")
        line = []
        for s, e in zip(start, end):
            a = as_rational(s)
            g = {(0,): a, (1,): as_rational(e) - a}
            line.append({k: c for k, c in g.items() if c})
        return univariate_coefficients(
            _kernels.compose_terms(self._terms, line, 1))

    # -- printing ----------------------------------------------------------

    def __str__(self) -> str:
        """Terms in descending graded-lex order, as ``-3/2*x1^2*x3 + x2 -
        1``; each sign and magnitude is read from the coefficient's
        numerator and denominator."""
        if not self._terms:
            return "0"
        names = [f"x{i}" for i in range(1, self.n + 1)]
        pieces: list[str] = []
        for mono, coeff in self.sorted_terms():
            num, den = coeff.numerator, coeff.denominator
            sign = " - " if num < 0 else " + "
            num = abs(num)
            factors = "*".join([f"{x}^{e}" if e > 1 else x
                                for x, e in zip(names, mono) if e])
            if den != 1:
                mag = f"{num}/{den}"
            elif num != 1 or not factors:
                mag = str(num)
            else:
                pieces += (sign, factors)
                continue
            pieces += (sign, f"{mag}*{factors}" if factors else mag)
        pieces[0] = "-" if pieces[0] == " - " else ""
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self})"


def univariate_coefficients(terms: Mapping[Monomial, Fraction]
                            ) -> tuple[Fraction, ...]:
    """c0..cd of a univariate term dict, interior zeros kept; (0,) for the
    zero polynomial."""
    if not terms:
        return (_ZERO,)
    out = [_ZERO] * (max(terms)[0] + 1)
    for (k,), c in terms.items():
        out[k] = c
    return tuple(out)


class PolyMap:
    """A polynomial self-map of R^n: one Poly per coordinate."""

    __slots__ = ("n", "components")

    def __init__(self, components: Iterable[Poly]):
        comps = tuple(components)
        if not comps:
            raise ValueError("a polynomial map needs at least one component")
        n = comps[0].n
        if len(comps) != n or any(c.n != n for c in comps):
            raise ValueError(
                "map must have n components of n variables each; got "
                f"{len(comps)} components with dimensions {[c.n for c in comps]}")
        self.n = n
        self.components = comps

    @classmethod
    def identity(cls, n: int) -> "PolyMap":
        return cls(Poly.variable(n, i) for i in range(1, n + 1))

    def is_identity(self) -> bool:
        return all(c == Poly.variable(self.n, i + 1)
                   for i, c in enumerate(self.components))

    def degree(self) -> int:
        return max(c.degree() for c in self.components)

    def eval(self, point: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        return tuple(c.eval(point) for c in self.components)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner: (self o inner)(X) = self(inner(X))."""
        if self.n != inner.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {inner.n}")
        return PolyMap(c.compose(inner) for c in self.components)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.n == other.n and self.components == other.components

    def __hash__(self) -> int:
        return hash(self.components)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.components) + ")"

    def __repr__(self) -> str:
        return f"PolyMap{self}"


def coordinate_sum(n: int) -> Poly:
    """The linear form x1 + ... + xn."""
    terms = {}
    for i in range(n):
        exps = [0] * n
        exps[i] = 1
        terms[tuple(exps)] = _ONE
    return Poly._wrap(n, terms)


# -- the expansion limit -------------------------------------------------------
#
# The one rule for how large a map may grow when it is expanded: the parser
# applies it to every product and power of an expression, and a z-shift map
# to the powers of its coordinate sum.  Each step is refused before its work.

# Powering repeats one multiplication per unit of the exponent, so a literal
# like x^100000000 would never finish; exponents are capped before powering.
MAX_EXPONENT = 1000

# Multiply-adds that expanding one map may take, summed over its products
# and powers and bounded before the kernel runs: the bound is 1.25e7 for
# (x1+...+x9)^12, 2.0e6 for (x+1)^1000 and 3.9e12 for (x1+...+x9)^60.
MAX_WORK = 1 << 24


class ExpansionLimitError(ValueError):
    """An expansion refused before its work: an exponent over MAX_EXPONENT,
    more than MAX_WORK multiply-adds, or coefficients over the digit
    limit."""


def digit_limit() -> int:
    """Python's limit on the digits of an int printed as text, or 0 (no
    limit) on Pythons before 3.10.7."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _power_work(nums: dict, k: int) -> int:
    """An upper bound on the multiply-adds of ``base ** k``, base with the
    monomials of nums: k - 1 products of base by a partial power, which has
    no more terms than the multisets of k terms of base or the monomials of
    degree <= k * deg(base) in the v variables that base uses."""
    t = len(nums)
    if k < 2 or not t:
        return 0
    v = sum(map(any, zip(*nums)))
    terms = min(comb(t + k - 1, k), comb(v + k * max(map(sum, nums)), v))
    return (k - 1) * t * terms


def _power_digits(nums: dict, den: int, k: int) -> float:
    """log10 of a bound on the numerators and denominators of ``base ** k``.

    With base = (sum a_i m_i) / D over integers a_i (nums and den), every
    coefficient of the power has a numerator of at most (sum |a_i|)^k and a
    denominator dividing D^k."""
    return k * log10(max(sum(map(abs, nums.values())), den))


def check_exponent(k: int) -> None:
    """Refuse an exponent over MAX_EXPONENT."""
    if k > MAX_EXPONENT:
        raise ExpansionLimitError(
            f"exponent exceeds the limit of {MAX_EXPONENT}")


def charge(spent: int, work: int, step: str) -> int:
    """spent + work multiply-adds, refused when the step alone or the total
    passes MAX_WORK; step names the step in the message."""
    if work > MAX_WORK:
        raise ExpansionLimitError(
            f"{step} exceeds the limit of {MAX_WORK} multiply-adds")
    if spent + work > MAX_WORK:
        raise ExpansionLimitError(
            f"{step} takes the map past the limit of {MAX_WORK} "
            "multiply-adds")
    return spent + work


def charge_power(spent: int, nums: dict, den: int, k: int) -> int:
    """spent plus the work of ``base ** k``, base being the integer
    numerators nums over den (coprime to the numerators as a whole, as a
    polynomial's lowest common denominator is); refused before any of it
    when k passes MAX_EXPONENT, the work passes MAX_WORK (see ``charge``),
    or a bound on the coefficients passes the digit limit."""
    check_exponent(k)
    spent = charge(spent, _power_work(nums, k),
                   f"power {k} of {len(nums)} terms")
    limit = digit_limit()
    if limit and _power_digits(nums, den, k) > limit:
        raise ExpansionLimitError(
            f"power {k} may give coefficients over the {limit}-digit limit")
    return spent


def z_power(n: int, k: int) -> Poly:
    """(x1+...+xn)^k expanded into the dense monomial basis; refused, by
    ``charge_power``, exactly when the parser refuses ``(x1+...+xn)^k``."""
    z = coordinate_sum(n)
    charge_power(0, dict.fromkeys(z._terms, 1), 1, k)
    return z ** k
