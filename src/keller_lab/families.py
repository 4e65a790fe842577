"""Maps shifted along powers of the coordinate sum, and their inverses.

Writing z = x1 + ... + xn, a z-shift map sends X to X + sum_l P^(l) * z^l
for coefficient vectors P^(2)..P^(m).  The family is closed under
composition because z composed with any member is again a univariate
polynomial in z, and when every column sum vanishes (the Keller case) that
polynomial is z itself, which makes the inverse explicit: negate the table.

The rank-one subfamily stores tables p_k^(l) = gamma_k * alpha_l with the
gamma entries summing to zero; these maps are injective on all of R^n.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod
from typing import Iterable, Sequence

from keller_lab import _kernels
from keller_lab.linalg import RatMatrix, linear_poly_map
from keller_lab.poly import (
    Poly,
    PolyMap,
    as_rational,
    charge_power,
    check_exponent,
    univariate_coefficients,
    z_power,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)
_NOT_IN_Z = ("map is not a z-shift map: shifts are not polynomials in the "
             "coordinate sum")


@dataclass(frozen=True)
class RankOneSpec:
    """Parameters gamma (zero-sum, length n) and alpha_2..alpha_m."""

    gamma: tuple[Fraction, ...]
    alphas: tuple[Fraction, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "gamma",
                           tuple(as_rational(g) for g in self.gamma))
        object.__setattr__(self, "alphas",
                           tuple(as_rational(a) for a in self.alphas))
        if not self.gamma:
            raise ValueError("gamma needs at least one entry")
        if sum(self.gamma) != 0:
            raise ValueError("gamma entries must sum to zero")

    @property
    def n(self) -> int:
        return len(self.gamma)

    @property
    def m(self) -> int:
        return len(self.alphas) + 1

    def coefficient_table(self) -> tuple[tuple[Fraction, ...], ...]:
        """Rows k = 1..n of p_k^(l) = gamma_k * alpha_l, l = 2..m."""
        return tuple(tuple(g * a for a in self.alphas) for g in self.gamma)


class ZShiftMap(PolyMap):
    """X + sum_l P^(l) z^l stored as its coefficient table.

    Rows index coordinates k = 1..n, columns index degrees l = 2..m.
    Trailing all-zero columns are trimmed, so equal maps have equal tables.
    Dense monomial components are expanded lazily (see ``components``).
    """

    __slots__ = ("m", "coeffs", "_expanded")

    def __init__(self, coeffs: Iterable[Iterable[int | Fraction]]):
        rows = tuple(tuple(as_rational(c) for c in row) for row in coeffs)
        if not rows:
            raise ValueError("coefficient table needs one row per coordinate")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValueError("coefficient table rows must have equal length")
        while width and all(row[width - 1] == 0 for row in rows):
            width -= 1
        self.n = len(rows)
        self.m = width + 1
        self.coeffs = tuple(row[:width] for row in rows)
        self._expanded = None

    # -- structure ----------------------------------------------------------

    @property
    def components(self) -> tuple[Poly, ...]:
        """The expanded components, built on first use from one power z^l
        for each degree l with a nonzero coefficient.

        Since z^l fills a simplex of monomials, the work of all those powers
        is paid for under the parser's limits (``charge_power``) before any
        is expanded: ExpansionLimitError refuses a table whose powers pass
        MAX_WORK multiply-adds in all, as the parser refuses the same powers
        in one expression.  Component k then takes, for each such l, the
        term p_k^(l) * l!/prod(e_i!) of every monomial x^e of z^l, in z^l's
        term order, from the integer coefficients that z^l holds.  z^l has
        few distinct multinomial coefficients, so each component builds one
        Fraction per distinct value of each degree and its terms share it
        (a Fraction is immutable)."""
        if self._expanded is None:
            n = self.n
            units = [(0,) * k + (1,) + (0,) * (n - k - 1) for k in range(n)]
            z = dict.fromkeys(units, 1)
            columns = [(l, column) for l, column
                       in enumerate(zip(*self.coeffs), 2) if any(column)]
            work = 0
            for l, _ in columns:  # pay for every power before expanding one
                work = charge_power(work, z, 1, l)
            comps = [{unit: _ONE} for unit in units]
            for l, column in columns:
                zp = [(mono, c.numerator) for mono, c
                      in z_power(n, l).terms.items()]
                multinomials = {m for _, m in zp}
                for terms, c in zip(comps, column):
                    if c:
                        p, q = c.numerator, c.denominator
                        value = {m: Fraction(p * m, q) for m in multinomials}
                        terms.update([(mono, value[m]) for mono, m in zp])
            self._expanded = tuple(Poly._wrap(n, terms) for terms in comps)
        return self._expanded

    def column_sums(self) -> tuple[Fraction, ...]:
        """sum_k p_k^(l) for l = 2..m."""
        return tuple(sum((row[idx] for row in self.coeffs), _ZERO)
                     for idx in range(self.m - 1))

    def is_keller_family(self) -> bool:
        """Zero column sums; equivalent to det Df = 1."""
        return all(s == 0 for s in self.column_sums())

    def jacobian_det_closed_form(self) -> Poly:
        """det Df = 1 + sum_l l*s_l*z^(l-1), s_l the column sums.

        Df is a rank-one update of the identity (every partial of z equals
        1), so its determinant is 1 plus the trace of the update.
        """
        det = Poly.const(self.n, 1)
        for l, s in enumerate(self.column_sums(), 2):
            if s:
                det = det + z_power(self.n, l - 1) * (s * l)
        return det

    def degree(self) -> int:
        return self.m

    def is_identity(self) -> bool:
        return self.m == 1

    def eval(self, point: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        if len(point) != self.n:
            raise ValueError(
                f"dimension mismatch: point has {len(point)} coordinates, "
                f"expected {self.n}")
        pt = [as_rational(c) for c in point]
        z = sum(pt, _ZERO)
        zp, powers = z, []
        for _ in range(2, self.m + 1):
            zp *= z
            powers.append(zp)
        return tuple(
            pt[k] + sum((c * p for c, p in zip(self.coeffs[k], powers)), _ZERO)
            for k in range(self.n))

    def __eq__(self, other) -> bool:
        if isinstance(other, ZShiftMap):
            return self.n == other.n and self.coeffs == other.coeffs
        return super().__eq__(other)

    __hash__ = PolyMap.__hash__

    def __repr__(self) -> str:
        return f"ZShiftMap(n={self.n}, m={self.m}, coeffs={self.coeffs!r})"

    # -- sheared coordinates -------------------------------------------------

    def sheared(self) -> PolyMap:
        """The same map conjugated into coordinates where z is an axis.

        With the unimodular substitution x = S y (shear_matrix: x1 = y1 -
        (y2+...+yn), xk = yk) the coordinate sum becomes y1, so component k
        of f o S is component k of S y plus sum_l p_k^(l) * y1^l.
        det D(f o S) equals det Df composed with S, which keeps the symbolic
        determinant sparse (no dense z^l expansion is ever formed).
        """
        y1 = Poly.variable(self.n, 1)
        shear = linear_poly_map(shear_matrix(self.n))
        return PolyMap(sum((y1 ** l * c for l, c in enumerate(row, 2) if c), p)
                       for p, row in zip(shear.components, self.coeffs))


def shear_matrix(n: int) -> RatMatrix:
    """S with x = S y: x1 = y1 - (y2+...+yn), xk = yk; det S = 1."""
    rows = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = _ONE
    for j in range(1, n):
        rows[0][j] = -_ONE
    return RatMatrix(rows)


def rank_one_map(spec: RankOneSpec) -> ZShiftMap:
    """The map X + (alpha_2 z^2 + ... + alpha_m z^m) * gamma."""
    return ZShiftMap(spec.coefficient_table())


def keller_zshift_map(coeffs: Iterable[Iterable[int | Fraction]]) -> ZShiftMap:
    """Construct a z-shift map, requiring every column sum to vanish."""
    f = ZShiftMap(coeffs)
    bad = [idx + 2 for idx, s in enumerate(f.column_sums()) if s != 0]
    if bad:
        raise ValueError(
            f"column sums must vanish; degrees {bad} have nonzero sums")
    return f


def zshift_from_map(f: PolyMap) -> ZShiftMap:
    """Recognize a plain PolyMap as a z-shift map, or raise ValueError.

    A shift is sum_l t_l z^l, t_l its x1^l coefficient, when its degree-l
    terms are the C(l+n-1, l) terms t_l l!/prod(e_i!) x^e of t_l z^l, or
    none if t_l = 0.  Each t_l is read sparsely from the x1-axis terms, so
    no row as wide as a degree is built until the term checks pass; for
    n >= 2 they bound the degree by f's own term count.  A monomial's
    multinomial l!/prod(e_i!) is computed once per call, however many
    components hold it, and each component's terms are copied once.  A
    shift map whose degree passes MAX_EXPONENT, as no family file can
    state, is refused with ExpansionLimitError.  A ZShiftMap is returned
    as it is, and any other result keeps f's components as its expansion.
    """
    if isinstance(f, ZShiftMap):
        return f
    n, shifts = f.n, []
    rest = (0,) * (n - 1)
    for k, p in enumerate(f.components):
        unit = (0,) * k + (1,) + (0,) * (n - k - 1)
        shift = dict(p._terms)  # the one copy: a Poly holds no zero term
        c = shift.pop(unit, _ZERO) - 1
        if c:
            shift[unit] = c
        if (0,) + rest in shift or (1,) + rest in shift:
            raise ValueError(
                "map is not a z-shift map: shifts must start at degree 2")
        shifts.append(shift)
    fact = cache(factorial)  # each k! once per call, only as asked for

    @cache  # once per monomial, however many components hold it
    def multinomial(e):
        """l!/prod(e_i!) for the monomial x^e of degree l."""
        return fact(sum(e)) // prod(map(fact, e))

    axes = []
    for s in shifts:
        degrees = list(map(sum, s))
        count = Counter(degrees)
        t = {l: s[e] for l in count if (e := (l,) + rest) in s}
        if count != {l: comb(l + n - 1, l) for l in t}:
            raise ValueError(_NOT_IN_Z)
        # t[l] is s's x1^l coefficient, and each other x^e's must be t[l]
        # times e's multinomial: compared on integers
        ratios = {l: c.as_integer_ratio() for l, c in t.items()}
        for (e, c), l in zip(s.items(), degrees):
            if e[0] != l:  # not on the x1-axis
                num, den = c.as_integer_ratio()
                t_num, t_den = ratios[l]
                if num * t_den != t_num * multinomial(e) * den:
                    raise ValueError(_NOT_IN_Z)
        axes.append(t)
    top = max((l for t in axes for l in t), default=0)
    check_exponent(top)
    zmap = ZShiftMap([t.get(l, _ZERO) for l in range(2, top + 1)]
                     for t in axes)
    zmap._expanded = f.components
    return zmap


def compose_zshift(outer: ZShiftMap, inner: ZShiftMap) -> ZShiftMap:
    """outer o inner without leaving the family.

    z composed with inner is the univariate polynomial
    s(z) = z + sum_l (column sum_l) z^l, so
    (outer o inner)(X) = X + P_inner(z) + Q_outer(s(z)) where Q_outer is
    outer's shift vector.  Everything stays a polynomial in z.
    """
    if outer.n != inner.n:
        raise ValueError(f"dimension mismatch: {outer.n} vs {inner.n}")
    n = outer.n
    s = {(1,): _ONE}
    for l, c in enumerate(inner.column_sums(), 2):
        if c:
            s[(l,)] = c
    out_width = 0
    rows: list[tuple[Fraction, ...]] = []
    for k in range(n):
        # r_k(z) = inner shift + outer shift evaluated at s(z)
        shift = {(l,): c for l, c in enumerate(inner.coeffs[k], 2) if c}
        q = {(l,): c for l, c in enumerate(outer.coeffs[k], 2) if c}
        acc = univariate_coefficients(_kernels.add_terms(
            shift, _kernels.compose_terms(q, [s], 1)))
        if acc[0] != 0 or (len(acc) > 1 and acc[1] != 0):
            raise AssertionError("composition left the z-shift family")
        rows.append(acc[2:])
        out_width = max(out_width, len(acc) - 2)
    return ZShiftMap(tuple(row + (_ZERO,) * (out_width - len(row))
                           for row in rows))


def zshift_inverse(f: ZShiftMap) -> ZShiftMap:
    """Exact inverse of a Keller z-shift map: negate the table, then verify.

    Because z o f = z when the column sums vanish, the shifted amounts are
    recoverable from the image, and negating them undoes the map.  Both
    composition orders are checked before returning.
    """
    if not f.is_keller_family():
        raise ValueError("inverse formula requires zero column sums")
    g = ZShiftMap(tuple(tuple(-c for c in row) for row in f.coeffs))
    for a, b in ((g, f), (f, g)):
        if not compose_zshift(a, b).is_identity():
            raise AssertionError("inverse verification failed")
    return g


def conjugate(a: RatMatrix, f: PolyMap, b: RatMatrix) -> PolyMap:
    """The composite A o f o B as an expanded PolyMap.

    Both matrices must be square of f's dimension and invertible.
    """
    n = f.n
    for name, mat in (("A", a), ("B", b)):
        if mat.rows != n or mat.cols != n:
            raise ValueError(f"{name} must be {n}x{n}")
        if mat.det() == 0:
            raise ValueError(f"{name} is singular")
    return linear_poly_map(a).compose(f.compose(linear_poly_map(b)))
