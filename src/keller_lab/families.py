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

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from keller_lab.jacobian import zshift_det_formula
from keller_lab.linalg import RatMatrix, linear_poly_map
from keller_lab.poly import (
    Poly,
    PolyMap,
    _uadd,
    _umul,
    as_rational,
    z_power,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    def shift_polynomial(self) -> tuple[Fraction, ...]:
        """Coefficients (c0, c1, c2, ..., cm) of s(z) = sum alpha_l z^l."""
        return (_ZERO, _ZERO) + self.alphas


class ZShiftMap(PolyMap):
    """X + sum_l P^(l) z^l stored as its coefficient table.

    Rows index coordinates k = 1..n, columns index degrees l = 2..m.
    Trailing all-zero columns are trimmed, so equal maps have equal tables.
    Dense monomial components are expanded lazily (and guarded, since z^l
    fills a simplex of monomials).
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
        self.m = width + 1 if width else 1
        self.coeffs = tuple(row[:width] for row in rows)
        self._expanded = None

    @classmethod
    def from_rank_one(cls, spec: RankOneSpec) -> "ZShiftMap":
        return cls(spec.coefficient_table())

    # -- structure ----------------------------------------------------------

    @property
    def components(self) -> tuple[Poly, ...]:
        if self._expanded is None:
            n = self.n
            powers = [z_power(n, l) for l in range(2, self.m + 1)]
            comps = []
            for k in range(n):
                p = Poly.variable(n, k + 1)
                for idx, zp in enumerate(powers):
                    c = self.coeffs[k][idx]
                    if c:
                        p = p + zp * c
                comps.append(p)
            self._expanded = tuple(comps)
        return self._expanded

    def column_sums(self) -> tuple[Fraction, ...]:
        """sum_k p_k^(l) for l = 2..m."""
        return tuple(sum((row[idx] for row in self.coeffs), _ZERO)
                     for idx in range(self.m - 1))

    def is_keller_family(self) -> bool:
        """Zero column sums; equivalent to det Df = 1."""
        return all(s == 0 for s in self.column_sums())

    def jacobian_det_closed_form(self) -> Poly:
        return zshift_det_formula(self.coeffs)

    def degree(self) -> int:
        return self.m if self.m > 1 else 1

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

        With the unimodular substitution x1 = y1 - (y2+...+yn), xk = yk the
        coordinate sum becomes y1, so every component of f o S is the sum of
        a coordinate and a univariate polynomial in y1.  det D(f o S) equals
        det Df composed with S, which keeps the symbolic determinant sparse
        (no dense z^l expansion is ever formed).
        """
        n = self.n
        comps = []
        for k in range(n):
            terms: dict[tuple[int, ...], Fraction] = {}
            axis = [0] * n
            axis[k] = 1
            terms[tuple(axis)] = _ONE
            if k == 0:
                for j in range(1, n):
                    other = [0] * n
                    other[j] = 1
                    terms[tuple(other)] = -_ONE
            for idx, c in enumerate(self.coeffs[k]):
                if c:
                    mono = [0] * n
                    mono[0] = idx + 2
                    key = tuple(mono)
                    terms[key] = terms.get(key, _ZERO) + c
            comps.append(Poly(n, terms))
        return PolyMap(comps)


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
    return ZShiftMap.from_rank_one(spec)


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

    The shift of each coordinate, if it is a polynomial in z at all, is
    determined by its restriction to the x1-axis (where z = x1); the
    candidate table is then verified against f symbolically.
    """
    if isinstance(f, ZShiftMap):
        return f
    n = f.n
    origin = (0,) * n
    axis = tuple(1 if i == 0 else 0 for i in range(n))
    rows = []
    width = 0
    for k in range(n):
        shift = f.components[k] - Poly.variable(n, k + 1)
        cs = shift.restrict_segment(origin, axis)
        if cs[0] != 0 or (len(cs) > 1 and cs[1] != 0):
            raise ValueError(
                "map is not a z-shift map: shifts must start at degree 2")
        rows.append(cs[2:])
        width = max(width, len(cs) - 2)
    candidate = ZShiftMap(tuple(row + (_ZERO,) * (width - len(row))
                                for row in rows))
    if tuple(candidate.components) != tuple(f.components):
        raise ValueError(
            "map is not a z-shift map: shifts are not polynomials in the "
            "coordinate sum")
    return candidate


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
    s = [_ZERO, _ONE] + list(inner.column_sums())
    s_powers: list[list[Fraction]] = [[_ONE], s]  # s_powers[l] = s(z)^l
    out_width = 0
    rows: list[list[Fraction]] = []
    for k in range(n):
        # r_k(z) = inner shift + outer shift evaluated at s(z)
        acc = [_ZERO, _ZERO] + list(inner.coeffs[k])
        for idx, q in enumerate(outer.coeffs[k]):
            if not q:
                continue
            l = idx + 2
            while len(s_powers) <= l:
                s_powers.append(_umul(s_powers[-1], s))
            acc = _uadd(acc, [q * c for c in s_powers[l]])
        if acc[0] != 0 or (len(acc) > 1 and acc[1] != 0):
            raise AssertionError("composition left the z-shift family")
        rows.append(acc[2:])
        out_width = max(out_width, len(acc) - 2)
    return ZShiftMap(tuple(tuple(row) + (_ZERO,) * (out_width - len(row))
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
    inner = f.compose(linear_poly_map(b))
    comps = []
    for i in range(n):
        p = Poly.zero(n)
        for j in range(n):
            c = a.data[i][j]
            if c:
                p = p + inner.components[j] * c
        comps.append(p)
    return PolyMap(comps)
