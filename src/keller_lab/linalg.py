"""Exact linear algebra over the rationals and over polynomial rings.

RatMatrix covers the scalar side: elimination, determinants, inverses and
general linear solving with an explicit nullspace.  PolyMatrix covers
matrices of polynomials, where determinants use cofactor expansion for
small sizes and fraction-free elimination above that, so every division
performed is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from keller_lab.poly import Poly, PolyMap, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


class RatMatrix:
    """Dense matrix of Fractions with exact operations."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows_data: Iterable[Iterable[int | Fraction]]):
        data = [[as_rational(x) for x in row] for row in rows_data]
        if not data:
            raise ValueError("matrix needs at least one row")
        width = len(data[0])
        if width == 0 or any(len(row) != width for row in data):
            raise ValueError("rows must be non-empty and of equal length")
        self.rows = len(data)
        self.cols = width
        self.data = data

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls([[_ONE if i == j else _ZERO for j in range(n)]
                    for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "RatMatrix":
        return cls([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def column(cls, entries: Sequence[int | Fraction]) -> "RatMatrix":
        return cls([[e] for e in entries])

    def copy(self) -> "RatMatrix":
        return RatMatrix([row[:] for row in self.data])

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.data[i][j]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.data == other.data

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by "
                f"{other.rows}x{other.cols}")
        out = [[sum((self.data[i][k] * other.data[k][j]
                     for k in range(self.cols)), _ZERO)
                for j in range(other.cols)] for i in range(self.rows)]
        return RatMatrix(out)

    def apply(self, vec: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length does not match matrix width")
        v = [as_rational(x) for x in vec]
        return tuple(sum((row[j] * v[j] for j in range(self.cols)), _ZERO)
                     for row in self.data)

    def transpose(self) -> "RatMatrix":
        return RatMatrix([[self.data[i][j] for i in range(self.rows)]
                          for j in range(self.cols)])

    def rank(self) -> int:
        return len(_rref(list(self.data), self.cols)[0])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        pivots, sign, product = _rref(list(self.data), self.cols)
        return sign * product if len(pivots) == self.rows else _ZERO

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        m = [row + [_ONE if i == j else _ZERO for j in range(n)]
             for i, row in enumerate(self.data)]
        if len(_rref(m, n)[0]) < n:
            raise ValueError("matrix is singular")
        return RatMatrix([row[n:] for row in m])

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(x) for x in row) + "]"
                         for row in self.data)

    def __repr__(self) -> str:
        return f"RatMatrix({self.data!r})"


def _rref(m: list[list[Fraction]], k: int) -> tuple[list[int], int, Fraction]:
    """Reduce the first k columns of the row list m to RREF, in place.

    Gauss-Jordan elimination: each pivot row is scaled to a leading one and
    its column cleared above and below.  Row operations span whole rows, so
    columns past k (a right-hand side, an identity block) are carried
    along.  Rows are replaced in m, never mutated, so m may share its rows
    with a matrix that must stay unchanged.  Returns the pivot columns, the
    sign of the row swaps and the product of the pivots before scaling; for
    a square matrix of full rank the determinant is sign * product.
    """
    rows = len(m)
    pivots: list[int] = []
    sign, product = 1, _ONE
    for c in range(k):
        r = len(pivots)
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            sign = -sign
        pivot = m[r][c]
        product *= pivot
        # zeros are skipped: Fraction arithmetic dominates the cost
        m[r] = [x / pivot if x else x for x in m[r]]
        for i in range(rows):
            factor = m[i][c]
            if i != r and factor:
                m[i] = [x - factor * y if y else x
                        for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, sign, product


@dataclass(frozen=True)
class SolveResult:
    """Outcome of solving A x = b over the rationals.

    solution is one particular solution (None when the system is
    inconsistent); nullspace is a basis of ker A, so the full solution set
    is solution + span(nullspace).
    """

    solution: tuple[Fraction, ...] | None
    nullspace: tuple[tuple[Fraction, ...], ...]
    rank: int

    @property
    def consistent(self) -> bool:
        return self.solution is not None

    @property
    def unique(self) -> bool:
        return self.solution is not None and not self.nullspace


def rat_solve(a: RatMatrix, b: Sequence[int | Fraction]) -> SolveResult:
    """Solve A x = b exactly, reporting inconsistency or free directions."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    cols = a.cols
    m = [row + [as_rational(b[i])] for i, row in enumerate(a.data)]
    pivots, _, _ = _rref(m, cols)
    rank = len(pivots)
    if any(row[cols] for row in m[rank:]):
        return SolveResult(None, (), rank)
    solution = [_ZERO] * cols
    for i, c in enumerate(pivots):
        solution[c] = m[i][cols]
    basis = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [_ZERO] * cols
        vec[c] = _ONE
        for i, pc in enumerate(pivots):
            vec[pc] = -m[i][c]
        basis.append(tuple(vec))
    return SolveResult(tuple(solution), tuple(basis), rank)


def linear_poly_map(matrix: RatMatrix) -> PolyMap:
    """The linear map X -> M X as a PolyMap."""
    if matrix.rows != matrix.cols:
        raise ValueError("linear map requires a square matrix")
    n = matrix.rows
    comps = []
    for i in range(n):
        p = Poly.zero(n)
        for j in range(n):
            c = matrix.data[i][j]
            if c:
                p = p + Poly.variable(n, j + 1) * c
        comps.append(p)
    return PolyMap(comps)


class PolyMatrix:
    """Square-or-rectangular matrix of Poly entries (one shared dimension n)."""

    __slots__ = ("rows", "cols", "n", "data")

    def __init__(self, rows_data: Iterable[Iterable[Poly]]):
        data = [list(row) for row in rows_data]
        if not data or not data[0]:
            raise ValueError("matrix needs at least one entry")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("rows must have equal length")
        n = data[0][0].n
        for row in data:
            for p in row:
                if not isinstance(p, Poly) or p.n != n:
                    raise ValueError("entries must be Poly of one dimension")
        self.rows = len(data)
        self.cols = width
        self.n = n
        self.data = data

    def __getitem__(self, ij: tuple[int, int]) -> Poly:
        i, j = ij
        return self.data[i][j]

    def eval(self, point: Sequence[int | Fraction]) -> RatMatrix:
        return RatMatrix([[p.eval(point) for p in row] for row in self.data])

    def det(self) -> Poly:
        """Exact determinant.

        Cofactor expansion up to 4x4 (cheap, no divisions), fraction-free
        elimination beyond that: intermediate entries stay true minors and
        every division is exact, which keeps expression swell polynomial
        instead of exponential.
        """
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        if self.rows <= 4:
            return _det_cofactor(self.data, self.n)
        return _det_bareiss(self.data, self.n)


def _det_cofactor(m: list[list[Poly]], n: int) -> Poly:
    size = len(m)
    if size == 1:
        return m[0][0]
    if size == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    total = Poly.zero(n)
    # expand along the column with the most zero entries
    best = min(range(size),
               key=lambda j: sum(0 if m[i][j].is_zero() else 1
                                 for i in range(size)))
    for i in range(size):
        entry = m[i][best]
        if entry.is_zero():
            continue
        minor = [[m[r][c] for c in range(size) if c != best]
                 for r in range(size) if r != i]
        cof = entry * _det_cofactor(minor, n)
        total = total + cof if (i + best) % 2 == 0 else total - cof
    return total


def _det_bareiss(m: list[list[Poly]], n: int) -> Poly:
    size = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = Poly.const(n, 1)
    for k in range(size - 1):
        if a[k][k].is_zero():
            swap = next((i for i in range(k + 1, size)
                         if not a[i][k].is_zero()), None)
            if swap is None:
                return Poly.zero(n)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = a[i][j] * a[k][k] - a[i][k] * a[k][j]
                a[i][j] = num.divexact(prev)
            a[i][k] = Poly.zero(n)
        prev = a[k][k]
    out = a[size - 1][size - 1]
    return out if sign == 1 else -out
