"""Exact linear algebra over the rationals and over polynomial rings.

RatMatrix covers the scalar side: elimination, determinants, inverses and
general linear solving with an explicit nullspace.  The determinant of a
PolyMatrix (a matrix of polynomials) runs on the packed-int kernel
_purepoly.det_terms, a division-free Laplace expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from typing import Iterable, Sequence

from keller_lab import _kernels
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

    def rank(self) -> int:
        return len(_rref(self.data, self.cols)[0])

    def det(self) -> Fraction:
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        pivots, sign, product, _, _ = _rref(self.data, self.cols)
        return sign * product if len(pivots) == self.rows else _ZERO

    def inverse(self) -> "RatMatrix":
        if self.rows != self.cols:
            raise ValueError("inverse requires a square matrix")
        n = self.rows
        m = [row + [_ONE if i == j else _ZERO for j in range(n)]
             for i, row in enumerate(self.data)]
        pivots, _, _, rows, den = _rref(m, n)
        if len(pivots) < n:
            raise ValueError("matrix is singular")
        return RatMatrix([[Fraction(x, den) for x in row[n:]] for row in rows])

    def __repr__(self) -> str:
        return f"RatMatrix({self.data!r})"


def _rref(m: Sequence[Sequence[Fraction]], k: int
          ) -> tuple[list[int], int, Fraction, list[list[int]], int]:
    """Reduce the first k columns of the rows m to RREF, fraction free.

    Each row is scaled to integers by the LCM of its denominators.  Each
    pivot step then sets row_i = (p * row_i - row_i[c] * pivot_row) // den
    for every other row, where p is the new pivot and den the one before it
    (1 at the first step): Bareiss-style Gauss-Jordan (Nakos, Turner &
    Williams, SIGSAM Bull. 1997).  Every entry stays a minor of the scaled
    matrix, so each division is exact, and in the end every pivot row holds
    the last pivot in its pivot column.  Row operations span whole rows, so
    columns past k (a right-hand side, an identity block) are carried
    along; m itself is left unchanged.

    Returns (pivots, sign, product, rows, den): the pivot columns, the sign
    of the row swaps, the product of the pivots of the same elimination on
    the rationals (for a square matrix of full rank the determinant is
    sign * product), the integer rows and the last pivot den.  For i below
    the rank, rows[i] / den is row i of the RREF; the rows past the rank
    are zero in the first k columns and nonzero past them exactly where the
    rational elimination leaves a nonzero entry.
    """
    scales = []
    rows = []
    for row in m:
        scale = lcm(*[x.denominator for x in row])
        scales.append(scale)
        rows.append([x.numerator * (scale // x.denominator) for x in row])
    pivots: list[int] = []
    sign, den = 1, 1
    for c in range(k):
        r = len(pivots)
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
            scales[r], scales[pivot_row] = scales[pivot_row], scales[r]
            sign = -sign
        top = rows[r]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i != r:
                factor = row[c]
                rows[i] = [(pivot * x - factor * y) // den
                           for x, y in zip(row, top)]
        den = pivot
        pivots.append(c)
    return pivots, sign, Fraction(den, prod(scales[:len(pivots)])), rows, den


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


def rat_solve(a: RatMatrix, b: Sequence[int | Fraction]) -> SolveResult:
    """Solve A x = b exactly, reporting inconsistency or free directions."""
    if len(b) != a.rows:
        raise ValueError("right-hand side length does not match row count")
    cols = a.cols
    m = [row + [as_rational(b[i])] for i, row in enumerate(a.data)]
    pivots, _, _, rows, den = _rref(m, cols)
    rank = len(pivots)
    if any(row[cols] for row in rows[rank:]):
        return SolveResult(None, (), rank)
    solution = [_ZERO] * cols
    for i, c in enumerate(pivots):
        solution[c] = Fraction(rows[i][cols], den)
    basis = []
    for c in range(cols):
        if c in pivots:
            continue
        vec = [_ZERO] * cols
        vec[c] = _ONE
        for i, pc in enumerate(pivots):
            vec[pc] = Fraction(-rows[i][c], den)
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
        n = getattr(data[0][0], "n", None)
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

    def det(self) -> Poly:
        """Exact determinant, computed with no division by the packed-int
        kernel det_terms: a Laplace expansion on packed int terms over one
        shared denominator."""
        if self.rows != self.cols:
            raise ValueError("determinant requires a square matrix")
        return Poly._wrap(self.n, _kernels.det_terms(
            [[p.terms for p in row] for row in self.data], self.n))

