"""Jacobian matrices, Jacobian determinants, and the Keller-map predicate.

A Keller map is a polynomial self-map whose Jacobian determinant is a
nonzero constant.  The matrix convention here is entry (i, j) = d f_j / d x_i;
the determinant does not depend on the choice, but the segment-averaged
matrices in the certification module reuse this orientation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from keller_lab.families import ZShiftMap
from keller_lab.linalg import PolyMatrix
# z_power is unused here; perfbench/tracing.py wraps jacobian.z_power
from keller_lab.poly import Poly, PolyMap, z_power  # noqa: F401


@dataclass(frozen=True)
class KellerVerdict:
    """Classification of det Df: constant and nonzero, or not."""

    is_keller: bool
    det: Poly
    constant_value: Fraction | None

    def __post_init__(self):
        if self.is_keller and self.constant_value is None:
            raise ValueError("a Keller verdict must carry the constant")


def jacobian_matrix(f: PolyMap) -> PolyMatrix:
    """Matrix of partials with entry (i, j) = d f_j / d x_i.

    A z-shift map in n >= 2 variables takes 2n partials, not n^2: since
    f_j = x_j + q_j(z), every d f_j / d x_i with i != j is q_j'(z), so the
    off-diagonal entries of column j are one shared Poly."""
    n, comps = f.n, f.components
    if isinstance(f, ZShiftMap) and n >= 2:
        diagonal = [p.partial(j + 1) for j, p in enumerate(comps)]
        # d f_j / d x_i for one i != j: x2 for f_1, x1 for the others
        shared = [p.partial(2 if j == 0 else 1) for j, p in enumerate(comps)]
        return PolyMatrix([[diagonal[j] if i == j else shared[j]
                            for j in range(n)] for i in range(n)])
    return PolyMatrix([[comps[j].partial(i + 1) for j in range(n)]
                       for i in range(n)])


def jacobian_det(f: PolyMap) -> Poly:
    """det Df, symbolically exact: the closed form for a z-shift map, the
    generic polynomial determinant for any other."""
    if isinstance(f, ZShiftMap):
        return f.jacobian_det_closed_form()
    return jacobian_matrix(f).det()


def keller_check(f: PolyMap) -> KellerVerdict:
    """Compute det Df exactly and classify it."""
    det = jacobian_det(f)
    if det.is_constant() and not det.is_zero():
        return KellerVerdict(True, det, det.constant_value())
    return KellerVerdict(False, det, None)


def zshift_det_formula(coeffs: Sequence[Sequence[int | Fraction]]) -> Poly:
    """Closed-form det Df for the map X + sum_l P^(l) z^l given by its
    coefficient table (rows: coordinates, columns: degrees l = 2..m)."""
    return ZShiftMap(coeffs).jacobian_det_closed_form()
