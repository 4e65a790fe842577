"""Composition, factorization, and planar normal forms for z-shift maps.

A Keller z-shift map factors into rank-one maps: with the zero-sum gamma
basis e_j - e_(j+1) fixed, the alphas of factor j are the running sums of
the coefficient table's rows 1..j.  Conversely a list of rank-one factors
composes in closed form (tables add through the gamma/alpha outer product).
The planar normal form conjugates a degree-(m+1) perturbed two-variable map
into the symmetric pair (u1 + a*(x+y)^(m+1), u2 - a*(x+y)^(m+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable

from keller_lab.families import (
    RankOneSpec,
    ZShiftMap,
    compose_zshift,
    conjugate,
    rank_one_map,
    zshift_from_map,
)
from keller_lab.jacobian import keller_check
# rat_solve is unused here; perfbench/tracing.py wraps factor.rat_solve
from keller_lab.linalg import RatMatrix, rat_solve  # noqa: F401
from keller_lab.poly import PolyMap, check_exponent

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Factorization:
    """Rank-one factors whose left-to-right composition is the map."""

    factors: tuple[RankOneSpec, ...]


@dataclass(frozen=True)
class MinorWitness:
    """A nonzero 2x2 minor of the coefficient table (1-based labels)."""

    rows: tuple[int, int]
    degrees: tuple[int, int]
    entries: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    minor: Fraction


@dataclass(frozen=True)
class MembershipResult:
    """Whether a coefficient table is a rank-one outer product."""

    member: bool
    spec: RankOneSpec | None
    witness: MinorWitness | None


def compose_rank_one_factors(factors: Iterable[RankOneSpec],
                             n: int | None = None) -> ZShiftMap:
    """Closed-form composition: table entries p_k^(l) = sum_j g_k^(j) a_l^(j).

    The closed form is verified against the iterated symbolic composition
    of the factor maps before returning.
    """
    specs = tuple(factors)
    if not specs:
        if n is None:
            raise ValueError("an empty factor list needs an explicit dimension")
        return ZShiftMap(((),) * n)
    if n is not None and specs[0].n != n:
        raise ValueError(f"factor dimension {specs[0].n} does not match {n}")
    n = specs[0].n
    if any(s.n != n for s in specs):
        raise ValueError("all factors must share one dimension")
    width = max(s.m - 1 for s in specs)
    table = [[_ZERO] * width for _ in range(n)]
    for s in specs:
        for k in range(n):
            for idx, a in enumerate(s.alphas):
                table[k][idx] += s.gamma[k] * a
    closed = ZShiftMap(table)
    iterated = ZShiftMap(((),) * n)
    for s in specs:
        iterated = compose_zshift(iterated, rank_one_map(s))
    if iterated != closed:
        raise AssertionError(
            "closed-form composition disagrees with iterated composition")
    return closed


def difference_gammas(n: int) -> tuple[tuple[Fraction, ...], ...]:
    """The zero-sum basis e_j - e_(j+1), j = 1..n-1."""
    out = []
    for j in range(n - 1):
        g = [_ZERO] * n
        g[j] = _ONE
        g[j + 1] = -_ONE
        out.append(tuple(g))
    return tuple(out)


def decompose_zshift(f: ZShiftMap) -> Factorization:
    """Split a Keller z-shift map into n-1 rank-one factors.

    The gammas are fixed to e_j - e_(j+1).  A zero-sum column p equals
    sum_j alpha_j * (e_j - e_(j+1)) exactly when alpha_j = p_1 + ... + p_j,
    so the alphas of factor j are the running sums of the table's rows
    1..j.  The factors are recomposed by iterated composition and checked
    against f before returning.
    """
    if not f.is_keller_family():
        raise ValueError("decomposition requires zero column sums")
    running = accumulate(f.coeffs, lambda acc, row: tuple(
        a + p for a, p in zip(acc, row)))
    factors = tuple(RankOneSpec(g, alphas)
                    for g, alphas in zip(difference_gammas(f.n), running))
    if compose_rank_one_factors(factors, n=f.n) != f:
        raise AssertionError("factorization failed to reproduce the map")
    return Factorization(factors)


def rank_one_membership(f: ZShiftMap) -> MembershipResult:
    """Decide whether the coefficient table is an outer product g*a.

    Membership holds exactly when the n x (m-1) table has rank at most one;
    a non-member gets the first nonzero 2x2 minor as a checkable witness.
    """
    if not f.is_keller_family():
        raise ValueError("membership test requires zero column sums")
    n, width = f.n, f.m - 1
    t = f.coeffs
    for k1 in range(n):
        for k2 in range(k1 + 1, n):
            for c1 in range(width):
                for c2 in range(c1 + 1, width):
                    minor = t[k1][c1] * t[k2][c2] - t[k1][c2] * t[k2][c1]
                    if minor:
                        witness = MinorWitness(
                            rows=(k1 + 1, k2 + 1),
                            degrees=(c1 + 2, c2 + 2),
                            entries=((t[k1][c1], t[k1][c2]),
                                     (t[k2][c1], t[k2][c2])),
                            minor=minor)
                        return MembershipResult(False, None, witness)
    # rank <= 1: recover gamma from the first nonzero column
    pivot_col = next((c for c in range(width)
                      if any(t[k][c] for k in range(n))), None)
    if pivot_col is None:
        spec = RankOneSpec((_ZERO,) * n, (_ZERO,) * width)
        return MembershipResult(True, spec, None)
    gamma = tuple(t[k][pivot_col] for k in range(n))
    k0 = next(k for k in range(n) if gamma[k])
    alphas = tuple(t[k0][c] / gamma[k0] for c in range(width))
    spec = RankOneSpec(gamma, alphas)
    if ZShiftMap(spec.coefficient_table()) != f:
        raise AssertionError("rank-one recovery failed to reproduce the table")
    return MembershipResult(True, spec, None)


CASE_ACTIVE_BASE = "nonidentity-base"
CASE_SCALED = "identity-base-scaled"
CASE_SHEAR = "identity-base-shear"


@dataclass(frozen=True)
class PlanarNormalForm:
    """f_tilde = A^(-1) o F o A with F the symmetric (x+y)-power pair.

    F is the rank-one map with gamma (1,-1) and alphas extended by
    alpha_top at degree m+1.  When the unperturbed base is not the
    identity, A is the identity matrix.  swapped records that the input
    had its coordinates exchanged before matching; degenerate records a
    vanishing perturbation.
    """

    a: RatMatrix
    alpha_top: Fraction
    base: RankOneSpec
    case_tag: str
    m: int
    swapped: bool = False
    degenerate: bool = False

    def normal_map(self) -> ZShiftMap:
        alphas = self.base.alphas
        alphas = alphas + (_ZERO,) * (self.m - 1 - len(alphas))
        return rank_one_map(RankOneSpec(self.base.gamma,
                                        alphas + (self.alpha_top,)))

    def reconstruct(self) -> PolyMap:
        return conjugate(self.a.inverse(), self.normal_map(), self.a)


_SWAP = RatMatrix([[0, 1], [1, 0]])


def planar_normal_form(f_tilde: PolyMap) -> PlanarNormalForm:
    """Run the normal-form algorithm on a two-variable map.

    The input checks, in order: two variables; a map of degree at most 1
    is the identity; det Df = 1; the part below the top degree d = m+1 is
    a coordinate-sum shift, the base with gamma (1,-1); a degree within the
    exponent limit.  After them det Df = 1 forces the rest of the shape:
    the top pair (W, w) has w = lambda*W and W = b0*(y - lambda*x)^d, the
    base shifts the two coordinates oppositely, and an active base has
    lambda = -1.  W = 0 is the swapped case: the swapped map has top pair
    (w, 0), ratio 0 and b0 the x^d coefficient of w.  The case picks A; a
    swapped A and alpha_top are swapped back.  The normal form is verified
    once before returning.
    """
    if f_tilde.n != 2:
        raise ValueError("normal form is defined for two-variable maps")
    degree = f_tilde.degree()
    if degree <= 1:
        if not f_tilde.is_identity():
            raise ValueError(
                "degree-1 input must be the identity map")
        return _verify_normal_form(PlanarNormalForm(
            a=RatMatrix.identity(2), alpha_top=_ZERO,
            base=RankOneSpec((_ONE, -_ONE), ()), case_tag=CASE_ACTIVE_BASE,
            m=1, degenerate=True), f_tilde)

    m = degree - 1
    top_w = f_tilde.components[0].homogeneous_part(degree)
    top_small = f_tilde.components[1].homogeneous_part(degree)
    base_map = PolyMap([f_tilde.components[0] - top_w,
                        f_tilde.components[1] - top_small])

    verdict = keller_check(f_tilde)
    if not verdict.is_keller or verdict.constant_value != 1:
        raise ValueError("Jacobian determinant must be identically 1")

    try:
        base_zshift = zshift_from_map(base_map)
    except ValueError as exc:
        raise ValueError(
            f"lower-degree part is not a coordinate-sum shift: {exc}") from exc
    # m - 1 alphas are built below: refuse a degree no map file can state
    check_exponent(degree)
    base_alphas = tuple(base_zshift.coeffs[0])
    base = RankOneSpec((_ONE, -_ONE),
                       base_alphas + (_ZERO,) * (m - 1 - len(base_alphas)))

    swapped = top_w.is_zero()
    if swapped:
        ratio, beta0 = _ZERO, top_small.coefficient((degree, 0))
    else:
        lead_mono, lead_coeff = top_w.leading()
        ratio = top_small.coefficient(lead_mono) / lead_coeff
        beta0 = top_w.coefficient((0, degree))
    if any(a != 0 for a in base.alphas):
        a, alpha_top, case_tag = RatMatrix.identity(2), beta0, CASE_ACTIVE_BASE
    elif ratio != 0:
        a = RatMatrix([[-ratio, _ZERO], [_ZERO, _ONE]])
        alpha_top, case_tag = -ratio * beta0, CASE_SCALED
    else:
        a = RatMatrix([[_ONE, _ZERO], [-_ONE, _ONE]])
        alpha_top, case_tag = beta0, CASE_SHEAR
    if swapped:
        a, alpha_top = _SWAP @ a @ _SWAP, -alpha_top
    return _verify_normal_form(
        PlanarNormalForm(a=a, alpha_top=alpha_top, base=base,
                         case_tag=case_tag, m=m, swapped=swapped), f_tilde)


def _verify_normal_form(result: PlanarNormalForm,
                        f_tilde: PolyMap) -> PlanarNormalForm:
    """result, once it rebuilds f_tilde and its normal map has det 1."""
    rebuilt = result.reconstruct()
    if tuple(rebuilt.components) != tuple(f_tilde.components):
        raise AssertionError("normal form failed to reconstruct the input")
    check = keller_check(result.normal_map())
    if not check.is_keller or check.constant_value != 1:
        raise AssertionError("normal map is not a unit-determinant map")
    return result
