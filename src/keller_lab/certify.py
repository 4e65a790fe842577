"""Injectivity certificates for polynomial maps on convex domains.

The central tool is the segment-averaged Jacobian: for X1 != X2 the matrix
with entries a_ij = integral over [0,1] of (d f_j / d x_i)(X1 + t(X2-X1))
satisfies f(X2) - f(X1) = A^T (X2 - X1), so f is injective on a convex
domain whenever every such matrix is nonsingular.  Every such matrix comes
from one entry, segment_matrix.  The integral is linear in f, so the
entries come from segment moments, the exact integrals of the map's
monomials along the segment (one kernel call per segment), with no
Jacobian built; except a z-shift map's, which is I + 1 c^T from its table,
c_j = sum_l p_j^(l) (z2^l - z1^l) / (z2 - z1) for the coordinate sums z1
and z2 of the endpoints, with no expansion read.

Three certifier flavours, in decreasing strength:
  * closed-form family identities (z-shift maps with zero column sums)
    prove injectivity outright;
  * rigorous grid enclosures prove strict sign conditions over whole
    domains.  Each check builds one grid (grid_cells); _enclose widens a
    real polynomial's cell-centre values (the kernel's lattice_values) by
    a Lipschitz slack from coefficient bounds; the planar criteria read f'
    from one complex Horner table (_derivative_table) and widen it by
    second-derivative bounds instead.  The grid is an integer lattice:
    every cell centre is X/unit for an integer point X and one integer
    unit per grid, built axis by axis with whole prefixes dropped or
    taken, and every shear angle is a Pythagorean triple, so the cell
    tests, the polynomial values and the shear scan run on ints, and a
    Fraction is built only for a bound, angle or margin that is reported.
    A grid, and a shear scan's angle list, holds at most MAX_GRID points
    (check_grid), and no lattice scale unit^degree passes the digit limit
    (check_scale).
    The interval Jacobian encloses each distinct partial once and takes
    the determinant of the Interval matrix by cofactor expansion;
  * randomized pair sampling can only find failure witnesses or report
    statistics - it never claims a proof.  It runs at most MAX_GRID
    trials, on a 2^-k lattice whose values, with denominators up to
    2^(k * degree), stay within the digit limit.

All certificates carry re-checkable evidence and every number is exact.
"""

from __future__ import annotations

import functools
import itertools
import random
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, log10
from operator import add, le

from keller_lab import _kernels
from keller_lab.families import ZShiftMap
from keller_lab.jacobian import jacobian_matrix
from keller_lab.linalg import RatMatrix
from keller_lab.poly import (
    ExpansionLimitError, Poly, PolyMap, as_rational, digit_limit)

_ZERO = Fraction(0)
_ONE = Fraction(1)

Point = tuple[Fraction, ...]

PROVEN = "proven-injective"
WITNESS = "failure-witness"
INCONCLUSIVE = "inconclusive"

BAD_RESOLUTION = "grid resolution must be at least 1"

# cells in one grid, angles in one shear scan, and trials in one sampling
# run; the 4-D default grid 32 has exactly this many cells
MAX_GRID = 1 << 20

# variables the interval Jacobian certificate takes: over 4, n^2
# enclosures on a default grid take minutes
MAX_INTERVAL_N = 4

# lattice points sample_point draws before it calls a domain empty, and
# exact rotations the shear scan retries on each side of its best angle
SAMPLE_TRIES = 2000
NEAR_ROTATIONS = 8


@dataclass
class Certificate:
    """Outcome of one injectivity criterion, with re-checkable evidence."""

    status: str
    method: str
    evidence: dict


@dataclass(frozen=True)
class ConvexDomain:
    """A convex subset of R^n: box, ball, or box-bounded halfspace set.

    bounds is always the bounding box.  Halfspace constraints are rows
    (a, b) meaning a . x <= b on top of the box.
    """

    kind: str
    n: int
    bounds: tuple[tuple[Fraction, Fraction], ...]
    center: Point | None = None
    radius: Fraction | None = None
    constraints: tuple[tuple[Point, Fraction], ...] = ()

    @classmethod
    def box(cls, bounds: Iterable[tuple]) -> "ConvexDomain":
        bs = tuple((as_rational(lo), as_rational(hi)) for lo, hi in bounds)
        if not bs:
            raise ValueError("a box needs at least one coordinate")
        if any(lo > hi for lo, hi in bs):
            raise ValueError("box bounds must satisfy lo <= hi")
        return cls("box", len(bs), bs)

    @classmethod
    def ball(cls, center: Sequence, radius) -> "ConvexDomain":
        c = tuple(as_rational(x) for x in center)
        r = as_rational(radius)
        if not c:
            raise ValueError("a ball needs at least one coordinate")
        if r <= 0:
            raise ValueError("ball radius must be positive")
        bounds = tuple((x - r, x + r) for x in c)
        return cls("ball", len(c), bounds, center=c, radius=r)

    @classmethod
    def halfspaces(cls, bounds: Iterable[tuple],
                   constraints: Iterable[tuple[Sequence, object]]
                   ) -> "ConvexDomain":
        box = cls.box(bounds)
        rows = tuple((tuple(as_rational(a) for a in normal), as_rational(rhs))
                     for normal, rhs in constraints)
        for normal, _ in rows:
            if len(normal) != box.n:
                raise ValueError("constraint dimension mismatch")
        return cls("halfspace-intersection", box.n, box.bounds,
                   constraints=rows)

    def contains(self, point: Sequence) -> bool:
        pt = tuple(as_rational(x) for x in point)
        if len(pt) != self.n:
            raise ValueError("dimension mismatch")
        if any(x < lo or x > hi for x, (lo, hi) in zip(pt, self.bounds)):
            return False
        if self.kind == "ball":
            dist2 = sum(((x - c) ** 2 for x, c in zip(pt, self.center)), _ZERO)
            if dist2 > self.radius ** 2:
                return False
        for normal, rhs in self.constraints:
            if sum((a * x for a, x in zip(normal, pt)), _ZERO) > rhs:
                return False
        return True


def sample_point(domain: ConvexDomain, rng: random.Random,
                 denom_bits: int = 4) -> Point:
    """A rational point of the domain, uniform over a 2^-k lattice."""
    if denom_bits < 0:
        raise ValueError("denominator bits must be non-negative")
    den = 1 << denom_bits
    for _ in range(SAMPLE_TRIES):
        pt = tuple(lo + (hi - lo) * Fraction(rng.randint(0, den), den)
                   for lo, hi in domain.bounds)
        if domain.contains(pt):
            return pt
    raise ValueError("domain appears to be empty (no sample found)")


class LatticeCells:
    """Cell centres on an integer lattice: centre k is points[k] / unit."""

    def __init__(self, unit: int, points: list[tuple[int, ...]]):
        self.unit = unit
        self.points = points

    def __len__(self) -> int:
        return len(self.points)


def check_grid(resolution: int, n: int) -> None:
    """Reject a resolution below 1, or one whose n-D grid has over MAX_GRID
    cells, before any cell is built."""
    if resolution < 1:
        raise ValueError(BAD_RESOLUTION)
    if resolution ** n > MAX_GRID:
        raise ValueError(f"a grid of {resolution}^{n} cells is over the cap "
                         f"of {MAX_GRID} cells")


def check_scale(unit: int, degree: int) -> None:
    """Refuse a lattice scale unit^degree past the digit limit, before any
    value or power of unit is built."""
    limit = digit_limit()
    if limit and degree * log10(unit) >= limit:
        raise ValueError(
            f"degree {degree} is too high for this grid: the lattice scale "
            f"{unit}^{degree} passes the {limit}-digit limit")


def _scaled(x: Fraction, scale: int) -> int:
    """x * scale, for a scale that x's denominator divides."""
    return x.numerator * (scale // x.denominator)


def _cell_tests(domain: ConvexDomain, unit: int, axes: list[list[int]],
                halves: list[int]) -> list[tuple[list[list[int]], int]]:
    """The domain's conservative cell tests on the lattice, each as per-axis
    integer terms and a limit.

    A cell meets the domain only if, for every test, the terms of its
    coordinates sum to at most the limit; a cell that truly meets the
    domain is never discarded.  Centre and halfwidth are X/unit and H/unit.
    """
    tests = []
    if domain.kind == "ball":
        # squared distance from the centre to the nearest point of the cell
        terms = []
        for xs, h, c in zip(axes, halves, domain.center):
            c = _scaled(c, unit)
            terms.append([(min(max(c, x - h), x + h) - c) ** 2 for x in xs])
        tests.append((terms, _scaled(domain.radius, unit) ** 2))
    for normal, rhs in domain.constraints:
        # a . x <= rhs, times the lcm of its denominators and the unit
        scale = lcm(rhs.denominator, *[a.denominator for a in normal])
        terms = []
        for xs, h, a in zip(axes, halves, normal):
            a = _scaled(a, scale)
            terms.append([a * (x - h if a > 0 else x + h) for x in xs])
        tests.append((terms, _scaled(rhs, scale) * unit))
    return tests


def grid_cells(domain: ConvexDomain, resolution: int
               ) -> tuple[LatticeCells, tuple[Fraction, ...]]:
    """Centers of bounding-box cells meeting the domain, plus halfwidths.

    The cells tile the bounding box, so every point of the domain lies in
    some returned cell; the shared per-coordinate halfwidths drive the
    Lipschitz slack.  With unit = 2 * resolution * (the lcm of the domain's
    denominators), the centre of cell k on the axis [lo, hi] is
    (lo * unit + (2k + 1) * H) / unit with H = (hi - lo) * unit /
    (2 * resolution), so the whole grid is built on ints, axis by axis in
    product order: a prefix is dropped when a test fails with the least the
    remaining axes can add, and takes every completion at once when all pass
    with the most, so a box (no test) is one product.  A grid with no cell
    meeting the domain is an error.
    """
    check_grid(resolution, domain.n)
    dens = [x.denominator for bound in domain.bounds for x in bound]
    if domain.kind == "ball":
        dens += [x.denominator for x in domain.center]
        dens.append(domain.radius.denominator)
    scale = lcm(*dens)
    unit = 2 * resolution * scale
    halves = [_scaled(hi - lo, scale) for lo, hi in domain.bounds]
    axes = [[_scaled(lo, unit) + (2 * k + 1) * h for k in range(resolution)]
            for (lo, _), h in zip(domain.bounds, halves)]
    tests = _cell_tests(domain, unit, axes, halves)
    # per axis i: each index's terms across the tests, and the caps on the
    # sums over axes < i for some (low) or every (high) completion to pass
    rows = [list(zip(*column)) for column in zip(*[t for t, _ in tests])]
    low, high = ([[limit - sum(map(extreme, terms[i:]))
                   for terms, limit in tests]
                  for i in range(domain.n + 1)] for extreme in (min, max))
    points = []

    def complete(prefix: tuple, sums: list[int]) -> None:
        """Add the cells that start with prefix, whose tests sum to sums."""
        i = len(prefix)
        if all(map(le, sums, high[i])):
            points.extend(itertools.product(*zip(prefix), *axes[i:]))
            return
        caps = [c - s for c, s in zip(low[i + 1], sums)]
        fits = [(x, row) for x, row in zip(axes[i], rows[i])
                if all(map(le, row, caps))]
        if i + 1 == domain.n:
            points.extend(prefix + (x,) for x, _ in fits)
        else:
            for x, row in fits:
                complete(prefix + (x,), list(map(add, sums, row)))

    complete((), [0] * len(tests))
    if not points:
        raise ValueError("grid produced no cells meeting the domain")
    return (LatticeCells(unit, points),
            tuple(Fraction(h, unit) for h in halves))


def abs_bound_on_box(p: Poly, bounds: Sequence[tuple[Fraction, Fraction]]
                     ) -> Fraction:
    """sup |p| over the box, bounded by the coefficient-norm estimate."""
    radii = tuple(max(abs(lo), abs(hi)) for lo, hi in bounds)
    return _kernels.eval_terms({mono: abs(c) for mono, c in p.terms.items()},
                               radii)


def _enclose(p: Poly, domain: ConvexDomain, cells: LatticeCells,
             halves: tuple[Fraction, ...]) -> tuple[Fraction, Fraction]:
    """(lo, hi) enclosing p over the grid_cells (cells, halves) of domain."""
    check_scale(cells.unit, max(p.degree(), 0))
    values, den = _kernels.lattice_values(p.terms, cells.points, cells.unit)
    # |p(x) - p(center)| <= sum_i sup|dp/dx_i| * half_i within a cell
    slack = sum((abs_bound_on_box(p.partial(i + 1), domain.bounds) * halves[i]
                 for i in range(domain.n)), _ZERO)
    return (Fraction(min(values), den) - slack,
            Fraction(max(values), den) + slack)


# -- segment-averaged Jacobian criterion -------------------------------------

def segment_matrix(f: PolyMap, x1: Sequence, x2: Sequence) -> RatMatrix:
    """Entries a_ij = exact integral of (d f_j / d x_i) along [X1, X2].

    The package's only way to build a segment matrix: for a z-shift map it
    is I + 1 c^T from the table (_zshift_segment_matrix), for any other map
    it comes from the segment moments of the monomials.  The integral is
    linear in f: with M(e) the integral of x^e along the segment and c_j(e)
    the coefficient of x^e in f_j, a_ij = sum_e c_j(e) * e_i * M(e - e_i).
    One segment_moments call gives every M over one shared unit, so each
    entry is one integer sum over f_j's LCM denominator and one Fraction.
    """
    a = tuple(as_rational(c) for c in x1)
    b = tuple(as_rational(c) for c in x2)
    if len(a) != f.n or len(b) != f.n:
        raise ValueError("dimension mismatch")
    if a == b:
        raise ValueError("segment endpoints must differ")
    if isinstance(f, ZShiftMap):
        return _zshift_segment_matrix(f, a, b)
    comps = [comp.terms for comp in f.components]
    # (i, e_i, e - e_i) per distinct monomial: family maps share them all
    lowered: dict = {}
    for terms in comps:
        for mono in terms:
            if mono not in lowered:
                lowered[mono] = [(i, e, mono[:i] + (e - 1,) + mono[i + 1:])
                                 for i, e in enumerate(mono) if e]
    moments, unit = _kernels.segment_moments(
        {low for lows in lowered.values() for _, _, low in lows}, a, b)
    # d x^e / d x_i integrates to e_i * M(e - e_i) / unit
    weights = {mono: [(i, e * moments[low]) for i, e, low in lows]
               for mono, lows in lowered.items()}
    columns = []
    for terms in comps:
        q = lcm(*[c.denominator for c in terms.values()])
        sums = [0] * f.n
        for mono, c in terms.items():
            num = c.numerator * (q // c.denominator)
            for i, w in weights[mono]:
                sums[i] += num * w
        columns.append([Fraction(s, q * unit) for s in sums])
    return RatMatrix(list(zip(*columns)))


def _zshift_segment_matrix(f: ZShiftMap, a: Point, b: Point) -> RatMatrix:
    """segment_matrix of a z-shift map from its coefficient table.

    Every partial d f_j / d x_i is delta_ij + sum_l l p_j^(l) z^(l-1), and
    along the segment z runs from z1 = sum(a) to z2 = sum(b), so
    a_ij = delta_ij + c_j with c_j = sum_l p_j^(l) w_l and
    w_l = (z2^l - z1^l) / (z2 - z1) = sum_{k<l} z1^k z2^(l-1-k), which is
    l z1^(l-1) when z1 = z2.  With z1 = u1/v1, z2 = u2/v2 and d = v1 v2,
    the integer W_l = w_l d^(l-1) satisfies W_1 = 1 and
    W_l = u2 v1 W_(l-1) + (u1 v2)^(l-1), so each c_j is one integer sum,
    Horner in d, over its row's lcm denominator times d^(m-1).
    Neither the expanded components nor the kernel is read.
    """
    z1, z2 = sum(a), sum(b)
    s, t = z1.numerator * z2.denominator, z2.numerator * z1.denominator
    d = z1.denominator * z2.denominator
    weights, w, s_power = [], 1, 1
    for _ in range(f.m - 1):  # W_l for l = 2..m
        s_power *= s
        w = t * w + s_power
        weights.append(w)
    c = []
    for row in f.coeffs:
        q, num = lcm(*[p.denominator for p in row]), 0
        for p, w in zip(row, weights):
            num = num * d + p.numerator * (q // p.denominator) * w
        c.append(Fraction(num, q * d ** (f.m - 1)))
    return RatMatrix([c[:i] + [c[i] + 1] + c[i + 1:] for i in range(f.n)])


def certify_injective_sampling(f: PolyMap, domain: ConvexDomain,
                               trials: int, seed: int,
                               denom_bits: int = 4) -> Certificate:
    """Search random pairs for an exact value collision.

    Each pair's segment matrix (segment_matrix, so a z-shift map takes
    its table's closed form) gives a determinant first; only a singular
    pair has its values compared.  Equal values make a failure witness,
    whose determinant is that zero.  A singular pair whose values still
    separate is not a counterexample, so it only lowers the min |det|
    statistic.  Anything short of a collision is inconclusive: sampling
    cannot prove a condition quantified over all pairs.  A witness reports
    f's values, whose denominators reach 2^(denom_bits * deg f): values past
    the digit limit are refused before the first pair is drawn.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if trials > MAX_GRID:
        raise ValueError(f"{trials} trials are over the cap of {MAX_GRID}")
    if f.n != domain.n:
        raise ValueError("dimension mismatch")
    digits = max(f.degree(), 1) * denom_bits * log10(2)
    limit = digit_limit()
    if limit and digits > limit:
        raise ValueError(
            f"denominator bits {denom_bits} give values of about "
            f"{digits:.0f} digits, over the {limit}-digit limit")
    rng = random.Random(seed)
    min_abs: Fraction | None = None
    for tested in range(1, trials + 1):
        x1 = sample_point(domain, rng, denom_bits)
        x2 = sample_point(domain, rng, denom_bits)
        retries = 0
        while x2 == x1:
            retries += 1
            if retries > 100:
                raise ValueError("domain too small to sample distinct pairs")
            x2 = sample_point(domain, rng, denom_bits)
        det = segment_matrix(f, x1, x2).det()
        if det == 0:
            v1, v2 = f.eval(x1), f.eval(x2)
            if v1 == v2:
                return Certificate(WITNESS, "segment-sampling", {
                    "pair": (x1, x2),
                    "determinant": _ZERO,
                    "values": (v1, v2),
                    "values_collide": True,
                    "pairs_tested": tested,
                    "seed": seed,
                })
        mag = abs(det)
        min_abs = mag if min_abs is None or mag < min_abs else min_abs
    return Certificate(INCONCLUSIVE, "segment-sampling", {
        "pairs_tested": trials,
        "min_abs_det": min_abs,
        "seed": seed,
    })


def certify_injective_zshift(f: ZShiftMap) -> Certificate:
    """Prove injectivity of a zero-column-sum z-shift map on all of R^n.

    Every segment matrix of such a map is I + (ones) c^T where the c_j
    integrate the derivatives of the shift polynomials; the c_j sum to an
    integral of the identically-zero column-sum polynomial, so every
    determinant is exactly 1.  The closed-form determinant is recomputed
    and, as a self-check, a few spot pairs are integrated from the expanded
    components, segment_matrix of PolyMap(f.components): each matrix must
    equal segment_matrix(f), the table's closed form, entry by entry and
    have determinant 1.
    """
    if not isinstance(f, ZShiftMap):
        raise ValueError("this certificate applies to z-shift maps")
    if not f.is_keller_family():
        raise ValueError("certificate requires zero column sums")
    det = f.jacobian_det_closed_form()
    if not det.is_constant() or det.constant_value() != 1:
        raise AssertionError("family determinant identity failed")
    spot_pairs = 0
    try:
        for shift in (1, 2):
            x1 = tuple(Fraction(k + shift, 3) for k in range(f.n))
            x2 = tuple(Fraction(-k - 2 * shift, 5) for k in range(f.n))
            moments = segment_matrix(PolyMap(f.components), x1, x2)
            if moments != segment_matrix(f, x1, x2):
                raise AssertionError("segment matrix left the closed form")
            if moments.det() != 1:
                raise AssertionError("segment determinant left the identity")
            spot_pairs += 1
    except ExpansionLimitError:
        pass  # identity already established; spot checks are optional
    return Certificate(PROVEN, "zshift-family-identity", {
        "column_sums": f.column_sums(),
        "jacobian_det": det.constant_value(),
        "spot_pairs_checked": spot_pairs,
    })


# -- interval enclosure of the segment matrix --------------------------------


@dataclass(frozen=True)
class Interval:
    """The closed interval [lo, hi] of rationals, with exact arithmetic."""

    lo: Fraction
    hi: Fraction

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products))


def _interval_det(m: Sequence[Sequence[Interval]]) -> Interval:
    """Determinant of a square Interval matrix by cofactor expansion down
    its columns, each minor memoised by its set of rows.

    Interval sums of rationals are exact and only products are
    subdistributive (Moore, Interval Analysis, 1966), so the bound depends
    on which column each minor is expanded down, not on the order of the
    sums.
    """
    size = len(m)

    @functools.cache
    def minor(rows: int) -> Interval:
        """The minor of the rows in the bit mask rows and the last
        rows.bit_count() columns, expanded down its first column."""
        if not rows:
            return Interval(_ONE, _ONE)
        j = size - rows.bit_count()
        total, sign = Interval(_ZERO, _ZERO), 1
        for i in range(size):
            if rows >> i & 1:
                term = m[i][j] * minor(rows ^ (1 << i))
                total = total + term if sign > 0 else total - term
                sign = -sign
        return total

    return minor((1 << size) - 1)


def certify_injective_interval_jacobian(f: PolyMap, domain: ConvexDomain,
                                        resolution: int = 16) -> Certificate:
    """Prove injectivity by excluding zero from an interval determinant.

    Each segment matrix entry is an average of one partial over a segment
    inside the convex domain, so it lies in that partial's certified range.
    If no matrix with entries in these ranges is singular (an interval
    determinant excluding zero), the criterion holds for every pair.
    Equal partials share one enclosure, and the determinant expands down
    the Jacobian's columns (_interval_det).
    """
    if f.n != domain.n:
        raise ValueError("dimension mismatch")
    if f.n > MAX_INTERVAL_N:
        raise ValueError("the interval Jacobian certificate takes "
                         f"n <= {MAX_INTERVAL_N}")
    cells, halves = grid_cells(domain, resolution)
    jm = jacobian_matrix(f)
    # column by column: past the digit limit, the first refused entry
    # down the columns names the degree in the error
    ranges: dict[Poly, Interval] = {}
    for j in range(f.n):
        for i in range(f.n):
            if jm[i, j] not in ranges:
                ranges[jm[i, j]] = Interval(
                    *_enclose(jm[i, j], domain, cells, halves))
    det = _interval_det([[ranges[p] for p in row] for row in jm.data])
    lo, hi = det.lo, det.hi
    evidence = {
        "det_range": (lo, hi),
        "cells": len(cells),
        "resolution": resolution,
    }
    if lo > 0 or hi < 0:
        return Certificate(PROVEN, "interval-jacobian", evidence)
    return Certificate(INCONCLUSIVE, "interval-jacobian", evidence)


# -- planar analytic criteria -------------------------------------------------

def _cderivative(coeffs) -> list[tuple[Fraction, Fraction]]:
    return [(k * re, k * im) for k, (re, im) in enumerate(coeffs)][1:]


def _ceval(coeffs, x, y):
    """(Re, Im) of sum c_k (x+iy)^k by Horner; int inputs give ints."""
    re = im = 0
    for a, b in reversed(coeffs):
        re, im = re * x - im * y + a, re * y + im * x + b
    return re, im


def _derivative_table(coeffs, cells: LatticeCells
                      ) -> tuple[list[tuple[int, int]], int]:
    """(Re f', Im f') at every cell centre, as integers over one denominator.

    With d the degree of f' and q the lcm of its denominators, coefficient
    k is scaled by q * unit^(d - k), so _ceval at the integer point X + iY
    gives f'((X + iY) / unit) * q * unit^d.
    """
    der = _cderivative(coeffs)
    unit = cells.unit
    degree = max(len(der) - 1, 0)
    check_scale(unit, degree)
    q = lcm(*[x.denominator for pair in der for x in pair])
    scaled = [(_scaled(re, q) * unit ** (degree - k),
               _scaled(im, q) * unit ** (degree - k))
              for k, (re, im) in enumerate(der)]
    return [_ceval(scaled, x, y) for x, y in cells.points], q * unit ** degree


def _second_derivative_part_bounds(coeffs, bounds
                                   ) -> tuple[Fraction, Fraction]:
    """Bounds on |Re f''(x+iy)| and |Im f''(x+iy)| over the box.

    Each is abs_bound_on_box of the part, in closed form, capped by
    |f''| <= sum (|re_k| + |im_k|) rho^k for rho >= |z| = sqrt(r1^2 + r2^2)
    (rho and its powers rounded up over 2^32, so no denominator grows).  At
    the radii the terms C(k, j) x^(k-j) (iy)^j of (x+iy)^k sum to
    ((r1+r2)^k + (r1-r2)^k) / 2 over even j and to the difference over odd
    j.  Re f'' takes re_k on the even terms and im_k on the odd ones, Im f''
    the other way round, and no two terms share a monomial.
    """
    r1, r2 = (max(abs(lo), abs(hi)) for lo, hi in bounds)
    d = lcm(r1.denominator, r2.denominator)
    rho = isqrt((_scaled(r1, d) ** 2 + _scaled(r2, d) ** 2) << 64) // d + 1
    b_re = b_im = disk = _ZERO
    plus, minus, power = _ONE, _ONE, 1 << 32
    for re, im in _cderivative(_cderivative(coeffs)):
        even, odd = (plus + minus) / 2, (plus - minus) / 2
        b_re += abs(re) * even + abs(im) * odd
        b_im += abs(im) * even + abs(re) * odd
        disk += (abs(re) + abs(im)) * power
        plus *= r1 + r2
        minus *= r1 - r2
        power = -(-power * rho >> 32)
    disk /= 1 << 32
    return min(b_re, disk), min(b_im, disk)


def analytic_pair_check(coeffs: Sequence[tuple], domain: ConvexDomain,
                        resolution: int = 32) -> Certificate:
    """Certify injectivity of an analytic polynomial on a planar domain.

    Sufficient condition (Noshiro-Warschawski): u_x is nonvanishing
    throughout the domain, or v_x is.  For f = u + iv these are Re f' and
    Im f', read at every cell centre from one _derivative_table.  Within a
    cell u_x moves by at most sup|Re f''| * h0 + sup|Im f''| * h1, since
    its partials are Re f'' and -Im f'', and v_x by the mirror sum.
    Coefficients are (re, im) rational pairs in ascending powers of z.
    """
    if domain.n != 2:
        raise ValueError("the analytic criterion is planar (n = 2)")
    pairs = [(as_rational(re), as_rational(im)) for re, im in coeffs]
    cells, (h0, h1) = grid_cells(domain, resolution)
    table, den = _derivative_table(pairs, cells)
    b_re, b_im = _second_derivative_part_bounds(pairs, domain.bounds)
    ranges = {}
    for part, (name, slack) in enumerate((("u_x", b_re * h0 + b_im * h1),
                                          ("v_x", b_im * h0 + b_re * h1))):
        values = [row[part] for row in table]
        lo = Fraction(min(values), den) - slack
        hi = Fraction(max(values), den) + slack
        ranges[name] = (lo, hi)
        if lo > 0 or hi < 0:
            return Certificate(PROVEN, "analytic-partial-sign", {
                "partial": name,
                "range": (lo, hi),
                "cells": len(cells),
                "resolution": resolution,
            })
    return Certificate(INCONCLUSIVE, "analytic-partial-sign", {
        "ranges": ranges,
        "resolution": resolution,
    })


# -- harmonic shear criterion --------------------------------------------------

@dataclass(frozen=True)
class PlanarShearInput:
    """h + conj(g) data: complex coefficient pairs and a disk radius."""

    h: tuple[tuple[Fraction, Fraction], ...]
    g: tuple[tuple[Fraction, Fraction], ...]
    radius: Fraction = _ONE

    def __post_init__(self):
        object.__setattr__(self, "h", tuple(
            (as_rational(re), as_rational(im)) for re, im in self.h))
        object.__setattr__(self, "g", tuple(
            (as_rational(re), as_rational(im)) for re, im in self.g))
        object.__setattr__(self, "radius", as_rational(self.radius))
        if self.radius <= 0:
            raise ValueError("disk radius must be positive")


def _second_derivative_bound(coeffs, radius: Fraction) -> Fraction:
    """sup |f''| on the closed disk, via |c_k| <= |re_k| + |im_k|."""
    total = _ZERO
    for k, (re, im) in enumerate(coeffs):
        if k >= 2:
            total += k * (k - 1) * (abs(re) + abs(im)) * radius ** (k - 2)
    return total


def _disk_cells(inp: PlanarShearInput, resolution: int):
    """The disk's grid cells, and the Lipschitz slack over one cell of the
    derivative of a function with the given coefficients."""
    cells, halves = grid_cells(ConvexDomain.ball((0, 0), inp.radius),
                               resolution)
    # cells near the rim poke outside the disk: bound on an enlarged radius
    bound_radius = inp.radius + 3 * halves[0]
    half_sum = halves[0] + halves[1]

    def slack(coeffs) -> Fraction:
        return _second_derivative_bound(coeffs, bound_radius) * half_sum

    return cells, slack


Triple = tuple[int, int, int]


def _half_angle_triple(p: int, q: int) -> Triple:
    """(A, B, E) with A^2 + B^2 = E^2: the unit vector (A + Bi)/E is
    ((1-t^2) + 2ti)/(1+t^2) at t = p/q."""
    return q * q - p * p, 2 * p * q, q * q + p * p


def _unit(gamma: Triple) -> tuple[Fraction, Fraction]:
    return Fraction(gamma[0], gamma[2]), Fraction(gamma[1], gamma[2])


def unit_gamma_grid(steps: int) -> Iterator[Triple]:
    """Rational unit vectors covering the circle, as Pythagorean triples
    (A, B, E) for (A + Bi)/E; nested when steps double.

    The tangent-half-angle map t -> ((1-t^2) + 2ti)/(1+t^2) on t = p/q in
    (-1, 1] gives a half-turn, (q^2 - p^2, 2pq, q^2 + p^2); each comes with
    its rotations by i, -1, -i, so most angles come twice.  steps is
    checked at the call, and each angle is built only when the scan asks
    for it.
    """
    if steps < 1:
        raise ValueError("at least one angle is required")
    if steps > MAX_GRID:
        raise ValueError(f"{steps} angles are over the cap of {MAX_GRID}")
    quarter = max(1, (steps + 3) // 4)
    units = (_half_angle_triple(2 * (k + 1) - quarter, quarter)
             for k in range(quarter))
    return (gamma for a, b, e in units
            for gamma in ((a, b, e), (-b, a, e), (-a, -b, e), (b, -a, e)))


def _cleared_terms(gamma: Triple, slack: Fraction,
                   den: int) -> tuple[int, int, int, int]:
    """(a, b, s, k) with Re(gamma * h') - slack = (a*re - b*im - s) / k at
    a cell whose h' is (re + i*im) / den."""
    ur, ui, e = gamma
    sn, sd = slack.numerator, slack.denominator
    return ur * sd, ui * sd, sn * e * den, e * den * sd


def _scan_gamma(table, h_den: int, g_den: int, slack: Fraction,
                gamma: Triple) -> tuple[bool, int, int]:
    """(passed, num, den) for one rotation: num / den is the min squared
    margin if it passed, else the quantity that went nonpositive first.

    table rows are (Re h', Im h', |g'|^2) as integers over h_den, h_den and
    g_den^2.  The failing score ranks rotations so refinement can target
    the most promising one.  Cleared values are over k, squared margins
    over (k * g_den)^2, so every test runs on ints.
    """
    a, b, s, k = _cleared_terms(gamma, slack, h_den)
    g_sq, k_sq = g_den * g_den, k * k
    least = None
    for hre, him, g in table:
        cleared = a * hre - b * him - s
        if cleared <= 0:
            return False, cleared, k
        margin = cleared * cleared * g_sq - g * k_sq
        if margin <= 0:
            return False, margin, k_sq * g_sq
        if least is None or margin < least:
            least = margin
    return True, least, k_sq * g_sq


def _rotations_near(gamma: Triple, steps: int) -> list[Triple]:
    """Exact unit vectors bracketing one angle at sub-grid spacing."""
    ur, ui, e = gamma
    out = []
    for j in range(-NEAR_ROTATIONS, NEAR_ROTATIONS + 1):
        if j == 0:
            continue
        cr, ci, f = _half_angle_triple(j, 2 * steps)
        out.append((ur * cr - ui * ci, ur * ci + ui * cr, e * f))
    return out


def planar_shear_check(inp: PlanarShearInput, resolution: int = 16,
                       gamma_steps: int = 360) -> Certificate:
    """Search for one rotation with Re(e^(i gamma) h') > |g'| on the disk.

    The strict inequality is certified over whole cells: the center value
    must clear a Lipschitz slack computed from second-derivative
    coefficient bounds, and the |g'| comparison is done on squares so the
    whole check stays in rational arithmetic.  After the coarse angle grid
    a finer bracket around the best-scoring angle is retried.  Success
    means the harmonic map h + conj(g) is injective on the disk.
    """
    cells, slack_of = _disk_cells(inp, resolution)
    h_table, h_den = _derivative_table(inp.h, cells)
    g_table, g_den = _derivative_table(inp.g, cells)
    table = [(hre, him, gre * gre + gim * gim)
             for (hre, him), (gre, gim) in zip(h_table, g_table)]
    slack = slack_of(inp.h) + slack_of(inp.g)
    grid = unit_gamma_grid(gamma_steps)
    best: Triple | None = None
    best_num, best_den = 0, 0

    def angles():
        yield from grid
        # runs once the grid is spent, so best is the grid's best angle
        if best is not None:
            yield from _rotations_near(best, max(gamma_steps, 4))

    tried = 0
    for gamma in angles():
        tried += 1
        passed, num, den = _scan_gamma(table, h_den, g_den, slack, gamma)
        if passed:
            return Certificate(PROVEN, "planar-shear", {
                "gamma": _unit(gamma),
                "min_squared_margin": Fraction(num, den),
                "cells": len(cells),
                "slack": slack,
                "angles_tried": tried,
            })
        if best is None or num * best_den > best_num * den:
            best, best_num, best_den = gamma, num, den
    return Certificate(INCONCLUSIVE, "planar-shear", {
        "angles_tried": tried,
        "cells": len(cells),
        "slack": slack,
        "best_gamma": _unit(best),
        "best_score": Fraction(best_num, best_den),
    })


def shear_margin_grid(inp: PlanarShearInput, resolution: int,
                      gamma: tuple[Fraction, Fraction]
                      ) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Rows (x, y, Re(gamma*h'(z)) - slack of h') for plotting one angle."""
    cells, slack_of = _disk_cells(inp, resolution)
    table, den = _derivative_table(inp.h, cells)
    ur, ui = (as_rational(x) for x in gamma)
    e = lcm(ur.denominator, ui.denominator)
    a, b, s, k = _cleared_terms((_scaled(ur, e), _scaled(ui, e), e),
                                slack_of(inp.h), den)
    unit = cells.unit
    return [(Fraction(x, unit), Fraction(y, unit),
             Fraction(a * hre - b * him - s, k))
            for (x, y), (hre, him) in zip(cells.points, table)]


# -- piecewise valence bound ---------------------------------------------------

@dataclass
class PValenceResult:
    """Per-piece certificates and the resulting valence bound (or None)."""

    bound: int | None
    certificates: list[Certificate]


def pvalent_bound(f: PolyMap, pieces: Sequence[ConvexDomain],
                  resolution: int = 32, trials: int = 64,
                  seed: int = 0) -> PValenceResult:
    """Bound the number of preimages by covering with certified pieces.

    Each intersection of a fiber with a convex piece where f is injective
    contributes at most one point, so if every piece certifies, p = number
    of pieces bounds the valence on their union.  Any piece that fails to
    certify makes the result inconclusive.
    """
    if not pieces:
        raise ValueError("at least one piece is required")
    if any(piece.n != f.n for piece in pieces):
        raise ValueError("dimension mismatch")
    # refused for every map, whichever certificate it would get
    if resolution < 1:
        raise ValueError(BAD_RESOLUTION)
    if trials < 1:
        raise ValueError("at least one trial is required")
    # the family identity holds on all of R^n, so one proof covers every piece
    family = (certify_injective_zshift(f)
              if isinstance(f, ZShiftMap) and f.is_keller_family() else None)
    certs: list[Certificate] = []
    all_proven = True
    for piece in pieces:
        if family is not None:
            cert = family
        elif f.n <= MAX_INTERVAL_N:
            cert = certify_injective_interval_jacobian(f, piece, resolution)
            if cert.status != PROVEN:
                fallback = certify_injective_sampling(
                    f, piece, trials, seed)
                if fallback.status == WITNESS:
                    cert = fallback
        else:
            cert = certify_injective_sampling(f, piece, trials, seed)
        certs.append(cert)
        all_proven = all_proven and cert.status == PROVEN
    return PValenceResult(len(pieces) if all_proven else None, certs)
