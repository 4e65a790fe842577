"""Injectivity certificates for polynomial maps on convex domains.

The central tool is the segment-averaged Jacobian: for X1 != X2 the matrix
with entries a_ij = integral over [0,1] of (d f_j / d x_i)(X1 + t(X2-X1))
satisfies f(X2) - f(X1) = A^T (X2 - X1), so f is injective on a convex
domain whenever every such matrix is nonsingular.  Entries are univariate
polynomial integrals, computed exactly.

Three certifier flavours, in decreasing strength:
  * closed-form family identities (z-shift maps with zero column sums)
    prove injectivity outright;
  * rigorous grid enclosures (grid values plus a Lipschitz slack from
    coefficient bounds) prove strict sign conditions over whole domains;
  * randomized pair sampling can only find failure witnesses or report
    statistics - it never claims a proof.

All certificates carry re-checkable evidence and every number is exact.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from keller_lab.families import ZShiftMap
from keller_lab.jacobian import jacobian_matrix
from keller_lab.linalg import RatMatrix
from keller_lab.poly import ExpansionLimitError, Poly, PolyMap, as_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)

Point = tuple[Fraction, ...]

PROVEN = "proven-injective"
WITNESS = "failure-witness"
INCONCLUSIVE = "inconclusive"


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
                 denom_bits: int = 4, max_tries: int = 2000) -> Point:
    """A rational point of the domain, uniform over a 2^-k lattice."""
    den = 1 << denom_bits
    for _ in range(max_tries):
        pt = tuple(lo + (hi - lo) * Fraction(rng.randint(0, den), den)
                   for lo, hi in domain.bounds)
        if domain.contains(pt):
            return pt
    raise ValueError("domain appears to be empty (no sample found)")


def _cell_intersects(domain: ConvexDomain, center: Point,
                     halves: tuple[Fraction, ...]) -> bool:
    # conservative: never discards a cell that truly meets the domain
    if domain.kind == "ball":
        dist2 = _ZERO
        for x, c, h in zip(center, domain.center, halves):
            nearest = min(max(c, x - h), x + h)
            dist2 += (nearest - c) ** 2
        if dist2 > domain.radius ** 2:
            return False
    for normal, rhs in domain.constraints:
        low = sum((a * (x - h if a > 0 else x + h)
                   for a, x, h in zip(normal, center, halves)), _ZERO)
        if low > rhs:
            return False
    return True


def grid_cells(domain: ConvexDomain, resolution: int
               ) -> tuple[list[Point], tuple[Fraction, ...]]:
    """Centers of bounding-box cells meeting the domain, plus halfwidths.

    The cells tile the bounding box, so every point of the domain lies in
    some returned cell; the shared per-coordinate halfwidths drive the
    Lipschitz slack.
    """
    if resolution < 1:
        raise ValueError("grid resolution must be at least 1")
    widths = [(hi - lo) / resolution for lo, hi in domain.bounds]
    halves = tuple(w / 2 for w in widths)
    centers = []
    for index in itertools.product(range(resolution), repeat=domain.n):
        center = tuple(lo + w * k + h for (lo, _), w, h, k
                       in zip(domain.bounds, widths, halves, index))
        if _cell_intersects(domain, center, halves):
            centers.append(center)
    return centers, halves


def abs_bound_on_box(p: Poly, bounds: Sequence[tuple[Fraction, Fraction]]
                     ) -> Fraction:
    """sup |p| over the box, bounded by the coefficient-norm estimate."""
    radii = [max(abs(lo), abs(hi)) for lo, hi in bounds]
    total = _ZERO
    for mono, coeff in p.terms.items():
        term = abs(coeff)
        for r, e in zip(radii, mono):
            term *= r ** e
        total += term
    return total


def _grid_slack(p: Poly, domain: ConvexDomain,
                halves: tuple[Fraction, ...]) -> Fraction:
    # |p(x) - p(center)| <= sum_i sup|dp/dx_i| * half_i within a cell
    return sum((abs_bound_on_box(p.partial(i + 1), domain.bounds) * halves[i]
                for i in range(domain.n)), _ZERO)


def certified_range(p: Poly, domain: ConvexDomain, resolution: int
                    ) -> tuple[Fraction, Fraction, int]:
    """A rigorous enclosure (lo, hi) of p over the domain, plus cell count."""
    if p.n != domain.n:
        raise ValueError("dimension mismatch")
    centers, halves = grid_cells(domain, resolution)
    if not centers:
        raise ValueError("grid produced no cells meeting the domain")
    slack = _grid_slack(p, domain, halves)
    values = [p.eval(c) for c in centers]
    return min(values) - slack, max(values) + slack, len(centers)


# -- segment-averaged Jacobian criterion -------------------------------------

def segment_matrix(f: PolyMap, x1: Sequence, x2: Sequence) -> RatMatrix:
    """Entries a_ij = exact integral of (d f_j / d x_i) along [X1, X2]."""
    a = tuple(as_rational(c) for c in x1)
    b = tuple(as_rational(c) for c in x2)
    if len(a) != f.n or len(b) != f.n:
        raise ValueError("dimension mismatch")
    if a == b:
        raise ValueError("segment endpoints must differ")
    jm = jacobian_matrix(f)
    entries = []
    for i in range(f.n):
        row = []
        for j in range(f.n):
            coeffs = jm[i, j].restrict_segment(a, b)
            row.append(sum((c / (d + 1) for d, c in enumerate(coeffs)),
                           _ZERO))
        entries.append(row)
    return RatMatrix(entries)


def certify_injective_sampling(f: PolyMap, domain: ConvexDomain,
                               trials: int, seed: int,
                               denom_bits: int = 4) -> Certificate:
    """Search random pairs for an exact value collision.

    A pair with f(X1) = f(X2) is a failure witness; its segment matrix
    determinant (necessarily zero) is re-verified before emission.  A
    singular pair whose values still separate is not a counterexample,
    so it only lowers the min |det| statistic.  Anything short of a
    collision is inconclusive: sampling cannot prove a condition
    quantified over all pairs.
    """
    if trials < 1:
        raise ValueError("at least one trial is required")
    if f.n != domain.n:
        raise ValueError("dimension mismatch")
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
    and a few spot pairs are integrated as a self-check.
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
            if segment_matrix(f, x1, x2).det() != 1:
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

Interval = tuple[Fraction, Fraction]


def _imul(a: Interval, b: Interval) -> Interval:
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(products), max(products)


def _iadd(a: Interval, b: Interval) -> Interval:
    return a[0] + b[0], a[1] + b[1]


def _isub(a: Interval, b: Interval) -> Interval:
    return a[0] - b[1], a[1] - b[0]


def _interval_det(m: list[list[Interval]]) -> Interval:
    size = len(m)
    if size == 1:
        return m[0][0]
    if size == 2:
        return _isub(_imul(m[0][0], m[1][1]), _imul(m[0][1], m[1][0]))
    total = (_ZERO, _ZERO)
    for i in range(size):
        minor = [[m[r][c] for c in range(1, size)]
                 for r in range(size) if r != i]
        term = _imul(m[i][0], _interval_det(minor))
        total = _iadd(total, term) if i % 2 == 0 else _isub(total, term)
    return total


def certify_injective_interval_jacobian(f: PolyMap, domain: ConvexDomain,
                                        resolution: int = 16) -> Certificate:
    """Prove injectivity by excluding zero from an interval determinant.

    Each segment matrix entry is an average of one partial over a segment
    inside the convex domain, so it lies in that partial's certified range.
    If no matrix with entries in these ranges is singular (interval cofactor
    determinant excluding zero), the criterion holds for every pair.
    """
    if f.n != domain.n:
        raise ValueError("dimension mismatch")
    if f.n > 4:
        raise ValueError("interval determinant implemented for n <= 4")
    centers, halves = grid_cells(domain, resolution)
    if not centers:
        raise ValueError("grid produced no cells meeting the domain")
    jm = jacobian_matrix(f)
    ranges: list[list[Interval]] = []
    for i in range(f.n):
        row = []
        for j in range(f.n):
            entry = jm[i, j]
            slack = _grid_slack(entry, domain, halves)
            values = [entry.eval(c) for c in centers]
            row.append((min(values) - slack, max(values) + slack))
        ranges.append(row)
    lo, hi = _interval_det(ranges)
    evidence = {
        "det_range": (lo, hi),
        "cells": len(centers),
        "resolution": resolution,
    }
    if lo > 0 or hi < 0:
        return Certificate(PROVEN, "interval-jacobian", evidence)
    return Certificate(INCONCLUSIVE, "interval-jacobian", evidence)


# -- planar analytic criteria -------------------------------------------------

def analytic_derivative_parts(coeffs: Sequence[tuple]) -> tuple[Poly, Poly]:
    """Real and imaginary parts of f'(x+iy) for f(z) = sum c_k z^k.

    For an analytic f = u + iv these are u_x and v_x.  Coefficients are
    (re, im) rational pairs in ascending powers of z.
    """
    pairs = [(as_rational(re), as_rational(im)) for re, im in coeffs]
    der = [(k * re, k * im) for k, (re, im) in enumerate(pairs)][1:]
    x = Poly.variable(2, 1)
    y = Poly.variable(2, 2)
    pow_re, pow_im = Poly.const(2, 1), Poly.zero(2)
    real, imag = Poly.zero(2), Poly.zero(2)
    for re, im in der:
        real = real + pow_re * re - pow_im * im
        imag = imag + pow_re * im + pow_im * re
        pow_re, pow_im = pow_re * x - pow_im * y, pow_re * y + pow_im * x
    return real, imag


def analytic_pair_check(coeffs: Sequence[tuple], domain: ConvexDomain,
                        resolution: int = 32) -> Certificate:
    """Certify injectivity of an analytic polynomial on a planar domain.

    Sufficient condition: u_x is nonvanishing throughout the domain, or
    v_x is.  Each is checked by a rigorous grid enclosure.
    """
    if domain.n != 2:
        raise ValueError("the analytic criterion is planar (n = 2)")
    ux, vx = analytic_derivative_parts(coeffs)
    ranges = {}
    for name, p in (("u_x", ux), ("v_x", vx)):
        lo, hi, cells = certified_range(p, domain, resolution)
        ranges[name] = (lo, hi)
        if lo > 0 or hi < 0:
            return Certificate(PROVEN, "analytic-partial-sign", {
                "partial": name,
                "range": (lo, hi),
                "cells": cells,
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


def _cderivative(coeffs) -> list[tuple[Fraction, Fraction]]:
    return [(k * re, k * im) for k, (re, im) in enumerate(coeffs)][1:]


def _ceval(coeffs, x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
    re, im = _ZERO, _ZERO
    for a, b in reversed(coeffs):
        re, im = re * x - im * y + a, re * y + im * x + b
    return re, im


def _second_derivative_bound(coeffs, radius: Fraction) -> Fraction:
    """sup |f''| on the closed disk, via |c_k| <= |re_k| + |im_k|."""
    total = _ZERO
    for k, (re, im) in enumerate(coeffs):
        if k >= 2:
            total += k * (k - 1) * (abs(re) + abs(im)) * radius ** (k - 2)
    return total


def unit_gamma_grid(steps: int) -> list[tuple[Fraction, Fraction]]:
    """Rational unit vectors covering the circle; nested when steps double.

    One quadrant comes from the tangent-half-angle map
    t -> ((1-t^2) + 2ti)/(1+t^2) on t in (-1, 1]; the rest are its
    rotations by i, -1, -i.
    """
    if steps < 1:
        raise ValueError("at least one angle is required")
    quarter = max(1, (steps + 3) // 4)
    out = []
    for k in range(quarter):
        t = Fraction(-1) + Fraction(2 * (k + 1), quarter)
        den = 1 + t * t
        ur, ui = (1 - t * t) / den, 2 * t / den
        out.extend([(ur, ui), (-ui, ur), (-ur, -ui), (ui, -ur)])
    return out


def _scan_gamma(hp, gp, centers, slack: Fraction,
                ur: Fraction, ui: Fraction
                ) -> tuple[bool, Fraction | None, Fraction | None]:
    """(passed, min squared margin, worst score) for one rotation.

    The score ranks failing rotations so refinement can target the most
    promising one; it is the quantity that went nonpositive first.
    """
    min_margin: Fraction | None = None
    for cx, cy in centers:
        hre, him = _ceval(hp, cx, cy)
        cleared = ur * hre - ui * him - slack
        if cleared <= 0:
            return False, None, cleared
        gre, gim = _ceval(gp, cx, cy)
        margin = cleared * cleared - (gre * gre + gim * gim)
        if margin <= 0:
            return False, None, margin
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return True, min_margin, min_margin


def _rotations_near(gamma: tuple[Fraction, Fraction], steps: int,
                    count: int = 8) -> list[tuple[Fraction, Fraction]]:
    """Exact unit vectors bracketing one angle at sub-grid spacing."""
    ur, ui = gamma
    out = []
    for j in range(-count, count + 1):
        if j == 0:
            continue
        u = Fraction(j, 2 * steps)
        den = 1 + u * u
        cr, ci = (1 - u * u) / den, 2 * u / den
        out.append((ur * cr - ui * ci, ur * ci + ui * cr))
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
    hp = _cderivative(inp.h)
    gp = _cderivative(inp.g)
    disk = ConvexDomain.ball((0, 0), inp.radius)
    centers, halves = grid_cells(disk, resolution)
    half_sum = halves[0] + halves[1]
    # cells near the rim poke outside the disk: bound on an enlarged radius
    bound_radius = inp.radius + 3 * halves[0]
    lip = (_second_derivative_bound(inp.h, bound_radius)
           + _second_derivative_bound(inp.g, bound_radius))
    slack = lip * half_sum
    best: tuple[Fraction, Fraction] | None = None
    best_score: Fraction | None = None

    def angles():
        yield from unit_gamma_grid(gamma_steps)
        # runs once the grid is spent, so best is the grid's best angle
        if best is not None:
            yield from _rotations_near(best, max(gamma_steps, 4))

    tried = 0
    for ur, ui in angles():
        tried += 1
        passed, min_margin, score = _scan_gamma(hp, gp, centers, slack,
                                                ur, ui)
        if passed:
            return Certificate(PROVEN, "planar-shear", {
                "gamma": (ur, ui),
                "min_squared_margin": min_margin,
                "cells": len(centers),
                "slack": slack,
                "angles_tried": tried,
            })
        if best_score is None or (score is not None and score > best_score):
            best, best_score = (ur, ui), score
    return Certificate(INCONCLUSIVE, "planar-shear", {
        "angles_tried": tried,
        "cells": len(centers),
        "slack": slack,
    })


def shear_margin_grid(inp: PlanarShearInput, resolution: int,
                      gamma: tuple[Fraction, Fraction]
                      ) -> list[tuple[Fraction, Fraction, Fraction]]:
    """Rows (x, y, Re(gamma*h'(z)) - slack) for plotting one angle."""
    hp = _cderivative(inp.h)
    disk = ConvexDomain.ball((0, 0), inp.radius)
    centers, halves = grid_cells(disk, resolution)
    bound_radius = inp.radius + 3 * halves[0]
    slack = _second_derivative_bound(inp.h, bound_radius) * (halves[0]
                                                             + halves[1])
    ur, ui = as_rational(gamma[0]), as_rational(gamma[1])
    rows = []
    for cx, cy in centers:
        hre, him = _ceval(hp, cx, cy)
        rows.append((cx, cy, ur * hre - ui * him - slack))
    return rows


# -- piecewise valence bound ---------------------------------------------------

@dataclass
class PValenceResult:
    """Per-piece certificates and the resulting valence bound (or None)."""

    bound: int | None
    certificates: list[Certificate]

    @property
    def conclusive(self) -> bool:
        return self.bound is not None


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
    certs: list[Certificate] = []
    all_proven = True
    for piece in pieces:
        if isinstance(f, ZShiftMap) and f.is_keller_family():
            cert = certify_injective_zshift(f)
        elif f.n <= 4:
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
