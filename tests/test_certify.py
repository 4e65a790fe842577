"""Injectivity certificates: exactness, soundness, reproducibility."""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import (
    Phase, assume, example, given, settings, strategies as st)

from keller_lab import _kernels, certify, jacobian
from keller_lab.certify import (
    INCONCLUSIVE,
    PROVEN,
    WITNESS,
    ConvexDomain,
    PlanarShearInput,
    abs_bound_on_box,
    analytic_pair_check,
    certify_injective_interval_jacobian,
    certify_injective_sampling,
    certify_injective_zshift,
    grid_cells,
    planar_shear_check,
    pvalent_bound,
    sample_point,
    segment_matrix,
    shear_margin_grid,
    unit_gamma_grid,
)
from keller_lab.families import ZShiftMap, keller_zshift_map, rank_one_map
from keller_lab.families import RankOneSpec
from keller_lab.jacobian import jacobian_matrix
from keller_lab.linalg import RatMatrix, linear_poly_map
from keller_lab.parser import parse_map
from keller_lab.poly import ExpansionLimitError, Poly, PolyMap, digit_limit

from conftest import (
    random_keller_table, random_keller_zshift, random_point, rational)


UNIT_BOX = ConvexDomain.box([(-1, 1), (-1, 1)])


class TestConvexDomain:
    def test_box_contains(self):
        assert UNIT_BOX.contains((0, 0))
        assert UNIT_BOX.contains((1, 1))
        assert not UNIT_BOX.contains((2, 0))

    def test_box_validation(self):
        with pytest.raises(ValueError):
            ConvexDomain.box([(1, -1)])

    def test_ball_contains(self):
        ball = ConvexDomain.ball((0, 0), 1)
        assert ball.contains((Fraction(1, 2), Fraction(1, 2)))
        assert not ball.contains((1, 1))
        assert ball.contains((1, 0))

    def test_ball_validation(self):
        with pytest.raises(ValueError):
            ConvexDomain.ball((0, 0), 0)

    def test_halfspace_contains(self):
        dom = ConvexDomain.halfspaces(
            [(-1, 1), (-1, 1)], [((1, 1), 0)])  # x + y <= 0
        assert dom.contains((-1, 0))
        assert not dom.contains((1, 1))

    def test_halfspace_dimension_check(self):
        with pytest.raises(ValueError):
            ConvexDomain.halfspaces([(-1, 1)], [((1, 1), 0)])

    def test_sampling_stays_inside(self):
        rng = random.Random(0)
        ball = ConvexDomain.ball((0, 0), 1)
        for _ in range(50):
            assert ball.contains(sample_point(ball, rng))

    def test_sampling_empty_intersection_fails(self):
        dom = ConvexDomain.halfspaces(
            [(0, 1), (0, 1)], [((1, 1), -1)])  # x + y <= -1: empty
        with pytest.raises(ValueError):
            sample_point(dom, random.Random(0))


class TestGridEnclosure:
    def test_cells_tile_the_box(self):
        centers, halves = grid_cells(UNIT_BOX, 4)
        assert len(centers) == 16
        assert halves == (Fraction(1, 4), Fraction(1, 4))

    def test_ball_grid_drops_corner_cells(self):
        ball = ConvexDomain.ball((0, 0), 1)
        centers, _ = grid_cells(ball, 8)
        assert len(centers) < 64

    def test_abs_bound_dominates_samples(self):
        p = parse_map(["x^2 - 2*x*y", "y"]).components[0]
        bound = abs_bound_on_box(p, UNIT_BOX.bounds)
        rng = random.Random(1)
        for _ in range(50):
            pt = random_point(rng, 2, span=1)
            assert abs(p.eval(pt)) <= bound

    def test_certified_range_contains_samples(self):
        p = parse_map(["x^2 - y", "y"]).components[0]
        cells, halves = grid_cells(UNIT_BOX, 8)
        lo, hi = certify._enclose(p, UNIT_BOX, cells, halves)
        assert len(cells) == 64
        rng = random.Random(2)
        for _ in range(100):
            pt = random_point(rng, 2, span=1)
            assert lo <= p.eval(pt) <= hi

    def test_range_narrows_with_resolution(self):
        p = parse_map(["x^2 - y", "y"]).components[0]
        lo1, hi1 = certify._enclose(p, UNIT_BOX, *grid_cells(UNIT_BOX, 4))
        lo2, hi2 = certify._enclose(p, UNIT_BOX, *grid_cells(UNIT_BOX, 16))
        assert lo1 <= lo2 and hi2 <= hi1

    def test_empty_grid_is_an_error(self):
        # x + y <= -5 misses the unit box: no cell survives
        empty = ConvexDomain.halfspaces([(0, 1), (0, 1)], [((1, 1), -5)])
        f = parse_map(["x^2 - y", "y"])
        for run in (lambda: grid_cells(empty, 4),
                    lambda: certify_injective_interval_jacobian(f, empty, 4),
                    lambda: analytic_pair_check([(0, 0), (1, 0)], empty, 4)):
            with pytest.raises(ValueError, match="no cells"):
                run()


def integrated_partials(f, a, b):
    """Oracle: a_ij from Poly.partial, composed by compose_terms with the
    line x_k = a_k + t(b_k - a_k), then the sum of c_d / (d + 1) over the
    coefficients c_d of t^d."""
    line = [{e: c for e, c in (((0,), p), ((1,), q - p)) if c}
            for p, q in zip(a, b)]
    return RatMatrix([[sum((c / (d + 1) for (d,), c in _kernels.compose_terms(
        f.components[j].partial(i + 1).terms, line, 1).items()), Fraction(0))
        for j in range(f.n)] for i in range(f.n)])


_coefficients = st.fractions(min_value=-20, max_value=20,
                             max_denominator=7).filter(bool)
# zero coordinates and denominators that share no factor
_coordinates = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-3, max_value=3, max_denominator=12))


def _maps_and_segments(n):
    """A map whose components are empty, constant or up to five terms of
    degree <= 3 per variable, and a segment whose end repeats some start
    coordinates (None)."""
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    component = st.one_of(
        st.just({}),
        _coefficients.map(lambda c: {(0,) * n: c}),
        st.dictionaries(exponents, _coefficients, min_size=1, max_size=5))
    return st.tuples(st.tuples(*[component] * n),
                     st.tuples(*[_coordinates] * n),
                     st.tuples(*[st.one_of(st.none(), _coordinates)] * n))


segment_cases = st.integers(1, 4).flatmap(_maps_and_segments)


class TestSegmentMatrix:
    def test_identity_map_gives_identity(self):
        f = PolyMap.identity(3)
        a = segment_matrix(f, (0, 0, 0), (1, 2, 3))
        assert a == RatMatrix.identity(3)

    def test_linear_map_gives_its_jacobian(self):
        mat = RatMatrix([[1, 2], [3, 4]])
        f = linear_poly_map(mat)
        a = segment_matrix(f, (0, 0), (5, -7))
        assert a == RatMatrix([[p.eval((0, 0)) for p in row]
                               for row in jacobian_matrix(f).data])

    def test_hand_integral(self):
        # f = (x^2, y) along the symmetric segment: a11 integrates to 0
        f = parse_map(["x^2", "y"])
        a = segment_matrix(f, (-1, 0), (1, 0))
        assert a[0, 0] == 0
        assert a.det() == 0
        assert f.eval((-1, 0)) == f.eval((1, 0))

    def test_difference_identity(self):
        # f(X2) - f(X1) = A^T (X2 - X1) for every polynomial map
        rng = random.Random(3)
        f = parse_map(["x + y^2", "y + x^3"])
        for _ in range(10):
            x1 = random_point(rng, 2)
            x2 = random_point(rng, 2)
            if x1 == x2:
                continue
            a = segment_matrix(f, x1, x2)
            delta = tuple(q - p for p, q in zip(x1, x2))
            moved = RatMatrix(list(zip(*a.data))).apply(delta)
            assert moved == tuple(q - p for p, q
                                  in zip(f.eval(x1), f.eval(x2)))

    @settings(deadline=None)
    @given(case=segment_cases)
    @example(case=(({}, {(0, 0): Fraction(3)}),
                   (Fraction(0), Fraction(1, 2)), (Fraction(1), None)))
    @example(case=(({(3,): Fraction(1, 5), (1,): Fraction(-2)},),
                   (Fraction(0),), (Fraction(-2, 3),)))
    def test_moments_match_integrated_partials(self, case):
        terms, x1, ends = case
        x2 = tuple(p if q is None else q for p, q in zip(x1, ends))
        assume(x1 != x2)
        n = len(terms)
        f = PolyMap(Poly(n, t) for t in terms)
        a = segment_matrix(f, x1, x2)
        assert a == integrated_partials(f, x1, x2)
        # mean-value identity: f(x2) - f(x1) = A^T (x2 - x1)
        delta = tuple(q - p for p, q in zip(x1, x2))
        assert RatMatrix(list(zip(*a.data))).apply(delta) == tuple(
            v - u for u, v in zip(f.eval(x1), f.eval(x2)))

    def test_coincident_points_rejected(self):
        with pytest.raises(ValueError):
            segment_matrix(PolyMap.identity(2), (1, 1), (1, 1))

    def test_keller_zshift_always_unit_det(self):
        rng = random.Random(4)
        for _ in range(10):
            f = random_keller_zshift(rng, 3, 4)
            x1, x2 = random_point(rng, 3), random_point(rng, 3)
            if x1 == x2:
                continue
            assert segment_matrix(f, x1, x2).det() == 1


def free_table(rng, n, m):
    """An n-row table for degrees 2..m with a nonzero column sum, if any
    column: not a Keller table."""
    rows = [[rational(rng) for _ in range(m - 1)] for _ in range(n)]
    if m > 1 and not any(map(sum, zip(*rows))):
        rows[0][-1] += 1
    return rows


def zero_sum_table(n, m):
    """An n-row table with every degree 2..m nonzero and zero column sums."""
    rows = [[Fraction((k + 1) * (l % 7 + 1), l) for l in range(2, m + 1)]
            for k in range(n - 1)]
    rows.append([-sum(col) for col in zip(*rows)])
    return rows


def sum_image(f, z):
    """s(z) = z + sum_l (column sum_l) z^l, the image of z = x1+...+xn."""
    return z + sum((s * z ** l for l, s in enumerate(f.column_sums(), 2)),
                   Fraction(0))


def sum_image_slope(f, z):
    """s'(z)."""
    return 1 + sum((l * s * z ** (l - 1)
                    for l, s in enumerate(f.column_sums(), 2)), Fraction(0))


def equal_sum_end(rng, a):
    """A point other than a with the same coordinate sum (n >= 2)."""
    shift = rational(rng, 5) or Fraction(1)
    i, j = rng.sample(range(len(a)), 2)
    b = list(a)
    b[i] += shift
    b[j] -= shift
    return tuple(b)


class TestZShiftClosedForm:
    """segment_matrix of a ZShiftMap is I + 1 c^T from its table; the oracle
    is the moments path over its expanded components."""

    def check(self, f, a, b):
        closed = segment_matrix(f, a, b)
        moments = segment_matrix(PolyMap(f.components), a, b)
        for i in range(f.n):
            for j in range(f.n):
                assert closed[i, j] == moments[i, j], (f, a, b, i, j)
        z1, z2 = sum(a, Fraction(0)), sum(b, Fraction(0))
        assert closed.det() == (
            sum_image_slope(f, z1) if z1 == z2
            else (sum_image(f, z2) - sum_image(f, z1)) / (z2 - z1))
        return closed

    @pytest.mark.parametrize("keller", [True, False],
                             ids=["keller", "non-keller"])
    def test_matches_the_moments_path(self, keller):
        rng = random.Random(25 + keller)
        for n in range(1, 7):
            for m in range(1, 8):
                f = ZShiftMap(random_keller_table(rng, n, m) if keller
                              else free_table(rng, n, m))
                assert f.is_keller_family() == keller or f.m == 1
                for _ in range(2):
                    a, b = random_point(rng, n), random_point(rng, n)
                    if a != b:
                        self.check(f, a, b)
                    if n > 1:
                        self.check(f, a, equal_sum_end(rng, a))

    def test_equal_coordinate_sums(self):
        # z1 = z2: every weight is l z1^(l-1)
        f = ZShiftMap([[1, Fraction(-2, 3)], [Fraction(5, 7), 4], [0, 1]])
        a = (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
        b = (Fraction(-1, 2), Fraction(2, 3), Fraction(2))
        closed = self.check(f, a, b)
        z = sum(a)
        c = [p2 * 2 * z + p3 * 3 * z ** 2 for p2, p3 in f.coeffs]
        assert closed == RatMatrix(
            [[c[j] + (i == j) for j in range(3)] for i in range(3)])
        # both sums zero: only the identity is left
        zero = (Fraction(1), Fraction(-1), Fraction(0))
        assert self.check(f, zero, (0, 0, 0)) == RatMatrix.identity(3)

    def test_identity_table(self):
        rng = random.Random(8)
        for n in range(1, 5):
            f = ZShiftMap([[]] * n)
            a, b = random_point(rng, n), random_point(rng, n)
            if a != b:
                assert self.check(f, a, b) == RatMatrix.identity(n)

    @pytest.mark.parametrize("table", [
        # degrees 11 and 12 in 9 variables, just past the limit
        [[0] * 9 + [1, 1], [0] * 9 + [-1, -1]] + [[0] * 11] * 7,
        # every degree up to 40 in 20 variables, far past it
        zero_sum_table(20, 40),
    ], ids=["(9,12)", "(20,40)"])
    def test_a_map_past_the_work_limit_reads_no_expansion(self, monkeypatch,
                                                          table):
        f = ZShiftMap(table)
        segments = forbid_jacobians(monkeypatch)
        a = tuple(Fraction(k + 1, 3) for k in range(f.n))
        b = tuple(Fraction(-k, 5) for k in range(f.n))
        start = time.process_time()
        closed = segment_matrix(f, a, b)
        assert time.process_time() - start < 1
        assert segments == []
        assert closed.det() == 1
        # mean-value identity: f(b) - f(a) = A^T (b - a)
        delta = tuple(q - p for p, q in zip(a, b))
        assert RatMatrix(list(zip(*closed.data))).apply(delta) == tuple(
            v - u for u, v in zip(f.eval(a), f.eval(b)))
        with pytest.raises(ExpansionLimitError):
            f.components

    def test_inputs_are_checked_first(self):
        f = ZShiftMap([[1], [-1]])
        with pytest.raises(ValueError, match="dimension mismatch"):
            segment_matrix(f, (0, 0, 0), (1, 1, 1))
        with pytest.raises(ValueError, match="must differ"):
            segment_matrix(f, (1, 2), (1, 2))
        with pytest.raises(TypeError):
            segment_matrix(f, (0.5, 0), (1, 1))


class TestSamplingCertifier:
    def test_witness_on_symmetric_fold(self):
        f = parse_map(["x^2", "y"])
        cert = certify_injective_sampling(f, UNIT_BOX, trials=40, seed=1)
        assert cert.status == WITNESS
        x1, x2 = cert.evidence["pair"]
        assert x1 != x2
        assert f.eval(x1) == f.eval(x2)
        assert cert.evidence["determinant"] == 0
        assert segment_matrix(f, x1, x2).det() == 0

    def test_singular_separating_pair_is_not_a_witness(self):
        # seed 5 hits x-mirrored points with unequal y: det = 0 yet the
        # values differ, so the scan must keep going (and end inconclusive
        # here, with the zero determinant only visible in the statistic)
        f = parse_map(["x^2", "y"])
        cert = certify_injective_sampling(f, UNIT_BOX, trials=40, seed=5)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["min_abs_det"] == 0

    def test_keller_family_reports_min_det_one(self):
        f = rank_one_map(RankOneSpec((1, 2, -3), (1, 2)))
        dom = ConvexDomain.box([(-1, 1)] * 3)
        cert = certify_injective_sampling(f, dom, trials=25, seed=0)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["min_abs_det"] == 1
        assert cert.evidence["pairs_tested"] == 25

    def test_identity_inconclusive_min_one(self):
        cert = certify_injective_sampling(
            PolyMap.identity(2), UNIT_BOX, trials=5, seed=1)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["min_abs_det"] == 1

    def test_seed_reproducibility(self):
        f = parse_map(["x + y^2", "y"])
        a = certify_injective_sampling(f, UNIT_BOX, trials=20, seed=9)
        b = certify_injective_sampling(f, UNIT_BOX, trials=20, seed=9)
        assert a.evidence == b.evidence

    def test_never_proves(self):
        cert = certify_injective_sampling(
            PolyMap.identity(2), UNIT_BOX, trials=3, seed=0)
        assert cert.status != PROVEN

    @pytest.mark.skipif(digit_limit() != 4300, reason="boundary at 4300")
    @pytest.mark.parametrize("degree, refused", [(3571, False), (3572, True)])
    def test_values_past_the_digit_limit_are_refused_before_any_pair(
            self, monkeypatch, degree, refused):
        # a witness's values have denominators up to 2^(4 * degree) on the
        # default lattice: 4299.9 digits pass, 4301.1 are refused
        def sampled(*args):
            raise AssertionError("a pair was sampled")

        monkeypatch.setattr(certify, "sample_point", sampled)
        f = parse_map([f"x^1000*x^1000*x^1000*x^{degree - 3000}", "y"])
        with pytest.raises(ValueError, match="at least one trial"):
            certify_injective_sampling(f, UNIT_BOX, trials=0, seed=0)
        if not refused:
            with pytest.raises(AssertionError, match="a pair was sampled"):
                certify_injective_sampling(f, UNIT_BOX, trials=1, seed=0)
            return
        with pytest.raises(ValueError) as caught:
            certify_injective_sampling(f, UNIT_BOX, trials=1, seed=0)
        assert str(caught.value) == ("denominator bits 4 give values of "
                                     "about 4301 digits, over the 4300-digit "
                                     "limit")


def forbid_jacobians(monkeypatch) -> list:
    """Make every Jacobian, partial or segment restriction raise, and record
    the segments whose moments certify integrates."""
    def forbidden(*args, **kwargs):
        raise AssertionError("segment matrices must not build a Jacobian")

    for owner, name in ((certify, "jacobian_matrix"),
                        (jacobian, "jacobian_matrix"),
                        (Poly, "partial"), (Poly, "restrict_segment")):
        monkeypatch.setattr(owner, name, forbidden)
    segments = []
    real = _kernels.segment_moments

    def counting(monos, start, end):
        segments.append((start, end))
        return real(monos, start, end)

    monkeypatch.setattr(_kernels, "segment_moments", counting)
    return segments


class TestNoJacobianPerCall:
    def test_sampling_builds_no_jacobian(self, monkeypatch):
        f = parse_map(["x + y^2", "y"])
        plain = certify_injective_sampling(f, UNIT_BOX, trials=12, seed=9)
        segments = forbid_jacobians(monkeypatch)
        counted = certify_injective_sampling(f, UNIT_BOX, trials=12, seed=9)
        assert counted.evidence == plain.evidence
        assert len(segments) == 12
        # a second call repeats the work: nothing is kept across calls
        again = certify_injective_sampling(f, UNIT_BOX, trials=12, seed=9)
        assert again.evidence == plain.evidence
        assert segments[12:] == segments[:12]

    def test_zshift_spot_pairs_build_no_jacobian(self, monkeypatch):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        plain = certify_injective_zshift(f)
        segments = forbid_jacobians(monkeypatch)
        cert = certify_injective_zshift(f)
        assert cert.evidence == plain.evidence
        assert cert.evidence["spot_pairs_checked"] == 2
        assert len(segments) == 2
        certify_injective_zshift(f)
        assert segments[2:] == segments[:2]


def count_segment_matrices(monkeypatch) -> list:
    """Record the map of every call to certify.segment_matrix."""
    calls = []
    real = certify.segment_matrix

    def counting(f, x1, x2):
        calls.append(f)
        return real(f, x1, x2)

    monkeypatch.setattr(certify, "segment_matrix", counting)
    return calls


class TestOneSegmentEntry:
    """Every segment matrix the certifiers build comes from segment_matrix."""

    @pytest.mark.parametrize("f", [
        parse_map(["x + y^2", "y"]),
        keller_zshift_map([[2, -1], [-2, 1]]),
    ], ids=["expression", "zshift"])
    def test_sampling_calls_the_entry_once_per_pair(self, monkeypatch, f):
        calls = count_segment_matrices(monkeypatch)
        cert = certify_injective_sampling(f, UNIT_BOX, trials=12, seed=9)
        assert cert.evidence["pairs_tested"] == 12
        assert calls == [f] * 12

    def test_spot_pairs_call_the_entry_twice_each(self, monkeypatch):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        calls = count_segment_matrices(monkeypatch)
        assert certify_injective_zshift(f).evidence[
            "spot_pairs_checked"] == 2
        assert [type(g) for g in calls] == [PolyMap, ZShiftMap] * 2
        assert all(g == PolyMap(f.components) for g in calls)

    @pytest.mark.parametrize("keller", [True, False],
                             ids=["keller", "non-keller"])
    def test_sampling_a_shift_map_reads_its_table(self, monkeypatch, keller):
        rng = random.Random(26 + keller)
        for n in range(2, 6):
            for m in (2, 3, 5):
                f = ZShiftMap(random_keller_table(rng, n, m) if keller
                              else free_table(rng, n, m))
                box = ConvexDomain.box([(-1, 1)] * n)
                oracle = certify_injective_sampling(
                    PolyMap(f.components), box, trials=10, seed=n * m)
                with monkeypatch.context() as patch:
                    segments = forbid_jacobians(patch)
                    cert = certify_injective_sampling(
                        f, box, trials=10, seed=n * m)
                assert segments == []
                assert (cert.status, cert.evidence) == (
                    oracle.status, oracle.evidence), (f, n * m)

    def test_a_shift_map_witness_matches_its_expansion(self, monkeypatch):
        # (x + z^2, y) folds where x1 + x2 + 2y = -1
        f = ZShiftMap([[1], [0]])
        oracle = certify_injective_sampling(
            PolyMap(f.components), UNIT_BOX, trials=200, seed=4)
        segments = forbid_jacobians(monkeypatch)
        cert = certify_injective_sampling(f, UNIT_BOX, trials=200, seed=4)
        assert segments == []
        assert cert.status == oracle.status == WITNESS
        assert cert.evidence == oracle.evidence
        x1, x2 = cert.evidence["pair"]
        assert f.eval(x1) == f.eval(x2)

    def test_sampling_past_the_work_limit_reads_no_expansion(self):
        f = ZShiftMap(zero_sum_table(20, 40))
        box = ConvexDomain.box([(-1, 1)] * f.n)
        cert = certify_injective_sampling(f, box, trials=5, seed=3)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["min_abs_det"] == 1
        assert cert.evidence["pairs_tested"] == 5
        with pytest.raises(ExpansionLimitError):
            f.components


class TestSymbolicZshiftCertifier:
    def test_worked_map_proven(self):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        cert = certify_injective_zshift(f)
        assert cert.status == PROVEN
        assert cert.evidence["jacobian_det"] == 1
        assert cert.evidence["column_sums"] == (0, 0)

    def test_identity_proven(self):
        cert = certify_injective_zshift(ZShiftMap([[], []]))
        assert cert.status == PROVEN

    def test_spot_checks_past_the_work_limit_are_skipped(self):
        # degrees 11 and 12 in 9 variables: a spot pair would expand powers
        # of z past the work limit, and the family identity still proves it
        table = [[0] * 9 + [1, 1], [0] * 9 + [-1, -1]] + [[0] * 11] * 7
        start = time.process_time()
        cert = certify_injective_zshift(ZShiftMap(table))
        assert time.process_time() - start < 1
        assert cert.status == PROVEN
        assert cert.evidence["jacobian_det"] == 1
        assert cert.evidence["spot_pairs_checked"] == 0

    def test_rank_one_maps_proven(self):
        rng = random.Random(6)
        for _ in range(5):
            spec = RankOneSpec((1, -1), tuple(
                Fraction(rng.randint(-5, 5)) for _ in range(3)))
            assert certify_injective_zshift(
                rank_one_map(spec)).status == PROVEN

    def test_non_keller_rejected(self):
        with pytest.raises(ValueError):
            certify_injective_zshift(ZShiftMap([[1], [1]]))

    def test_spot_pairs_checked(self):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        cert = certify_injective_zshift(f)
        assert cert.evidence["spot_pairs_checked"] == 2

    def test_spot_pairs_compare_every_entry_with_the_table(self):
        # components of another Keller table: each spot matrix still has
        # determinant 1, but it is not the table's closed form
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        f._expanded = keller_zshift_map([[1, 2], [-1, 0], [0, -2]]).components
        with pytest.raises(AssertionError, match="left the closed form"):
            certify_injective_zshift(f)


class TestIntervalJacobianCertifier:
    def test_small_perturbation_proven(self):
        f = parse_map(["x + 1/8*(x+y)^2", "y - 1/8*(x+y)^2"])
        dom = ConvexDomain.box([(Fraction(-1, 4), Fraction(1, 4))] * 2)
        cert = certify_injective_interval_jacobian(f, dom, resolution=16)
        assert cert.status == PROVEN
        lo, hi = cert.evidence["det_range"]
        assert lo > 0

    def test_triangular_map_proven(self):
        f = parse_map(["x + y^2", "y"])
        cert = certify_injective_interval_jacobian(f, UNIT_BOX, resolution=4)
        assert cert.status == PROVEN
        assert cert.evidence["det_range"] == (1, 1)

    def test_fold_map_inconclusive(self):
        f = parse_map(["x^2", "y"])
        cert = certify_injective_interval_jacobian(f, UNIT_BOX, resolution=8)
        assert cert.status == INCONCLUSIVE

    def test_dimension_cap(self):
        f = PolyMap.identity(5)
        dom = ConvexDomain.box([(0, 1)] * 5)
        with pytest.raises(ValueError):
            certify_injective_interval_jacobian(f, dom)

    def test_det_range_is_sound(self):
        # every sampled pair's segment determinant lies in the range
        f = parse_map(["x + 1/4*y^2", "y - 1/4*x^2"])
        cert = certify_injective_interval_jacobian(f, UNIT_BOX, resolution=8)
        lo, hi = cert.evidence["det_range"]
        rng = random.Random(7)
        for _ in range(30):
            x1 = random_point(rng, 2, span=1)
            x2 = random_point(rng, 2, span=1)
            if x1 == x2:
                continue
            det = segment_matrix(f, x1, x2).det()
            assert lo <= det <= hi

    def test_each_distinct_entry_is_enclosed_once(self, monkeypatch):
        # 16 entries, 4 distinct: 0, 1, 2*x4 and -3*x1^2
        f = parse_map(["x1 + x4^2", "x2", "x3 - x1^3", "x4"])
        calls = []
        enclose = certify._enclose

        def counting(p, *args):
            calls.append(p)
            return enclose(p, *args)

        monkeypatch.setattr(certify, "_enclose", counting)
        dom = ConvexDomain.box([(-1, 1)] * 4)
        cert = certify_injective_interval_jacobian(f, dom, resolution=2)
        assert cert.status == PROVEN
        assert len(calls) == len(set(calls)) == 4

    def test_triangular_map_proves_on_the_default_grid(self):
        # the 4-D default grid 32 has 2^20 cells, the cap
        f = parse_map(["x1 + x4^2", "x2", "x3 - x1^3", "x4"])
        start = time.process_time()
        result = pvalent_bound(f, [ConvexDomain.box([(-1, 1)] * 4)])
        assert time.process_time() - start < 5
        assert result.bound == 1
        assert result.certificates[0].evidence["cells"] == certify.MAX_GRID


def counted_grids(monkeypatch) -> list:
    """Record the (domain, resolution) of every grid certify builds."""
    built = []

    def counting(domain, resolution):
        built.append((domain, resolution))
        return grid_cells(domain, resolution)

    monkeypatch.setattr(certify, "grid_cells", counting)
    return built


class TestAnalyticPairCheck:
    def test_linear_proven(self):
        cert = analytic_pair_check([(0, 0), (1, 0)], UNIT_BOX)
        assert cert.status == PROVEN
        assert cert.evidence["partial"] == "u_x"

    def test_square_on_inset_half_plane_proven(self):
        dom = ConvexDomain.box([(Fraction(1, 10), 1), (-1, 1)])
        cert = analytic_pair_check([(0, 0), (0, 0), (1, 0)], dom)
        assert cert.status == PROVEN
        lo, hi = cert.evidence["range"]
        assert lo == Fraction(1, 5)

    def test_square_on_full_disk_inconclusive(self):
        disk = ConvexDomain.ball((0, 0), 1)
        cert = analytic_pair_check([(0, 0), (0, 0), (1, 0)], disk)
        assert cert.status == INCONCLUSIVE
        assert "u_x" in cert.evidence["ranges"]
        assert "v_x" in cert.evidence["ranges"]

    def test_rotated_square_uses_vx(self):
        # i*z^2 has u_x = -2y, v_x = 2x: only v_x is signed on the domain
        dom = ConvexDomain.box([(Fraction(1, 10), 1), (-1, 1)])
        cert = analytic_pair_check([(0, 0), (0, 0), (0, 1)], dom)
        assert cert.status == PROVEN
        assert cert.evidence["partial"] == "v_x"

    def test_vx_proof_evidence_is_pinned(self, monkeypatch):
        built = counted_grids(monkeypatch)
        dom = ConvexDomain.box([(Fraction(1, 10), 1), (-1, 1)])
        cert = analytic_pair_check([(0, 0), (0, 0), (0, 1)], dom)
        assert cert.evidence == {"partial": "v_x",
                                 "range": (Fraction(1, 5), Fraction(2)),
                                 "cells": 1024, "resolution": 32}
        # u_x failed first; both partials share the one grid
        assert built == [(dom, 32)]

    def test_inconclusive_ranges_are_pinned(self, monkeypatch):
        built = counted_grids(monkeypatch)
        disk = ConvexDomain.ball((0, 0), 1)
        cert = analytic_pair_check([(0, 0), (0, 0), (1, 0)], disk)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence == {
            "ranges": {"u_x": (Fraction(-2), Fraction(2)),
                       "v_x": (Fraction(-2), Fraction(2))},
            "resolution": 32}
        assert built == [(disk, 32)]

    def test_constant_function_has_zero_partials(self):
        cert = analytic_pair_check([(3, 1)], UNIT_BOX, 4)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["ranges"] == {"u_x": (0, 0), "v_x": (0, 0)}

    def test_planar_only(self):
        with pytest.raises(ValueError):
            analytic_pair_check([(0, 0), (1, 0)],
                                ConvexDomain.box([(0, 1)] * 3))

    @pytest.mark.parametrize("degree", [150, 601])
    def test_degree_150_is_read_without_expanding(self, degree):
        # f' comes from the complex Horner table, one pass per cell, with no
        # expansion in x and y
        coeffs = [(0, 0), (1, 0)] + [(Fraction(1, 1000), 0)] * (degree - 1)
        half = (Fraction(-1, 2), Fraction(1, 2))
        start = time.process_time()
        cert = analytic_pair_check(coeffs, ConvexDomain.box([half, half]))
        assert time.process_time() - start < 2
        # |z| <= sqrt(1/2) on the box, so Re f' >= 1 - 0.012
        assert cert.status == PROVEN

    def test_degree_80_slack_reads_the_box_as_a_disk(self):
        # the corner radii alone give (r1 + r2)^k = 1 and u_x in
        # [-1.67, 3.67]; |z| <= sqrt(1/2) gives a range within 1 +- 0.006
        coeffs = [(0, 0), (1, 0)] + [(Fraction(1, 1000), 0)] * 79
        half = (Fraction(-1, 2), Fraction(1, 2))
        cert = analytic_pair_check(coeffs, ConvexDomain.box([half, half]))
        assert cert.status == PROVEN
        lo, hi = cert.evidence["range"]
        assert Fraction(9966, 10000) < lo < 1 < hi < Fraction(10053, 10000)

    @pytest.mark.parametrize("coeffs, bounds", [
        ([(0, 0), (1, 0)] + [(Fraction(1, 1000), 0)] * 79,
         [(Fraction(-1, 2), Fraction(1, 2))] * 2),
        ([(1, 2), (0, 0), (Fraction(-3, 7), Fraction(2, 5)), (1, -1),
          (Fraction(1, 3), 0)], [(Fraction(1, 3), 2), (-1, Fraction(1, 9))]),
        ([(0, 0), (0, 0), (0, 0), (2, 1)], [(0, 0), (0, 0)]),
        ([(0, 0), (0, 0), (0, 0), (0, 0), (1, 1)], [(-3, 1), (0, 0)]),
    ])
    def test_part_bounds_hold_on_the_box(self, coeffs, bounds):
        # |Re f''| and |Im f''| at the corners, and at points inside, stay
        # within the bounds
        pairs = [(Fraction(re), Fraction(im)) for re, im in coeffs]
        b_re, b_im = certify._second_derivative_part_bounds(pairs, [
            (Fraction(lo), Fraction(hi)) for lo, hi in bounds])
        second = certify._cderivative(certify._cderivative(pairs))
        (x0, x1), (y0, y1) = bounds
        for x, y in itertools.product((x0, x1, Fraction(x0 + x1, 3)),
                                      (y0, y1, Fraction(y0 + y1, 3))):
            re, im = certify._ceval(second, Fraction(x), Fraction(y))
            assert abs(re) <= b_re and abs(im) <= b_im


class TestShearCheck:
    def test_identity_h_with_zero_g(self):
        inp = PlanarShearInput(((0, 0), (1, 0)), ((0, 0),))
        cert = planar_shear_check(inp, resolution=8, gamma_steps=4)
        assert cert.status == PROVEN

    def test_identity_h_with_small_g(self):
        inp = PlanarShearInput(
            ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)))
        cert = planar_shear_check(inp, resolution=16, gamma_steps=360)
        assert cert.status == PROVEN
        gamma = cert.evidence["gamma"]
        assert gamma[0] ** 2 + gamma[1] ** 2 == 1

    def test_square_h_inconclusive_all_angles(self):
        inp = PlanarShearInput(((0, 0), (0, 0), (1, 0)), ((0, 0),))
        cert = planar_shear_check(inp, resolution=8, gamma_steps=360)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence["angles_tried"] >= 360

    def test_gamma_grid_nests_when_doubled(self):
        for steps in (4, 8, 40, 180):
            coarse, fine = ({(Fraction(a, e), Fraction(b, e))
                             for a, b, e in unit_gamma_grid(s)}
                            for s in (steps, 2 * steps))
            assert coarse <= fine

    def test_gamma_grid_vectors_are_unit(self):
        for steps in (1, 5, 12, 360):
            triples = list(unit_gamma_grid(steps))
            assert all(a * a + b * b == e * e and e > 0
                       for a, b, e in triples)
            assert len(triples) == 4 * max(1, (steps + 3) // 4)

    def test_proven_pair_builds_only_the_angles_it_tries(self, monkeypatch):
        calls = []
        half_angle = certify._half_angle_triple

        def counting(p, q):
            calls.append((p, q))
            return half_angle(p, q)

        monkeypatch.setattr(certify, "_half_angle_triple", counting)
        inp = PlanarShearInput(
            ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)))
        cert = planar_shear_check(inp, resolution=32, gamma_steps=360)
        assert cert.status == PROVEN
        assert cert.evidence["angles_tried"] == 2
        # both angles tried are rotations of the grid's first t = -88/90,
        # so one triple is built
        assert calls == [(2 - 90, 90)]

    def test_monotone_in_gamma_steps(self):
        inp = PlanarShearInput(
            ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)))
        for steps in (4, 8, 16, 32):
            assert planar_shear_check(
                inp, resolution=16, gamma_steps=steps).status == PROVEN

    def test_monotone_in_resolution(self):
        inp = PlanarShearInput(
            ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)))
        for res in (8, 16, 32):
            assert planar_shear_check(
                inp, resolution=res, gamma_steps=8).status == PROVEN

    def test_margin_grid_rows(self):
        inp = PlanarShearInput(((0, 0), (1, 0)), ((0, 0),))
        rows = shear_margin_grid(inp, 8, (1, 0))
        assert all(margin == 1 for _, _, margin in rows)

    def test_needs_rotated_gamma(self):
        # h = i*z: Re(h') = 0, so gamma must rotate by -i
        inp = PlanarShearInput(((0, 0), (0, 1)), ((0, 0),))
        cert = planar_shear_check(inp, resolution=8, gamma_steps=8)
        assert cert.status == PROVEN

    def test_bracket_proves_between_grid_angles(self):
        # h' = 3/5 + 4i/5 points between the 4 grid angles, and |g'| = 17/20
        # leaves too little room for any of them: only the bracket proves it
        inp = PlanarShearInput(((0, 0), (Fraction(3, 5), Fraction(4, 5))),
                               ((0, 0), (Fraction(17, 20), 0)))
        cert = planar_shear_check(inp, resolution=8, gamma_steps=4)
        assert cert.status == PROVEN
        assert cert.evidence["angles_tried"] > 4

    def test_gentle_pair_evidence_is_pinned(self):
        # criterion 9's proven pair: the second grid angle already clears
        # the slack 2 * (1/4) * (1/16 + 1/16) of g'' on the 16x16 grid
        inp = PlanarShearInput(
            ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)))
        cert = planar_shear_check(inp, resolution=16, gamma_steps=360)
        assert cert.evidence == {
            "gamma": (Fraction(3960, 3961), Fraction(89, 3961)),
            "min_squared_margin": Fraction(4781501857, 8033034752),
            "cells": 224,
            "slack": Fraction(1, 16),
            "angles_tried": 2,
        }

    def test_square_h_evidence_is_pinned(self):
        # 360 grid angles, then the 16-angle bracket around the best one,
        # which the evidence names with its first failing quantity
        inp = PlanarShearInput(((0, 0), (0, 0), (1, 0)), ((0, 0),))
        cert = planar_shear_check(inp, resolution=16, gamma_steps=360)
        assert cert.status == INCONCLUSIVE
        assert cert.evidence == {
            "angles_tried": 376, "cells": 224, "slack": Fraction(1, 4),
            "best_gamma": (Fraction(-952, 1073), Fraction(495, 1073)),
            "best_score": Fraction(-13, 8584)}

    def test_bracket_evidence_is_pinned(self):
        inp = PlanarShearInput(((0, 0), (Fraction(3, 5), Fraction(4, 5))),
                               ((0, 0), (Fraction(17, 20), 0)))
        cert = planar_shear_check(inp, resolution=8, gamma_steps=4)
        assert cert.evidence == {
            "gamma": (Fraction(16, 65), Fraction(-63, 65)),
            "min_squared_margin": Fraction(8759, 67600),
            "cells": 60,
            "slack": Fraction(0),
            "angles_tried": 13,
        }

    def test_bracket_follows_the_first_failing_cell(self):
        # h' points near the diagonal between two grid angles, so which of
        # them scores best, and so the bracket, depends on the cell order
        inp = PlanarShearInput(
            ((0, 0), (Fraction(20, 29), Fraction(21, 29)),
             (Fraction(1, 64), Fraction(1, 64))),
            ((0, 0), (Fraction(3, 4), 0)))
        cert = planar_shear_check(inp, resolution=8, gamma_steps=4)
        assert cert.evidence == {
            "gamma": (Fraction(7, 25), Fraction(-24, 25)),
            "min_squared_margin": Fraction(1023859609, 8611840000),
            "cells": 60,
            "slack": Fraction(1, 64),
            "angles_tried": 7,
        }

    def test_margin_grid_subtracts_only_the_h_slack(self):
        # h'' = 2 * (1/8 + i/16) gives the h slack 2 * (3/16) * (1/4 + 1/4);
        # g'' = 1/2 must not enter the plotted margin
        inp = PlanarShearInput(
            ((0, 0), (1, 0), (Fraction(1, 8), Fraction(1, 16))),
            ((0, 0), (0, 0), (Fraction(1, 4), 0)))
        gamma = (Fraction(3, 5), Fraction(4, 5))
        rows = shear_margin_grid(inp, 4, gamma)
        quarters = [Fraction(k, 4) for k in (-3, -1, 1, 3)]
        assert [(x, y) for x, y, _ in rows] == [
            (x, y) for x in quarters for y in quarters]
        assert [m * 160 for _, _, m in rows] == [
            93, 71, 49, 27, 97, 75, 53, 31, 101, 79, 57, 35, 105, 83, 61, 39]
        for x, y, margin in rows:
            h_re = 1 + Fraction(1, 4) * x - Fraction(1, 8) * y
            h_im = Fraction(1, 8) * x + Fraction(1, 4) * y
            assert margin == (gamma[0] * h_re - gamma[1] * h_im
                              - Fraction(3, 16))

    def test_radius_respected(self):
        # g' = z/4 exceeds 1 eventually: big disks defeat the margin
        inp = PlanarShearInput(
            ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)),
            radius=5)
        cert = planar_shear_check(inp, resolution=16, gamma_steps=16)
        assert cert.status == INCONCLUSIVE


class TestPValenceBound:
    def test_single_piece_symbolic(self):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        dom = ConvexDomain.box([(-1, 1)] * 3)
        res = pvalent_bound(f, [dom])
        assert res.bound == 1

    def test_fold_map_two_pieces(self):
        f = parse_map(["x^2", "y"])
        left = ConvexDomain.box([(-1, Fraction(-1, 100)), (-1, 1)])
        right = ConvexDomain.box([(Fraction(1, 100), 1), (-1, 1)])
        res = pvalent_bound(f, [left, right], resolution=16)
        assert res.bound == 2
        assert [c.status for c in res.certificates] == [PROVEN, PROVEN]

    def test_inconclusive_piece_propagates(self):
        f = parse_map(["x^2", "y"])
        res = pvalent_bound(f, [UNIT_BOX], resolution=8, trials=8, seed=3)
        assert res.bound is None

    def test_witness_upgrade_recorded(self):
        f = parse_map(["x^2", "y"])
        res = pvalent_bound(f, [UNIT_BOX], resolution=4, trials=40, seed=1)
        assert res.bound is None
        assert res.certificates[0].status == WITNESS

    def test_empty_pieces_rejected(self):
        with pytest.raises(ValueError):
            pvalent_bound(PolyMap.identity(2), [])

    @pytest.mark.parametrize("f", [
        keller_zshift_map([[-11, -13], [6, 9], [5, 4]]),
        parse_map(["x^2", "y"]),
    ])
    def test_piece_dimension_checked_before_any_certifier(self, monkeypatch,
                                                         f):
        ran = []
        for name in ("certify_injective_zshift",
                     "certify_injective_interval_jacobian",
                     "certify_injective_sampling"):
            monkeypatch.setattr(certify, name,
                                lambda *args, name=name: ran.append(name))
        cube = ConvexDomain.box([(-1, 1)] * 3)
        # the first piece fits the map, the second does not
        pieces = [cube, UNIT_BOX] if f.n == 3 else [UNIT_BOX, cube]
        with pytest.raises(ValueError, match="dimension mismatch"):
            pvalent_bound(f, pieces)
        assert ran == []

    def test_family_map_is_proved_once_per_call(self, monkeypatch):
        f = keller_zshift_map([[-11, -13], [6, 9], [5, 4]])
        proofs = []

        def counting(g):
            proofs.append(g)
            return certify_injective_zshift(g)

        monkeypatch.setattr(certify, "certify_injective_zshift", counting)
        halves = [ConvexDomain.box([(-1, 0), (-1, 1), (-1, 1)]),
                  ConvexDomain.box([(0, 1), (-1, 1), (-1, 1)])]
        res = pvalent_bound(f, halves)
        assert proofs == [f]
        assert res.bound == 2
        single = certify_injective_zshift(f)
        assert [(c.status, c.evidence) for c in res.certificates] == [
            (single.status, single.evidence)] * 2


# -- the integer lattice against the Fraction grid checks it replaced ---------
#
# The oracles below are the Fraction versions of grid_cells, _enclose,
# _scan_gamma, planar_shear_check, shear_margin_grid and the angle lists as
# they were before the grid checks moved onto an integer lattice and the
# angles onto Pythagorean triples.  The helpers the lattice did not change
# (_cderivative, _ceval and the shear's slack bound) are shared.

def oracle_cell_intersects(domain, center, halves):
    if domain.kind == "ball":
        dist2 = Fraction(0)
        for x, c, h in zip(center, domain.center, halves):
            nearest = min(max(c, x - h), x + h)
            dist2 += (nearest - c) ** 2
        if dist2 > domain.radius ** 2:
            return False
    for normal, rhs in domain.constraints:
        low = sum((a * (x - h if a > 0 else x + h)
                   for a, x, h in zip(normal, center, halves)), Fraction(0))
        if low > rhs:
            return False
    return True


def oracle_grid_cells(domain, resolution):
    widths = [(hi - lo) / resolution for lo, hi in domain.bounds]
    halves = tuple(w / 2 for w in widths)
    centers = []
    for index in itertools.product(range(resolution), repeat=domain.n):
        center = tuple(lo + w * k + h for (lo, _), w, h, k
                       in zip(domain.bounds, widths, halves, index))
        if oracle_cell_intersects(domain, center, halves):
            centers.append(center)
    if not centers:
        raise ValueError("grid produced no cells meeting the domain")
    return centers, halves


def oracle_enclose(p, domain, centers, halves):
    slack = sum((abs_bound_on_box(p.partial(i + 1), domain.bounds) * halves[i]
                 for i in range(domain.n)), Fraction(0))
    values = [p.eval(c) for c in centers]
    return min(values) - slack, max(values) + slack


def oracle_analytic_parts(coeffs):
    """u_x and v_x as bivariate Polys: Re and Im of f'(x+iy), by Horner on
    Poly, as analytic_pair_check expanded them before it read f' from the
    shear's complex Horner table."""
    x, y = Poly.variable(2, 1), Poly.variable(2, 2)
    re = im = Poly.zero(2)
    for a, b in reversed(certify._cderivative(coeffs)):
        re, im = re * x - im * y + a, re * y + im * x + b
    return re, im


def oracle_disk_bound(coeffs, bounds):
    """sum (|re_k| + |im_k|) rho^k over the coefficients of f'', with rho
    the least multiple of 2^-32 above sqrt(r1^2 + r2^2) and each power
    rounded up to a multiple of 2^-32: a bound on |f''| over the box."""
    r1, r2 = (max(abs(lo), abs(hi)) for lo, hi in bounds)
    unit = 2 ** 32
    rho = Fraction(math.isqrt(math.floor((r1 * r1 + r2 * r2) * unit ** 2))
                   + 1, unit)
    total, power = Fraction(0), Fraction(1)
    for re, im in certify._cderivative(certify._cderivative(coeffs)):
        total += (abs(re) + abs(im)) * power
        power = Fraction(math.ceil(power * rho * unit), unit)
    return total


def oracle_analytic_pair_check(coeffs, domain, resolution):
    """The Fraction check, each partial's bound capped by the bound on
    |f''|, as analytic_pair_check caps its part bounds."""
    centers, halves = oracle_grid_cells(domain, resolution)
    disk = oracle_disk_bound(coeffs, domain.bounds)
    ranges = {}
    for name, p in zip(("u_x", "v_x"), oracle_analytic_parts(coeffs)):
        values = [p.eval(c) for c in centers]
        slack = sum((min(abs_bound_on_box(p.partial(i + 1), domain.bounds),
                         disk) * h for i, h in enumerate(halves)),
                    Fraction(0))
        lo, hi = min(values) - slack, max(values) + slack
        ranges[name] = (lo, hi)
        if lo > 0 or hi < 0:
            return PROVEN, {"partial": name, "range": (lo, hi),
                            "cells": len(centers), "resolution": resolution}
    return INCONCLUSIVE, {"ranges": ranges, "resolution": resolution}


def oracle_shear_grid(inp, resolution):
    centers, halves = oracle_grid_cells(
        ConvexDomain.ball((0, 0), inp.radius), resolution)
    bound_radius = inp.radius + 3 * halves[0]
    half_sum = halves[0] + halves[1]
    hp, gp = certify._cderivative(inp.h), certify._cderivative(inp.g)
    table = []
    for cx, cy in centers:
        gre, gim = certify._ceval(gp, cx, cy)
        table.append(certify._ceval(hp, cx, cy) + (gre * gre + gim * gim,))
    return (centers, table,
            certify._second_derivative_bound(inp.h, bound_radius) * half_sum,
            certify._second_derivative_bound(inp.g, bound_radius) * half_sum)


def oracle_scan_gamma(table, slack, ur, ui):
    min_margin = None
    for hre, him, g_sq in table:
        cleared = ur * hre - ui * him - slack
        if cleared <= 0:
            return False, None, cleared
        margin = cleared * cleared - g_sq
        if margin <= 0:
            return False, None, margin
        if min_margin is None or margin < min_margin:
            min_margin = margin
    return True, min_margin, min_margin


def oracle_half_angle_unit(t):
    den = 1 + t * t
    return (1 - t * t) / den, 2 * t / den


def oracle_unit_gamma_grid(steps):
    quarter = max(1, (steps + 3) // 4)
    for k in range(quarter):
        ur, ui = oracle_half_angle_unit(
            Fraction(-1) + Fraction(2 * (k + 1), quarter))
        yield from ((ur, ui), (-ui, ur), (-ur, -ui), (ui, -ur))


def oracle_rotations_near(gamma, steps):
    ur, ui = gamma
    out = []
    for j in range(-certify.NEAR_ROTATIONS, certify.NEAR_ROTATIONS + 1):
        if j:
            cr, ci = oracle_half_angle_unit(Fraction(j, 2 * steps))
            out.append((ur * cr - ui * ci, ur * ci + ui * cr))
    return out


def oracle_planar_shear_check(inp, resolution, gamma_steps):
    centers, table, h_slack, g_slack = oracle_shear_grid(inp, resolution)
    slack = h_slack + g_slack
    best, best_score = None, None

    def angles():
        yield from oracle_unit_gamma_grid(gamma_steps)
        if best is not None:
            yield from oracle_rotations_near(best, max(gamma_steps, 4))

    tried = 0
    for ur, ui in angles():
        tried += 1
        passed, min_margin, score = oracle_scan_gamma(table, slack, ur, ui)
        if passed:
            return PROVEN, {"gamma": (ur, ui),
                            "min_squared_margin": min_margin,
                            "cells": len(centers), "slack": slack,
                            "angles_tried": tried}
        if best_score is None or (score is not None and score > best_score):
            best, best_score = (ur, ui), score
    return INCONCLUSIVE, {"angles_tried": tried, "cells": len(centers),
                          "slack": slack, "best_gamma": best,
                          "best_score": best_score}


def oracle_shear_margin_grid(inp, resolution, gamma):
    centers, table, h_slack, _ = oracle_shear_grid(inp, resolution)
    ur, ui = Fraction(gamma[0]), Fraction(gamma[1])
    return [(cx, cy, ur * hre - ui * him - h_slack)
            for (cx, cy), (hre, him, _) in zip(centers, table)]


# negative, zero and non-dyadic bounds
_bounds = st.fractions(min_value=-3, max_value=3, max_denominator=15)
_positive = st.fractions(min_value=Fraction(1, 15), max_value=3,
                         max_denominator=15)
_slope = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def _box_bounds(draw, n):
    """n (lo, hi) pairs, some with lo == hi."""
    out = []
    for _ in range(n):
        lo, hi = sorted((draw(_bounds), draw(_bounds)))
        out.append((lo, lo) if draw(st.booleans()) and draw(st.booleans())
                   else (lo, hi))
    return out


@st.composite
def lattice_domains(draw, n=None):
    n = draw(st.integers(1, 3)) if n is None else n
    kind = draw(st.sampled_from(["box", "ball", "wide-ball", "half"]))
    if kind == "box":
        return ConvexDomain.box(draw(_box_bounds(n)))
    if kind == "half":
        rows = draw(st.lists(st.tuples(st.tuples(*[_slope] * n), _slope),
                             min_size=1, max_size=2))
        return ConvexDomain.halfspaces(draw(_box_bounds(n)), rows)
    ball = ConvexDomain.ball(tuple(draw(_bounds) for _ in range(n)),
                             draw(_positive))
    if kind == "ball":
        return ball
    # a ball inside a box wider than its own: the lattice must carry the
    # centre and radius itself, not through the bounds
    return dataclasses.replace(ball, bounds=tuple(
        (lo - draw(_positive), hi + draw(_positive))
        for lo, hi in ball.bounds))


def lattice_polys(n):
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    return st.dictionaries(exponents, _slope, max_size=5).map(
        lambda terms: Poly(n, terms))


_small = st.fractions(min_value=Fraction(-1, 3), max_value=Fraction(1, 3),
                      max_denominator=9)
_complex_small = st.tuples(_small, _small)


@st.composite
def shear_inputs(draw):
    """h = c0 + c1 z + small higher terms and a small g: some cases prove,
    some fail on a cleared value, some on a squared margin."""
    lead = st.tuples(_slope, _slope)
    h = ([draw(_complex_small), draw(lead)]
         + draw(st.lists(_complex_small, max_size=2)))
    g = draw(st.lists(_complex_small, min_size=1, max_size=3))
    radius = draw(st.fractions(min_value=Fraction(1, 6), max_value=2,
                               max_denominator=6))
    return PlanarShearInput(tuple(h), tuple(g), radius)


class TestLatticeOracles:
    @settings(deadline=None, max_examples=150)
    @given(domain=lattice_domains(), resolution=st.integers(1, 8),
           data=st.data())
    @example(domain=ConvexDomain.box([(Fraction(2, 3), Fraction(2, 3)),
                                      (-3, Fraction(-1, 7))]),
             resolution=3, data=None)
    @example(domain=ConvexDomain.ball((Fraction(1, 3), Fraction(-2, 5)),
                                      Fraction(3, 7)),
             resolution=7, data=None)
    @example(domain=dataclasses.replace(
        ConvexDomain.ball((Fraction(-3, 5),), Fraction(1, 2)),
        bounds=((Fraction(-1), Fraction(1)),)), resolution=2, data=None)
    @example(domain=ConvexDomain.halfspaces(
        [(-1, 1), (-1, 1)], [((Fraction(1, 2), Fraction(-2, 3)),
                              Fraction(-1, 5))]), resolution=5, data=None)
    def test_grid_and_enclosure_match_fractions(self, domain, resolution,
                                                 data):
        try:
            want_centers, want_halves = oracle_grid_cells(domain, resolution)
        except ValueError:
            with pytest.raises(ValueError, match="no cells"):
                grid_cells(domain, resolution)
            return
        cells, halves = grid_cells(domain, resolution)
        assert [tuple(Fraction(x, cells.unit) for x in point)
                for point in cells.points] == want_centers
        assert halves == want_halves
        assert all(len(c) == domain.n for c in cells.points)
        polys = [Poly(domain.n, {(1,) * domain.n: Fraction(-2, 3),
                                 (0,) * domain.n: Fraction(1, 5)})]
        if data is not None:
            polys.append(data.draw(lattice_polys(domain.n)))
        for p in polys:
            assert (certify._enclose(p, domain, cells, halves)
                    == oracle_enclose(p, domain, want_centers, want_halves))

    # four axes, so a prefix of up to three is dropped or taken whole: mixed
    # normal signs and off-centre balls make the least and the most of the
    # remaining axes differ from any one cell's terms
    @settings(deadline=None, max_examples=60)
    @given(domain=lattice_domains(4), resolution=st.integers(1, 6))
    @example(domain=ConvexDomain.halfspaces(
        [(-1, 1), (-2, 1), (0, 1), (-1, Fraction(1, 3))],
        [((1, -2, Fraction(1, 2), -1), Fraction(1, 3)),
         ((Fraction(-3, 2), 1, 1, Fraction(-2, 3)), 0)]), resolution=6)
    @example(domain=ConvexDomain.ball(
        (Fraction(1, 3), Fraction(-2, 5), 0, Fraction(3, 4)), Fraction(5, 7)),
        resolution=6)
    @example(domain=dataclasses.replace(
        ConvexDomain.ball((Fraction(-3, 5), 1, 0, Fraction(1, 2)),
                          Fraction(1, 2)),
        bounds=tuple((Fraction(lo), Fraction(hi)) for lo, hi in
                     ((-1, 1), (0, 2), (-1, 1), (-2, 1)))), resolution=5)
    def test_4d_cells_match_fractions(self, domain, resolution):
        try:
            want_centers, want_halves = oracle_grid_cells(domain, resolution)
        except ValueError:
            with pytest.raises(ValueError, match="no cells"):
                grid_cells(domain, resolution)
            return
        cells, halves = grid_cells(domain, resolution)
        assert [tuple(Fraction(x, cells.unit) for x in point)
                for point in cells.points] == want_centers
        assert halves == want_halves

    @settings(deadline=None, max_examples=120)
    @given(inp=shear_inputs(), resolution=st.integers(1, 8),
           steps=st.integers(1, 40), gamma=st.tuples(_slope, _slope))
    @example(inp=PlanarShearInput(
        ((0, 0), (Fraction(3, 5), Fraction(4, 5))),
        ((0, 0), (Fraction(17, 20), 0))), resolution=8, steps=4,
        gamma=(Fraction(3, 5), Fraction(4, 5)))
    @example(inp=PlanarShearInput(
        ((0, 0), (1, 0)), ((0, 0), (0, 0), (Fraction(1, 4), 0)),
        Fraction(1, 2)), resolution=8, steps=40, gamma=(1, 0))
    def test_shear_check_and_plot_match_fractions(self, inp, resolution,
                                                  steps, gamma):
        cert = planar_shear_check(inp, resolution, steps)
        assert (cert.status, cert.evidence) == oracle_planar_shear_check(
            inp, resolution, steps)
        assert (shear_margin_grid(inp, resolution, gamma)
                == oracle_shear_margin_grid(inp, resolution, gamma))


    @settings(deadline=None, max_examples=100)
    @given(domain=lattice_domains(2), resolution=st.integers(1, 8),
           coeffs=st.lists(st.tuples(_slope, _slope), min_size=1,
                           max_size=15))
    @example(domain=ConvexDomain.box([(Fraction(1, 10), 1), (-1, 1)]),
             resolution=8, coeffs=[(0, 0), (0, 0), (0, Fraction(3, 2))])
    @example(domain=ConvexDomain.ball((Fraction(1, 3), Fraction(-2, 5)),
                                      Fraction(3, 7)),
             resolution=5, coeffs=[(1, 2), (Fraction(-2, 3), 1), (0, 0),
                                   (Fraction(1, 7), Fraction(-3, 5))])
    def test_analytic_check_matches_the_bivariate_parts(self, domain,
                                                        resolution, coeffs):
        pairs = [(Fraction(re), Fraction(im)) for re, im in coeffs]
        try:
            want = oracle_analytic_pair_check(pairs, domain, resolution)
        except ValueError:
            with pytest.raises(ValueError, match="no cells"):
                analytic_pair_check(coeffs, domain, resolution)
            return
        cert = analytic_pair_check(coeffs, domain, resolution)
        assert (cert.status, cert.evidence) == want


# -- the interval determinant against a plain cofactor recursion -----------

def oracle_interval_det(m):
    """The column-0 cofactor recursion on (lo, hi) pairs, with no memo and
    no Interval type."""
    def imul(a, b):
        products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
        return min(products), max(products)

    def iadd(a, b):
        return a[0] + b[0], a[1] + b[1]

    def isub(a, b):
        return a[0] - b[1], a[1] - b[0]

    size = len(m)
    if size == 1:
        return m[0][0]
    if size == 2:
        return isub(imul(m[0][0], m[1][1]), imul(m[0][1], m[1][0]))
    total = (Fraction(0), Fraction(0))
    for i in range(size):
        minor = [[m[r][c] for c in range(1, size)]
                 for r in range(size) if r != i]
        term = imul(m[i][0], oracle_interval_det(minor))
        total = iadd(total, term) if i % 2 == 0 else isub(total, term)
    return total


def interval_det(m):
    """certify's interval determinant of the (lo, hi) pairs m."""
    det = certify._interval_det([[certify.Interval(*x) for x in row]
                                 for row in m])
    return det.lo, det.hi


_endpoint = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def interval_matrices(draw):
    """n x n interval matrices, n = 1..4, with zero and point intervals."""
    size = draw(st.integers(1, 4))
    entry = st.one_of(
        st.just((Fraction(0), Fraction(0))),
        _endpoint.map(lambda x: (x, x)),
        st.tuples(_endpoint, _endpoint).map(lambda pair: tuple(sorted(pair))))
    return [[draw(entry) for _ in range(size)] for _ in range(size)]


@st.composite
def interval_jacobian_cases(draw):
    n = draw(st.integers(1, 4))
    polys = lattice_polys(n)
    f = PolyMap([Poly.variable(n, i + 1) + draw(polys) for i in range(n)])
    return f, ConvexDomain.box(draw(_box_bounds(n))), draw(st.integers(1, 3))


class TestIntervalDetOracle:
    @settings(deadline=None, max_examples=150)
    @given(interval_matrices())
    @example([[(Fraction(-1), Fraction(2)), (Fraction(1), Fraction(3)),
               (Fraction(0), Fraction(1))],
              [(Fraction(2), Fraction(2)), (Fraction(-3), Fraction(-1)),
               (Fraction(-1), Fraction(1))],
              [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(4)),
               (Fraction(-2), Fraction(1))]])
    def test_expansion_matches_the_cofactor_recursion(self, m):
        assert interval_det(m) == oracle_interval_det(m)

    # no shrinking: a failing case shrank for minutes, as each replay
    # builds a grid and n^2 enclosures
    @settings(deadline=None, max_examples=40,
              phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(interval_jacobian_cases())
    def test_certificate_matches_the_cofactor_recursion(self, case):
        f, domain, resolution = case
        cert = certify_injective_interval_jacobian(f, domain, resolution)
        cells, halves = grid_cells(domain, resolution)
        jm = jacobian_matrix(f)
        lo, hi = oracle_interval_det(
            [[certify._enclose(jm[i, j], domain, cells, halves)
              for j in range(f.n)] for i in range(f.n)])
        assert cert.evidence == {"det_range": (lo, hi), "cells": len(cells),
                                 "resolution": resolution}
        assert cert.status == (PROVEN if lo > 0 or hi < 0 else INCONCLUSIVE)


class TestGridCap:
    def test_default_4d_grid_is_legal(self):
        certify.check_grid(32, 4)  # 2^20 cells, checked without building
        certify.check_grid(1024, 2)

    @pytest.mark.parametrize("resolution, n", [(33, 4), (1025, 2),
                                               (100000, 2), (10 ** 50, 3)])
    def test_over_the_cap_is_rejected_before_any_cell(self, monkeypatch,
                                                      resolution, n):
        def no_cells(*args):
            raise AssertionError("the grid was started")

        monkeypatch.setattr(certify, "_cell_tests", no_cells)
        domain = ConvexDomain.box([(-1, 1)] * n)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"{resolution}\^{n} cells"):
            grid_cells(domain, resolution)
        assert time.perf_counter() - start < 5

    def test_gamma_steps_over_the_cap_are_rejected(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{10 ** 9} angles"):
            unit_gamma_grid(10 ** 9)
        inp = PlanarShearInput(((0, 0), (1, 0)), ((0, 0),))
        with pytest.raises(ValueError, match="over the cap"):
            planar_shear_check(inp, 4, certify.MAX_GRID + 1)
        assert time.perf_counter() - start < 5
