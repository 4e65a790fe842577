"""Injectivity certificates: exactness, soundness, reproducibility."""

import random
from fractions import Fraction

import pytest

from keller_lab import certify
from keller_lab.certify import (
    INCONCLUSIVE,
    PROVEN,
    WITNESS,
    ConvexDomain,
    PlanarShearInput,
    abs_bound_on_box,
    analytic_pair_check,
    certified_range,
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
from keller_lab.poly import Poly, PolyMap

from conftest import random_keller_zshift, random_point


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
            sample_point(dom, random.Random(0), max_tries=50)


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
        lo, hi, cells = certified_range(p, UNIT_BOX, 8)
        assert cells == 64
        rng = random.Random(2)
        for _ in range(100):
            pt = random_point(rng, 2, span=1)
            assert lo <= p.eval(pt) <= hi

    def test_range_narrows_with_resolution(self):
        p = parse_map(["x^2 - y", "y"]).components[0]
        lo1, hi1, _ = certified_range(p, UNIT_BOX, 4)
        lo2, hi2, _ = certified_range(p, UNIT_BOX, 16)
        assert lo1 <= lo2 and hi2 <= hi1


class TestSegmentMatrix:
    def test_identity_map_gives_identity(self):
        f = PolyMap.identity(3)
        a = segment_matrix(f, (0, 0, 0), (1, 2, 3))
        assert a == RatMatrix.identity(3)

    def test_linear_map_gives_its_jacobian(self):
        mat = RatMatrix([[1, 2], [3, 4]])
        f = linear_poly_map(mat)
        a = segment_matrix(f, (0, 0), (5, -7))
        assert a == jacobian_matrix(f).eval((0, 0))

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
            moved = a.transpose().apply(delta)
            assert moved == tuple(q - p for p, q
                                  in zip(f.eval(x1), f.eval(x2)))

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

    def test_planar_only(self):
        with pytest.raises(ValueError):
            analytic_pair_check([(0, 0), (1, 0)],
                                ConvexDomain.box([(0, 1)] * 3))


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
        coarse = set(unit_gamma_grid(8))
        fine = set(unit_gamma_grid(16))
        assert coarse <= fine

    def test_gamma_grid_vectors_are_unit(self):
        for ur, ui in unit_gamma_grid(12):
            assert ur * ur + ui * ui == 1

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
        assert res.conclusive

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
        assert not res.conclusive

    def test_witness_upgrade_recorded(self):
        f = parse_map(["x^2", "y"])
        res = pvalent_bound(f, [UNIT_BOX], resolution=4, trials=40, seed=1)
        assert res.bound is None
        assert res.certificates[0].status == WITNESS

    def test_empty_pieces_rejected(self):
        with pytest.raises(ValueError):
            pvalent_bound(PolyMap.identity(2), [])
