"""End-to-end acceptance gate.

Each test exercises one headline capability against an exact oracle and a
wall-clock budget, and reports one PASS/FAIL line in the terminal summary.
"""

import random
import time
from fractions import Fraction

from keller_lab.certify import (
    INCONCLUSIVE,
    PROVEN,
    WITNESS,
    ConvexDomain,
    PlanarShearInput,
    certify_injective_sampling,
    planar_shear_check,
    segment_matrix,
)
from keller_lab.factor import (
    CASE_ACTIVE_BASE,
    CASE_SCALED,
    CASE_SHEAR,
    compose_rank_one_factors,
    decompose_zshift,
    planar_normal_form,
    rank_one_membership,
)
from keller_lab.families import (
    RankOneSpec,
    conjugate,
    keller_zshift_map,
    rank_one_map,
    shear_matrix,
    zshift_inverse,
)
from keller_lab.jacobian import jacobian_det, jacobian_matrix, keller_check
from keller_lab.linalg import RatMatrix
from keller_lab.parser import parse_map
from keller_lab.poly import Poly, PolyMap

from conftest import (
    random_keller_zshift,
    random_point,
    random_rank_one_spec,
    record_acceptance,
)

EXAMPLE_TABLE = [[-11, -13], [6, 9], [5, 4]]
EXAMPLE_EXPRS = [
    "x1 - 11*(x1+x2+x3)^2 - 13*(x1+x2+x3)^3",
    "x2 + 6*(x1+x2+x3)^2 + 9*(x1+x2+x3)^3",
    "x3 + 5*(x1+x2+x3)^2 + 4*(x1+x2+x3)^3",
]


def run_criterion(number: int, description: str, budget_s: float, body) -> None:
    start = time.perf_counter()
    error: BaseException | None = None
    try:
        body()
    except BaseException as exc:
        error = exc
    elapsed = time.perf_counter() - start
    ok = error is None and elapsed < budget_s
    line = (f"{'PASS' if ok else 'FAIL'} criterion {number}: {description} "
            f"({elapsed:.2f}s, budget {budget_s:g}s)")
    record_acceptance(line)
    print(line)
    if error is not None:
        raise error
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.2f}s, over the "
        f"{budget_s:g}s budget")


def test_criterion_1_worked_factor_composition():
    def body():
        first = RankOneSpec((1, 2, -3), (1, 2))    # a_l = l - 1 for l = 2, 3
        second = RankOneSpec((-3, 1, 2), (4, 5))   # a_l = 2 + l
        composed = compose_rank_one_factors([first, second])
        assert composed == keller_zshift_map(EXAMPLE_TABLE)
        expected = parse_map(EXAMPLE_EXPRS)
        for built, stated in zip(composed.components, expected.components):
            assert built.terms == stated.terms

    run_criterion(1, "composing the two worked rank-one factors reproduces "
                     "the worked map coefficient-for-coefficient", 1.0, body)


def test_criterion_2_worked_map_is_not_rank_one():
    def body():
        f = keller_zshift_map(EXAMPLE_TABLE)
        res = rank_one_membership(f)
        assert not res.member
        w = res.witness
        assert w is not None
        assert w.rows == (1, 2)
        assert w.degrees == (2, 3)
        (a, b), (c, d) = w.entries
        for (row, degree), entry in zip(
                [(r, l) for r in w.rows for l in w.degrees],
                [a, b, c, d]):
            assert f.coeffs[row - 1][degree - 2] == entry
        assert w.minor == a * d - b * c == -21
        assert w.minor != 0

    run_criterion(2, "membership test rejects the worked map with a "
                     "verified nonzero 2x2 minor", 1.0, body)


def test_criterion_3_rank_one_maps_have_unit_jacobian():
    def body():
        rng = random.Random(3)
        for trial in range(200):
            n = rng.randint(2, 6)
            m = rng.randint(2, 8)
            f = rank_one_map(random_rank_one_spec(rng, n, m))
            # full symbolic determinant, taken in sheared coordinates
            # (an exact unimodular change of variables, so det is preserved)
            det = jacobian_matrix(f.sheared()).det()
            assert det == Poly.const(n, 1)
            assert f.jacobian_det_closed_form() == Poly.const(n, 1)
            if trial < 10:
                small = rank_one_map(random_rank_one_spec(
                    rng, rng.randint(2, 3), rng.randint(2, 4)))
                assert jacobian_det(small) == Poly.const(small.n, 1)

    run_criterion(3, "200 random zero-sum rank-one maps (n <= 6, m <= 8) "
                     "have symbolic Jacobian determinant exactly 1", 60.0,
                  body)


def test_criterion_4_inverse_round_trip():
    def body():
        rng = random.Random(4)
        sizes = [(2, 2), (2, 3), (2, 6), (3, 2), (3, 3), (4, 2), (4, 3),
                 (5, 2)]
        for trial in range(100):
            n, m = sizes[trial % len(sizes)]
            f = random_keller_zshift(rng, n, m)
            g = zshift_inverse(f)
            ident = PolyMap.identity(n)
            assert PolyMap(list(g.components)).compose(
                PolyMap(list(f.components))) == ident
            assert PolyMap(list(f.components)).compose(
                PolyMap(list(g.components))) == ident

    run_criterion(4, "100 random zero-sum shift maps compose with their "
                     "inverses to the identity, symbolically, both ways",
                  60.0, body)


def _shear_conjugated(f) -> PolyMap:
    # S^-1 o f o S: sheared() gives f o S, and postcomposing with S^-1
    # only replaces the first output by the sum of all outputs
    parts = list(f.sheared().components)
    total = parts[0]
    for part in parts[1:]:
        total = total + part
    return PolyMap([total] + parts[1:])


def test_criterion_5_decompose_compose_round_trip():
    def body():
        rng = random.Random(5)
        for trial in range(100):
            n = rng.randint(2, 5)
            m = rng.randint(2, 6)
            f = random_keller_zshift(rng, n, m)
            factorization = decompose_zshift(f)
            closed = compose_rank_one_factors(factorization.factors)
            assert closed == f
            # independent symbolic oracle: iterate the generic
            # term-substitution composition in conjugated coordinates,
            # where the factor maps stay sparse
            conjugated = [_shear_conjugated(rank_one_map(s))
                          for s in factorization.factors]
            iterated = conjugated[0]
            for nxt in conjugated[1:]:
                iterated = iterated.compose(nxt)
            assert iterated == _shear_conjugated(closed)
            if n <= 3 and m <= 3:
                straight = PolyMap(
                    list(rank_one_map(factorization.factors[0]).components))
                for s in factorization.factors[1:]:
                    straight = straight.compose(
                        PolyMap(list(rank_one_map(s).components)))
                assert straight == PolyMap(list(closed.components))
                s_mat = shear_matrix(n)
                assert _shear_conjugated(closed) == conjugate(
                    s_mat.inverse(), straight, s_mat)

    run_criterion(5, "100 random zero-sum shift maps (n <= 5, m <= 6) "
                     "factor and recompose exactly, closed form matching "
                     "symbolic composition", 120.0, body)


def test_criterion_6_planar_normal_form_cases():
    def body():
        cases = [
            ("x + (x+y)^2 + (x+y)^3", "y - (x+y)^2 - (x+y)^3",
             CASE_ACTIVE_BASE, RatMatrix.identity(2), Fraction(1)),
            ("x + 2*y^3", "y",
             CASE_SHEAR, RatMatrix([[1, 0], [-1, 1]]), Fraction(2)),
            ("x + (y-2*x)^3", "y + 2*(y-2*x)^3",
             CASE_SCALED, RatMatrix([[-2, 0], [0, 1]]), Fraction(-2)),
        ]
        for expr1, expr2, tag, matrix, alpha_top in cases:
            f = parse_map([expr1, expr2])
            res = planar_normal_form(f)
            assert res.case_tag == tag
            assert res.a == matrix
            assert res.alpha_top == alpha_top
            assert res.reconstruct() == f
            verdict = keller_check(res.normal_map())
            assert verdict.is_keller and verdict.constant_value == 1

    run_criterion(6, "the three worked planar maps normalize to the three "
                     "case matrices and reconstruct exactly", 5.0, body)


def test_criterion_7_segment_matrix_unit_determinant():
    def body():
        rng = random.Random(7)
        pairs = 0
        while pairs < 100:
            n = rng.randint(2, 5)
            m = rng.randint(2, 6)
            f = random_keller_zshift(rng, n, m)
            for _ in range(4):
                x1 = random_point(rng, n)
                x2 = random_point(rng, n)
                if x1 == x2:
                    continue
                # the moments path over the expansion, and the table's
                # closed form
                moments = segment_matrix(PolyMap(f.components), x1, x2)
                assert moments.det() == 1
                assert moments == segment_matrix(f, x1, x2)
                pairs += 1

    run_criterion(7, "100 random segment-averaged Jacobians of zero-sum "
                     "shift maps have determinant exactly 1", 30.0, body)


def test_criterion_8_sampling_finds_a_collision():
    def body():
        f = parse_map(["x^2", "y"])
        box = ConvexDomain.box([(-1, 1), (-1, 1)])
        cert = certify_injective_sampling(f, box, trials=40, seed=1)
        assert cert.status == WITNESS
        x1, x2 = cert.evidence["pair"]
        assert x1 != x2
        assert x1[0] == -x2[0] and x1[1] == x2[1]
        assert f.eval(x1) == f.eval(x2)
        assert cert.evidence["values_collide"] is True
        assert cert.evidence["determinant"] == 0
        assert segment_matrix(f, x1, x2).det() == 0

    run_criterion(8, "sampling the folded planar map yields a verified "
                     "value collision as a failure witness", 5.0, body)


def test_criterion_9_shear_margin_checks():
    def body():
        proven = planar_shear_check(
            PlanarShearInput(((0, 0), (1, 0)),
                             ((0, 0), (0, 0), (Fraction(1, 4), 0))),
            resolution=16, gamma_steps=360)
        assert proven.status == PROVEN
        inconclusive = planar_shear_check(
            PlanarShearInput(((0, 0), (0, 0), (1, 0)), ((0, 0),)),
            resolution=16, gamma_steps=360)
        assert inconclusive.status == INCONCLUSIVE
        assert inconclusive.evidence["angles_tried"] >= 360

    run_criterion(9, "shear margins prove the gentle planar pair and stay "
                     "inconclusive for the folded one on a 360-angle grid",
                  10.0, body)
