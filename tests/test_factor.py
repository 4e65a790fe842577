"""Factorization, membership, and the two-variable normal form."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from keller_lab import factor
from keller_lab.factor import (
    CASE_ACTIVE_BASE,
    CASE_SCALED,
    CASE_SHEAR,
    compose_rank_one_factors,
    decompose_zshift,
    difference_gammas,
    PlanarNormalForm,
    planar_normal_form,
    rank_one_membership,
)
from keller_lab.families import (
    RankOneSpec,
    ZShiftMap,
    compose_zshift,
    conjugate,
    rank_one_map,
    zshift_from_map,
)
from keller_lab.jacobian import keller_check
from keller_lab.linalg import RatMatrix
from keller_lab.parser import parse_map
from keller_lab.poly import Poly, PolyMap

from conftest import random_keller_zshift, random_rank_one_spec, rational


class TestComposeRankOneFactors:
    def test_two_factor_worked_instance(self):
        s1 = RankOneSpec((1, 2, -3), (1, 2))
        s2 = RankOneSpec((-3, 1, 2), (4, 5))
        f = compose_rank_one_factors((s1, s2))
        assert f.coeffs == ((-11, -13), (6, 9), (5, 4))

    def test_single_factor_is_its_map(self):
        spec = RankOneSpec((1, -1), (3, 5))
        assert compose_rank_one_factors((spec,)) == rank_one_map(spec)

    def test_empty_factor_list_needs_dimension(self):
        assert compose_rank_one_factors((), n=3).is_identity()
        with pytest.raises(ValueError):
            compose_rank_one_factors(())

    def test_mixed_widths_pad(self):
        s1 = RankOneSpec((1, -1), (1,))
        s2 = RankOneSpec((2, -2), (0, 3))
        f = compose_rank_one_factors((s1, s2))
        assert f.coeffs == ((1, 6), (-1, -6))

    def test_matches_iterated_generic_composition(self):
        # the closed form must agree with genuinely expanding the maps
        rng = random.Random(23)
        for _ in range(5):
            count = rng.randint(1, 4)
            specs = [random_rank_one_spec(rng, 3, 3) for _ in range(count)]
            closed = compose_rank_one_factors(specs)
            iterated = PolyMap.identity(3)
            for s in specs:
                iterated = iterated.compose(PolyMap(rank_one_map(s).components))
            assert PolyMap(closed.components) == iterated

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            compose_rank_one_factors(
                (RankOneSpec((1, -1), (1,)), RankOneSpec((1, 0, -1), (1,))))


class TestDecompose:
    def test_difference_gammas_span(self):
        gammas = difference_gammas(4)
        assert len(gammas) == 3
        assert all(sum(g) == 0 for g in gammas)
        matrix = RatMatrix([[g[k] for g in gammas] for k in range(4)])
        assert matrix.rank() == 3

    def test_worked_instance_round_trip(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        result = decompose_zshift(f)
        assert len(result.factors) == 2
        assert compose_rank_one_factors(result.factors, n=f.n) == f
        for spec in result.factors:
            assert spec.gamma in difference_gammas(3)

    def test_random_round_trips(self):
        rng = random.Random(29)
        for _ in range(10):
            n = rng.randint(2, 5)
            m = rng.randint(2, 5)
            f = random_keller_zshift(rng, n, m)
            result = decompose_zshift(f)
            assert compose_rank_one_factors(result.factors, n=n) == f

    def test_identity_decomposes_empty_or_zero(self):
        f = ZShiftMap([[], [], []])
        result = decompose_zshift(f)
        assert compose_rank_one_factors(result.factors, n=f.n) == f

    def test_one_variable_keller_map_is_identity(self):
        # zero-sum forces a zero table when n = 1
        f = ZShiftMap([[]])
        result = decompose_zshift(f)
        assert result.factors == ()
        assert compose_rank_one_factors(result.factors, n=f.n) == f

    def test_non_keller_rejected(self):
        with pytest.raises(ValueError):
            decompose_zshift(ZShiftMap([[1], [1]]))

    def test_alphas_are_running_row_sums(self, monkeypatch):
        # a zero-sum column p is sum_j alpha_j (e_j - e_(j+1)) exactly when
        # alpha_j = p_1 + ... + p_j: no linear system is solved
        def refuse(*args, **kwargs):
            raise AssertionError("decompose_zshift solved a linear system")
        monkeypatch.setattr(factor, "rat_solve", refuse)
        monkeypatch.setattr(factor, "RatMatrix", refuse)
        rng = random.Random(31)
        for _ in range(300):
            n, m = rng.randint(1, 7), rng.randint(1, 7)
            rows = [[Fraction(0) if rng.random() < 0.3 else rational(rng)
                     for _ in range(m - 1)] for _ in range(n - 1)]
            rows.append([-sum(col) for col in zip(*rows)] if rows
                        else [Fraction(0)] * (m - 1))
            f = ZShiftMap(rows)
            result = decompose_zshift(f)
            assert len(result.factors) == n - 1
            for j, spec in enumerate(result.factors):
                assert spec.gamma == difference_gammas(n)[j]
                assert spec.alphas == tuple(
                    sum(col[:j + 1], Fraction(0)) for col in zip(*f.coeffs))
            assert compose_rank_one_factors(result.factors, n=n) == f


class TestMembership:
    def test_worked_negative_instance(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        result = rank_one_membership(f)
        assert not result.member
        w = result.witness
        assert w.rows == (1, 2)
        assert w.degrees == (2, 3)
        assert w.entries == ((-11, -13), (6, 9))
        assert w.minor == -11 * 9 - (-13) * 6 == -21

    def test_rank_one_maps_are_members(self):
        rng = random.Random(37)
        for _ in range(10):
            spec = random_rank_one_spec(rng, rng.randint(2, 5),
                                        rng.randint(2, 5))
            result = rank_one_membership(rank_one_map(spec))
            assert result.member
            assert ZShiftMap(result.spec.coefficient_table()) \
                == rank_one_map(spec)

    def test_identity_is_member_with_zero_gamma(self):
        result = rank_one_membership(ZShiftMap([[], [], []]))
        assert result.member
        assert all(g == 0 for g in result.spec.gamma)

    def test_witness_minor_is_recomputable(self):
        f = ZShiftMap([[-11, -13], [6, 9], [5, 4]])
        w = rank_one_membership(f).witness
        (a, b), (c, d) = w.entries
        assert a * d - b * c == w.minor != 0

    def test_non_keller_rejected(self):
        with pytest.raises(ValueError):
            rank_one_membership(ZShiftMap([[1], [1]]))


def nonidentity_base_instance():
    # base alphas (1,), top (x+y)^3 with opposite signs
    return parse_map([
        "x + (x+y)^2 + (x+y)^3",
        "y - (x+y)^2 - (x+y)^3",
    ])


class TestNormalFormCases:
    def test_nonidentity_base(self):
        nf = planar_normal_form(nonidentity_base_instance())
        assert nf.case_tag == CASE_ACTIVE_BASE
        assert nf.a == RatMatrix.identity(2)
        assert nf.alpha_top == 1
        assert nf.base.alphas == (1,)
        assert nf.m == 2
        assert not nf.swapped and not nf.degenerate

    def test_identity_base_shear(self):
        nf = planar_normal_form(parse_map(["x + 2*y^3", "y"]))
        assert nf.case_tag == CASE_SHEAR
        assert nf.a == RatMatrix([[1, 0], [-1, 1]])
        assert nf.alpha_top == 2
        assert nf.base.alphas == (0,)
        assert nf.m == 2

    def test_identity_base_scaled(self):
        f = parse_map(["x + (y - 2*x)^3", "y + 2*(y - 2*x)^3"])
        nf = planar_normal_form(f)
        assert nf.case_tag == CASE_SCALED
        assert nf.a == RatMatrix([[-2, 0], [0, 1]])
        assert nf.alpha_top == -2

    def test_swapped_instance(self):
        nf = planar_normal_form(parse_map(["x", "y + 2*x^3"]))
        assert nf.swapped
        assert nf.case_tag == CASE_SHEAR
        assert nf.a == RatMatrix([[1, -1], [0, 1]])
        assert nf.alpha_top == -2

    def test_degenerate_identity(self):
        nf = planar_normal_form(PolyMap.identity(2))
        assert nf.degenerate
        assert nf.case_tag == CASE_ACTIVE_BASE
        assert nf.alpha_top == 0
        assert nf.a == RatMatrix.identity(2)


class TestNormalFormRoundTrip:
    def test_reconstruction_all_cases(self):
        cases = [
            nonidentity_base_instance(),
            parse_map(["x + 2*y^3", "y"]),
            parse_map(["x + (y - 2*x)^3", "y + 2*(y - 2*x)^3"]),
            parse_map(["x", "y + 2*x^3"]),
            parse_map(["x + 3*y^4", "y"]),
            parse_map(["x + (x+y)^2", "y - (x+y)^2"]),
        ]
        for f in cases:
            nf = planar_normal_form(f)
            assert nf.reconstruct() == f
            check = keller_check(nf.normal_map())
            assert check.is_keller and check.constant_value == 1

    def test_normal_map_is_rank_one(self):
        nf = planar_normal_form(nonidentity_base_instance())
        normal = nf.normal_map()
        assert rank_one_membership(normal).member


class TestNormalFormErrors:
    def test_wrong_dimension(self):
        with pytest.raises(ValueError):
            planar_normal_form(PolyMap.identity(3))

    def test_nonunit_determinant(self):
        with pytest.raises(ValueError) as err:
            planar_normal_form(parse_map(["x + x^2", "y"]))
        assert "determinant" in str(err.value)

    def test_base_not_a_shift(self):
        f = parse_map(["x + y^2 + y^3", "y"])
        with pytest.raises(ValueError) as err:
            planar_normal_form(f)
        assert "coordinate-sum" in str(err.value)

    def test_unit_det_map_outside_the_family(self):
        # det = 1 and the top pair is degenerate, yet the lower part is
        # still not a coordinate-sum shift
        f = parse_map(["x + y^2", "y + x^2 + 2*x*y^2 + y^4"])
        with pytest.raises(ValueError) as err:
            planar_normal_form(f)
        assert "coordinate-sum" in str(err.value)

    def test_nonlinear_degree_one_rejected(self):
        with pytest.raises(ValueError):
            planar_normal_form(parse_map(["2*x", "y"]))

    def test_wrong_ratio_fails_the_determinant_gate(self):
        # an active base with top ratio != -1 cannot have det 1; the
        # determinant check rejects it before any case analysis
        f = parse_map(["x + (x+y)^2 + (y-x)^3", "y - (x+y)^2 + (y-x)^3"])
        with pytest.raises(ValueError) as err:
            planar_normal_form(f)
        assert "determinant" in str(err.value)


SWAP = RatMatrix([[0, 1], [1, 0]])
INPUT_ERRORS = (
    "normal form is defined for two-variable maps",
    "degree-1 input must be the identity map",
    "Jacobian determinant must be identically 1",
    "lower-degree part is not a coordinate-sum shift: ",
)


def random_invertible(rng):
    while True:
        a = RatMatrix([[rational(rng, 4) for _ in range(2)]
                       for _ in range(2)])
        if a.det():
            return a


def conjugated_rank_one(rng):
    """A^(-1) o F o A for a planar rank-one F, with one of the three case
    matrices or a random invertible A."""
    m = rng.randint(1, 4)
    case = rng.choice([CASE_ACTIVE_BASE, CASE_SCALED, CASE_SHEAR, None])
    if case in (CASE_ACTIVE_BASE, None):
        alphas = [rational(rng, 4) for _ in range(m)]
        a = RatMatrix.identity(2) if case else random_invertible(rng)
    else:
        alphas = [0] * (m - 1) + [rational(rng, 4)]
        a = (RatMatrix([[rational(rng, 4) or 1, 0], [0, 1]])
             if case == CASE_SCALED else RatMatrix([[1, 0], [-1, 1]]))
    f = rank_one_map(RankOneSpec((1, -1), alphas))
    return conjugate(a.inverse(), f, a)


def triangular(rng):
    """x + g(y), sometimes conjugated by a random invertible A."""
    y = Poly.variable(2, 2)
    g = sum((y ** d * rational(rng, 4) for d in range(rng.randint(2, 5))),
            Poly.zero(2))
    f = PolyMap([Poly.variable(2, 1) + g, y])
    if rng.random() < 0.4:
        a = random_invertible(rng)
        f = conjugate(a.inverse(), f, a)
    return f


def random_planar_map(rng):
    """One of the generators, maybe swapped, maybe perturbed by one term."""
    kinds = [conjugated_rank_one, triangular]
    pick = rng.random()
    if pick < 0.45:
        f = rng.choice(kinds)(rng)
    elif pick < 0.8:
        f = rng.choice(kinds)(rng).compose(rng.choice(kinds)(rng))
    else:
        f = PolyMap(Poly.variable(2, k) + Poly(2, {
            (i, rng.randint(0, 3 - i)): rational(rng, 4)
            for i in rng.sample(range(4), 2)}) for k in (1, 2))
    if rng.random() < 0.3:
        f = conjugate(SWAP, f, SWAP)
    if rng.random() < 0.25:
        i, k = rng.randint(0, 3), rng.randint(0, 1)
        bump = Poly(2, {(i, rng.randint(0, 3 - i)): rational(rng, 4)})
        f = PolyMap(c + bump if j == k else c
                    for j, c in enumerate(f.components))
    return f


def test_normal_form_property_on_generated_maps():
    """Each map gets a normal form that rebuilds it, or the ValueError of
    an input check; an AssertionError would mean that det Df = 1 did not
    force the shape that the case analysis assumes."""
    rng = random.Random(13)
    tags, errors = set(), set()
    for _ in range(300):
        f = random_planar_map(rng)
        try:
            nf = planar_normal_form(f)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(INPUT_ERRORS), message
            errors.add(next(m for m in INPUT_ERRORS
                            if message.startswith(m)))
            continue
        assert nf.reconstruct() == f
        check = keller_check(nf.normal_map())
        assert check.is_keller and check.constant_value == 1
        tags.add((nf.case_tag, nf.swapped))
    assert {tag for tag, _ in tags} == {CASE_ACTIVE_BASE, CASE_SCALED,
                                        CASE_SHEAR}
    assert any(swapped for _, swapped in tags)
    assert errors == set(INPUT_ERRORS[1:])


def _recursive_normal_form(f_tilde):
    """The normal form as it was: a map whose first top part W is zero was
    solved by calling itself on the map conjugated by the swap."""
    if f_tilde.n != 2:
        raise ValueError("normal form is defined for two-variable maps")
    degree = f_tilde.degree()
    if degree <= 1:
        if not f_tilde.is_identity():
            raise ValueError("degree-1 input must be the identity map")
        result = PlanarNormalForm(
            a=RatMatrix.identity(2), alpha_top=0,
            base=RankOneSpec((1, -1), ()), case_tag=CASE_ACTIVE_BASE,
            m=1, degenerate=True)
        factor._verify_normal_form(result, f_tilde)
        return result
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
    base_alphas = tuple(base_zshift.coeffs[0])
    base = RankOneSpec((1, -1),
                       base_alphas + (0,) * (m - 1 - len(base_alphas)))
    if top_w.is_zero():
        inner = _recursive_normal_form(conjugate(SWAP, f_tilde, SWAP))
        result = PlanarNormalForm(
            a=SWAP @ inner.a @ SWAP, alpha_top=-inner.alpha_top,
            base=RankOneSpec(inner.base.gamma,
                             tuple(-a for a in inner.base.alphas)),
            case_tag=inner.case_tag, m=inner.m, swapped=True,
            degenerate=inner.degenerate)
        factor._verify_normal_form(result, f_tilde)
        return result
    lead_mono, lead_coeff = top_w.leading()
    ratio = top_small.coefficient(lead_mono) / lead_coeff
    beta0 = top_w.coefficient((0, degree))
    if any(a != 0 for a in base.alphas):
        result = PlanarNormalForm(RatMatrix.identity(2), beta0, base,
                                  CASE_ACTIVE_BASE, m)
    elif ratio != 0:
        result = PlanarNormalForm(RatMatrix([[-ratio, 0], [0, 1]]),
                                  -ratio * beta0, base, CASE_SCALED, m)
    else:
        result = PlanarNormalForm(RatMatrix([[1, 0], [-1, 1]]), beta0,
                                  base, CASE_SHEAR, m)
    factor._verify_normal_form(result, f_tilde)
    return result


def _normal_form_outcome(normal_form, f):
    try:
        return normal_form(f)
    except (ValueError, AssertionError) as exc:
        return type(exc), str(exc)


def test_matches_the_recursive_oracle():
    """The one-pass normal form gives the recursive one's fields, or its
    exception type and message, on generated maps, swapped ones among
    them."""
    rng = random.Random(19)
    swapped = 0
    for _ in range(2000):
        f = random_planar_map(rng)
        want = _normal_form_outcome(_recursive_normal_form, f)
        assert _normal_form_outcome(planar_normal_form, f) == want, f
        swapped += isinstance(want, PlanarNormalForm) and want.swapped
    assert swapped >= 10


def test_swapped_map_is_read_in_one_pass(monkeypatch):
    """A map with W = 0 runs each input check once, without calling
    itself: conjugate only rebuilds the normal form for the check."""
    calls = Counter()
    for name in ("keller_check", "zshift_from_map", "conjugate",
                 "planar_normal_form"):
        def counted(*args, _real=getattr(factor, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(factor, name, counted)
    nf = factor.planar_normal_form(parse_map(["x", "y + 2*x^3"]))
    assert nf.swapped
    assert calls == {"keller_check": 2, "zshift_from_map": 1,
                     "conjugate": 1, "planar_normal_form": 1}
