"""Parameter validation, the (a, b) change of variables, and exact region
classification."""

import random
from fractions import Fraction
from math import floor, isqrt

import pytest

from jacobilin import (
    RegionLabel,
    classify_region,
    linearize_jacobi,
    make_params,
    plus_params,
)

from conftest import (
    GRID,
    GRID_B_NEGATIVE,
    GRID_DELTA_INTERIOR,
    GRID_SYMMETRIC_BOUNDARY,
    GRID_V_INTERIOR_NOT_DELTA,
    GRID_VPRIME_NOT_V,
    POINT_BELOW_THRESHOLD,
    rand_alpha_beta,
    rand_fraction,
)

F = Fraction


class TestMakeParams:
    def test_reparametrization_values(self):
        p = make_params(0, 0)
        assert (p.a, p.b) == (1, 0)
        p = make_params(F(-1, 2), F(-1, 2))
        assert (p.a, p.b) == (0, 0)
        p = make_params(F(-33, 100), F(-87, 100))
        assert (p.a, p.b) == (F(-1, 5), F(27, 50))

    def test_boundary_rejected(self):
        with pytest.raises(ValueError):
            make_params(-1, 0)
        with pytest.raises(ValueError):
            make_params(0, F(-7, 7))

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            make_params(0.25, 0)

    def test_text_accepted(self):
        p = make_params("-33/100", "-87/100")
        assert p.alpha == F(-33, 100)

    def test_derived_bounds(self):
        rng = random.Random(4401)
        for _ in range(200):
            alpha, beta = rand_alpha_beta(rng)
            p = make_params(alpha, beta)
            assert p.a > -1
            assert -1 - p.a < p.b < 1 + p.a

    def test_plus_and_swap(self):
        p = make_params(F(1, 3), F(-1, 4))
        assert plus_params(p).beta == F(3, 4)
        assert plus_params(p).alpha == p.alpha
        q = make_params(p.beta, p.alpha)
        assert (q.alpha, q.beta) == (p.beta, p.alpha)
        assert q.b == -p.b

    def test_points_equal_on_alpha_beta(self):
        p, q = make_params(F(1, 3), F(-1, 4)), make_params("1/3", "-1/4")
        assert p == q and hash(p) == hash(q)
        assert p != make_params(F(1, 3), F(-1, 5))
        # The companion point is cached: one object per point.
        assert plus_params(p) is plus_params(q)
        assert plus_params(p) == make_params(p.alpha, p.beta + 1)


class TestClassifyExamples:
    def test_legendre_point(self):
        rep = classify_region(make_params(0, 0))
        assert rep.in_delta and rep.in_v and rep.in_vprime
        assert not rep.in_v_interior
        assert rep.label is RegionLabel.DELTA_BOUNDARY_IN_V

    def test_between_regions(self):
        rep = classify_region(make_params(F(-33, 100), F(-87, 100)))
        assert not rep.in_delta and not rep.in_v and rep.in_vprime
        assert rep.label.value == "V′\\V"

    def test_negative_b(self):
        rep = classify_region(make_params(F(-1, 2), 0))
        assert not rep.in_vprime
        assert rep.label.value == "outside V′"


LABELED_POINTS = (
    [(pt, "Δ°") for pt in GRID_DELTA_INTERIOR]
    + [(pt, "V°\\Δ") for pt in GRID_V_INTERIOR_NOT_DELTA]
    + [(pt, "∂Δ∩V") for pt in GRID_SYMMETRIC_BOUNDARY]
    + [(pt, "V′\\V") for pt in GRID_VPRIME_NOT_V]
    + [(pt, "outside V′") for pt in GRID_B_NEGATIVE]
    + [(POINT_BELOW_THRESHOLD, "outside V′")]
)


@pytest.mark.parametrize("point,expected", LABELED_POINTS)
def test_grid_labels(point, expected):
    rep = classify_region(make_params(*point))
    assert rep.label.value == expected


@pytest.mark.parametrize("point", GRID)
def test_inclusion_chain_on_grid(point):
    rep = classify_region(make_params(*point))
    if rep.in_delta_interior:
        assert rep.in_delta
    if rep.in_delta:
        assert rep.in_v
    if rep.in_v_interior:
        assert rep.in_v
    if rep.in_v:
        assert rep.in_vprime


def test_inclusion_chain_random():
    rng = random.Random(88)
    for _ in range(300):
        rep = classify_region(make_params(*rand_alpha_beta(rng)))
        assert (not rep.in_delta) or rep.in_v
        assert (not rep.in_v) or rep.in_vprime
        assert (not rep.in_v_interior) or rep.in_v
        assert (not rep.in_delta_interior) or rep.in_delta


def test_vprime_needs_alpha_at_least_minus_half():
    rng = random.Random(515)
    found_outside = 0
    for _ in range(300):
        alpha = rand_alpha_beta(rng, F(-99, 100), F(-51, 100))[0]
        beta = rand_alpha_beta(rng, F(-99, 100), F(2))[0]
        rep = classify_region(make_params(alpha, beta))
        assert not rep.in_vprime
        found_outside += 1
    assert found_outside == 300


def test_between_region_bounds():
    # Strictly between the two nonnegativity regions (and off the quadrant):
    # a is confined to (-1/3, 0) and b to (-a, 1+a).
    for point in GRID_VPRIME_NOT_V:
        p = make_params(*point)
        assert F(-1, 3) < p.a < 0
        assert -p.a < p.b < 1 + p.a
    rng = random.Random(6003)
    checked = 0
    for _ in range(4000):
        alpha, beta = rand_alpha_beta(rng, F(-99, 100), F(1, 4))
        p = make_params(alpha, beta)
        rep = classify_region(p)
        if rep.in_vprime and not rep.in_delta:
            checked += 1
            assert F(-1, 3) < p.a < 0
            assert -p.a < p.b < 1 + p.a
    assert checked > 20


def test_threshold_flags():
    for point in GRID:
        rep = classify_region(make_params(*point))
        assert not rep.on_iota_threshold
        if point == POINT_BELOW_THRESHOLD:
            assert not rep.above_iota_threshold
        else:
            assert rep.above_iota_threshold


def _point_ab(a, b):
    """The (alpha, beta) of the point with a = alpha + beta + 1, b = alpha - beta."""
    return (a + b - 1) / 2, (a - b - 1) / 2


def _region_points():
    """The grid, 100 seeded points of the whole plane and 100 of the strip
    -1/3 < a < 0, 0 < b < 1 + a, where V, V' and the threshold meet."""
    rng = random.Random(20261019)
    points = list(GRID) + [rand_alpha_beta(rng) for _ in range(100)]
    for _ in range(100):
        a = rand_fraction(rng, F(-1, 3), 0)
        points.append(_point_ab(a, rand_fraction(rng, 0, 1 + a)))
    return points


REGION_POINTS = _region_points()


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def test_region_polynomials_are_coefficients():
    # The V test is the sign of g(2,2;2): its numerator over the positive
    # (a+3)(a+5)(a+6)(a+b+1)(a+b+3) is 4 (lhs - rhs).  b is the sign of g(1,1;1).
    for point in REGION_POINTS:
        p = make_params(*point)
        a, b = p.a, p.b
        lhs = (a * a + 2 * b * b + 3 * a) * (a + 3) * (a + 5)
        rhs = 3 * (a + 1) * (a + 2) * b * b
        cleared = (a + 3) * (a + 5) * (a + 6) * (a + b + 1) * (a + b + 3)
        assert linearize_jacobi(p, 2, 2)[2] * cleared == 4 * (lhs - rhs), point
        assert _sign(linearize_jacobi(p, 1, 1)[1]) == _sign(b), point


def test_v_is_the_sign_of_the_coefficients():
    for point in REGION_POINTS:
        p = make_params(*point)
        g111, g222 = linearize_jacobi(p, 1, 1)[1], linearize_jacobi(p, 2, 2)[2]
        rep = classify_region(p)
        assert rep.in_v == (g111 >= 0 and g222 >= 0), point
        assert rep.in_v_interior == (g111 > 0 and g222 > 0), point


def test_label_on_the_boundary_of_v():
    # lhs = rhs exactly at this rational point, so g(2,2;2) = 0.
    p = make_params(F(-346, 1057), F(-1333, 1661))
    rep = classify_region(p)
    assert linearize_jacobi(p, 2, 2)[2] == 0
    assert rep.in_v and not rep.in_v_interior and rep.in_vprime
    assert rep.label is RegionLabel.V_BOUNDARY


def _straddle(b_squared):
    """Rational b just below and just above sqrt(b_squared), each within 1/100."""
    root = F(isqrt(floor(b_squared * 10**6)), 1000)  # root <= sqrt < root + 1/1000
    return root - F(1, 200), root + F(1, 200)


def _dv_b_squared(a):
    # lhs = rhs solved for b^2: (a^2 + 3a)(a+3)(a+5) + b^2 (24 + 7a - a^2) = 0.
    return -a * (a + 3) ** 2 * (a + 5) / (24 + 7 * a - a * a)


def _dvprime_b_squared(a):
    return -(a * a + 3 * a) / 2


NEAR_BOUNDARY_A = [F(-3, 10), F(-1, 5), F(-1, 10), F(-1, 50)]


def _label(a, b) -> RegionLabel:
    return classify_region(make_params(*_point_ab(a, b))).label


@pytest.mark.parametrize("a", NEAR_BOUNDARY_A)
def test_labels_across_the_boundary_of_v(a):
    below, above = _straddle(_dv_b_squared(a))
    assert _label(a, below) is RegionLabel.VPRIME_ONLY
    assert _label(a, above) is RegionLabel.V_INTERIOR_OFF_DELTA


@pytest.mark.parametrize("a", NEAR_BOUNDARY_A)
def test_labels_across_the_boundary_of_vprime(a):
    below, above = _straddle(_dvprime_b_squared(a))
    assert _label(a, below) is RegionLabel.OUTSIDE_VPRIME
    assert _label(a, above) is RegionLabel.VPRIME_ONLY


@pytest.mark.parametrize(
    "a, above",
    # The threshold 4a^2 + 11a + 3 = 0 is at a = (-11 + sqrt 73) / 8 = -0.306999...
    [(F(-31, 100), False), (F(-307, 1000), False), (F(-3069, 10000), True), (F(-3, 10), True)],
)
def test_flags_across_the_iota_threshold(a, above):
    for b in (F(1, 2), F(3, 5)):
        rep = classify_region(make_params(*_point_ab(a, b)))
        assert rep.above_iota_threshold is above
        assert not rep.on_iota_threshold


def test_labels_on_the_boundary_of_delta():
    # a = 0 with b > 0, and b = 0 with a > 0: in V, not in the interior of Delta.
    for a, b in ((F(0), F(1, 2)), (F(0), F(1, 100)), (F(1, 100), F(0)), (F(2), F(0))):
        rep = classify_region(make_params(*_point_ab(a, b)))
        assert rep.in_delta and not rep.in_delta_interior
        assert rep.label is RegionLabel.DELTA_BOUNDARY_IN_V
