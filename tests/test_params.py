"""Parameter validation, the (a, b) change of variables, and exact region
classification."""

import random
from fractions import Fraction

import pytest

from jacobilin import (
    RegionLabel,
    classify_region,
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
