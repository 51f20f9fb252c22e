"""Single-coefficient closed forms: the two terminating series branches, the
companion form for alpha >= beta >= -1/2, and the symmetric-case product
formula."""

import random
from fractions import Fraction

import pytest

from jacobilin import (
    SingularSeriesError,
    dougall_coefficient,
    gasper_boundary,
    linearize_jacobi,
    make_params,
)
from jacobilin.hypergeom import HypTermSum, rahman_coefficient, rahman_special

from conftest import GRID_DELTA_INTERIOR, rand_alpha_beta

F = Fraction


class TestTermSum:
    def test_terminating_binomial_sum(self):
        # 2F1(-3, 1; 1; 1) summed termwise is (1-1)^3 expanded: 1-3+3-1 = 0.
        series = HypTermSum(q=1, nums=(-3, 1), dens=(1,), term_count=3)
        assert series.evaluate() == 0

    def test_single_term(self):
        series = HypTermSum(q=1, nums=(5,), dens=(), term_count=0)
        assert series.evaluate() == 1

    def test_denominator_vanishing_raises(self):
        series = HypTermSum(q=1, nums=(-4, 2), dens=(-2,), term_count=4)
        with pytest.raises(SingularSeriesError):
            series.evaluate()

    def test_numerator_zero_stops_cleanly(self):
        # Termination parameter kills the series before the bad denominator
        # index is ever reached: parameters -1 and 3 over -3/2, at q = 2.
        series = HypTermSum(q=2, nums=(-2, 6), dens=(-3,), term_count=1)
        assert series.evaluate() == 1 + F(-1) * 3 / (1 * F(-3, 2))

    def test_zero_term_stops_before_a_later_singular_denominator(self):
        # 1 + (-1)/(-2); the next term is zero, and (-2)_3 = 0 is never reached.
        series = HypTermSum(q=1, nums=(-1,), dens=(-2,), term_count=3)
        assert series.evaluate() == F(3, 2)

    def test_denominator_checked_before_numerator_at_the_same_term(self):
        # At r = 2 both the numerator and the denominator (-1)_2 vanish:
        # singular, not a clean stop.
        series = HypTermSum(q=1, nums=(-1,), dens=(-1,), term_count=3)
        with pytest.raises(SingularSeriesError, match="boundary limit required"):
            series.evaluate()

    def test_no_term_past_the_first_is_looked_at(self):
        # (0)_1 = 0 would be singular at r = 1, which term_count 0 never reaches.
        series = HypTermSum(q=1, nums=(5,), dens=(0,), term_count=0)
        assert series.evaluate() == 1

    def test_matches_reference_on_seeded_series(self, recorded):
        # 5000 seeded series, each over three multiples of its lcm, as
        # recorded while they equalled the loop of one `Fraction` product per
        # parameter that the sum was (`make_outcome_digests.term_sum_lines`);
        # a singular sum is its exception.  The seeds must keep both kinds.
        lines = recorded()
        singular = sum(line.startswith("(raises") for line in lines[::3])
        assert 1000 < singular < 4000


def _tall_points(count: int) -> list[tuple[Fraction, Fraction]]:
    """Seeded points with alpha > beta > -1/2, in both 9F8 domains, whose
    alpha and beta have their own 80-bit denominators."""
    rng = random.Random(8080)
    points = []
    while len(points) < count:
        alpha, beta = (F(rng.randrange(-den // 2 + 1, 3 * den), den)
                       for den in (rng.getrandbits(80) | 1 << 79 for _ in range(2)))
        if alpha > beta:
            points.append((alpha, beta))
    return points


class TestTallPoints:
    """The closed forms on integers over the point's lcm equal the Gasper
    vector where that lcm is tall."""

    @pytest.mark.parametrize("form", [rahman_coefficient, rahman_special])
    def test_9f8_forms_match_expansion(self, form):
        checked = singular = 0
        for point in _tall_points(3):
            p = make_params(*point)
            for m in range(1, 5):
                for s in range(4):
                    cv = linearize_jacobi(p, m, m + s)
                    for j in range(2 * m + 1):
                        try:
                            got = form(p, m, s, j)
                        except SingularSeriesError:
                            singular += 1
                            continue
                        assert got == cv[s + j], (point, m, s, j)
                        checked += 1
        assert (checked, singular) == (3 * 4 * (3 + 5 + 7 + 9), 0)

    def test_dougall_matches_expansion(self):
        alpha = _tall_points(1)[0][0]
        p = make_params(alpha, alpha)
        for m, n in [(0, 3), (1, 1), (2, 5), (4, 4), (3, 7)]:
            assert dougall_coefficient(alpha, m, n).values == linearize_jacobi(p, m, n).values


class TestRahmanBranches:
    def test_frozen_values(self):
        p = make_params(1, 0)
        assert rahman_coefficient(p, 1, 0, 1) == F(1, 5)
        assert rahman_coefficient(p, 2, 0, 2) == F(8, 35)

    def test_matches_linearize_sample(self):
        p = make_params(F(1, 2), F(1, 4))
        cv = linearize_jacobi(p, 3, 4)
        assert rahman_coefficient(p, 3, 1, 4) == cv[1 + 4]

    @pytest.mark.parametrize("point", GRID_DELTA_INTERIOR)
    def test_both_branches_against_expansion(self, point):
        p = make_params(*point)
        for m, s in [(1, 0), (2, 1), (3, 0), (3, 2)]:
            cv = linearize_jacobi(p, m, m + s)
            for j in range(2 * m + 1):
                assert rahman_coefficient(p, m, s, j) == cv[s + j]

    @pytest.mark.parametrize("point", GRID_DELTA_INTERIOR)
    def test_strictly_positive_inside_quadrant(self, point):
        p = make_params(*point)
        for j in range(7):
            assert rahman_coefficient(p, 3, 1, j) > 0

    def test_outside_open_region_rejected(self):
        p = make_params(F(-1, 2), 0)
        with pytest.raises(ValueError, match="outside the open region"):
            rahman_coefficient(p, 2, 0, 1)

    def test_boundary_rejected_with_guidance(self):
        # b = 0 with a = 2 > 0, and a = 0 with b = 1/2 > 0.
        for point in [(F(1, 2), F(1, 2)), (F(-1, 4), F(-3, 4))]:
            p = make_params(*point)
            with pytest.raises(ValueError, match="linearize_jacobi"):
                rahman_coefficient(p, 2, 0, 1)

    def test_removable_singularity_raises_instead_of_truncating(self):
        # alpha = 0 zeroes a denominator parameter of the even branch before
        # termination; a silent break there would return a wrong partial sum.
        p = make_params(0, F(-1, 4))
        with pytest.raises(SingularSeriesError):
            rahman_coefficient(p, 2, 0, 2)
        cv = linearize_jacobi(p, 2, 2)
        assert cv[2] > 0

    def test_odd_branch_fine_at_alpha_zero(self):
        p = make_params(0, F(-1, 4))
        cv = linearize_jacobi(p, 2, 2)
        for j in (1, 3):
            assert rahman_coefficient(p, 2, 0, j) == cv[j]


def _companion_closed_domain():
    """The corner, points on the lines beta = -1/2 and alpha = beta, and
    seeded interior points of alpha > beta > -1/2."""
    rng = random.Random(10)
    interior = []
    while len(interior) < 4:
        alpha, beta = rand_alpha_beta(rng, F(-1, 2), F(3))
        if alpha > beta:
            interior.append((alpha, beta))
    return [
        (F(-1, 2), F(-1, 2)),
        (F(0), F(-1, 2)), (F(1, 3), F(-1, 2)), (F(2), F(-1, 2)),
        (F(-1, 4), F(-1, 4)), (F(0), F(0)), (F(3, 2), F(3, 2)),
        *interior,
    ]


class TestCompanionForm:
    def test_frozen_value(self):
        assert rahman_special(make_params(1, 0), 1, 0, 1) == F(1, 5)

    def test_base_entry_matches_boundary_closed_form(self):
        p = make_params(1, 0)
        assert rahman_special(p, 2, 1, 0) == gasper_boundary(p, 2, 1)[0]

    @pytest.mark.parametrize("point", GRID_DELTA_INTERIOR)
    def test_matches_expansion_inside_quadrant(self, point):
        p = make_params(*point)
        for m, s in [(1, 0), (2, 0), (2, 2), (3, 1)]:
            cv = linearize_jacobi(p, m, m + s)
            for j in range(2 * m + 1):
                assert rahman_special(p, m, s, j) == cv[s + j]

    def test_parameter_order_enforced(self):
        with pytest.raises(ValueError, match="alpha >= beta"):
            rahman_special(make_params(0, F(1, 2)), 1, 0, 1)
        with pytest.raises(ValueError, match="alpha >= beta"):
            rahman_special(make_params(F(1, 4), F(-3, 4)), 1, 0, 1)

    @pytest.mark.parametrize("point", _companion_closed_domain())
    def test_closed_domain_value_or_singular(self, point):
        p = make_params(*point)
        for m in range(1, 5):
            for s in range(4):
                cv = linearize_jacobi(p, m, m + s)
                for j in range(2 * m + 1):
                    try:
                        got = rahman_special(p, m, s, j)
                    except SingularSeriesError:
                        continue
                    assert got == cv[s + j], (m, s, j)

    def test_corner_is_singular_and_names_a_zero(self):
        p = make_params(F(-1, 2), F(-1, 2))
        for m, s, j in [(1, 0, 0), (1, 0, 1), (2, 1, 2), (4, 3, 8)]:
            with pytest.raises(SingularSeriesError, match="a = 0"):
                rahman_special(p, m, s, j)

    def test_symmetric_line_even_entries_need_limits(self):
        p = make_params(F(1, 2), F(1, 2))
        for j in (2, 4):
            with pytest.raises(SingularSeriesError):
                rahman_special(p, 2, 0, j)

    def test_symmetric_line_defined_entries(self):
        p = make_params(F(1, 2), F(1, 2))
        cv = linearize_jacobi(p, 2, 2)
        assert rahman_special(p, 2, 0, 0) == cv[0]
        assert rahman_special(p, 2, 0, 1) == 0 == cv[1]
        assert rahman_special(p, 2, 0, 3) == 0 == cv[3]


class TestSymmetricProductFormula:
    def test_legendre_frozen(self):
        cv = dougall_coefficient(0, 1, 1)
        assert cv[0] == F(1, 3) and cv[2] == F(2, 3)

    def test_matches_linearize(self):
        for alpha in (F(-1, 4), F(0), F(1, 2), F(2)):
            p = make_params(alpha, alpha)
            for m, n in [(1, 2), (2, 2), (3, 5)]:
                dv = dougall_coefficient(alpha, m, n)
                assert dv.values == linearize_jacobi(p, m, n).values

    def test_degree_zero(self):
        assert dougall_coefficient(F(1, 2), 0, 6).values == (F(1),)

    def test_support_entries_positive(self):
        for alpha in (F(-1, 4), F(1, 2), F(2)):
            dv = dougall_coefficient(alpha, 2, 3)
            for k, v in dv.items():
                if (2 + 3 - k) % 2 == 0:
                    assert v > 0
                else:
                    assert v == 0

    def test_domain_edge_rejected(self):
        with pytest.raises(ValueError):
            dougall_coefficient(F(-1, 2), 1, 1)


class TestClosedFormExactness:
    """Each closed form gives its recorded outcome, the value or the
    exception type and message, for m 0..6, s -1..4 and j -1..2m+1, in and
    out of every domain (`make_outcome_digests.closed_form_lines`).  The
    record was written while the factor tables equalled the chains of one
    `Fraction` per factor that they replaced."""

    def test_matches_reference(self, recorded):
        recorded()
