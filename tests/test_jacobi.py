"""The plain polynomial family: recurrence, evaluation, three-point recursion
coefficients, closed-form boundary entries, and the full product expansions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jacobilin.jacobi as jacobi_module
from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    RationalPolynomial,
    gasper_boundary,
    gencheb_eval,
    gencheb_rec_coeffs,
    jacobi_eval,
    jacobi_rec_coeffs,
    linearize_bruteforce,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    plus_params,
    theta_iota_kappa,
)

from conftest import GRID, GRID_WIDE, rand_alpha_beta
from kernel_reference import (
    outcome,
    ref_gasper_boundary,
    ref_linearize_jacobi,
    ref_theta_iota_kappa,
)
from make_outcome_digests import (
    BOUNDARY_POINTS,
    KERNEL_POINTS,
    bruteforce_lines,
    check_recorded,
    kernel_lines,
)

F = Fraction


class TestRecurrenceCoeffs:
    def test_frozen_triples(self):
        rc = jacobi_rec_coeffs(make_params(1, 0), 1)
        assert (rc.a_n, rc.b_n, rc.c_n) == (F(27, 40), F(1, 5), F(1, 8))
        rc = jacobi_rec_coeffs(make_params(0, 0), 1)
        assert (rc.a_n, rc.b_n, rc.c_n) == (F(2, 3), 0, F(1, 3))
        rc = jacobi_rec_coeffs(make_params(F(-1, 2), F(-1, 2)), 2)
        assert (rc.a_n, rc.b_n, rc.c_n) == (F(1, 2), 0, F(1, 2))

    def test_degree_zero(self):
        rc = jacobi_rec_coeffs(make_params(1, 0), 0)
        assert rc.c_n is None
        assert rc.a_n == F(4, 3) and rc.b_n == F(-1, 3)

    def test_rows_carry_their_index(self):
        p = make_params(F(-1, 3), F(2, 5))
        assert [jacobi_rec_coeffs(p, n).n for n in range(4)] == [0, 1, 2, 3]

    def test_sum_is_one_random(self):
        rng = random.Random(2207)
        for _ in range(40):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 12)
            rc = jacobi_rec_coeffs(p, n)
            assert rc.a_n + rc.b_n + rc.c_n == 1

    def test_symmetric_line_kills_middle(self):
        p = make_params(F(3, 4), F(3, 4))
        for n in range(1, 8):
            assert jacobi_rec_coeffs(p, n).b_n == 0

    @pytest.mark.parametrize("n", [0, 3])
    def test_row_cross_checked(self, n):
        # A point whose (a, b) do not match (alpha, beta) makes the two
        # parametrizations disagree.  The constructor derives (a, b), so the
        # mismatch is forced before the integer form is first read.
        bad = make_params(F(1, 2), F(1, 4))
        object.__setattr__(bad, "a", F(2))
        object.__setattr__(bad, "b", F(0))
        with pytest.raises(RuntimeError, match=rf"jacobi-recurrence.*n={n}"):
            jacobi_rec_coeffs(bad, n)


class TestEvaluation:
    @pytest.mark.parametrize("point", GRID[::4])
    def test_normalized_at_one(self, point):
        p = make_params(*point)
        for n in range(9):
            assert jacobi_eval(p, n, 1) == 1

    def test_frozen_values(self):
        assert jacobi_eval(make_params(1, 0), 1, 0) == F(1, 4)
        assert jacobi_eval(make_params(0, 0), 2, 0) == F(-1, 2)

    def test_product_recurrence_identity(self):
        rng = random.Random(615)
        for _ in range(15):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 7)
            x = F(rng.randint(-8, 8), rng.randint(1, 9))
            rc = jacobi_rec_coeffs(p, n)
            lhs = jacobi_eval(p, 1, x) * jacobi_eval(p, n, x)
            rhs = (
                rc.a_n * jacobi_eval(p, n + 1, x)
                + rc.b_n * jacobi_eval(p, n, x)
                + rc.c_n * jacobi_eval(p, n - 1, x)
            )
            assert lhs == rhs


class TestWalker:
    """The one recurrence walker gives the same P_n on values and on
    polynomials: the oracle's monomial basis, evaluated at x, equals the
    rational-point evaluation of each family.  The jacobi_plus case is the
    companion family: jacobi walked at plus_params(p)."""

    @pytest.mark.parametrize("point", GRID[::3] + BOUNDARY_POINTS)
    @pytest.mark.parametrize("family", ["jacobi", "jacobi_plus", "gencheb"])
    def test_basis_polynomials_match_evaluation(self, point, family):
        p = make_params(*point)
        q, walked, evaluate = {
            "jacobi": (p, FAMILY_JACOBI, jacobi_eval),
            "jacobi_plus": (plus_params(p), FAMILY_JACOBI, jacobi_eval),
            "gencheb": (p, FAMILY_GENCHEB, gencheb_eval),
        }[family]
        linearize_bruteforce(q, 0, 8, walked)
        basis = jacobi_module._monomial_basis(q, walked)
        for n in range(9):
            for x in (F(-3, 5), F(1, 3), F(7, 4)):
                assert basis[n](x) == evaluate(q, n, x)

    def test_extends_in_place_from_any_length(self):
        p = make_params(F(1, 2), F(1, 4))
        grown = jacobi_module.walk_recurrence(p, FAMILY_JACOBI, F(2, 9), [F(1)], 3)
        again = jacobi_module.walk_recurrence(p, FAMILY_JACOBI, F(2, 9), grown[:2], 6)
        assert again[:4] == grown and len(again) == 7
        assert again[6] == jacobi_eval(p, 6, F(2, 9))


class TestRecursionCoefficients:
    def test_theta_positive_in_interior_range(self):
        rng = random.Random(3310)
        for _ in range(20):
            p = make_params(*rand_alpha_beta(rng))
            m = rng.randint(2, 5)
            s = rng.randint(0, 3)
            for j in range(1, 2 * m - 1):
                theta, _, _ = theta_iota_kappa(p, m, s, j)
                assert theta > 0

    def test_kappa_positive_from_two(self):
        rng = random.Random(3311)
        for _ in range(20):
            p = make_params(*rand_alpha_beta(rng))
            m = rng.randint(2, 5)
            s = rng.randint(0, 3)
            for j in range(2, 2 * m):
                _, _, kappa = theta_iota_kappa(p, m, s, j)
                assert kappa > 0

    def test_kappa_vanishes_at_one_when_a_zero(self):
        # kappa carries a factor (j + a - 1), so kappa(1) = 0 on the line
        # a = 0; at s = 0 this is a removable 0/0 handled by a special case.
        p = make_params(F(-1, 2), F(-1, 2))
        assert p.a == 0
        for s in (0, 1, 2):
            _, _, kappa = theta_iota_kappa(p, 3, s, 1)
            assert kappa == 0
        _, _, kappa = theta_iota_kappa(make_params(1, 0), 3, 0, 1)
        assert kappa > 0

    def test_iota_vanishes_on_symmetric_line(self):
        p = make_params(F(1, 4), F(1, 4))
        for m, s in [(2, 0), (3, 1), (4, 2)]:
            for j in range(1, 2 * m):
                _, iota, _ = theta_iota_kappa(p, m, s, j)
                assert iota == 0
        _, iota, _ = theta_iota_kappa(p, 3, 0, F(5, 2))
        assert iota == 0

    def test_rational_index_accepted(self):
        p = make_params(1, 0)
        theta, _, _ = theta_iota_kappa(p, 2, 1, F(3, 2))
        assert theta != 0


class TestGasperBoundary:
    def test_degree_one_closed_forms(self):
        lo, lo1, hi1, hi = gasper_boundary(make_params(1, 0), 1, 0)
        assert (lo, lo1, hi1, hi) == (F(1, 8), F(1, 5), F(1, 5), F(27, 40))

    def test_symmetric_line_zeros(self):
        lo, lo1, hi1, hi = gasper_boundary(make_params(F(1, 2), F(1, 2)), 2, 1)
        assert lo1 == 0 and hi1 == 0
        assert lo > 0 and hi > 0

    def test_matches_bruteforce_support_ends(self):
        p = make_params(1, 0)
        lo, lo1, hi1, hi = gasper_boundary(p, 2, 1)
        cv = linearize_bruteforce(p, 2, 3, FAMILY_JACOBI)
        assert lo == cv[1]
        assert lo1 == cv[2]
        assert hi1 == cv[4]
        assert hi == cv[5]


class TestLinearize:
    def test_frozen_vectors(self):
        cv = linearize_jacobi(make_params(1, 0), 1, 1)
        assert cv.values == (F(1, 8), F(1, 5), F(27, 40))
        cv = linearize_jacobi(make_params(1, 0), 2, 2)
        assert cv.values[2] == F(8, 35)
        cv = linearize_jacobi(make_params(F(-1, 2), 0), 1, 1)
        assert cv.values[1] == F(-4, 7)

    def test_chebyshev_halves(self):
        cv = linearize_jacobi(make_params(F(-1, 2), F(-1, 2)), 1, 2)
        assert cv[1] == F(1, 2) and cv[3] == F(1, 2) and cv[2] == 0

    def test_degree_zero_factor(self):
        cv = linearize_jacobi(make_params(2, F(1, 2)), 0, 5)
        assert cv.values == (F(1),)
        assert cv.k_min == cv.k_max == 5

    def test_support_window_and_indexing(self):
        cv = linearize_jacobi(make_params(1, 0), 2, 3)
        assert cv.k_min == 1 and cv.k_max == 5
        assert len(cv.values) == 2 * 2 + 1
        assert cv[1] == cv.values[0]
        assert cv[5] == cv.values[-1]
        with pytest.raises(IndexError):
            cv[0]
        with pytest.raises(IndexError):
            cv[6]
        assert list(cv.items())[0] == (1, cv.values[0])

    def test_row_sums_and_endpoints(self):
        rng = random.Random(5150)
        for _ in range(20):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(0, 6)
            m = rng.randint(0, n)
            cv = linearize_jacobi(p, m, n)
            assert sum(cv.values) == 1
            assert cv.values[0] > 0 and cv.values[-1] > 0

    def test_argument_order_irrelevant(self):
        p = make_params(F(1, 2), F(1, 4))
        assert linearize_jacobi(p, 2, 4).values == linearize_jacobi(p, 4, 2).values

    def test_matches_bruteforce_sample(self):
        rng = random.Random(777)
        for _ in range(6):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 5)
            m = rng.randint(1, n)
            assert (
                linearize_jacobi(p, m, n).values
                == linearize_bruteforce(p, m, n, FAMILY_JACOBI).values
            )

    @pytest.mark.parametrize("family", [FAMILY_JACOBI, FAMILY_GENCHEB])
    @pytest.mark.parametrize("m, n", [(3, 1), (4, 2), (2, 0)])
    def test_bruteforce_argument_order_irrelevant(self, family, m, n):
        # (m, n) with m > n gives the vector of (n, m), smaller degree first.
        p = make_params(1, 0)
        assert linearize_bruteforce(p, m, n, family) == linearize_bruteforce(p, n, m, family)

    def test_plus_family_is_shifted_parameters(self):
        pp = plus_params(make_params(F(1, 4), F(-1, 4)))
        assert (pp.alpha, pp.beta) == (F(1, 4), F(3, 4))
        assert linearize_jacobi(pp, 2, 3).values == linearize_bruteforce(pp, 2, 3).values

    @pytest.mark.parametrize("family", [FAMILY_JACOBI, FAMILY_GENCHEB])
    def test_bruteforce_orthogonality_check_fires(self, family):
        # A perturbed recurrence row would still give an orthogonal family
        # (Favard), so the cached basis polynomial itself is perturbed.
        p = make_params(F(1, 2), F(1, 4))
        basis = jacobi_module._monomial_basis(p, family)
        try:
            jacobi_module.walk_recurrence(
                p, family, RationalPolynomial.variable(), basis, 4
            )
            basis[3] = basis[3] + F(1, 5)
            with pytest.raises(
                RuntimeError, match=rf"brute/{family}, .*m=1, n=3, k=\d"
            ):
                linearize_bruteforce(p, 1, 3, family)
        finally:
            jacobi_module._monomial_basis.cache_clear()


class TestClosedFormSpots:
    def test_first_product_middle(self):
        rng = random.Random(909)
        for _ in range(25):
            p = make_params(*rand_alpha_beta(rng))
            a, b = p.a, p.b
            assert linearize_jacobi(p, 1, 1)[1] == 4 * b / ((a + 3) * (a + b + 1))

    def test_second_product_middle(self):
        rng = random.Random(910)
        for _ in range(25):
            p = make_params(*rand_alpha_beta(rng))
            a, b = p.a, p.b
            num = 4 * (
                (a * a + 2 * b * b + 3 * a) * (a + 3) * (a + 5)
                - 3 * (a + 1) * (a + 2) * b * b
            )
            den = (a + 3) * (a + 5) * (a + 6) * (a + b + 1) * (a + b + 3)
            assert linearize_jacobi(p, 2, 2)[2] == num / den


class TestReflection:
    def test_oscillation_signs(self):
        # (0, 1) is the reflected point (beta, alpha) of (1, 0), which lies in
        # the nonnegativity region; its coefficients alternate in sign with m+n+k.
        for k, v in linearize_jacobi(make_params(0, 1), 1, 2).items():
            sign = -1 if (1 + 2 + k) % 2 else 1
            assert sign * v >= 0


class TestKernelExactness:
    """The integer-numerator kernel equals the one-Fraction-at-a-time
    reference exactly, and raises the same exception types: on the grid and
    the boundary points through the outcomes recorded while the two agreed
    (`make_outcome_digests.kernel_lines`), and live below."""

    @pytest.mark.parametrize("point", KERNEL_POINTS)
    def test_matches_reference(self, point, request):
        check_recorded(request.node, kernel_lines(point))

    def test_degenerate_kappa_at_one(self):
        p = make_params(F(-1, 4), F(-3, 4))
        assert p.a == 0
        got = theta_iota_kappa(p, 3, 0, 1)
        assert got == ref_theta_iota_kappa(p, 3, 0, 1)
        assert got[2] == 0

    @pytest.mark.parametrize(
        "args, exc",
        [
            ((2, 0, 0), ValueError),
            ((2, 0, 4), ValueError),
            ((2, 0, F(1, 2)), ValueError),
            ((0, 0, 1), ValueError),
            ((2, -1, 1), ValueError),
            ((2, 0, 1.5), TypeError),
            ((2, 0, F(11, 10)), ZeroDivisionError),
        ],
    )
    def test_same_exceptions(self, args, exc):
        # F(11, 10) is a singular rational index at (-1/4, -19/20): there
        # 2s + 2j + a - 2 = 0, a zero denominator of kappa.
        p = make_params(F(-1, 4), F(-19, 20))
        assert outcome(theta_iota_kappa, p, *args) == ("raises", exc)
        assert outcome(ref_theta_iota_kappa, p, *args) == ("raises", exc)

    @pytest.mark.parametrize("m, s", [(0, 0), (1, -1)])
    def test_boundary_rejects_bad_degrees(self, m, s):
        p = make_params(1, 0)
        assert outcome(gasper_boundary, p, m, s) == ("raises", ValueError)
        assert outcome(ref_gasper_boundary, p, m, s) == ("raises", ValueError)


def _tall(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=1000).filter(
        lambda t: lo < t < hi
    )


# Points for the differential test of the recursion step: the scan grid,
# tall denominators, the line a = 0 (drawn with n = m, so that the loop runs
# the kappa = 0 step j = 1, s = 0) and the line b = 0.
STEP_SOURCES = {
    "grid": st.sampled_from(GRID),
    "tall": st.tuples(_tall(-1, 3), _tall(-1, 3)),
    "a = 0": _tall(-1, 0).map(lambda t: (t, -1 - t)),
    "b = 0": _tall(-1, 3).map(lambda t: (t, t)),
}


class TestRecursionStep:
    """Each step of linearize_jacobi, one integer quotient, equals the loop
    over reduced theta, iota and kappa `Fraction`s it replaced."""

    @pytest.mark.parametrize("source", STEP_SOURCES)
    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_reference_loop(self, source, data):
        alpha, beta = data.draw(STEP_SOURCES[source], label="point")
        m = data.draw(st.integers(1, 10), label="m")
        n = m if source == "a = 0" else data.draw(st.integers(m, 10), label="n")
        p = make_params(alpha, beta)
        assert linearize_jacobi.__wrapped__(p, m, n) == ref_linearize_jacobi(p, m, n)

    def test_perturbed_theta_is_caught(self, monkeypatch):
        original = jacobi_module._recursion_numerators

        def perturbed(*args):
            up, down, theta_n, iota_n, kappa_n = original(*args)
            return up, down, theta_n + 1, iota_n, kappa_n

        monkeypatch.setattr(jacobi_module, "_recursion_numerators", perturbed)
        p = make_params(F(1, 2), F(1, 4))
        with pytest.raises(RuntimeError, match="recursion disagrees with the closed form"):
            linearize_jacobi.__wrapped__(p, 3, 5)

    @pytest.mark.parametrize(
        "part, m, s, what, k",
        [
            (1, 1, 0, "extreme closed forms disagree", 1),
            (1, 1, 3, "extreme closed forms disagree", 4),
            (3, 2, 0, "three-point identity fails at the top index", 4),
            (3, 3, 2, "three-point identity fails at the top index", 8),
        ],
    )
    def test_perturbed_closed_form_names_its_index(self, monkeypatch, part, m, s, what, k):
        # part 1 is g(s+1), part 3 is g(s+2m); the message must name (m, n, k).
        original = jacobi_module.gasper_boundary

        def perturbed(p, m, s):
            parts = list(original(p, m, s))
            parts[part] += F(1, 10**6)
            return tuple(parts)

        monkeypatch.setattr(jacobi_module, "gasper_boundary", perturbed)
        p = make_params(F(1, 2), F(1, 4))
        with pytest.raises(RuntimeError, match=rf"{what} .*, m={m}, n={m + s}, k={k}\)$"):
            linearize_jacobi.__wrapped__(p, m, m + s)


class TestBruteforceExactness:
    """The fraction-free elimination of `linearize_bruteforce` gives the
    vectors recorded while it equalled the one-Fraction-at-a-time
    elimination it replaced, in every family and at the companion point, for
    m <= n <= 10 (`make_outcome_digests.bruteforce_lines`)."""

    @pytest.mark.parametrize("point", GRID_WIDE)
    def test_matches_reference(self, point, request):
        check_recorded(request.node, bruteforce_lines(point))


class TestCacheBounds:
    def test_caches_stay_bounded_over_fresh_points(self):
        caches = (
            linearize_jacobi,
            linearize_gencheb,
            jacobi_module._monomial_basis,
            gencheb_rec_coeffs,
            plus_params,
        )
        for cache in caches:
            cache.cache_clear()
        rng = random.Random(7)
        try:
            for _ in range(300):
                p = make_params(*rand_alpha_beta(rng))
                for m, n in ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3)):
                    linearize_jacobi(p, m, n)
                    linearize_gencheb(p, m, n)
                linearize_bruteforce(p, 1, 1)
            for cache in caches:
                info = cache.cache_info()
                assert info.maxsize is not None
                assert info.misses > info.maxsize  # the bound was reached
                assert info.currsize <= info.maxsize
        finally:
            for cache in caches:
                cache.cache_clear()
