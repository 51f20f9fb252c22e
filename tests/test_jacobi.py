"""The plain polynomial family: recurrence, evaluation, three-point recursion
coefficients, closed-form boundary entries, and the full product expansions."""

import inspect
import random
from fractions import Fraction
from math import gcd

import pytest

import jacobilin.jacobi as jacobi_module
from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
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
    pochhammer,
    theta_iota_kappa,
)

from conftest import GRID, GRID_WIDE, rand_alpha_beta, rand_fraction
from kernel_reference import (
    outcome,
    ref_gasper_boundary,
    ref_linearize_jacobi,
    ref_theta_iota_kappa,
)
from make_outcome_digests import (
    BOUNDARY_POINTS,
    IDENTITY_POINTS,
    KERNEL_POINTS,
    bruteforce_lines,
    check_recorded,
    kernel_lines,
    row_lines,
)
from symbolic import Poly

F = Fraction


def rational_row(rc):
    """(a_n, b_n, c_n) of the row as `Fraction`s."""
    return tuple(Fraction(x, rc.den) for x in (rc.a, rc.b, rc.c))


class TestRecurrenceCoeffs:
    def test_frozen_triples(self):
        rc = jacobi_rec_coeffs(make_params(1, 0), 1)
        assert rational_row(rc) == (F(27, 40), F(1, 5), F(1, 8))
        rc = jacobi_rec_coeffs(make_params(0, 0), 1)
        assert rational_row(rc) == (F(2, 3), 0, F(1, 3))
        rc = jacobi_rec_coeffs(make_params(F(-1, 2), F(-1, 2)), 2)
        assert rational_row(rc) == (F(1, 2), 0, F(1, 2))

    def test_degree_zero(self):
        rc = jacobi_rec_coeffs(make_params(1, 0), 0)
        assert rc.c == 0
        assert rational_row(rc)[:2] == (F(4, 3), F(-1, 3))

    def test_rows_carry_their_index(self):
        p = make_params(F(-1, 3), F(2, 5))
        assert [jacobi_rec_coeffs(p, n).n for n in range(4)] == [0, 1, 2, 3]

    def test_sum_is_one_random(self):
        rng = random.Random(2207)
        for _ in range(40):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 12)
            assert sum(rational_row(jacobi_rec_coeffs(p, n))) == 1

    def test_symmetric_line_kills_middle(self):
        p = make_params(F(3, 4), F(3, 4))
        for n in range(1, 8):
            assert jacobi_rec_coeffs(p, n).b == 0

    @pytest.mark.parametrize("point", GRID_WIDE + BOUNDARY_POINTS)
    def test_rows_are_integers_in_lowest_terms(self, point):
        # Every row is (a, b, c) over den > 0 with one gcd taken; a gencheb
        # row has b = 0, and a_n and c_n = 1 - a_n share the row's
        # denominator in lowest terms.
        p = make_params(*point)
        rows = [jacobi_rec_coeffs(p, n) for n in range(33)]
        gencheb_rows = [gencheb_rec_coeffs(p, n) for n in range(1, 33)]
        for rc in rows + gencheb_rows:
            assert rc.den > 0 and gcd(rc.a, rc.b, rc.c, rc.den) == 1
            assert rc.a + rc.b + rc.c == rc.den
        for rc in gencheb_rows:
            assert rc.b == 0 and gcd(rc.a, rc.den) == 1

    @pytest.mark.parametrize("point", GRID)
    def test_rows_match_recorded(self, point, request):
        # Every jacobi row n 0..32 and gencheb row n 1..32, as recorded
        # (`make_outcome_digests.row_lines`).
        check_recorded(request.node, row_lines(point))


def szego_jacobi_pairs(d, al, be, n):
    """a_n and c_n of jacobi row n in the (alpha, beta) parametrization,
    Szego's coefficients, as (numerator, denominator) pairs for alpha = al/d
    and beta = be/d: the reference the library's (a, b) rows are proved
    against."""
    if n == 0:
        return (2 * al + 2 * d, al + be + 2 * d), (0, 1)
    n_d, one, ab = n * d, d, al + be
    return (
        ((ab + 2 * one) * (n_d + ab + one) * (n_d + al + one),
         (al + one) * (2 * n_d + ab + one) * (2 * n_d + ab + 2 * one)),
        ((ab + 2 * one) * n * (n_d + be) * one,
         (al + one) * (2 * n_d + ab) * (2 * n_d + ab + one)),
    )


def ab_gencheb_pairs(d, a, b, r, odd):
    """a_n and c_n of gencheb row n in the (a, b) parametrization, as
    (numerator, denominator) pairs for a = A/d, b = B/d and r = ceil(n/2) d:
    the reference the library's (alpha, beta) rows are proved against."""
    if odd:
        den = 4 * r + 2 * a - 2 * d
        return (2 * r + a + b - d, den), (2 * r + a - b - d, den)
    return (r + a, 2 * r + a), (r, 2 * r + a)


# The proof's variables: the common denominator d, alpha d, beta d, n and the
# scaled half-index r; a d and b d are formed from them.
D, AL, BE, N, R = Poly.variables(5)
A, B = AL + BE + D, AL - BE
REFERENCE = {
    "jacobi_row_0": szego_jacobi_pairs(D, AL, BE, 0),
    "jacobi_rows": szego_jacobi_pairs(D, AL, BE, N),
    "gencheb_odd": ab_gencheb_pairs(D, A, B, R, True),
    "gencheb_even": ab_gencheb_pairs(D, A, B, R, False),
}
SUM = "row_sum"
# One planted typo per identity, in the library formula named: (helper,
# text, replacement).  The row_sum identity, a + b + c = den for every row,
# gets its slip in b_n, which no ratio identity reads.
SLIPS = {
    "jacobi_row_0": ("_jacobi_row", "0, a + d", "0, a + 2 * d"),
    "jacobi_rows": ("_jacobi_row", "(2 * n_d + a + b + one) * lo", "(2 * n_d + a + b - one) * lo"),
    "gencheb_odd": ("_gencheb_row", "0, r + be,", "0, r + al,"),
    "gencheb_even": ("_gencheb_row", "return r + al + be + d", "return r + al + be - d"),
    SUM: ("_jacobi_row", "4 * b * n * (n_d + a)", "4 * b * n * (n_d + b)"),
}


def identity_holds(identity, jacobi_row, gencheb_row):
    """The identity as a polynomial equality, for the given row formulas:
    each row's a_n and c_n equal the reference's, cross-multiplied, or
    every row sums to its denominator."""
    rows = {
        "jacobi_row_0": jacobi_row(D, A, B, 0),
        "jacobi_rows": jacobi_row(D, A, B, N),
        "gencheb_odd": gencheb_row(D, AL, BE, R, True),
        "gencheb_even": gencheb_row(D, AL, BE, R, False),
    }
    if identity == SUM:
        return all(a + b + c == den for a, b, c, den in rows.values())
    a, _, c, den = rows[identity]
    (a_ref, a_den), (c_ref, c_den) = REFERENCE[identity]
    return a * a_den == a_ref * den and c * c_den == c_ref * den


def slipped(fn, old, new):
    """`fn` recompiled from its source with the one `old` replaced by `new`."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    scope = dict(fn.__globals__)
    exec(source.replace(old, new), scope)
    return scope[fn.__name__]


class TestRowProofs:
    """Each builder types its row once; its one formula is proved equal to
    the other parametrization for all parameters, as polynomials in (d,
    alpha d, beta d, n) for jacobi and in (d, alpha d, beta d, r) for
    gencheb, so the rows need no cross-check when they are built."""

    @pytest.mark.parametrize("identity", SLIPS)
    def test_identity_holds(self, identity):
        assert identity_holds(identity, jacobi_module._jacobi_row, jacobi_module._gencheb_row)

    @pytest.mark.parametrize("identity", SLIPS)
    def test_planted_slip_fails(self, identity):
        helpers = {"_jacobi_row": jacobi_module._jacobi_row,
                   "_gencheb_row": jacobi_module._gencheb_row}
        name, old, new = SLIPS[identity]
        helpers[name] = slipped(helpers[name], old, new)
        assert not identity_holds(identity, *helpers.values())

    def test_polynomial_arithmetic(self):
        x, y = Poly.variables(2)
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert 1 - x + x == 1 and 3 * x - x * 3 == 0
        assert x * y - y * x == Poly() and x != y and x + 1 != 1 + y
        with pytest.raises(TypeError):
            x + F(1, 2)


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
            a_n, b_n, c_n = rational_row(jacobi_rec_coeffs(p, n))
            lhs = jacobi_eval(p, 1, x) * jacobi_eval(p, n, x)
            rhs = (
                a_n * jacobi_eval(p, n + 1, x)
                + b_n * jacobi_eval(p, n, x)
                + c_n * jacobi_eval(p, n - 1, x)
            )
            assert lhs == rhs


def szego_r(p, n, x):
    """R_n(x) = 2F1(-n, n + alpha + beta + 1; alpha + 1; (1 - x) / 2), summed
    term by term with `pochhammer`: Szego's explicit form, which reads no
    recurrence row."""
    z = (1 - x) / 2
    return sum(
        pochhammer(-n, j) * pochhammer(n + p.alpha + p.beta + 1, j)
        / (pochhammer(p.alpha + 1, j) * pochhammer(1, j)) * z**j
        for j in range(n + 1)
    )


class TestWalker:
    """The one recurrence walker builds the polynomials that both the
    oracle and evaluation read, so it is checked against what shares no
    code with it: Szego's explicit form for jacobi, and for gencheb the
    quadratic transform of `gencheb_eval`.  The jacobi_plus case is the
    companion family: jacobi walked at plus_params(p)."""

    @pytest.mark.parametrize("point", GRID[::6] + BOUNDARY_POINTS)
    def test_evaluation_matches_explicit_form(self, point):
        # The grid sample and one point on each of the lines a = 0, b = 0,
        # b = 1 and beta = -1/2.
        p = make_params(*point)
        for n in range(13):
            for x in (F(-1), F(-3, 5), F(0), F(1, 3), F(1), F(7, 4)):
                assert jacobi_eval(p, n, x) == szego_r(p, n, x), (n, x)

    @pytest.mark.parametrize("point", GRID[::6] + BOUNDARY_POINTS)
    def test_gencheb_at_origin_matches_explicit_form(self, point):
        # T_2r(0) = R_r(-1), and the odd T_n vanish at 0.
        p = make_params(*point)
        for n in range(13):
            want = szego_r(p, n // 2, F(-1)) if n % 2 == 0 else 0
            assert gencheb_eval(p, n, 0) == want, n

    @pytest.mark.parametrize("point", GRID[::3] + BOUNDARY_POINTS)
    @pytest.mark.parametrize("family", ["jacobi", "jacobi_plus", "gencheb"])
    def test_basis_polynomials_match_evaluation(self, point, family):
        p = make_params(*point)
        q, walked, evaluate = {
            "jacobi": (p, FAMILY_JACOBI, szego_r),
            "jacobi_plus": (plus_params(p), FAMILY_JACOBI, szego_r),
            "gencheb": (p, FAMILY_GENCHEB, gencheb_eval),
        }[family]
        linearize_bruteforce(q, 0, 8, walked)
        basis = jacobi_module._monomial_basis(q, walked)
        for n in range(9):
            for x in (F(-3, 5), F(1, 3), F(7, 4)):
                assert basis[n](x) == evaluate(q, n, x)

    def test_extends_in_place_from_any_length(self):
        # The walk extends the point's cached list from whatever length it
        # has, and returns that list.
        p = make_params(F(1, 2), F(1, 4))
        basis = jacobi_module._monomial_basis(p, FAMILY_JACOBI)
        assert jacobi_module.walk_recurrence(p, FAMILY_JACOBI, 3) is basis
        grown = basis[:4]
        del basis[2:]
        again = jacobi_module.walk_recurrence(p, FAMILY_JACOBI, 6)
        assert again is basis and again[:4] == grown and len(again) == 7
        assert again[6](F(2, 9)) == szego_r(p, 6, F(2, 9))

    def test_evaluation_builds_each_row_once(self, monkeypatch):
        # R_0 .. R_12 at six x read one walked basis of the point, so rows
        # 0 .. 11 are each built once, not once per call (468 builds).
        built = []
        original = jacobi_module.jacobi_rec_coeffs
        monkeypatch.setattr(jacobi_module, "jacobi_rec_coeffs",
                            lambda p, n: built.append(n) or original(p, n))
        p = make_params(F(5, 11), F(-2, 13))
        jacobi_module._monomial_basis.cache_clear()
        for x in (F(-1), F(-3, 5), F(0), F(1, 3), F(1), F(7, 4)):
            for n in range(13):
                assert jacobi_eval(p, n, x) == szego_r(p, n, x)
        assert built == list(range(12))


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

    @pytest.mark.parametrize("point", IDENTITY_POINTS)
    def test_ratios_match_reference_closed_forms(self, point):
        # `_boundary_ratios` at a point's integers (L, A, B) and at its
        # companion's (L, A+L, B-L), against the reference closed forms at p
        # and plus_params(p).  The identities cross-multiply by both
        # denominators, so these must be positive.
        p = make_params(*point)
        big_l, a, b = p.over_lcm_ab
        for q, ints in ((p, (a, b)), (plus_params(p), (a + big_l, b - big_l))):
            for m in range(1, 7):
                for s in range(5):
                    (lo_n, lo_d), (hi_n, hi_d) = jacobi_module._boundary_ratios(
                        big_l, *ints, m, s
                    )
                    assert lo_d > 0 and hi_d > 0
                    g_lo, g_lo1, g_hi1, g_hi = ref_gasper_boundary(q, m, s)
                    assert (F(lo_n, lo_d), F(hi_n, hi_d)) == (g_lo1 / g_lo, g_hi1 / g_hi)


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
        # (Favard), so the cached basis polynomial itself is perturbed.  With
        # P_3 + 1/5 in the basis, P_1 (P_3 + 1/5) leaves 1/5 at k = 1 and
        # -b_3 / 5 at k = 0, which is 0 only for gencheb (b_3 = 0): the check
        # names the first nonzero entry below the support.
        p = make_params(F(1, 2), F(1, 4))
        basis = jacobi_module._monomial_basis(p, family)
        k = 0 if family == FAMILY_JACOBI else 1
        try:
            jacobi_module.walk_recurrence(p, family, 4)
            basis[3] = basis[3] + F(1, 5)
            with pytest.raises(
                RuntimeError, match=rf"brute/{family}, .*m=1, n=3, k={k}\)$"
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
        if exc is ZeroDivisionError:
            message = r"^kappa has a pole at j=11/10, s=0 \(alpha=-1/4, beta=-19/20\)$"
            with pytest.raises(ZeroDivisionError, match=message):
                theta_iota_kappa(p, *args)

    @pytest.mark.parametrize("m, s", [(0, 0), (1, -1)])
    def test_boundary_rejects_bad_degrees(self, m, s):
        p = make_params(1, 0)
        assert outcome(gasper_boundary, p, m, s) == ("raises", ValueError)
        assert outcome(ref_gasper_boundary, p, m, s) == ("raises", ValueError)


def _step_examples(seed, first, draw=None, same_degree=False):
    """(alpha, beta, m, n), 1 <= m <= n <= 10, at `first` and then at distinct
    points from `draw` (denominators up to 1000), 25 in all, from Random(seed)."""
    rng = random.Random(seed)
    points = dict.fromkeys(first)
    while draw and len(points) < 25:
        points[draw(lambda lo, hi: rand_fraction(rng, lo, hi, max_den=1000))] = None
    return [(alpha, beta, (m := rng.randint(1, 10)), m if same_degree else rng.randint(m, 10))
            for alpha, beta in points]


# Points for the differential test of the recursion step: the scan grid,
# tall denominators, the line a = 0 (with n = m, so that the loop runs the
# kappa = 0 step j = 1, s = 0) and the line b = 0.
STEP_EXAMPLES = {
    "grid": _step_examples(3901, GRID),
    "tall": _step_examples(3902, [(F(0), F(0))], lambda t: (t(-1, 3), t(-1, 3))),
    "a = 0": _step_examples(3903, [], lambda t: (x := t(-1, 0), -1 - x), same_degree=True),
    "b = 0": _step_examples(3904, [(F(0), F(0))], lambda t: (x := t(-1, 3), x)),
}


class TestRecursionStep:
    """Each step of linearize_jacobi, one integer quotient, equals the loop
    over reduced theta, iota and kappa `Fraction`s it replaced."""

    @pytest.mark.parametrize("source", STEP_EXAMPLES)
    def test_matches_reference_loop(self, source):
        for alpha, beta, m, n in STEP_EXAMPLES[source]:
            p = make_params(alpha, beta)
            got = linearize_jacobi.__wrapped__(p, m, n)
            assert got == ref_linearize_jacobi(p, m, n), (alpha, beta, m, n)

    def test_perturbed_theta_is_caught(self, monkeypatch):
        original = jacobi_module._recursion_weights

        def perturbed(*args):
            theta, iota, kappa, den = original(*args)
            return theta + 1, iota, kappa, den

        monkeypatch.setattr(jacobi_module, "_recursion_weights", perturbed)
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
