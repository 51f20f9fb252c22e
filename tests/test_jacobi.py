"""The plain polynomial family: recurrence, evaluation, three-point recursion
coefficients, closed-form boundary entries, and the full product expansions."""

import random
from fractions import Fraction
from functools import partial
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
    product_triangle,
    theta_iota_kappa,
)

from conftest import GRID, GRID_WIDE, outcome, rand_alpha_beta
from make_outcome_digests import BOUNDARY_POINTS, IDENTITY_POINTS
from symbolic import Poly, Proofs, equal, positive

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

    def test_rows_match_recorded(self, recorded):
        # Every jacobi row n 0..32 and gencheb row n 1..32, as recorded
        # (`make_outcome_digests.row_lines`).
        recorded()


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


# The proofs' variables: the common denominator d, alpha d, beta d, n and the
# scaled half-index r for the rows, m, s and j for the recursion kernel, and
# x = (alpha+1) d, y = (beta+1) d and m' = m - 1 for the ratios' signs; a d
# and b d are formed from them.
D, AL, BE, N, R, M, S, J, X, Y, M1 = Poly.variables(11)
A, B = AL + BE + D, AL - BE
# Each row: its builder in jacobi, the builder's arguments, and a_n and c_n
# in the other parametrization.
ROWS = {
    "jacobi_row_0": ("_jacobi_row", (D, A, B, 0), szego_jacobi_pairs(D, AL, BE, 0)),
    "jacobi_rows": ("_jacobi_row", (D, A, B, N), szego_jacobi_pairs(D, AL, BE, N)),
    "gencheb_odd": ("_gencheb_row", (D, AL, BE, R, True), ab_gencheb_pairs(D, A, B, R, True)),
    "gencheb_even": ("_gencheb_row", (D, AL, BE, R, False), ab_gencheb_pairs(D, A, B, R, False)),
}


def row(identity):
    """(a, b, c, den) of the row, from its builder as jacobi holds it."""
    helper, args, _ = ROWS[identity]
    return getattr(jacobi_module, helper)(*args)


def row_matches_reference(identity):
    """The row's a_n and c_n equal the other parametrization's."""
    a, _, c, den = row(identity)
    a_ref, c_ref = ROWS[identity][2]
    return equal(((a, den), a_ref)) and equal(((c, den), c_ref))


class TestRowProofs(Proofs):
    """Each builder types its row once; its one formula is proved equal to
    the other parametrization for all parameters, as polynomials in (d,
    alpha d, beta d, n) for jacobi and in (d, alpha d, beta d, r) for
    gencheb, so the rows need no cross-check when they are built; and every
    row sums to its denominator."""

    PROOFS = {
        **{identity: partial(row_matches_reference, identity) for identity in ROWS},
        "row_sum": lambda: all(a + b + c == den for a, b, c, den in map(row, ROWS)),
    }
    # One planted typo per identity, in the row builder named; row_sum's is
    # in b_n, which no other identity reads.
    SLIPS = {
        "jacobi_row_0": ("jacobi_row_0", jacobi_module, "_jacobi_row",
                         "0, a + d", "0, a + 2 * d"),
        "jacobi_rows": ("jacobi_rows", jacobi_module, "_jacobi_row",
                        "(2 * n_d + a + b + one) * lo", "(2 * n_d + a + b - one) * lo"),
        "gencheb_odd": ("gencheb_odd", jacobi_module, "_gencheb_row",
                        "0, r + be,", "0, r + al,"),
        "gencheb_even": ("gencheb_even", jacobi_module, "_gencheb_row",
                         "return r + al + be + d", "return r + al + be - d"),
        "row_sum": ("row_sum", jacobi_module, "_jacobi_row",
                    "4 * b * n * (n_d + a)", "4 * b * n * (n_d + b)"),
    }

    def test_polynomial_arithmetic(self):
        x, y = Poly.variables(2)
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert 1 - x + x == 1 and 3 * x - x * 3 == 0
        assert x * y - y * x == Poly() and x != y and x + 1 != 1 + y
        assert not Poly() and not x - x and not 0 * y and x and x - y and 1 + x - x
        with pytest.raises(TypeError):
            x + F(1, 2)
        # d - 2y has a negative coefficient; with y >= 0 only, x y has no
        # monomial in the strict d and x alone, and 0 has no monomial.
        d, x, y = Poly.variables(3)
        assert not positive(d - 2 * y, (d, x, y)) and not positive(x * y, (d, x))
        assert not positive(Poly(), (d, x))
        assert positive(2 * d * d + 5 * d * x, (d, x, y)) and positive(3 + x * y, (d, x))


def paper_weights(d, a, b, m, s, j):
    """theta, iota and kappa of the three-point recursion as the paper types
    them, as (numerator, denominator) pairs for a, b and j given as integers
    over d; each linear factor is scaled by d, so theta = theta_N / (theta_D
    d^3), iota = iota_N / (iota_D d^4) and kappa = kappa_N / (kappa_D d^3).
    The reference `_recursion_weights` is proved against."""
    m2, s2 = 2 * m * d, 2 * s * d
    up, down = s2 + 2 * j + a + d, s2 + 2 * j + a - d
    theta = (
        (m2 - j + a - d) * (m2 + s2 + j + a + d) * (s2 + j + d) * (s2 + 2 * j + a - b + d)
        * (j + d),
        up * (up + d),
    )
    iota = (
        b * ((m2 - j) * (m2 + s2 + j + 2 * a) * (s2 + j + d) * (j + d) * down
             - (m2 - j + d) * (m2 + s2 + j + 2 * a - d) * (s2 + j) * j * up),
        up * down,
    )
    kappa = (
        (m2 - j + d) * (m2 + s2 + j + 2 * a - d) * (s2 + j + a - d)
        * (s2 + 2 * j + a + b - d) * (j + a - d),
        (down - d) * down,
    )
    return theta, iota, kappa


def paper_ratios(d, a, b, m, s):
    """g(s+1)/g(s) and g(s+2m-1)/g(s+2m) as the paper types them, each b
    times a cofactor over a denominator: (cofactor, denominator) pairs for a
    and b given as integers over d, scaled so that a ratio is b cofactor /
    denominator.  The reference `_boundary_ratios` is proved against."""
    md, sd = m * d, s * d
    return (
        (4 * m * (md + sd + a) * (2 * sd + a + 2 * d),
         (2 * md + 2 * sd + a + d) * (2 * md + a - d) * (2 * sd + a - b + d)),
        (4 * m * (md + sd) * (4 * md + 2 * sd + a - 2 * d),
         (4 * md + 2 * sd + a + b - d) * (2 * md + 2 * sd + a - d) * (2 * md + a - d)),
    )


WEIGHTS = ("theta", "iota", "kappa")
RATIOS = ("ratio_lo", "ratio_hi")


def kernel_identity_holds(identity):
    """A weight of `_recursion_weights` equals the paper's, cross-multiplied,
    in (d, alpha d, beta d, m, s, j); or a pair of `_boundary_ratios` equals
    the paper's ratio in (d, alpha d, beta d, m, s), and with a = x + y - d,
    b = x - y and m = 1 + m', which is alpha, beta > -1 and m >= 1, its
    numerator is b times the paper's cofactor, and that cofactor and its
    denominator are certified positive."""
    if identity in WEIGHTS:
        i = WEIGHTS.index(identity)
        *weights, den = jacobi_module._recursion_weights(D, A, B, M, S, J * D)
        ref_n, ref_d = paper_weights(D, A, B, M, S, J * D)[i]
        return equal(((weights[i], den), (ref_n, ref_d * D ** (4 if identity == "iota" else 3))))
    i = RATIOS.index(identity)
    num, den = jacobi_module._boundary_ratios(D, A, B, M, S)[i]
    cof, ref_d = paper_ratios(D, A, B, M, S)[i]
    a, b, m = X + Y - D, X - Y, 1 + M1
    num_xy, den_xy = jacobi_module._boundary_ratios(D, a, b, m, S)[i]
    cof_xy = paper_ratios(D, a, b, m, S)[i][0]
    return equal(((num, den), (B * cof, ref_d))) and num_xy == b * cof_xy and (
        positive(cof_xy, (D, X, Y)) and positive(den_xy, (D, X, Y))
    )


class TestKernelProofs(Proofs):
    """The recursion weights and the boundary ratios are each typed once on
    integers, and equal the paper's rational formulas for all parameters,
    as polynomial identities; both ratios have the sign of b for alpha,
    beta > -1 and m >= 1.  Only kappa's removable zero, a branch taken at
    one integer point, is left to `TestKernelExactness`."""

    PROOFS = {identity: partial(kernel_identity_holds, identity) for identity in WEIGHTS + RATIOS}
    # One planted typo per identity, in the jacobi helper named.  The iota
    # slip is the one the p split of test_analysis.py::TestIdentityProofs
    # also rejects.
    SLIPS = {
        "theta": ("theta", jacobi_module, "_recursion_weights",
                  "(w - b + one)", "(w - b - one)"),
        "iota": ("iota", jacobi_module, "_recursion_weights",
                 "shared_ik * sj * j * up", "shared_ik * sj * j * down"),
        "kappa": ("kappa", jacobi_module, "_recursion_weights",
                  "(sj + a - one)", "(sj + a + one)"),
        "ratio_lo": ("ratio_lo", jacobi_module, "_boundary_ratios",
                     "(2 * s_l + a + 2 * one)", "(2 * s_l + a + one)"),
        "ratio_hi": ("ratio_hi", jacobi_module, "_boundary_ratios",
                     "(2 * m_l + 2 * s_l + a - one) * m2a", "(2 * m_l + 2 * s_l + a + one) * m2a"),
    }


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
        # `_boundary_ratios` at the integers (L, A+L, B-L) that the identities
        # pass for the companion point gives the ratios at plus_params(p)'s
        # own integers; `TestKernelProofs` ties both to the closed forms.  The
        # identities cross-multiply by both denominators, so these must be
        # positive.
        p = make_params(*point)
        big_l, a, b = p.over_lcm_ab
        for m in range(1, 7):
            for s in range(5):
                shortcut = jacobi_module._boundary_ratios(big_l, a + big_l, b - big_l, m, s)
                own = jacobi_module._boundary_ratios(*plus_params(p).over_lcm_ab, m, s)
                assert [F(*r) for r in shortcut] == [F(*r) for r in own]
                for ints in ((a, b), (a + big_l, b - big_l)):
                    ratios = jacobi_module._boundary_ratios(big_l, *ints, m, s)
                    assert all(den > 0 for _, den in ratios)


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


class TestProductTriangle:
    @pytest.mark.parametrize("point", GRID_WIDE + BOUNDARY_POINTS)
    def test_matches_linearize(self, point):
        # Every vector m <= n <= 10 of both families, in scan order.
        p = make_params(*point)
        for family, linearize in ((FAMILY_JACOBI, linearize_jacobi),
                                  (FAMILY_GENCHEB, linearize_gencheb)):
            want = [linearize(p, m, n) for n in range(11) for m in range(n + 1)]
            assert list(product_triangle(p, family, 10)) == want

    @pytest.mark.parametrize(
        "fault, family, what",
        [
            ("broken_product_step", FAMILY_JACOBI, "coefficient vector does not sum to 1"),
            ("broken_product_step", FAMILY_GENCHEB, "coefficient vector does not sum to 1"),
            # The vector still sums to 1: the extreme check is what sees it.
            ("flat_product_extreme", FAMILY_JACOBI, "extreme coefficients must be positive"),
        ],
        ids=["sum-jacobi", "sum-gencheb", "extreme-jacobi"],
    )
    def test_failed_check_names_its_point_and_indices(self, request, fault, family, what):
        request.getfixturevalue(fault)
        p = make_params(F(1, 2), F(1, 4))
        with pytest.raises(
            RuntimeError,
            match=rf"^internal: {what} \(route rows/{family}, alpha=1/2, beta=1/4, m=2, n=3\)$",
        ):
            list(product_triangle(p, family, 3))

    def test_swapped_row_gives_another_family(self, monkeypatch):
        # Row 2 with a and c swapped still sums to its denominator, and the
        # rows still define an orthogonal family (Favard): every vector passes
        # its checks, and the vectors differ from the library's silently.  The
        # row proofs (TestRowProofs) are what see such a slip.
        original = jacobi_module.jacobi_rec_coeffs

        def swapped(p, n):
            row = original(p, n)
            if n != 2:
                return row
            return jacobi_module.RecurrenceCoeffs(n, row.c, row.b, row.a, row.den)

        monkeypatch.setattr(jacobi_module, "jacobi_rec_coeffs", swapped)
        p = make_params(F(1, 2), F(1, 4))
        got = list(product_triangle(p, FAMILY_JACOBI, 4))
        assert got != [linearize_jacobi(p, m, n) for n in range(5) for m in range(n + 1)]

    def test_rejects_bad_requests(self):
        p = make_params(1, 0)
        assert [(cv.m, cv.n) for cv in product_triangle(p, FAMILY_JACOBI, 0)] == [(0, 0)]
        with pytest.raises(ValueError, match="unknown family"):
            next(product_triangle(p, "bogus", 3))
        with pytest.raises(ValueError, match="max_degree"):
            next(product_triangle(p, FAMILY_GENCHEB, -1))


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
    """The integer-numerator kernel gives the outcomes, values and exception
    types, recorded on the grid and the boundary points while it equalled
    the one-Fraction-at-a-time reference (`make_outcome_digests.kernel_lines`);
    `TestKernelProofs` proves its weights and ratios for all parameters."""

    def test_matches_reference(self, recorded):
        recorded()

    def test_degenerate_kappa_at_one(self):
        p = make_params(F(-1, 4), F(-3, 4))
        assert p.a == 0
        # kappa's removable zero at j = 1, s = 0, a = 0: the one branch of
        # `_recursion_weights` that its proof on polynomials never takes.
        assert theta_iota_kappa(p, 3, 0, 1) == (F(80, 3), F(16, 3), 0)

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
        if exc is ZeroDivisionError:
            message = r"^kappa has a pole at j=11/10, s=0 \(alpha=-1/4, beta=-19/20\)$"
            with pytest.raises(ZeroDivisionError, match=message):
                theta_iota_kappa(p, *args)

    @pytest.mark.parametrize("m, s", [(0, 0), (1, -1)])
    def test_boundary_rejects_bad_degrees(self, m, s):
        p = make_params(1, 0)
        assert outcome(gasper_boundary, p, m, s) == ("raises", ValueError)


class TestRecursionStep:
    """Each step of linearize_jacobi, one integer quotient, gives the vectors
    recorded while it equalled the loop over reduced theta, iota and kappa
    `Fraction`s it replaced, at the grid, tall denominators and the lines
    a = 0 and b = 0 (`make_outcome_digests.step_lines`)."""

    def test_matches_reference_loop(self, recorded):
        recorded()

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

    def test_matches_reference(self, recorded):
        recorded()


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
