"""The quadratic-transform family: recurrence coefficients, evaluation,
norms, and the parity-assembled product expansions."""

import random
import re
from fractions import Fraction

import pytest

import jacobilin.gencheb as gencheb_module
import jacobilin.jacobi as jacobi_module
from jacobilin import (
    FAMILY_GENCHEB,
    RationalPolynomial,
    RecurrenceCoeffs,
    gencheb_eval,
    gencheb_rec_coeffs,
    jacobi_eval,
    linearize_bruteforce,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
)

from conftest import GRID, GRID_WIDE, rand_alpha_beta
from kernel_reference import ref_linearize_gencheb

F = Fraction


class TestRecurrenceCoeffs:
    def test_frozen_pair(self):
        rc = gencheb_rec_coeffs(make_params(1, 0), 1)
        assert (F(rc.a, rc.den), F(rc.c, rc.den)) == (F(2, 3), F(1, 3))

    def test_partition_of_one_random(self):
        rng = random.Random(7110)
        for _ in range(40):
            p = make_params(*rand_alpha_beta(rng))
            rc = gencheb_rec_coeffs(p, rng.randint(1, 14))
            assert F(rc.a, rc.den) + F(rc.c, rc.den) == 1
            assert 0 < F(rc.a, rc.den) < 1

    @pytest.mark.parametrize("point", GRID[::3])
    def test_row_identity_on_basis_polynomials(self, point):
        # x T_n = a_n T_{n+1} + b_n T_n + c_n T_{n-1} with b_n = 0, checked
        # on the oracle's monomial basis, where T_1 = x.
        p = make_params(*point)
        linearize_bruteforce(p, 0, 9, FAMILY_GENCHEB)
        basis = jacobi_module._monomial_basis(p, FAMILY_GENCHEB)
        assert basis[1] == RationalPolynomial.variable()
        for n in range(1, 9):
            rc = gencheb_rec_coeffs(p, n)
            assert isinstance(rc, RecurrenceCoeffs) and rc.b == 0
            a_n, b_n, c_n = (F(x, rc.den) for x in (rc.a, rc.b, rc.c))
            rhs = a_n * basis[n + 1] + b_n * basis[n] + c_n * basis[n - 1]
            assert basis[1] * basis[n] == rhs

    def test_half_line_reduces_to_symmetric_family(self):
        # At beta = -1/2 the transform family coincides with the symmetric
        # plain family at (alpha, alpha).
        for alpha in (F(0), F(1), F(-1, 4)):
            p = make_params(alpha, F(-1, 2))
            q = make_params(alpha, alpha)
            for n in range(6):
                for x in (F(0), F(1, 2), F(-2, 3), F(1)):
                    assert gencheb_eval(p, n, x) == jacobi_eval(q, n, x)


class TestEvaluation:
    @pytest.mark.parametrize("point", GRID[::5])
    def test_degree_one_is_identity(self, point):
        p = make_params(*point)
        for x in (F(0), F(3, 7), F(-1), F(2)):
            assert gencheb_eval(p, 1, x) == x

    def test_quadratic_transform_value(self):
        p = make_params(1, 0)
        assert gencheb_eval(p, 2, 1) == 1
        for x in (F(0), F(1, 2), F(-3, 4)):
            assert gencheb_eval(p, 2, x) == jacobi_eval(p, 1, 2 * x * x - 1)

    def test_odd_degrees_vanish_at_origin(self):
        rng = random.Random(31)
        for _ in range(10):
            p = make_params(*rand_alpha_beta(rng))
            n = 2 * rng.randint(0, 5) + 1
            assert gencheb_eval(p, n, 0) == 0

    def test_odd_transform(self):
        # Odd degrees are x times the shifted-parameter plain polynomial in
        # the transformed variable.
        rng = random.Random(32)
        p = make_params(F(1, 4), F(-1, 4))
        q = make_params(F(1, 4), F(3, 4))
        for r in range(4):
            for _ in range(3):
                x = F(rng.randint(-9, 9), rng.randint(1, 9))
                assert gencheb_eval(p, 2 * r + 1, x) == x * jacobi_eval(
                    q, r, 2 * x * x - 1
                )

    def test_transform_cross_checked_against_recurrence(self, monkeypatch):
        original = gencheb_module.jacobi_eval
        monkeypatch.setattr(gencheb_module, "jacobi_eval",
                            lambda *args: original(*args) + F(1, 10**6))
        message = ("internal: transform and recurrence evaluations disagree "
                   "(route gencheb-eval, alpha=1/2, beta=1/4, n=4, x=1/3)")
        with pytest.raises(RuntimeError, match=re.escape(message) + "$"):
            gencheb_eval(make_params(F(1, 2), F(1, 4)), 4, F(1, 3))


def norm_h(p, n):
    """Inverse squared norm by the recurrence norm identity h(0) = 1,
    h(k+1) = h(k) a_k / c_{k+1} with a_0 = 1."""
    h, a_prev = Fraction(1), 1
    for k in range(1, n + 1):
        row = gencheb_rec_coeffs(p, k)
        h, a_prev = h * a_prev / F(row.c, row.den), F(row.a, row.den)
    return h


class TestNorms:
    def test_frozen_values(self):
        p = make_params(1, 0)
        assert [norm_h(p, n) for n in range(4)] == [1, 3, 8, 15]

    def test_reciprocal_of_self_product_base(self):
        rng = random.Random(5520)
        for _ in range(8):
            p = make_params(*rand_alpha_beta(rng))
            for n in range(7):
                assert norm_h(p, n) == 1 / linearize_gencheb(p, n, n)[0]
                assert norm_h(p, n) > 0

    def test_base_value(self):
        rng = random.Random(5521)
        p = make_params(*rand_alpha_beta(rng))
        assert 1 / linearize_gencheb(p, 0, 0)[0] == 1


class TestLinearize:
    def test_frozen_vectors(self):
        cv = linearize_gencheb(make_params(1, 0), 1, 1)
        assert cv[0] == F(1, 3) and cv[2] == F(2, 3)
        cv = linearize_gencheb(make_params(1, 0), 1, 2)
        assert cv[1] == F(1, 4) and cv[3] == F(3, 4)

    def test_classical_chebyshev_halves(self):
        p = make_params(F(-1, 2), F(-1, 2))
        for m, n in [(1, 1), (1, 2), (2, 3), (3, 5)]:
            cv = linearize_gencheb(p, m, n)
            assert cv[n - m] == F(1, 2)
            assert cv[n + m] == F(1, 2)
            assert sum(cv.values) == 1

    def test_even_even_reduces_to_plain_family(self):
        rng = random.Random(660)
        for _ in range(8):
            p = make_params(*rand_alpha_beta(rng))
            cv = linearize_gencheb(p, 2, 2)
            gr = linearize_jacobi(p, 1, 1)
            for k in range(3):
                assert cv[2 * k] == gr[k]

    def test_parity_zeros(self):
        rng = random.Random(661)
        for _ in range(8):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 7)
            m = rng.randint(1, n)
            cv = linearize_gencheb(p, m, n)
            for k, v in cv.items():
                if (m + n - k) % 2:
                    assert v == 0

    def test_row_sums(self):
        rng = random.Random(662)
        for _ in range(10):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(0, 6)
            m = rng.randint(0, n)
            assert sum(linearize_gencheb(p, m, n).values) == 1

    def test_matches_bruteforce_sample(self):
        rng = random.Random(663)
        for _ in range(6):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 6)
            m = rng.randint(1, n)
            assert (
                linearize_gencheb(p, m, n).values
                == linearize_bruteforce(p, m, n, FAMILY_GENCHEB).values
            )

    def test_argument_order_irrelevant(self):
        p = make_params(F(2), F(1, 2))
        assert linearize_gencheb(p, 3, 5).values == linearize_gencheb(p, 5, 3).values

    def test_degree_zero_factor(self):
        cv = linearize_gencheb(make_params(1, 0), 0, 4)
        assert cv.values == (F(1),)

    # Points on boundary lines that GRID misses or only touches at a corner.
    BOUNDARY_POINTS = [
        (F(-1, 4), F(-3, 4)),  # a = 0, b != 0
        (F(1, 3), F(-2, 3)),  # b = 1
        (F(5, 7), F(-1, 2)),  # beta = -1/2, alpha != beta
        (F(2, 7), F(2, 7)),  # alpha = beta
    ]

    @pytest.mark.parametrize("point", BOUNDARY_POINTS)
    def test_matches_bruteforce_on_boundary_lines(self, point):
        p = make_params(*point)
        for n in range(10):
            for m in range(n + 1):
                assert (
                    linearize_gencheb(p, m, n).values
                    == linearize_bruteforce(p, m, n, FAMILY_GENCHEB).values
                )
            assert norm_h(p, n) == 1 / linearize_gencheb(p, n, n)[0]

    @pytest.mark.parametrize("point", GRID_WIDE)
    def test_matches_reference_assembly(self, point):
        p = make_params(*point)
        for n in range(13):
            for m in range(n + 1):
                assert linearize_gencheb(p, m, n) == ref_linearize_gencheb(p, m, n)


class TestProductIdentity:
    def test_expansion_reproduces_pointwise_product(self):
        rng = random.Random(664)
        for _ in range(6):
            p = make_params(*rand_alpha_beta(rng))
            n = rng.randint(1, 5)
            m = rng.randint(1, n)
            cv = linearize_gencheb(p, m, n)
            x = F(rng.randint(-7, 7), rng.randint(1, 8))
            lhs = gencheb_eval(p, m, x) * gencheb_eval(p, n, x)
            rhs = sum(v * gencheb_eval(p, k, x) for k, v in cv.items())
            assert lhs == rhs
