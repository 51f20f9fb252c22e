"""Rational building blocks: Pochhammer products, polynomial algebra,
exact real-root counting, and the package's public names."""

import random
from fractions import Fraction
from math import gcd

import pytest

import jacobilin
from jacobilin.exact import (
    RationalPolynomial,
    _over_lcm,
    _rising_ratio,
    count_real_roots,
    pochhammer,
    to_fraction,
)

from kernel_reference import outcome, ref_pochhammer
from make_outcome_digests import (
    BINARY,
    PAIRS,
    UNARY,
    binary_lines,
    check_recorded,
    count_real_roots_lines,
    unary_lines,
)

F = Fraction


class TestToFraction:
    def test_parses_text(self):
        assert to_fraction("3/4") == F(3, 4)
        assert to_fraction("-33/100") == F(-33, 100)
        assert to_fraction(7) == F(7)

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            to_fraction(0.5)


class TestPochhammer:
    def test_half_cubed(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    def test_empty_product(self):
        assert pochhammer(F(22, 7), 0) == 1
        assert pochhammer(-5, 0) == 1

    def test_hits_zero(self):
        assert pochhammer(-2, 4) == 0
        assert pochhammer(-2, 2) == (-2) * (-1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(F(1, 2), -1)

    def test_negative_count_checked_before_float(self):
        assert outcome(pochhammer, 0.5, -1) == ("raises", ValueError)


class TestKernelExactness:
    """Integer-numerator Pochhammer equals the reference product of Fractions
    exactly, with the same exception types."""

    ARGS = [
        F(1, 2), F(-7, 3), F(22, 7), F(-33, 100), F(-181, 400),
        0, 5, -4, "3/8", 0.5,
    ]

    @pytest.mark.parametrize("x", ARGS)
    def test_matches_reference(self, x):
        for n in range(-1, 14):
            assert outcome(pochhammer, x, n) == outcome(ref_pochhammer, x, n)

    def test_exception_types(self):
        assert outcome(pochhammer, F(1, 2), -1) == ("raises", ValueError)
        assert outcome(pochhammer, 0.5, 2) == ("raises", TypeError)


class TestPochhammerRatio:
    """Products of rising factorials over products of rising factorials, as
    one integer pair by `_rising_ratio`, every x an integer X over one q."""

    def test_empty_lists_give_one(self):
        assert _rising_ratio(1, [], []) == (1, 1)
        assert _rising_ratio(7, (), ()) == (1, 1)

    def test_zero_factor_above_the_line(self):
        # (1/3)_2 (-2)_3 / (5/7)_4 over q = 21.
        assert _rising_ratio(21, [(7, 2), (-42, 3)], [(15, 4)])[0] == 0

    def test_negative_x(self):
        assert F(*_rising_ratio(3, [(-7, 3)], [(-12, 2)])) == (
            F(-7, 3) * F(-4, 3) * F(-1, 3) / ((-4) * (-3))
        )

    def test_zero_count_is_one(self):
        assert _rising_ratio(100, [(-33, 0)], [(0, 0)]) == (1, 1)

    def test_linear_factors_and_factorials(self):
        # (x, 1) is x and (1, n) is n!, here over q = 4.
        assert F(*_rising_ratio(4, [(3, 1), (4, 5)], [(4, 3)])) == F(3, 4) * 20

    def test_exceptions(self):
        # A zero product below the line gives denominator 0, with or without
        # a zero above it, and the ratio cannot be formed.
        assert _rising_ratio(2, [(1, 3)], [(-2, 2)]) == (1 * 3 * 5, 0)
        assert _rising_ratio(1, [(-1, 2)], [(-1, 2)]) == (0, 0)
        with pytest.raises(ZeroDivisionError):
            F(*_rising_ratio(2, [(1, 3)], [(-2, 2)]))

    def test_powers_of_q_are_netted(self):
        # (1/3)_1 / (2/3)_2 = 3/10: one more factor below, one q above.
        assert _rising_ratio(3, [(1, 1)], [(2, 2)]) == (3, 10)
        # (1/3)_3 / (2/3)_1 = 28/18: two more factors above, q**2 below.
        assert _rising_ratio(3, [(1, 3)], [(2, 1)]) == (28, 18)
        assert _rising_ratio(3, [(1, 2)], [(2, 2)]) == (4, 10)

    @pytest.mark.parametrize("x", TestKernelExactness.ARGS)
    def test_one_pair_is_pochhammer(self, x):
        # One pair over x's denominator, or over a multiple of it, as the
        # closed forms pass their factors.
        for n in range(14):
            want = outcome(pochhammer, x, n)
            if want[0] == "value":
                frac = to_fraction(x)
                for k in (1, 2, 3):
                    pair = _rising_ratio(k * frac.denominator, [(k * frac.numerator, n)], ())
                    assert F(*pair) == want[1]

    def test_matches_product_of_references(self):
        rng = random.Random(18)
        xs = [F(rng.randint(-60, 60), rng.randint(1, 12)) for _ in range(120)]
        for _ in range(200):
            ups = [(rng.choice(xs), rng.randint(0, 6)) for _ in range(rng.randint(0, 5))]
            downs = [(rng.choice(xs), rng.randint(0, 6)) for _ in range(rng.randint(0, 5))]
            num = F(1)
            for x, n in ups:
                num *= ref_pochhammer(x, n)
            den = F(1)
            for x, n in downs:
                den *= ref_pochhammer(x, n)
            expected = outcome(lambda: num / den)
            q, *big_xs = _over_lcm(*(x for x, _ in ups + downs))
            pairs = [(big_x, n) for big_x, (_, n) in zip(big_xs, ups + downs)]
            got = outcome(lambda: F(*_rising_ratio(q, pairs[:len(ups)], pairs[len(ups):])))
            assert got == expected


class TestPolynomialAlgebra:
    def test_degree_and_zero(self):
        z = RationalPolynomial([])
        assert z.degree == -1
        assert RationalPolynomial([0, 0]).degree == -1
        assert RationalPolynomial([3]).degree == 0
        assert RationalPolynomial.variable().degree == 1

    def test_evaluation_matches_structure(self):
        x = RationalPolynomial.variable()
        p = (x - 1) * (x - 2) * (2 * x + 3)
        for t in [F(0), F(1), F(2), F(-3, 2), F(7, 5)]:
            assert p(t) == (t - 1) * (t - 2) * (2 * t + 3)

    def test_arithmetic_random(self):
        rng = random.Random(20260822)
        x = RationalPolynomial.variable()
        for _ in range(25):
            p = RationalPolynomial([F(rng.randint(-9, 9), rng.randint(1, 9))
                                    for _ in range(rng.randint(1, 5))])
            q = RationalPolynomial([F(rng.randint(-9, 9), rng.randint(1, 9))
                                    for _ in range(rng.randint(1, 5))])
            t = F(rng.randint(-20, 20), rng.randint(1, 10))
            assert (p + q)(t) == p(t) + q(t)
            assert (p - q)(t) == p(t) - q(t)
            assert (p * q)(t) == p(t) * q(t)
            if q.degree >= 0:
                quo, rem = divmod(p * q + x, q)
                assert quo * q + rem == p * q + x
                assert rem.degree < q.degree

    def test_scalar_on_either_side(self):
        x = RationalPolynomial.variable()
        assert 1 + x == x + 1 == RationalPolynomial([1, 1])
        assert F(1, 2) + x == x + F(1, 2) == RationalPolynomial([F(1, 2), 1])
        assert 1 - x == -(x - 1) == RationalPolynomial([1, -1])
        assert F(1, 3) - x == RationalPolynomial([F(1, 3), -1])
        assert 2 * x == x * 2 == x + x
        for bad in (0.5, "1"):
            with pytest.raises(TypeError):
                bad + x
            with pytest.raises(TypeError):
                bad - x

    def test_exact_division(self):
        x = RationalPolynomial.variable()
        p = (x - 3) * (x + F(1, 2))
        assert p.exact_div(x - 3) == x + F(1, 2)
        with pytest.raises(ValueError):
            (p + 1).exact_div(x - 3)

    def test_derivative(self):
        x = RationalPolynomial.variable()
        p = x * x * x - 4 * x + 7
        assert p.derivative() == 3 * x * x - 4

    def test_repr(self):
        assert repr(RationalPolynomial([0, 0])) == "RationalPolynomial(0)"
        shown = repr(RationalPolynomial([F(1, 2), 0, F(-3, 4), 2]))
        assert shown == "RationalPolynomial(1/2*x^0 + -3/4*x^2 + 2*x^3)"


def _canonical(poly: RationalPolynomial) -> bool:
    if poly.is_zero:
        return (poly.nums, poly.den) == ((), 1)
    return poly.den > 0 and gcd(poly.den, *poly.nums) == 1 and poly.nums[-1] != 0


class TestPolynomialExactness:
    """The integer-numerator polynomial class gives, on every operation, the
    outcomes (values, or exception types) recorded while it equalled the
    class it replaced, which held one Fraction per coefficient
    (`make_outcome_digests`); every result is in canonical form."""

    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_binary(self, name, request):
        check_recorded(request.node, binary_lines(name))

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary(self, name, request):
        check_recorded(request.node, unary_lines(name))

    def test_count_real_roots(self, request):
        check_recorded(request.node, count_real_roots_lines())

    def test_canonical_form(self):
        for a, b in PAIRS:
            x, y = RationalPolynomial(a), RationalPolynomial(b)
            results = [x, -x, x + y, x - y, x * y, x * F(-3, 8), x.derivative()]
            if not y.is_zero:
                results += divmod(x, y)
            for poly in results:
                assert _canonical(poly), (a, b, poly.nums, poly.den)
        assert (RationalPolynomial([0, F(0)]).nums, RationalPolynomial().den) == ((), 1)

    def test_equal_by_different_routes(self):
        for a, b in PAIRS:
            x, y = RationalPolynomial(a), RationalPolynomial(b)
            routes = [
                (x + y) - y,
                RationalPolynomial(x.coeffs),
                RationalPolynomial(list(a) + [0, 0]),
                -(-x),
                x * F(3, 7) * F(7, 3),
            ]
            if not y.is_zero:
                routes.append((x * y).exact_div(y))
                q, r = divmod(x, y)
                routes.append(q * y + r)
            for z in routes:
                assert z == x and hash(z) == hash(x), (a, b)
            assert x * y == y * x and hash(x * y) == hash(y * x)


class TestCountRealRoots:
    def test_two_integer_roots(self):
        x = RationalPolynomial.variable()
        p = x * x - 3 * x + 2
        assert count_real_roots(p, 0, F(5, 2)) == 2

    def test_no_real_roots(self):
        x = RationalPolynomial.variable()
        assert count_real_roots(x * x + 1, -10, 10) == 0

    def test_half_open_convention(self):
        # Powers of p keep the convention at endpoints that are multiple roots.
        x = RationalPolynomial.variable()
        p = (x - 1) * (x - 2)
        for q in (p, p * p, p * p * p):
            assert count_real_roots(q, 1, 2) == 1
            assert count_real_roots(q, 0, 1) == 1
            assert count_real_roots(q, 2, 5) == 0

    def test_irrational_roots(self):
        x = RationalPolynomial.variable()
        assert count_real_roots(x * x - 2, 0, 2) == 1
        assert count_real_roots(x * x - 2, -2, 2) == 2
        assert count_real_roots(x * x * x - 2 * x, -2, 2) == 3

    def test_multiple_roots_counted_once(self):
        x = RationalPolynomial.variable()
        p = (x - 1) * (x - 1) * (x + 3)
        assert count_real_roots(p, 0, 2) == 1
        # Endpoints at the double root -3 and the simple root -2, where
        # gcd(p, p') = x + 3 is linear.
        p = (x + 3) * (x + 3) * (x + 2)
        counts = [count_real_roots(p, lo, hi) for lo, hi in [(-4, -3), (-3, -2), (-4, -2)]]
        assert counts == [1, 1, 2]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(RationalPolynomial([]), 0, 1)

    def test_empty_interval_rejected(self):
        x = RationalPolynomial.variable()
        with pytest.raises(ValueError):
            count_real_roots(x, 1, 1)

    def test_random_products_of_known_roots(self):
        x = RationalPolynomial.variable()

        def check(roots, lo, hi):
            p = RationalPolynomial([1])
            for r in roots:
                p = p * (x - r)
            expected = sum(1 for r in roots if lo < r <= hi)
            for q in (p, p * p, p * p * p):
                assert count_real_roots(q, lo, hi) == expected, (sorted(roots), lo, hi)

        rng = random.Random(917)
        for _ in range(30):
            roots = set()
            while len(roots) < rng.randint(1, 4):
                roots.add(F(rng.randint(-12, 12), rng.randint(1, 6)))
            lo = F(rng.randint(-30, 10), rng.randint(1, 4))
            hi = lo + F(rng.randint(1, 40), rng.randint(1, 4))
            if rng.random() < 0.5:
                # Endpoints drawn from the roots too, so that they are
                # multiple roots of p * p and p * p * p.
                lo, hi = sorted(rng.sample(sorted(roots | {lo, hi}), 2))
            check(roots, lo, hi)
        # 6 to 8 distinct roots, so Sturm chains of 7 to 9 elements, with
        # both endpoints drawn from the roots: the sign count must drop the
        # zeros of long chains too.
        rng = random.Random(918)
        for _ in range(10):
            roots = set()
            size = rng.randint(6, 8)
            while len(roots) < size:
                roots.add(F(rng.randint(-12, 12), rng.randint(1, 6)))
            check(roots, *sorted(rng.sample(sorted(roots), 2)))


def test_recursion_middle_coefficient_roots_below_threshold():
    # The committed below-threshold point: the cleared middle coefficient of
    # the three-point recursion picks up a second zero in (1, 3].
    from jacobilin import make_params
    from jacobilin.analysis import iota_numerator_poly

    p = make_params(F(-81, 200), F(-181, 200))
    poly = iota_numerator_poly(p, 2, 0)
    assert count_real_roots(poly, 1, 3) == 2


def test_every_public_name_resolves():
    for name in jacobilin.__all__:
        assert hasattr(jacobilin, name), name
