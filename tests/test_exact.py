"""Rational building blocks: Pochhammer products, polynomial algebra,
exact real-root counting, and the package's public names."""

import random
from fractions import Fraction
from math import gcd

import pytest

import jacobilin
from jacobilin.exact import (
    RationalPolynomial,
    count_real_roots,
    pochhammer,
    to_fraction,
)

from kernel_reference import RefPolynomial, outcome, ref_pochhammer

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


def _random_coeffs(rng: random.Random) -> list:
    """Coefficients of a random polynomial: zero, constant or of degree up to
    8, with numerators and denominators of up to 200 bits, some zero entries,
    a negative leading coefficient half the time, and sometimes trailing
    zeros or plain ints."""
    kind = rng.randrange(8)
    if kind == 0:
        return [0] * rng.randint(0, 2)
    bits = rng.choice((3, 30, 200))
    degree = 0 if kind == 1 else rng.randint(1, 8)
    cs = [
        F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        if rng.random() < 0.8 else F(0)
        for _ in range(degree + 1)
    ]
    cs[-1] = (-1) ** rng.randint(0, 1) * (abs(cs[-1]) or F(rng.randint(1, 9), 7))
    if kind == 2:
        cs = [c.numerator for c in cs]
    if kind == 3:
        cs += [0, F(0)]
    return cs


def _random_pool(rng: random.Random, size: int) -> list:
    """`size` random coefficient lists, then repeats of some of them, bare or
    with a trailing zero, so that some neighbours are equal polynomials."""
    pool = [_random_coeffs(rng) for _ in range(size)]
    return pool + [cs + [0] for cs in pool[::40]] + pool[::50]


def _plain(x):
    """A polynomial as its Fraction coefficients, so that results of the two
    classes compare by value."""
    if isinstance(x, (RationalPolynomial, RefPolynomial)):
        return ("poly", x.coeffs)
    if isinstance(x, tuple):
        return tuple(_plain(v) for v in x)
    return x


def _canonical(poly: RationalPolynomial) -> bool:
    if poly.is_zero:
        return (poly.nums, poly.den) == ((), 1)
    return poly.den > 0 and gcd(poly.den, *poly.nums) == 1 and poly.nums[-1] != 0


class TestPolynomialExactness:
    """The integer-numerator polynomial class equals `RefPolynomial`, which
    held one Fraction per coefficient, exactly on every operation, and raises
    the same exception types; every result is in canonical form."""

    POOL = _random_pool(random.Random(20261018), 520)
    PAIRS = list(zip(POOL, POOL[1:] + POOL[:1]))
    POINTS = [F(0), F(1), F(-1), F(3, 7), F(-22, 5), F(2**70 + 1, 3**40), 5]

    BINARY = {
        "add": lambda x, y: x + y,
        "sub": lambda x, y: x - y,
        "mul": lambda x, y: x * y,
        "divmod": divmod,
        "mod": lambda x, y: x % y,
        "exact_div": lambda x, y: x.exact_div(y),
        "exact_div_of_product": lambda x, y: (x * y).exact_div(y),
        "eq": lambda x, y: x == y,
    }
    UNARY = {
        "neg": lambda x: -x,
        "derivative": lambda x: x.derivative(),
        "degree": lambda x: (x.degree, x.is_zero),
        "coefficient": lambda x: tuple(x.coefficient(i) for i in range(-1, 11)),
        "scalar_mul": lambda x: (x * F(-7, 12), F(5, 3) * x, x * 0, 3 * x, x * -2),
        "scalar_add": lambda x: (x + F(1, 3), x - 4),
        "mul_float": lambda x: x * 0.5,
        "add_text": lambda x: x + "1",
        "eval": lambda x: tuple(x(t) for t in TestPolynomialExactness.POINTS),
        "eval_float": lambda x: x(0.5),
    }

    @pytest.mark.parametrize("name", sorted(BINARY))
    def test_binary(self, name):
        op = self.BINARY[name]
        for a, b in self.PAIRS:
            got = outcome(op, RationalPolynomial(a), RationalPolynomial(b))
            want = outcome(op, RefPolynomial(a), RefPolynomial(b))
            assert _plain(got) == _plain(want), (name, a, b)

    @pytest.mark.parametrize("name", sorted(UNARY))
    def test_unary(self, name):
        op = self.UNARY[name]
        for a in self.POOL:
            got = outcome(op, RationalPolynomial(a))
            assert _plain(got) == _plain(outcome(op, RefPolynomial(a))), (name, a)

    def test_count_real_roots(self):
        rng = random.Random(7)
        for a in self.POOL[::2]:
            lo = F(rng.randint(-40, 20), rng.randint(1, 5))
            hi = lo + F(rng.randint(-1, 40), rng.randint(1, 5))
            got = outcome(count_real_roots, RationalPolynomial(a), lo, hi)
            assert got == outcome(count_real_roots, RefPolynomial(a), lo, hi), (a, lo, hi)

    def test_canonical_form(self):
        for a, b in self.PAIRS:
            x, y = RationalPolynomial(a), RationalPolynomial(b)
            results = [x, -x, x + y, x - y, x * y, x * F(-3, 8), x.derivative()]
            if not y.is_zero:
                results += divmod(x, y)
            for poly in results:
                assert _canonical(poly), (a, b, poly.nums, poly.den)
        assert (RationalPolynomial([0, F(0)]).nums, RationalPolynomial().den) == ((), 1)

    def test_equal_by_different_routes(self):
        for a, b in self.PAIRS:
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

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            count_real_roots(RationalPolynomial([]), 0, 1)

    def test_empty_interval_rejected(self):
        x = RationalPolynomial.variable()
        with pytest.raises(ValueError):
            count_real_roots(x, 1, 1)

    def test_random_products_of_known_roots(self):
        rng = random.Random(917)
        x = RationalPolynomial.variable()
        for _ in range(30):
            roots = set()
            while len(roots) < rng.randint(1, 4):
                roots.add(F(rng.randint(-12, 12), rng.randint(1, 6)))
            p = RationalPolynomial([1])
            for r in roots:
                p = p * (x - r)
            lo = F(rng.randint(-30, 10), rng.randint(1, 4))
            hi = lo + F(rng.randint(1, 40), rng.randint(1, 4))
            if rng.random() < 0.5:
                # Endpoints drawn from the roots too, so that they are
                # multiple roots of p * p and p * p * p.
                lo, hi = sorted(rng.sample(sorted(roots | {lo, hi}), 2))
            expected = sum(1 for r in roots if lo < r <= hi)
            for q in (p, p * p, p * p * p):
                assert count_real_roots(q, lo, hi) == expected


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
