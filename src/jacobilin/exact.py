"""Exact rational kernel.

Every scalar a caller sees is a `fractions.Fraction`; nothing in this module
(or in any module built on it) touches floating point.  Provides Pochhammer
symbols, dense rational polynomials, and Sturm root counting with the
half-open (lo, hi] convention, from one remainder sequence per count.

Pochhammer symbols are evaluated on integer numerators: for x = X/Q the
rising factorial is the integer product (X)(X+Q)...(X+(n-1)Q) over Q**n, so
a result costs one `Fraction` (one gcd) however long the product, instead of
one normalization per factor.
"""

from fractions import Fraction
from math import lcm, prod

Rational = Fraction | int | str


def to_fraction(x: Rational) -> Fraction:
    """Coerce an int, a "p/q" string, or a Fraction to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing to coerce a float; pass an exact rational")
    return Fraction(x)


def _over_lcm(*xs: Fraction) -> tuple[int, ...]:
    """(L, x_1 L, ..., x_k L) for L the least common denominator of the x_i,
    so that every x_i, and every integer combination of them, is an integer
    over L."""
    big_l = lcm(*(x.denominator for x in xs))
    return (big_l, *(x.numerator * (big_l // x.denominator) for x in xs))


def _rising(x_num: int, step: int, n: int) -> int:
    """Integer product x_num (x_num + step) ... (x_num + (n-1) step), for
    step > 0; with x = x_num / step it equals step**n * (x)_n."""
    return prod(range(x_num, x_num + n * step, step))


def pochhammer(x: Rational, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    x = to_fraction(x)
    q = x.denominator
    return Fraction(_rising(x.numerator, q, n), q**n)


class RationalPolynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Immutable; `coeffs[i]` is the coefficient of x**i with trailing zeros
    stripped, so the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __call__(self, x: Rational) -> Fraction:
        x = to_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(0)"
        parts = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "RationalPolynomial(" + " + ".join(parts) + ")"

    def __neg__(self):
        return RationalPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RationalPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial([c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return RationalPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial([other])
        raise TypeError(f"cannot combine RationalPolynomial with {type(other)!r}")

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        if len(rem) < len(other.coeffs):
            return RationalPolynomial(), self
        q = [Fraction(0)] * (len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        for i in range(len(q) - 1, -1, -1):
            c = rem[i + len(d) - 1] / d[-1]
            q[i] = c
            if c != 0:
                for j, dj in enumerate(d):
                    rem[i + j] -= c * dj
        return RationalPolynomial(q), RationalPolynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "RationalPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div with nonzero remainder")
        return q

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )


def _sturm_chain(p: RationalPolynomial) -> list[RationalPolynomial]:
    chain = [p, p.derivative()]
    while not chain[-1].is_zero:
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for q in chain:
        v = q(x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(p: RationalPolynomial, lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Multiplicities are ignored: the chain of p ends in g = gcd(p, p') up to a
    constant, and when g has positive degree every element is divided by it.
    The quotients form a Sturm sequence of the squarefree part p/g, whose
    second element p'/g is nonzero at each of its roots.  Sign variations are
    taken with zeros dropped, which yields exactly the (lo, hi] convention:
    a root at lo is excluded, a root at hi included.
    """
    if p.is_zero:
        raise ValueError("indeterminate root count for the zero polynomial")
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not lo < hi:
        raise ValueError("count_real_roots needs lo < hi")
    chain = _sturm_chain(p)
    g = chain[-1]
    if g.degree > 0:
        chain = [q.exact_div(g) for q in chain]
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)
