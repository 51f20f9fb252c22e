"""Exact rational kernel.

Every scalar a caller sees is a `fractions.Fraction`; nothing in this module
(or in any module built on it) touches floating point.  Provides Pochhammer
symbols, dense rational polynomials, and Sturm root counting with the
half-open (lo, hi] convention, from one remainder sequence per count.

The Sturm chain runs on integer lists, not on `RationalPolynomial`s: only the
signs of its elements matter, so each element is kept as a primitive integer
multiple of the rational one, formed by pseudo-division and read by integer
Horner, and no step normalizes a rational polynomial or builds a `Fraction`.
`_convolve` is the integer product of coefficient lists that
`RationalPolynomial`, the recurrence walk and the brute-force oracle share.

Pochhammer symbols are evaluated on integer numerators: for x = X/Q the
rising factorial is the integer product (X)(X+Q)...(X+(n-1)Q) over Q**n.
`_rising_ratio` is the one evaluator of products of rising factorials: it
takes (X, n) pairs above and below the line over one Q and returns an
integer pair.  `pochhammer` is one such pair over x's own denominator, and
the 9F8 closed forms pass their tables over the point's Q, so a closed form
costs one `Fraction` (one gcd) however many factors it has, instead of one
normalization per factor.
"""

from fractions import Fraction
from math import gcd, lcm, prod

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


def _rising_ratio(q: int, ups, downs) -> tuple[int, int]:
    """(num, den) with num / den the product of (X/q)_n over the (X, n)
    pairs in `ups`, divided by the product over `downs`, for q > 0 and every
    n >= 0: the products of _rising(X, q, n), with the powers of q netted on
    one side.  den is 0 when a product below the line is."""
    num, den, shift = 1, 1, 0
    for x, n in ups:
        num *= _rising(x, q, n)
        shift -= n
    for x, n in downs:
        den *= _rising(x, q, n)
        shift += n
    if shift > 0:
        return num * q**shift, den
    return num, den * q**-shift


def pochhammer(x: Rational, n: int) -> Fraction:
    """Rising factorial (x)_n = x (x+1) ... (x+n-1), with (x)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    x = to_fraction(x)
    return Fraction(*_rising_ratio(x.denominator, [(x.numerator, n)], ()))


def _convolve(xs, ys) -> list[int]:
    """The coefficient list of the product of two nonempty integer lists."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a:
            for j, b in enumerate(ys, i):
                out[j] += a * b
    return out


class RationalPolynomial:
    """Dense univariate polynomial with exact rational coefficients.

    Immutable.  Stored as integer numerators `nums` over one positive common
    denominator `den` in lowest terms, gcd(den, *nums) == 1, with trailing
    zeros stripped, so the zero polynomial is ((), 1) and has degree -1.
    Sums, products, pseudo-division, derivatives and Horner evaluation run on
    the integers with one gcd normalization per result; `coeffs[i]`, the
    coefficient of x**i as a `Fraction`, is formed when asked for.
    """

    __slots__ = ("nums", "den")

    def __init__(self, coeffs=()):
        cs = [to_fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: list, den: int) -> None:
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums) if den > 0 else -gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(x // g for x in nums))
        object.__setattr__(self, "den", den // g)

    @classmethod
    def _of(cls, nums: list, den: int) -> "RationalPolynomial":
        """sum(nums[i] x**i) / den in canonical form, for any den != 0."""
        poly = cls.__new__(cls)
        poly._set(nums, den)
        return poly

    @classmethod
    def variable(cls) -> "RationalPolynomial":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.nums)

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self.nums

    def coefficient(self, i: int) -> Fraction:
        return Fraction(self.nums[i], self.den) if 0 <= i < len(self.nums) else Fraction(0)

    def __call__(self, x: Rational) -> Fraction:
        # Homogenized Horner on x = xn / xd: acc = sum c_i xn**i xd**(d-i).
        x = to_fraction(x)
        xn, xd = x.numerator, x.denominator
        acc, scale = 0, 1
        for c in reversed(self.nums):
            acc = acc * xn + c * scale
            scale *= xd
        return Fraction(acc * xd, self.den * scale)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalPolynomial) and (
            self.den == other.den and self.nums == other.nums
        )

    def __hash__(self):
        return hash((self.nums, self.den))

    def __repr__(self):
        if self.is_zero:
            return "RationalPolynomial(0)"
        parts = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "RationalPolynomial(" + " + ".join(parts) + ")"

    def __neg__(self):
        return RationalPolynomial._of([-c for c in self.nums], self.den)

    def __add__(self, other):
        long_, short = self, self._coerce(other)
        if len(long_.nums) < len(short.nums):
            long_, short = short, long_
        big_l = lcm(long_.den, short.den)
        out = [c * (big_l // long_.den) for c in long_.nums]
        scale = big_l // short.den
        for i, c in enumerate(short.nums):
            out[i] += c * scale
        return RationalPolynomial._of(out, big_l)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial._of(
                [c * other.numerator for c in self.nums], self.den * other.denominator
            )
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return RationalPolynomial()
        return RationalPolynomial._of(_convolve(self.nums, other.nums), self.den * other.den)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "RationalPolynomial":
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (Fraction, int)):
            return RationalPolynomial([other])
        raise TypeError(f"cannot combine RationalPolynomial with {type(other)!r}")

    def __divmod__(self, other):
        """Pseudo-division on the numerators A, B: each step scales by
        lead / gcd(lead, top), keeping S A = Q B + R on the integers, so
        self = (Q other.den) / (S self.den) * other + R / (S self.den)."""
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, d = list(self.nums), other.nums
        if len(rem) < len(d):
            return RationalPolynomial(), self
        lead, top = d[-1], len(d) - 1
        q = [0] * (len(rem) - top)
        scale = 1
        for i in range(len(q) - 1, -1, -1):
            c = rem.pop()
            if c:
                g = gcd(lead, c)
                ell, c = lead // g, c // g
                if ell != 1:
                    rem = [r * ell for r in rem]
                    q = [t * ell for t in q]
                    scale *= ell
                q[i] = c
                for j in range(top):
                    rem[i + j] -= c * d[j]
        den = scale * self.den
        quotient = RationalPolynomial._of([t * other.den for t in q], den)
        return quotient, RationalPolynomial._of(rem, den)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "RationalPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div with nonzero remainder")
        return q

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial._of(
            [i * c for i, c in enumerate(self.nums)][1:], self.den
        )


def _primitive(nums: list[int]) -> list[int]:
    """nums over the gcd of its entries: a positive multiple, primitive."""
    g = gcd(*nums)
    return [c // g for c in nums] if g > 1 else nums


def _sturm_chain(p: RationalPolynomial) -> list[list[int]]:
    """p's Sturm chain as primitive integer lists, each a positive multiple of
    the rational element: p's numerators, their derivative, and then
    -(previous mod current) by pseudo-division with |lead|, which scales the
    remainder by a power of |lead| > 0.  Ends at the last nonzero element."""
    first = _primitive(list(p.nums))
    chain = [first, _primitive([i * c for i, c in enumerate(first)][1:])]
    while chain[-1]:
        rem, d = list(chain[-2]), chain[-1]
        if d[-1] < 0:
            d = [-c for c in d]
        lead, top = d[-1], len(d) - 1
        while len(rem) > top:
            c = rem.pop()
            if c:
                rem = [r * lead for r in rem]
                i = len(rem) - top
                for j in range(top):
                    rem[i + j] -= c * d[j]
        while rem and rem[-1] == 0:
            rem.pop()
        chain.append(_primitive([-r for r in rem]))
    chain.pop()
    return chain


def _exact_quotient(nums: list[int], g: list[int]) -> list[int]:
    """nums / g for a primitive g that divides nums over the rationals: by
    Gauss's lemma the quotient has integer coefficients, so every step of the
    long division is an exact integer division."""
    rem, top = list(nums), len(g) - 1
    q = [0] * (len(rem) - top)
    for i in range(len(q) - 1, -1, -1):
        q[i] = rem.pop() // g[-1]
        for j in range(top):
            rem[i + j] -= q[i] * g[j]
    return q


def _sign_variations(chain, x: Fraction) -> int:
    """Sign changes along the integer lists at x = xn / xd, zeros dropped:
    each sign is read from homogenized Horner, sum c_i xn**i xd**(d-i), which
    has the sign of the value because xd > 0."""
    xn, xd = x.numerator, x.denominator
    signs = []
    for q in chain:
        acc, scale = 0, 1
        for c in reversed(q):
            acc = acc * xn + c * scale
            scale *= xd
        if acc:
            signs.append(acc > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def count_real_roots(p: RationalPolynomial, lo: Rational, hi: Rational) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    Multiplicities are ignored: the chain of p ends in g = gcd(p, p') up to a
    constant, and when g has positive degree every element is divided by it.
    The quotients form a Sturm sequence of the squarefree part p/g, whose
    second element p'/g is nonzero at each of its roots.  Sign variations are
    taken with zeros dropped, which yields exactly the (lo, hi] convention:
    a root at lo is excluded, a root at hi included.

    The chain runs on integer lists (`_sturm_chain`), each element a positive
    multiple of the rational one, so every sign, and the count, is the same;
    the division by g is exact on the integers (`_exact_quotient`).
    """
    if p.is_zero:
        raise ValueError("indeterminate root count for the zero polynomial")
    lo, hi = to_fraction(lo), to_fraction(hi)
    if not lo < hi:
        raise ValueError("count_real_roots needs lo < hi")
    chain = _sturm_chain(p)
    g = chain[-1]
    if len(g) > 1:
        chain = [_exact_quotient(q, g) for q in chain]
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)
