"""Sparse polynomials with integer coefficients in several variables, and
the one runner of the proofs made with them.

A formula of the library typed with +, - and * on ints runs unchanged on
`Poly`s, so two such formulas that are equal as polynomials are equal at
every parameter value, not only at the points a test visits.  `equal`
compares two (numerator, denominator) pairs, and `positive` certifies a sign
on a domain the same way.  A test class that subclasses `Proofs` lists its
proofs, and typos to plant in library formulas, which its proofs must
reject; `Proofs` runs both."""

import inspect

# The exponent of x_i sits in bits WIDTH i .. WIDTH (i+1) - 1 of one int, so
# multiplying two monomials is one integer addition.  A field overflows only
# at degree 2**WIDTH, far beyond any polynomial a test can build.
WIDTH = 32


class Poly:
    """A dict from packed exponents to nonzero ints.  The constant term is
    0 and x_i is 1 << (WIDTH i), and two equal polynomials have equal
    dicts."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def variables(cls, count: int) -> list:
        """The variables x_0 .. x_{count-1}."""
        return [cls({1 << (WIDTH * i): 1}) for i in range(count)]

    @staticmethod
    def _of(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, int):
            return Poly({0: x})
        raise TypeError(f"cannot combine Poly with {type(x)!r}")

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in Poly._of(other).terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -Poly._of(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        theirs = Poly._of(other).terms.items()
        out = {}
        get = out.get
        for e, c in self.terms.items():
            for f, d in theirs:
                out[e + f] = get(e + f, 0) + c * d
        return Poly(out)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k: int):
        out = Poly({0: 1})
        for _ in range(k):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, (Poly, int)) and self.terms == Poly._of(other).terms

    def __repr__(self):
        return f"Poly({self.terms!r})"


def equal(sides) -> bool:
    """lhs == rhs for the (numerator, denominator) pairs (lhs, rhs)."""
    (l_n, l_d), (r_n, r_d) = sides
    return l_n * r_d == r_n * l_d


def positive(poly: Poly, strict) -> bool:
    """A certificate that poly > 0 wherever the variables in `strict` are
    > 0 and the others are >= 0: every coefficient is positive, and some
    monomial uses only `strict` variables (that one is > 0, the rest >= 0).
    False says only that this certificate does not apply."""
    mask = sum(e * ((1 << WIDTH) - 1) for v in strict for e in v.terms)
    return all(c > 0 for c in poly.terms.values()) and any(not e & ~mask for e in poly.terms)


class Proofs:
    """A test class's proofs.  PROOFS maps each identity to a zero-argument
    callable that is true when the identity holds for all parameters, and
    SLIPS maps each slip id to (identity, module, helper, old, new): with
    `helper` recompiled from its source with its one `old` replaced by `new`,
    and set in the `module` that reads it, the identity's proof must be
    false."""

    PROOFS: dict = {}
    SLIPS: dict = {}

    def pytest_generate_tests(self, metafunc):
        for name, table in (("identity", self.PROOFS), ("slip", self.SLIPS)):
            if name in metafunc.fixturenames:
                metafunc.parametrize(name, list(table))

    def test_identity_holds(self, identity):
        assert self.PROOFS[identity]()

    def test_planted_slip_fails(self, monkeypatch, slip):
        identity, module, helper, old, new = self.SLIPS[slip]
        fn = getattr(module, helper)
        source = inspect.getsource(fn)
        assert source.count(old) == 1, old
        scope = dict(fn.__globals__)
        exec(source.replace(old, new), scope)
        monkeypatch.setattr(module, helper, scope[fn.__name__])
        assert not self.PROOFS[identity]()
