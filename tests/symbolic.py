"""Sparse polynomials with integer coefficients in several variables.

A formula of the library typed with +, - and * on ints runs unchanged on
`Poly`s, so two such formulas that are equal as polynomials are equal at
every parameter value, not only at the points a test visits.  `positive`
certifies a sign on a domain the same way, and `slipped` plants a typo in
a library formula, which such a proof must reject."""

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


def positive(poly: Poly, strict) -> bool:
    """A certificate that poly > 0 wherever the variables in `strict` are
    > 0 and the others are >= 0: every coefficient is positive, and some
    monomial uses only `strict` variables (that one is > 0, the rest >= 0).
    False says only that this certificate does not apply."""
    mask = sum(e * ((1 << WIDTH) - 1) for v in strict for e in v.terms)
    return all(c > 0 for c in poly.terms.values()) and any(not e & ~mask for e in poly.terms)


def slipped(fn, old, new):
    """`fn` recompiled from its source with the one `old` replaced by `new`."""
    source = inspect.getsource(fn)
    assert source.count(old) == 1, old
    scope = dict(fn.__globals__)
    exec(source.replace(old, new), scope)
    return scope[fn.__name__]
