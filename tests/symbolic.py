"""Sparse polynomials with integer coefficients in several variables.

A formula of the library typed with +, - and * on ints runs unchanged on
`Poly`s, so two such formulas that are equal as polynomials are equal at
every parameter value, not only at the points a test visits."""

from itertools import zip_longest


class Poly:
    """A dict from exponent tuples to nonzero ints.  An exponent tuple has
    no trailing zeros, so the constant term is () and x_i is (0,) * i + (1,),
    and two equal polynomials have equal dicts."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {e: c for e, c in (terms or {}).items() if c}

    @classmethod
    def variables(cls, count: int) -> list:
        """The variables x_0 .. x_{count-1}."""
        return [cls({(0,) * i + (1,): 1}) for i in range(count)]

    @staticmethod
    def _of(x) -> "Poly":
        if isinstance(x, Poly):
            return x
        if isinstance(x, int):
            return Poly({(): x})
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
        out = {}
        for e, c in self.terms.items():
            for f, d in Poly._of(other).terms.items():
                k = tuple(i + j for i, j in zip_longest(e, f, fillvalue=0))
                out[k] = out.get(k, 0) + c * d
        return Poly(out)

    __radd__, __rmul__ = __add__, __mul__

    def __pow__(self, k: int):
        out = Poly({(): 1})
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return isinstance(other, (Poly, int)) and self.terms == Poly._of(other).terms

    def __repr__(self):
        return f"Poly({self.terms!r})"
