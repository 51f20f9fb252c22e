"""Parameter validation and exact region membership.

Parameters live in the reparametrized plane a = alpha + beta + 1, b = alpha -
beta.  Region predicates are exact polynomial sign tests in (a, b):

  Delta   : a >= 0 and b >= 0
  V       : b >= 0 and (a^2 + 2 b^2 + 3a)(a+3)(a+5) >= 3 (a+1)(a+2) b^2
  V'      : b >= 0 and a^2 + 2 b^2 + 3a >= 0

with interiors given by the strict versions.  The threshold test
4 a^2 + 11 a + 3 > 0 is the rational surrogate for a > -11/8 + sqrt(73)/8.
"""

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache

from .exact import Rational, _over_lcm, to_fraction


@dataclass(frozen=True)
class JacobiParams:
    """A parameter point (alpha, beta), alpha, beta > -1, coerced to exact
    `Fraction`s; a = alpha + beta + 1 and b = alpha - beta are derived.
    Equality and hash read (alpha, beta) only; the hash is computed once, as
    every cache lookup keyed on the point takes it.  The integer forms that
    the kernels read, `over_lcm_ab` and `over_lcm_all`, are derived on first
    use and kept."""

    alpha: Fraction
    beta: Fraction
    a: Fraction = field(init=False, compare=False)
    b: Fraction = field(init=False, compare=False)

    def __post_init__(self):
        alpha, beta = to_fraction(self.alpha), to_fraction(self.beta)
        if alpha <= -1 or beta <= -1:
            raise ValueError(
                "parameters out of positive-definite range: need alpha > -1 and beta > -1"
            )
        values = {"alpha": alpha, "beta": beta, "a": alpha + beta + 1, "b": alpha - beta,
                  "_hash": hash((alpha, beta))}
        for name, value in values.items():
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    @cached_property
    def over_lcm_ab(self) -> tuple[int, int, int]:
        """(L, aL, bL), L the least common denominator of a and b."""
        return _over_lcm(self.a, self.b)

    @cached_property
    def over_lcm_all(self) -> tuple[int, int, int, int, int]:
        """(d, alpha d, beta d, a d, b d), d the least common denominator of
        alpha, beta, a and b."""
        return _over_lcm(self.alpha, self.beta, self.a, self.b)


def make_params(alpha: Rational, beta: Rational) -> JacobiParams:
    """The point (alpha, beta): the same constructor as JacobiParams."""
    return JacobiParams(alpha, beta)


@lru_cache(maxsize=16)
def plus_params(p: JacobiParams) -> JacobiParams:
    """The companion point (alpha, beta+1); in (a, b) terms, (a+1, b-1).
    Cached, so a point's companion is one object, built once."""
    return make_params(p.alpha, p.beta + 1)


class RegionLabel(str, Enum):
    DELTA_INTERIOR = "Δ°"
    DELTA_BOUNDARY_IN_V = "∂Δ∩V"
    V_INTERIOR_OFF_DELTA = "V°\\Δ"
    V_BOUNDARY = "∂V"
    VPRIME_ONLY = "V′\\V"
    OUTSIDE_VPRIME = "outside V′"


@dataclass(frozen=True)
class RegionReport:
    in_delta: bool
    in_delta_interior: bool
    in_v: bool
    in_v_interior: bool
    in_vprime: bool
    above_iota_threshold: bool
    on_iota_threshold: bool
    label: RegionLabel


def _gasper_qv(one, a, b, s=0):
    """(Q L^2, V_s L^4) for a and b given as integers over L (one = L), with

        Q   = a^2 + 2b^2 + 3a,
        V_s = Q (2s + a + 3)(2s + a + 5) - 3(a+1)(a+2) b^2.

    Q >= 0 with b >= 0 defines V', V_0 >= 0 with b >= 0 defines V, and V_s
    is the value at m = 2 of both of Gasper's simplified second coefficients
    (`analysis.gasper_simplification_values`).  Only +, - and * touch the
    arguments, so tests/test_analysis.py runs it on polynomials."""
    q = a * a + 2 * b * b + 3 * a * one
    s2 = 2 * s * one
    return q, q * (s2 + a + 3 * one) * (s2 + a + 5 * one) - 3 * (a + one) * (a + 2 * one) * b * b


def classify_region(p: JacobiParams) -> RegionReport:
    a, b = p.a, p.b
    in_delta = a >= 0 and b >= 0
    in_delta_interior = a > 0 and b > 0
    q, v = _gasper_qv(*p.over_lcm_ab)
    in_v = b >= 0 and v >= 0
    in_v_interior = b > 0 and v > 0
    in_vprime = b >= 0 and q >= 0
    above = 4 * a * a + 11 * a + 3 > 0

    if in_delta_interior:
        label = RegionLabel.DELTA_INTERIOR
    elif in_delta:
        label = RegionLabel.DELTA_BOUNDARY_IN_V
    elif in_v_interior:
        label = RegionLabel.V_INTERIOR_OFF_DELTA
    elif in_v:
        label = RegionLabel.V_BOUNDARY
    elif in_vprime:
        label = RegionLabel.VPRIME_ONLY
    else:
        label = RegionLabel.OUTSIDE_VPRIME

    return RegionReport(
        in_delta=in_delta,
        in_delta_interior=in_delta_interior,
        in_v=in_v,
        in_v_interior=in_v_interior,
        in_vprime=in_vprime,
        above_iota_threshold=above,
        on_iota_threshold=False,  # 4a^2 + 11a + 3 has no rational root (discriminant 73)
        label=label,
    )
