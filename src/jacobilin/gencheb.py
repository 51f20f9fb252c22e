"""Generalized Chebyshev polynomials and their linearization.

T_{2r} = R_r(2x^2 - 1) and T_{2r+1} = x R+_r(2x^2 - 1), where R+ is the
companion family at (alpha, beta + 1) with coefficients g+.  The family
satisfies x T_n = a_n T_{n+1} + c_n T_{n-1} with a_n + c_n = 1, and products
T_m T_n decompose by parity:

  even * even  -> the even-position entries are exactly the R-family vector;
  odd  * odd   -> T_{2i+1} T_{2j+1} = sum_l g+(i, j; l) x T_{2l+1}, and
                  x T_{2l+1} = a_{2l+1} T_{2l+2} + c_{2l+1} T_{2l};
  mixed parity -> dividing x T_{2e} by x gives R_e = a_{2e} R+_e + c_{2e} R+_{e-1},
                  so g_T(2i+1, 2e; 2l+1) = a_{2e} g+(i, e; l) + c_{2e} g+(i, e-1; l).

Entries outside a vector's support count as 0; positions of the wrong parity
are stored as explicit zeros.  The recurrence rows (`gencheb_rec_coeffs`, a
`RecurrenceCoeffs` with b_n = 0) and the walker that evaluates T_n by them
(`walk_recurrence`) live in the jacobi module, next to the R-family rows.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .exact import Rational, to_fraction
from .jacobi import (
    _ZERO,
    FAMILY_GENCHEB,
    CoeffVector,
    gencheb_rec_coeffs,
    internal_error,
    jacobi_eval,
    linearize_jacobi,
    walk_recurrence,
)
from .params import JacobiParams, plus_params


def gencheb_eval(p: JacobiParams, n: int, x: Rational) -> Fraction:
    """Evaluate T_n at a rational point.

    The quadratic-transform value is cross-checked against the three-term
    recurrence; both routes must agree exactly.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    x = to_fraction(x)
    if n % 2 == 0:
        via_transform = jacobi_eval(p, n // 2, 2 * x * x - 1)
    else:
        via_transform = x * jacobi_eval(plus_params(p), (n - 1) // 2, 2 * x * x - 1)
    via_rec = walk_recurrence(p, FAMILY_GENCHEB, x, [Fraction(1)], n)[n]
    if via_transform != via_rec:
        raise internal_error(
            p, "gencheb-eval", "transform and recurrence evaluations disagree",
            n=n, x=x,
        )
    return via_transform


def _dot(x: Fraction, u: Fraction, y: Fraction, v: Fraction) -> Fraction:
    """x u + y v as one quotient of integers: one gcd."""
    xu, yv = x.denominator * u.denominator, y.denominator * v.denominator
    return Fraction(x.numerator * u.numerator * yv + y.numerator * v.numerator * xu, xu * yv)


def _padded(cv: CoeffVector, lo: int, hi: int) -> list[Fraction]:
    """The entries of cv at k = lo .. hi, zero outside its support."""
    return [_ZERO] * (cv.k_min - lo) + list(cv.values) + [_ZERO] * (hi - cv.k_max)


def _companion(p: JacobiParams, i: int, j: int) -> CoeffVector:
    """g+(i, j; .), smaller degree first (one cache key per vector).  An
    internal error there names p as well as the companion point."""
    try:
        return linearize_jacobi(plus_params(p), min(i, j), max(i, j))
    except RuntimeError as exc:
        raise RuntimeError(f"{exc}; companion of alpha={p.alpha}, beta={p.beta}") from exc


@lru_cache(maxsize=1024)
def linearize_gencheb(p: JacobiParams, m: int, n: int) -> CoeffVector:
    """Full coefficient vector of T_m T_n in the T basis, assembled by parity
    from at most two companion-family vectors (see the module docstring).
    Each odd*odd or mixed entry, a g+ + c g+', is one quotient (`_dot`)."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return CoeffVector(0, n, FAMILY_GENCHEB, (Fraction(1),))
    if m % 2 == 0 and n % 2 == 0:
        entries = linearize_jacobi(p, m // 2, n // 2).values
    elif m % 2 == 1 and n % 2 == 1:
        # At k = 2l: a_{2l-1} g+(l-1) + c_{2l+1} g+(l).
        cv = _companion(p, (m - 1) // 2, (n - 1) // 2)
        rows = [gencheb_rec_coeffs(p, 2 * ell + 1) for ell, _ in cv.items()]
        a_s, c_s = [_ZERO] + [r.a_n for r in rows], [r.c_n for r in rows] + [_ZERO]
        entries = map(_dot, a_s, (_ZERO, *cv.values), c_s, (*cv.values, _ZERO))
    else:
        # At k = 2l+1: a_{2e} g+(i, e; l) + c_{2e} g+(i, e-1; l).
        odd_arg, even_arg = (m, n) if m % 2 == 1 else (n, m)
        i, e = (odd_arg - 1) // 2, even_arg // 2
        row = gencheb_rec_coeffs(p, even_arg)
        lo, hi = (n - m - 1) // 2, (m + n - 1) // 2
        up, down = (_padded(_companion(p, i, j), lo, hi) for j in (e, e - 1))
        entries = map(_dot, repeat(row.a_n), up, repeat(row.c_n), down)
    # Only k = |m-n|, |m-n| + 2, .., m+n can be nonzero.
    vals = [_ZERO] * (2 * m + 1)
    vals[::2] = entries
    return CoeffVector(m, n, FAMILY_GENCHEB, tuple(vals))
