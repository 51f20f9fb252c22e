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

from .exact import Rational, to_fraction
from .jacobi import (
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


@lru_cache(maxsize=1024)
def linearize_gencheb(p: JacobiParams, m: int, n: int) -> CoeffVector:
    """Full coefficient vector of T_m T_n in the T basis, assembled by parity
    from at most two companion-family vectors (see the module docstring)."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return CoeffVector(0, n, FAMILY_GENCHEB, (Fraction(1),))
    k_lo = n - m
    vals = [Fraction(0)] * (2 * m + 1)
    if m % 2 == 0 and n % 2 == 0:
        gr = linearize_jacobi(p, m // 2, n // 2)
        for k, v in gr.items():
            vals[2 * k - k_lo] = v
    elif m % 2 == 1 and n % 2 == 1:
        cv = linearize_jacobi(plus_params(p), (m - 1) // 2, (n - 1) // 2)
        for ell, v in cv.items():
            row = gencheb_rec_coeffs(p, 2 * ell + 1)
            vals[2 * ell + 2 - k_lo] += row.a_n * v
            vals[2 * ell - k_lo] += row.c_n * v
    else:
        odd_arg, even_arg = (m, n) if m % 2 == 1 else (n, m)
        i, e = (odd_arg - 1) // 2, even_arg // 2
        row = gencheb_rec_coeffs(p, even_arg)
        pp = plus_params(p)
        # Companion vectors are read with their smaller degree first, so
        # each has one key in the linearize_jacobi cache.
        for scale, j in ((row.a_n, e), (row.c_n, e - 1)):
            for ell, v in linearize_jacobi(pp, min(i, j), max(i, j)).items():
                vals[2 * ell + 1 - k_lo] += scale * v
    return CoeffVector(m, n, FAMILY_GENCHEB, tuple(vals))
