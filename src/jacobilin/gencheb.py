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
from math import gcd, lcm

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


def _padded(cv: CoeffVector, lo: int, hi: int) -> list[int]:
    """The numerators of cv at k = lo .. hi, zero outside its support."""
    return [0] * (cv.k_min - lo) + list(cv.nums) + [0] * (hi - cv.k_max)


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

    Even*even reuses the jacobi vector's numerators and denominator.  Each
    odd*odd or mixed entry, a g+ + c g+', is one integer numerator over
    R D, with R the lcm of the row denominators and D that of the companion
    vectors; the entries are reduced together by one gcd."""
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return CoeffVector._of(0, n, FAMILY_GENCHEB, (1,), 1)
    if m % 2 == 0 and n % 2 == 0:
        cv = linearize_jacobi(p, m // 2, n // 2)
        entries, den = cv.nums, cv.den
    elif m % 2 == 1 and n % 2 == 1:
        # At k = 2l: a_{2l-1} g+(l-1) + c_{2l+1} g+(l).
        cv = _companion(p, (m - 1) // 2, (n - 1) // 2)
        rows = [gencheb_rec_coeffs(p, 2 * ell + 1) for ell in range(cv.k_min, cv.k_max + 1)]
        big_r = lcm(*(r.a_n.denominator for r in rows), *(r.c_n.denominator for r in rows))
        a_s = [0] + [r.a_n.numerator * (big_r // r.a_n.denominator) for r in rows]
        c_s = [r.c_n.numerator * (big_r // r.c_n.denominator) for r in rows] + [0]
        g_plus = (0, *cv.nums, 0)
        entries = [a * u + c * v for a, u, c, v in zip(a_s, g_plus, c_s, g_plus[1:])]
        den = big_r * cv.den
    else:
        # At k = 2l+1: a_{2e} g+(i, e; l) + c_{2e} g+(i, e-1; l).
        odd_arg, even_arg = (m, n) if m % 2 == 1 else (n, m)
        i, e = (odd_arg - 1) // 2, even_arg // 2
        row = gencheb_rec_coeffs(p, even_arg)
        lo, hi = (n - m - 1) // 2, (m + n - 1) // 2
        up, down = _companion(p, i, e), _companion(p, i, e - 1)
        big_r = lcm(row.a_n.denominator, row.c_n.denominator)
        big_d = lcm(up.den, down.den)
        a = row.a_n.numerator * (big_r // row.a_n.denominator) * (big_d // up.den)
        c = row.c_n.numerator * (big_r // row.c_n.denominator) * (big_d // down.den)
        entries = [
            a * u + c * v for u, v in zip(_padded(up, lo, hi), _padded(down, lo, hi))
        ]
        den = big_r * big_d
    # Only k = |m-n|, |m-n| + 2, .., m+n can be nonzero.  The even*even
    # entries are in lowest terms already.
    g = gcd(den, *entries) if m % 2 or n % 2 else 1
    nums = [0] * (2 * m + 1)
    nums[::2] = [x // g for x in entries] if g != 1 else entries
    return CoeffVector._of(m, n, FAMILY_GENCHEB, nums, den // g)
