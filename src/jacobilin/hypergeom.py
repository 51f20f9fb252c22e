"""Terminating hypergeometric closed forms for single linearization entries.

Two routes are provided:

* a general closed form for g(m, m+s; s+j) as a very-well-poised terminating
  9F8 at unit argument, valid strictly inside the open region a > 0, b > 0
  (one series for both parities of j), plus a companion single-formula
  variant valid for alpha >= beta >= -1/2;
* an ultraspherical product formula (alpha = beta), valid for alpha > -1/2.

On the boundary of the open region the 9F8 forms are limits only, and a few
isolated interior lines make denominator parameters hit nonpositive integers;
both cases raise SingularSeriesError rather than being evaluated.  Both 9F8
forms are very-well-poised series from one builder.  Each series is summed to
the term count its formula derives from a terminating numerator parameter, or
stops earlier at a zero numerator factor (see HypTermSum).

Every parameter of a closed form is an integer over one denominator q: for
the point's (d, alpha d, beta d, a d, b d) = `p.over_lcm_all`, q = 2d puts
alpha, beta, 1/2 and (alpha - beta)/2 all on the integers (the companion
form, whose series also halves beta + s + 1/2, takes q = 4d).  Every
prefactor and Dougall's product is a table of (X, n) factors above and below
the line, evaluated by `exact._rising_ratio` as one pair of integers, the
package's one evaluator of products of rising factorials; each series is
built from its integers over the same q and steps from term to term by its
term ratio on them (see HypTermSum).  No `Fraction` is formed from the
parameters: a closed form builds only the `Fraction`s it returns.
"""

from fractions import Fraction

from .exact import Rational, _over_lcm, _rising_ratio, to_fraction
from .jacobi import FAMILY_JACOBI, CoeffVector
from .params import JacobiParams

_HALF = Fraction(1, 2)


class SingularSeriesError(ValueError):
    """A denominator parameter hits a nonpositive integer before the series
    terminates; the value exists only as a limit (boundary limit required)."""


class HypTermSum:
    """A terminating hypergeometric sum at unit argument.

    value = sum_{r=0}^{term_count} prod (num_i)_r / (prod (den_j)_r * r!),
    held as integers over one q > 0: `HypTermSum(q, nums, dens, term_count)`
    has num_i = nums[i] / q and den_j = dens[j] / q.

    `evaluate` steps from term r-1 to term r by the term ratio
    prod (A_i + (r-1) q) / (r q**(#nums - #dens) prod (D_j + (r-1) q)) and
    sums over one growing denominator, the product of the ratios'
    denominators, so the value is one `Fraction`.  term_count comes from the
    terminating numerator parameter of the formula that builds the sum.
    Summation also stops at the first zero term, after that term's
    denominator is checked.  term_count stays explicit on purpose: a count
    derived from the smallest terminating parameter would skip that check and
    change which entries are singular.
    """

    __slots__ = ("q", "nums", "dens", "term_count")

    def __init__(self, q: int, nums: tuple, dens: tuple, term_count: int):
        self.q, self.nums, self.dens, self.term_count = q, nums, dens, term_count

    def evaluate(self) -> Fraction:
        q, nums, dens = self.q, self.nums, self.dens
        shift = len(nums) - len(dens)
        up, down = (1, q**shift) if shift >= 0 else (q**-shift, 1)
        term = total = den = 1
        for r in range(1, self.term_count + 1):
            off = (r - 1) * q
            step = r * down
            for x in dens:
                step *= x + off
            if not step:
                raise SingularSeriesError(
                    "denominator parameter vanishes before termination; "
                    "boundary limit required"
                )
            ratio = up
            for x in nums:
                ratio *= x + off
            if not ratio:
                break
            term *= ratio
            total = total * step + term
            den *= step
        return Fraction(total, den)


def _require_open_region(p: JacobiParams) -> None:
    if p.a > 0 and p.b > 0:
        return
    if p.a >= 0 and p.b >= 0:
        raise ValueError(
            "formula undefined without limit; use linearize_jacobi"
        )
    raise ValueError(
        "parameters outside the open region a > 0, b > 0; use linearize_jacobi"
    )


def _check_indices(m: int, s: int, j: int) -> None:
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    if not 0 <= j <= 2 * m:
        raise ValueError("offset j must lie in [0, 2m]")


def _very_well_poised(q: int, a: int, *bs: int, term_count: int) -> HypTermSum:
    """The very-well-poised series with numerators (a, 1 + a/2, *bs) and
    denominators (a/2, 1 + a - b for each b in bs), every parameter an
    integer over q and a even."""
    half = a // 2
    return HypTermSum(
        q, (a, q + half, *bs), (half, *(q + a - b for b in bs)), term_count
    )


def _prefactor(q: int, al: int, be: int, m: int, s: int, j: int, ups, downs) -> tuple[int, int]:
    """A 9F8 prefactor of g(m, m+s; s+j) as an integer pair, alpha = al/q and
    beta = be/q: the factors both forms share, times the (X, n) factors
    `ups` over `downs` of one form, every X over q."""
    a = al + be + q
    return _rising_ratio(
        q,
        [(a + (2 * s + 2 * j) * q, 1), ((s + 1) * q, m), (be + q, m + s), (a, 2 * s + j), *ups],
        [(a, 1), (q, j), (al + q, m), (a + q, 2 * m + 2 * s + j), *downs],
    )


def rahman_coefficient(p: JacobiParams, m: int, s: int, j: int) -> Fraction:
    """g(m, m+s; s+j) by the terminating 9F8 closed form, a > 0 and b > 0.

    One very-well-poised series serves both parities of j.  With e = j % 2,
    up = (j+e)/2 and down = (j-e)/2, the odd-j parameters are the even-j ones
    shifted by e (by e/2 where alpha is halved), the j/2 terms split into up
    and down, and the factor (alpha-beta)/(alpha+beta+1) enters as its e-th
    power.  The series is summed to r = down, but when j > m its parameter
    up - m reaches 0 first, and it stops after r = m - up.

    Over q = 2d, alpha = al/q, beta = be/q, a = al + be + q over q,
    1/2 = d/q, (alpha - beta)/2 = bd/q and (alpha + beta)/2 = (ad - d)/q.
    """
    _check_indices(m, s, j)
    _require_open_region(p)
    d, al, be, ad, bd = p.over_lcm_all
    q, al, be, a, h = 2 * d, 2 * al, 2 * be, 2 * ad, ad - d
    e = j % 2
    up, down = (j + e) // 2, (j - e) // 2
    pref_num, pref_den = _prefactor(
        q, al, be, m, s, j,
        [(a + m * q, m), (a, j), (-m * q, up), (a + (m + s) * q, up),
         (al + (s + 1 + up) * q, down), (-m * q - al, down), (be + (m + s + 1) * q, down),
         (d + e * q, down), (al - be, e)],
        [(be + q, s + j), (-m * q - h, up), (d - m * q - h, down), ((s + 1) * q, down),
         (al + (1 + e) * q, down), (a, e)],
    )
    series = _very_well_poised(
        q, al + e * q, al + d, bd + e * q, bd + d,
        a + (m + s + up) * q, (up - m) * q, (-s - down) * q, -down * q,
        term_count=down,
    )
    value = series.evaluate()
    return Fraction(pref_num * value.numerator, pref_den * value.denominator)


def rahman_special(p: JacobiParams, m: int, s: int, j: int) -> Fraction:
    """g(m, m+s; s+j) by the single-series companion form, alpha >= beta >= -1/2.

    The corner alpha = beta = -1/2 is excluded: a = 0 there divides the
    prefactor, so every entry raises SingularSeriesError.  At alpha = beta the
    odd-j values come out exactly zero.  Configurations where a denominator
    parameter vanishes before termination (alpha = beta with even j >= 2, or
    beta = -1/2 with s = 0) also raise SingularSeriesError.

    This route is library-only: nothing in the package calls it.  It is a
    second 9F8 form of entries that `rahman_coefficient` already routes where
    the two overlap, so it is deliberately not in `cli.METHODS` and `compare`
    records keep their method list.  Acceptance C3 and the hypergeometric
    tests check it against the Gasper vector.

    Over q = 4d, which keeps (beta + s + 1/2)/2 on the integers, alpha =
    al/q, beta = be/q, a = al + be + q over q and 1/2 = h/q.
    """
    _check_indices(m, s, j)
    if not (p.alpha >= p.beta >= -_HALF):
        raise ValueError(
            "companion formula needs alpha >= beta >= -1/2"
        )
    if p.a == 0:
        raise SingularSeriesError(
            "companion formula at alpha = beta = -1/2 divides by a = 0; "
            "boundary limit required"
        )
    d, al, be, ad, _ = p.over_lcm_all
    q, al, be, a, h = 4 * d, 4 * al, 4 * be, 4 * ad, 2 * d
    jh = j * h
    series = _very_well_poised(
        q, be + s * q + h, be + h, be + (m + s + 1) * q, -m * q - al,
        a // 2 + s * q + jh, (a + q) // 2 + s * q + jh, h - jh, -jh,
        term_count=j // 2,
    )
    value = series.evaluate()
    pref_num, pref_den = _prefactor(
        q, al, be, m, s, j,
        [(a + m * q, m), (-2 * m * q, j), (2 * a + (2 * m + 2 * s) * q, j), (al - be, j)],
        [(be + q, s), (-2 * m * q - al - be, j), (2 * be + (2 * s + 2) * q, j)],
    )
    return Fraction(pref_num * value.numerator, pref_den * value.denominator)


def dougall_coefficient(alpha: Rational, m: int, n: int) -> CoeffVector:
    """Ultraspherical product expansion (alpha = beta > -1/2) as a full vector.

    The entry at k = m + n - 2t is an explicit product; odd-offset positions
    are structural zeros of the ultraspherical family.  Over q = 2d, d the
    denominator of alpha, alpha + 1/2 = h/q and 2 alpha + 1 = 2h/q.
    """
    alpha = to_fraction(alpha)
    if alpha <= -_HALF:
        raise ValueError("ultraspherical closed form needs alpha > -1/2")
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    d, al = _over_lcm(alpha)
    q, h = 2 * d, 2 * al + d
    vals = [Fraction(0)] * (2 * m + 1)
    for t in range(m + 1):
        # t! C(m, t) C(n, t) = m! n! / (t! (m-t)! (n-t)!).
        vals[2 * (m - t)] = Fraction(*_rising_ratio(
            q,
            [(q, m), (q, n), (h, t), (h + (m + n - 2 * t) * q, 1), (h, m - t), (h, n - t),
             (2 * h, m + n - t)],
            [(q, t), (q, m - t), (q, n - t), (h + (m + n - t) * q, 1), (h, m + n - t),
             (2 * h, m), (2 * h, n)],
        ))
    den, *nums = _over_lcm(*vals)
    return CoeffVector(m, n, FAMILY_JACOBI, tuple(nums), den)
