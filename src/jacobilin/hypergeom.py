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

Every prefactor, every series term, and Dougall's product is a table of
(x, n) factors above and below the line, evaluated by `exact.pochhammer_ratio`
as one quotient of integers: the package has one evaluator for products of
rising factorials.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import Rational, pochhammer_ratio, to_fraction
from .jacobi import FAMILY_JACOBI, CoeffVector
from .params import JacobiParams

_HALF = Fraction(1, 2)


class SingularSeriesError(ValueError):
    """A denominator parameter hits a nonpositive integer before the series
    terminates; the value exists only as a limit (boundary limit required)."""


@dataclass(frozen=True)
class HypTermSum:
    """A terminating hypergeometric sum at unit argument.

    value = sum_{r=0}^{term_count} prod (num_i)_r / (prod (den_j)_r * r!),
    each term one `pochhammer_ratio` table.  term_count comes from the
    terminating numerator parameter of the formula that builds the sum.
    Summation also stops at the first zero term, after that term's
    denominator is checked.  term_count stays explicit on purpose: a count
    derived from the smallest terminating parameter would skip that check and
    change which entries are singular.
    """

    numerator_params: tuple[Fraction, ...]
    denominator_params: tuple[Fraction, ...]
    term_count: int

    def evaluate(self) -> Fraction:
        total = Fraction(1)
        for r in range(1, self.term_count + 1):
            try:
                term = pochhammer_ratio(
                    [(a, r) for a in self.numerator_params],
                    [(1, r), *((d, r) for d in self.denominator_params)],
                )
            except ZeroDivisionError:
                raise SingularSeriesError(
                    "denominator parameter vanishes before termination; "
                    "boundary limit required"
                ) from None
            if not term:
                break
            total += term
        return total


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


def _very_well_poised(a: Fraction, *bs: Fraction, term_count: int) -> HypTermSum:
    """The very-well-poised series with numerators (a, 1 + a/2, *bs) and
    denominators (a/2, 1 + a - b for each b in bs)."""
    return HypTermSum(
        numerator_params=(a, 1 + a / 2, *bs),
        denominator_params=(a / 2, *(1 + a - b for b in bs)),
        term_count=term_count,
    )


def _prefactor(al: Fraction, be: Fraction, m: int, s: int, j: int, ups, downs) -> Fraction:
    """A 9F8 prefactor of g(m, m+s; s+j): the factors both forms share, times
    the (x, n) factors `ups` over `downs` of one form."""
    return pochhammer_ratio(
        [(al + be + 1 + 2 * s + 2 * j, 1), (s + 1, m), (be + 1, m + s),
         (al + be + 1, 2 * s + j), *ups],
        [(al + be + 1, 1), (1, j), (al + 1, m), (al + be + 2, 2 * m + 2 * s + j), *downs],
    )


def rahman_coefficient(p: JacobiParams, m: int, s: int, j: int) -> Fraction:
    """g(m, m+s; s+j) by the terminating 9F8 closed form, a > 0 and b > 0.

    One very-well-poised series serves both parities of j.  With e = j % 2,
    up = (j+e)/2 and down = (j-e)/2, the odd-j parameters are the even-j ones
    shifted by e (by e/2 where alpha is halved), the j/2 terms split into up
    and down, and the factor (alpha-beta)/(alpha+beta+1) enters as its e-th
    power.  The series is summed to r = down, but when j > m its parameter
    up - m reaches 0 first, and it stops after r = m - up.
    """
    _check_indices(m, s, j)
    _require_open_region(p)
    al, be = p.alpha, p.beta
    e = j % 2
    up, down = (j + e) // 2, (j - e) // 2
    pref = _prefactor(
        al, be, m, s, j,
        [(m + al + be + 1, m), (al + be + 1, j), (-m, up), (al + be + m + s + 1, up),
         (al + s + 1 + up, down), (-m - al, down), (be + m + s + 1, down),
         (_HALF + e, down), (al - be, e)],
        [(be + 1, s + j), (-m - (al + be) / 2, up), (_HALF - m - (al + be) / 2, down),
         (s + 1, down), (al + 1 + e, down), (al + be + 1, e)],
    )
    series = _very_well_poised(
        al + e, al + _HALF, (al - be) / 2 + e, (al - be + 1) / 2,
        al + be + m + s + 1 + up, Fraction(up - m), Fraction(-s - down), Fraction(-down),
        term_count=down,
    )
    return pref * series.evaluate()


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
    """
    _check_indices(m, s, j)
    al, be = p.alpha, p.beta
    if not (al >= be >= -_HALF):
        raise ValueError(
            "companion formula needs alpha >= beta >= -1/2"
        )
    if p.a == 0:
        raise SingularSeriesError(
            "companion formula at alpha = beta = -1/2 divides by a = 0; "
            "boundary limit required"
        )
    jh = Fraction(j, 2)
    series = _very_well_poised(
        be + s + _HALF, be + _HALF, be + m + s + 1, -m - al,
        (al + be + 1) / 2 + s + jh, (al + be + 2) / 2 + s + jh, Fraction(1 - j, 2), -jh,
        term_count=j // 2,
    )
    value = series.evaluate()
    pref = _prefactor(
        al, be, m, s, j,
        [(al + be + m + 1, m), (-2 * m, j), (2 * al + 2 * be + 2 * m + 2 * s + 2, j),
         (al - be, j)],
        [(be + 1, s), (-2 * m - al - be, j), (2 * be + 2 * s + 2, j)],
    )
    return pref * value


def dougall_coefficient(alpha: Rational, m: int, n: int) -> CoeffVector:
    """Ultraspherical product expansion (alpha = beta > -1/2) as a full vector.

    The entry at k = m + n - 2t is an explicit product; odd-offset positions
    are structural zeros of the ultraspherical family.
    """
    alpha = to_fraction(alpha)
    if alpha <= -_HALF:
        raise ValueError("ultraspherical closed form needs alpha > -1/2")
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    h, two_h = alpha + _HALF, 2 * alpha + 1
    vals = [Fraction(0)] * (2 * m + 1)
    for t in range(m + 1):
        # t! C(m, t) C(n, t) = m! n! / (t! (m-t)! (n-t)!).
        vals[2 * (m - t)] = pochhammer_ratio(
            [(1, m), (1, n), (h, t), (m + n + h - 2 * t, 1), (h, m - t), (h, n - t),
             (two_h, m + n - t)],
            [(1, t), (1, m - t), (1, n - t), (m + n + h - t, 1), (h, m + n - t),
             (two_h, m), (two_h, n)],
        )
    return CoeffVector(m, n, FAMILY_JACOBI, tuple(vals))
