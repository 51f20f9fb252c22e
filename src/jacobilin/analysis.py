"""Sign scans, zero counting, and the ratio machinery behind them.

Everything here consumes the exact coefficient vectors from the linearization
modules.  scan_sign_pattern enumerates a coefficient family exhaustively up to
a degree bound and reports the minimum together with the first violating entry.
The remaining functions isolate the quantities that control where the gencheb
coefficients stay nonnegative: the zero count of the middle recursion
coefficient iota over its index range, the ratio functions p and q with their
large-m decomposition, and the ratio sequence phi whose alternation around -1
forces strictly positive even-position entries in the odd-index families.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalPolynomial, _over_lcm, count_real_roots
from .gencheb import gencheb_rec_coeffs, linearize_gencheb
from .jacobi import gasper_boundary, internal_error, linearize_jacobi, theta_iota_kappa
from .params import JacobiParams, classify_region, make_params, plus_params

VERDICT_ALL_NONNEG = "all_nonneg"
VERDICT_ALL_POSITIVE = "all_positive_on_support"
VERDICT_VIOLATION = "violation"

SCAN_MODES = (
    "jacobi_nonneg",
    "jacobi_strict",
    "gencheb_all",
    "gencheb_odd",
    "oscillation",
)


class NotApplicableError(ValueError):
    """A valid parameter point where a property's hypotheses fail, so the
    property says nothing there (not a malformed request)."""


@dataclass(frozen=True)
class SignReport:
    mode: str
    degrees_scanned: int
    verdict: str
    min_value: Fraction
    witness: tuple[int, int, int] | None
    witness_value: Fraction | None


def scan_sign_pattern(p: JacobiParams, max_degree: int, mode: str) -> SignReport:
    """Exhaustive sign scan over all m <= n <= max_degree for one mode.

    The verdict is `violation` exactly when some entry is negative (the
    witness is the first such entry in scan order: n, then m, then k
    ascending); otherwise the scan distinguishes a strictly positive support
    from one containing zeros.

    Structural zeros are not part of any support: entries with m+n-k odd,
    the odd positions of a vector, are skipped always for the gencheb family,
    and on the symmetric line b = 0 for the jacobi family, where they vanish
    identically.  The oscillation mode scans (-1)^(m+n+k) g(m, n; k) of the
    reflected family, which by P_n^(al,be)(-x) = (-1)^n P_n^(be,al)(x) is
    jacobi at the point (beta, alpha); m+n+k has the parity of the position.

    Each vector is read on its integer numerators over its one positive
    denominator: its minimum is the least numerator, compared with the
    running minimum min_n/min_d by cross-multiplying once, and its first
    negative entry is its first negative numerator.
    """
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    gencheb = mode.startswith("gencheb")
    linearize = linearize_gencheb if gencheb else linearize_jacobi
    oscillation = mode == "oscillation"
    point = make_params(p.beta, p.alpha) if oscillation else p
    skip_odd = gencheb or p.b == 0
    min_n, min_d = None, 1
    witness = None
    witness_value = None
    for n in range(max_degree + 1):
        for m in range(n + 1):
            if mode == "gencheb_odd" and m % 2 == 0 and n % 2 == 0:
                continue
            cv = linearize(point, m, n)
            if skip_odd:
                nums, step = cv.nums[::2], 2
            elif oscillation:
                nums, step = [-x if i % 2 else x for i, x in enumerate(cv.nums)], 1
            else:
                nums, step = cv.nums, 1
            least, den = min(nums), cv.den
            if min_n is None or least * min_d < min_n * den:
                min_n, min_d = least, den
            if least < 0 and witness is None:
                i = next(i for i, x in enumerate(nums) if x < 0)
                witness = (m, n, cv.k_min + step * i)
                witness_value = Fraction(nums[i], den)
    min_value = Fraction(0) if min_n is None else Fraction(min_n, min_d)
    if witness is not None:
        verdict = VERDICT_VIOLATION
    elif min_value > 0:
        verdict = VERDICT_ALL_POSITIVE
    else:
        verdict = VERDICT_ALL_NONNEG
    return SignReport(mode, max_degree, verdict, min_value, witness, witness_value)


def _iota_bracket(a: Fraction, m: int, s: int) -> RationalPolynomial:
    """iota(m, m+s; j) (2s+2j+a-1)(2s+2j+a+1) / b as a polynomial in j; it
    does not depend on b."""
    q, big_a = a.denominator, a.numerator

    def linear(c0: int, c_a: int, c_j: int) -> RationalPolynomial:
        # c0 + c_a a + c_j j, on integers over a's denominator q.
        return RationalPolynomial._of([c0 * q + c_a * big_a, c_j * q], q)

    first = (
        linear(2 * m, 0, -1)
        * linear(2 * m + 2 * s, 2, 1)
        * linear(2 * s + 1, 0, 1)
        * linear(1, 0, 1)
        * linear(2 * s - 1, 1, 2)
    )
    second = (
        linear(2 * m + 1, 0, -1)
        * linear(2 * m + 2 * s - 1, 2, 1)
        * linear(2 * s, 0, 1)
        * linear(0, 0, 1)
        * linear(2 * s + 1, 1, 2)
    )
    return first - second


def iota_numerator_poly(p: JacobiParams, m: int, s: int) -> RationalPolynomial:
    """iota(m, m+s; j) with its positive denominators cleared, as a polynomial
    in the real variable j.  On j >= 1 its zeros are exactly iota's zeros."""
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    return p.b * _iota_bracket(p.a, m, s)


def iota_zero_count(p: JacobiParams, m: int, s: int) -> int | None:
    """Number of zeros of iota(m, m+s; .) on the closed index range [1, 2m-1].

    Returns None for b = 0, where iota vanishes identically (degenerate).
    A zero exactly at j = 1 is detected by direct evaluation; the rest are
    counted by Sturm sequences on (1, 2m-1].
    """
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    if p.b == 0:
        return None
    poly = iota_numerator_poly(p, m, s)
    at_one = 1 if poly(1) == 0 else 0
    if m == 1:
        return at_one
    return at_one + count_real_roots(poly, 1, 2 * m - 1)


def chi_m_poly(p: JacobiParams, m: int) -> RationalPolynomial:
    """The degree-4 polynomial chi_m with

        iota(m, m; j) (2j+a-1)(2j+a+1) = -b * chi_m(j),

    that is, minus iota's b-free bracket at s = 0.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    chi = -_iota_bracket(p.a, m, 0)
    if chi.degree > 4:
        raise internal_error(p, "chi-m", "chi_m has degree above 4", m=m)
    return chi


@dataclass(frozen=True)
class PQRecord:
    """The ratio functions p, q at (m, s, j) and their m-isolating split

        p = p_inf + p_star / D,   q = q_inf + q_star / D,
        D = (2m - j + a)(2m + 2s + j + a + 2),

    where p_inf, p_star, q_inf, q_star do not depend on m.  The split is
    asserted exactly by `pq_values`."""

    m: int
    s: int
    j: int
    p: Fraction
    q: Fraction
    p_inf: Fraction
    p_star: Fraction
    q_inf: Fraction
    q_star: Fraction


def _pq_limit_parts(p: JacobiParams, s: int, j) -> tuple[Fraction, ...]:
    """(p_inf, p_star, q_inf, q_star) at (s, j), each one integer quotient.
    As in `theta_iota_kappa`, a, b and j are integers over L = lcm of their
    denominators, and a factor (2s + j + 1) reads s2 + j + one, with
    s2 = 2sL and one = L."""
    one, a, b, j = _over_lcm(p.a, p.b, j)
    s2 = 2 * s * one
    den = (s2 + j + one) * (s2 + 2 * j + a) * (s2 + 2 * j + a + b + one) * (j + one)
    up = s2 + 2 * j + a + 2 * one
    bracket = (
        b * (s2 + j + one) * (s2 + 2 * j + a) * (j + one)
        + (one - b) * (s2 + j) * (s2 + 2 * j + a + one) * j
    )
    p_star = (
        (one - b) * (s2 + j + a) * (s2 + 2 * j + a + one) * up * (j + a)
        * (s2 + 2 * j + one)
    )
    q_inf = up * (s2 + j + a) * (s2 + 2 * j + a - b + one) * (j + a)
    q_star = (one - a) * (s2 + 2 * j + a + one) * q_inf
    return (Fraction(up * bracket - one * den, one * den), Fraction(p_star, one**2 * den),
            Fraction(q_inf, den), Fraction(q_star, one**2 * den))


def _odd_scales(p: JacobiParams, s: int, count: int) -> list[Fraction]:
    """r(1..count), r(j) = c_{2s+2j+1} / a_{2s+2j-1} of the gencheb rows: the
    factor that turns a ratio of consecutive companion entries g+ into one of
    gencheb odd-index entries.  r depends on s + j only; the count + 1 odd
    rows 2s+1 .. 2s+2count+1 are each built once."""
    rows = [gencheb_rec_coeffs(p, 2 * s + 2 * i + 1) for i in range(count + 1)]
    return [rows[i].c_n / rows[i - 1].a_n for i in range(1, count + 1)]


def pq_values(p: JacobiParams, m: int, s: int) -> tuple[PQRecord, ...]:
    """p(j) and q(j) for the odd-index even-position analysis at (m, s), as
    one run j = 1 .. 2m-1 like phi_sequence: the record for j is at index
    j - 1, and the 2m+1 odd gencheb rows behind r(1..2m) are each built once."""
    if m < 2 or s < 0:
        raise ValueError("need m >= 2 and s >= 0")
    pp = plus_params(p)
    r = _odd_scales(p, s, 2 * m)
    records = []
    for j in range(1, 2 * m):
        # theta at (a+1, b-1) is never 0: its factors 2m-j+a, 2m+2s+j+a+2, 2s+j+1,
        # 2s+2j+2beta+4 and j+1 are positive for alpha, beta > -1 and 1 <= j <= 2m-1.
        theta_p, iota_p, kappa_p = theta_iota_kappa(pp, m, s, j)
        p_val = r[j] * iota_p / theta_p
        q_val = r[j - 1] * r[j] * kappa_p / theta_p
        p_inf, p_star, q_inf, q_star = _pq_limit_parts(p, s, j)
        big_d = (2 * m - j + p.a) * (2 * m + 2 * s + j + p.a + 2)
        if p_val != p_inf + p_star / big_d or q_val != q_inf + q_star / big_d:
            raise internal_error(
                p, "pq-split", "p/q decomposition fails", m=m, n=m + s, j=j
            )
        records.append(PQRecord(m, s, j, p_val, q_val, p_inf, p_star, q_inf, q_star))
    return tuple(records)


def omega_value(p: JacobiParams, s: int, j: int) -> Fraction:
    """The large-m margin omega_j of the chained inequality, closed form."""
    a, b = p.a, p.b
    return (
        (b - a)
        * b
        * (2 * s * (2 * s + 2 * j + a + 2) + (j + a) * (2 * j + 4) + 1 - a)
        / ((2 * s + j + 1) * (2 * s + j + 2) * (j + 1) * (j + 2))
        * (2 * s + 2 * j + a + 2)
        * (2 * s + 2 * j + a + 4)
        / ((2 * s + 2 * j + a + b + 1) * (2 * s + 2 * j + a + b + 3))
    )


def pq_inequality_check(p: JacobiParams, m: int, s: int) -> list[bool]:
    """Checks [1 + p(j+1)] [q(j) - p(j)] < q(j+1) for j = 1 .. 2m-2.

    Also recomputes omega_j both from its closed form and from the limit
    parts, asserts they agree and are positive (these margins are what makes
    the inequality uniform in m inside the validity region)."""
    results = []
    run = pq_values(p, m, s)
    for cur, nxt in zip(run, run[1:]):
        omega = omega_value(p, s, cur.j)
        omega_from_parts = nxt.q_inf - (1 + nxt.p_inf) * (cur.q_inf - cur.p_inf)
        if omega != omega_from_parts:
            raise internal_error(
                p, "omega", "omega closed form disagrees with limit parts",
                m=m, n=m + s, j=cur.j,
            )
        if omega <= 0:
            raise NotApplicableError(
                "omega margin not positive: parameters outside the validity region"
            )
        results.append((1 + nxt.p) * (cur.q - cur.p) < nxt.q)
    return results


@dataclass(frozen=True)
class PhiSequence:
    """Consecutive-entry ratios phi(1..2m) of the companion vector, scaled by
    recurrence coefficients; all negative, alternating around -1 inside the
    validity region."""

    m: int
    s: int
    values: tuple[Fraction, ...]

    def value(self, j: int) -> Fraction:
        if not 1 <= j <= 2 * self.m:
            raise IndexError("phi index out of range")
        return self.values[j - 1]

    def alternation_holds(self) -> bool:
        return all(
            (v < -1) if (j % 2 == 0) else (v > -1)
            for j, v in enumerate(self.values, start=1)
        )


def phi_sequence(p: JacobiParams, m: int, s: int) -> PhiSequence:
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    # The entries g+(s + j) are nums[j] / den, so den cancels from each ratio.
    nums = linearize_jacobi(plus_params(p), m, m + s).nums
    vals = []
    for j, r in enumerate(_odd_scales(p, s, 2 * m), start=1):
        # nums[j - 1] != 0: at j = 1 it is the vector's positive lowest
        # extreme, and later it is the previous upper, which made the
        # previous phi 0.
        phi = Fraction(r.numerator * nums[j], r.denominator * nums[j - 1])
        if phi >= 0:
            raise NotApplicableError(
                "nonnegative ratio: parameters outside the validity region"
            )
        vals.append(phi)
    return PhiSequence(m, s, tuple(vals))


def find_negativity_witness(
    p: JacobiParams, max_degree: int
) -> tuple[int, int, int, Fraction] | None:
    """First negative gencheb coefficient in the guided families, or None.

    Outside V' the search follows the two families that the necessity
    analysis singles out: entries g_T(2m+1, 2m+2s+1; 2s+2) when b < 0, and
    g_T(2m+1, 2m+1; 4) when a^2 + 2b^2 + 3a < 0.  Inside V' there is nothing
    to find and None is returned immediately.  Exhausting the degree budget
    returns None as well (inconclusive, not a nonexistence claim)."""
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    report = classify_region(p)
    if report.in_vprime:
        return None
    for big in range(3, max_degree + 1, 2):
        if p.b < 0:
            candidates = [(big - 2 * s, 2 * s + 2) for s in range((big - 3) // 2 + 1)]
        else:
            candidates = [(big, 4)]
        for small, k in candidates:
            cv = linearize_gencheb(p, small, big)
            entry = cv.nums[k - cv.k_min]
            if entry < 0:
                return (small, big, k, Fraction(entry, cv.den))
    return None


def gasper_simplification_values(
    p: JacobiParams, m: int, s: int
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Both product-form identities that reduce the second and second-to-last
    coefficients to the region-defining polynomial; returns ((lhs, rhs), ...)
    pairs that must be exactly equal."""
    if m < 2 or s < 0:
        raise ValueError("need m >= 2 and s >= 0")
    a, b = p.a, p.b
    g_lo, g_lo1, g_hi1, g_hi = gasper_boundary(p, m, s)
    ratio_lo, ratio_hi = g_lo1 / g_lo, g_hi1 / g_hi
    theta1, iota1, kappa1 = theta_iota_kappa(p, m, s, 1)
    pref1 = (
        (2 * m + a - 1)
        * (2 * s + a - b + 1)
        * (2 * m + 2 * s + a + 1)
        * (2 * s + a + 3)
        / (4 * m * (m + s + a) * (2 * s + a + 1))
    )
    lhs1 = pref1 * (iota1 * ratio_lo + kappa1)
    rhs1 = (
        (b * b + a) * (2 * m - 4) * (2 * m + 2 * s + 2 * a + 4) * 2 * s
        + (a * a + 2 * b * b + 3 * a)
        * (
            (2 * m - 4) * (2 * m + 2 * s + 2 * a + 4)
            + 2 * s * (2 * s + 2 * a + 8)
            + (a + 3) * (a + 5)
        )
        - 3 * (a + 1) * (a + 2) * b * b
    )
    theta2, iota2, kappa2 = theta_iota_kappa(p, m, s, 2 * m - 1)
    pref2 = (
        (2 * m + a - 1)
        * (2 * m + 2 * s + a - 1)
        * (4 * m + 2 * s + a - 3)
        * (4 * m + 2 * s + a + b - 1)
        / (4 * m * (m + s) * (4 * m + 2 * s + a - 1))
    )
    lhs2 = pref2 * (theta2 - iota2 * ratio_hi)
    rhs2 = (
        (b * b + a) * (2 * m - 4) * (2 * m + 2 * s - 4) * (4 * m + 2 * s + 2 * a)
        + (a * a + 2 * b * b + 3 * a)
        * (
            (2 * m - 4) * (6 * m + 6 * s + 4 * a + 4)
            + 2 * s * (2 * s + 2 * a + 8)
            + (a + 3) * (a + 5)
        )
        - 3 * (a + 1) * (a + 2) * b * b
    )
    return (lhs1, rhs1), (lhs2, rhs2)


def necessity_identity_values(
    p: JacobiParams, m: int, s: int
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction] | None]:
    """The two assembled identities behind the necessity direction.

    The first holds for all admissible parameters; the second needs b != 1
    (it divides by the companion second coefficient) and is None at b = 1.
    """
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    a, b = p.a, p.b
    pp = plus_params(p)
    g_lo, g_lo1, _, _ = gasper_boundary(pp, m, s)
    ratio1 = g_lo1 / g_lo
    r1, r2 = _odd_scales(p, s, 2)
    lhs1 = (
        (2 * m + a)
        * (2 * m + 2 * s + a + 2)
        * (2 * s + a + b + 1)
        / (2 * s + a + 2)
        * (r1 * ratio1 + 1)
    )
    rhs1 = 4 * b * m * m + 4 * b * (s + a + 1) * m + a * (2 * s + a + b + 1)
    if b == 1:
        return (lhs1, rhs1), None
    theta_p, iota_p, kappa_p = theta_iota_kappa(pp, m, s, 1)
    ratio2 = iota_p / theta_p + kappa_p / theta_p / ratio1
    lhs2 = (
        4
        * (b - 1)
        * (2 * m + a - 1)
        * (2 * m + 2 * s + a + 3)
        * (s + 1)
        * (2 * s + a + b + 3)
        / (2 * s + a + 4)
        * (r2 * ratio2 + 1)
    )
    rhs2 = (4 * m - 4) * (m + s + a + 2) * (
        (a * a + 2 * b * b + 3 * a) * (s + 1) - a * (a + 1) * s
    ) + (a + 1) * (2 * s + a + b + 3) * (
        (a + 2 * b) * (2 * s + 2 - b) + a * a + 2 * b * b + 3 * a
    )
    return (lhs1, rhs1), (lhs2, rhs2)
