"""Sign scans, zero counting, and the ratio machinery behind them.

Everything here consumes the exact coefficient vectors from the linearization
modules.  scan_sign_pattern enumerates a coefficient family exhaustively up to
a degree bound and reports the minimum together with the first violating entry;
it reads every vector of the point from one `jacobi.product_triangle` pass over
the recurrence rows, each vector checked as a `CoeffVector` before it is read
(README has its time against the per-vector routes by height).
The remaining functions isolate the quantities that control where the gencheb
coefficients stay nonnegative: the zero count of the middle recursion
coefficient iota over its index range, the ratio functions p and q with their
large-m decomposition, and the ratio sequence phi whose alternation around -1
forces strictly positive even-position entries in the odd-index families.

The identities (the p/q split, omega, the chained inequality, and the
necessity and Gasper simplification identities) are typed on integers over
L, the least common denominator of a and b (`p.over_lcm_ab`; the companion
point (a+1, b-1) is read as the integers (L, A+L, B-L)), from the recursion
weights of `_recursion_weights` (theta, iota, kappa as T, I, K over one
denominator D) and the boundary ratios g(s+1)/g(s) and g(s+2m-1)/g(s+2m) of
`_boundary_ratios`: each value is one integer quotient, and each check one
cross-multiplication by factors that are nonzero for alpha, beta > -1.  A
`Fraction` is formed only for a returned value.  Each identity's core
(`_pq_quotients`, `_pq_limit_parts`, `_omega_ratio`, `_gasper_sides`,
`_necessity_sides`, the odd scale `_odd_scale`) also runs on polynomials,
and tests/test_analysis.py proves the p/q split, omega's closed form and
sign, phi's recurrence and the Gasper and necessity identities for all
parameters.  So omega's refusal is one sign test, and no call re-checks an
identity that a proof covers.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exact import RationalPolynomial, count_real_roots
from .gencheb import _companion, linearize_gencheb
from .jacobi import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    _boundary_ratios,
    _gencheb_row,
    _recursion_weights,
    product_triangle,
)
from .params import JacobiParams, _gasper_qv, classify_region, make_params

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

    The vectors come from one `product_triangle` pass of the family at the
    point, in scan order, so a scan reads only the recurrence rows and fills
    no linearize cache.  Each vector is read on its integer numerators over
    its one positive denominator: its minimum is the least numerator,
    compared with the running minimum min_n/min_d by cross-multiplying once,
    and its first negative entry is its first negative numerator.
    """
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    gencheb = mode.startswith("gencheb")
    family = FAMILY_GENCHEB if gencheb else FAMILY_JACOBI
    oscillation = mode == "oscillation"
    point = make_params(p.beta, p.alpha) if oscillation else p
    skip_odd = gencheb or p.b == 0
    min_n, min_d = None, 1
    witness = None
    witness_value = None
    for cv in product_triangle(point, family, max_degree):
        m, n = cv.m, cv.n
        if mode == "gencheb_odd" and m % 2 == 0 and n % 2 == 0:
            continue
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
    does not depend on b.  Each factor c0 + c_a a + c_j j is the integer list
    (c0 q + c_a A, c_j q) over a = A/q, so both products are integer lists
    over q**5 and the bracket is one normalization."""
    q, big_a = a.denominator, a.numerator

    def product(*factors):
        out = [1]
        for c0, c_a, c_j in factors:
            u, v = c0 * q + c_a * big_a, c_j * q
            out = [u * x + v * y for x, y in zip(out + [0], [0, *out])]
        return out

    first = product(
        (2 * m, 0, -1), (2 * m + 2 * s, 2, 1), (2 * s + 1, 0, 1), (1, 0, 1), (2 * s - 1, 1, 2)
    )
    second = product(
        (2 * m + 1, 0, -1), (2 * m + 2 * s - 1, 2, 1), (2 * s, 0, 1), (0, 0, 1), (2 * s + 1, 1, 2)
    )
    return RationalPolynomial._of([x - y for x, y in zip(first, second)], q**5)


def iota_numerator_poly(p: JacobiParams, m: int, s: int) -> RationalPolynomial:
    """iota(m, m+s; j) with its positive denominators cleared, as a polynomial
    in the real variable j.  On j >= 1 its zeros are exactly iota's zeros."""
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    return p.b * _iota_bracket(p.a, m, s)


def iota_zero_count(p: JacobiParams, m: int, s: int) -> int | None:
    """Number of zeros of iota(m, m+s; .) on the closed index range [1, 2m-1].

    Returns None for b = 0, where iota vanishes identically (degenerate).
    The count runs on the b-free bracket of `iota_numerator_poly`, which b
    only scales: a zero exactly at j = 1 is read from its coefficient sum,
    and the rest are counted by Sturm sequences on (1, 2m-1].
    """
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    if p.b == 0:
        return None
    bracket = _iota_bracket(p.a, m, s)
    at_one = 1 if sum(bracket.nums) == 0 else 0
    if m == 1:
        return at_one
    return at_one + count_real_roots(bracket, 1, 2 * m - 1)


def chi_m_poly(p: JacobiParams, m: int) -> RationalPolynomial:
    """The degree-4 polynomial chi_m with

        iota(m, m; j) (2j+a-1)(2j+a+1) = -b * chi_m(j),

    that is, minus iota's b-free bracket at s = 0.  Its degree is at most 4
    for every (a, m): both products of the bracket lead with -2 j^5.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    return -_iota_bracket(p.a, m, 0)


@dataclass(frozen=True)
class PQRecord:
    """The ratio functions p, q at (m, s, j) and their m-isolating split

        p = p_inf + p_star / D,   q = q_inf + q_star / D,
        D = (2m - j + a)(2m + 2s + j + a + 2),

    where p_inf, p_star, q_inf, q_star do not depend on m.  The split holds
    for all parameters: tests/test_analysis.py::TestIdentityProofs proves
    it as a polynomial identity in (d, alpha d, beta d, m, s, j)."""

    m: int
    s: int
    j: int
    p: Fraction
    q: Fraction
    p_inf: Fraction
    p_star: Fraction
    q_inf: Fraction
    q_star: Fraction


def _pq_limit_parts(one, a, b, s, j):
    """(p_inf, p_star, q_inf, q_star) at (s, j) as four integer numerators
    over one denominator E, positive for alpha, beta > -1, for a, b and j
    given as integers over L (one = L), like `_recursion_weights`: a factor
    (2s + j + 1) reads s2 + j + one, with s2 = 2sL.  Only +, - and * touch
    the arguments, so tests/test_analysis.py runs it on polynomials."""
    s2 = 2 * s * one
    den = (s2 + j + one) * (s2 + 2 * j + a) * (s2 + 2 * j + a + b + one) * (j + one)
    w2 = s2 + 2 * j + a + 2 * one
    bracket = (
        b * (s2 + j + one) * (s2 + 2 * j + a) * (j + one)
        + (one - b) * (s2 + j) * (s2 + 2 * j + a + one) * j
    )
    p_star = (
        (one - b) * (s2 + j + a) * (s2 + 2 * j + a + one) * w2 * (j + a)
        * (s2 + 2 * j + one)
    )
    q_inf = w2 * (s2 + j + a) * (s2 + 2 * j + a - b + one) * (j + a)
    q_star = (one - a) * (s2 + 2 * j + a + one) * q_inf
    return (w2 * bracket - one * den) * one, p_star, q_inf * one**2, q_star, one**2 * den


def _odd_scale(d, al, be, w):
    """r(j) = c_{2s+2j+1} / a_{2s+2j-1}, which turns a ratio of consecutive
    companion entries g+ into one of gencheb odd-index entries, as a
    (numerator, denominator) pair of the odd `_gencheb_row` rows, for alpha
    and beta given as integers over d and w = (s+j) d; both parts are
    positive for alpha, beta > -1 and s + j >= 1."""
    a, _, _, a_den = _gencheb_row(d, al, be, w, True)
    _, _, c, c_den = _gencheb_row(d, al, be, w + d, True)
    return c * a_den, c_den * a


def _odd_scales(p: JacobiParams, s: int, count: int) -> list[tuple[int, int]]:
    """r(1..count) of `_odd_scale` at the point's integers over d."""
    d, al, be, _, _ = p.over_lcm_all
    return [_odd_scale(d, al, be, (s + j) * d) for j in range(1, count + 1)]


def _pq_quotients(one, a, b, m, s, j, r0, r1):
    """(p_N, p_D, q_N, q_D) with p(j) = p_N / p_D = r(j+1) I / T and q(j) =
    q_N / q_D = r(j) r(j+1) K / T, for r0 = r(j) and r1 = r(j+1) as pairs and
    T, I, K the weights of the companion point (a+1, b-1) over the same L
    (`_recursion_weights`; a, b and j integers over L).  Like
    `_pq_limit_parts` it runs on polynomials."""
    theta, iota, kappa, _ = _recursion_weights(one, a + one, b - one, m, s, j)
    (r0_n, r0_d), (r1_n, r1_d) = r0, r1
    return r1_n * iota, r1_d * theta, r0_n * r1_n * kappa, r0_d * r1_d * theta


def _pq_run(p: JacobiParams, m: int, s: int) -> list[tuple[int, int, int, int]]:
    """p(j) and q(j) for j = 1 .. 2m-1 as (p_N, p_D, q_N, q_D)
    (`_pq_quotients`), with r(1..2m) of `_odd_scales`.

    T is positive: its factors 2m-j+a, 2m+2s+j+a+2, 2s+j+1, 2s+2j+2beta+4,
    j+1, 2s+2j+a and 2s+2j+a-1 (the last two down and e at the companion
    point) are positive for alpha, beta > -1 and 1 <= j <= 2m-1."""
    if m < 2 or s < 0:
        raise ValueError("need m >= 2 and s >= 0")
    one, a, b = p.over_lcm_ab
    r = _odd_scales(p, s, 2 * m)
    return [_pq_quotients(one, a, b, m, s, j * one, r[j - 1], r[j]) for j in range(1, 2 * m)]


def pq_values(p: JacobiParams, m: int, s: int) -> tuple[PQRecord, ...]:
    """p(j) and q(j) for the odd-index even-position analysis at (m, s), as
    one run j = 1 .. 2m-1 like phi_sequence: the record for j is at index
    j - 1, and each odd scale r(1..2m) is formed once."""
    one, a, b = p.over_lcm_ab
    records = []
    for j, (p_n, p_d, q_n, q_d) in enumerate(_pq_run(p, m, s), start=1):
        *parts, big_e = _pq_limit_parts(one, a, b, s, j * one)
        records.append(PQRecord(m, s, j, Fraction(p_n, p_d), Fraction(q_n, q_d),
                                *(Fraction(x, big_e) for x in parts)))
    return tuple(records)


def _omega_ratio(one, a, b, s, j):
    """omega_j as (numerator, positive denominator), for a, b and j given as
    integers over L (one = L).  It runs on polynomials, and is proved equal
    to q_inf(j+1) - (1 + p_inf(j+1)) (q_inf(j) - p_inf(j)) of the limit parts."""
    s2, j2 = 2 * s * one, 2 * j
    num = (
        (b - a) * b
        * (s2 * (s2 + j2 + a + 2 * one) + (j + a) * (j2 + 4 * one) + (one - a) * one)
        * (s2 + j2 + a + 2 * one) * (s2 + j2 + a + 4 * one)
    )
    den = (
        (s2 + j + one) * (s2 + j + 2 * one) * (j + one) * (j + 2 * one)
        * (s2 + j2 + a + b + one) * (s2 + j2 + a + b + 3 * one)
    )
    return num, den


def omega_value(p: JacobiParams, s: int, j: int) -> Fraction:
    """The large-m margin omega_j of the chained inequality, closed form:

        (b-a) b (2s(2s+2j+a+2) + (j+a)(2j+4) + 1-a) (2s+2j+a+2)(2s+2j+a+4)
        / ((2s+j+1)(2s+j+2)(j+1)(j+2) (2s+2j+a+b+1)(2s+2j+a+b+3)),

    one integer quotient with a, b over L (`_omega_ratio`).  Every factor but
    (b-a) b is positive for alpha, beta > -1, s >= 0 and j >= 1, so omega_j
    has the sign of (b-a) b: tests/test_analysis.py proves both for all
    parameters."""
    if s < 0 or j < 1:
        raise ValueError("need s >= 0 and j >= 1")
    one, a, b = p.over_lcm_ab
    return Fraction(*_omega_ratio(one, a, b, s, j * one))


def pq_inequality_check(p: JacobiParams, m: int, s: int) -> list[bool]:
    """Checks [1 + p(j+1)] [q(j) - p(j)] < q(j+1) for j = 1 .. 2m-2, each by
    one cross-multiplication by positive denominators.

    Refuses a point where the margins omega_j are not positive
    (NotApplicableError): these margins are what makes the inequality
    uniform in m inside the validity region.  Every omega_j has the sign of
    b (b - a) (`omega_value`), so that one product decides the refusal."""
    run = _pq_run(p, m, s)
    if p.b * (p.b - p.a) <= 0:
        raise NotApplicableError(
            "omega margin not positive: parameters outside the validity region"
        )
    return [
        (p1_d + p1_n) * (q0_n * p0_d - p0_n * q0_d) * q1_d < q1_n * p1_d * q0_d * p0_d
        for (p0_n, p0_d, q0_n, q0_d), (p1_n, p1_d, q1_n, q1_d) in zip(run, run[1:])
    ]


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
    nums = _companion(p, m, m + s).nums
    vals = []
    for j, (r_n, r_d) in enumerate(_odd_scales(p, s, 2 * m), start=1):
        # nums[j - 1] != 0: at j = 1 it is the vector's positive lowest
        # extreme, and later it is the previous upper, which made the
        # previous phi 0.
        phi = Fraction(r_n * nums[j], r_d * nums[j - 1])
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
    g_T(2m+1, 2m+1; 4) when a^2 + 2b^2 + 3a < 0.  Inside V' the search is
    not run and None is returned immediately, which is no claim that every
    entry is nonnegative: in V' outside V even-index entries can be
    negative, for example g_T(4, 4; 4) = -24685/2271367 at (-33/100, -87/100).
    Exhausting the degree budget returns None as well.  A None therefore
    speaks only for the guided odd-odd families up to max_degree; outside V'
    another entry can still be negative, such as g_T(2, 2; 2) = -24/17425 at
    (29/12, 39/16), where the search to degree 20 returns None."""
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


def _gasper_sides(one, a, b, m, s):
    """((lhs1, rhs1), (lhs2, rhs2)) of `gasper_simplification_values` as
    (numerator, denominator) pairs, for a and b integers over L (one = L).
    It runs on polynomials, as does `_necessity_sides`."""
    m2, m4, s2 = 2 * m * one, 4 * m * one, 2 * s * one
    (lo_n, lo_d), (hi_n, hi_d) = _boundary_ratios(one, a, b, m, s)
    _, iota, kappa, den = _recursion_weights(one, a, b, m, s, one)
    lhs1 = (
        (m2 + a - one) * (s2 + a - b + one) * (m2 + s2 + a + one) * (s2 + a + 3 * one)
        * (iota * lo_n + kappa * lo_d),
        4 * m * (m * one + s * one + a) * (s2 + a + one) * one**2 * den * lo_d,
    )
    q, v = _gasper_qv(one, a, b, s)
    sq_a = b * b + a * one  # (b^2 + a) L^2
    rhs1 = (2 * m - 4) * (m2 + s2 + 2 * a + 4 * one) * (sq_a * 2 * s + q) * one + v, one**4
    theta, iota, _, den = _recursion_weights(one, a, b, m, s, m2 - one)
    lhs2 = (
        (m2 + a - one) * (m2 + s2 + a - one) * (m4 + s2 + a - 3 * one)
        * (m4 + s2 + a + b - one) * (theta * hi_d - iota * hi_n),
        4 * m * (m + s) * (m4 + s2 + a - one) * one**3 * den * hi_d,
    )
    rhs2 = (2 * m - 4) * one * (
        sq_a * (2 * m + 2 * s - 4) * (m4 + s2 + 2 * a)
        + q * (6 * m * one + 6 * s * one + 4 * a + 4 * one)
    ) + v, one**4
    return (lhs1, rhs1), (lhs2, rhs2)


def gasper_simplification_values(
    p: JacobiParams, m: int, s: int
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Both product-form identities that reduce the second and second-to-last
    coefficients to the region-defining polynomial; returns ((lhs, rhs), ...)
    pairs, equal for all parameters (tests/test_analysis.py proves both):

        lhs1 = (2m+a-1)(2s+a-b+1)(2m+2s+a+1)(2s+a+3) / (4m(m+s+a)(2s+a+1))
               * (iota(1) g(s+1)/g(s) + kappa(1)),
        rhs1 = (2m-4)(2m+2s+2a+4)((b^2+a) 2s + Q) + V_s,
        lhs2 = (2m+a-1)(2m+2s+a-1)(4m+2s+a-3)(4m+2s+a+b-1) / (4m(m+s)(4m+2s+a-1))
               * (theta(2m-1) - iota(2m-1) g(s+2m-1)/g(s+2m)),
        rhs2 = (2m-4)((b^2+a)(2m+2s-4)(4m+2s+2a) + Q(6m+6s+4a+4)) + V_s,

    with Q and V_s of `params._gasper_qv`.  Each is one integer quotient of
    `_gasper_sides`, from the weights of `_recursion_weights` and the pairs
    of `_boundary_ratios`; every factor cleared is nonzero for alpha,
    beta > -1 and m >= 2."""
    if m < 2 or s < 0:
        raise ValueError("need m >= 2 and s >= 0")
    (l1, r1), (l2, r2) = _gasper_sides(*p.over_lcm_ab, m, s)
    return (Fraction(*l1), Fraction(*r1)), (Fraction(*l2), Fraction(*r2))


def _necessity_sides(one, a, b, m, s, r1, r2):
    """((lhs1, rhs1), (lhs2, rhs2)) of `necessity_identity_values` as
    (numerator, denominator) pairs, for a and b integers over L (one = L)
    and the odd scales r1, r2 as pairs.  At b = 1 the second pair's
    denominators are 0."""
    m2, s2 = 2 * m * one, 2 * s * one
    (lo_n, lo_d), _ = _boundary_ratios(one, a + one, b - one, m, s)
    (r1_n, r1_d), (r2_n, r2_d) = r1, r2
    lhs1 = (
        (m2 + a) * (m2 + s2 + a + 2 * one) * (s2 + a + b + one) * (r1_n * lo_n + r1_d * lo_d),
        (s2 + a + 2 * one) * one**2 * r1_d * lo_d,
    )
    rhs1 = 4 * b * m * m * one + 4 * b * (s * one + a + one) * m + a * (s2 + a + b + one), one**2
    theta, iota, kappa, _ = _recursion_weights(one, a + one, b - one, m, s, one)
    rho_n, rho_d = iota * lo_n + kappa * lo_d, theta * lo_n
    q, _ = _gasper_qv(one, a, b)
    lhs2 = (
        4 * (s + 1) * (b - one) * (m2 + a - one) * (m2 + s2 + a + 3 * one)
        * (s2 + a + b + 3 * one) * (r2_n * rho_n + r2_d * rho_d),
        (s2 + a + 4 * one) * one**3 * r2_d * rho_d,
    )
    rhs2 = (
        (4 * m - 4) * (m * one + s * one + a + 2 * one) * (q * (s + 1) - a * (a + one) * s) * one
        + (a + one) * (s2 + a + b + 3 * one) * ((a + 2 * b) * (s2 + 2 * one - b) + q)
    ), one**4
    return (lhs1, rhs1), (lhs2, rhs2)


def necessity_identity_values(
    p: JacobiParams, m: int, s: int
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction] | None]:
    """The two assembled identities behind the necessity direction, equal
    for all parameters (tests/test_analysis.py proves both).

    The second divides by the companion second coefficient, which is 0 at
    b = 1, and is None there.  With r1, r2 the odd scales, g+ the companion
    entries and Q of `params._gasper_qv`:

        lhs1 = (2m+a)(2m+2s+a+2)(2s+a+b+1) / (2s+a+2) * (r1 g+(s+1)/g+(s) + 1),
        rhs1 = 4b m^2 + 4b(s+a+1) m + a(2s+a+b+1),
        lhs2 = 4(b-1)(2m+a-1)(2m+2s+a+3)(s+1)(2s+a+b+3) / (2s+a+4) * (r2 rho + 1),
        rho  = iota+(1) / theta+(1) + kappa+(1) / theta+(1) * g+(s)/g+(s+1),
        rhs2 = (4m-4)(m+s+a+2)(Q(s+1) - a(a+1)s)
               + (a+1)(2s+a+b+3)((a+2b)(2s+2-b) + Q).

    Each is one integer quotient of `_necessity_sides`, with theta+, iota+,
    kappa+ and g+(s+1)/g+(s) read from `_recursion_weights` and
    `_boundary_ratios` at the companion point (a+1, b-1), whose integers
    over L are (L, A+L, B-L); T is positive there at j = 1."""
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    one, a, b = p.over_lcm_ab
    (l1, r1), (l2, r2) = _necessity_sides(one, a, b, m, s, *_odd_scales(p, s, 2))
    return (Fraction(*l1), Fraction(*r1)), None if b == one else (Fraction(*l2), Fraction(*r2))
