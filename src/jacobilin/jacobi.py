"""Linearization of products of normalized Jacobi polynomials.

The polynomials R_n are normalized so R_n(1) = 1 and satisfy

    R_1(x) R_n(x) = a_n R_{n+1}(x) + b_n R_n(x) + c_n R_{n-1}(x),

with all coefficient sequences exact rationals in the parameters.  There are
two families, jacobi and gencheb; the companion family R+ of the paper is
jacobi at the point `plus_params(p)`.  Their rows are one type,
`RecurrenceCoeffs` (gencheb rows from `gencheb_rec_coeffs`, with b_n = 0), and
one walker, `walk_recurrence`, runs the recurrence for both, on values and on
polynomials.  The product expansion R_m R_{m+s} = sum_k g(m, m+s; k) R_k is
computed from closed forms at the four extreme indices k in {s, s+1, s+2m-1,
s+2m} together with a three-point recursion in the interior; every run
cross-checks the recursion against the closed forms exactly, so an internal
inconsistency cannot produce a silently wrong vector.  A brute-force route
through monomial coefficients provides a fully independent oracle.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact import Rational, _over_lcm, _rising, to_fraction
from .exact import RationalPolynomial
from .params import JacobiParams

FAMILY_JACOBI = "jacobi"
FAMILY_GENCHEB = "gencheb"
FAMILIES = (FAMILY_JACOBI, FAMILY_GENCHEB)
_ZERO = Fraction(0)


def internal_error(p: JacobiParams, route: str, what: str, **where) -> RuntimeError:
    """The error for a failed internal cross-check.  Its message names the
    check, the route that ran it, the parameter point and the indices."""
    at = "".join(f", {name}={value}" for name, value in where.items())
    return RuntimeError(
        f"internal: {what} (route {route}, alpha={p.alpha}, beta={p.beta}{at})"
    )


@dataclass(frozen=True)
class RecurrenceCoeffs:
    """One row of the three-term recurrence P_1 P_n = a_n P_{n+1} + b_n P_n
    + c_n P_{n-1}; c_n is None for n = 0, and gencheb rows have b_n = 0."""

    n: int
    a_n: Fraction
    b_n: Fraction
    c_n: Fraction | None

    def __post_init__(self):
        # A zero b_n (every gencheb row, a hot path) is not added.
        total = self.a_n + self.b_n if self.b_n else self.a_n
        if total + (self.c_n if self.c_n is not None else 0) != 1:
            raise ValueError(f"recurrence row does not sum to 1 at n={self.n}")


@dataclass(frozen=True, slots=True, init=False)
class CoeffVector:
    """Linearization coefficients g(m, n; k) for k = |m-n| .. m+n.

    Stored as integer numerators `nums` over one positive denominator `den`
    in lowest terms, gcd(den, *nums) == 1, so that g(m, n; |m-n| + i) =
    nums[i] / den; the checks (the entries sum to 1, the jacobi extremes are
    positive, the gencheb parity zeros) run on these integers.  `values`,
    `cv[k]` (k the absolute position) and `items()` form the `Fraction`s when
    asked for, with zero entries as one shared 0.  m <= n always
    (constructors normalize).
    """

    m: int
    n: int
    family: str
    nums: tuple[int, ...]
    den: int

    def __init__(self, m: int, n: int, family: str, values):
        den, *nums = _over_lcm(*values)
        self._set(m, n, family, tuple(nums), den)

    @classmethod
    def _of(cls, m: int, n: int, family: str, nums, den: int) -> "CoeffVector":
        """The vector nums[i] / den, for integers already in lowest terms with
        den > 0."""
        cv = cls.__new__(cls)
        cv._set(m, n, family, tuple(nums), den)
        return cv

    def _set(self, m: int, n: int, family: str, nums: tuple[int, ...], den: int) -> None:
        if family not in FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        if len(nums) != m + n - abs(m - n) + 1:
            raise ValueError("coefficient vector has the wrong length")
        if sum(nums) != den:
            raise ValueError("coefficient vector does not sum to 1")
        if family == FAMILY_JACOBI:
            if nums[0] <= 0 or nums[-1] <= 0:
                raise ValueError("extreme coefficients must be positive")
        elif any(nums[1::2]):  # m + n - k is odd at the odd positions
            raise ValueError("parity-violating entry must be zero")
        for name, value in zip(self.__slots__, (m, n, family, nums, den)):
            object.__setattr__(self, name, value)

    @property
    def k_min(self) -> int:
        return abs(self.m - self.n)

    @property
    def k_max(self) -> int:
        return self.m + self.n

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The entries as `Fraction`s: values[i] is g(m, n; |m-n| + i)."""
        den = self.den
        return tuple(Fraction(x, den) if x else _ZERO for x in self.nums)

    def __getitem__(self, k: int) -> Fraction:
        if not self.k_min <= k <= self.k_max:
            raise IndexError(f"k={k} outside support [{self.k_min}, {self.k_max}]")
        x = self.nums[k - self.k_min]
        return Fraction(x, self.den) if x else _ZERO

    def items(self):
        return enumerate(self.values, self.k_min)


def jacobi_rec_coeffs(p: JacobiParams, n: int) -> RecurrenceCoeffs:
    """Recurrence row n, computed in both parametrizations and cross-checked.

    alpha, beta, a and b are read over one common denominator d
    (`p.over_lcm_all`), so each entry is one integer quotient (as in
    theta_iota_kappa)."""
    if n < 0:
        raise ValueError("recurrence index must be >= 0")
    d, al, be, a, b = p.over_lcm_all
    if n == 0:
        a0 = Fraction(2 * al + 2 * d, al + be + 2 * d)
        a0_ab = Fraction(a + b + d, a + d)
        b0 = Fraction(be - al, al + be + 2 * d)
        b0_ab = Fraction(-b, a + d)
        if a0 != a0_ab or b0 != b0_ab:
            raise internal_error(
                p, "jacobi-recurrence", "recurrence parametrizations disagree", n=0
            )
        return RecurrenceCoeffs(0, a0, b0, None)
    # Scaled by d: n_d = nd, one = d; the integer n alone is not scaled.
    n_d, one = n * d, d
    an = Fraction(
        (al + be + 2 * one) * (n_d + al + be + one) * (n_d + al + one),
        (al + one) * (2 * n_d + al + be + one) * (2 * n_d + al + be + 2 * one),
    )
    an_ab = Fraction(
        (a + one) * (n_d + a) * (2 * n_d + a + b + one),
        (a + b + one) * (2 * n_d + a) * (2 * n_d + a + one),
    )
    bn_ab = Fraction(
        4 * b * n * (n_d + a) * one,
        (a + b + one) * (2 * n_d + a - one) * (2 * n_d + a + one),
    )
    cn_ab = Fraction(
        (a + one) * n * (2 * n_d + a - b - one) * one,
        (a + b + one) * (2 * n_d + a - one) * (2 * n_d + a),
    )
    cn = Fraction(
        (al + be + 2 * one) * n * (n_d + be) * one,
        (al + one) * (2 * n_d + al + be) * (2 * n_d + al + be + one),
    )
    if an != an_ab or cn != cn_ab:
        raise internal_error(
            p, "jacobi-recurrence", "recurrence parametrizations disagree", n=n
        )
    return RecurrenceCoeffs(n, an_ab, bn_ab, cn_ab)


@lru_cache(maxsize=64)
def gencheb_rec_coeffs(p: JacobiParams, n: int) -> RecurrenceCoeffs:
    """Row n >= 1 of x T_n = a_n T_{n+1} + c_n T_{n-1} (b_n = 0), computed in
    both parametrizations and cross-checked when it is built; cached, so a
    scan to degree 31 builds each row of its point once.

    alpha, beta, a and b are read over one common denominator d
    (`p.over_lcm_all`), so each entry is one integer quotient."""
    if n < 1:
        raise ValueError("recurrence index must be >= 1")
    d, al, be, a, b = p.over_lcm_all
    # r is the half-index scaled by d.
    if n % 2 == 1:
        r = (n + 1) // 2 * d
        an = Fraction(r + al, 2 * r + al + be)
        an_ab = Fraction(2 * r + a + b - d, 4 * r + 2 * a - 2 * d)
        cn = Fraction(r + be, 2 * r + al + be)
        cn_ab = Fraction(2 * r + a - b - d, 4 * r + 2 * a - 2 * d)
    else:
        r = n // 2 * d
        an = Fraction(r + al + be + d, 2 * r + al + be + d)
        an_ab = Fraction(r + a, 2 * r + a)
        cn = Fraction(r, 2 * r + al + be + d)
        cn_ab = Fraction(r, 2 * r + a)
    if an != an_ab or cn != cn_ab:
        raise internal_error(
            p, "gencheb-recurrence", "recurrence parametrizations disagree", n=n
        )
    if not 0 < an.numerator < an.denominator:  # 0 < a_n < 1, on integers
        raise ValueError(f"recurrence pair outside (0,1) at n={n}")
    return RecurrenceCoeffs(n, an, _ZERO, cn)


def walk_recurrence(p: JacobiParams, family: str, x, ps: list, n: int) -> list:
    """Extend ps = [P_0, ...] of the family at x (a `Fraction`, or the
    `RationalPolynomial` variable) up to P_n, in place, by P_1 = (x - b_0) / a_0
    (gencheb: P_1 = x) and P_{k+1} = ((P_1 - b_k) P_k - c_k P_{k-1}) / a_k, with
    the family's rows at p.  The companion family R+ is jacobi at
    plus_params(p)."""
    if len(ps) > n:
        return ps
    rows = gencheb_rec_coeffs if family == FAMILY_GENCHEB else jacobi_rec_coeffs
    if len(ps) == 1:
        row = None if family == FAMILY_GENCHEB else rows(p, 0)
        ps.append(x if row is None else (x - row.b_n) * (1 / row.a_n))
    for k in range(len(ps) - 1, n):
        row = rows(p, k)
        ps.append(((ps[1] - row.b_n) * ps[k] - row.c_n * ps[k - 1]) * (1 / row.a_n))
    return ps


def jacobi_eval(p: JacobiParams, n: int, x: Rational) -> Fraction:
    """Evaluate R_n at a rational point by the three-term recurrence."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return walk_recurrence(p, FAMILY_JACOBI, to_fraction(x), [Fraction(1)], n)[n]


def _recursion_numerators(
    big_l: int, a: int, b: int, m: int, s: int, j: int
) -> tuple[int, int, int, int, int]:
    """(up, down, theta_N, iota_N, kappa_N) for a, b and j given as integers
    over L (a = A/L, ...), with up = (2s+2j+a+1) L and down = (2s+2j+a-1) L:

        theta = theta_N / (up (up+L) L^3),
        iota  = iota_N  / (up down L^4),
        kappa = kappa_N / ((down-L) down L^3).

    Each factor (2m - j + a - 1) of the rational formulas reads m2 - j + a - one
    here, with m2 = 2mL, s2 = 2sL and one = L."""
    m2, s2, one = 2 * m * big_l, 2 * s * big_l, big_l
    up = s2 + 2 * j + a + one
    down = s2 + 2 * j + a - one
    theta_n = (
        (m2 - j + a - one)
        * (m2 + s2 + j + a + one)
        * (s2 + j + one)
        * (s2 + 2 * j + a - b + one)
        * (j + one)
    )
    iota_n = b * (
        (m2 - j) * (m2 + s2 + j + 2 * a) * (s2 + j + one) * (j + one) * down
        - (m2 - j + one) * (m2 + s2 + j + 2 * a - one) * (s2 + j) * j * up
    )
    kappa_n = (
        (m2 - j + one)
        * (m2 + s2 + j + 2 * a - one)
        * (s2 + j + a - one)
        * (s2 + 2 * j + a + b - one)
        * (j + a - one)
    )
    return up, down, theta_n, iota_n, kappa_n


def theta_iota_kappa(
    p: JacobiParams, m: int, s: int, j: Rational
) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficient functions of the three-point recursion

        theta(j) g(s+j+1) = iota(j) g(s+j) + kappa(j) g(s+j-1)

    for the product R_m R_{m+s}.  j may be rational: the functions extend to
    real j, and the zero count reads that extension of iota as the polynomial
    `analysis.iota_numerator_poly`.  The admissible range is 1 <= j <= 2m - 1.

    a, b and j are put over one common denominator L, so each function is
    one integer quotient (`_recursion_numerators`): three `Fraction`s per
    call.  kappa is 0 at j = 1, s = 0, a = 0, where its denominator vanishes
    together with its numerator.
    """
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    j = to_fraction(j)
    if not 1 <= j <= 2 * m - 1:
        raise ValueError("recursion index j must lie in [1, 2m-1]")
    big_l, a, b, j = _over_lcm(p.a, p.b, j)
    up, down, theta_n, iota_n, kappa_n = _recursion_numerators(big_l, a, b, m, s, j)
    theta = Fraction(theta_n, up * (up + big_l) * big_l**3)
    iota = Fraction(iota_n, up * down * big_l**4)
    if j == big_l and s == 0 and a == 0:
        kappa = Fraction(0)
    else:
        kappa = Fraction(kappa_n, (down - big_l) * down * big_l**3)
    return theta, iota, kappa


def gasper_boundary(
    p: JacobiParams, m: int, s: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Closed forms for g(m, m+s; k) at k = s, s+1, s+2m-1, s+2m.

    With r = m + s and t = 2m + s, the two extreme entries are

        g(s)    = (s+1)_m (m+a)_m (s+be+1)_m / ((2s+a+1)_2m (al+1)_m),
        g(s+2m) = (r+a)_r (m+a)_m (r+al+1)_m / ((t+a)_t (al+1)_m),

    and the two next to them are these times a rational factor.  With
    a = A/L, b = B/L and al, be over 2L, each rising factorial is an integer
    rising product over a power of L (or 2L); clearing those powers leaves

        g(s)    = (s+1)_m (mL+A | L)_m (2sL+L+A-B | 2L)_m L^m
                  / ((2sL+L+A | L)_2m (L+A+B | 2L)_m),
        g(s+2m) = (rL+A | L)_r (mL+A | L)_m (2rL+L+A+B | 2L)_m
                  / ((tL+A | L)_t (L+A+B | 2L)_m),

    where (X | Q)_n = X (X+Q) ... (X+(n-1)Q) is an integer.  One `Fraction`
    per entry.  The code scales by L itself instead of passing these tables
    to `exact.pochhammer_ratio`: a scan calls it at every (m, s), and building
    the `Fraction` arguments costs more than the products do.
    """
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    big_l, a, b = p.over_lcm_ab
    r, t = m + s, 2 * m + s
    mid = _rising(m * big_l + a, big_l, m)
    al_part = _rising(big_l + a + b, 2 * big_l, m)
    g_lo = Fraction(
        _rising(s + 1, 1, m)
        * mid
        * _rising((2 * s + 1) * big_l + a - b, 2 * big_l, m)
        * big_l**m,
        _rising((2 * s + 1) * big_l + a, big_l, 2 * m) * al_part,
    )
    g_hi = Fraction(
        _rising(r * big_l + a, big_l, r)
        * mid
        * _rising((2 * r + 1) * big_l + a + b, 2 * big_l, m),
        _rising(t * big_l + a, big_l, t) * al_part,
    )
    # Scaled by L as in theta_iota_kappa: m_l = mL, s_l = sL, one = L.
    m_l, s_l, one = m * big_l, s * big_l, big_l
    g_lo1 = Fraction(
        4 * b * m * (m_l + s_l + a) * (2 * s_l + a + 2 * one) * g_lo.numerator,
        (2 * m_l + 2 * s_l + a + one)
        * (2 * m_l + a - one)
        * (2 * s_l + a - b + one)
        * g_lo.denominator,
    )
    g_hi1 = Fraction(
        4 * b * m * (m_l + s_l) * (4 * m_l + 2 * s_l + a - 2 * one) * g_hi.numerator,
        (4 * m_l + 2 * s_l + a + b - one)
        * (2 * m_l + 2 * s_l + a - one)
        * (2 * m_l + a - one)
        * g_hi.denominator,
    )
    return g_lo, g_lo1, g_hi1, g_hi


def _jacobi_vector(m: int, n: int, pairs: list[tuple[int, int]]) -> CoeffVector:
    """The jacobi vector of reduced (numerator, denominator > 0) pairs: over
    their lcm it is in lowest terms already."""
    den = lcm(*(d for _, d in pairs))
    return CoeffVector._of(m, n, FAMILY_JACOBI, [x * (den // d) for x, d in pairs], den)


@lru_cache(maxsize=1024)
def linearize_jacobi(p: JacobiParams, m: int, n: int) -> CoeffVector:
    """Full coefficient vector of R_m R_n in the R basis.

    Closed forms fill the two lowest and two highest positions; the interior
    comes from the forward recursion (theta > 0 there).  With a, b and j
    over their common denominator L (`p.over_lcm_ab`),
    up = (2s+2j+a+1) L, down = (2s+2j+a-1) L and e = down - L, theta, iota
    and kappa have the integer numerators theta_N, iota_N, kappa_N of
    `_recursion_numerators` over up (up+L) L^3, up down L^4 and e down L^3,
    so with the current entry c_N/c_D and the previous one p_N/p_D each step
    is one quotient

        g(s+j+1) = (iota_N e c_N p_D + kappa_N up L p_N c_D) (up+L)
                   / (e down L theta_N c_D p_D),

    kept as a (numerator, denominator) pair reduced by one gcd; at j = 1,
    s = 0, a = 0, where kappa = 0 and e = 0, e is taken as 1.  The recursion
    value at the top of its range is checked exactly against the closed
    form, and the three-point identity at the top index, both
    cross-multiplied: integer equalities with no division by theta, which is
    0 at the top index when a = 0.  The vector is the pairs over their lcm.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return CoeffVector._of(0, n, FAMILY_JACOBI, (1,), 1)
    s = n - m
    g_lo, g_lo1, g_hi1, g_hi = gasper_boundary(p, m, s)
    vals: list[tuple[int, int] | None] = [None] * (2 * m + 1)
    vals[0], vals[1], vals[2 * m - 1], vals[2 * m] = (
        g.as_integer_ratio() for g in (g_lo, g_lo1, g_hi1, g_hi)
    )
    if m == 1:
        if g_lo1 != g_hi1:
            raise internal_error(
                p, "gasper", "extreme closed forms disagree", m=m, n=n, k=s + 1
            )
        return _jacobi_vector(m, n, vals)
    big_l, a, b = p.over_lcm_ab
    top = 2 * m - 1
    for j in range(1, top + 1):
        up, down, theta_n, iota_n, kappa_n = _recursion_numerators(
            big_l, a, b, m, s, j * big_l
        )
        e = down - big_l or 1
        (c_n, c_d), (p_n, p_d) = vals[j], vals[j - 1]
        num = (iota_n * e * c_n * p_d + kappa_n * up * big_l * p_n * c_d) * (up + big_l)
        den = e * down * big_l * c_d * p_d * theta_n
        if j < top - 1:
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            vals[j + 1] = (num // g, den // g)
        elif j == top - 1:
            if num * g_hi1.denominator != den * g_hi1.numerator:
                raise internal_error(
                    p, "gasper", "recursion disagrees with the closed form",
                    m=m, n=n, k=s + j + 1,
                )
        elif den * g_hi.numerator != num * g_hi.denominator:
            raise internal_error(
                p, "gasper", "three-point identity fails at the top index",
                m=m, n=n, k=s + 2 * m,
            )
    return _jacobi_vector(m, n, vals)


@lru_cache(maxsize=64)
def _monomial_basis(p: JacobiParams, family: str) -> list:
    """Polynomials P_0, P_1, ... of the family as monomial-coefficient vectors:
    one list per point and family, which linearize_bruteforce extends."""
    return [RationalPolynomial([1])]


def linearize_bruteforce(
    p: JacobiParams, m: int, n: int, family: str = FAMILY_JACOBI
) -> CoeffVector:
    """Independent oracle: multiply in the monomial basis, convert back by
    leading-term elimination, and assert exact orthogonality: all positions
    below |m-n| vanish.

    The elimination is fraction-free: the remainder is integers R over one Q.
    With P_k = N_k / D_k and lead = N_k[k], step k forms g(k) = R[k] D_k /
    (Q lead) as one `Fraction`, sets R <- R lead - R[k] N_k (zeroing R[k])
    and Q <- Q lead, and divides R and Q by their gcd."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    basis = walk_recurrence(
        p, family, RationalPolynomial.variable(), _monomial_basis(p, family), m + n
    )
    product = basis[m] * basis[n]
    rem, big_q = list(product.nums), product.den
    coeffs = [_ZERO] * (m + n + 1)
    for k in range(m + n, -1, -1):
        top, n_k = rem.pop(), basis[k].nums
        if top:
            lead = n_k[k]
            coeffs[k] = Fraction(top * basis[k].den, big_q * lead)
            rem = [r * lead - top * c for r, c in zip(rem, n_k)]
            big_q *= lead
            g = gcd(big_q, *rem)
            if g != 1:
                rem, big_q = [r // g for r in rem], big_q // g
    for k in range(0, n - m):
        if coeffs[k] != 0:
            raise internal_error(
                p, f"brute/{family}", "coefficient below the support is nonzero",
                m=m, n=n, k=k,
            )
    return CoeffVector(m, n, family, tuple(coeffs[n - m :]))

