"""Linearization of products of normalized Jacobi polynomials.

The polynomials R_n are normalized so R_n(1) = 1 and satisfy

    R_1(x) R_n(x) = a_n R_{n+1}(x) + b_n R_n(x) + c_n R_{n-1}(x),

with all coefficient sequences exact rationals in the parameters.  There are
two families, jacobi and gencheb; the companion family R+ of the paper is
jacobi at the point `plus_params(p)`.  Their rows are one type,
`RecurrenceCoeffs`, the integers (a, b, c) over one denominator (gencheb rows
from `gencheb_rec_coeffs`, with b = 0), and one walker, `walk_recurrence`,
runs the recurrence for both on polynomials; evaluation reads the walked
polynomial.  The product expansion R_m R_{m+s} = sum_k g(m, m+s; k) R_k is
computed from closed forms at the four extreme indices k in {s, s+1, s+2m-1,
s+2m} together with a three-point recursion in the interior; every run
cross-checks the recursion against the closed forms exactly, so an internal
inconsistency cannot produce a silently wrong vector.  The recursion has one
integer form, read by every caller here and in `analysis` and `cli`: its
coefficients theta, iota and kappa are the weights T, I and K over one
denominator D of `_recursion_weights`.  The two inner closed forms are the
extremes times `_boundary_ratios`, the one integer form of g(s+1)/g(s) and
g(s+2m-1)/g(s+2m).  A brute-force route through monomial coefficients
provides a fully independent oracle.  `product_triangle` gives every vector
m <= n <= N of either family in one pass from the rows alone, by the product
recurrence on the first index, P_m P_n = (P_1 P_{m-1} P_n - b P_{m-1} P_n -
c P_{m-2} P_n) / a; the sign scans read it.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exact import Rational, RationalPolynomial, _convolve, _over_lcm, _rising, to_fraction
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


@dataclass(frozen=True, slots=True)
class RecurrenceCoeffs:
    """One row of the three-term recurrence P_1 P_n = a_n P_{n+1} + b_n P_n
    + c_n P_{n-1}, as integers over one positive denominator in lowest terms:
    a_n = a / den, b_n = b / den and c_n = c / den.  c = 0 for n = 0, and
    gencheb rows have b = 0."""

    n: int
    a: int
    b: int
    c: int
    den: int

    def __post_init__(self):
        if self.den <= 0 or gcd(self.a, self.b, self.c, self.den) != 1:
            raise ValueError(f"recurrence row not in lowest terms over den > 0 at n={self.n}")
        if self.a + self.b + self.c != self.den:
            raise ValueError(f"recurrence row does not sum to 1 at n={self.n}")


_GENCHEB_ROW0 = RecurrenceCoeffs(0, 1, 0, 0, 1)  # T_1 = x


@dataclass(frozen=True, slots=True)
class CoeffVector:
    """Linearization coefficients g(m, n; k) for k = |m-n| .. m+n.

    Stored as integer numerators `nums` (a tuple) over one positive
    denominator `den` in lowest terms, gcd(den, *nums) == 1, so that
    g(m, n; |m-n| + i) = nums[i] / den; the checks (den > 0, the entries sum
    to 1, the jacobi extremes are positive, the gencheb parity zeros) run on
    these integers.  `values`, `cv[k]` (k the absolute position) and `items()` form
    the `Fraction`s when asked for, with zero entries as one shared 0.
    m <= n always (the builders pass m <= n).
    """

    m: int
    n: int
    family: str
    nums: tuple[int, ...]
    den: int

    def __post_init__(self):
        nums = self.nums
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if len(nums) != self.m + self.n - abs(self.m - self.n) + 1:
            raise ValueError("coefficient vector has the wrong length")
        if self.den <= 0:
            raise ValueError("coefficient vector denominator must be positive")
        if sum(nums) != self.den:
            raise ValueError("coefficient vector does not sum to 1")
        if self.family == FAMILY_JACOBI:
            if nums[0] <= 0 or nums[-1] <= 0:
                raise ValueError("extreme coefficients must be positive")
        elif any(nums[1::2]):  # m + n - k is odd at the odd positions
            raise ValueError("parity-violating entry must be zero")

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


def _reduced_row(n: int, row: tuple[int, int, int, int]) -> RecurrenceCoeffs:
    """Row n from the integers row = (a, b, c, den), den > 0, reduced by
    one gcd."""
    a, b, c, den = row
    g = gcd(a, b, c, den)
    return RecurrenceCoeffs(n, a // g, b // g, c // g, den // g)


def _jacobi_row(d, a, b, n):
    """(a, b, c, den) of jacobi row n: the (a, b) form over
    (a+b+1)(2n+a-1)(2n+a)(2n+a+1), scaled by d (row 0 over a+1), for a and
    b given as integers over d.  Only +, - and * touch the arguments, so
    tests/test_jacobi.py runs it on polynomials in (d, alpha d, beta d, n)
    and proves it equal to Szego's (alpha, beta) form for all parameters."""
    if n == 0:
        return a + b + d, -b, 0, a + d
    # Scaled by d: n_d = nd, one = d; the integer n alone is not scaled.
    n_d, one = n * d, d
    lo, mid, hi = 2 * n_d + a - one, 2 * n_d + a, 2 * n_d + a + one
    return (
        (a + one) * (n_d + a) * (2 * n_d + a + b + one) * lo,
        4 * b * n * (n_d + a) * mid * one,
        (a + one) * n * (2 * n_d + a - b - one) * hi * one,
        (a + b + one) * lo * mid * hi,
    )


def jacobi_rec_coeffs(p: JacobiParams, n: int) -> RecurrenceCoeffs:
    """Recurrence row n: `_jacobi_row` at the point's (L, aL, bL)
    (`p.over_lcm_ab`), reduced by one gcd."""
    if n < 0:
        raise ValueError("recurrence index must be >= 0")
    return _reduced_row(n, _jacobi_row(*p.over_lcm_ab, n))


def _gencheb_row(d, al, be, r, odd):
    """(a, 0, c, den) of gencheb row n: the (alpha, beta) form, for alpha
    and beta given as integers over d and r = ceil(n/2) d, the half-index
    scaled by d: (r+al, 0, r+be) over 2r+al+be for odd n, (r+al+be+d, 0, r)
    over 2r+al+be+d for even n.  Like `_jacobi_row` it runs on polynomials,
    and tests/test_jacobi.py proves it equal to the (a, b) form."""
    if odd:
        return r + al, 0, r + be, 2 * r + al + be
    return r + al + be + d, 0, r, 2 * r + al + be + d


@lru_cache(maxsize=64)
def gencheb_rec_coeffs(p: JacobiParams, n: int) -> RecurrenceCoeffs:
    """Row n >= 1 of x T_n = a_n T_{n+1} + c_n T_{n-1} (b = 0):
    `_gencheb_row` at the point's integers over d (`p.over_lcm_all`),
    reduced by one gcd; a_n + c_n = 1, so the reduced a_n and c_n share the
    row's denominator.  Cached, so the gencheb assembly of many products at
    one point builds each row once."""
    if n < 1:
        raise ValueError("recurrence index must be >= 1")
    d, al, be, _, _ = p.over_lcm_all
    return _reduced_row(n, _gencheb_row(d, al, be, (n + 1) // 2 * d, n % 2))


def walk_recurrence(p: JacobiParams, family: str, n: int) -> list:
    """The family's polynomials [P_0, .., P_n] at p: the point's cached list
    `_monomial_basis(p, family)`, extended in place and returned.  P_1 =
    (x - b_0) / a_0 (gencheb: P_1 = x) and P_{k+1} = ((P_1 - b_k) P_k - c_k
    P_{k-1}) / a_k, with the family's rows at p.  The companion family R+ is
    jacobi at plus_params(p).

    Every step is one formula on integer coefficient lists: with the row
    (a, b, c) over R, y = x at k = 0 (gencheb row 0: a = R = 1, b = c = 0)
    and y = P_1 after it, y = Y / Y_D, P_k = N / D and P_{k-1} = M / E (0 at
    k = 0),

        P_{k+1} = ((R Y - b Y_D) N E - c Y_D D M) / (a Y_D D E),

    with (R Y - b Y_D) E N the convolution, and one gcd by
    `RationalPolynomial._of`."""
    ps = _monomial_basis(p, family)
    rows = gencheb_rec_coeffs if family == FAMILY_GENCHEB else jacobi_rec_coeffs
    for k in range(len(ps) - 1, n):
        row = rows(p, k) if k or family == FAMILY_JACOBI else _GENCHEB_ROW0
        y, y_d = (ps[1].nums, ps[1].den) if k else ((0, 1), 1)
        big_n, d = ps[k].nums, ps[k].den
        big_m, e = (ps[k - 1].nums, ps[k - 1].den) if k else ((), 1)
        # (R Y - b Y_D) E, with b on the constant term only.
        y = [t * row.den * e for t in y]
        y[0] -= row.b * y_d * e
        out = _convolve(y, big_n)
        down = row.c * y_d * d
        for i, t in enumerate(big_m):
            out[i] -= down * t
        ps.append(RationalPolynomial._of(out, row.a * y_d * d * e))
    return ps


def jacobi_eval(p: JacobiParams, n: int, x: Rational) -> Fraction:
    """Evaluate R_n at a rational point: the walked polynomial R_n at x."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    return walk_recurrence(p, FAMILY_JACOBI, n)[n](x)


def _recursion_weights(
    big_l: int, a: int, b: int, m: int, s: int, j: int
) -> tuple[int, int, int, int]:
    """(T, I, K, D) with theta = T / D, iota = I / D and kappa = K / D, for
    a, b and j given as integers over L (a = A/L, ...).  With up =
    (2s+2j+a+1) L, down = (2s+2j+a-1) L and e = down - L, theta, iota and
    kappa are theta_N / (up (up+L) L^3), iota_N / (up down L^4) and kappa_N /
    (e down L^3), so

        D = up (up+L) down e L^4,  T = theta_N down e L,
        I = iota_N (up+L) e,       K = kappa_N up (up+L) L.

    kappa's removable zero is decided here alone: at j = 1, s = 0, a = 0,
    e = 0 and kappa_N = 0, and e is taken as 1.  At a rational j where e = 0
    and kappa_N != 0, a pole of kappa, D is 0.

    A factor (2m - j + a - 1) reads mj + a - one, with mj = 2mL - j and one
    = L.  It runs on polynomials: tests/test_jacobi.py proves the weights equal
    to the paper's for all parameters, all but the removable zero's branch."""
    one = big_l
    m2, sj = 2 * m * one, 2 * s * one + j  # 2mL, (2s + j) L
    mj, mt = m2 - j, m2 + sj + a  # (2m - j) L, (2m + 2s + j + a) L
    w = sj + j + a  # (2s + 2j + a) L
    up, down = w + one, w - one
    shared_ik = (mj + one) * (mt + a - one)
    shared_ti = (sj + one) * (j + one)
    theta_n = (mj + a - one) * (mt + one) * (w - b + one) * shared_ti
    iota_n = b * (mj * (mt + a) * shared_ti * down - shared_ik * sj * j * up)
    kappa_n = shared_ik * (sj + a - one) * (w + b - one) * (j + a - one)
    e = down - one
    if not (e or kappa_n):
        e = 1
    de, uu = down * e, up * (up + one)
    return theta_n * de * one, iota_n * (up + one) * e, kappa_n * uu * one, uu * de * one**4


def theta_iota_kappa(
    p: JacobiParams, m: int, s: int, j: Rational
) -> tuple[Fraction, Fraction, Fraction]:
    """Coefficient functions of the three-point recursion

        theta(j) g(s+j+1) = iota(j) g(s+j) + kappa(j) g(s+j-1)

    for the product R_m R_{m+s}.  j may be rational: the functions extend to
    real j, and the zero count reads that extension of iota as the polynomial
    `analysis.iota_numerator_poly`.  The admissible range is 1 <= j <= 2m - 1.

    a, b and j are put over one common denominator L, so the three functions
    are integers over one denominator D (`_recursion_weights`): three
    `Fraction`s per call.  At a rational j where kappa has a pole, D = 0 and
    the call raises ZeroDivisionError.
    """
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    j = to_fraction(j)
    if not 1 <= j <= 2 * m - 1:
        raise ValueError("recursion index j must lie in [1, 2m-1]")
    big_l, a, b, j_l = _over_lcm(p.a, p.b, j)
    theta, iota, kappa, den = _recursion_weights(big_l, a, b, m, s, j_l)
    if not den:
        raise ZeroDivisionError(
            f"kappa has a pole at j={j}, s={s} (alpha={p.alpha}, beta={p.beta})"
        )
    return Fraction(theta, den), Fraction(iota, den), Fraction(kappa, den)


def _boundary_ratios(big_l: int, a: int, b: int, m: int, s: int) -> tuple[tuple[int, int], ...]:
    """The ratios next to the extremes of R_m R_{m+s},

        g(s+1) / g(s)       = 4bm(m+s+a)(2s+a+2) / ((2m+2s+a+1)(2m+a-1)(2s+a-b+1)),
        g(s+2m-1) / g(s+2m) = 4bm(m+s)(4m+2s+a-2) / ((4m+2s+a+b-1)(2m+2s+a-1)(2m+a-1)),

    as (numerator, denominator) pairs scaled by L^3, for a = A/L and b = B/L
    given as A and B.  Each has the sign of b for alpha, beta > -1 and m >= 1:
    tests/test_jacobi.py proves both pairs and their signs for all parameters."""
    one, m_l, s_l = big_l, m * big_l, s * big_l
    m2a = 2 * m_l + a - one  # (2m + a - 1) L
    return (
        (4 * b * m * (m_l + s_l + a) * (2 * s_l + a + 2 * one),
         (2 * m_l + 2 * s_l + a + one) * m2a * (2 * s_l + a - b + one)),
        (4 * b * m * (m_l + s_l) * (4 * m_l + 2 * s_l + a - 2 * one),
         (4 * m_l + 2 * s_l + a + b - one) * (2 * m_l + 2 * s_l + a - one) * m2a),
    )


def gasper_boundary(
    p: JacobiParams, m: int, s: int
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Closed forms for g(m, m+s; k) at k = s, s+1, s+2m-1, s+2m.

    With r = m + s and t = 2m + s, the two extreme entries are

        g(s)    = (s+1)_m (m+a)_m (s+be+1)_m / ((2s+a+1)_2m (al+1)_m),
        g(s+2m) = (r+a)_r (m+a)_m (r+al+1)_m / ((t+a)_t (al+1)_m),

    and the two next to them are these times `_boundary_ratios`.  With
    a = A/L, b = B/L and al, be over 2L, each rising factorial is an integer
    rising product over a power of L (or 2L); clearing those powers leaves

        g(s)    = (s+1)_m (mL+A | L)_m (2sL+L+A-B | 2L)_m L^m
                  / ((2sL+L+A | L)_2m (L+A+B | 2L)_m),
        g(s+2m) = (rL+A | L)_r (mL+A | L)_m (2rL+L+A+B | 2L)_m
                  / ((tL+A | L)_t (L+A+B | 2L)_m),

    where (X | Q)_n = X (X+Q) ... (X+(n-1)Q) is an integer.  One `Fraction`
    per entry.  The code scales by L itself instead of passing the extremes
    to `exact._rising_ratio` over the point's d: `linearize_jacobi` calls it
    at every (m, s), and that route was 1.23x as slow over the 22 grid
    points, m 1..8, s 0..8 (slower in 40 of 40 rounds), and whole scans
    through `linearize_jacobi` 1.056x as slow (2-core x86_64, Python 3.11.7).
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
    (lo_n, lo_d), (hi_n, hi_d) = _boundary_ratios(big_l, a, b, m, s)
    g_lo1 = Fraction(lo_n * g_lo.numerator, lo_d * g_lo.denominator)
    g_hi1 = Fraction(hi_n * g_hi.numerator, hi_d * g_hi.denominator)
    return g_lo, g_lo1, g_hi1, g_hi


def _coeff_vector(m: int, n: int, family: str, pairs: list[tuple[int, int]]) -> CoeffVector:
    """The vector of reduced (numerator, denominator > 0) pairs: over their
    lcm it is in lowest terms already."""
    den = lcm(*(d for _, d in pairs))
    return CoeffVector(m, n, family, tuple([x * (den // d) for x, d in pairs]), den)


@lru_cache(maxsize=1024)
def linearize_jacobi(p: JacobiParams, m: int, n: int) -> CoeffVector:
    """Full coefficient vector of R_m R_n in the R basis.

    Closed forms fill the two lowest and two highest positions; the interior
    comes from the forward recursion (theta > 0 there).  With a, b and j
    over their common denominator L (`p.over_lcm_ab`), theta, iota and kappa
    are the integers T, I, K of `_recursion_weights` over one denominator,
    so with the current entry c_N/c_D and the previous one p_N/p_D each step
    is one quotient

        g(s+j+1) = (I c_N p_D + K p_N c_D) / (T c_D p_D),

    kept as a (numerator, denominator) pair reduced by one gcd.  The
    recursion value at the top of its range is checked exactly against the
    closed form, and the three-point identity at the top index, both
    cross-multiplied: integer equalities with no division by theta, which is
    0 at the top index when a = 0.  The vector is the pairs over their lcm.
    """
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return CoeffVector(0, n, FAMILY_JACOBI, (1,), 1)
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
        return _coeff_vector(m, n, FAMILY_JACOBI, vals)
    big_l, a, b = p.over_lcm_ab
    top = 2 * m - 1
    for j in range(1, top + 1):
        theta, iota, kappa, _ = _recursion_weights(big_l, a, b, m, s, j * big_l)
        (c_n, c_d), (p_n, p_d) = vals[j], vals[j - 1]
        num = iota * c_n * p_d + kappa * p_n * c_d
        den = theta * c_d * p_d
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
    return _coeff_vector(m, n, FAMILY_JACOBI, vals)


def _product_step(rows, v, v_lo, w, r, step):
    """(P_1 V/D - b_r V/D - c_r W/D') / a_r at k = v_lo - 1, v_lo - 1 + step,
    .., v_hi + 1, as integers over lcm(D, D') (R / R_r) A_r, and that
    denominator.  V holds the entries at k = v_lo, v_lo + step, .., and W
    those at k = v_lo + 1, v_lo + 1 + step, .., one position inside V; rows
    is (As, Bs, Cs, dens) by k, and row k is (A_k, B_k, C_k) over R_k.
    Multiplying by P_1 moves V_k by row k: a_k to k+1, b_k to k, c_k to k-1.
    R is the lcm of R_r and of each R_k over gcd(V_k, R_k): what V_k cancels
    of its row is not carried.  step is 2 when every b_k is 0: then the
    entries of the other parity are 0 and are not carried."""
    big_a, big_b, big_c, dens = rows
    (nums, den), (w_nums, w_den) = v, w
    v_rows = dens[v_lo : v_lo + step * len(nums) : step]
    big_r = lcm(dens[r], *[d // gcd(x, d) for x, d in zip(nums, v_rows)])
    e = lcm(den, w_den)
    e_v, s = e // den, big_r // dens[r]
    scale = e_v * big_r  # u_k = V_k e_v R / R_k: V_k / (D R_k) over e R
    out = [0] * (len(nums) + 3 - step)
    if step == 1:
        b_r = big_b[r] * s * e_v
        for i, (x, d) in enumerate(zip(nums, v_rows)):
            k = v_lo + i
            u = x * scale // d
            out[i] += big_c[k] * u
            out[i + 1] += big_b[k] * u - b_r * x
            out[i + 2] = big_a[k] * u
    else:
        for i, (x, d) in enumerate(zip(nums, v_rows)):
            k = v_lo + 2 * i
            u = x * scale // d
            out[i] += big_c[k] * u
            out[i + 1] = big_a[k] * u
    c_r = big_c[r] * s * (e // w_den)
    for i, y in enumerate(w_nums, 2 // step):
        out[i] -= c_r * y
    return out, e * s * big_a[r]


def product_triangle(p: JacobiParams, family: str, max_degree: int):
    """The `CoeffVector` of P_m P_n for every 0 <= m <= n <= max_degree, in
    scan order (n, then m), from the family's recurrence rows alone.

    Each column n is its own run from g(0, n) = P_n.  Row 0 is read as
    P_1 P_0 = P_1, (1, 0, 0) over 1, for both families (jacobi row 0 is the
    x-row), and then, by row m-1,

        P_m P_n = (P_1 (P_{m-1} P_n) - b_{m-1} P_{m-1} P_n - c_{m-1} P_{m-2} P_n) / a_{m-1},

    so g(m, n) comes from g(m-1, n) and g(m-2, n), the column's two live
    vectors, and each step forms exactly the 2m+1 entries of its support
    n-m .. n+m.  Each step is one integer formula (`_product_step`) over
    lcm(D, D') (R / R_{m-1}) a_{m-1}, reduced by one gcd.  Where every b_k
    is 0 (gencheb, and jacobi on b = 0) only the entries at k = m + n mod 2
    are carried.

    Every vector passes the `CoeffVector` checks before it is yielded (it
    sums to 1, the jacobi extremes are positive, the gencheb parity entries
    are 0); a failure raises `internal_error` on route rows/<family>, naming
    the point, m and n.  Any rows with nonzero a_k and c_k define an
    orthogonal family (Favard), so the checks guard the steps and the
    vectors they read, not the rows: a wrong but valid row gives another
    family's vectors.  The rows are proved equal to Szego's form in
    tests/test_jacobi.py.  The pass reads no Gasper weight, closed form or
    companion vector."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    row_at = gencheb_rec_coeffs if family == FAMILY_GENCHEB else jacobi_rec_coeffs
    table = [_GENCHEB_ROW0, *(row_at(p, k) for k in range(1, 2 * max_degree))]
    rows = tuple([getattr(row, f) for row in table] for f in ("a", "b", "c", "den"))
    step = 1 if any(rows[1]) else 2
    for n in range(max_degree + 1):
        w, v = ((), 1), ((1,), 1)  # g(-1, n) = 0 and g(0, n) = P_n
        yield CoeffVector(0, n, family, *v)
        for m in range(1, n + 1):
            out, den = _product_step(rows, v, n - m + 1, w, m - 1, step)
            g = gcd(den, *out)  # den > 0: a_{m-1} > 0 for alpha, beta > -1
            if g != 1:
                out, den = [x // g for x in out], den // g
            w, v = v, (out, den)
            nums = out
            if step == 2:  # the entries of the other parity are 0
                nums = [0] * (2 * m + 1)
                nums[::2] = out
            try:
                cv = CoeffVector(m, n, family, tuple(nums), den)
            except ValueError as exc:
                raise internal_error(p, f"rows/{family}", str(exc), m=m, n=n) from exc
            yield cv


@lru_cache(maxsize=64)
def _monomial_basis(p: JacobiParams, family: str) -> list:
    """Polynomials P_0, P_1, ... of the family as monomial-coefficient vectors:
    one list per point and family, which `walk_recurrence` extends."""
    return [RationalPolynomial([1])]


def linearize_bruteforce(
    p: JacobiParams, m: int, n: int, family: str = FAMILY_JACOBI
) -> CoeffVector:
    """Independent oracle: multiply in the monomial basis, convert back by
    leading-term elimination, and assert exact orthogonality: all positions
    below |m-n| vanish.

    The elimination is fraction-free: the remainder is integers R over one Q,
    first the product P_m P_n as one integer convolution N_m N_n over
    D_m D_n, left unreduced for the first step's gcd.  With P_k = N_k / D_k
    and lead = N_k[k], step k writes g(k) = R[k] D_k / (Q lead) as a reduced
    (numerator, denominator) pair, sets R <- R lead - R[k] N_k (zeroing R[k])
    and Q <- Q lead, and divides R and Q by their gcd.  The vector is the
    pairs from |m-n| up, over their lcm."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    basis = walk_recurrence(p, family, m + n)
    rem, big_q = _convolve(basis[m].nums, basis[n].nums), basis[m].den * basis[n].den
    pairs = [(0, 1)] * (m + n + 1)
    for k in range(m + n, -1, -1):
        top, n_k = rem.pop(), basis[k].nums
        if top:
            lead = n_k[k]
            num, den = top * basis[k].den, big_q * lead
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            pairs[k] = (num // g, den // g)
            rem = [r * lead - top * c for r, c in zip(rem, n_k)]
            big_q *= lead
            g = gcd(big_q, *rem)
            if g != 1:
                rem, big_q = [r // g for r in rem], big_q // g
    for k in range(0, n - m):
        if pairs[k][0]:
            raise internal_error(
                p, f"brute/{family}", "coefficient below the support is nonzero",
                m=m, n=n, k=k,
            )
    return _coeff_vector(m, n, family, pairs[n - m :])
