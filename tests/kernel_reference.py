"""Reference copies of the exact kernel as it was evaluated one `Fraction`
operation at a time, before the integer-numerator rewrite, and of the
recursion loop of `linearize_jacobi` as it was run on reduced theta, iota
and kappa `Fraction`s, before each step became one integer quotient.  The
gencheb assembly is kept as it accumulated each entry from two `Fraction`
products, and the sign scan as it compared `Fraction`s.  The polynomial class
is kept as it stored one `Fraction` per coefficient (`RefPolynomial`), with
the brute-force elimination and the p/q limit parts that ran one `Fraction`
operation per coefficient or factor.  The 9F8 prefactors and Dougall's
product are kept as the chains of one `pochhammer` `Fraction` per factor that
they were before each became one table of factors for one integer quotient,
and the 9F8 series sum as the loop of one `Fraction` product per parameter
that it was before each term became one such table.

The formulas below are kept verbatim so the kernel tests can demand exact
equality, and the same exception types, from the library's kernel.  They
are not used by the library.
"""

from fractions import Fraction
from math import comb, factorial

from jacobilin.analysis import (
    SCAN_MODES,
    VERDICT_ALL_NONNEG,
    VERDICT_ALL_POSITIVE,
    VERDICT_VIOLATION,
    SignReport,
)
from jacobilin.exact import Rational, pochhammer, to_fraction
from jacobilin.hypergeom import (
    SingularSeriesError,
    _check_indices,
    _require_open_region,
    _very_well_poised,
)
from jacobilin.jacobi import (
    FAMILIES,
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    CoeffVector,
    gencheb_rec_coeffs,
    internal_error,
    linearize_jacobi,
    walk_recurrence,
)
from jacobilin.params import make_params, plus_params


def ref_pochhammer(x, n):
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    x = to_fraction(x)
    out = Fraction(1)
    for k in range(n):
        out *= x + k
    return out


def ref_gen_binomial(x, m):
    if m < 0:
        raise ValueError("gen_binomial needs m >= 0")
    x = to_fraction(x)
    return ref_pochhammer(x - m + 1, m) / factorial(m)


def ref_theta_iota_kappa(p, m, s, j):
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    j = to_fraction(j)
    if not 1 <= j <= 2 * m - 1:
        raise ValueError("recursion index j must lie in [1, 2m-1]")
    a, b = p.a, p.b
    theta = (
        (2 * m - j + a - 1)
        * (2 * m + 2 * s + j + a + 1)
        * (2 * s + j + 1)
        * (2 * s + 2 * j + a - b + 1)
        / ((2 * s + 2 * j + a + 1) * (2 * s + 2 * j + a + 2))
        * (j + 1)
    )
    iota = b * (
        (2 * m - j)
        * (2 * m + 2 * s + j + 2 * a)
        * (2 * s + j + 1)
        / (2 * s + 2 * j + a + 1)
        * (j + 1)
        - (2 * m - j + 1)
        * (2 * m + 2 * s + j + 2 * a - 1)
        * (2 * s + j)
        / (2 * s + 2 * j + a - 1)
        * j
    )
    if j == 1 and s == 0 and a == 0:
        core = Fraction(0)
    else:
        core = (
            (2 * s + j + a - 1)
            * (2 * s + 2 * j + a + b - 1)
            / ((2 * s + 2 * j + a - 2) * (2 * s + 2 * j + a - 1))
            * (j + a - 1)
        )
    kappa = (2 * m - j + 1) * (2 * m + 2 * s + j + 2 * a - 1) * core
    return theta, iota, kappa


def ref_gasper_boundary(p, m, s):
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    gen_binomial = ref_gen_binomial
    a, b = p.a, p.b
    al = (a + b - 1) / 2
    be = (a - b - 1) / 2
    g_lo = (
        gen_binomial(m + s, m)
        * gen_binomial(2 * m + a - 1, m)
        * gen_binomial(m + s + be, m)
        / (
            gen_binomial(2 * m, m)
            * gen_binomial(2 * m + 2 * s + a, 2 * m)
            * gen_binomial(m + al, m)
        )
    )
    g_hi = (
        gen_binomial(2 * m + 2 * s + a - 1, m + s)
        * gen_binomial(2 * m + a - 1, m)
        * gen_binomial(2 * m + s + al, 2 * m + s)
        / (
            gen_binomial(4 * m + 2 * s + a - 1, 2 * m + s)
            * gen_binomial(m + s + al, m + s)
            * gen_binomial(m + al, m)
        )
    )
    g_lo1 = (
        4 * b * m * (m + s + a) * (2 * s + a + 2)
        / ((2 * m + 2 * s + a + 1) * (2 * m + a - 1) * (2 * s + a - b + 1))
        * g_lo
    )
    g_hi1 = (
        4 * b * m * (m + s) * (4 * m + 2 * s + a - 2)
        / ((4 * m + 2 * s + a + b - 1) * (2 * m + 2 * s + a - 1) * (2 * m + a - 1))
        * g_hi
    )
    return g_lo, g_lo1, g_hi1, g_hi


def ref_linearize_jacobi(p, m, n):
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return CoeffVector(0, n, FAMILY_JACOBI, (Fraction(1),))
    s = n - m
    g_lo, g_lo1, g_hi1, g_hi = ref_gasper_boundary(p, m, s)
    vals = [None] * (2 * m + 1)
    vals[0], vals[1], vals[2 * m - 1], vals[2 * m] = g_lo, g_lo1, g_hi1, g_hi
    if m == 1:
        if g_lo1 != g_hi1:
            raise internal_error(
                p, "gasper", "extreme closed forms disagree", m=m, n=n, k=s + 1
            )
    else:
        for j in range(1, 2 * m - 1):
            theta, iota, kappa = ref_theta_iota_kappa(p, m, s, j)
            cur, prev = vals[j], vals[j - 1]
            iota_den, kappa_den = iota.denominator, kappa.denominator
            cur_den, prev_den = cur.denominator, prev.denominator
            nxt = Fraction(
                (
                    iota.numerator * cur.numerator * kappa_den * prev_den
                    + kappa.numerator * prev.numerator * iota_den * cur_den
                )
                * theta.denominator,
                iota_den * cur_den * kappa_den * prev_den * theta.numerator,
            )
            if j + 1 == 2 * m - 1:
                if nxt != g_hi1:
                    raise internal_error(
                        p, "gasper", "recursion disagrees with the closed form",
                        m=m, n=n, k=s + j + 1,
                    )
            else:
                vals[j + 1] = nxt
        theta, iota, kappa = ref_theta_iota_kappa(p, m, s, 2 * m - 1)
        if theta * g_hi != iota * g_hi1 + kappa * vals[2 * m - 2]:
            raise internal_error(
                p, "gasper", "three-point identity fails at the top index",
                m=m, n=n, k=s + 2 * m,
            )
    return CoeffVector(m, n, FAMILY_JACOBI, tuple(vals))


def ref_linearize_gencheb(p, m, n):
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


def _ref_scan_entries(p, max_degree, mode):
    gencheb = mode.startswith("gencheb")
    linearize = ref_linearize_gencheb if gencheb else linearize_jacobi
    oscillation = mode == "oscillation"
    point = make_params(p.beta, p.alpha) if oscillation else p
    skip_odd = gencheb or p.b == 0
    for n in range(max_degree + 1):
        for m in range(n + 1):
            if mode == "gencheb_odd" and m % 2 == 0 and n % 2 == 0:
                continue
            for k, v in linearize(point, m, n).items():
                if skip_odd and (m + n - k) % 2:
                    continue
                yield m, n, k, -v if oscillation and (m + n + k) % 2 else v


def ref_scan_sign_pattern(p, max_degree, mode):
    if mode not in SCAN_MODES:
        raise ValueError(f"unknown scan mode {mode!r}")
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    min_value = None
    witness = None
    witness_value = None
    for m, n, k, v in _ref_scan_entries(p, max_degree, mode):
        if min_value is None or v < min_value:
            min_value = v
        if v < 0 and witness is None:
            witness = (m, n, k)
            witness_value = v
    if min_value is None:
        min_value = Fraction(0)
    if witness is not None:
        verdict = VERDICT_VIOLATION
    elif min_value > 0:
        verdict = VERDICT_ALL_POSITIVE
    else:
        verdict = VERDICT_ALL_NONNEG
    return SignReport(mode, max_degree, verdict, min_value, witness, witness_value)


def outcome(fn, *args):
    """("value", result) or ("raises", exception type), for comparing a
    kernel function with its reference on inputs that may be invalid."""
    try:
        return "value", fn(*args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return "raises", type(exc)


class RefPolynomial:
    """Dense univariate polynomial with Fraction coefficients.

    Immutable; `coeffs[i]` is the coefficient of x**i with trailing zeros
    stripped, so the zero polynomial has an empty coefficient tuple and
    degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [to_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def variable(cls) -> "RefPolynomial":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __call__(self, x: Rational) -> Fraction:
        x = to_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, RefPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero:
            return "RefPolynomial(0)"
        parts = [f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0]
        return "RefPolynomial(" + " + ".join(parts) + ")"

    def __neg__(self):
        return RefPolynomial([-c for c in self.coeffs])

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPolynomial(
            [self.coefficient(i) + other.coefficient(i) for i in range(n)]
        )

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            return RefPolynomial([c * other for c in self.coeffs])
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return RefPolynomial()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPolynomial(out)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other) -> "RefPolynomial":
        if isinstance(other, RefPolynomial):
            return other
        if isinstance(other, (Fraction, int)):
            return RefPolynomial([other])
        raise TypeError(f"cannot combine RefPolynomial with {type(other)!r}")

    def __divmod__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        if len(rem) < len(other.coeffs):
            return RefPolynomial(), self
        q = [Fraction(0)] * (len(rem) - len(other.coeffs) + 1)
        d = other.coeffs
        for i in range(len(q) - 1, -1, -1):
            c = rem[i + len(d) - 1] / d[-1]
            q[i] = c
            if c != 0:
                for j, dj in enumerate(d):
                    rem[i + j] -= c * dj
        return RefPolynomial(q), RefPolynomial(rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def exact_div(self, other) -> "RefPolynomial":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("exact_div with nonzero remainder")
        return q

    def derivative(self) -> "RefPolynomial":
        return RefPolynomial(
            [i * c for i, c in enumerate(self.coeffs)][1:]
        )


def ref_linearize_bruteforce(p, m, n, family=FAMILY_JACOBI, basis=None):
    """The elimination of `linearize_bruteforce` on `RefPolynomial`s; the
    basis list [P_0, ...] may be passed in, and is extended in place."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if basis is None:
        basis = [RefPolynomial([1])]
    basis = walk_recurrence(p, family, RefPolynomial.variable(), basis, m + n)
    rem = list((basis[m] * basis[n]).coeffs)
    coeffs = [Fraction(0)] * (m + n + 1)
    for k in range(m + n, -1, -1):
        b_k = basis[k].coeffs
        c = rem[k] / b_k[k]
        coeffs[k] = c
        if c != 0:
            for i, b_i in enumerate(b_k):
                rem[i] -= c * b_i
    for k in range(0, n - m):
        if coeffs[k] != 0:
            raise internal_error(
                p, f"brute/{family}", "coefficient below the support is nonzero",
                m=m, n=n, k=k,
            )
    return CoeffVector(m, n, family, tuple(coeffs[n - m :]))


def ref_pq_limit_parts(p, s, j):
    a, b = p.a, p.b
    den = (2 * s + j + 1) * (2 * s + 2 * j + a) * (2 * s + 2 * j + a + b + 1) * (j + 1)
    p_inf = -1 + (2 * s + 2 * j + a + 2) / den * (
        b * (2 * s + j + 1) * (2 * s + 2 * j + a) * (j + 1)
        + (1 - b) * (2 * s + j) * (2 * s + 2 * j + a + 1) * j
    )
    p_star = (
        (1 - b)
        * (2 * s + j + a)
        * (2 * s + 2 * j + a + 1)
        * (2 * s + 2 * j + a + 2)
        * (j + a)
        * (2 * s + 2 * j + 1)
        / den
    )
    q_inf = (
        (2 * s + 2 * j + a + 2)
        * (2 * s + j + a)
        * (2 * s + 2 * j + a - b + 1)
        * (j + a)
        / den
    )
    q_star = (1 - a) * (2 * s + 2 * j + a + 1) * q_inf
    return p_inf, p_star, q_inf, q_star


_HALF = Fraction(1, 2)


def outcome_with_message(fn, *args):
    """Like `outcome`, with the exception message as well; a
    ZeroDivisionError is compared by type only, since its message names the
    operation that divided."""
    try:
        return "value", fn(*args)
    except ZeroDivisionError as exc:
        return "raises", type(exc)
    except (ValueError, TypeError) as exc:
        return "raises", type(exc), str(exc)


def ref_shared_prefactor(al, be, m, s, j):
    """The factors that both 9F8 prefactors of g(m, m+s; s+j) share."""
    return (
        (al + be + 1 + 2 * s + 2 * j)
        / (al + be + 1)
        * Fraction(factorial(m + s), factorial(s) * factorial(j))
        * pochhammer(be + 1, m + s)
        * pochhammer(al + be + 1, 2 * s + j)
        / (pochhammer(al + 1, m) * pochhammer(al + be + 2, 2 * m + 2 * s + j))
    )


def ref_rahman_coefficient(p, m, s, j):
    _check_indices(m, s, j)
    _require_open_region(p)
    al, be = p.alpha, p.beta
    e = j % 2
    up, down = (j + e) // 2, (j - e) // 2
    pref = (
        ref_shared_prefactor(al, be, m, s, j)
        * pochhammer(m + al + be + 1, m)
        * pochhammer(al + be + 1, j)
        / pochhammer(be + 1, s + j)
        * pochhammer(-m, up)
        * pochhammer(al + be + m + s + 1, up)
        / pochhammer(-m - (al + be) / 2, up)
        * pochhammer(al + s + 1 + up, down)
        * pochhammer(-m - al, down)
        * pochhammer(be + m + s + 1, down)
        * pochhammer(_HALF + e, down)
        / (
            pochhammer(_HALF - m - (al + be) / 2, down)
            * pochhammer(s + 1, down)
            * pochhammer(al + 1 + e, down)
        )
    )
    if e:
        pref = pref * (al - be) / (al + be + 1)
    series = _very_well_poised(
        al + e, al + _HALF, (al - be) / 2 + e, (al - be + 1) / 2,
        al + be + m + s + 1 + up, Fraction(up - m), Fraction(-s - down), Fraction(-down),
        term_count=down,
    )
    return pref * series.evaluate()


def ref_rahman_special(p, m, s, j):
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
    pref = (
        ref_shared_prefactor(al, be, m, s, j)
        * pochhammer(al + be + m + 1, m)
        / pochhammer(be + 1, s)
        * pochhammer(-2 * m, j)
        * pochhammer(2 * al + 2 * be + 2 * m + 2 * s + 2, j)
        / pochhammer(-2 * m - al - be, j)
        * pochhammer(al - be, j)
        / pochhammer(2 * be + 2 * s + 2, j)
    )
    return pref * value


def ref_dougall_coefficient(alpha, m, n):
    alpha = to_fraction(alpha)
    if alpha <= -_HALF:
        raise ValueError("ultraspherical closed form needs alpha > -1/2")
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    vals = [Fraction(0)] * (2 * m + 1)
    for t in range(m + 1):
        k = m + n - 2 * t
        c = (
            factorial(t)
            * pochhammer(alpha + _HALF, t)
            * comb(m, t)
            * comb(n, t)
            * (m + n + alpha + _HALF - 2 * t)
            * pochhammer(alpha + _HALF, m - t)
            * pochhammer(alpha + _HALF, n - t)
            * pochhammer(2 * alpha + 1, m + n - t)
            / (
                (m + n + alpha + _HALF - t)
                * pochhammer(alpha + _HALF, m + n - t)
                * pochhammer(2 * alpha + 1, m)
                * pochhammer(2 * alpha + 1, n)
            )
        )
        vals[k - (n - m)] = c
    return CoeffVector(m, n, FAMILY_JACOBI, tuple(vals))


def ref_hyp_term_sum(numerator_params, denominator_params, term_count):
    """`HypTermSum(numerator_params, denominator_params, term_count).evaluate()`
    as the loop it was."""
    total = Fraction(0)
    term = Fraction(1)
    for r in range(term_count + 1):
        total += term
        if r == term_count:
            break
        den = Fraction(r + 1)
        for d in denominator_params:
            den *= d + r
        if den == 0:
            raise SingularSeriesError(
                "denominator parameter vanishes before termination; "
                "boundary limit required"
            )
        num = Fraction(1)
        for a in numerator_params:
            num *= a + r
        if num == 0:
            break
        term = term * num / den
    return total
