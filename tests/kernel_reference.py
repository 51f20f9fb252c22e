"""Reference copies of earlier versions of the exact kernel, for the live
differential tests: the tests that enumerate their inputs on every run and
compare the library with these copies.  The module holds:

- `ref_pochhammer`, `ref_theta_iota_kappa` and `ref_gasper_boundary`, the
  kernel as it was evaluated one `Fraction` operation at a time, before the
  integer-numerator rewrite;
- `ref_linearize_jacobi`, the recursion loop of `linearize_jacobi` as it was
  run on reduced theta, iota and kappa `Fraction`s, before each step became
  one integer quotient (`TestRecursionStep` runs it at the 22 grid points
  and 75 seeded ones);
- `ref_linearize_gencheb` and `ref_scan_sign_pattern`, the gencheb assembly
  as it accumulated each entry from two `Fraction` products and the sign scan
  as it compared `Fraction`s over that assembly;
- `ref_hyp_term_sum`, the 9F8 series sum as the loop of one `Fraction`
  product per parameter that it was before each term became one table of
  factors;
- `outcome` and `outcome_with_message`, a call's value or exception in a
  form that compares, and `rational_vector`, the `CoeffVector` of rational
  values.

The 9F8 closed forms, Dougall's product, the brute-force elimination, the
polynomial class, the kernel on the grid and the p/q limit parts are no
longer compared with copies: their outcomes were recorded once, while they equalled the copies,
in tests/data/outcome_digests.json (`make_outcome_digests.py`).

The formulas below are kept verbatim so the tests can demand exact
equality, and the same exception types, from the library.  They are not
used by the library.
"""

from fractions import Fraction
from math import factorial

from jacobilin.analysis import (
    SCAN_MODES,
    VERDICT_ALL_NONNEG,
    VERDICT_ALL_POSITIVE,
    VERDICT_VIOLATION,
    SignReport,
)
from jacobilin.exact import _over_lcm, to_fraction
from jacobilin.hypergeom import SingularSeriesError
from jacobilin.jacobi import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    CoeffVector,
    gencheb_rec_coeffs,
    internal_error,
    linearize_jacobi,
)
from jacobilin.params import make_params, plus_params


def rational_vector(m, n, family, values):
    """The `CoeffVector` of the rational values: their numerators over
    their lcm, which is in lowest terms."""
    den, *nums = _over_lcm(*values)
    return CoeffVector(m, n, family, tuple(nums), den)


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
        return rational_vector(0, n, FAMILY_JACOBI, (Fraction(1),))
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
    return rational_vector(m, n, FAMILY_JACOBI, vals)


def ref_linearize_gencheb(p, m, n):
    if m < 0 or n < 0:
        raise ValueError("degrees must be >= 0")
    if m > n:
        m, n = n, m
    if m == 0:
        return rational_vector(0, n, FAMILY_GENCHEB, (Fraction(1),))
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
            vals[2 * ell + 2 - k_lo] += Fraction(row.a, row.den) * v
            vals[2 * ell - k_lo] += Fraction(row.c, row.den) * v
    else:
        odd_arg, even_arg = (m, n) if m % 2 == 1 else (n, m)
        i, e = (odd_arg - 1) // 2, even_arg // 2
        row = gencheb_rec_coeffs(p, even_arg)
        pp = plus_params(p)
        # Companion vectors are read with their smaller degree first, so
        # each has one key in the linearize_jacobi cache.
        for scale, j in ((Fraction(row.a, row.den), e), (Fraction(row.c, row.den), e - 1)):
            for ell, v in linearize_jacobi(pp, min(i, j), max(i, j)).items():
                vals[2 * ell + 1 - k_lo] += scale * v
    return rational_vector(m, n, FAMILY_GENCHEB, vals)


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


def ref_hyp_term_sum(numerator_params, denominator_params, term_count):
    """The terminating sum that `HypTermSum.evaluate` gives, with the
    parameters as rationals, as the loop of one `Fraction` product per
    parameter that it was."""
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
