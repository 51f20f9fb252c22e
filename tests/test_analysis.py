"""Theorem-level machinery: sign scans, zero counting for the middle
recursion coefficient, the p/q ratio functions with their large-m
decomposition, the phi sequence, and the assembled identity audits."""

import random
from fractions import Fraction
from math import gcd
from types import FunctionType

import pytest

from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    SCAN_MODES,
    chi_m_poly,
    classify_region,
    find_negativity_witness,
    gasper_simplification_values,
    gencheb_rec_coeffs,
    iota_numerator_poly,
    iota_zero_count,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    necessity_identity_values,
    omega_value,
    phi_sequence,
    pq_inequality_check,
    pq_values,
    scan_sign_pattern,
    theta_iota_kappa,
)
from jacobilin import analysis
from jacobilin.analysis import (
    NotApplicableError,
    VERDICT_ALL_NONNEG,
    VERDICT_ALL_POSITIVE,
    VERDICT_VIOLATION,
)
from jacobilin.jacobi import _ZERO

from conftest import (
    GRID,
    GRID_B_NEGATIVE,
    GRID_DELTA_INTERIOR,
    GRID_VPRIME_NOT_V,
    GRID_WIDE,
    POINT_BELOW_THRESHOLD,
    rand_alpha_beta,
    rational_vector,
)
from make_outcome_digests import BOUNDARY_POINTS, TALL_POINT
from symbolic import Poly, Proofs, equal, positive

F = Fraction
BETWEEN = make_params(F(-33, 100), F(-87, 100))


class TestScan:
    def test_symmetric_point_strict_on_support(self):
        rep = scan_sign_pattern(make_params(F(1, 2), F(1, 2)), 6, "jacobi_strict")
        assert rep.verdict == VERDICT_ALL_POSITIVE
        assert rep.min_value > 0

    def test_between_region_full_family_violation(self):
        rep = scan_sign_pattern(BETWEEN, 8, "gencheb_all")
        assert rep.verdict == VERDICT_VIOLATION
        assert rep.witness == (4, 4, 4)
        assert rep.witness_value < 0

    def test_between_region_odd_families_strict(self):
        rep = scan_sign_pattern(BETWEEN, 9, "gencheb_odd")
        assert rep.verdict == VERDICT_ALL_POSITIVE

    def test_negative_b_jacobi_violation(self):
        rep = scan_sign_pattern(make_params(F(-1, 2), 0), 4, "jacobi_nonneg")
        assert rep.verdict == VERDICT_VIOLATION
        assert rep.witness == (1, 1, 1)
        assert rep.witness_value == F(-4, 7)

    def test_oscillation_inside_quadrant(self):
        rep = scan_sign_pattern(make_params(1, 0), 5, "oscillation")
        assert rep.verdict in (VERDICT_ALL_NONNEG, VERDICT_ALL_POSITIVE)
        assert rep.min_value >= 0

    @pytest.mark.parametrize("mode", ["jacobi_nonneg", "gencheb_all", "oscillation"])
    @pytest.mark.parametrize("point", [GRID[0], GRID[7], GRID[17], GRID[-1]])
    def test_report_invariant(self, point, mode):
        rep = scan_sign_pattern(make_params(*point), 5, mode)
        assert (rep.verdict == VERDICT_VIOLATION) == (rep.witness is not None)
        assert (rep.witness is not None) == (rep.min_value < 0)

    @pytest.mark.parametrize("point", GRID)
    def test_oscillation_signs_follow_jacobi(self, point):
        # The oscillation scan reads (-1)^(m+n+k) times the reflected family,
        # which is g(m, n; k) times a positive ratio: same signs, same verdict.
        p = make_params(*point)
        osc = scan_sign_pattern(p, 6, "oscillation")
        plain = scan_sign_pattern(p, 6, "jacobi_nonneg")
        assert (osc.verdict, osc.witness) == (plain.verdict, plain.witness)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            scan_sign_pattern(make_params(1, 0), 3, "bogus")

    @pytest.mark.parametrize("mode", SCAN_MODES)
    def test_witness_is_first_negative_of_linearize(self, mode):
        # At a point outside V' the scan's witness is the first negative
        # entry of the linearize functions over (n, m, k), under the scan's
        # skip rule and the oscillation sign.
        p = make_params(F(-1, 4), F(-1, 5))
        gencheb = mode.startswith("gencheb")
        point = make_params(p.beta, p.alpha) if mode == "oscillation" else p
        linearize = linearize_gencheb if gencheb else linearize_jacobi
        signed = (
            ((m, n, k), -v if mode == "oscillation" and (m + n + k) % 2 else v)
            for n in range(9) for m in range(n + 1)
            if not (mode == "gencheb_odd" and m % 2 == 0 and n % 2 == 0)
            for k, v in linearize(point, m, n).items()
            if not (gencheb and (m + n - k) % 2)
        )
        rep = scan_sign_pattern(p, 8, mode)
        assert (rep.witness, rep.witness_value) == next((at, v) for at, v in signed if v < 0)

    def test_matches_reference_scan(self, recorded):
        # Every mode at degrees 0, 1, 4 and 8, as recorded while the scan
        # equalled the reference that compared `Fraction` entries
        # (`make_outcome_digests.scan_report_lines`).  Pins the degree budget
        # and the min_value default as well: at max_degree 0 the gencheb_odd
        # scan has no entries at all.
        recorded()


class TestIntegerScan:
    """The scan reads each vector's integer numerators.  Its reports at the
    grid and two tall points are recorded while they equalled the scan that
    compared `Fraction` entries of the gencheb assembly from two `Fraction`
    products per entry (`make_outcome_digests.entry_scan_lines`)."""

    def test_matches_entry_scan(self, recorded):
        recorded()

    @pytest.mark.parametrize("point", GRID_WIDE + [TALL_POINT])
    def test_vectors_in_lowest_terms(self, point):
        p = make_params(*point)
        for family, linearize in ((FAMILY_JACOBI, linearize_jacobi),
                                  (FAMILY_GENCHEB, linearize_gencheb)):
            for n in range(11):
                for m in range(n + 1):
                    cv = linearize(p, m, n)
                    assert cv.den > 0 and gcd(cv.den, *cv.nums) == 1
                    assert rational_vector(m, n, family, cv.values) == cv
                    assert all(v is _ZERO for v in cv.values if v == 0)


def _fraction_root_count(cs, lo, hi):
    """Distinct roots of sum(cs[i] x**i) in (lo, hi], one `Fraction` at a
    time: the Sturm chain of the squarefree part p / gcd(p, p'), sharing no
    code with `exact.count_real_roots`."""

    def divmod_(a, b):
        a, q = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
        b = [c / b[-1] for c in b]
        for i in reversed(range(len(q))):
            q[i] = a.pop()
            for k, t in enumerate(b[:-1]):
                a[i + k] -= q[i] * t
        while a and a[-1] == 0:
            a.pop()
        return q, a

    def chain(p):
        out = [p, [i * c for i, c in enumerate(p)][1:]]
        while out[-1]:
            out.append([-c for c in divmod_(out[-2], out[-1])[1]])
        return out[:-1]

    def variations(x):
        signs = []
        for q in sturm:
            value = F(0)
            for c in reversed(q):
                value = value * x + c
            if value:
                signs.append(value > 0)
        return sum(s != t for s, t in zip(signs, signs[1:]))

    sturm = chain(cs)
    if len(sturm[-1]) > 1:
        sturm = chain(divmod_(cs, sturm[-1])[0])
    return variations(lo) - variations(hi)


class TestIotaZeroCount:
    def test_above_threshold_at_most_one(self):
        assert iota_zero_count(make_params(1, 0), 3, 0) <= 1
        for point in GRID_DELTA_INTERIOR + GRID_VPRIME_NOT_V:
            p = make_params(*point)
            for m, s in [(2, 0), (3, 1), (4, 3), (5, 2)]:
                assert iota_zero_count(p, m, s) <= 1

    def test_below_threshold_two_zeros(self):
        p = make_params(*POINT_BELOW_THRESHOLD)
        assert not classify_region(p).above_iota_threshold
        assert iota_zero_count(p, 2, 0) == 2

    def test_matches_fraction_sturm_reference(self):
        # On [1, 2m-1], against a Sturm chain on `Fraction` lists run on the
        # numerator polynomial's integer numerators (a positive multiple of
        # it, b included); at (beta, alpha) b changes sign only, and the
        # count stays.
        rng = random.Random(4301)
        points = GRID_WIDE + BOUNDARY_POINTS + [rand_alpha_beta(rng) for _ in range(50)]
        for alpha, beta in points:
            p, swapped = make_params(alpha, beta), make_params(beta, alpha)
            for m in range(1, 9):
                for s in range(6):
                    count = iota_zero_count(p, m, s)
                    if p.b == 0:
                        assert count is None
                        continue
                    poly = iota_numerator_poly(p, m, s)
                    want = poly(1) == 0
                    if m > 1:
                        want += _fraction_root_count(list(map(F, poly.nums)), 1, 2 * m - 1)
                    assert count == want, (alpha, beta, m, s)
                    assert iota_zero_count(swapped, m, s) == count, (alpha, beta, m, s)

    def test_symmetric_line_degenerate(self):
        assert iota_zero_count(make_params(F(1, 4), F(1, 4)), 3, 1) is None

    def test_middle_coefficient_sign_at_one(self):
        # The sign of the middle recursion coefficient at index 1 follows b.
        for point in GRID:
            p = make_params(*point)
            _, iota, _ = theta_iota_kappa(p, 2, 1, 1)
            if p.b > 0:
                assert iota >= 0
            elif p.b < 0:
                assert iota <= 0
            else:
                assert iota == 0

    def test_numerator_tracks_middle_coefficient_zeros(self):
        rng = random.Random(774)
        for _ in range(10):
            p = make_params(*rand_alpha_beta(rng))
            m, s = rng.randint(2, 4), rng.randint(0, 3)
            poly = iota_numerator_poly(p, m, s)
            for jnum in range(1, 2 * m):
                j = F(jnum)
                _, iota, _ = theta_iota_kappa(p, m, s, j)
                if p.b == 0:
                    assert poly.degree == -1
                else:
                    assert (poly(j) == 0) == (iota == 0)
                    assert (poly(j) > 0) == (iota > 0)
        # Exactly iota times its cleared denominators, against
        # `theta_iota_kappa` (whose weights test_jacobi.py::TestKernelProofs
        # proves equal to the paper's), at integer and at rational j in
        # [1, 2m-1].
        for point in GRID:
            p = make_params(*point)
            for m in range(1, 5):
                js = [F(jnum) for jnum in range(1, 2 * m)]
                if m > 1:
                    js += [F(3, 2), F(5, 3), F(4 * m - 1, 4)]
                for s in range(4):
                    poly = iota_numerator_poly(p, m, s)
                    for j in js:
                        _, iota, _ = theta_iota_kappa(p, m, s, j)
                        up, down = 2 * s + 2 * j + p.a + 1, 2 * s + 2 * j + p.a - 1
                        assert poly(j) == iota * up * down


class TestChiPolynomial:
    def test_spot_polynomials_in_a(self):
        for aval, bval in [(F(0), F(1, 2)), (F(1), F(1, 3)), (F(-31, 100), F(1, 2)),
                           (F(-1, 5), F(1, 4))]:
            alpha = (aval + bval - 1) / 2
            beta = (aval - bval - 1) / 2
            chi = chi_m_poly(make_params(alpha, beta), 2)
            assert chi(1) == -16 * aval ** 2 - 44 * aval - 12
            assert chi(2) == -12 * (aval + 1) * (aval + 2)
            assert chi(3) == 4 * aval ** 2 + 88 * aval + 196

    def test_frozen_below_threshold_value(self):
        p = make_params(*POINT_BELOW_THRESHOLD)
        assert p.a == F(-31, 100)
        assert chi_m_poly(p, 2)(1) == F(64, 625)

    def test_degree_bound(self):
        rng = random.Random(2024)
        for m in (2, 3, 4):
            p = make_params(*rand_alpha_beta(rng))
            assert chi_m_poly(p, m).degree <= 4

    def test_defining_identity(self):
        rng = random.Random(2025)
        for _ in range(8):
            p = make_params(*rand_alpha_beta(rng))
            if p.b == 0:
                continue
            m = rng.randint(2, 4)
            chi = chi_m_poly(p, m)
            a, b = p.a, p.b
            for j in (F(1), F(3, 2), F(2), F(2 * m - 1)):
                _, iota, _ = theta_iota_kappa(p, m, 0, j)
                assert iota * (2 * j + a - 1) * (2 * j + a + 1) == -b * chi(j)


class TestPQ:
    def test_record_signs_between_regions(self):
        rec = pq_values(BETWEEN, 2, 0)[0]
        assert rec.q > 0 and rec.p > -1
        assert rec.p_star > 0 and rec.q_inf > 0 and rec.q_star > 0

    def test_decomposition_identity(self):
        a = BETWEEN.a
        for m, s, j in [(3, 1, 2), (2, 0, 1), (4, 2, 5)]:
            rec = pq_values(BETWEEN, m, s)[j - 1]
            den = (2 * m - j + a) * (2 * m + 2 * s + j + a + 2)
            assert rec.p == rec.p_inf + rec.p_star / den
            assert rec.q == rec.q_inf + rec.q_star / den

    def test_limit_part_is_large_m_limit(self):
        s, j = 1, 2
        target = pq_values(BETWEEN, 10, s)[j - 1].p_inf
        gaps = []
        for m in (10, 20, 50):
            rec = pq_values(BETWEEN, m, s)[j - 1]
            assert rec.p_inf == target
            gaps.append(abs(rec.p - rec.p_inf))
        assert gaps[0] > gaps[1] > gaps[2]

    def test_chained_inequality_instances(self):
        assert pq_inequality_check(BETWEEN, 2, 0) == [True, True]
        assert all(pq_inequality_check(BETWEEN, 4, 2))
        for point in GRID_VPRIME_NOT_V:
            p = make_params(*point)
            for m, s in [(2, 1), (3, 0), (3, 3)]:
                assert all(pq_inequality_check(p, m, s))

    def test_chained_inequality_is_strict(self):
        # At m = 2, s = 0 the j = 1 instance holds with equality on
        # 4a^2 + 12ab + 27a + 15b + 35 = 0, here at (a, b) = (2, -35/13),
        # where omega is positive: the check must report it as failed.
        p = make_params(F(-11, 13), F(24, 13))
        first, second = pq_values(p, 2, 0)[:2]
        assert (1 + second.p) * (first.q - first.p) == second.q
        assert omega_value(p, 0, 1) > 0
        assert pq_inequality_check(p, 2, 0) == [False, False]

    def test_omega_vanishes_when_b_equals_a(self):
        p = make_params(F(1, 4), F(-1, 2))
        assert p.a == p.b
        assert omega_value(p, 0, 1) == 0
        assert omega_value(p, 2, 3) == 0

    @pytest.mark.parametrize("point, refused", [
        pytest.param((F(1, 4), F(-1, 2)), True, id="b-equals-a"),
        pytest.param((F(1, 3), F(1, 3)), True, id="b-zero"),
        pytest.param((BETWEEN.alpha, BETWEEN.beta), False, id="between"),
    ])
    def test_refused_where_omega_is_not_positive(self, point, refused):
        # omega_j has the sign of b (b - a) (TestIdentityProofs, omega_sign):
        # it is 0 on both lines, so the check refuses there.
        p = make_params(*point)
        assert (omega_value(p, 1, 2) <= 0) == refused
        if refused:
            with pytest.raises(NotApplicableError, match="omega margin not positive"):
                pq_inequality_check(p, 2, 1)
        else:
            assert pq_inequality_check(p, 2, 1) == [True, True]

    def test_omega_positive_between_regions(self):
        for s in range(3):
            for j in range(1, 6):
                assert omega_value(BETWEEN, s, j) > 0

    def test_index_range_enforced(self):
        with pytest.raises(ValueError, match="need m >= 2"):
            pq_values(BETWEEN, 1, 0)
        with pytest.raises(ValueError, match="need m >= 2 and s >= 0"):
            pq_values(BETWEEN, 2, -1)

    def test_limit_parts_match_reference(self, recorded):
        # The limit parts as recorded while they equalled the one-Fraction-
        # per-factor reference (make_outcome_digests.limit_parts_lines).
        recorded()


# The proof's variables: the common denominator d, alpha d, beta d, m, s and
# j, with a d and b d formed from them; the weights T, I, K and the
# companion entries g+(s+j-1), g+(s+j) as free symbols for phi's recurrence;
# and x = (alpha+1) d, y = (beta+1) d, u = (j-1) d for omega's sign.
D, AL, BE, M, S, J, T, I, K, G0, G1, X, Y, U = Poly.variables(14)
A, B = AL + BE + D, AL - BE


def odd_scale(j):
    """r(j) as a pair in (d, alpha d, beta d, s, j): `analysis._odd_scale`."""
    return analysis._odd_scale(D, AL, BE, (S + j) * D)


def split_holds(identity):
    """p = p_inf + p_star / D_m and q = q_inf + q_star / D_m, D_m = (2m - j
    + a)(2m + 2s + j + a + 2), in (d, alpha d, beta d, m, s, j), or omega_j
    = q_inf(j+1) - (1 + p_inf(j+1)) (q_inf(j) - p_inf(j)) in (d, alpha d,
    beta d, s, j)."""
    p_inf, p_star, q_inf, q_star, e = analysis._pq_limit_parts(D, A, B, S, J * D)
    if identity == "omega":
        num, den = analysis._omega_ratio(D, A, B, S, J * D)
        p_inf1, _, q_inf1, _, e1 = analysis._pq_limit_parts(D, A, B, S, J * D + D)
        return num * e1 * e == den * (q_inf1 * e - (e1 + p_inf1) * (q_inf - p_inf))
    p_n, p_d, q_n, q_d = analysis._pq_quotients(D, A, B, M, S, J * D, odd_scale(J),
                                                odd_scale(J + 1))
    # d_m = D_m d^2, as a = A / d; the limit parts are numerators over e.
    d_m = ((2 * M - J) * D + A) * ((2 * M + 2 * S + J + 2) * D + A)
    if identity == "p_split":
        return p_n * e * d_m == p_d * (p_inf * d_m + p_star * D**2)
    return q_n * e * d_m == q_d * (q_inf * d_m + q_star * D**2)


def omega_sign():
    """omega_j has the sign of (b - a) b: its numerator is (b - a) b F
    (2s+2j+a+2)(2s+2j+a+4), and F, both factors and its denominator are
    positive for d, x, y > 0 and u, s >= 0, which is alpha, beta > -1 and
    j >= 1."""
    a, b, j = X + Y - D, X - Y, D + U
    s2 = 2 * S * D
    f = s2 * (s2 + 2 * j + a + 2 * D) + (j + a) * (2 * j + 4 * D) + (D - a) * D
    w2, w4 = s2 + 2 * j + a + 2 * D, s2 + 2 * j + a + 4 * D
    num, den = analysis._omega_ratio(D, a, b, S, j)
    return num == (b - a) * b * f * w2 * w4 and all(
        positive(x, (D, X, Y)) for x in (f, w2, w4, den)
    )


def phi_recurrence():
    """phi(j+1) = p(j) + q(j) / phi(j) for phi(j) = r(j) g+(s+j) /
    g+(s+j-1), where g+(s+j+1) = (I g+(s+j) + K g+(s+j-1)) / T is the
    companion recursion that `linearize_jacobi(plus_params(p), ...)` runs:
    the weights are free symbols, which `_pq_quotients` must ask for at the
    companion's integers (L, A+L, B-L) and at (m, s, j)."""
    calls = []

    def weights(*args):
        calls.append(args)
        return T, I, K, None  # the denominator cancels from p and q

    fn = analysis._pq_quotients
    quotients = FunctionType(fn.__code__, {**fn.__globals__, "_recursion_weights": weights})
    r0, r1 = odd_scale(J), odd_scale(J + 1)
    p_n, p_d, q_n, q_d = quotients(D, A, B, M, S, J * D, r0, r1)
    (r0_n, r0_d), (r1_n, r1_d) = r0, r1
    phi0_n, phi0_d = r0_n * G1, r0_d * G0
    phi1_n, phi1_d = r1_n * (I * G1 + K * G0), r1_d * T * G1
    return calls == [(D, A + D, B - D, M, S, J * D)] and (
        phi1_n * p_d * q_d * phi0_n == phi1_d * (p_n * q_d * phi0_n + q_n * p_d * phi0_d)
    )


class TestIdentityProofs(Proofs):
    """The p/q split, omega against its limit parts and omega's sign,
    phi's recurrence, and Gasper's and the necessity identities hold for
    all parameters, as polynomial identities, so no call re-checks them."""

    # Gasper's and the necessity identities in (d, alpha d, beta d, m, s);
    # the necessity identities read the odd scales r(1) and r(2).
    PROOFS = {
        "p_split": lambda: split_holds("p_split"),
        "q_split": lambda: split_holds("q_split"),
        "omega": lambda: split_holds("omega"),
        "gasper_1": lambda: equal(analysis._gasper_sides(D, A, B, M, S)[0]),
        "gasper_2": lambda: equal(analysis._gasper_sides(D, A, B, M, S)[1]),
        "necessity_1": lambda: equal(
            analysis._necessity_sides(D, A, B, M, S, odd_scale(1), odd_scale(2))[0]),
        "necessity_2": lambda: equal(
            analysis._necessity_sides(D, A, B, M, S, odd_scale(1), odd_scale(2))[1]),
        "omega_sign": omega_sign,
        "phi_recurrence": phi_recurrence,
    }

    # One planted typo per identity, in the library formula named as the
    # analysis module holds it (`_gasper_qv` comes from params), one in
    # iota's weight, which the p split reads, and one in the odd scale r(j),
    # which necessity_1 reads.
    SLIPS = {
        "p_split": ("p_split", analysis, "_pq_limit_parts",
                    "(one - b) * (s2 + j) *", "(one + b) * (s2 + j) *"),
        "q_split": ("q_split", analysis, "_pq_limit_parts",
                    "q_star = (one - a)", "q_star = (one + a)"),
        "omega": ("omega", analysis, "_omega_ratio", "(one - a) * one)", "(one + a) * one)"),
        "iota": ("p_split", analysis, "_recursion_weights",
                 "shared_ik * sj * j * up", "shared_ik * sj * j * down"),
        "gasper_1": ("gasper_1", analysis, "_gasper_qv",
                     "(s2 + a + 3 * one)", "(s2 + a + 2 * one)"),
        "gasper_2": ("gasper_2", analysis, "_gasper_sides",
                     "(m4 + s2 + a - 3 * one)", "(m4 + s2 + a - 2 * one)"),
        "necessity_1": ("necessity_1", analysis, "_necessity_sides",
                        "a * (s2 + a + b + one)", "a * (s2 + a + b - one)"),
        "necessity_2": ("necessity_2", analysis, "_necessity_sides",
                        "(s2 + 2 * one - b)", "(s2 + 2 * one + b)"),
        "odd_scale": ("necessity_1", analysis, "_odd_scale",
                      "(d, al, be, w + d, True)", "(d, al, be, w, True)"),
        "omega_sign": ("omega_sign", analysis, "_omega_ratio",
                       "(j2 + 4 * one)", "(j2 + 3 * one)"),
        "phi_recurrence": ("phi_recurrence", analysis, "_pq_quotients",
                           "return r1_n * iota, r1_d * theta", "return r0_n * iota, r0_d * theta"),
    }


class TestPhi:
    def test_alternation_instance(self):
        seq = phi_sequence(BETWEEN, 2, 0)
        assert seq.value(1) > -1 and seq.value(3) > -1
        assert seq.value(2) < -1 and seq.value(4) < -1
        assert all(v < 0 for v in seq.values)
        assert seq.alternation_holds()

    def test_full_alternation_deeper(self):
        seq = phi_sequence(BETWEEN, 3, 1)
        assert seq.alternation_holds()
        assert len(seq.values) == 6

    @pytest.mark.parametrize("point", GRID_VPRIME_NOT_V)
    def test_alternation_across_between_points(self, point):
        p = make_params(*point)
        for m, s in [(1, 0), (2, 1), (3, 0), (4, 2)]:
            assert phi_sequence(p, m, s).alternation_holds()

    def test_recurrence_identity(self):
        for m, s in [(2, 0), (3, 1), (4, 0)]:
            seq = phi_sequence(BETWEEN, m, s)
            run = pq_values(BETWEEN, m, s)
            assert len(run) == 2 * m - 1
            for j in range(1, 2 * m):
                rec = run[j - 1]
                assert rec.j == j
                assert seq.value(j + 1) == rec.p + rec.q / seq.value(j)

    def test_index_bounds(self):
        seq = phi_sequence(BETWEEN, 2, 0)
        with pytest.raises(IndexError):
            seq.value(0)
        with pytest.raises(IndexError):
            seq.value(5)


def test_each_odd_row_built_once(monkeypatch):
    # r(j) = c_{2s+2j+1} / a_{2s+2j-1} is read once per index from
    # `_odd_scale` at w = (s+j) d, which types both odd rows itself: no
    # cached gencheb row is built.
    calls = []
    original = analysis._odd_scale
    monkeypatch.setattr(analysis, "_odd_scale",
                        lambda d, al, be, w: calls.append(w // d) or original(d, al, be, w))
    gencheb_rec_coeffs.cache_clear()
    for run, count in [
        (lambda: pq_values(BETWEEN, 3, 1), 6),
        (lambda: pq_inequality_check(BETWEEN, 3, 1), 6),
        (lambda: phi_sequence(BETWEEN, 3, 1), 6),
        (lambda: necessity_identity_values(BETWEEN, 3, 1), 2),
    ]:
        calls.clear()
        run()
        assert calls == list(range(2, count + 2))
    assert gencheb_rec_coeffs.cache_info().misses == 0


class TestWitnessSearch:
    def test_negative_b_minimal_odd_witness(self):
        w = find_negativity_witness(make_params(F(-1, 2), 0), 8)
        assert w is not None
        m, n, k, v = w
        assert (m, n, k) == (3, 3, 2)
        assert v == F(-8, 21)
        assert linearize_gencheb(make_params(F(-1, 2), 0), 3, 3)[2] == v

    @pytest.mark.parametrize("point", GRID_B_NEGATIVE)
    def test_negative_b_always_found(self, point):
        w = find_negativity_witness(make_params(*point), 8)
        assert w is not None
        assert w[3] < 0
        assert w[0] % 2 == 1 and w[1] % 2 == 1

    def test_below_threshold_found_in_second_family(self):
        p = make_params(*POINT_BELOW_THRESHOLD)
        w = find_negativity_witness(p, 8)
        assert w is not None
        assert (w[0], w[1], w[2]) == (5, 5, 4)
        assert w[3] < 0
        assert linearize_gencheb(p, 5, 5)[4] == w[3]

    def test_inside_odd_region_none(self):
        assert find_negativity_witness(BETWEEN, 8) is None
        assert find_negativity_witness(make_params(0, 0), 8) is None

    def test_degree_budget_is_exact_and_zero_is_not_negative(self):
        # On rhs2(1, 0) = 0, b = -a(a+5)/(4-a), outside V': g_T(3,3;4) is
        # exactly 0, and the first negative entry of the family has degree 5.
        p = make_params(F(-33, 68), F(-13, 17))
        assert p.b == -p.a * (p.a + 5) / (4 - p.a)
        assert not classify_region(p).in_vprime
        assert linearize_gencheb(p, 3, 3)[4] == 0
        assert find_negativity_witness(p, 4) is None
        assert find_negativity_witness(p, 5) == (5, 5, 4, F(-19968, 281911))

    def test_b_zero_searches_the_second_family(self):
        p = make_params(F(-3, 4), F(-3, 4))
        assert p.b == 0 and not classify_region(p).in_vprime
        assert find_negativity_witness(p, 3) == (3, 3, 4, F(-1, 2))

    def test_max_degree_zero_searches_nothing(self):
        assert find_negativity_witness(make_params(F(-1, 2), 0), 0) is None
        with pytest.raises(ValueError):
            find_negativity_witness(make_params(F(-1, 2), 0), -1)

    @pytest.mark.parametrize("point, witness", zip(GRID_B_NEGATIVE, [
        (3, 3, 2, F(-8, 21)),
        (3, 3, 2, F(-8, 99)),
        (5, 5, 2, F(-36736, 1905849)),
        (5, 5, 2, F(-17408, 1953341)),
    ]))
    def test_negative_b_indices(self, point, witness):
        p = make_params(*point)
        assert find_negativity_witness(p, witness[1] - 1) is None
        assert find_negativity_witness(p, witness[1]) == witness
        assert find_negativity_witness(p, 9) == witness

    def test_negative_b_candidates_stay_in_the_support(self):
        # At (29/12, 39/16), b = -1/48, and no entry of the b < 0 family is
        # negative up to degree 9: every candidate (big - 2s, big; 2s + 2)
        # is read from its support window.
        p = make_params(F(29, 12), F(39, 16))
        assert p.b == F(-1, 48)
        assert find_negativity_witness(p, 9) is None


class TestIdentityOutcomes:
    """The ratio machinery and the assembled identities give their recorded
    outcomes, values and refusals, at GRID_WIDE and on the lines a = 0,
    b = 0, b = 1 and beta = -1/2 (`make_outcome_digests.identity_lines`)."""

    def test_matches_recorded_output(self, recorded):
        recorded()


class TestIdentityAudits:
    def test_exact_on_random_points(self):
        rng = random.Random(190)
        for _ in range(20):
            p = make_params(*rand_alpha_beta(rng))
            m = rng.randint(2, 4)
            s = rng.randint(0, 3)
            first, second = gasper_simplification_values(p, m, s)
            assert first[0] == first[1]
            assert second[0] == second[1]
            nf, ns = necessity_identity_values(p, m, s)
            assert nf[0] == nf[1]
            if p.b == 1:
                assert ns is None
            else:
                assert ns[0] == ns[1]

    def test_second_necessity_skipped_at_unit_b(self):
        p = make_params(F(1, 2), F(-1, 2))
        assert p.b == 1
        _, second = necessity_identity_values(p, 2, 0)
        assert second is None
