"""Theorem-level machinery: sign scans, zero counting for the middle
recursion coefficient, the p/q ratio functions with their large-m
decomposition, the phi sequence, and the assembled identity audits."""

import random
from fractions import Fraction
from math import gcd

import pytest

from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    CoeffVector,
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
    SCAN_MODES,
    VERDICT_ALL_NONNEG,
    VERDICT_ALL_POSITIVE,
    VERDICT_VIOLATION,
)
from jacobilin.jacobi import _ZERO

from conftest import (
    GRID,
    GRID_B_NEGATIVE,
    GRID_DELTA_INTERIOR,
    GRID_IN_V,
    GRID_VPRIME_NOT_V,
    GRID_WIDE,
    POINT_BELOW_THRESHOLD,
    rand_alpha_beta,
)
from kernel_reference import (
    outcome,
    ref_entry_scan_sign_pattern,
    ref_pq_limit_parts,
    ref_scan_sign_pattern,
    ref_theta_iota_kappa,
)

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

    @pytest.mark.parametrize("point", GRID_WIDE)
    def test_matches_reference_scan(self, point):
        # Pins the degree budget and the min_value default as well: at
        # max_degree 0 the gencheb_odd scan has no entries at all.
        p = make_params(*point)
        for mode in SCAN_MODES:
            for max_degree in (0, 1, 4, 8):
                assert scan_sign_pattern(p, max_degree, mode) == ref_scan_sign_pattern(
                    p, max_degree, mode
                )


def _tall_point() -> tuple[Fraction, Fraction]:
    """A seeded point whose alpha and beta have 82-bit denominators."""
    rng = random.Random(8282)
    den = rng.getrandbits(82) | 1 << 81
    return F(rng.randrange(-den + 1, 3 * den), den), F(rng.randrange(-den + 1, 3 * den), den)


class TestIntegerScan:
    """The scan reads each vector's integer numerators; the reference reads
    the same vectors one `Fraction` entry at a time."""

    @pytest.mark.parametrize(
        "point, max_degree",
        [(point, 10) for point in GRID]
        + [((F(-346, 1057), F(-1333, 1661)), 10), (_tall_point(), 5)],
    )
    def test_matches_entry_scan(self, point, max_degree):
        p = make_params(*point)
        for mode in SCAN_MODES:
            assert scan_sign_pattern(p, max_degree, mode) == ref_entry_scan_sign_pattern(
                p, max_degree, mode
            )

    @pytest.mark.parametrize("point", GRID_WIDE + [_tall_point()])
    def test_vectors_in_lowest_terms(self, point):
        p = make_params(*point)
        for family, linearize in ((FAMILY_JACOBI, linearize_jacobi),
                                  (FAMILY_GENCHEB, linearize_gencheb)):
            for n in range(11):
                for m in range(n + 1):
                    cv = linearize(p, m, n)
                    assert cv.den > 0 and gcd(cv.den, *cv.nums) == 1
                    assert CoeffVector(m, n, family, cv.values) == cv
                    assert all(v is _ZERO for v in cv.values if v == 0)


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
        # Exactly iota times its cleared denominators, against the independent
        # typing, at integer and at rational j in [1, 2m-1].
        for point in GRID:
            p = make_params(*point)
            for m in range(1, 5):
                js = [F(jnum) for jnum in range(1, 2 * m)]
                if m > 1:
                    js += [F(3, 2), F(5, 3), F(4 * m - 1, 4)]
                for s in range(4):
                    poly = iota_numerator_poly(p, m, s)
                    for j in js:
                        _, iota, _ = ref_theta_iota_kappa(p, m, s, j)
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
                _, iota, _ = ref_theta_iota_kappa(p, m, 0, j)
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

    def test_omega_vanishes_when_b_equals_a(self):
        p = make_params(F(1, 4), F(-1, 2))
        assert p.a == p.b
        assert omega_value(p, 0, 1) == 0
        assert omega_value(p, 2, 3) == 0

    def test_omega_positive_between_regions(self):
        for s in range(3):
            for j in range(1, 6):
                assert omega_value(BETWEEN, s, j) > 0

    def test_index_range_enforced(self):
        with pytest.raises(ValueError, match="need m >= 2"):
            pq_values(BETWEEN, 1, 0)
        with pytest.raises(ValueError, match="need m >= 2 and s >= 0"):
            pq_values(BETWEEN, 2, -1)

    @pytest.mark.parametrize("point", GRID_WIDE)
    def test_limit_parts_match_reference(self, point):
        # Four integer quotients over lcm(a, b) against one Fraction per factor.
        p = make_params(*point)
        for s in range(4):
            for j in range(1, 8):
                got = outcome(analysis._pq_limit_parts, p, s, j)
                assert got == outcome(ref_pq_limit_parts, p, s, j), (s, j)


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
    # r(j) = c_{2s+2j+1} / a_{2s+2j-1}: count scales need count + 1 odd rows.
    calls = []

    def counting(p, n):
        calls.append(n)
        return gencheb_rec_coeffs(p, n)

    monkeypatch.setattr(analysis, "gencheb_rec_coeffs", counting)
    for run, expected in [
        (lambda: pq_values(BETWEEN, 3, 1), 7),
        (lambda: pq_inequality_check(BETWEEN, 3, 1), 7),
        (lambda: phi_sequence(BETWEEN, 3, 1), 7),
        (lambda: necessity_identity_values(BETWEEN, 3, 1), 3),
    ]:
        calls.clear()
        run()
        assert len(calls) == expected
        assert len(set(calls)) == expected


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
