"""Acceptance gate: ten criteria, each printing one PASS/FAIL line.

Every check is exact rational equality (zero tolerance).  The committed grid
lives in conftest; random points are seeded so every run is identical.
"""

import json
import random
import time
from fractions import Fraction

import conftest
from conftest import (
    ACCEPTANCE_LINES,
    GRID,
    GRID_DELTA_INTERIOR,
    GRID_IN_V,
    GRID_SYMMETRIC_BOUNDARY,
    GRID_V_INTERIOR,
    GRID_V_INTERIOR_NOT_DELTA,
    GRID_VPRIME_NOT_V,
    POINT_BELOW_THRESHOLD,
    rand_alpha_beta,
)

from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    chi_m_poly,
    classify_region,
    dougall_coefficient,
    find_negativity_witness,
    gasper_simplification_values,
    iota_zero_count,
    linearize_bruteforce,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    necessity_identity_values,
    omega_value,
    phi_sequence,
    pq_inequality_check,
    pq_values,
    scan_sign_pattern,
)
from jacobilin.analysis import VERDICT_ALL_POSITIVE, VERDICT_VIOLATION
from jacobilin.cli import run_command
from jacobilin.hypergeom import rahman_coefficient, rahman_special

F = Fraction


def _finish(criterion: str, failures: list, elapsed=None, limit=None):
    ok = not failures and (limit is None or elapsed < limit)
    line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}"
    if elapsed is not None:
        line += f" ({elapsed:.1f}s)"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"{criterion}: {failures[:5]}{' (runtime over limit)' if not failures else ''}"


def test_c01_jacobi_oracle_equivalence():
    start = time.monotonic()
    failures = []
    for point in GRID:
        p = make_params(*point)
        for n in range(1, 9):
            for m in range(1, n + 1):
                ref = linearize_jacobi(p, m, n)
                brute = linearize_bruteforce(p, m, n, FAMILY_JACOBI)
                if ref.values != brute.values:
                    failures.append((point, m, n))
    _finish("C1", failures, time.monotonic() - start, 60.0)


def test_c02_gencheb_oracle_equivalence():
    start = time.monotonic()
    failures = []
    for point in GRID:
        p = make_params(*point)
        for n in range(11):
            for m in range(n + 1):
                ref = linearize_gencheb(p, m, n)
                brute = linearize_bruteforce(p, m, n, FAMILY_GENCHEB)
                if ref.values != brute.values:
                    failures.append((point, m, n))
                for k, v in ref.items():
                    if (m + n - k) % 2 and v != 0:
                        failures.append((point, m, n, k, "parity"))
    _finish("C2", failures, time.monotonic() - start, 120.0)


def test_c03_terminating_series_validation():
    start = time.monotonic()
    failures = []
    points = GRID_DELTA_INTERIOR
    assert len(points) >= 5
    for point in points:
        p = make_params(*point)
        assert p.alpha >= p.beta >= F(-1, 2)
        for m in range(1, 7):
            for s in range(5):
                cv = linearize_jacobi(p, m, m + s)
                for j in range(2 * m + 1):
                    expected = cv[s + j]
                    if rahman_coefficient(p, m, s, j) != expected:
                        failures.append((point, m, s, j, "branch"))
                    if rahman_special(p, m, s, j) != expected:
                        failures.append((point, m, s, j, "companion"))
    _finish("C3", failures, time.monotonic() - start, 60.0)


def test_c04_symmetric_closed_form_validation():
    failures = []
    for alpha in (F(-1, 4), F(0), F(1, 2), F(2)):
        p = make_params(alpha, alpha)
        for n in range(9):
            for m in range(n + 1):
                dv = dougall_coefficient(alpha, m, n)
                if dv.values != linearize_jacobi(p, m, n).values:
                    failures.append((alpha, m, n))
    _finish("C4", failures)


def test_c05_closed_form_spot_identities():
    rng = random.Random(20240915)
    failures = []
    for _ in range(100):
        p = make_params(*rand_alpha_beta(rng))
        a, b = p.a, p.b
        lhs1 = linearize_jacobi(p, 1, 1)[1]
        if lhs1 != 4 * b / ((a + 3) * (a + b + 1)):
            failures.append((p.alpha, p.beta, "first"))
        lhs2 = linearize_jacobi(p, 2, 2)[2]
        num = 4 * (
            (a * a + 2 * b * b + 3 * a) * (a + 3) * (a + 5)
            - 3 * (a + 1) * (a + 2) * b * b
        )
        den = (a + 3) * (a + 5) * (a + 6) * (a + b + 1) * (a + b + 3)
        if lhs2 != num / den:
            failures.append((p.alpha, p.beta, "second"))
    _finish("C5", failures)


def test_c06_theorem_instances():
    failures = []
    for point in GRID_IN_V:
        p = make_params(*point)
        if scan_sign_pattern(p, 8, "jacobi_nonneg").verdict == VERDICT_VIOLATION:
            failures.append((point, "nonneg"))
        if scan_sign_pattern(p, 10, "gencheb_all").verdict == VERDICT_VIOLATION:
            failures.append((point, "gencheb_all"))
    for point in GRID_V_INTERIOR:
        p = make_params(*point)
        if scan_sign_pattern(p, 8, "jacobi_strict").verdict != VERDICT_ALL_POSITIVE:
            failures.append((point, "strict"))
    for point in GRID_SYMMETRIC_BOUNDARY:
        p = make_params(*point)
        if linearize_jacobi(p, 1, 1)[1] != 0:
            failures.append((point, "boundary zero"))
    between = make_params(F(-33, 100), F(-87, 100))
    if not linearize_gencheb(between, 4, 4)[4] < 0:
        failures.append(("between", "negative even entry"))
    odd_rep = scan_sign_pattern(between, 9, "gencheb_odd")
    if odd_rep.verdict != VERDICT_ALL_POSITIVE:
        failures.append(("between", "odd strictness"))
    neg = make_params(F(-1, 2), 0)
    if linearize_jacobi(neg, 1, 1)[1] != F(-4, 7):
        failures.append(("negative b", "spot value"))
    w = find_negativity_witness(neg, 8)
    if w is None or w[3] >= 0 or w[0] % 2 == 0 or w[1] % 2 == 0:
        failures.append(("negative b", "witness"))
    _finish("C6", failures)


def test_c07_ratio_machinery_instances():
    failures = []
    points = GRID_VPRIME_NOT_V + GRID_V_INTERIOR_NOT_DELTA
    assert len(points) >= 3
    for point in points:
        p = make_params(*point)
        a = p.a
        for m in range(2, 5):
            for s in range(4):
                run = pq_values(p, m, s)
                for j in range(1, 2 * m):
                    rec = run[j - 1]
                    den = (2 * m - j + a) * (2 * m + 2 * s + j + a + 2)
                    if rec.p != rec.p_inf + rec.p_star / den:
                        failures.append((point, m, s, j, "p decomposition"))
                    if rec.q != rec.q_inf + rec.q_star / den:
                        failures.append((point, m, s, j, "q decomposition"))
                    if omega_value(p, s, j) <= 0:
                        failures.append((point, s, j, "omega"))
                if not all(pq_inequality_check(p, m, s)):
                    failures.append((point, m, s, "inequality"))
                seq = phi_sequence(p, m, s)
                if not seq.alternation_holds():
                    failures.append((point, m, s, "alternation"))
                for j in range(1, 2 * m):
                    rec = run[j - 1]
                    if seq.value(j + 1) != rec.p + rec.q / seq.value(j):
                        failures.append((point, m, s, j, "recurrence"))
    _finish("C7", failures)


def test_c08_zero_count_instances():
    failures = []
    for point in GRID:
        if point == POINT_BELOW_THRESHOLD:
            continue
        p = make_params(*point)
        if not classify_region(p).above_iota_threshold:
            failures.append((point, "unexpected threshold side"))
            continue
        if p.b == 0:
            continue
        for m in range(1, 6):
            for s in range(4):
                if iota_zero_count(p, m, s) > 1:
                    failures.append((point, m, s, "count"))
    below = make_params(*POINT_BELOW_THRESHOLD)
    if iota_zero_count(below, 2, 0) != 2:
        failures.append(("below threshold", "count"))
    for aval, bval in [(F(-31, 100), F(1, 2)), (F(0), F(1, 2)), (F(1), F(1, 4)),
                       (F(-1, 5), F(27, 50))]:
        alpha = (aval + bval - 1) / 2
        beta = (aval - bval - 1) / 2
        chi = chi_m_poly(make_params(alpha, beta), 2)
        if chi(1) != -16 * aval ** 2 - 44 * aval - 12:
            failures.append((aval, "chi(1)"))
        if chi(2) != -12 * (aval + 1) * (aval + 2):
            failures.append((aval, "chi(2)"))
        if chi(3) != 4 * aval ** 2 + 88 * aval + 196:
            failures.append((aval, "chi(3)"))
    _finish("C8", failures)


def test_c09_identity_audits():
    rng = random.Random(771177)
    failures = []
    for trial in range(100):
        p = make_params(*rand_alpha_beta(rng))
        m = rng.randint(2, 4)
        s = rng.randint(0, 3)
        first, second = gasper_simplification_values(p, m, s)
        if first[0] != first[1]:
            failures.append((trial, "first simplification"))
        if second[0] != second[1]:
            failures.append((trial, "second simplification"))
        nec_first, nec_second = necessity_identity_values(p, m, s)
        if nec_first[0] != nec_first[1]:
            failures.append((trial, "first necessity"))
        if p.b == 1:
            if nec_second is not None:
                failures.append((trial, "second necessity not skipped"))
        elif nec_second[0] != nec_second[1]:
            failures.append((trial, "second necessity"))
    _finish("C9", failures)


def test_c10_cli_invocations(capsys):
    failures = []

    def invoke(*argv):
        code = run_command(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    code, out = invoke("classify", "--alpha", "-33/100", "--beta", "-87/100")
    if code != 0 or "label: V′\\V" not in out:
        failures.append("classify")
    code, out = invoke(
        "linearize", "--alpha", "1", "--beta", "0",
        "--family", "gencheb", "--m", "1", "--n", "2",
    )
    if code != 0 or "k=1: 1/4" not in out or "k=3: 3/4" not in out:
        failures.append("linearize")
    code, out = invoke(
        "scan", "--alpha", "-1/2", "--beta", "0",
        "--check", "nonneg", "--max-degree", "4",
    )
    if code != 1 or "violation at (1,1,1) value -4/7" not in out:
        failures.append("scan")

    code, out = invoke(
        "linearize", "--alpha", "1/2", "--beta", "1/4",
        "--m", "2", "--n", "2", "--format", "json",
    )
    doc = json.loads(out)
    cv = linearize_jacobi(make_params(F(1, 2), F(1, 4)), 2, 2)
    got = {r["k"]: F(r["num"], r["den"]) for r in doc["payload"]["coefficients"]}
    if code != 0 or got != dict(cv.items()):
        failures.append("json round trip")

    code, out = invoke(
        "linearize", "--alpha", "1/2", "--beta", "1/4",
        "--m", "2", "--n", "2", "--format", "csv",
    )
    import csv as _csv
    import io as _io

    rows = list(_csv.DictReader(_io.StringIO(out)))
    got = {int(r["k"]): F(int(r["value_num"]), int(r["value_den"])) for r in rows}
    if code != 0 or got != dict(cv.items()):
        failures.append("csv round trip")

    _finish("C10", failures)
