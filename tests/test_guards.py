"""The public input guards: each refusal is a ValueError with its message,
raised at the first value outside the documented range."""

from fractions import Fraction

import pytest

from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    CoeffVector,
    RecurrenceCoeffs,
    chi_m_poly,
    gasper_simplification_values,
    gencheb_eval,
    gencheb_rec_coeffs,
    iota_numerator_poly,
    jacobi_eval,
    jacobi_rec_coeffs,
    linearize_bruteforce,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    necessity_identity_values,
    omega_value,
    phi_sequence,
    pq_values,
    scan_sign_pattern,
)

F = Fraction
P = make_params(F(1, 2), F(1, 4))

GUARDS = {
    "scan_sign_pattern": (
        lambda: scan_sign_pattern(P, -1, "jacobi_nonneg"), "max_degree must be >= 0"
    ),
    "iota_numerator_poly/m": (lambda: iota_numerator_poly(P, 0, 0), "need m >= 1 and s >= 0"),
    "iota_numerator_poly/s": (lambda: iota_numerator_poly(P, 1, -1), "need m >= 1 and s >= 0"),
    "chi_m_poly": (lambda: chi_m_poly(P, 0), "need m >= 1"),
    "phi_sequence/m": (lambda: phi_sequence(P, 0, 0), "need m >= 1 and s >= 0"),
    "phi_sequence/s": (lambda: phi_sequence(P, 1, -1), "need m >= 1 and s >= 0"),
    "pq_values/m": (lambda: pq_values(P, 1, 0), "need m >= 2 and s >= 0"),
    "pq_values/s": (lambda: pq_values(P, 2, -1), "need m >= 2 and s >= 0"),
    "gasper_simplification_values/m": (
        lambda: gasper_simplification_values(P, 1, 0), "need m >= 2 and s >= 0"
    ),
    "gasper_simplification_values/s": (
        lambda: gasper_simplification_values(P, 2, -1), "need m >= 2 and s >= 0"
    ),
    "necessity_identity_values/m": (
        lambda: necessity_identity_values(P, 0, 0), "need m >= 1 and s >= 0"
    ),
    "necessity_identity_values/s": (
        lambda: necessity_identity_values(P, 1, -1), "need m >= 1 and s >= 0"
    ),
    "omega_value/s": (lambda: omega_value(P, -1, 1), "need s >= 0 and j >= 1"),
    "omega_value/j": (lambda: omega_value(P, 0, 0), "need s >= 0 and j >= 1"),
    "gencheb_eval": (lambda: gencheb_eval(P, -1, 0), "degree must be >= 0"),
    "linearize_gencheb/m": (lambda: linearize_gencheb(P, -1, 2), "degrees must be >= 0"),
    "linearize_gencheb/n": (lambda: linearize_gencheb(P, 2, -1), "degrees must be >= 0"),
    "jacobi_rec_coeffs": (lambda: jacobi_rec_coeffs(P, -1), "recurrence index must be >= 0"),
    "gencheb_rec_coeffs": (lambda: gencheb_rec_coeffs(P, 0), "recurrence index must be >= 1"),
    "jacobi_eval": (lambda: jacobi_eval(P, -1, 0), "degree must be >= 0"),
    "linearize_jacobi/m": (lambda: linearize_jacobi(P, -1, 2), "degrees must be >= 0"),
    "linearize_jacobi/n": (lambda: linearize_jacobi(P, 2, -1), "degrees must be >= 0"),
    "linearize_bruteforce/family": (
        lambda: linearize_bruteforce(P, 1, 2, "legendre"), "unknown family 'legendre'"
    ),
    "linearize_bruteforce/m": (lambda: linearize_bruteforce(P, -1, 2), "degrees must be >= 0"),
    "linearize_bruteforce/n": (lambda: linearize_bruteforce(P, 2, -1), "degrees must be >= 0"),
    "RecurrenceCoeffs/sum": (
        lambda: RecurrenceCoeffs(2, 2, 0, 1, 4),
        "recurrence row does not sum to 1 at n=2",
    ),
    "RecurrenceCoeffs/lowest": (
        lambda: RecurrenceCoeffs(1, 2, 0, 2, 4),
        "recurrence row not in lowest terms over den > 0 at n=1",
    ),
    "RecurrenceCoeffs/den": (
        lambda: RecurrenceCoeffs(1, -1, 0, -1, -2),
        "recurrence row not in lowest terms over den > 0 at n=1",
    ),
    "CoeffVector/family": (
        lambda: CoeffVector(0, 1, "legendre", (1,), 1), "unknown family 'legendre'"
    ),
    "CoeffVector/length": (
        lambda: CoeffVector(1, 2, FAMILY_JACOBI, (1,), 1),
        "coefficient vector has the wrong length",
    ),
    "CoeffVector/den": (
        # Its values are (1/2, 0, 1/2), but a scan reads the numerators.
        lambda: CoeffVector(1, 1, FAMILY_GENCHEB, (-1, 0, -1), -2),
        "coefficient vector denominator must be positive",
    ),
    "CoeffVector/sum": (
        lambda: CoeffVector(1, 2, FAMILY_JACOBI, (4, 2, 1), 8),
        "coefficient vector does not sum to 1",
    ),
    "CoeffVector/lowest": (
        lambda: CoeffVector(1, 2, FAMILY_JACOBI, (0, 1, 1), 2),
        "extreme coefficients must be positive",
    ),
    "CoeffVector/highest": (
        lambda: CoeffVector(1, 2, FAMILY_JACOBI, (1, 1, 0), 2),
        "extreme coefficients must be positive",
    ),
    "CoeffVector/parity": (
        # m + n - k is odd at k = 2, so that entry must be 0.
        lambda: CoeffVector(1, 2, FAMILY_GENCHEB, (2, 1, 1), 4),
        "parity-violating entry must be zero",
    ),
}


@pytest.mark.parametrize("call, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_refuses_with_its_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message
