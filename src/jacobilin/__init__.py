"""Exact linearization coefficients for Jacobi and generalized Chebyshev
polynomials.

Everything is computed in rational arithmetic (fractions.Fraction); there is
no floating point anywhere on a result path.  The package provides:

- closed-form and recursion-based product expansions for the normalized
  Jacobi family, cross-checked against a brute-force basis reduction, and
  every product of a degree triangle in one pass over the recurrence rows;
- the same for the generalized Chebyshev family built from it by a
  quadratic substitution, with parity-aware assembly;
- terminating hypergeometric closed forms for single coefficients, valid
  in the open positivity region, plus the classical ultraspherical formula;
- exact classification of a parameter point into the nested regions that
  govern which sign patterns the coefficients can show;
- analysis tools: sign scans with witnesses, real-root counting for the
  recursion's middle coefficient, ratio-sequence machinery, and targeted
  searches for negative coefficients.
"""

from .exact import (
    RationalPolynomial,
    count_real_roots,
    pochhammer,
    to_fraction,
)
from .params import (
    JacobiParams,
    RegionLabel,
    RegionReport,
    classify_region,
    make_params,
    plus_params,
)
from .jacobi import (
    FAMILIES,
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    CoeffVector,
    RecurrenceCoeffs,
    gasper_boundary,
    jacobi_eval,
    jacobi_rec_coeffs,
    linearize_bruteforce,
    linearize_jacobi,
    product_triangle,
    theta_iota_kappa,
)
from .gencheb import (
    gencheb_eval,
    gencheb_rec_coeffs,
    linearize_gencheb,
)
from .hypergeom import (
    SingularSeriesError,
    dougall_coefficient,
    rahman_coefficient,
    rahman_special,
)
from .analysis import (
    SCAN_MODES,
    NotApplicableError,
    PhiSequence,
    PQRecord,
    SignReport,
    chi_m_poly,
    find_negativity_witness,
    gasper_simplification_values,
    iota_numerator_poly,
    iota_zero_count,
    necessity_identity_values,
    omega_value,
    phi_sequence,
    pq_inequality_check,
    pq_values,
    scan_sign_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "RationalPolynomial",
    "count_real_roots",
    "pochhammer",
    "to_fraction",
    "JacobiParams",
    "RegionLabel",
    "RegionReport",
    "classify_region",
    "make_params",
    "plus_params",
    "FAMILIES",
    "FAMILY_GENCHEB",
    "FAMILY_JACOBI",
    "CoeffVector",
    "RecurrenceCoeffs",
    "gasper_boundary",
    "jacobi_eval",
    "jacobi_rec_coeffs",
    "linearize_bruteforce",
    "linearize_jacobi",
    "product_triangle",
    "theta_iota_kappa",
    "gencheb_eval",
    "gencheb_rec_coeffs",
    "linearize_gencheb",
    "SingularSeriesError",
    "dougall_coefficient",
    "rahman_coefficient",
    "rahman_special",
    "SCAN_MODES",
    "NotApplicableError",
    "PhiSequence",
    "PQRecord",
    "SignReport",
    "chi_m_poly",
    "find_negativity_witness",
    "gasper_simplification_values",
    "iota_numerator_poly",
    "iota_zero_count",
    "necessity_identity_values",
    "omega_value",
    "phi_sequence",
    "pq_inequality_check",
    "pq_values",
    "scan_sign_pattern",
    "__version__",
]
