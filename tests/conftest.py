"""Shared test data: the committed parameter grid and random-point helpers.

The grid is fixed (not generated) so that every run checks the same points.
It spans all the region classes the library distinguishes, plus one point
below the zero-count threshold.  Random helpers take an explicit Random
instance so each test module controls its own seed.
"""

import random
from fractions import Fraction

F = Fraction

# Interior of the closed quadrant a, b >= 0 (alpha > beta >= -1/2 here, so the
# single-coefficient closed forms apply at every one of these points).
GRID_DELTA_INTERIOR = [
    (F(1), F(0)),
    (F(1, 2), F(1, 4)),
    (F(2), F(1, 2)),
    (F(1, 4), F(-1, 4)),
    (F(3), F(1)),
]

# Interior of the larger nonnegativity region, outside the quadrant (a < 0).
GRID_V_INTERIOR_NOT_DELTA = [
    (F(-1, 4), F(-19, 20)),
    (F(-3, 10), F(-4, 5)),
    (F(-11, 40), F(-39, 40)),
    (F(-13, 40), F(-29, 40)),
]

# Symmetric line b = 0: inside the quadrant but on the boundary of the
# nonnegativity region (one-sided in b), with structural parity zeros.
GRID_SYMMETRIC_BOUNDARY = [
    (F(0), F(0)),
    (F(1), F(1)),
    (F(-1, 2), F(-1, 2)),
    (F(1, 2), F(1, 2)),
]

# Between the two nonnegativity regions: odd-index families stay nonnegative,
# the full family does not.
GRID_VPRIME_NOT_V = [
    (F(-33, 100), F(-87, 100)),
    (F(-13, 40), F(-7, 8)),
    (F(-7, 20), F(-3, 4)),
    (F(-5, 16), F(-15, 16)),
]

# b < 0: outside everything; negative coefficients appear immediately.
GRID_B_NEGATIVE = [
    (F(-1, 2), F(0)),
    (F(0), F(1, 2)),
    (F(1, 4), F(1, 2)),
    (F(-1, 4), F(-1, 5)),
]

# a = -31/100, b = 1/2: below the threshold where the middle recursion
# coefficient is allowed a second zero.
POINT_BELOW_THRESHOLD = (F(-81, 200), F(-181, 200))

GRID = (
    GRID_DELTA_INTERIOR
    + GRID_V_INTERIOR_NOT_DELTA
    + GRID_SYMMETRIC_BOUNDARY
    + GRID_VPRIME_NOT_V
    + GRID_B_NEGATIVE
    + [POINT_BELOW_THRESHOLD]
)

# The grid, the rational point (-346/1057, -1333/1661) on the boundary of V,
# and a point far outside V' with tall entries.
GRID_WIDE = GRID + [(F(-346, 1057), F(-1333, 1661)), (F(29, 12), F(39, 16))]

GRID_IN_V = GRID_DELTA_INTERIOR + GRID_V_INTERIOR_NOT_DELTA + GRID_SYMMETRIC_BOUNDARY
GRID_V_INTERIOR = GRID_DELTA_INTERIOR + GRID_V_INTERIOR_NOT_DELTA


# One line per acceptance criterion, echoed after the test summary so the
# verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rand_fraction(rng: random.Random, lo, hi, max_den: int = 40) -> Fraction:
    """Uniform-ish rational in (lo, hi): random denominator, random numerator."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(2, max_den)
    lo_num = int(lo * den) + 1
    hi_num = int(hi * den) - 1
    if hi_num < lo_num:
        return (lo + hi) / 2
    return Fraction(rng.randint(lo_num, hi_num), den)


def rand_alpha_beta(rng: random.Random, lo=F(-19, 20), hi=F(3)):
    """A random valid parameter pair, biased toward small denominators."""
    return rand_fraction(rng, lo, hi), rand_fraction(rng, lo, hi)
