"""Shared test data: the committed parameter grid, random-point helpers,
the forms in which tests compare outcomes, and the `recorded` fixture.

The grid is fixed (not generated) so that every run checks the same points.
It spans all the region classes the library distinguishes, plus one point
below the zero-count threshold.  Random helpers take an explicit Random
instance so each test module controls its own seed.

A test that takes `recorded` is a recorded test: `pytest_generate_tests`
parametrizes it from its entry in `make_outcome_digests.CASES`, with the ids
listed there, and fails its collection if it has none; `recorded()` checks
its lines against the committed digest.
"""

import math
import random
from fractions import Fraction

import pytest

import jacobilin.jacobi as jacobi_module
from jacobilin.exact import _over_lcm
from jacobilin.jacobi import CoeffVector

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


def pytest_generate_tests(metafunc):
    if "recorded" in metafunc.fixturenames:
        # Imported here: make_outcome_digests imports this module.
        from make_outcome_digests import case_of
        _, params, _ = case_of(metafunc.definition.nodeid)
        if list(params) != [None]:
            metafunc.parametrize("recorded", list(params.values()), ids=list(params),
                                 indirect=True)


@pytest.fixture
def recorded(request):
    """`recorded()` writes the test's lines on its CASES argument, fails
    unless they hash to the digest committed for its id, and returns them."""
    from make_outcome_digests import case_of, check_recorded
    key, params, lines = case_of(request.node.nodeid)
    arg = request.param if hasattr(request, "param") else params[None]
    return lambda: check_recorded(key, lines(arg))


def _plant_in_step_to_g23(monkeypatch, fault):
    """Replace the step of `jacobi.product_triangle` to g(2, 3), the one
    whose V = g(1, 3) starts at k = 2 and whose row is 1, by
    `fault(original, rows, v, v_lo, w, r, step)`."""
    original = jacobi_module._product_step

    def planted(rows, v, v_lo, w, r, step):
        if (v_lo, r) == (2, 1):
            return fault(original, rows, v, v_lo, w, r, step)
        return original(rows, v, v_lo, w, r, step)

    monkeypatch.setattr(jacobi_module, "_product_step", planted)


@pytest.fixture
def broken_product_step(monkeypatch):
    """Add 1 to the first carried entry of g(1, 3) where the step to g(2, 3)
    reads it, so g(2, 3) no longer sums to 1, in both families.  A wrong
    recurrence row would not do: any rows with nonzero a_k and c_k give an
    orthogonal family (Favard), whose vectors pass every check."""

    def fault(original, rows, v, v_lo, w, r, step):
        nums, den = v
        return original(rows, ([nums[0] + 1, *nums[1:]], den), v_lo, w, r, step)

    _plant_in_step_to_g23(monkeypatch, fault)


@pytest.fixture
def flat_product_extreme(monkeypatch):
    """Move the lowest entry the step to g(2, 3) forms into the next one: the
    vector still sums to 1, and its jacobi extreme at k = 1 is 0."""

    def fault(original, *step_args):
        out, den = original(*step_args)
        return [0, out[0] + out[1], *out[2:]], den

    _plant_in_step_to_g23(monkeypatch, fault)


def rand_fraction(rng: random.Random, lo, hi, max_den: int = 40) -> Fraction:
    """Uniform-ish rational in (lo, hi): random denominator, random numerator,
    the numerator any integer strictly between lo*den and hi*den."""
    lo, hi = Fraction(lo), Fraction(hi)
    den = rng.randint(2, max_den)
    lo_num = math.floor(lo * den) + 1
    hi_num = math.ceil(hi * den) - 1
    if hi_num < lo_num:
        return (lo + hi) / 2
    return Fraction(rng.randint(lo_num, hi_num), den)


def rand_alpha_beta(rng: random.Random, lo=F(-19, 20), hi=F(3)):
    """A random valid parameter pair, biased toward small denominators."""
    return rand_fraction(rng, lo, hi), rand_fraction(rng, lo, hi)


def rational_vector(m, n, family, values):
    """The `CoeffVector` of the rational values: their numerators over
    their lcm, which is in lowest terms."""
    den, *nums = _over_lcm(*values)
    return CoeffVector(m, n, family, tuple(nums), den)


def outcome(fn, *args):
    """("value", result) or ("raises", exception type), for recording a
    call on inputs that may be invalid."""
    try:
        return "value", fn(*args)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        return "raises", type(exc)


def outcome_with_message(fn, *args):
    """Like `outcome`, with the exception message as well; a
    ZeroDivisionError is recorded by type only, since its message names the
    operation that divided."""
    try:
        return "value", fn(*args)
    except ZeroDivisionError as exc:
        return "raises", type(exc)
    except (ValueError, TypeError) as exc:
        return "raises", type(exc), str(exc)
