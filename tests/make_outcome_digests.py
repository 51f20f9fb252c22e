"""Recorded outputs of the library on fixed inputs, one digest per test id.

Tier-1 compares the library with outputs recorded once, not with a second
kernel run alongside it:
- `TestClosedFormExactness` (9F8 series and Dougall's product),
  `TestKernelExactness` (`gasper_boundary` and `theta_iota_kappa`),
  `TestBruteforceExactness` (the brute-force oracle),
  `TestPolynomialExactness` (`RationalPolynomial` and `count_real_roots`)
  and `TestRecurrenceCoeffs::test_rows_match_recorded` (every recurrence
  row of both families to n = 32 on the grid);
- `test_vector_digests.py`: every `linearize_jacobi` and `linearize_gencheb`
  vector with m <= n <= 12 at each grid point, one line "m n: v_0 v_1 ..."
  per product, each value as `str(Fraction)`;
- `TestTallPointScans` in `test_cli.py`: `jacobilin scan --max-degree 20
  --json` in every `--check` mode at two tall points, as one JSON line of
  the exit code, verdict, min_value, witness and witness_value;
- `TestIdentityOutcomes` and `TestPQ::test_limit_parts_match_reference` in
  `test_analysis.py` (the p/q machinery, phi and the assembled identities)
  and `TestVerifyRecords` in `test_cli.py` (`jacobilin verify`, as one JSON
  line of the exit code, stdout and stderr per invocation).
Each of these test ids writes the library's output on every one of its
inputs as one canonical line: the value, or the exception type, plus the
message where the test keeps messages.  The sha256 of those lines is
compared with the digest committed for that id in
tests/data/outcome_digests.json, so a failure names its test and its point
or operation.  The inputs, seeds and enumeration order live here, so this
script needs no pytest.

The digests of the four kernel classes were first written from the library
at a commit where tier-1 required the library to equal the reference copies
of the earlier kernels on all of their inputs, and the reference copies
wrote the same file.  Regenerate only when outputs are meant to change:

    PYTHONPATH=src python tests/make_outcome_digests.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from conftest import GRID, GRID_WIDE, rand_alpha_beta
from jacobilin import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    CoeffVector,
    RationalPolynomial,
    count_real_roots,
    dougall_coefficient,
    gasper_boundary,
    gasper_simplification_values,
    gencheb_rec_coeffs,
    jacobi_rec_coeffs,
    linearize_bruteforce,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    necessity_identity_values,
    omega_value,
    phi_sequence,
    plus_params,
    pq_inequality_check,
    pq_values,
    theta_iota_kappa,
)
from jacobilin.cli import run_command
from jacobilin.hypergeom import rahman_coefficient, rahman_special

from kernel_reference import outcome, outcome_with_message

F = Fraction
OUTCOME_FILE = Path(__file__).resolve().parent / "data" / "outcome_digests.json"


def text(x) -> str:
    """One canonical line for a value or an outcome: a polynomial as its
    coefficients, a vector as "m n family nums den", an exception type by
    name, tuples element by element, everything else as `str`."""
    if isinstance(x, RationalPolynomial):
        return "poly(" + " ".join(map(str, x.coeffs)) + ")"
    if isinstance(x, CoeffVector):
        return f"{x.m} {x.n} {x.family} {' '.join(map(str, x.nums))} {x.den}"
    if isinstance(x, type):
        return x.__name__
    if isinstance(x, tuple):
        return "(" + ", ".join(map(text, x)) + ")"
    return str(x)


# --- closed forms: m 0..6, s -1..4, j -1..2m+1, in and out of every domain


def _closed_form_points():
    """GRID_WIDE, 40 seeded points, 5 points on alpha = beta and 4 on
    beta = -1/2."""
    rng = random.Random(18)
    return [
        *GRID_WIDE,
        *(rand_alpha_beta(rng) for _ in range(40)),
        *((F(x), F(x)) for x in ("-1/2", "-1/3", "0", "2/5", "3")),
        *((F(x), F(-1, 2)) for x in ("-1/2", "-1/4", "1/3", "5/2")),
    ]


CLOSED_FORM_POINTS = _closed_form_points()


def closed_form_lines(point):
    p = make_params(*point)
    for m in range(7):
        for s in range(-1, 5):
            got = outcome_with_message(dougall_coefficient, p.alpha, m, m + s)
            yield f"dougall {m} {s}: {text(got)}"
            for j in range(-1, 2 * m + 2):
                got = outcome_with_message(rahman_coefficient, p, m, s, j)
                yield f"rahman {m} {s} {j}: {text(got)}"
                got = outcome_with_message(rahman_special, p, m, s, j)
                yield f"special {m} {s} {j}: {text(got)}"


# --- recursion kernel: gasper_boundary and theta_iota_kappa

# One point on each boundary line: a = 0, b = 0 (alpha = beta), b = 1 and
# beta = -1/2.  GRID adds more on b = 0, and (-1/2, -1/2) on a = 0 and b = 0.
BOUNDARY_POINTS = [
    (F(-1, 4), F(-3, 4)),
    (F(2, 7), F(2, 7)),
    (F(1, 3), F(-2, 3)),
    (F(5, 7), F(-1, 2)),
]
KERNEL_POINTS = GRID + BOUNDARY_POINTS
# The full product of m, s and j runs at the two a = 0 points, where the
# special case j = 1, s = 0 applies, and at one tall-denominator point.
KERNEL_FULL = [(F(-1, 4), F(-3, 4)), (F(-1, 2), F(-1, 2)), (F(-33, 100), F(-87, 100))]


def kernel_cases(full: bool):
    """(m, s, js) for m <= 8 and s <= 8, js every integer index of [1, 2m-1]
    plus the rational 3/2 and 7/3 (out of range, so rejected, for small m).

    `full` gives every (m, s) pair.  Otherwise each m is paired with two
    values of s, and every j with one, cycling through 0..8 so that every
    value of m, s and j still occurs."""
    for m in range(1, 9):
        js = [*range(1, 2 * m), F(3, 2), F(7, 3)]
        if full:
            for s in range(9):
                yield m, s, js
        else:
            yield m, (m - 1) % 9, js[::2]
            yield m, (m + 4) % 9, js[1::2]


def kernel_lines(point):
    p = make_params(*point)
    for m, s, js in kernel_cases(full=point in KERNEL_FULL):
        yield f"boundary {m} {s}: {text(gasper_boundary(p, m, s))}"
        for j in js:
            yield f"tik {m} {s} {j}: {text(outcome(theta_iota_kappa, p, m, s, j))}"


# --- recurrence rows: jacobi n 0..32 and gencheb n 1..32 on the grid


def row_lines(point):
    p = make_params(*point)
    for family, rows, first in (("jacobi", jacobi_rec_coeffs, 0),
                                ("gencheb", gencheb_rec_coeffs, 1)):
        for n in range(first, 33):
            rc = rows(p, n)
            yield f"{family} {n}: {rc.a} {rc.b} {rc.c} {rc.den}"


# --- brute-force oracle: both families and the companion point, m <= n <= 10


def bruteforce_lines(point):
    p = make_params(*point)
    for q, family in ((p, FAMILY_JACOBI), (p, FAMILY_GENCHEB), (plus_params(p), FAMILY_JACOBI)):
        for n in range(11):
            for m in range(n + 1):
                yield text(linearize_bruteforce(q, m, n, family))


# --- polynomials: every operation on a seeded pool, and count_real_roots


def _random_coeffs(rng: random.Random) -> list:
    """Coefficients of a random polynomial: zero, constant or of degree up to
    8, with numerators and denominators of up to 200 bits, some zero entries,
    a negative leading coefficient half the time, and sometimes trailing
    zeros or plain ints."""
    kind = rng.randrange(8)
    if kind == 0:
        return [0] * rng.randint(0, 2)
    bits = rng.choice((3, 30, 200))
    degree = 0 if kind == 1 else rng.randint(1, 8)
    cs = [
        F(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))
        if rng.random() < 0.8 else F(0)
        for _ in range(degree + 1)
    ]
    cs[-1] = (-1) ** rng.randint(0, 1) * (abs(cs[-1]) or F(rng.randint(1, 9), 7))
    if kind == 2:
        cs = [c.numerator for c in cs]
    if kind == 3:
        cs += [0, F(0)]
    return cs


def _random_pool(rng: random.Random, size: int) -> list:
    """`size` random coefficient lists, then repeats of some of them, bare or
    with a trailing zero, so that some neighbours are equal polynomials."""
    pool = [_random_coeffs(rng) for _ in range(size)]
    return pool + [cs + [0] for cs in pool[::40]] + pool[::50]


POOL = _random_pool(random.Random(20261018), 520)
PAIRS = list(zip(POOL, POOL[1:] + POOL[:1]))
POLY_POINTS = [F(0), F(1), F(-1), F(3, 7), F(-22, 5), F(2**70 + 1, 3**40), 5]

BINARY = {
    "add": lambda x, y: x + y,
    "sub": lambda x, y: x - y,
    "mul": lambda x, y: x * y,
    "divmod": divmod,
    "mod": lambda x, y: x % y,
    "exact_div": lambda x, y: x.exact_div(y),
    "exact_div_of_product": lambda x, y: (x * y).exact_div(y),
    "eq": lambda x, y: x == y,
}
UNARY = {
    "neg": lambda x: -x,
    "derivative": lambda x: x.derivative(),
    "degree": lambda x: (x.degree, x.is_zero),
    "coefficient": lambda x: tuple(x.coefficient(i) for i in range(-1, 11)),
    "scalar_mul": lambda x: (x * F(-7, 12), F(5, 3) * x, x * 0, 3 * x, x * -2),
    "scalar_add": lambda x: (x + F(1, 3), x - 4),
    "mul_float": lambda x: x * 0.5,
    "add_text": lambda x: x + "1",
    "eval": lambda x: tuple(x(t) for t in POLY_POINTS),
    "eval_float": lambda x: x(0.5),
}


def binary_lines(name):
    op = BINARY[name]
    for a, b in PAIRS:
        yield text(outcome(op, RationalPolynomial(a), RationalPolynomial(b)))


def unary_lines(name):
    op = UNARY[name]
    for a in POOL:
        yield text(outcome(op, RationalPolynomial(a)))


def count_real_roots_lines(_=None):
    rng = random.Random(7)
    for a in POOL[::2]:
        lo = F(rng.randint(-40, 20), rng.randint(1, 5))
        hi = lo + F(rng.randint(-1, 40), rng.randint(1, 5))
        yield f"{lo} {hi}: {text(outcome(count_real_roots, RationalPolynomial(a), lo, hi))}"


# --- linearization vectors: both families on the grid, m <= n <= 12

VECTOR_FAMILIES = {"gencheb": linearize_gencheb, "jacobi": linearize_jacobi}


def vector_lines(case):
    family, point = case
    p, linearize = make_params(*point), VECTOR_FAMILIES[family]
    for n in range(13):
        for m in range(n + 1):
            yield f"{m} {n}: {' '.join(map(str, linearize(p, m, n).values))}"


# --- sign scans through the CLI at two tall points, degree 20

# The rational point on the boundary of V and a point far outside V'; their
# entries to degree 20 reach 500 and 435 bits.
TALL_POINTS = [("-346/1057", "-1333/1661"), ("29/12", "39/16")]
SCAN_CHECKS = ["nonneg", "strict", "all", "odd", "oscillation"]


def scan_lines(case):
    (alpha, beta), check = case
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(["scan", "--alpha", alpha, "--beta", beta, "--check", check,
                            "--max-degree", "20", "--json"])
    payload = json.loads(out.getvalue())["payload"]
    fields = ("verdict", "min_value", "witness", "witness_value")
    yield json.dumps({"exit": code, **{k: payload[k] for k in fields}}, sort_keys=True)


# --- the identities of the ratio machinery and `verify`

# GRID_WIDE and one point on each of a = 0, b = 0, b = 1 and beta = -1/2.
IDENTITY_POINTS = GRID_WIDE + BOUNDARY_POINTS
IDENTITIES = {
    "pq_values": pq_values,
    "pq_inequality_check": pq_inequality_check,
    "phi_sequence": phi_sequence,
    "necessity_identity_values": necessity_identity_values,
    "gasper_simplification_values": gasper_simplification_values,
}


def identity_lines(point):
    """Each identity function for m 0..6 and s -1..4, in and out of its
    index range, then omega_value for s 0..4 and j 1..11."""
    p = make_params(*point)
    for name, fn in IDENTITIES.items():
        for m in range(7):
            for s in range(-1, 5):
                yield f"{name} {m} {s}: {text(outcome_with_message(fn, p, m, s))}"
    for s in range(5):
        for j in range(1, 12):
            yield f"omega {s} {j}: {text(outcome_with_message(omega_value, p, s, j))}"


def limit_parts_lines(point):
    """The limit parts (p_inf, p_star, q_inf, q_star) of the `pq_values`
    records for s 0..3 and j 1..7, in the form `outcome` gives a value.  They
    do not depend on m, and m = 4 reaches j = 7."""
    p = make_params(*point)
    for s in range(4):
        for rec in pq_values(p, 4, s):
            yield text(("value", (rec.p_inf, rec.p_star, rec.q_inf, rec.q_star)))


# Each verify property at its default (m, s) lists and at three single pairs.
VERIFY_PROPERTIES = ["pq-inequality", "phi-alternation", "iota-zeros",
                     "recursion-consistency", "nec-identities"]
VERIFY_INDICES = [[], ["--m", "1"], ["--m", "2", "--s", "0"], ["--m", "5", "--s", "3"]]


def verify_lines(point):
    """One line per invocation: the exit code, stdout and stderr of
    `jacobilin verify` in text mode."""
    alpha, beta = map(str, point)
    for prop in VERIFY_PROPERTIES:
        for indices in VERIFY_INDICES:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run_command(["verify", "--alpha", alpha, "--beta", beta,
                                    "--property", prop, *indices])
            yield json.dumps([code, out.getvalue(), err.getvalue()])


# --- the recorded test ids

# test function -> (its parameter ids and arguments, the lines of one id)
CASES = {
    "test_hypergeom.py::TestClosedFormExactness::test_matches_reference": (
        {f"point{i}": pt for i, pt in enumerate(CLOSED_FORM_POINTS)}, closed_form_lines,
    ),
    "test_jacobi.py::TestKernelExactness::test_matches_reference": (
        {f"point{i}": pt for i, pt in enumerate(KERNEL_POINTS)}, kernel_lines,
    ),
    "test_jacobi.py::TestRecurrenceCoeffs::test_rows_match_recorded": (
        {f"point{i}": pt for i, pt in enumerate(GRID)}, row_lines,
    ),
    "test_jacobi.py::TestBruteforceExactness::test_matches_reference": (
        {f"point{i}": pt for i, pt in enumerate(GRID_WIDE)}, bruteforce_lines,
    ),
    "test_exact.py::TestPolynomialExactness::test_binary": (
        {name: name for name in sorted(BINARY)}, binary_lines,
    ),
    "test_exact.py::TestPolynomialExactness::test_unary": (
        {name: name for name in sorted(UNARY)}, unary_lines,
    ),
    "test_exact.py::TestPolynomialExactness::test_count_real_roots": (
        {None: None}, count_real_roots_lines,
    ),
    "test_vector_digests.py::test_vectors_match_committed_digest": (
        {f"{family}-point{i}": (family, pt)
         for family in VECTOR_FAMILIES for i, pt in enumerate(GRID)},
        vector_lines,
    ),
    "test_cli.py::TestTallPointScans::test_matches_recorded_output": (
        {f"{check}-point{i}": (pt, check)
         for check in SCAN_CHECKS for i, pt in enumerate(TALL_POINTS)},
        scan_lines,
    ),
    "test_analysis.py::TestPQ::test_limit_parts_match_reference": (
        {f"point{i}": pt for i, pt in enumerate(GRID_WIDE)}, limit_parts_lines,
    ),
    "test_analysis.py::TestIdentityOutcomes::test_matches_recorded_output": (
        {f"point{i}": pt for i, pt in enumerate(IDENTITY_POINTS)}, identity_lines,
    ),
    "test_cli.py::TestVerifyRecords::test_matches_recorded_output": (
        {f"point{i}": pt for i, pt in enumerate(IDENTITY_POINTS)}, verify_lines,
    ),
}


def recorded_ids():
    """(test id, lines function, its argument) for every recorded test id."""
    for test, (params, lines) in CASES.items():
        for param_id, arg in params.items():
            yield (test if param_id is None else f"{test}[{param_id}]"), lines, arg


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


@cache
def committed() -> dict:
    return json.loads(OUTCOME_FILE.read_text())["digests"]


def check_recorded(node, lines) -> None:
    """Fail, naming the test, unless the lines hash to the digest recorded
    for the pytest item `node` under its file name, class and name."""
    path, _, rest = node.nodeid.partition("::")
    key = f"{Path(path).name}::{rest}"
    want = committed().get(key)
    assert want is not None, f"{key}: no outcome digest recorded in {OUTCOME_FILE.name}"
    assert digest(lines) == want, (
        f"{key}: outcomes differ from the digest recorded in {OUTCOME_FILE.name}"
    )


def main() -> int:
    record = {"digests": {key: digest(lines(arg)) for key, lines, arg in recorded_ids()}}
    OUTCOME_FILE.parent.mkdir(exist_ok=True)
    OUTCOME_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {OUTCOME_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
