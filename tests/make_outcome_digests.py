"""Recorded outcomes of the exact kernels on fixed inputs.

Four test classes compare the library with outcomes recorded once, not with
a second kernel run alongside it: `TestClosedFormExactness` (9F8 series and
Dougall's product), `TestKernelExactness` (`gasper_boundary` and
`theta_iota_kappa`), `TestBruteforceExactness` (the brute-force oracle) and
`TestPolynomialExactness` (`RationalPolynomial` and `count_real_roots`).
Each of their test ids writes the library's outcome on every one of its
inputs as one canonical line: the value, or the exception type, plus the
message where the test keeps messages.  The sha256 of those lines is
compared with the digest committed for that id in
tests/data/outcome_digests.json, so a failure names its class and its point
or operation.  The inputs, seeds and enumeration order live here, so this
script needs no pytest.

The digests were first written from the library at a commit where tier-1
required the library to equal the reference copies of the earlier kernels
on all of these inputs, and the reference copies wrote the same file.
Regenerate only when outcomes are meant to change:

    PYTHONPATH=src python tests/make_outcome_digests.py
"""

import hashlib
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
    linearize_bruteforce,
    make_params,
    plus_params,
    theta_iota_kappa,
)
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


# --- the recorded test ids

# test function -> (its parameter ids and arguments, the lines of one id)
CASES = {
    "test_hypergeom.py::TestClosedFormExactness::test_matches_reference": (
        {f"point{i}": pt for i, pt in enumerate(CLOSED_FORM_POINTS)}, closed_form_lines,
    ),
    "test_jacobi.py::TestKernelExactness::test_matches_reference": (
        {f"point{i}": pt for i, pt in enumerate(KERNEL_POINTS)}, kernel_lines,
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
