"""Every route of the CLI method table agrees exactly with its family's
reference route, and `linearize` refuses a route exactly where the table says
it does not apply.

Points come from every region class of `classify_region` and from the
boundary lines a = 0, b = 0 (alpha = beta), b = 1 and beta = -1/2.
"""

import contextlib
import io
import json
import sys
from fractions import Fraction

import pytest

from jacobilin import RegionLabel, classify_region, make_params
from jacobilin.cli import METHODS, _entries, run_command

F = Fraction
MAX_DEGREE = 6
ALL_METHODS = list(dict.fromkeys(method for routes in METHODS.values() for method in routes))

# (alpha, beta, m, n) per source: grid points of step 1/8 over (-1, 3)^2 or
# of step 1/40 in the corner where V' minus V lies, the rational point on the
# curved part of the boundary of V, and points of denominator up to 12 on the
# lines.  The dougall gate closes at (-1/2, -1/2), the rahman gate at (0, 0),
# and the rahman series has singular entries at (0, -1/2).  The CLI runs the
# product (m, n) at each point; the products include m = 0, m > n and m = n.
EXAMPLES = {source: [(F(alpha), F(beta), m, n) for alpha, beta, m, n in rows] for source, rows in {
    "DELTA_INTERIOR": [("-3/8", "-1/2", 0, 0), ("19/8", "1/2", 4, 6)],
    "DELTA_BOUNDARY_IN_V": [("-1/2", "-1/2", 0, 0), ("-11/40", "-29/40", 6, 4)],
    "V_INTERIOR_OFF_DELTA": [("-1/4", "-7/8", 0, 0), ("-9/40", "-37/40", 6, 5)],
    "V_BOUNDARY": [("-346/1057", "-1333/1661", 5, 5)],
    "VPRIME_ONLY": [("-3/8", "-27/40", 0, 0), ("-7/20", "-3/4", 6, 6)],
    "OUTSIDE_VPRIME": [("-7/8", "-7/8", 0, 0), ("5/4", "15/8", 2, 4)],
    "a = 0": [("-1/6", "-5/6", 5, 0), ("-1/4", "-3/4", 0, 4)],
    "b = 0": [("0", "0", 0, 0), ("1/4", "1/4", 1, 2)],
    "b = 1": [("1", "0", 0, 0), ("2", "1", 0, 6)],
    "beta = -1/2": [("0", "-1/2", 0, 0), ("1/12", "-1/2", 4, 4)],
}.items()}

ON_SOURCE = {
    label.name: (lambda p, label=label: classify_region(p).label == label)
    for label in RegionLabel
} | {
    "a = 0": lambda p: p.a == 0,
    "b = 0": lambda p: p.b == 0,
    "b = 1": lambda p: p.b == 1,
    "beta = -1/2": lambda p: p.beta == F(-1, 2),
}


def test_every_region_class_has_points():
    # Each source's points lie in its class or on its line, and none repeats.
    assert EXAMPLES.keys() == ON_SOURCE.keys()
    points = [(alpha, beta) for rows in EXAMPLES.values() for alpha, beta, _, _ in rows]
    assert len(set(points)) == len(points)
    for source, rows in EXAMPLES.items():
        assert rows and all(ON_SOURCE[source](make_params(*row[:2])) for row in rows), source


def _linearize(alpha, beta, family, method, m, n):
    argv = ["linearize", "--alpha", str(alpha), "--beta", str(beta), "--family", family,
            "--method", method, "--m", str(m), "--n", str(n), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("source", EXAMPLES)
def test_routes_agree_with_reference(source):
    for alpha, beta, m, n in EXAMPLES[source]:
        p = make_params(alpha, beta)
        for family, routes in METHODS.items():
            (_, (_, reference)), *others = routes.items()
            for hi in range(MAX_DEGREE + 1):
                for lo in range(hi + 1):
                    ref = _entries(reference(p, lo, hi))
                    for method, (applies, values) in others:
                        if applies(p, lo, hi):
                            got = _entries(values(p, lo, hi))
                            where = (alpha, beta, family, method, lo, hi)
                            assert len(got) == len(ref), where
                            for k, (want, v) in enumerate(zip(ref, got), start=hi - lo):
                                assert v is None or v == want, (*where, k)

        # The point's own product through the CLI: exit 2 exactly where the
        # route is missing or does not apply, or a series entry is singular.
        for family, routes in METHODS.items():
            for method in ALL_METHODS:
                code, out = _linearize(alpha, beta, family, method, m, n)
                where = (alpha, beta, family, method, m, n)
                applies, values = routes.get(method, (None, None))
                if applies is None or not applies(p, m, n):
                    assert code == 2, where
                    continue
                vals = _entries(values(p, m, n))
                if None in vals:
                    assert code == 2, where
                    continue
                assert code == 0, where
                rows = json.loads(out)["payload"]["coefficients"]
                assert tuple(F(r["num"], r["den"]) for r in rows) == vals, where


def test_cli_half_runs_each_points_own_product(monkeypatch):
    # A spy on `_linearize`; one route keeps the rerun cheap.
    seen = []

    def spy(alpha, beta, family, method, m, n):
        seen.append((alpha, beta, m, n))
        return real(alpha, beta, family, method, m, n)

    module, real = sys.modules[__name__], _linearize
    monkeypatch.setattr(module, "_linearize", spy)
    monkeypatch.setattr(module, "METHODS", {"jacobi": {"gasper": METHODS["jacobi"]["gasper"]}})
    monkeypatch.setattr(module, "ALL_METHODS", ["gasper"])
    for source in EXAMPLES:
        test_routes_agree_with_reference(source)
    assert seen == [row for rows in EXAMPLES.values() for row in rows]
    assert any(m == 0 for *_, m, n in seen)
    assert any(m > n for *_, m, n in seen) and any(m == n for *_, m, n in seen)
