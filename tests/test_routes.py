"""Every route of the CLI method table agrees exactly with its family's
reference route, and `linearize` refuses a route exactly where the table says
it does not apply.

Points come from every region class of `classify_region` and from the
boundary lines a = 0, b = 0 (alpha = beta), b = 1 and beta = -1/2.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jacobilin import RegionLabel, classify_region, make_params
from jacobilin.cli import METHODS, run_command

F = Fraction
MAX_DEGREE = 6
ALL_METHODS = list(dict.fromkeys(method for routes in METHODS.values() for method in routes))


def _pool_by_label():
    """Grid points grouped by region class: step 1/8 over (-1, 3)^2, and step
    1/40 over the corner alpha in [-1/2, 0], beta in (-1, -1/2], where V' minus V
    lies.  No grid point is on the curved part of the boundary of V, so that
    class gets the rational point (-346/1057, -1333/1661) on it."""
    coarse = [(F(i, 8), F(j, 8)) for i in range(-7, 24) for j in range(-7, 24)]
    fine = [(F(i, 40), F(j, 40)) for i in range(-20, 1) for j in range(-39, -19)]
    pool = {label: [] for label in RegionLabel}
    for alpha, beta in coarse + fine:
        pool[classify_region(make_params(alpha, beta)).label].append((alpha, beta))
    pool[RegionLabel.V_BOUNDARY].append((F(-346, 1057), F(-1333, 1661)))
    return pool


POOL = _pool_by_label()


def _on(lo, hi):
    return st.fractions(min_value=lo, max_value=hi, max_denominator=12).filter(
        lambda t: lo < t < hi
    )


LINES = {
    "a = 0": _on(-1, 0).map(lambda t: (t, -1 - t)),
    "b = 0": _on(-1, 3).map(lambda t: (t, t)),
    "b = 1": _on(-1, 2).map(lambda t: (t + 1, t)),
    "beta = -1/2": _on(-1, 3).map(lambda t: (t, F(-1, 2))),
}

SOURCES = {label.name: st.sampled_from(POOL[label]) for label in RegionLabel} | LINES


def test_every_region_class_has_points():
    assert all(POOL[label] for label in RegionLabel)


def _linearize(alpha, beta, family, method, m, n):
    argv = ["linearize", "--alpha", str(alpha), "--beta", str(beta), "--family", family,
            "--method", method, "--m", str(m), "--n", str(n), "--format", "json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_command(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("source", SOURCES)
@settings(
    derandomize=True, max_examples=2, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_routes_agree_with_reference(source, data):
    point = data.draw(SOURCES[source], label="point")
    m, n = data.draw(st.tuples(st.integers(0, MAX_DEGREE), st.integers(0, MAX_DEGREE)))
    p = make_params(*point)
    for family, routes in METHODS.items():
        (_, (_, reference)), *others = routes.items()
        for n in range(MAX_DEGREE + 1):
            for m in range(n + 1):
                ref = reference(p, m, n)
                for method, (applies, values) in others:
                    if applies(p, m, n):
                        got = values(p, m, n)
                        assert len(got) == len(ref), (family, method, m, n)
                        for k, (want, v) in enumerate(zip(ref, got), start=n - m):
                            assert v is None or v == want, (family, method, m, n, k)

    # One product per example through the CLI: exit 2 exactly where the
    # route is missing or does not apply, or a series entry is singular.
    for family, routes in METHODS.items():
        for method in ALL_METHODS:
            code, out = _linearize(point[0], point[1], family, method, m, n)
            applies, values = routes.get(method, (None, None))
            if applies is None or not applies(p, m, n):
                assert code == 2, (family, method, m, n)
                continue
            vals = values(p, m, n)
            if None in vals:
                assert code == 2, (family, method, m, n)
                continue
            assert code == 0, (family, method, m, n)
            rows = json.loads(out)["payload"]["coefficients"]
            assert tuple(F(r["num"], r["den"]) for r in rows) == vals
