"""Command-line interface: documented invocations, serialization round-trips,
and exit-code conventions."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from jacobilin import (
    analysis,
    cli,
    gencheb_rec_coeffs,
    jacobi,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    scan_sign_pattern,
)
from jacobilin.analysis import VERDICT_VIOLATION
from jacobilin.cli import fmt_approx, run_command

from conftest import GRID_WIDE, rational_vector

F = Fraction


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def broken_gasper(monkeypatch):
    """Perturb one closed form of `jacobi.gasper_boundary`, so that the Gasper
    route's cross-check fails; both linearize caches are cleared around it."""
    original = jacobi.gasper_boundary

    def perturbed(p, m, s):
        lo, lo1, hi1, hi = original(p, m, s)
        return lo, lo1, hi1 + F(1, 10**6), hi

    monkeypatch.setattr(jacobi, "gasper_boundary", perturbed)
    linearize_jacobi.cache_clear()
    linearize_gencheb.cache_clear()
    yield
    linearize_jacobi.cache_clear()
    linearize_gencheb.cache_clear()


class TestDocumentedInvocations:
    def test_classify_between_regions(self, capsys):
        code, out, _ = run(capsys, "classify", "--alpha", "-33/100", "--beta", "-87/100")
        assert code == 0
        assert "label: V′\\V" in out
        assert "a = -1/5" in out and "b = 27/50" in out

    def test_linearize_mixed_parity(self, capsys):
        code, out, _ = run(
            capsys, "linearize", "--alpha", "1", "--beta", "0",
            "--family", "gencheb", "--m", "1", "--n", "2",
        )
        assert code == 0
        assert "k=1: 1/4" in out
        assert "k=3: 3/4" in out

    def test_scan_negative_b(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--alpha", "-1/2", "--beta", "0",
            "--check", "nonneg", "--max-degree", "4",
        )
        assert code == 1
        assert "violation at (1,1,1) value -4/7" in out


class TestSerialization:
    def test_csv_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "linearize", "--alpha", "1/2", "--beta", "1/4",
            "--m", "2", "--n", "3", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        cv = linearize_jacobi(make_params(F(1, 2), F(1, 4)), 2, 3)
        assert len(rows) == 5
        for row in rows:
            k = int(row["k"])
            v = F(int(row["value_num"]), int(row["value_den"]))
            assert v == cv[k]
            assert row["approx"] == f"{float(v):.15g}"

    def test_json_round_trip(self, capsys):
        code, out, _ = run(
            capsys, "linearize", "--alpha", "-33/100", "--beta", "-87/100",
            "--family", "gencheb", "--m", "4", "--n", "4", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "linearize"
        assert doc["params"] == {"alpha": "-33/100", "beta": "-87/100"}
        cv = linearize_gencheb(make_params(F(-33, 100), F(-87, 100)), 4, 4)
        got = {r["k"]: F(r["num"], r["den"]) for r in doc["payload"]["coefficients"]}
        assert got == {k: v for k, v in cv.items()}
        assert got[4] < 0

    def test_classify_json_verdict(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--alpha", "-33/100", "--beta", "-87/100", "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "V′\\V"
        assert doc["payload"]["in_Vprime"] is True
        assert doc["payload"]["in_V"] is False

    def test_scan_json_witness(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--alpha", "-1/2", "--beta", "0",
            "--check", "nonneg", "--max-degree", "4", "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["payload"]["witness"] == [1, 1, 1]
        assert doc["payload"]["witness_value"] == "-4/7"


# alpha = -(10**400 - 1) / 10**400: valid, and its entries overflow a float.
NEAR_MINUS_ONE = f"-{10**400 - 1}/{10**400}"


class TestApproximations:
    """`approx` fields are 15 significant digits, inside and outside the
    normal float range."""

    @pytest.mark.parametrize("point", GRID_WIDE)
    def test_in_range_values_format_as_floats(self, point):
        p = make_params(*point)
        for n in range(7):
            for m in range(n + 1):
                for cv in (linearize_jacobi(p, m, n), linearize_gencheb(p, m, n)):
                    for _, v in cv.items():
                        assert fmt_approx(v) == f"{float(v):.15g}"

    def test_overflowing_values_keep_fifteen_digits(self):
        assert fmt_approx(-F(10**401, 3)) == "-3.33333333333333e+400"
        assert fmt_approx(F(10**400, 2)) == "5e+399"
        assert fmt_approx(F(1, 10**400)) == "1e-400"
        assert fmt_approx(F(-3, 10**330)) == "-3e-330"
        assert fmt_approx(F(1, 10**310)) == "1e-310"  # a subnormal float
        # Halfway quotients round to even, and a remainder past the 20th
        # digit still rounds up.
        tie = 1000000000000005 * 10**400
        assert fmt_approx(F(tie)) == "1e+415"
        assert fmt_approx(F(tie + 1)) == "1.00000000000001e+415"
        assert fmt_approx(F(tie + 10**401)) == "1.00000000000002e+415"
        assert fmt_approx(-F(1, tie)) == "-9.99999999999995e-416"

    def test_beyond_the_default_decimal_exponent_range(self):
        # Decimal's default context stops at 10**999999; the magnitudes
        # here need no integer of more than a few dozen digits as a string.
        big = 10**1000010
        assert fmt_approx(F(big)) == "1e+1000010"
        assert fmt_approx(F(-big)) == "-1e+1000010"
        assert fmt_approx(F(1, big)) == "1e-1000010"

    @staticmethod
    def _close(approx, v):
        return abs(F(Decimal(approx)) - v) <= abs(v) / 10**14

    def test_linearize_near_alpha_minus_one(self, capsys):
        argv = ["linearize", "--alpha", NEAR_MINUS_ONE, "--beta", "0", "--m", "1", "--n", "1"]
        cv = linearize_jacobi(make_params(F(NEAR_MINUS_ONE), 0), 1, 1)
        assert abs(cv[0]) > 10**308

        code, out, err = run(capsys, *argv)
        assert code == 0, err
        for k, v in cv.items():
            line = next(x for x in out.splitlines() if x.startswith(f"k={k}: "))
            assert self._close(line.rsplit("(approx ", 1)[1].rstrip(")"), v)

        code, out, err = run(capsys, *argv, "--format", "json")
        assert code == 0, err
        rows = json.loads(out)["payload"]["coefficients"]
        assert [F(r["num"], r["den"]) for r in rows] == [v for _, v in cv.items()]
        assert all(self._close(r["approx"], F(r["num"], r["den"])) for r in rows)

        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        assert all(
            self._close(r["approx"], F(int(r["value_num"]), int(r["value_den"]))) for r in rows
        )

    def test_scan_near_alpha_minus_one(self, capsys):
        # b < 0 there, so the scan finds g(1,1;1) < 0 and exits 1, its
        # documented code for a violation.
        argv = ["scan", "--alpha", NEAR_MINUS_ONE, "--beta", "0",
                "--check", "nonneg", "--max-degree", "2"]
        rep = scan_sign_pattern(make_params(F(NEAR_MINUS_ONE), 0), 2, "jacobi_nonneg")
        assert abs(rep.min_value) > 10**308

        code, out, err = run(capsys, *argv)
        assert code == 1, err
        line = next(x for x in out.splitlines() if x.startswith("min value: "))
        assert self._close(line.rsplit("(approx ", 1)[1].rstrip(")"), rep.min_value)

        code, out, err = run(capsys, *argv, "--json")
        assert code == 1, err
        assert self._close(json.loads(out)["payload"]["min_value_approx"], rep.min_value)

    def test_scan_below_float_range(self, capsys):
        # At beta near -1 the least entry is about 1.67e-401: positive, and
        # its approximation must not read 0.
        argv = ["scan", "--alpha", "0", "--beta", NEAR_MINUS_ONE,
                "--check", "nonneg", "--max-degree", "3", "--json"]
        rep = scan_sign_pattern(make_params(0, F(NEAR_MINUS_ONE)), 3, "jacobi_nonneg")
        assert 0 < rep.min_value < F(1, 10**400)

        code, out, err = run(capsys, *argv)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["verdict"] == "all_positive_on_support"
        assert doc["payload"]["min_value_approx"] == "1.66666666666667e-401"
        assert self._close(doc["payload"]["min_value_approx"], rep.min_value)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="this Python has no cap on int <-> str conversion")
class TestDigitCap:
    """Values with more digits than Python's default cap on int <-> str
    conversion (4,300) are valid input and output, and the caller's cap is
    restored after each invocation."""

    TALL = f"-{10**1500 - 1}/{10**1500}"

    def test_tall_values_keep_their_exit_codes(self, capsys):
        tall = ["--alpha", self.TALL, "--beta", "0"]
        p = make_params(F(self.TALL), 0)
        cv = linearize_jacobi(p, 2, 2)
        rep = scan_sign_pattern(p, 2, "jacobi_nonneg")
        caller_cap = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            out = {}
            for name, argv, want in [
                ("text", ["linearize", *tall, "--m", "2", "--n", "2"], 0),
                ("json", ["linearize", *tall, "--m", "2", "--n", "2", "--format", "json"], 0),
                # b < 0 there: g(1,1;1) < 0, the documented exit 1 of a violation.
                ("scan", ["scan", *tall, "--check", "nonneg", "--max-degree", "2", "--json"], 1),
                ("classify", ["classify", "--alpha", "1/" + "7" * 4400, "--beta", "0"], 0),
            ]:
                code, out[name], err = run(capsys, *argv)
                assert code == want, (name, err)
                assert sys.get_int_max_str_digits() == 4300
            sys.set_int_max_str_digits(0)
            assert max(len(str(v.numerator)) for _, v in cv.items()) > 4300
            rows = json.loads(out["json"])["payload"]["coefficients"]
            assert [F(r["num"], r["den"]) for r in rows] == [v for _, v in cv.items()]
            assert F(json.loads(out["scan"])["payload"]["witness_value"]) == rep.witness_value
        finally:
            sys.set_int_max_str_digits(caller_cap)


class TestTallPointScans:
    """`scan --max-degree 20 --json` in every mode at two tall points gives
    the recorded exit code, verdict, minimum and witness
    (`make_outcome_digests.scan_lines`)."""

    def test_matches_recorded_output(self, recorded):
        recorded()


class TestVerifyRecords:
    """`verify` in every property, at its default indices and at three
    single (m, s), gives the recorded exit code, stdout and stderr
    (`make_outcome_digests.verify_lines`)."""

    def test_matches_recorded_output(self, recorded):
        recorded()


class TestExitCodes:
    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "0.5", "--beta", "0")
        assert code == 2
        assert "not an exact rational" in err

    def test_out_of_range_parameters(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "-2", "--beta", "0")
        assert code == 2
        assert "alpha > -1" in err

    def test_missing_required_option(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "1/2")
        assert code == 2

    def test_unknown_subcommand(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 2

    def test_zero_denominator(self, capsys):
        code, _, err = run(capsys, "classify", "--alpha", "1/0", "--beta", "0")
        assert code == 2

    def test_compare_agreement(self, capsys):
        code, out, _ = run(
            capsys, "compare", "--alpha", "1/2", "--beta", "1/4", "--max-degree", "3",
        )
        assert code == 0
        assert "agree exactly" in out

    def test_compare_lists_only_methods_that_checked_an_entry(self, capsys):
        # Rahman applies at (1/2, 1/4) but needs min(m, n) >= 1: at degree 0
        # only brute checks entries, one per family.
        code, out, _ = run(
            capsys, "compare", "--alpha", "1/2", "--beta", "1/4", "--max-degree", "0",
            "--json",
        )
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["methods"] == ["gasper", "brute"]
        assert payload["entries_checked"] == 3

    def test_witness_found_signals_one(self, capsys):
        code, out, _ = run(capsys, "witness", "--alpha", "-1/2", "--beta", "0",
                           "--max-degree", "8")
        assert code == 1
        assert "(m=3, n=3, k=2)" in out
        assert "-8/21" in out

    def test_witness_absent_signals_zero(self, capsys):
        code, out, _ = run(capsys, "witness", "--alpha", "0", "--beta", "0",
                           "--max-degree", "6")
        assert code == 0
        assert "no negative coefficient" in out

    def test_method_family_mismatch(self, capsys):
        code, _, err = run(
            capsys, "linearize", "--alpha", "1", "--beta", "0",
            "--family", "gencheb", "--m", "1", "--n", "1", "--method", "rahman",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option, value, code", [("--alpha", "-1/2", 0), ("--beta", "-33/100", 0), ("--m", "-3", 2)]
    )
    def test_negative_value_split_from_its_option(self, capsys, option, value, code):
        options = {"--alpha": "1/2", "--beta": "1/4", "--m": "1", "--n": "2", option: value}
        split = ["linearize", *(tok for item in options.items() for tok in item)]
        joined = ["linearize", *(f"{opt}={val}" for opt, val in options.items())]
        assert run(capsys, *split)[0] == code
        assert run(capsys, *split) == run(capsys, *joined)

    def test_compare_disagreement_names_each_entry(self, capsys, monkeypatch):
        original = cli.linearize_bruteforce

        # Perturbed on the companion point (1/2, 1/4 + 1) = (1/2, 5/4) only.
        def perturbed(p, m, n, family=jacobi.FAMILY_JACOBI):
            cv = original(p, m, n, family)
            if (family, p.beta, m, n) != (jacobi.FAMILY_JACOBI, F(5, 4), 1, 2):
                return cv
            return SimpleNamespace(values=(cv.values[0], cv.values[1] + 1, cv.values[2]))

        # Patched in the cli namespace: compare must call the route by name.
        monkeypatch.setattr(cli, "linearize_bruteforce", perturbed)
        argv = ["compare", "--alpha", "1/2", "--beta", "1/4", "--max-degree", "2"]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "disagree"
        assert doc["payload"]["mismatches"] == [["jacobi-plus", 1, 2, "brute k=2"]]
        code, out, _ = run(capsys, *argv)
        assert code == 1
        assert "MISMATCH jacobi-plus m=1 n=2: brute k=2" in out

    def test_compare_walks_a_different_vector_entry_by_entry(self, capsys, monkeypatch):
        argv = ["compare", "--alpha", "1/2", "--beta", "1/4", "--max-degree", "2", "--json"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        agreed = json.loads(out)["payload"]
        original = cli.linearize_bruteforce

        # A real vector (lowest terms, sum 1, positive extremes) that differs
        # from the reference at k = 1 and k = 3 only, at the plain point.
        def shifted(p, m, n, family=jacobi.FAMILY_JACOBI):
            cv = original(p, m, n, family)
            if (family, p.beta, m, n) != (jacobi.FAMILY_JACOBI, F(1, 4), 1, 2):
                return cv
            lo, mid, hi = cv.values
            return rational_vector(m, n, family, (lo + F(1, 100), mid, hi - F(1, 100)))

        monkeypatch.setattr(cli, "linearize_bruteforce", shifted)
        code, out, _ = run(capsys, *argv)
        assert code == 1
        payload = json.loads(out)["payload"]
        assert payload["mismatches"] == [
            ["jacobi", 1, 2, "brute k=1"], ["jacobi", 1, 2, "brute k=3"],
        ]
        for key in ("entries_checked", "entries_skipped_singular", "methods"):
            assert payload[key] == agreed[key], key

    def test_compare_names_a_perturbed_rahman_entry_at_its_k(self, capsys, monkeypatch):
        original = cli.rahman_coefficient

        def perturbed(p, m, s, j):
            value = original(p, m, s, j)
            return value + 1 if (m, s, j) == (2, 1, 3) else value

        monkeypatch.setattr(cli, "rahman_coefficient", perturbed)
        code, out, _ = run(
            capsys, "compare", "--alpha", "1/2", "--beta", "1/4", "--max-degree", "3",
            "--json",
        )
        assert code == 1
        # (m, s, j) = (2, 1, 3) is g(2, 3; s + j).
        assert json.loads(out)["payload"]["mismatches"] == [["jacobi", 2, 3, "rahman k=4"]]

    @pytest.mark.parametrize(
        "alpha, beta, check, verdict, code",
        [
            ("-1/2", "-1/2", "nonneg", "all_nonneg", 0),
            ("-1/2", "-1/2", "strict", "all_nonneg", 1),
            ("1/2", "1/4", "strict", "all_positive_on_support", 0),
        ],
    )
    def test_scan_strict_fails_on_a_zero(self, capsys, alpha, beta, check, verdict, code):
        # The first-kind Chebyshev point has zeros in the support and no negatives.
        argv = ["scan", "--alpha", alpha, "--beta", beta, "--check", check, "--max-degree", "6"]
        got, out, _ = run(capsys, *argv, "--json")
        assert (got, json.loads(out)["verdict"]) == (code, verdict)
        assert run(capsys, *argv)[0] == code

    @pytest.mark.parametrize("check", ["all", "odd", "oscillation"])
    @pytest.mark.parametrize("alpha, beta", [("1/2", "1/4"), ("-1/2", "0")])
    def test_scan_json_matches_library(self, capsys, alpha, beta, check):
        # (1/2, 1/4) lies in V, (-1/2, 0) outside V' (b < 0).
        mode = cli._CHECK_TO_MODE[check]
        rep = scan_sign_pattern(make_params(F(alpha), F(beta)), 5, mode)
        argv = ["scan", "--alpha", alpha, "--beta", beta, "--check", check,
                "--max-degree", "5", "--json"]
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)["payload"]
        assert code == (1 if rep.verdict == VERDICT_VIOLATION else 0)
        assert payload["mode"] == mode
        assert payload["verdict"] == rep.verdict
        assert payload["min_value"] == str(rep.min_value)
        assert payload["witness"] == (list(rep.witness) if rep.witness else None)

    @pytest.mark.parametrize("method", ["gasper", "brute"])
    def test_companion_family_is_jacobi_at_the_plus_point(self, capsys, method):
        def coefficients(family, beta):
            argv = ["linearize", "--alpha", "1/4", "--beta", beta, "--family", family,
                    "--m", "2", "--n", "3", "--method", method, "--format", "json"]
            code, out, _ = run(capsys, *argv)
            assert code == 0
            return json.loads(out)["payload"]["coefficients"]

        assert coefficients("jacobi-plus", "-1/4") == coefficients("jacobi", "3/4")

    def test_linearize_output_not_summing_to_one_exits_four(self, capsys, monkeypatch):
        original = cli.rahman_coefficient

        def perturbed(p, m, s, j):
            return original(p, m, s, j) + (j == 0)

        monkeypatch.setattr(cli, "rahman_coefficient", perturbed)
        code, out, err = run(
            capsys, "linearize", "--alpha", "1/2", "--beta", "1/4",
            "--m", "2", "--n", "3", "--method", "rahman",
        )
        assert code == 4
        assert out == ""
        assert "route rahman" in err and "m=2" in err and "n=3" in err

    def test_compare_skips_singular_series_entries(self, capsys):
        # alpha = 0 zeroes a denominator parameter of the even-j series.
        code, out, _ = run(
            capsys, "compare", "--alpha", "0", "--beta", "-1/4", "--max-degree", "4",
            "--json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "agree"
        assert doc["payload"]["entries_checked"] == 215
        assert doc["payload"]["entries_skipped_singular"] == 20

    def test_linearize_singular_series_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "linearize", "--alpha", "0", "--beta", "-1/4",
            "--m", "2", "--n", "2", "--method", "rahman",
        )
        assert code == 2
        assert out == ""
        assert "k=2" in err

    def test_rahman_degree_zero_is_rejected(self, capsys):
        code, out, err = run(
            capsys, "linearize", "--alpha", "1", "--beta", "0",
            "--m", "0", "--n", "3", "--method", "rahman",
        )
        assert code == 2
        assert err.strip()
        assert out == ""

    def test_internal_failure_exits_four(self, capsys, broken_gasper):
        code, out, err = run(
            capsys, "linearize", "--alpha", "1/2", "--beta", "1/4",
            "--m", "3", "--n", "5",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ")
        for part in ("alpha=1/2", "beta=1/4", "m=3", "n=5", "k=7", "route gasper"):
            assert part in err

    def test_internal_failure_in_the_companion_family_names_the_point(
        self, capsys, broken_gasper
    ):
        code, out, err = run(
            capsys, "linearize", "--alpha", "1/2", "--beta", "1/4", "--family", "jacobi-plus",
            "--m", "3", "--n", "5",
        )
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ")
        for part in ("alpha=1/2, beta=5/4", "companion of alpha=1/2, beta=1/4", "route gasper"):
            assert part in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv, points, fault, route",
        [
            (
                ["compare", "--max-degree", "3"],
                ["alpha=-1/2, beta=0"],
                "broken_gasper",
                "gasper",
            ),
            (
                ["scan", "--check", "nonneg", "--max-degree", "4"],
                ["alpha=-1/2, beta=0, m=2, n=3"],
                "broken_product_step",
                "rows/jacobi",
            ),
            (
                ["scan", "--check", "all", "--max-degree", "4"],
                ["alpha=-1/2, beta=0, m=2, n=3"],
                "broken_product_step",
                "rows/gencheb",
            ),
            (
                ["scan", "--check", "strict", "--max-degree", "4"],
                ["alpha=-1/2, beta=0, m=2, n=3"],
                "flat_product_extreme",
                "rows/jacobi",
            ),
            (
                ["verify", "--property", "recursion-consistency"],
                ["alpha=-1/2, beta=0"],
                "broken_gasper",
                "gasper",
            ),
            (
                ["verify", "--property", "phi-alternation"],
                ["alpha=-1/2, beta=1", "companion of alpha=-1/2, beta=0"],
                "broken_gasper",
                "gasper",
            ),
            (
                ["witness", "--max-degree", "8"],
                ["alpha=-1/2, beta=1", "companion of alpha=-1/2, beta=0"],
                "broken_gasper",
                "gasper",
            ),
        ],
        ids=["compare", "scan", "scan-gencheb", "scan-extreme", "verify", "verify-phi",
             "witness"],
    )
    def test_internal_failure_exits_four_in_every_subcommand(
        self, capsys, request, argv, points, fault, route, json_flag
    ):
        # (-1/2, 0) lies outside V' (b < 0).  phi and the odd products of the
        # gencheb family run at the companion point (-1/2, 1), and the message
        # names the point asked about as well.  The scan reads the product
        # pass, not the Gasper route, so its faults are planted there; the
        # extreme fault keeps the sum, and the extreme check sees it.
        request.getfixturevalue(fault)
        code, out, err = run(capsys, argv[0], "--alpha", "-1/2", "--beta", "0",
                             *argv[1:], *json_flag)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ")
        assert f"route {route}" in err
        for point in points:
            assert point in err

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_division_by_zero_is_an_internal_error(self, capsys, monkeypatch, json_flag):
        # No handler divides by zero on purpose: a request the library
        # refuses raises ValueError, so a ZeroDivisionError is a fault.
        monkeypatch.setattr(cli, "iota_zero_count", lambda p, m, s: F(m, 0))
        code, out, err = run(capsys, "verify", "--alpha", "1/2", "--beta", "1/4",
                             "--property", "iota-zeros", *json_flag)
        assert (code, out) == (4, "")
        assert err == "internal error: Fraction(1, 0)\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    def test_any_other_exception_is_an_internal_error(self, capsys, monkeypatch, json_flag):
        # A fault of any other type, here a TypeError, exits 4 as well
        # instead of escaping as a traceback.
        def faulty(p, m, s):
            return None + m

        monkeypatch.setattr(cli, "iota_zero_count", faulty)
        code, out, err = run(capsys, "verify", "--alpha", "1/2", "--beta", "1/4",
                             "--property", "iota-zeros", *json_flag)
        assert (code, out) == (4, "")
        assert err.startswith("internal error: unsupported operand type(s) for +")


class TestParser:
    def test_built_once_and_commands_looked_up_at_call_time(self, capsys, monkeypatch):
        assert run(capsys, "classify", "--alpha", "1", "--beta", "0")[0] == 0

        def rebuild():
            raise AssertionError("parser rebuilt")

        seen = []
        monkeypatch.setattr(cli, "build_parser", rebuild)
        monkeypatch.setattr(
            cli, "_cmd_classify", lambda p, ns: seen.append(p.alpha) or ({}, None, [], 7)
        )
        assert run(capsys, "classify", "--alpha", "1/2", "--beta", "0")[0] == 7
        assert seen == [F(1, 2)]
        assert run(capsys, "classify", "--alpha", "x", "--beta", "0")[0] == 2

    def test_build_parser_is_public(self):
        ns = cli.build_parser().parse_args(["scan", "--alpha", "1", "--beta", "0",
                                            "--check", "nonneg", "--max-degree", "3"])
        assert ns.subcommand == "scan" and ns.max_degree == 3


class TestVerifySubcommand:
    def test_recursion_consistency(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "-1/4", "--beta", "-19/20",
            "--property", "recursion-consistency", "--m", "2", "--s", "1",
        )
        assert code == 0
        assert "PASS" in out

    def test_phi_alternation(self, capsys):
        gencheb_rec_coeffs.cache_clear()
        code, out, _ = run(
            capsys, "verify", "--alpha", "-33/100", "--beta", "-87/100",
            "--property", "phi-alternation", "--m", "3", "--s", "1",
        )
        assert code == 0
        # phi_sequence and pq_values read the odd scales r(j) from
        # `analysis._odd_scale`, which builds no cached gencheb row.
        assert gencheb_rec_coeffs.cache_info().misses == 0

    def test_iota_zeros_below_threshold(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "-81/200", "--beta", "-181/200",
            "--property", "iota-zeros", "--m", "2", "--s", "0",
        )
        assert code == 0
        assert "2 zero(s)" in out

    @pytest.mark.parametrize(
        "point, argv, details",
        [
            pytest.param(
                ("1/2", "1/4"), ["--m", "3", "--s", "1"],
                ["m=3 s=1: 1 zero(s)", "above threshold: expected at most one zero each"],
                id="above-threshold",
            ),
            pytest.param(
                ("1", "1"), [],
                ["b = 0: iota vanishes identically (degenerate); nothing to count"],
                id="b-zero",
            ),
        ],
    )
    def test_iota_zeros_above_threshold_and_at_b_zero(self, capsys, point, argv, details):
        cmd = ["verify", "--alpha", point[0], "--beta", point[1], "--property", "iota-zeros", *argv]
        code, out, err = run(capsys, *cmd)
        assert (code, err) == (0, "")
        assert out.splitlines() == [
            f"property iota-zeros at alpha={point[0]} beta={point[1]}",
            *(f"  {line}" for line in details),
            "iota-zeros: PASS",
        ]
        code, out, err = run(capsys, *cmd, "--json")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["payload"] == {"property": "iota-zeros", "details": details, "verdict": "pass"}
        assert doc["verdict"] == "pass"

    @pytest.mark.parametrize(
        "point, prop",
        [
            pytest.param(("1", "1"), "iota-zeros", id="point0"),
            pytest.param(("1/2", "1/4"), "iota-zeros", id="point1"),
            pytest.param(("1", "1"), "recursion-consistency", id="rec-point0"),
            pytest.param(("1/2", "1/4"), "recursion-consistency", id="rec-point1"),
        ],
    )
    def test_iota_zeros_m_zero_is_a_usage_error(self, capsys, point, prop):
        # b = 0 at (1, 1): iota vanishes identically, but m = 0 is still out
        # of range there, as at any other point.  The recursion check's loop
        # over j would be empty at m = 0, so it rejects m = 0 explicitly.
        code, out, err = run(
            capsys, "verify", "--alpha", point[0], "--beta", point[1],
            "--property", prop, "--m", "0",
        )
        assert code == 2
        assert out == ""
        assert "need m >= 1 and s >= 0" in err

    def test_pq_inequality_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "-33/100", "--beta", "-87/100",
            "--property", "pq-inequality", "--m", "2", "--s", "0", "--json",
        )
        assert code == 0
        assert json.loads(out)["verdict"] == "pass"

    def test_nec_identities(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "1", "--beta", "0",
            "--property", "nec-identities", "--m", "2", "--s", "1",
        )
        assert code == 0

    @pytest.mark.parametrize("prop", ["pq-inequality", "phi-alternation"])
    def test_not_applicable_exits_three(self, capsys, prop):
        # (1, 0) is a valid point outside the validity region of both
        # properties: a finding about the point, not a usage error.
        argv = ["verify", "--alpha", "1", "--beta", "0", "--property", prop]
        code, out, err = run(capsys, *argv, "--json")
        assert code == 3
        assert err == ""
        doc = json.loads(out)
        assert doc["verdict"] == doc["payload"]["verdict"] == "not_applicable"
        assert "validity region" in doc["payload"]["reason"]
        code, out, _ = run(capsys, *argv)
        assert code == 3
        assert "NOT APPLICABLE" in out

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "prop, target, perturb, detail, m",
        [
            pytest.param(
                "recursion-consistency", "_recursion_weights",
                lambda weights: (weights[0] + 1, *weights[1:]),
                "recursion identity FAILS", 2, id="recursion",
            ),
            # At m = 1 the three-point identity has the one index j = 1.
            pytest.param(
                "recursion-consistency", "_recursion_weights",
                lambda weights: (weights[0] + 1, *weights[1:]),
                "recursion identity FAILS", 1, id="recursion-m1",
            ),
        ],
    )
    def test_failed_cross_check_is_a_fail_verdict(
        self, capsys, monkeypatch, prop, target, perturb, detail, m, json_flag
    ):
        original = getattr(cli, target)
        monkeypatch.setattr(cli, target, lambda *args: perturb(original(*args)))
        code, out, err = run(capsys, "verify", "--alpha", "-33/100", "--beta", "-87/100",
                             "--property", prop, "--m", str(m), "--s", "0", *json_flag)
        assert (code, err) == (1, "")
        if json_flag:
            doc = json.loads(out)
            assert doc["payload"] == {"property": prop, "details": [f"m={m} s=0: {detail}"],
                                      "verdict": "fail"}
            assert doc["verdict"] == "fail"
        else:
            assert out.splitlines() == [f"property {prop} at alpha=-33/100 beta=-87/100",
                                        f"  m={m} s=0: {detail}", f"{prop}: FAIL"]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "prop, code, detail",
        [
            # phi reads the companion vector, which `jacobi` builds with its own
            # weights, and no run re-checks phi's recurrence against p and q.
            pytest.param("phi-alternation", 0, "alternation holds", id="phi-alternation"),
            # At this point the perturbed p and q still satisfy the inequality.
            pytest.param("pq-inequality", 0, "chained inequality holds", id="pq-inequality"),
            pytest.param("nec-identities", 1, "identities FAIL", id="nec-identities"),
        ],
    )
    def test_perturbed_weights_reach_the_identities(
        self, capsys, monkeypatch, prop, code, detail, json_flag
    ):
        # iota + 1 in the weights that the p/q run and both identity sets read.
        # No run cross-checks the p/q split or phi's recurrence any more:
        # TestIdentityProofs rejects an iota slip in `_recursion_weights` and
        # an r(j+1) slip in `_pq_quotients` for every parameter.
        original = analysis._recursion_weights

        def perturbed(*args):
            theta, iota, kappa, den = original(*args)
            return theta, iota + 1, kappa, den

        monkeypatch.setattr(analysis, "_recursion_weights", perturbed)
        got, out, err = run(capsys, "verify", "--alpha", "-33/100", "--beta", "-87/100",
                            "--property", prop, "--m", "2", "--s", "0", *json_flag)
        verdict = "PASS" if code == 0 else "FAIL"
        assert (got, err) == (code, "")
        if json_flag:
            assert json.loads(out)["payload"]["details"] == [f"m=2 s=0: {detail}"]
        else:
            assert out.splitlines()[1:] == [f"  m=2 s=0: {detail}", f"{prop}: {verdict}"]

    def test_malformed_point_is_still_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--alpha", "x", "--beta", "0",
            "--property", "pq-inequality", "--json",
        )
        assert code == 2
        assert out == ""
        assert "not an exact rational" in err


REPO = Path(__file__).resolve().parents[1]


def _readme_examples():
    """(argv, shown output lines) for each `$ jacobilin ...` block of README.md."""
    blocks = (REPO / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    return [
        (shlex.split(block.split("\n")[1].removeprefix("$ jacobilin ")),
         [line for line in block.split("\n")[2:] if line and line != "..."])
        for block in blocks
        if block.startswith("\n$ jacobilin ")
    ]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize("argv, shown", README_EXAMPLES, ids=[a[0] for a, _ in README_EXAMPLES])
def test_readme_example(capsys, argv, shown):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1), err
    lines = out.splitlines()
    for line in shown:
        assert line in lines


def test_readme_library_quick_start(capsys):
    """The README's `python` block runs and prints what its comments say: a
    dict over k = 1..5 and the label Δ°."""
    blocks = (REPO / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    (code,) = [b.removeprefix("python\n") for b in blocks if b.startswith("python\n")]
    exec(compile(code, "README.md", "exec"), {})
    first, second = capsys.readouterr().out.splitlines()
    assert set(eval(first, {"Fraction": Fraction})) == {1, 2, 3, 4, 5}
    assert second == "Δ°"


# The wrapper an installer writes for a `[project.scripts]` entry.
CONSOLE_WRAPPER = """\
import re
import sys
from {module} import {attr}
if __name__ == "__main__":
    sys.argv[0] = re.sub(r"(-script\\.pyw|\\.exe)?$", "", sys.argv[0])
    sys.exit({attr}())
"""


def test_console_script_installed(tmp_path):
    """The console script declared in pyproject.toml, run as its own process
    against this checkout's src/, handles the README classify example.

    Nothing is installed and PATH is not consulted: the wrapper is built from
    the declared entry point, so the test checks this checkout rather than
    whatever `jacobilin` an earlier install left on the machine.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["jacobilin"]
    module, attr = entry.split(":")
    script = tmp_path / "jacobilin"
    script.write_text(CONSOLE_WRAPPER.format(module=module, attr=attr))
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )

    def console(*argv):
        return subprocess.run(
            [sys.executable, str(script), *argv],
            capture_output=True, encoding="utf-8", env=env, cwd=tmp_path,
        )

    proc = console("classify", "--alpha", "-33/100", "--beta", "-87/100")
    assert proc.returncode == 0, proc.stderr
    assert "V′\\V" in proc.stdout

    proc = console("classify", "--alpha", "x", "--beta", "0")
    assert proc.returncode == 2
