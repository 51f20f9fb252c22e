"""Command-line interface: documented invocations, serialization round-trips,
and exit-code conventions."""

import csv
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from jacobilin import (
    cli,
    gencheb_rec_coeffs,
    jacobi,
    linearize_gencheb,
    linearize_jacobi,
    make_params,
    scan_sign_pattern,
)
from jacobilin.analysis import VERDICT_VIOLATION
from jacobilin.cli import run_command

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

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize(
        "argv, points",
        [
            (["compare", "--max-degree", "3"], ["alpha=-1/2, beta=0"]),
            (["scan", "--check", "nonneg", "--max-degree", "4"], ["alpha=-1/2, beta=0"]),
            (["verify", "--property", "recursion-consistency"], ["alpha=-1/2, beta=0"]),
            # The odd products of the gencheb family run at the companion
            # point, and the message names the point asked about as well.
            (
                ["witness", "--max-degree", "8"],
                ["alpha=-1/2, beta=1", "companion of alpha=-1/2, beta=0"],
            ),
        ],
        ids=["compare", "scan", "verify", "witness"],
    )
    def test_internal_failure_exits_four_in_every_subcommand(
        self, capsys, broken_gasper, argv, points, json_flag
    ):
        # (-1/2, 0) lies outside V' (b < 0).
        code, out, err = run(capsys, argv[0], "--alpha", "-1/2", "--beta", "0",
                             *argv[1:], *json_flag)
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: ")
        assert "route gasper" in err
        for point in points:
            assert point in err


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
        # phi_sequence and pq_values read the same 2m + 1 odd rows: each is
        # built once.
        assert gencheb_rec_coeffs.cache_info().misses == 7

    def test_iota_zeros_below_threshold(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--alpha", "-81/200", "--beta", "-181/200",
            "--property", "iota-zeros", "--m", "2", "--s", "0",
        )
        assert code == 0
        assert "2 zero(s)" in out

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
