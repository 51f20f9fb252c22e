"""Command-line interface.

Subcommands: classify, linearize, compare, scan, verify, witness.  All numeric
input is exact "p/q" text; output values are exact, with an optional decimal
rendering (15 significant digits) that is explicitly marked approximate.

Each subcommand is a handler `_cmd_<name>(p, ns)` that prints nothing and
returns `(payload, verdict, text_lines, code)`.  `run_command` builds the point
p and alone writes stdout: the JSON record (`command`, `params`, `payload`, and
`verdict` unless None) or the text lines, only after the handler has returned.

Exit codes: 0 success / property holds, 1 property violated or methods
disagree (witness printed), 2 usage or range error (message on stderr),
3 `verify` property not applicable at a valid point (verdict
`not_applicable` with the reason), 4 internal consistency failure (message on
stderr naming the point, the indices and the route) or any other exception
inside a subcommand, such as a division by zero, which no subcommand raises on
purpose.
"""

import argparse
import csv
import io
import json
import re
import sys
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction

from .analysis import (
    SCAN_MODES,
    VERDICT_ALL_POSITIVE,
    VERDICT_VIOLATION,
    NotApplicableError,
    find_negativity_witness,
    iota_zero_count,
    necessity_identity_values,
    phi_sequence,
    pq_inequality_check,
    scan_sign_pattern,
)
from .gencheb import _companion, linearize_gencheb
from .hypergeom import SingularSeriesError, dougall_coefficient, rahman_coefficient
from .jacobi import (
    FAMILY_GENCHEB,
    FAMILY_JACOBI,
    _recursion_weights,
    internal_error,
    linearize_bruteforce,
    linearize_jacobi,
)
from .params import classify_region, make_params, plus_params

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _rational(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"not an exact rational: {text!r} (write an integer or p/q)"
        )
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from None


def _natural(text: str) -> int:
    if not re.match(r"^\+?\d+$", text):
        raise argparse.ArgumentTypeError(f"not a natural number: {text!r}")
    return int(text)


def fmt_approx(v: Fraction) -> str:
    try:
        x = float(v)
    except OverflowError:  # |v| above the float range
        x = 0.0
    if abs(x) >= sys.float_info.min or not v:
        return f"{x:.15g}"
    # |v| outside the normal float range: round the exact quotient to 15
    # digits.  It is cut to the integer part of |v| / 10**e, about 20 digits,
    # and one digit that is nonzero when the cut drops anything, which round
    # alike, so no Decimal is made from a million-digit integer.
    num, den = abs(v.numerator), v.denominator
    e = (num.bit_length() - den.bit_length()) * 30103 // 100000 - 20
    lead, rest = divmod(num * 10**max(-e, 0), den * 10**max(e, 0))
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = 15, MAX_EMAX, MIN_EMIN
        cut = Decimal(f"{'-' * (v < 0)}{lead}{int(rest != 0)}e{e - 1}")
        return f"{cut.normalize():.15g}"


def _merge_value_options(argv: list[str]) -> list[str]:
    # argparse rejects option values that start with "-" unless they look like
    # plain negative numbers, so "--alpha -33/100" needs joining into one token.
    out = []
    for tok in argv:
        after_bare_option = out and out[-1].startswith("--") and "=" not in out[-1]
        if after_bare_option and tok.startswith("-") and _RATIONAL_RE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


# ---------------------------------------------------------------- classify


def _cmd_classify(p, ns):
    rep = classify_region(p)
    payload = {
        "a": str(p.a),
        "b": str(p.b),
        "in_Delta": rep.in_delta,
        "in_Delta_interior": rep.in_delta_interior,
        "in_V": rep.in_v,
        "in_V_interior": rep.in_v_interior,
        "in_Vprime": rep.in_vprime,
        "above_iota_threshold": rep.above_iota_threshold,
        "on_iota_threshold": rep.on_iota_threshold,
        "label": rep.label.value,
    }
    lines = [
        f"alpha = {ns.alpha}   beta = {ns.beta}",
        f"a = {p.a}   b = {p.b}",
        *(f"{key} = {payload[key]}" for key in list(payload)[2:-1]),  # between b and label
        f"label: {rep.label.value}",
    ]
    return payload, rep.label.value, lines, 0


# ---------------------------------------------------------------- routes


def _always(p, m, n) -> bool:
    return True


def _brute(family: str):
    return lambda p, m, n: linearize_bruteforce(p, m, n, family)


def _rahman(p, m, n) -> tuple:
    m, n = min(m, n), max(m, n)
    out = []
    for j in range(2 * m + 1):
        try:
            out.append(rahman_coefficient(p, m, n - m, j))
        except SingularSeriesError:
            out.append(None)
    return tuple(out)


def _entries(result) -> tuple:
    """A route's entries: a vector's `values`, or rahman's tuple as it is."""
    return result if isinstance(result, tuple) else result.values


# family -> method -> (applies(p, m, n), route(p, m, n)), where a route returns
# the `CoeffVector` of g(m, n; k) for k = |m-n| .. m+n, or, for rahman, the
# tuple of entries with None where a series entry is singular.  The first
# method of each family is its reference.  Each route is called through its
# name in this module, so a rebound name (a patch or a tracer) is honoured.
METHODS = {
    "jacobi": {
        "gasper": (_always, lambda p, m, n: linearize_jacobi(p, m, n)),
        "brute": (_always, _brute(FAMILY_JACOBI)),
        "rahman": (lambda p, m, n: p.a > 0 and p.b > 0 and min(m, n) >= 1, _rahman),
        "dougall": (
            lambda p, m, n: p.alpha == p.beta > Fraction(-1, 2),
            lambda p, m, n: dougall_coefficient(p.alpha, m, n),
        ),
    },
    "jacobi-plus": {
        "gasper": (_always, lambda p, m, n: _companion(p, m, n)),
        "brute": (_always, lambda p, m, n: linearize_bruteforce(plus_params(p), m, n)),
    },
    "gencheb": {
        "gasper": (_always, lambda p, m, n: linearize_gencheb(p, m, n)),
        "brute": (_always, _brute(FAMILY_GENCHEB)),
    },
}


def _cmd_linearize(p, ns):
    applies, route = METHODS[ns.family].get(ns.method, (None, None))
    if applies is None or not applies(p, ns.m, ns.n):
        raise ValueError(
            f"method {ns.method} does not apply to the {ns.family} family at "
            f"alpha={p.alpha}, beta={p.beta}, m={ns.m}, n={ns.n}"
        )
    m, n = min(ns.m, ns.n), max(ns.m, ns.n)
    vals = _entries(route(p, m, n))
    if None in vals:
        raise SingularSeriesError(
            f"the {ns.method} series is singular at k={n - m + vals.index(None)}; "
            "boundary limit required"
        )
    if sum(vals) != 1:
        raise internal_error(p, ns.method, "coefficients do not sum to 1", m=m, n=n)
    coeffs = list(enumerate(vals, start=n - m))
    rows = [
        {"m": m, "n": n, "k": k, "num": v.numerator, "den": v.denominator,
         "approx": fmt_approx(v)}
        for k, v in coeffs
    ]
    payload = {
        "family": ns.family,
        "method": ns.method,
        "m": m,
        "n": n,
        "coefficients": rows,
    }
    if ns.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["m", "n", "k", "value_num", "value_den", "approx"])
        writer.writerows(r.values() for r in rows)
        # Each line keeps the "\r" of csv's "\r\n"; printing it adds the "\n".
        lines = buf.getvalue().split("\n")[:-1]
    else:
        lines = [
            f"{ns.family} linearization, method {ns.method}, "
            f"m={m} n={n}, alpha={ns.alpha} beta={ns.beta}",
            *(f"k={k}: {v} (approx {fmt_approx(v)})" for k, v in coeffs),
        ]
    return payload, None, lines, 0


# ---------------------------------------------------------------- compare


def _cmd_compare(p, ns):
    region = classify_region(p)
    checked = set()
    mismatches = []
    entries = 0
    skipped = 0
    for n in range(ns.max_degree + 1):
        for m in range(n + 1):
            for family, routes in METHODS.items():
                (_, (_, reference)), *others = routes.items()
                ref = reference(p, m, n)
                for method, (applies, route) in others:
                    if not applies(p, m, n):
                        continue
                    got = route(p, m, n)
                    checked.add(method)
                    entries += 2 * m + 1
                    if got == ref:  # both in lowest terms: every entry agrees
                        continue
                    pairs = zip(_entries(ref), _entries(got), strict=True)
                    for k, (want, value) in enumerate(pairs, start=n - m):
                        if value is None:
                            skipped += 1
                        elif value != want:
                            mismatches.append([family, m, n, f"{method} k={k}"])
    # Each family's reference, then every method that checked an entry.
    methods = list(dict.fromkeys(
        method
        for routes in METHODS.values()
        for i, method in enumerate(routes)
        if i == 0 or method in checked
    ))
    agree = not mismatches
    payload = {
        "max_degree": ns.max_degree,
        "region": region.label.value,
        "methods": methods,
        "entries_checked": entries,
        "entries_skipped_singular": skipped,
        "mismatches": mismatches,
    }
    lines = [
        f"compared methods {methods} up to degree {ns.max_degree}: "
        f"{entries} entries, {skipped} skipped (singular closed form)",
        *(["all methods agree exactly"] if agree else []),
        *(f"MISMATCH {family} m={m} n={n}: {what}" for family, m, n, what in mismatches),
    ]
    return payload, "agree" if agree else "disagree", lines, 0 if agree else 1


# ---------------------------------------------------------------- scan


_CHECK_TO_MODE = {mode.rpartition("_")[2]: mode for mode in SCAN_MODES}


def _cmd_scan(p, ns):
    mode = _CHECK_TO_MODE[ns.check]
    rep = scan_sign_pattern(p, ns.max_degree, mode)
    payload = {
        "mode": mode,
        "max_degree": ns.max_degree,
        "verdict": rep.verdict,
        "min_value": str(rep.min_value),
        "min_value_approx": fmt_approx(rep.min_value),
        "witness": list(rep.witness) if rep.witness else None,
        "witness_value": str(rep.witness_value) if rep.witness_value is not None else None,
    }
    lines = [
        f"mode: {mode}   degrees scanned: 0..{ns.max_degree}",
        f"min value: {rep.min_value} (approx {fmt_approx(rep.min_value)})",
        "violation at ({},{},{}) value {}".format(*rep.witness, rep.witness_value)
        if rep.verdict == VERDICT_VIOLATION else f"verdict: {rep.verdict}",
    ]
    if ns.check == "strict":  # a zero in the support fails strict, too
        return payload, rep.verdict, lines, 0 if rep.verdict == VERDICT_ALL_POSITIVE else 1
    return payload, rep.verdict, lines, 1 if rep.verdict == VERDICT_VIOLATION else 0


# ---------------------------------------------------------------- verify


def _pq_check(p, m, s):
    good = all(pq_inequality_check(p, m, s))
    return good, f"chained inequality {'holds' if good else 'FAILS'}"


def _phi_check(p, m, s):
    good = phi_sequence(p, m, s).alternation_holds()
    return good, f"alternation {'holds' if good else 'FAILS'}"


def _recursion_check(p, m, s):
    """theta g(s+j+1) = iota g(s+j) + kappa g(s+j-1) for j = 1 .. 2m-1, on
    the weights T, I, K of `_recursion_weights` (over their nonzero
    denominator, which cancels) and the vector's numerators (over its
    positive denominator, which cancels too)."""
    if m < 1 or s < 0:
        raise ValueError("need m >= 1 and s >= 0")
    g = linearize_jacobi(p, m, m + s).nums
    one, a, b = p.over_lcm_ab
    good = True
    for j in range(1, 2 * m):
        theta, iota, kappa, _ = _recursion_weights(one, a, b, m, s, j * one)
        if theta * g[j + 1] != iota * g[j] + kappa * g[j - 1]:
            good = False
    return good, f"recursion identity {'holds' if good else 'FAILS'}"


def _nec_check(p, m, s):
    first, second = necessity_identity_values(p, m, s)
    good = first[0] == first[1] and (second is None or second[0] == second[1])
    note = " (second skipped: b = 1)" if second is None else ""
    return good, f"identities {'hold' if good else 'FAIL'}{note}"


def _verify_iota(p, ms, ss, details):
    counts = {(m, s): iota_zero_count(p, m, s) for m in ms for s in ss}
    if None in counts.values():  # b = 0
        details.append("b = 0: iota vanishes identically (degenerate); nothing to count")
        return True
    details.extend(f"m={m} s={s}: {c} zero(s)" for (m, s), c in counts.items())
    if classify_region(p).above_iota_threshold:
        details.append("above threshold: expected at most one zero each")
        return all(c <= 1 for c in counts.values())
    details.append("below threshold: expected some count >= 2 in range")
    return any(c >= 2 for c in counts.values())


# property -> (default m list, check(p, m, s) -> (holds, detail)); iota-zeros
# judges all (m, s) together, in _verify_iota.  The default s list is 0..3.
_PROPERTIES = {
    "pq-inequality": ([2, 3, 4], _pq_check),
    "phi-alternation": ([1, 2, 3, 4], _phi_check),
    "iota-zeros": ([1, 2, 3, 4, 5], None),
    "recursion-consistency": ([1, 2, 3, 4, 5], _recursion_check),
    "nec-identities": ([1, 2, 3, 4], _nec_check),
}


def _cmd_verify(p, ns):
    default_ms, check = _PROPERTIES[ns.property]
    ms = [ns.m] if ns.m is not None else default_ms
    ss = [ns.s] if ns.s is not None else [0, 1, 2, 3]
    details: list[str] = []
    payload = {"property": ns.property, "details": details}
    try:
        if check is None:
            ok = _verify_iota(p, ms, ss, details)
        else:
            ok = True
            for m in ms:
                for s in ss:
                    good, detail = check(p, m, s)
                    ok = ok and good
                    details.append(f"m={m} s={s}: {detail}")
        payload["verdict"], code = ("pass", 0) if ok else ("fail", 1)
        outcome = payload["verdict"].upper()
    except NotApplicableError as exc:
        payload.update(verdict="not_applicable", reason=str(exc))
        code, outcome = 3, f"NOT APPLICABLE ({exc})"
    lines = [
        f"property {ns.property} at alpha={ns.alpha} beta={ns.beta}",
        *("  " + line for line in details),
        f"{ns.property}: {outcome}",
    ]
    return payload, payload["verdict"], lines, code


# ---------------------------------------------------------------- witness


def _cmd_witness(p, ns):
    w = find_negativity_witness(p, ns.max_degree)
    payload = {
        "max_degree": ns.max_degree,
        "witness": list(w[:3]) if w else None,
        "value": str(w[3]) if w else None,
    }
    if w:
        m, n, k, v = w
        line = (f"negative coefficient: gencheb (m={m}, n={n}, k={k}) value {v} "
                f"(approx {fmt_approx(v)})")
    else:
        line = f"no negative coefficient found in the guided families up to degree {ns.max_degree}"
    return payload, "found" if w else "none", [line], 1 if w else 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacobilin",
        description="Exact linearization coefficients for Jacobi and generalized "
        "Chebyshev polynomials, with region classification and sign scans.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, summary):
        sp = sub.add_parser(name, help=summary)
        sp.add_argument("--alpha", type=_rational, required=True)
        sp.add_argument("--beta", type=_rational, required=True)
        return sp

    command("classify", "exact region membership of a parameter point")

    sp = command("linearize", "one product expansion, all methods")
    sp.add_argument("--family", choices=list(METHODS), default="jacobi")
    sp.add_argument("--m", type=_natural, required=True)
    sp.add_argument("--n", type=_natural, required=True)
    sp.add_argument("--method", default="gasper",
                    choices=list(dict.fromkeys(m for routes in METHODS.values() for m in routes)))
    sp.add_argument("--format", choices=["text", "json", "csv"], default="text")

    sp = command("compare", "cross-check all applicable methods")
    sp.add_argument("--max-degree", type=_natural, required=True)

    sp = command("scan", "exhaustive sign scan of a coefficient family")
    sp.add_argument("--check", choices=sorted(_CHECK_TO_MODE), required=True)
    sp.add_argument("--max-degree", type=_natural, required=True)

    sp = command("verify", "verify a structural property at one point")
    sp.add_argument("--property", choices=sorted(_PROPERTIES), required=True)
    sp.add_argument("--m", type=_natural, default=None)
    sp.add_argument("--s", type=_natural, default=None)

    sp = command("witness", "search the guided families for a negative entry")
    sp.add_argument("--max-degree", type=_natural, required=True)

    # Last in each usage line; sets `format` as linearize's --format json does.
    for name, sp in sub.choices.items():
        if name != "linearize":
            sp.add_argument("--json", action="store_const", const="json", dest="format")
    return parser


# Built on the first run_command call.  A plain global, not a functools
# cache: cold-cache runs clear every functools cache, and the parser holds no
# computed result.
_parser: argparse.ArgumentParser | None = None


# Exact values can pass Python's cap on int <-> str conversion (4,300 digits by
# default), so run_command lifts it for one invocation; older builds have none.
_get_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_int_max_str_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def run_command(argv: list[str]) -> int:
    """Run one invocation.  The parser is built on the first call and reused;
    the subcommand's `_cmd_<name>` is looked up by name at each call."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    digit_cap = _get_int_max_str_digits()
    _set_int_max_str_digits(0)
    try:
        try:
            ns = _parser.parse_args(_merge_value_options(list(argv)))
        except SystemExit as exc:
            code = exc.code
            return code if isinstance(code, int) else 2
        try:
            p = make_params(ns.alpha, ns.beta)
            payload, verdict, lines, code = globals()[f"_cmd_{ns.subcommand}"](p, ns)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception as exc:
            print(f"internal error: {str(exc).removeprefix('internal: ')}", file=sys.stderr)
            return 4
        if ns.format == "json":
            record = {
                "command": ns.subcommand,
                "params": {"alpha": str(ns.alpha), "beta": str(ns.beta)},
                "payload": payload,
            }
            if verdict is not None:
                record["verdict"] = verdict
            lines = [json.dumps(record, ensure_ascii=False, indent=2)]
        for line in lines:
            print(line)
        return code
    finally:
        _set_int_max_str_digits(digit_cap)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
