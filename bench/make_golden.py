"""Regenerate bench/golden/*.json from the program in src/.

    python3 bench/make_golden.py

The scan golden file pins each op's verdict, minimum (with its position) and
witness; every minimum and witness entry is checked against the brute-force
oracle before it is written.  The audit golden file pins each CLI
invocation's exit code and JSON record, and requires every compare to agree.
Regenerate only when a change to the program's outputs is intended.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import workloads  # noqa: E402
from jacobilin import analysis, jacobi, params  # noqa: E402


def scan_golden() -> dict:
    degree = workloads.SCAN_DEGREE
    results = {}
    for al, be, cls in workloads.GRID:
        p = params.make_params(Fraction(al), Fraction(be))
        for mode in workloads.SCAN_MODES:
            rep = analysis.scan_sign_pattern(p, degree, mode)
            min_at = min(
                ((v, (m, n, k)) for m, n, k, v in workloads.scan_entries(p, degree, mode)),
                key=lambda t: t[0],
            )[1]
            family = jacobi.FAMILY_JACOBI if mode.startswith("jacobi") else jacobi.FAMILY_GENCHEB
            checks = [(min_at, rep.min_value)]
            if rep.witness is not None:
                checks.append((rep.witness, rep.witness_value))
            for (m, n, k), value in checks:
                if jacobi.linearize_bruteforce(p, m, n, family)[k] != value:
                    raise SystemExit(f"oracle disagrees at {al}, {be}, {mode}, {(m, n, k)}")
            results[f"{al}|{be}|{mode}"] = {
                "region_class": cls,
                "verdict": rep.verdict,
                "min_value": str(rep.min_value),
                "min_at": list(min_at),
                "witness": list(rep.witness) if rep.witness else None,
                "witness_value": None if rep.witness_value is None else str(rep.witness_value),
            }
    return {"degree": degree, "results": results}


def audit_golden() -> dict:
    caches = layers.find_caches()
    results = {}
    for al, be, cls in workloads.GRID:
        for tier in workloads.AUDIT_TIERS:
            argvs = workloads.audit_invocations(al, be, tier)
            op = workloads.AuditWorkload._runner(argvs)
            output, _ns = op(lambda: layers.clear_caches(caches))
            expect = []
            for argv, (code, out, err) in zip(argvs, output):
                if code == 2:
                    expect.append({"exit": 2, "stderr": err.strip()})
                    continue
                record = json.loads(out)
                if argv[0] == "compare" and (code, record["verdict"]) != (0, "agree"):
                    raise SystemExit(f"compare disagrees at {al}, {be}")
                expect.append({"exit": code, "record": record})
            results[f"{al}|{be}|{tier}"] = {"region_class": cls, "argv": argvs, "expect": expect}
    return {"results": results}


def main() -> None:
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name, build in (("scan", scan_golden), ("audit", audit_golden)):
        path = workloads.GOLDEN_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(build(), fh, ensure_ascii=False, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
