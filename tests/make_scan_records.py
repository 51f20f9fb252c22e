"""Recorded `jacobilin scan` results at two tall points, to degree 20.

For each point and each `--check` in nonneg, strict, all, odd and
oscillation, `data/scan_records.json` holds the exit code and the verdict,
min_value, witness and witness_value that

    jacobilin scan --alpha A --beta B --check C --max-degree 20 --json

prints.  The points are the rational point (-346/1057, -1333/1661) on the
boundary of V and (29/12, 39/16), far outside V'.  Their entries to degree
20 have numerators or denominators of up to 500 and 435 bits, past the 429
of the golden grid of `bench/`.  CI replays every invocation and requires
the recorded fields.

Regenerate only when outputs are meant to change:

    PYTHONPATH=src python tests/make_scan_records.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from jacobilin.cli import run_command

MAX_DEGREE = 20
POINTS = (("-346/1057", "-1333/1661"), ("29/12", "39/16"))
CHECKS = ("nonneg", "strict", "all", "odd", "oscillation")
FIELDS = ("verdict", "min_value", "witness", "witness_value")
RECORD_FILE = Path(__file__).resolve().parent / "data" / "scan_records.json"


def record_key(alpha: str, beta: str, check: str) -> str:
    return f"{alpha}|{beta}|{check}"


def scan_record(alpha: str, beta: str, check: str) -> dict:
    argv = ["scan", "--alpha", alpha, "--beta", beta, "--check", check,
            "--max-degree", str(MAX_DEGREE), "--json"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command(argv)
    payload = json.loads(out.getvalue())["payload"]
    return {"exit": code, **{name: payload[name] for name in FIELDS}}


def main() -> int:
    records = {
        record_key(alpha, beta, check): scan_record(alpha, beta, check)
        for alpha, beta in POINTS
        for check in CHECKS
    }
    RECORD_FILE.parent.mkdir(exist_ok=True)
    record = {"max_degree": MAX_DEGREE, "records": records}
    RECORD_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} scan records to {RECORD_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
