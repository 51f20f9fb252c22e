"""Digests of the linearization vectors on the committed grid.

One sha256 per (grid point, family) over the canonical text of every
`linearize_jacobi` or `linearize_gencheb` vector with m <= n <= MAX_DEGREE:
one line "m n: v_0 v_1 ..." per product, each value as `str(Fraction)`, in
the order n = 0, 1, ... and m = 0 .. n.  `tests/test_vector_digests.py`
recomputes the digests and compares them with the committed file, so any
change to an exact coefficient on the grid fails tier-1.

Regenerate only when outputs are meant to change:

    PYTHONPATH=src python tests/make_vector_digests.py
"""

import hashlib
import json
import sys
from pathlib import Path

from conftest import GRID
from jacobilin import linearize_gencheb, linearize_jacobi, make_params

MAX_DEGREE = 12
DIGEST_FILE = Path(__file__).resolve().parent / "data" / "vector_digests.json"
FAMILIES = {"jacobi": linearize_jacobi, "gencheb": linearize_gencheb}


def point_key(alpha, beta, family: str) -> str:
    return f"{alpha}|{beta}|{family}"


def vector_digest(p, linearize, max_degree: int = MAX_DEGREE) -> str:
    h = hashlib.sha256()
    for n in range(max_degree + 1):
        for m in range(n + 1):
            values = " ".join(str(v) for v in linearize(p, m, n).values)
            h.update(f"{m} {n}: {values}\n".encode())
    return h.hexdigest()


def grid_digests() -> dict[str, str]:
    out = {}
    for alpha, beta in GRID:
        p = make_params(alpha, beta)
        for family, linearize in FAMILIES.items():
            out[point_key(alpha, beta, family)] = vector_digest(p, linearize)
    return out


def main() -> int:
    record = {"max_degree": MAX_DEGREE, "digests": grid_digests()}
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    DIGEST_FILE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(record['digests'])} digests to {DIGEST_FILE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
