"""Compare the untraced benchmark results of a parent and a changed commit.

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the <workload>-seed<N>-trace0.json files that run.py
wrote to .bench_out/ for one commit.  Runs are paired by workload and seed.
A pair whose environment (Python, core count) or work descriptors differ is
refused, because the two runs did different work.  For every workload and
end-to-end metric of BENCHMARK.json the script prints both medians and the
change as a share of the parent's median, against the metric's bound.

Exit status: 0 if no metric is worse than its bound, 1 if one is, 3 if the
runs cannot be paired.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_KEYS = ("python", "implementation", "machine", "nproc")


def load(directory: Path) -> dict:
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        with open(path, encoding="utf-8") as fh:
            run = json.load(fh)
        if not run.get("smoke"):
            runs[run["workload"], run["seed"]] = run
    return runs


def work_of(run: dict) -> dict:
    return {
        "env": {k: run["env"][k] for k in ENV_KEYS},
        "ops_per_pass": run["ops_per_pass"],
        **run["descriptors"],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (load(Path(a)) for a in argv)
    pairs = sorted(set(parent) & set(change))
    if not pairs:
        print("refused: no run of the same workload and seed on both sides", file=sys.stderr)
        return 3
    for key in pairs:
        if work_of(parent[key]) != work_of(change[key]):
            print(f"refused: {key[0]} seed {key[1]} did different work on the two sides:\n"
                  f"  parent {work_of(parent[key])}\n  change {work_of(change[key])}",
                  file=sys.stderr)
            return 3
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    worse = False
    print(f"{'workload':8} {'metric':14} {'parent':>12} {'change':>12} {'change':>8} {'bound':>6}  runs")
    for workload in sorted({w for w, _ in pairs}):
        keys = [k for k in pairs if k[0] == workload]
        for m in metrics:
            before = statistics.median(parent[k]["metrics"][m["name"]] for k in keys)
            after = statistics.median(change[k]["metrics"][m["name"]] for k in keys)
            share = (after - before) / before if before else float("inf")
            regress = share > m["bound"] if m["better"] == "lower" else -share > m["bound"]
            worse |= regress
            print(f"{workload:8} {m['name']:14} {before:12.5g} {after:12.5g} {share:+8.2%} "
                  f"{m['bound']:6.2f}  {len(keys)}{'  WORSE' if regress else ''}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
