"""Benchmark of the jacobilin package: one command, three workloads.

    python3 bench/run.py --workload scan|sweep|audit --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is imported from its src/.
With --trace 0 nothing is wrapped: the run times closed-loop ops in whole
passes for about S seconds and prints the end-to-end metrics.  Op times are
reported in "ref", the median time of a fixed stdlib Fraction kernel run
before every op, because the speed of a shared machine drifts by more than
the bounds between runs while the ratio stays steady.  With --trace 1
the run makes one untraced reference pass, then repeats it with every layer
wrapped (see layers.py), requires bit-identical outputs, and prints the
per-layer metrics.  Every output is checked for exactness (see workloads.py).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units are those of
BENCHMARK.json.  Environment, work descriptors, per-op latencies and failure
reasons go to .bench_out/<workload>-seed<N>-trace<T>.json, and the spans of a
traced run to .bench_out/<workload>-seed<N>-spans.csv.gz.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Set-up probes before and again after the timed passes, so that their median
# spans the run rather than one moment of a machine whose speed drifts.
SETUP_PROBES = 4
# Tail percentiles, highest first; the reported one is the highest with at
# least ten ops of one pass beyond it, so it does not move when a faster
# commit fits more passes into the same seconds.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SETUP_PROBE = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; "
    "import jacobilin.cli, workloads; workloads.make_workload({workload!r}, {seed}, {smoke})"
)


def import_program() -> None:
    if not (SRC / "jacobilin" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'jacobilin'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import jacobilin

    if Path(jacobilin.__file__).resolve().parent != SRC / "jacobilin":
        sys.exit(f"error: imported jacobilin from {jacobilin.__file__}, not from {SRC}")


def setup_probes(workload: str, seed: int, smoke: bool, count: int) -> list[float]:
    """Wall times of fresh interpreters that import jacobilin.cli and generate
    the run's inputs.  No timeout: waiting with one polls in steps of up to
    50 ms."""
    code = SETUP_PROBE.format(
        src=str(SRC), bench=str(BENCH), workload=workload, seed=seed, smoke=smoke
    )
    times = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", code], check=True, cwd=ROOT,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def reference_kernel() -> None:
    """The unit of the *_ref metrics: fixed big-integer Fraction arithmetic
    that does not touch the program (about 25 ms on a 2-core x86 VM)."""
    x = Fraction(0)
    for i in range(1, 1200):
        x += Fraction(i, i * i + 1) * Fraction(2 * i + 1, 3 * i + 2)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def current_rss_kb() -> int:
    """Resident set size now (Linux); the high-water mark elsewhere."""
    try:
        with open("/proc/self/statm", encoding="ascii") as fh:
            pages = int(fh.read().split()[1])
    except OSError:
        return peak_rss_kb()
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
            capture_output=True, text=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


class OpResult:
    __slots__ = ("op", "output", "ns", "error", "ref_ns")

    def __init__(self, op, output, ns, error, ref_ns):
        self.op, self.output, self.ns, self.error = op, output, ns, error
        self.ref_ns = ref_ns


def run_pass(workload, ops, caches, stats, descriptors, tracer=None):
    """Run the ops of one pass in order.  Cold workloads start every timed
    section on empty caches; cache_info() is recorded before each clear."""
    import layers

    def prepare():
        if workload.cold:
            stats.record(caches)
            layers.clear_caches(caches)
            layers.assert_cold(caches)
        gc.collect()

    results = []
    for index, op in enumerate(ops):
        t0 = time.perf_counter_ns()
        reference_kernel()
        ref_ns = time.perf_counter_ns() - t0
        if workload.cold:
            layers.clear_caches(caches)
        if tracer is not None:
            tracer.op_id, tracer.active = index, True
        error = None
        try:
            try:
                output, ns = op.run(prepare)
            finally:
                if tracer is not None:
                    tracer.active = False
            if workload.cold:
                stats.record(caches)
            if op.key not in descriptors:
                descriptors[op.key] = workload.describe(op, output)
        except layers.ColdCacheError:
            raise
        except Exception as exc:  # a failed op is counted, and the run goes on
            output, ns, error = None, 0, f"{type(exc).__name__}: {exc}"
        results.append(OpResult(op, output, ns, error, ref_ns))
    if not workload.cold:
        stats.record(caches)
    return results


def tail_percentile(ops_per_pass: int) -> float:
    for q in TAIL_LADDER:
        if ops_per_pass * (100.0 - q) / 100.0 >= 10:
            return q
    return 100.0  # fewer than 20 ops: report the slowest


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def pass_descriptor(results, descriptors) -> dict:
    import workloads

    total = workloads.add_descriptors(
        descriptors[r.op.key] for r in results if r.op.key in descriptors
    )
    return {
        "out.coeffs": total.coeffs,
        "out.height_bits_max": total.height_bits_max,
        "out.bits_total": total.bits_total,
    }


def layer_counts(workload, results) -> dict[str, int]:
    counts: dict[str, int] = {}
    for r in results:
        if r.error is None:
            for name, n in workload.layer_counts(r.output).items():
                counts[name] = counts.get(name, 0) + n
    return counts


def check_results(workload, results) -> list[str]:
    failures = []
    for r in results:
        reason = r.error if r.error is not None else workload.check(r.op, r.output)
        if reason is not None:
            failures.append(f"{r.op.key}: {reason}")
    return failures


def measure(workload, caches, seconds: float, descriptors, baseline_kb: int) -> tuple[dict, dict]:
    """Whole passes for about `seconds`; peak RSS is read after the first pass
    and reported above `baseline_kb`."""
    import layers

    stats = layers.CacheStats()
    passes, start = [], time.perf_counter()
    while True:
        passes.append(run_pass(workload, workload.pass_ops(len(passes)), caches, stats, descriptors))
        if len(passes) == 1:
            pass_peak_kb = peak_rss_kb()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
    results = [r for p in passes for r in p]
    failures = check_results(workload, results)
    good = [r for r in results if r.error is None]
    latencies = sorted(r.ns / 1e6 for r in good)
    op_seconds = sum(r.ns for r in good) / 1e9
    coeffs = sum(descriptors[r.op.key].coeffs for r in good)
    q = tail_percentile(len(passes[0]))
    ref_ms = statistics.median(r.ref_ns for r in results) / 1e6
    raw = {
        "op_p50_ms": statistics.median(latencies) if latencies else float("nan"),
        "op_tail_ms": percentile(latencies, q) if latencies else float("nan"),
        "coeffs_per_s": coeffs / op_seconds if op_seconds else 0.0,
    }
    metrics = {
        "op_p50_ref": raw["op_p50_ms"] / ref_ms,
        "op_tail_ref": raw["op_tail_ms"] / ref_ms,
        "coeffs_per_ref": raw["coeffs_per_s"] * ref_ms / 1e3,
        "peak_rss_mb": (pass_peak_kb - baseline_kb) / 1024.0,
    }
    details = {
        "passes": len(passes),
        "ops_per_pass": len(passes[0]),
        "attempted": len(results),
        "failed": len(failures),
        "fail_ratio": len(failures) / len(results),
        "failures": failures[:50],
        "tail_percentile": q,
        "tail_op_count": len(latencies),
        "measured_s": time.perf_counter() - start,
        "ref_ms": ref_ms,
        "raw_metrics": raw,
        "descriptors": pass_descriptor(passes[0], descriptors),
        "cache_stats": stats.as_dict(),
        "layer_counts": layer_counts(workload, results),
        "latencies_ms": [[r.op.key, r.ns / 1e6] for r in results],
    }
    return metrics, details


def measure_traced(workload, caches, descriptors, spans_path) -> tuple[dict, dict]:
    import layers
    import spans

    ops = workload.pass_ops(0)
    reference = run_pass(workload, ops, caches, layers.CacheStats(), descriptors)
    if not workload.cold:
        layers.clear_caches(caches)  # the traced pass repeats the reference work
    tracer = spans.Tracer()
    stats = layers.CacheStats()
    layers.install(tracer)
    try:
        traced = run_pass(workload, ops, caches, stats, descriptors, tracer)
    finally:
        tracer.unpatch()
    failures = check_results(workload, reference)
    for ref, tr in zip(reference, traced):
        if tr.error is not None or ref.error is not None or tr.output != ref.output:
            failures.append(f"{tr.op.key}: traced output differs from the untraced one")
    metrics = layers.layer_metrics(tracer, stats, layer_counts(workload, traced))
    descriptor = pass_descriptor(traced, descriptors)
    metrics.update(descriptor)
    untraced_ns = sum(r.ns for r in reference)
    metrics["trace.overhead_ratio"] = sum(r.ns for r in traced) / untraced_ns if untraced_ns else 0.0
    tracer.write(spans_path)
    attempted = len(reference) + len(traced)
    details = {
        "passes": 1,
        "ops_per_pass": len(ops),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:50],
        "descriptors": descriptor,
        "span_count": tracer.span_count,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "cache_stats": stats.as_dict(),
    }
    return metrics, details


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("scan", "sweep", "audit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="a few ops per pass, for the benchmark's self-tests")
    args = parser.parse_args(argv)

    import_program()
    gc.collect()
    baseline_kb = current_rss_kb()  # after import, before inputs and ops
    sys.path.insert(0, str(BENCH))
    import layers
    import workloads

    declared = declared_metrics(bool(args.trace))
    if not args.trace:  # the first probe only warms the file cache
        probes = setup_probes(args.workload, args.seed, args.smoke, SETUP_PROBES + 1)[1:]
    workload = workloads.make_workload(args.workload, args.seed, args.smoke)
    caches = layers.find_caches()
    layers.clear_caches(caches)
    layers.assert_cold(caches)
    descriptors = {}
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-smoke" if args.smoke else "")
    if args.trace:
        metrics, details = measure_traced(
            workload, caches, descriptors, OUT_DIR / f"{stem}-spans.csv.gz"
        )
    else:
        metrics, details = measure(workload, caches, args.seconds, descriptors, baseline_kb)
        probes += setup_probes(args.workload, args.seed, args.smoke, SETUP_PROBES)
        metrics["setup_s"] = statistics.median(probes)
        details["setup_probes_s"] = probes

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "seconds": args.seconds,
        "env": environment(),
        "caches": sorted(caches),
        "metrics": metrics,
        **details,
    }
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")

    print(
        f"{args.workload} seed={args.seed} trace={args.trace} passes={details['passes']} "
        f"ops/pass={details['ops_per_pass']} attempted={details['attempted']} "
        f"failed={details['failed']} fail_ratio={details['fail_ratio']:.4g} "
        + (f"tail=p{details['tail_percentile']:g} of {details['tail_op_count']} ops "
           if not args.trace else "")
        + " ".join(f"{k}={v}" for k, v in details["descriptors"].items())
    )
    for failure in details["failures"][:10]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": details["failed"] == 0,
        "attempted": details["attempted"],
        "failed": details["failed"],
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
