"""Self-tests of the benchmark itself (stdlib unittest, about a minute).

    python3 bench/selftest.py

They check that a smoke-sized run of every workload prints every metric named
in BENCHMARK.json with its unit; that a planted wrong golden value or a wrong
vector makes ops fail; that a cache left warm fails the cold-cache assertion;
and that the benchmark refuses to run without the program's sources.
"""

import copy
import functools
import json
import shutil
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from jacobilin import gencheb, jacobi, params  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


class SmokeRuns(unittest.TestCase):
    def test_every_declared_metric_is_emitted_with_its_unit(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    done = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                                     "--trace", trace, "--smoke")
                    self.assertEqual(done.returncode, 0, done.stderr)
                    result = json.loads(done.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(
                        {name: m["unit"] for name, m in result["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared},
                    )
                    for name, m in result["metrics"].items():
                        self.assertIsInstance(m["value"], (int, float), name)

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            done = run_bench("--workload", "scan", "--seed", "1", "--seconds", "1",
                             "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"correct"', done.stdout)


class PlantedFailures(unittest.TestCase):
    def setUp(self):
        self.caches = layers.find_caches()

    def measure(self, workload):
        _metrics, details = run.measure(workload, self.caches, 0.0, {}, run.current_rss_kb())
        return details

    def test_wrong_scan_golden_value_raises_fail_ratio(self):
        workload = workloads.make_workload("scan", 3, smoke=True)
        self.assertEqual(self.measure(workload)["fail_ratio"], 0)
        golden = copy.deepcopy(workload._golden)
        key = workload.pass_ops(0)[0].key
        golden["results"][key]["min_value"] = "12345/678"
        workload = workloads.make_workload("scan", 3, smoke=True)
        workload._golden = golden
        details = self.measure(workload)
        self.assertGreater(details["fail_ratio"], 0)
        self.assertIn(key, details["failures"][0])

    def test_wrong_audit_golden_record_raises_fail_ratio(self):
        workload = workloads.make_workload("audit", 3, smoke=True)
        key = workload.pass_ops(0)[0].key
        workload._golden = copy.deepcopy(workloads.load_golden("audit")["results"])
        compare = workload._golden[key]["expect"][1]
        compare["record"]["payload"]["entries_checked"] += 1
        details = self.measure(workload)
        self.assertGreater(details["fail_ratio"], 0)

    def test_wrong_sweep_vector_fails_the_oracle(self):
        workload = workloads.make_workload("sweep", 3, smoke=True)
        op = workload.pass_ops(0)[0]
        workload.sampled[op.key] = 0
        output, _ns = op.run(lambda: None)
        self.assertIsNone(workload.check(op, output))
        label, vectors = output
        bad = (tuple(v + (i == 0) for i, v in enumerate(vectors[0])),) + vectors[1:]
        self.assertIsNotNone(workload.check(op, (label, bad)))


class ColdCaches(unittest.TestCase):
    def test_warm_cache_fails_the_assertion(self):
        caches = layers.find_caches()
        for name in ("jacobi.linearize_jacobi", "gencheb.linearize_gencheb"):
            self.assertIn(name, caches)
        jacobi.linearize_jacobi(params.make_params(Fraction(1, 2), Fraction(1, 4)), 2, 3)
        with self.assertRaises(layers.ColdCacheError):
            layers.assert_cold(caches)
        layers.clear_caches(caches)
        layers.assert_cold(caches)

    def test_new_cache_is_found_and_one_that_stays_warm_stops_the_run(self):
        class StuckCache:
            """A cache whose clear does nothing."""

            def __init__(self):
                self.__module__, self.__qualname__ = "jacobilin.gencheb", "stuck"

            def cache_info(self):
                return functools._CacheInfo(0, 1, None, 1)

            def cache_clear(self):
                pass

        added = functools.lru_cache(maxsize=None)(lambda x: x)
        added(1)
        gencheb._selftest_added, gencheb._selftest_stuck = added, StuckCache()
        try:
            caches = layers.find_caches()
            self.assertIn(added, caches.values())
            workload = workloads.make_workload("scan", 3, smoke=True)
            with self.assertRaises(layers.ColdCacheError):
                run.run_pass(workload, workload.pass_ops(0), caches, layers.CacheStats(), {})
            self.assertEqual(added.cache_info().currsize, 0)
        finally:
            del gencheb._selftest_added, gencheb._selftest_stuck


if __name__ == "__main__":
    unittest.main()
