"""Self-test of the benchmark itself.

Run from the root of a checkout: ``python3 perfbench/selftest.py``. It makes
smoke-size runs of every workload, traced and untraced, and checks that each
emits exactly the metrics BENCHMARK.json names; checks that the benchmark
refuses to run without the library; and plants a wrong verdict in
``decide_global`` to check that the oracle counts it as a failure.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import unittest

import run
import tracer
import worker

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_emitted(self):
        for workload in (w["name"] for w in BENCHMARK["workloads"]):
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench(
                        "--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", str(trace), "--size", "smoke",
                    )
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: m["unit"] for name, m in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in BENCHMARK[kind]})

    def test_refuses_to_run_without_the_library(self):
        bare = run.OUT / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        self.addCleanup(shutil.rmtree, bare, True)
        shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", "decide-warm", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


class PlantedFault(unittest.TestCase):
    """A decide_global that flips the verdict of (n, k) = (2, 0)."""

    def setUp(self):
        sys.path.insert(0, str(run.SRC))
        self.addCleanup(sys.path.remove, str(run.SRC))
        import gaugetorsion.cli

        self.gt = gaugetorsion
        original = gaugetorsion.decide_global

        def flipped(n, k):
            result = original(n, k)
            if (n, k % n) == (2, 0):
                return dataclasses.replace(result, torsion_free=not result.torsion_free)
            return result

        for module, name in tracer.replace_everywhere(original, flipped):
            self.addCleanup(setattr, module, name, original)

    def test_warm_loop_reports_errors(self):
        cases = list(worker.warm_cases(self.gt, {"seed": 0, "n_max": 12, "per_n": 18}))
        result = worker.replay(cases, 0)
        self.assertGreater(result["failed"] / result["ops"], 0)

    def test_sweep_table_check_fails(self):
        self.assertFalse(worker.sweep_ok(self.gt, 10))


class SelfTime(unittest.TestCase):
    def test_recursion_and_children(self):
        # a(0..10) calls b(2..5), which calls a again (3..4).
        spans = [["x.a", -1, 0, 10, None], ["x.b", 0, 2, 5, None], ["x.a", 1, 3, 4, None]]
        names = tracer.summarize(spans)["names"]
        self.assertEqual(names["x.a"]["calls"], 2)
        self.assertEqual(names["x.a"]["busy_ns"], 10)
        self.assertEqual(names["x.a"]["self_ns"], 7 + 1)
        self.assertEqual(names["x.b"]["self_ns"], 2)


if __name__ == "__main__":
    unittest.main()
