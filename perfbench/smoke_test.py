"""Smoke test of the benchmark: every workload at tiny size, in both modes.

    python3 perfbench/smoke_test.py

Takes about a minute.  It checks that each run names every metric of
BENCHMARK.json with its unit and fails no op, that a corrupted digest is
counted as a failure, and that the benchmark refuses to run without the
library's source tree.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TINY_OPS = {"campaign": 8, "ladder": 2, "cli-wide": 6}


def run_benchmark(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
         "--trace", str(trace), "--ops", str(TINY_OPS[workload])],
        cwd=root, capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def test_every_metric_with_its_unit_and_no_failures(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        for workload in TINY_OPS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    proc = run_benchmark(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    lines = proc.stdout.splitlines()
                    result = json.loads(lines[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["attempted"], TINY_OPS[workload])
                    self.assertEqual(json.loads(lines[0])["details"]["failed_frac"], 0)
                    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
                    self.assertEqual(units, {m["name"]: m["unit"] for m in spec[section]})

    def test_corrupted_digest_counts_as_failure(self):
        sys.path.insert(0, str(HERE))
        import worker
        import workloads as wl

        digests = wl.load_digests()
        workload = wl.Ladder(1)
        first = next(wl.ladder_blocks(1))[0]
        digests["ladder"][wl.ladder_key(first["r"], first["m"])] = "0" * 16
        result = worker.run_ops(workload, digests, 0, 2, None, False)
        self.assertEqual(len(result["latencies"]), 2)
        self.assertEqual(len(result["host_factors"]), 2)
        self.assertEqual(result["failed"], [0])

    def test_refuses_to_run_without_the_source_tree(self):
        bare = HERE / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = run_benchmark("ladder", 0, root=bare)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
