#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/test_perfbench.py

Runs every workload at the tiny size (short runs, one set-up) through
perfbench/run.py and checks that each reports every metric BENCHMARK.json
names, with its unit, and no failed op; then feeds the benchmark corrupted
expected outputs and checks that the ops are counted as failed instead of
crashing the run. Scratch files go to .bench_build/perfbench-test/.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SCRATCH = ROOT / ".bench_build" / "perfbench-test"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny",
         "--out-dir", str(SCRATCH)] + list(extra),
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("%s trace=%d exited %d:\n%s" % (
            workload, trace, proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check(self, trace, spec_key):
        wanted = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                res = run(workload, trace)
                self.assertEqual(set(res), {"correct", "attempted", "failed",
                                            "metrics"})
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                self.assertEqual(got, wanted)
                self.assertGreaterEqual(res["attempted"], 1)
                self.assertEqual(res["failed"], 0, "error_rate must be 0")
                self.assertTrue(res["correct"])

    def test_end_to_end_metrics_present_and_error_rate_zero(self):
        self.check(0, "end_to_end")

    def test_per_layer_metrics_present_and_error_rate_zero(self):
        self.check(1, "per_layer")


class CorruptedExpectations(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        SCRATCH.mkdir(parents=True, exist_ok=True)

    def assert_failed(self, res):
        self.assertGreater(res["failed"], 0, "error_rate must be > 0")
        self.assertFalse(res["correct"])

    def test_corrupted_golden_report_fails_fig06_ops(self):
        golden = ROOT / "tests" / "data" / "fig06_report_golden.json"
        bad = SCRATCH / "fig06_golden_corrupted.json"
        text = golden.read_text()
        bad.write_text(text.replace('"fig06"', '"fig07"', 1))
        self.assertNotEqual(bad.read_text(), text)
        self.assert_failed(run("fig06", 0, "--golden", str(bad)))

    def test_corrupted_digests_fail_many_task_and_dse_sweep_ops(self):
        expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
        for workload in ("many-task", "dse-sweep"):
            digest = expected[workload]["tiny"]
            expected[workload]["tiny"] = digest[:-1] + (
                "0" if digest[-1] != "0" else "1")
        bad = SCRATCH / "expected_corrupted.json"
        bad.write_text(json.dumps(expected))
        for workload in ("many-task", "dse-sweep"):
            with self.subTest(workload=workload):
                self.assert_failed(run(workload, 0, "--expected", str(bad)))


if __name__ == "__main__":
    try:
        unittest.main(verbosity=2)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
