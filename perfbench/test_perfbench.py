#!/usr/bin/env python3
"""Tests of the benchmark harness itself, on a tiny cohort.

    python3 perfbench/test_perfbench.py

Builds the harness through run.py, then checks that a tiny run of every
workload prints every metric BENCHMARK.json names with its unit, that the
traced run writes spans with parent ids, that the correctness gate fires
on a corrupted weight, that the seed alone determines the inputs, and
that KGWAS_* variables are refused.
"""
import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    MANIFEST = json.load(f)
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
TRACE_DIR = os.path.join(run.ROOT, ".bench_build", "test_out")


def harness(workload, trace, *extra, seed=7, env=None):
    """Runs the harness on the tiny cohort; returns (exit code, result or None)."""
    cmd = [run.BINARY, "--workload", workload, "--seed", str(seed), "--seconds", "0.3",
           "--trace", str(trace), "--tiny", "--trace-dir", TRACE_DIR, *extra]
    out = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=120, env=env)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return out.returncode, result


class HarnessTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertEqual({m["name"]: m["unit"] for m in declared},
                         {name: m["unit"] for name, m in result["metrics"].items()})
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_every_workload_prints_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = harness(workload, 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(result, MANIFEST["end_to_end"])
                for name, m in result["metrics"].items():
                    self.assertGreater(m["value"], 0, name)

    def test_traced_run_prints_every_per_layer_metric_and_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = harness(workload, 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, MANIFEST["per_layer"])
                with open(os.path.join(TRACE_DIR, f"trace_{workload}_seed7.json")) as f:
                    trace = json.load(f)
                spans = trace["otherData"]["bench_spans"]
                ids = {s["id"] for s in spans}
                names = {s["name"] for s in spans}
                self.assertTrue({"pipeline", "fit", "krr.build", "linalg.potrf",
                                 "krr.predict_gemm"} <= names)
                for s in spans:
                    self.assertTrue(s["parent"] == 0 or s["parent"] in ids, s)
                    self.assertLessEqual(s["start_ns"], s["end_ns"], s)
                wire = result["metrics"]["dist.wire_mb"]["value"]
                self.assertEqual(wire > 0, workload.startswith("dist"))

    def test_gate_fires_on_a_corrupted_weight(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = harness(workload, 0, "--corrupt-weight")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])

    def test_gate_fires_on_a_corrupted_traced_weight(self):
        code, result = harness(WORKLOADS[0], 1, "--corrupt-weight")
        self.assertNotEqual(code, 0)
        self.assertFalse(result["correct"])

    def test_seed_alone_determines_the_inputs(self):
        def mspe(seed):
            code, result = harness(WORKLOADS[0], 0, seed=seed)
            self.assertEqual(code, 0)
            return result["metrics"]["mspe"]["value"]
        self.assertEqual(mspe(3), mspe(3))
        self.assertNotEqual(mspe(3), mspe(4))

    def test_refuses_kgwas_environment(self):
        env = dict(os.environ, KGWAS_MAX_BATCH="4")
        code, result = harness(WORKLOADS[0], 0, env=env)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
