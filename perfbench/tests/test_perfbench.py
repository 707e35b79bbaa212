#!/usr/bin/env python3
"""Tests of the repository benchmark itself.

    python3 perfbench/tests/test_perfbench.py

Builds the benchmark (as perfbench/run.py does) and checks: the C++
self-test (quartiles against Python's statistics.quantiles, the tail rule,
seed determinism, the result checks), a seconds-long smoke run of every
workload against BENCHMARK.json, seed determinism end to end, one traced
run, and that the benchmark refuses to run without the library sources.
"""

import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
RUN = [sys.executable, str(PERFBENCH / "run.py")]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def run_workload(workload, seed, trace=0, seconds=1):
    p = run("--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace))
    if p.returncode != 0:
        raise AssertionError(f"{workload} exited {p.returncode}:\n{p.stderr[-2000:]}")
    return p.stdout, json.loads(p.stdout.strip().splitlines()[-1])


def digest(stdout):
    return next(l for l in stdout.splitlines() if l.startswith("inputs: digest="))


class PerfbenchTest(unittest.TestCase):
    def check_result(self, res, metrics):
        self.assertEqual(set(res), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(list(res["metrics"]), [m["name"] for m in metrics])
        for m in metrics:
            got = res["metrics"][m["name"]]
            self.assertEqual(set(got), {"value", "unit"})
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_self_test(self):
        p = run("--self-test")
        self.assertEqual(p.returncode, 0, p.stdout + p.stderr)
        self.assertIn("self-test: 0 failure(s)", p.stdout)

    def test_quartile_constants_match_python(self):
        # The self-test's expected quartiles were taken from this function.
        self.assertEqual(statistics.quantiles(range(1, 11), n=4), [2.75, 5.5, 8.25])
        self.assertEqual(statistics.quantiles([3.5, 1.25, 9.0, 4.75, 2.0], n=4),
                         [1.625, 3.5, 6.875])
        self.assertEqual(statistics.quantiles([10.0, 20.0], n=4), [7.5, 15.0, 22.5])
        self.assertEqual(statistics.quantiles([5, 1, 4, 2, 3, 9, 7], n=4), [2.0, 4.0, 7.0])

    def test_smoke_every_workload(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                stdout, res = run_workload(workload, seed=1)
                self.check_result(res, BENCH["end_to_end"])
                for m in BENCH["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0.0, m["name"])
                self.assertIn("e2e latency_tail_ms", stdout)

    def test_seed_determinism(self):
        a, _ = run_workload("served-mixed", seed=5)
        b, _ = run_workload("served-mixed", seed=5)
        c, _ = run_workload("served-mixed", seed=6)
        self.assertEqual(digest(a), digest(b))
        self.assertNotEqual(digest(a), digest(c))

    def test_traced_run(self):
        stdout, res = run_workload("served-mixed", seed=2, trace=1)
        self.check_result(res, BENCH["per_layer"])
        self.assertIn("reconcile: serial replay spans", stdout)
        trace = json.loads((ROOT / ".bench_out" / "served-mixed-seed2.trace.json").read_text())
        self.assertTrue(trace["spans"])
        self.assertEqual(set(trace["ledger"]), {m["name"] for m in BENCH["per_layer"]})

    def test_refuses_without_sources(self):
        build_root = ROOT / ".bench_build"
        build_root.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=build_root) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(PERFBENCH, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                                "square-standard", "--seed", "1", "--seconds", "1",
                                "--trace", "0"], cwd=tmp, capture_output=True, text=True,
                               timeout=180)
            self.assertNotEqual(p.returncode, 0)
            self.assertNotIn('"correct"', p.stdout)


if __name__ == "__main__":
    unittest.main(verbosity=2)
