#!/usr/bin/env python3
"""Self-tests of the benchmark's own helpers.

    python3 perfbench/test_benchlib.py        (from the checkout root)

The first group checks the pure helpers on known inputs; the second
builds perfbench_driver (like run.py) and checks, on short runs, that a
deliberately wrong output is counted and that the deterministic metrics
repeat exactly under one seed.
"""

import json
import re
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import benchlib  # noqa: E402
import run  # noqa: E402


class TailRule(unittest.TestCase):
    def test_hundred_samples_is_p90(self):
        value, pct, n = benchlib.tail(list(range(1, 101)))
        self.assertEqual((value, pct, n), (90, 90.0, 100))

    def test_exactly_ten_beyond(self):
        values = [float(v) for v in range(57)]
        value, _, _ = benchlib.tail(values)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [5, 1, 9, 3, 7, 2, 8, 6, 4, 0] * 3
        self.assertEqual(benchlib.tail(values), benchlib.tail(sorted(values)))

    def test_too_few_samples_fall_back_to_median(self):
        values = list(range(19))
        self.assertEqual(benchlib.tail(values), (9, 50.0, 19))

    def test_twenty_samples_is_p50(self):
        value, pct, _ = benchlib.tail(list(range(20)))
        self.assertEqual((value, pct), (9, 50.0))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.tail([])


class FailureAccounting(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(benchlib.failed_ratio(8, 0), 0.0)
        self.assertEqual(benchlib.failed_ratio(8, 2), 0.25)

    def test_failures_never_exceed_attempts(self):
        self.assertEqual(benchlib.failed_ratio(3, 5), 1.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            benchlib.failed_ratio(0, 0)

    def test_result_line_reports_incorrect(self):
        doc = {"failed": 1, "attempted": 4}
        line = benchlib.result_line(doc, {"x": "s"}, {"x": 1.5})
        self.assertEqual(line, {"correct": False, "attempted": 4,
                                "failed": 1,
                                "metrics": {"x": {"value": 1.5,
                                                  "unit": "s"}}})


class Manifest(unittest.TestCase):
    """BENCHMARK.json keeps to its contract; metrics.json annotates it."""

    def setUp(self):
        self.bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.meta = json.loads((HERE / "metrics.json").read_text())

    def test_contract_shape(self):
        b = self.bench
        self.assertEqual(set(b), {"command", "paths", "run_seconds",
                                  "workloads", "end_to_end", "per_layer"})
        self.assertTrue(2 <= len(b["workloads"]) <= 8)
        for w in b["workloads"]:
            self.assertIn(w["name"], run.WORKLOADS)
            self.assertLessEqual(len(w["why"]), 200)
        names = [m["name"] for m in b["end_to_end"] + b["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
        for m in b["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
        setup = [m for m in b["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in b["end_to_end"]))
        for m in b["end_to_end"] + b["per_layer"]:
            self.assertIn(m["better"], ("higher", "lower"))
            self.assertTrue(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}",
                                         m["unit"]))

    def test_every_metric_is_annotated(self):
        self.assertEqual(set(self.meta["end_to_end"]),
                         {m["name"] for m in self.bench["end_to_end"]})
        self.assertEqual(set(self.meta["per_layer"]),
                         {m["name"] for m in self.bench["per_layer"]})
        known = ({m["name"] for m in self.bench["end_to_end"]} |
                 {m["name"] for m in self.bench["per_layer"]})
        for name, entry in self.meta["per_layer"].items():
            for move in entry["moves"]:
                self.assertIn(move["metric"], known, name)
                self.assertIn(move["workload"], run.WORKLOADS, name)


def driver_doc(workload, seed, seconds, trace=0, inject_wrong=0):
    """Run perfbench_driver once; (exit code, document)."""
    driver = run.build(ROOT)
    r = subprocess.run(
        [str(driver), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--inject-wrong", str(inject_wrong)],
        stdout=subprocess.PIPE, text=True, timeout=run.DRIVER_TIMEOUT_S)
    return r.returncode, json.loads(r.stdout.strip().splitlines()[-1])


class DriverChecks(unittest.TestCase):
    def test_wrong_bytes_are_counted(self):
        # ntt-hardened corrupts one resilient output's bytes.
        code, doc = driver_doc("ntt-hardened", 3, 0.1, inject_wrong=1)
        self.assertEqual(code, 1)
        self.assertEqual(doc["failed"], 1)
        self.assertGreater(doc["attempted"], 1)
        self.assertEqual(benchlib.failed_ratio(doc["attempted"],
                                               doc["failed"]),
                         1 / doc["attempted"])

    def test_refused_job_is_counted(self):
        code, doc = driver_doc("service-mix", 3, 0.2, inject_wrong=1)
        self.assertEqual(code, 1)
        self.assertEqual(doc["failed"], 1)

    def test_deterministic_metrics_repeat_exactly(self):
        for workload in ("service-mix", "ntt-hardened"):
            _, a = driver_doc(workload, 11, 0.2)
            _, b = driver_doc(workload, 11, 0.2)
            self.assertEqual(a["failed"], 0)
            self.assertTrue(a["deterministic"])
            self.assertEqual(a["deterministic"], b["deterministic"])
            if workload == "service-mix":
                self.assertEqual(a["samples"]["job_sim_us"],
                                 b["samples"]["job_sim_us"])
            _, c = driver_doc(workload, 12, 0.2)
            self.assertNotEqual(a["deterministic"], c["deterministic"])


if __name__ == "__main__":
    unittest.main()
