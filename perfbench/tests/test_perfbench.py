"""The benchmark's own tests.

    python3 -m unittest discover -s perfbench/tests -v

Run from the repository root; the first test builds ftbench. The
shape checks run every workload traced on seed 2 and take a few minutes
(bulk's lineage ledger entry alone is a long sort).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
PERFBENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(PERFBENCH)
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def ftbench(*args):
    """Run the built ftbench; return (exit code, stdout lines, result)."""
    bin_dir = run.build()
    proc = subprocess.run([os.path.join(bin_dir, "ftbench"), *args],
                          capture_output=True, text=True, timeout=400)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else None
    return proc.returncode, lines, result


class BenchmarkSpec(unittest.TestCase):
    def test_metric_names_and_units(self):
        spec = load_benchmark()
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        names += [w["name"] for w in spec["workloads"]]
        for name in names:
            self.assertRegex(name, NAME)
        self.assertEqual(len(names), len(set(names)), "names must be unique")
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
        self.assertLessEqual(len(spec["per_layer"]), 128)
        for m in spec["end_to_end"]:
            self.assertLessEqual(m["bound"], 0.25)


class Ftbench(unittest.TestCase):
    def test_selftest_binary(self):
        bin_dir = run.build()
        proc = subprocess.run([os.path.join(bin_dir, "ftbench_selftest")],
                              capture_output=True, text=True, timeout=60)
        self.assertEqual(proc.returncode, 0, proc.stdout)

    def assert_reports(self, result, declared):
        self.assertEqual(set(result["metrics"]), {m["name"] for m in declared})
        for m in declared:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
        for name in result["metrics"]:
            self.assertRegex(name, NAME)

    def test_end_to_end_run_reports_every_declared_metric(self):
        spec = load_benchmark()
        for workload in ("bulk", "fine"):
            code, _, result = ftbench("--workload", workload, "--seed", "3",
                                      "--seconds", "1", "--trace", "0")
            self.assertEqual(code, 0)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)
            self.assert_reports(result, spec["end_to_end"])
            for m in spec["end_to_end"]:
                self.assertGreater(result["metrics"][m["name"]]["value"], 0,
                                   f"{workload}: {m['name']} must not be 0")

    def test_traced_run_reports_every_declared_metric(self):
        spec = load_benchmark()
        code, lines, result = ftbench("--workload", "fine", "--seed", "3",
                                      "--seconds", "1", "--trace", "1")
        self.assertEqual(code, 0, "\n".join(lines[-20:]))
        # The traced run fails itself when sort.local_sort_cmp differs from
        # the step3_local_sort phase comparisons.
        self.assertTrue(result["correct"])
        self.assert_reports(result, spec["per_layer"])
        self.assertGreater(result["metrics"]["sort.local_sort_cmp"]["value"], 0)

    def test_wrong_output_fails_the_run(self):
        code, lines, result = ftbench("--workload", "fine", "--seed", "3",
                                      "--seconds", "0.5",
                                      "--corrupt-first-output")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any(l.startswith("  error_ratio = ") and
                            not l.startswith("  error_ratio = 0 ")
                            for l in lines), "error_ratio must be above 0")

    def test_refuses_without_library_sources(self):
        # A directory holding only BENCHMARK.json and perfbench/ must fail
        # without printing a result.
        bare = os.path.join(run.BUILD_ROOT, "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            ["python3", "perfbench/run.py", "--workload", "fine", "--seed",
             "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class SecondSeedShape(unittest.TestCase):
    """Each workload keeps its character on a seed other than the default."""

    traced = {}

    def metrics(self, workload):
        if workload not in self.traced:
            code, lines, result = ftbench("--workload", workload, "--seed",
                                          "2", "--seconds", "2", "--trace",
                                          "1")
            self.assertEqual(code, 0, "\n".join(lines[-20:]))
            shape = [l for l in lines if l.startswith("shape check")]
            self.traced[workload] = ("\n".join(shape), result["metrics"])
        return self.traced[workload]

    def test_bulk_is_kernel_bound(self):
        shape, metrics = self.metrics("bulk")
        self.assertGreaterEqual(metrics["sort.local_sort_share"]["value"],
                                0.30, shape)

    def test_fine_is_plumbing_bound(self):
        shape, metrics = self.metrics("fine")
        self.assertLessEqual(metrics["sort.local_sort_share"]["value"], 0.05,
                             shape)

    def test_campaign_layer_is_lineage_bound(self):
        shape, metrics = self.metrics("fine")
        ratio = (metrics["campaign.no_lineage_trials_per_s"]["value"] /
                 metrics["campaign.trials_per_s"]["value"])
        self.assertGreaterEqual(ratio, 2.0, shape)


if __name__ == "__main__":
    unittest.main()
