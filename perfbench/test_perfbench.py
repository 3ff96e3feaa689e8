#!/usr/bin/env python3
"""Tests of the benchmark itself: every workload at smoke size with every
correctness gate on, traced and untraced, plus the shape of BENCHMARK.json
and the refusal to run without the repository's sources.

    python3 perfbench/test_perfbench.py

The first test builds the benchmark (about a minute on 4 cores).
"""

import importlib.util
import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, seed=7, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)


class BenchmarkJsonTest(unittest.TestCase):
    def test_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end", "per_layer"})
        self.assertEqual(spec["paths"], ["perfbench"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["study", "rank", "serve"])
        names = [m["name"] for group in ("end_to_end", "per_layer")
                 for m in spec[group]]
        self.assertEqual(len(names), len(set(names)))
        for group in ("end_to_end", "per_layer"):
            for metric in spec[group]:
                self.assertRegex(metric["name"], NAME)
                self.assertRegex(metric["unit"], UNIT)
                self.assertIn(metric["better"], ("lower", "higher"))
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))


def load_runner():
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join(HERE, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class BypassedTest(unittest.TestCase):
    def test_bypassed_metrics_are_per_layer_metrics(self):
        per_layer = {m["name"] for m in load_spec()["per_layer"]}
        for workload, names in load_runner().BYPASSED.items():
            self.assertEqual(len(names), len(set(names)), workload)
            self.assertLessEqual(set(names), per_layer, workload)


class SmokeTest(unittest.TestCase):
    """Each workload end to end at tiny size; a failed gate fails it."""

    def check(self, workload, trace):
        proc = run_bench(workload, trace)
        self.assertEqual(proc.returncode, 0, proc.stderr[-4000:])
        result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        group = "per_layer" if trace else "end_to_end"
        want = {m["name"]: m["unit"] for m in load_spec()[group]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, want)
        if not trace:
            for name, value in result["metrics"].items():
                self.assertGreater(value["value"], 0, name)
        else:
            self.assertEqual(result["metrics"]["trace.dropped"]["value"], 0)
            self.assertGreaterEqual(
                result["metrics"]["trace.coverage"]["value"], 0.9)
        self.assertIn("# host {", proc.stdout)
        return result

    def test_study(self):
        self.check("study", 0)

    def test_study_traced(self):
        metrics = self.check("study", 1)["metrics"]
        self.assertEqual(metrics["anonymize.pareto_candidates"]["value"], 972)
        self.assertGreater(metrics["anonymize.pareto_s"]["value"], 0)
        self.assertEqual(metrics["anonymize.perturb_cells"]["value"], 0)

    def test_rank(self):
        self.check("rank", 0)

    def test_rank_traced(self):
        metrics = self.check("rank", 1)["metrics"]
        self.assertGreater(metrics["core.model_s"]["value"], 0)
        self.assertEqual(metrics["anonymize.eval_nodes"]["value"], 0)

    def test_serve(self):
        self.check("serve", 0)

    def test_serve_traced(self):
        metrics = self.check("serve", 1)["metrics"]
        self.assertGreater(metrics["service.cache_hit_ratio"]["value"], 0)
        self.assertEqual(metrics["service.quarantined"]["value"], 0)


class LoneDirectoryTest(unittest.TestCase):
    """Without the repository's sources the benchmark must fail fast and
    print no result."""

    def test_fails_without_sources(self):
        lone = os.path.join(ROOT, ".bench_run", "lone-%d" % os.getpid())
        shutil.rmtree(lone, ignore_errors=True)
        os.makedirs(lone)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lone)
            shutil.copytree(HERE, os.path.join(lone, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench("study", 0, cwd=lone)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(lone, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
