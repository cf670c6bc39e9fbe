"""Self-test of the benchmark; run from the checkout root:

    python3 perfbench/selftest.py

Tiny-size runs must print every metric of ``BENCHMARK.json`` with its
unit and the zeros the workloads predict; a wrong expected answer must be
counted as a failure; one seed must give the same inputs and the same
per-layer counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COUNT_UNITS = {"count", "cells", "bits"}


def _bench(workload, trace, seed=5):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        cls.runs = {(w, t): _bench(w, t) for w in workloads.WORKLOADS
                    for t in (0, 1)}

    def test_every_named_metric_with_its_unit(self):
        for (w, trace), res in self.runs.items():
            spec = self.spec["per_layer" if trace else "end_to_end"]
            self.assertEqual(
                {k: v["unit"] for k, v in res["metrics"].items()},
                {m["name"]: m["unit"] for m in spec}, (w, trace))
            self.assertEqual(set(res), {"correct", "attempted", "failed",
                                        "metrics"})
            self.assertTrue(res["correct"], (w, trace))
            self.assertEqual(res["failed"], 0)
            self.assertGreater(res["attempted"], 0)
            for m in res["metrics"].values():
                self.assertIsInstance(m["value"], (int, float))

    def test_per_layer_table_matches_benchmark_json(self):
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in self.spec["per_layer"]], layers.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_predicted_zeros(self):
        def count(w, name):
            return self.runs[(w, 1)]["metrics"][name]["value"]

        self.assertEqual(count("invariants", "groebner.oracle_snf.calls"), 0)
        self.assertEqual(count("forms", "groebner.oracle_snf.calls"), 0)
        self.assertEqual(
            count("groebner", "linalg.IntEchelon.reduce.calls"), 0)
        self.assertGreater(
            count("invariants", "graphs.smith_normal_form.calls"), 0)

    def test_same_seed_same_counts(self):
        for w in workloads.WORKLOADS:
            again = _bench(w, 1)
            first = self.runs[(w, 1)]["metrics"]
            for name, m in again["metrics"].items():
                if m["unit"] in COUNT_UNITS:
                    self.assertEqual(m["value"], first[name]["value"],
                                     (w, name))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in workloads.WORKLOADS:
            a = workloads.build(w, 7, "tiny").fingerprint()
            self.assertEqual(a, workloads.build(w, 7, "tiny").fingerprint())
            self.assertNotEqual(
                workloads.build(w, 7).fingerprint(),
                workloads.build(w, 8).fingerprint(), w)

    def test_wrong_expected_answer_is_counted(self):
        for w in workloads.WORKLOADS:
            load = workloads.build(w, 7, "tiny")
            label = load.top_query
            load.expected[label] = ("not", "this")
            res = workloads.run_pass(load)
            problems, attempted = run._check_passes([res])
            self.assertEqual(len(problems), 1, w)
            self.assertTrue(problems[0].startswith(f"pass 0 {label}: "), w)
            self.assertGreater(len(problems) / attempted, 0)


if __name__ == "__main__":
    unittest.main()
