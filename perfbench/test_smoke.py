"""Smoke test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/test_smoke.py

Every workload runs once untraced and once traced.  The test checks that
each metric BENCHMARK.json names prints with its unit, that the output
checks pass, that a wrong expectation in each workload's check counts as a
failure, and that the benchmark refuses a directory without the sources.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

WRONG = {"factor-iid": {"d": 881}, "match-nu": {"d": 1630},
         "measure-mu": {"c": 0.49}, "typeiii-ratios": {"samples": 0}}


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        cls.work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work)

    def measure(self, w, trace):
        return run.run_workload(w, 7, 0.0, trace, self.work)

    def test_every_metric_prints_with_its_unit(self):
        for name, w in run.workloads(tiny=True).items():
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    detail, result = self.measure(w, trace)
                    self.assertTrue(result["correct"], detail["failures"])
                    want = {m["name"]: m["unit"] for m in self.spec[key]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertTrue(detail["digests_stable"])
                    if trace:
                        self.check_counts(name, result["metrics"])

    def check_counts(self, name, metrics):
        value = {k: v["value"] for k, v in metrics.items()}
        if name == "factor-iid":
            self.assertEqual(value["markers.decompose_calls"], 3)
            self.assertEqual(value["matching.d"], 882)
        if name == "match-nu":
            self.assertEqual(value["markers.decompose_calls"], 1)
            self.assertEqual(value["matching.d"], 1631)
        if name == "measure-mu":
            self.assertEqual(value["measures.kakutani_calls"], 24)  # n = 2e4
            self.assertGreater(value["measures.perturbation_calls"], 0)
        if name == "typeiii-ratios":
            self.assertEqual(value["typeiii.ratio_calls"], 200)
        self.assertGreater(value["stattests.import_s"], 0)

    def test_wrong_expectation_counts_as_failure(self):
        for name, w in run.workloads(tiny=True).items():
            with self.subTest(workload=name):
                bad = dataclasses.replace(w, expect={**w.expect, **WRONG[name]})
                detail, result = self.measure(bad, False)
                self.assertFalse(result["correct"])
                self.assertEqual(result["failed"], result["attempted"])
                self.assertEqual(detail["failed_fraction"], 1.0)

    def test_refuses_a_directory_without_sources(self):
        bare = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
        try:
            shutil.copytree(run.HERE, bare / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, f"{run.HERE.name}/run.py", "--workload",
                 "match-nu", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
