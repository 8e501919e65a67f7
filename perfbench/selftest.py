"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs and emits every metric by name and
unit, that the traced counts repeat exactly, that operator applies
differing between samples of one seed make an untraced run incorrect,
and that a corrupted artifact or a violated RMSE limit makes a sample
count as failed.  The
tiny sizes measure nothing; they only exercise the harness.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


# Settings that shrink each workload to a few iterations.
TINY = {
    "lowrank-sweep": {"k_eigs": 3, "power_iters": 10, "k_max": 20},
    "tv-sparse": {"k_max": 100, "power_iters": 10},
    "lsq-full": {"k_max": 5, "power_iters": 5},
}


def tiny(name: str) -> run.Workload:
    """A workload at tiny size.  Its few iterations do not converge, so any
    finite image passes (the phantom's values are about 0.2 1/cm)."""
    wl = run.WORKLOADS[name]
    return replace(wl, settings={**wl.settings, **TINY[name]}, rmse_limit=1.0)


def bench(name: str, trace: int, seed: int = 3) -> dict:
    """One tiny run for one second; returns the record `run.py` prints last."""
    return run.run_workload(tiny(name), seed, 1, bool(trace))[0]


class TinyWorkloads(unittest.TestCase):
    def check_record(self, record: dict, expected: dict):
        self.assertEqual(sorted(record), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(record["correct"], record)
        self.assertEqual(record["failed"], 0)
        self.assertGreaterEqual(record["attempted"], 2)
        self.assertEqual(
            {name: m["unit"] for name, m in record["metrics"].items()}, expected
        )

    def test_every_workload_emits_every_metric(self):
        for name in run.WORKLOADS:
            with self.subTest(workload=name):
                record = bench(name, 0)
                self.check_record(record, run.END_TO_END)
                for metric in run.END_TO_END:
                    self.assertGreater(record["metrics"][metric]["value"], 0, metric)
                self.check_record(bench(name, 1), run.PER_LAYER)

    def test_traced_counts_repeat(self):
        counts = []
        for _ in range(2):
            metrics = bench("tv-sparse", 1)["metrics"]
            counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["prox.l1.calls"], 0)

    def test_differing_applies_fail_untraced_run(self):
        real = run.run_sample

        def skewed(wl, seed, sample_id, trace, sample_dir):
            result = real(wl, seed, sample_id, trace, sample_dir)
            result["operator_applies"] += sample_id
            return result

        with mock.patch.object(run, "run_sample", skewed):
            record = bench("tv-sparse", 0)
        self.assertFalse(record["correct"])


class OutputChecks(unittest.TestCase):
    """A sample whose artifacts are wrong must count as failed."""

    @classmethod
    def setUpClass(cls):
        cls.wl = tiny("tv-sparse")
        cls.dir = run.WORK / "selftest"
        cls.result = run.run_sample(cls.wl, 5, 0, False, cls.dir)
        cls.out = cls.dir / "out"

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def assess(self, reference=None, wl=None):
        result = dict(self.result)
        ref = run.assess(wl or self.wl, self.dir, result, reference)
        return result["problems"], ref

    def corrupt(self, name: str, edit):
        path = self.out / name
        original = path.read_bytes()
        try:
            path.write_bytes(edit(original))
            return self.assess(self.reference)[0]
        finally:
            path.write_bytes(original)

    def setUp(self):
        problems, self.reference = self.assess()
        self.assertEqual(problems, [])

    def test_identical_rerun_passes(self):
        self.assertEqual(self.assess(self.reference)[0], [])

    def test_missing_row_fails(self):
        problems = self.corrupt("convergence.csv", lambda b: b[: b.rstrip(b"\n").rfind(b"\n") + 1])
        self.assertTrue(any("rows" in p for p in problems), problems)

    def test_bad_header_fails(self):
        problems = self.corrupt("convergence.csv", lambda b: b.replace(b"r_tau", b"r_tau2", 1))
        self.assertTrue(any("header" in p for p in problems), problems)

    def test_flipped_image_byte_fails(self):
        problems = self.corrupt("final_image.raw", lambda b: bytes([b[0] ^ 1]) + b[1:])
        self.assertTrue(any("differ" in p for p in problems), problems)

    def test_rmse_above_limit_fails(self):
        problems, _ = self.assess(wl=replace(self.wl, rmse_limit=1e-12))
        self.assertTrue(any("RMSE" in p for p in problems), problems)

    def test_crash_fails(self):
        result = {"sample": 0, "trace": 0, "error": "exit code 1"}
        run.assess(self.wl, self.dir, result, self.reference)
        self.assertEqual(result["problems"], ["exit code 1"])


if __name__ == "__main__":
    unittest.main()
