#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

The metric tests are pure.  The digest tests build the driver (as
run.py does) and run every workload with small rounds: about two
minutes on a 4-core host.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True

import metrics  # noqa: E402
import run  # noqa: E402

# Small rounds keep the digest tests cheap; the code path is the one
# the timed runs take.
SMALL_ROUNDS = {"evset-cloud": 16, "fleet-fork": 8, "calib-tiny": 64,
                "blind-e2e": 2}


def result_doc(**fields):
    doc = {"setup_s": [0.5, 0.4, 0.6], "round_wall_s": [1.0, 1.0, 4.0],
           "round_done": [5, 4, 4], "round_accesses": [2e6, 2e6, 2e6],
           "round_wall_sum_s": 6.0, "trials": 13, "successes": 13,
           "aborted_trials": 0, "peak_rss_mb": 30.0}
    doc.update(fields)
    return doc


class MetricTest(unittest.TestCase):
    def test_fail_frac_counts_ground_truth_failures(self):
        self.assertEqual(metrics.fail_frac(10, 10), 0.0)
        self.assertAlmostEqual(metrics.fail_frac(8, 6), 0.25)
        # A round of 4 lost to an abort never succeeded: all failed.
        e2e = metrics.end_to_end(result_doc(
            trials=17, successes=12, aborted_trials=4,
            round_wall_s=[1.0, 1.0, 4.0, 2.0], round_done=[5, 4, 4, 0]))
        self.assertAlmostEqual(e2e["fail_frac"], 5 / 17)
        self.assertAlmostEqual(e2e["keys_per_s"], 2.0)
        with self.assertRaises(ValueError):
            metrics.fail_frac(0, 0)

    def test_end_to_end_metrics(self):
        e2e = metrics.end_to_end(result_doc())
        self.assertEqual(e2e["setup_s"], 0.5)
        # Rates are medians over rounds: the slow third round, held up
        # by one long trial, does not move them.
        self.assertAlmostEqual(e2e["trials_per_s"], 4.0)
        self.assertAlmostEqual(e2e["sim_macc_per_s"], 2.0)
        with self.assertRaises(ValueError):
            metrics.end_to_end(result_doc(setup_s=[]))

    def test_p95_withheld_below_ten_samples_beyond(self):
        self.assertIsNone(metrics.tail_percentile([], 0.95))
        # 199 samples: 9 lie beyond the 95th percentile.
        self.assertIsNone(metrics.tail_percentile(range(199), 0.95))
        # 200 samples: the 190th value has 10 beyond it.
        self.assertEqual(metrics.tail_percentile(range(200), 0.95), 189)
        # Ties at the top leave nothing beyond the percentile.
        self.assertIsNone(metrics.tail_percentile([1.0] * 500, 0.95))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(metrics.spread([10.0] * 4), 0.0)
        self.assertGreater(metrics.spread([8.0, 9.0, 11.0, 12.0]), 0.2)


class DigestTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        if cls.binary is None:
            raise RuntimeError("perfbench build failed")
        cls.tmp = tempfile.TemporaryDirectory()

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def run_driver(self, workload, seed, threads, trace=0):
        out = Path(self.tmp.name) / f"{workload}-{seed}-{threads}-{trace}"
        proc = subprocess.run(
            [str(self.binary), f"--workload={workload}", f"--seed={seed}",
             f"--threads={threads}", f"--trace={trace}", "--rounds=1",
             f"--round-trials={SMALL_ROUNDS[workload]}", "--setup=0",
             f"--out={out}"],
            capture_output=True, text=True, timeout=600)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        with open(out) as f:
            doc = json.load(f)
        self.assertTrue(doc["correct"], doc["why"])
        return doc

    def test_digest_depends_on_seed_not_on_workers(self):
        for workload in SMALL_ROUNDS:
            with self.subTest(workload=workload):
                one = self.run_driver(workload, 7, 1)
                four = self.run_driver(workload, 7, run.THREADS)
                other = self.run_driver(workload, 8, run.THREADS)
                self.assertEqual(one["digest"], four["digest"])
                self.assertNotEqual(four["digest"], other["digest"])

    def test_traced_run_reproduces_untraced_results(self):
        # The driver replays every traced round through the real entry
        # point and fails unless the results are byte-identical.
        for workload in SMALL_ROUNDS:
            with self.subTest(workload=workload):
                traced = self.run_driver(workload, 7, run.THREADS, trace=1)
                plain = self.run_driver(workload, 7, run.THREADS)
                self.assertEqual(traced["digest"], plain["digest"])
                self.assertGreater(traced["layers"]["trial"]["spans"], 0)


if __name__ == "__main__":
    unittest.main()
