"""Tests of the bound comparison in compare.py.

    python3 -m unittest -v perfbench/test_compare.py
"""

import json
import os
import statistics
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402

STEADY = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


class SpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        q1, _, q3 = statistics.quantiles(STEADY, n=4)
        self.assertAlmostEqual(compare.spread(STEADY),
                               (q3 - q1) / statistics.median(STEADY))

    def test_constant_runs_have_no_spread(self):
        self.assertEqual(compare.spread([5.0] * 10), 0.0)


class VerdictTest(unittest.TestCase):
    def test_lower_is_better_worse_beyond_the_bound(self):
        change = [v * 1.2 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "lower", 0.1),
                         "worse")

    def test_lower_is_better_within_the_bound(self):
        change = [v * 1.05 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, change, "lower", 0.1),
                         "unchanged")

    def test_exactly_at_the_bound_is_not_worse(self):
        change = [v * 1.1 for v in STEADY]
        self.assertNotEqual(
            compare.verdict(STEADY, change, "lower", 0.1 + 1e-9), "worse")

    def test_higher_is_better_direction(self):
        slower = [v * 0.8 for v in STEADY]
        faster = [v * 1.3 for v in STEADY]
        self.assertEqual(compare.verdict(STEADY, slower, "higher", 0.1),
                         "worse")
        self.assertEqual(compare.verdict(STEADY, faster, "higher", 0.1),
                         "better")
        self.assertEqual(compare.verdict(STEADY, faster, "lower", 0.1),
                         "worse")

    def test_wide_parent_spread_is_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0,
                 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [v * 0.95 for v in noisy]
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "unresolved")

    def test_unresolved_unless_every_change_run_is_better(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 100.0,
                 70.0, 130.0, 90.0, 110.0, 100.0]
        change = [50.0] * 10
        self.assertEqual(compare.verdict(noisy, change, "lower", 0.1),
                         "better")


class LoadRunsTest(unittest.TestCase):
    def test_reads_the_last_line_grouped_by_workload(self):
        with tempfile.TemporaryDirectory() as d:
            for i, (workload, value) in enumerate(
                    [("fig7", 1.0), ("fig7", 2.0), ("fleet", 3.0)]):
                result = {"correct": True, "attempted": 1, "failed": 0,
                          "metrics": {"x": {"value": value, "unit": "s"}}}
                with open(os.path.join(d, f"{workload}.{i}.out"), "w",
                          encoding="utf-8") as f:
                    f.write("report line\n" + json.dumps(result) + "\n")
            runs = compare.load_runs(d)
        self.assertEqual(compare.values_of(runs["fig7"], "x"), [1.0, 2.0])
        self.assertEqual(compare.values_of(runs["fleet"], "x"), [3.0])


if __name__ == "__main__":
    unittest.main()
