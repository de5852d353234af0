"""Tests for perfbench/stats.py: python3 -m unittest perfbench/test_stats.py"""

import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import stats  # noqa: E402


class StatsTest(unittest.TestCase):
    def test_quartiles_match_statistics(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(stats.quartiles(values)[1], 5.5)

    def test_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values), (q3 - q1) / q2)
        self.assertEqual(stats.spread([4.0, 4.0, 4.0]), 0.0)

    def test_worse_by_respects_direction(self):
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "lower"), 0.1)
        self.assertAlmostEqual(stats.worse_by(100.0, 90.0, "lower"), -0.1)
        self.assertAlmostEqual(stats.worse_by(100.0, 90.0, "higher"), 0.1)
        self.assertAlmostEqual(stats.worse_by(100.0, 110.0, "higher"), -0.1)
        self.assertEqual(stats.worse_by(0.0, 0.0, "lower"), 0.0)
        self.assertEqual(stats.worse_by(0.0, 1.0, "lower"), float("inf"))


if __name__ == "__main__":
    unittest.main()
