"""Tests of the benchmark's statistics helpers.

Run from the repository root: ``python3 -m unittest perfbench/test_stats.py``
"""

import math
import os
import statistics
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 3, 2]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [9.7, 10.4, 9.9, 10.1, 10.0, 9.8, 10.2, 10.3, 9.6, 10.5]
        self.assertEqual(
            stats.quartiles(values), tuple(statistics.quantiles(values, n=4))
        )

    def test_exclusive_method_on_known_data(self):
        # Exclusive method: positions (n + 1) * k / 4 = 1.25, 2.5, 3.75.
        self.assertEqual(stats.quartiles([1, 2, 3, 4]), (1.25, 2.5, 3.75))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(stats.spread([1, 2, 3, 4]), (3.75 - 1.25) / 2.5)

    def test_spread_of_constant_values_is_zero(self):
        self.assertEqual(stats.spread([1.058] * 10), 0.0)

    def test_one_value_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.quartiles([1.0])


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        values = list(range(1, 101))
        p, v = stats.tail_percentile(values)
        self.assertEqual((p, v), (90, 90))
        self.assertEqual(sum(1 for x in values if x > v), 10)

    def test_sixty_six_cells(self):
        # A 22 x 3 grid: p84 leaves 66 - ceil(55.44) = 10 cells beyond.
        p, v = stats.tail_percentile(list(range(66)))
        self.assertEqual(p, 84)
        self.assertEqual(sum(1 for x in range(66) if x > v), 10)

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile([1.0] * 19))
        self.assertIsNotNone(stats.tail_percentile([1.0] * 20))

    def test_nearest_rank_percentile(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(stats.percentile(list(range(1, 11)), 90), 9)


class GeomeanTest(unittest.TestCase):
    def test_known_values(self):
        self.assertAlmostEqual(stats.geomean([1, 4]), 2.0)
        self.assertAlmostEqual(stats.geomean([1.12] * 22), 1.12)

    def test_equals_exp_mean_log(self):
        values = [1.0009, 1.4383, 0.7549, 1.7727]
        expect = math.exp(sum(math.log(v) for v in values) / len(values))
        self.assertAlmostEqual(stats.geomean(values), expect)

    def test_rejects_non_positive(self):
        with self.assertRaises(ValueError):
            stats.geomean([1.0, 0.0])
        with self.assertRaises(ValueError):
            stats.geomean([])


if __name__ == "__main__":
    unittest.main()
