"""Self-test of the percentile helper.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        self.assertIsNone(stats.percentile(range(999), 99))
        self.assertEqual(stats.percentile(range(1000), 99), 989)

    def test_ten_samples_beyond_the_rank(self):
        values = list(range(1, 201))  # p95 rank 190 leaves 10 above it
        self.assertEqual(stats.percentile(values, 95), 190)
        self.assertIsNone(stats.percentile(values[:199], 95))

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 40
        self.assertEqual(stats.percentile(values, 90), stats.percentile(sorted(values), 90))

    def test_tail_picks_the_highest_qualifying_percentile(self):
        self.assertEqual(stats.tail(range(1000))[0], 99)
        self.assertEqual(stats.tail(range(300))[0], 95)
        self.assertIsNone(stats.tail([11_000.0]))
        self.assertIsNone(stats.tail([]))

    def test_median(self):
        self.assertEqual(stats.median([3, 1, 2]), 2)
        self.assertEqual(stats.median([4, 1, 2, 3]), 2.5)
        with self.assertRaises(ValueError):
            stats.median([])


class NominalSpeedTest(unittest.TestCase):
    def test_rescales_by_the_reference(self):
        self.assertEqual(stats.at_nominal_speed(80.0, 1.0, 0.5), 40.0)
        self.assertEqual(stats.at_nominal_speed(40.0, 0.5, 0.5), 40.0)


if __name__ == "__main__":
    unittest.main()
