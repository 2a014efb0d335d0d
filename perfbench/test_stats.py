"""Tests for the benchmark's statistics and check accounting.

    python3 -m unittest -v test_stats     (from perfbench/)
"""

import statistics
import unittest

import stats


class MedianTest(unittest.TestCase):
    def test_odd_and_even(self):
        self.assertEqual(stats.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(stats.median([4.0, 1.0, 3.0, 2.0]), 2.5)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.median([])


class TailPercentileTest(unittest.TestCase):
    def test_leaves_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        percent, value = stats.tail_percentile(values)
        self.assertEqual(percent, 90.0)
        self.assertEqual(value, 90)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(1000)]
        self.assertEqual(stats.tail_percentile(values[::-1]),
                         stats.tail_percentile(values))
        self.assertEqual(stats.tail_percentile(values), (99.0, 989.0))

    def test_too_few_samples(self):
        self.assertIsNone(stats.tail_percentile(list(range(10))))
        self.assertEqual(stats.tail_percentile(list(range(11))),
                         (100.0 / 11, 0))


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.2, 10.8, 9.9, 10.1, 10.4, 9.7, 10.6]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (q3 - q1) / statistics.median(values))

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.quartile_spread([2.0] * 5), 0.0)

    def test_needs_two_samples(self):
        with self.assertRaises(ValueError):
            stats.quartile_spread([1.0])


class TallyTest(unittest.TestCase):
    def test_failed_frac_counts_every_check(self):
        tally = stats.Tally()
        tally.add(8, 1, ["child check"])
        tally.expect(True, "digests agree")
        tally.expect(False, "digests differ")
        self.assertEqual((tally.attempted, tally.failed), (10, 2))
        self.assertEqual(tally.failed_frac(), 0.2)
        self.assertEqual(tally.failures, ["child check", "digests differ"])

    def test_all_passing_is_zero(self):
        tally = stats.Tally()
        tally.add(5, 0)
        self.assertEqual(tally.failed_frac(), 0.0)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.Tally().failed_frac()

    def test_inconsistent_counts_are_rejected(self):
        with self.assertRaises(ValueError):
            stats.Tally().add(1, 2)
        with self.assertRaises(ValueError):
            stats.Tally().add(-1, 0)


if __name__ == "__main__":
    unittest.main()
