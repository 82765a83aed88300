#!/usr/bin/env python3
"""Checks steady.py's arithmetic: the quartile spread and the two-set
comparison. `python3 perfbench/run.py --selftest` runs it."""

import contextlib
import io
import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import steady  # noqa: E402


def runs(values, name="latency_ms"):
    return [{"metrics": {name: {"value": v, "unit": "ms"}}} for v in values]


class RelativeSpreadTest(unittest.TestCase):
    def test_uses_exclusive_quartiles(self):
        # statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25]
        self.assertAlmostEqual(steady.relative_spread(range(1, 11)),
                               (8.25 - 2.75) / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(steady.relative_spread([3.0] * 10), 0)

    def test_zero_median_is_unbounded(self):
        self.assertEqual(steady.relative_spread([0, 0, 0, 1]), float("inf"))


class CompareTest(unittest.TestCase):
    def compare(self, better, first, second):
        spec = {"end_to_end": [{"name": "latency_ms", "unit": "ms",
                                "better": better, "bound": 0.1}]}
        with contextlib.redirect_stdout(io.StringIO()):
            return steady.compare(spec, {"w": runs(first)},
                                  {"w": runs(second)})

    def test_lower_is_better(self):
        self.assertTrue(self.compare("lower", [100] * 3, [109] * 3))
        self.assertFalse(self.compare("lower", [100] * 3, [111] * 3))
        self.assertTrue(self.compare("lower", [100] * 3, [50] * 3))

    def test_higher_is_better(self):
        self.assertTrue(self.compare("higher", [100] * 3, [91] * 3))
        self.assertFalse(self.compare("higher", [100] * 3, [89] * 3))

    def test_compares_medians(self):
        # One slow run of three does not move the median.
        self.assertTrue(self.compare("lower", [100] * 3, [100, 100, 500]))


class ParseSeedsTest(unittest.TestCase):
    def test_range_and_list(self):
        self.assertEqual(steady.parse_seeds("1-3"), [1, 2, 3])
        self.assertEqual(steady.parse_seeds("4,7"), [4, 7])


if __name__ == "__main__":
    unittest.main()
