"""Tests of the benchmark's statistics helpers.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import statistics
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchstats as bs  # noqa: E402


def span(sid, parent, start, end, name="x.call", thread=0):
    return {"id": sid, "parent": parent, "start": start, "end": end,
            "name": name, "thread": thread}


class MedianAndQuartiles(unittest.TestCase):
    def test_median_odd_and_even(self):
        self.assertEqual(bs.median([3, 1, 2]), 2)
        self.assertEqual(bs.median([4, 1, 3, 2]), 2.5)

    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(bs.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value_is_its_own_quartiles(self):
        self.assertEqual(bs.quartiles([2.5]), (2.5, 2.5, 2.5))
        self.assertEqual(bs.relative_spread([2.5]), 0.0)

    def test_relative_spread_is_iqr_over_median(self):
        values = [9.0, 10.0, 10.0, 10.0, 11.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(bs.relative_spread(values), (q3 - q1) / q2)

    def test_empty_input_is_an_error(self):
        with self.assertRaises(ValueError):
            bs.median([])
        with self.assertRaises(ValueError):
            bs.quartiles([])


class Percentile(unittest.TestCase):
    def test_p90_with_sample_count(self):
        values = list(range(1, 101))  # 1..100
        value, beyond, n = bs.percentile(values, 0.9)
        self.assertAlmostEqual(value, 90.1)
        self.assertEqual(beyond, 10)
        self.assertEqual(n, 100)

    def test_too_few_samples_beyond_p90(self):
        value, beyond, n = bs.percentile(list(range(20)), 0.9)
        self.assertAlmostEqual(value, 17.1)
        self.assertEqual((beyond, n), (2, 20))
        self.assertLess(beyond, 10)

    def test_median_is_p50(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(bs.percentile(values, 0.5)[0], bs.median(values))

    def test_bad_quantile(self):
        with self.assertRaises(ValueError):
            bs.percentile([1.0], 1.5)


class FailedFrac(unittest.TestCase):
    def test_denominator_is_attempted_units(self):
        self.assertEqual(bs.failed_frac(0, 128), 0.0)
        self.assertEqual(bs.failed_frac(3, 12), 0.25)

    def test_needs_an_attempt(self):
        with self.assertRaises(ValueError):
            bs.failed_frac(0, 0)

    def test_failed_within_attempted(self):
        with self.assertRaises(ValueError):
            bs.failed_frac(5, 4)


class RelativeDeviation(unittest.TestCase):
    def test_identical_outputs_deviate_by_zero(self):
        self.assertEqual(bs.rel_dev(1.25e-10, 1.25e-10), 0.0)
        self.assertEqual(bs.rel_dev("inf", "inf"), 0.0)
        self.assertEqual(bs.rel_dev("nan", "nan"), 0.0)

    def test_relative_to_the_larger_magnitude(self):
        self.assertAlmostEqual(bs.rel_dev(1.0, 1.01), 0.01 / 1.01)

    def test_finite_against_infinite(self):
        self.assertEqual(bs.rel_dev(3.0, "inf"), math.inf)

    def test_max_over_outputs_names_the_worst(self):
        dev, name = bs.max_rel_dev({"a": 1.0, "b": 2.0}, {"a": 1.0, "b": 2.2})
        self.assertAlmostEqual(dev, 0.2 / 2.2)
        self.assertEqual(name, "b")

    def test_missing_output_is_infinite(self):
        dev, name = bs.max_rel_dev({"a": 1.0}, {"a": 1.0, "b": 2.0})
        self.assertEqual((dev, name), (math.inf, "b"))
        self.assertEqual(bs.max_rel_dev({"a": 1.0}, {"a": 1.0}), (0.0, None))


class SelfTime(unittest.TestCase):
    def test_nested_spans_subtract_their_children(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 2, 5), span(2, 1, 3, 4)]
        self.assertEqual(bs.self_times(spans), {0: 7.0, 1: 2.0, 2: 1.0})

    def test_sequential_children(self):
        spans = [span(0, -1, 0, 10), span(1, 0, 1, 3), span(2, 0, 3, 6)]
        self.assertEqual(bs.self_times(spans), {0: 5.0, 1: 2.0, 2: 3.0})

    def test_cross_thread_children_share_overlap(self):
        # Two children on pool threads overlap on [3, 5]: they share it.
        spans = [span(0, -1, 0, 10, thread=0), span(1, 0, 1, 5, thread=1),
                 span(2, 0, 3, 7, thread=2)]
        self.assertEqual(bs.self_times(spans), {0: 4.0, 1: 3.0, 2: 3.0})

    def test_parent_self_time_is_uncovered_part(self):
        # With no overlap among the children the result is the textbook
        # "span minus children" definition.
        spans = [span(0, -1, 0, 10), span(1, 0, 0, 4, thread=1),
                 span(2, 0, 6, 10, thread=2)]
        self.assertEqual(bs.self_times(spans)[0], 2.0)

    def test_children_starting_with_their_parent(self):
        spans = [span(0, -1, 0, 4), span(1, 0, 0, 4)]
        self.assertEqual(bs.self_times(spans), {0: 0.0, 1: 4.0})

    def test_layer_self_times_sum_to_traced_wall(self):
        # A traced round: the round span, an MC call with a serial prelude
        # and four overlapping pool-thread callbacks, each calling into sram.
        spans = [span(0, -1, 0.0, 100.0, "bench.round"),
                 span(1, 0, 5.0, 95.0, "mc.run_monte_carlo"),
                 span(2, 1, 5.0, 30.0, "device.draws")]
        sid = 3
        for lane in range(4):
            for k in range(3):
                start = 30.0 + lane * 1.5 + k * 20.0
                spans.append(span(sid, 1, start, start + 18.0, "mc.eval",
                                  thread=lane + 1))
                spans.append(span(sid + 1, sid, start + 0.5, start + 17.5,
                                  "sram.wlcrit", thread=lane + 1))
                sid += 2
        layers = bs.layer_self_times(spans)
        self.assertEqual(set(layers), {"bench", "mc", "device", "sram"})
        wall = 100.0
        self.assertLess(abs(sum(layers.values()) - wall) / wall, 0.10)
        self.assertAlmostEqual(layers["device"], 25.0)
        self.assertAlmostEqual(layers["bench"], 10.0)

    def test_span_ending_before_it_starts_is_rejected(self):
        with self.assertRaises(ValueError):
            bs.self_times([span(0, -1, 5, 4)])

    def test_chrome_trace_round_trip(self):
        doc = {"traceEvents": [
            {"name": "sram.drnm", "cat": "sram", "ph": "X", "ts": 10.0,
             "dur": 5.0, "pid": 1, "tid": 3, "args": {"id": 7, "parent": 2}},
            {"name": "meta", "ph": "M"},
        ]}
        self.assertEqual(bs.spans_from_chrome_trace(doc), [
            {"id": 7, "parent": 2, "name": "sram.drnm", "thread": 3,
             "start": 10.0, "end": 15.0}])


if __name__ == "__main__":
    unittest.main()
