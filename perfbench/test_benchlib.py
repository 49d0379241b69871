"""Tests for the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import statistics
import unittest

import benchlib


class SummaryTest(unittest.TestCase):
    def test_median_and_quartiles_match_statistics(self):
        values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
        self.assertEqual(benchlib.median(values), 5.5)
        self.assertEqual(benchlib.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_single_value_has_no_spread(self):
        self.assertEqual(benchlib.quartiles([4.0]), (4.0, 4.0, 4.0))
        self.assertEqual(benchlib.relative_spread([4.0]), 0.0)

    def test_relative_spread_is_iqr_over_median(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchlib.relative_spread(values),
                               (q3 - q1) / q2)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(values, 50), 50)
        self.assertEqual(benchlib.percentile(values, 99), 99)
        self.assertEqual(benchlib.percentile(values, 100), 100)
        self.assertEqual(benchlib.percentile([7.0], 99), 7.0)

    def test_percentile_ignores_input_order(self):
        self.assertEqual(benchlib.percentile([3, 1, 2], 50), 2)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(benchlib.samples_beyond(1000, 99), 10)
        self.assertTrue(benchlib.percentile_supported(1000, 99))
        self.assertEqual(benchlib.samples_beyond(999, 99), 9)
        self.assertFalse(benchlib.percentile_supported(999, 99))
        self.assertTrue(benchlib.percentile_supported(20, 50))
        self.assertFalse(benchlib.percentile_supported(0, 50))


class GroupedPercentileTest(unittest.TestCase):
    def test_one_stalled_group_leaves_the_median_of_groups(self):
        n = 5000
        groups = [i // 1000 for i in range(n)]
        values = [1.0] * n
        for i in range(940, 1000):  # a stall at the end of group 0
            values[i] = 100.0
        self.assertEqual(benchlib.percentile(values, 99), 100.0)
        self.assertEqual(benchlib.grouped_percentile(values, groups, 99), 1.0)

    def test_median_over_groups_of_each_groups_percentile(self):
        values = [float(i % 1000) for i in range(3000)]
        groups = [i // 1000 for i in range(3000)]
        values[2000:] = [v + 1000.0 for v in values[2000:]]
        self.assertEqual(benchlib.grouped_percentile(values, groups, 99),
                         989.0)

    def test_one_group_is_the_plain_percentile(self):
        values = [float(i) for i in range(1500)]
        self.assertEqual(benchlib.grouped_percentile(values, [7] * 1500, 99),
                         benchlib.percentile(values, 99))

    def test_group_sizes_in_first_seen_order(self):
        self.assertEqual(benchlib.group_sizes([3, 3, 1, 3, 1, 0]), [3, 2, 1])


class RatioTest(unittest.TestCase):
    def test_zero_denominator_reads_zero(self):
        self.assertEqual(benchlib.ratio(5, 0), 0.0)
        self.assertEqual(benchlib.ratio(0, 0), 0.0)

    def test_per_chunk_ratio(self):
        self.assertEqual(benchlib.ratio(3072, 2048), 1.5)


class SelfTimeTest(unittest.TestCase):
    @staticmethod
    def span(sid, parent, start, dur):
        return {"id": sid, "parent": parent, "start": start, "dur": dur}

    def test_leaf_self_time_is_duration(self):
        self.assertEqual(benchlib.self_times([self.span(1, 0, 0, 40)]),
                         {1: 40})

    def test_nested_children_subtract_only_direct_children(self):
        spans = [
            self.span(1, 0, 0, 100),   # root
            self.span(2, 1, 10, 30),   # child: 10..40
            self.span(3, 2, 15, 10),   # grandchild inside the child
            self.span(4, 1, 60, 20),   # child: 60..80
        ]
        self.assertEqual(benchlib.self_times(spans),
                         {1: 50, 2: 20, 3: 10, 4: 20})

    def test_overlapping_children_count_once(self):
        spans = [
            self.span(1, 0, 0, 100),
            self.span(2, 1, 10, 40),   # 10..50
            self.span(3, 1, 30, 40),   # 30..70, overlaps the first
        ]
        self.assertEqual(benchlib.self_times(spans)[1], 40)

    def test_child_outside_parent_is_clipped(self):
        spans = [self.span(1, 0, 0, 100), self.span(2, 1, 90, 30)]
        self.assertEqual(benchlib.self_times(spans)[1], 90)

    def test_chrome_spans_reads_ids_and_tracks(self):
        trace = {"traceEvents": [
            {"name": "process_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "bench"}},
            {"name": "thread_name", "ph": "M", "pid": 1, "tid": 1,
             "args": {"name": "train"}},
            {"name": "a", "ph": "X", "pid": 1, "tid": 1, "ts": 0.0,
             "dur": 10.0, "args": {"span": 1, "parent": 0}},
            {"name": "b", "ph": "X", "pid": 1, "tid": 1, "ts": 2.0,
             "dur": 3.0, "args": {"span": 2, "parent": 1}},
            {"name": "c", "ph": "X", "pid": 2, "tid": 1, "ts": 4.0,
             "dur": 1.0},
        ]}
        spans = benchlib.chrome_spans(trace)
        self.assertEqual([s["name"] for s in spans], ["a", "b", "c"])
        self.assertEqual(spans[0]["process"], "bench")
        self.assertEqual(spans[0]["thread"], "train")
        self.assertLess(spans[2]["id"], 0)
        self.assertEqual(benchlib.self_times(spans)[1], 7.0)


if __name__ == "__main__":
    unittest.main()
