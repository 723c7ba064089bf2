"""Tests of the benchmark's own helpers (no build needed):

    python3 -m unittest perfbench/test_helpers.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from pb import gen, layers, stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_interpolates_like_numpy_linear(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        self.assertEqual(stats.percentile(values, 0.0), 1.0)
        self.assertEqual(stats.percentile(values, 0.5), 3.0)
        self.assertEqual(stats.percentile(values, 1.0), 5.0)
        self.assertAlmostEqual(stats.percentile(values, 0.3), 2.2)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertIsNone(stats.tail_percentile(list(range(999)), 0.99))
        self.assertIsNotNone(stats.tail_percentile(list(range(1000)), 0.99))
        self.assertIsNone(stats.tail_percentile(list(range(99)), 0.9))
        self.assertEqual(stats.tail_percentile(list(range(100)), 0.9),
                         stats.percentile(list(range(100)), 0.9))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)


class CalibrationTest(unittest.TestCase):
    def test_speed_scale_cancels_a_slow_host(self):
        # At half speed a 2 ms time and the loop both double.
        fast = 2.0 * stats.speed_scale([1.0, 1.0, 1.2], 1.0)
        slow = 4.0 * stats.speed_scale([2.0, 2.4, 2.0], 1.0)
        self.assertAlmostEqual(fast, 2.0)
        self.assertAlmostEqual(slow, 2.0)

    def test_active_time_leaves_out_the_pauses(self):
        calib = [[0.0, 0.25, 1.0], [2.0, 2.5, 3.0], [4.0, 4.25, 2.0]]
        self.assertAlmostEqual(stats.active_seconds(calib), 3.25)
        self.assertEqual(stats.active_seconds(calib[:1]), 0)


class MiddleMeanTest(unittest.TestCase):
    def test_cuts_a_quarter_from_each_end(self):
        self.assertEqual(stats.middle_mean([100.0, 1.0, 2.0, 3.0, 4.0, 5.0,
                                            6.0, -50.0]), 3.5)
        self.assertEqual(stats.middle_mean([1.0, 2.0, 9.0]), 4.0)

    def test_moves_smoothly_between_two_clusters(self):
        # The median jumps from 9 to 13 when one value changes cluster.
        low = [9.0] * 11 + [13.0] * 10
        high = [9.0] * 10 + [13.0] * 11
        step = stats.middle_mean(high) - stats.middle_mean(low)
        self.assertLess(step, 0.5)
        self.assertEqual(stats.median(high) - stats.median(low), 4.0)


class GeomeanTest(unittest.TestCase):
    def test_values(self):
        self.assertAlmostEqual(stats.geomean([2.0, 8.0]), 4.0)
        self.assertAlmostEqual(stats.geomean([7.0]), 7.0)
        self.assertAlmostEqual(stats.geomean(iter([1.0, 10.0, 100.0])),
                               10.0)

    def test_rejects_non_positive(self):
        for bad in ([], [1.0, 0.0], [-1.0]):
            with self.assertRaises(ValueError):
                stats.geomean(bad)


class DrawTest(unittest.TestCase):
    def test_cold_draw_repeats_for_a_seed(self):
        self.assertEqual(gen.cold_requests(7, 400), gen.cold_requests(7, 400))
        self.assertNotEqual(gen.cold_requests(7, 400),
                            gen.cold_requests(8, 400))

    def test_cold_rounds_cover_the_catalogue(self):
        cat = gen.catalogue()
        reqs = gen.cold_requests(3, 2 * len(cat))
        names = [name for name, _ in reqs]
        self.assertEqual(sorted(names[:len(cat)]),
                         sorted(name for name, _ in cat))
        seeds = [json.loads(line)["seed"] for _, line in reqs]
        self.assertEqual(len(seeds), len(set(seeds)))

    def test_hot_draw_repeats_for_a_seed(self):
        self.assertEqual(gen.hot_requests(5, 3000), gen.hot_requests(5, 3000))
        self.assertNotEqual(gen.hot_requests(5, 3000)[0],
                            gen.hot_requests(6, 3000)[0])

    def test_hot_mix(self):
        store = gen.store_requests()
        self.assertGreaterEqual(len(store), 1000)
        lines, keys = gen.hot_requests(9, 8000)
        new = [line for line, key in zip(lines, keys) if key < 0]
        self.assertAlmostEqual(len(new) / len(lines), gen.NEW_SHARE,
                               delta=0.015)
        # New members are distinct and never a store key.
        shapes = [json.dumps({k: v for k, v in json.loads(line).items()
                              if k != "id"}) for line in new]
        self.assertEqual(len(shapes), len(set(shapes)))
        store_shapes = {json.dumps({k: v for k, v in json.loads(s).items()
                                    if k not in ("id", "warm_start")})
                        for s in store}
        self.assertFalse(store_shapes & set(shapes))
        # Zipf: the hottest key is requested far more than the median.
        counts = sorted((keys.count(k) for k in set(keys) if k >= 0),
                        reverse=True)
        self.assertGreater(counts[0], 20 * statistics.median(counts))

    def test_zipf_draw_bounds(self):
        import random
        cdf = gen.zipf_cdf(10, 1.0)
        self.assertAlmostEqual(cdf[-1], 1.0)
        rng = random.Random(1)
        draws = [gen.zipf_draw(rng, cdf) for _ in range(2000)]
        self.assertEqual(min(draws), 0)
        self.assertLessEqual(max(draws), 9)
        self.assertGreater(draws.count(0), draws.count(9))


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ["request", 0.0, 100.0, -1, "r"],
            ["a", 10.0, 40.0, 0, "r"],
            ["a.inner", 15.0, 25.0, 1, "r"],
            ["b", 50.0, 90.0, 0, "r"],
        ]
        self.assertEqual(stats.self_times(spans), [30.0, 20.0, 10.0, 40.0])
        self.assertAlmostEqual(layers.coverage(spans), 0.7)

    def test_overlapping_children_count_once(self):
        spans = [["p", 0.0, 10.0, -1, ""], ["x", 2.0, 6.0, 0, ""],
                 ["y", 4.0, 8.0, 0, ""], ["z", 9.0, 12.0, 0, ""]]
        self.assertEqual(stats.self_times(spans)[0], 3.0)

    def test_server_span_tree(self):
        tree = [{"name": "explore.tune", "dur_us": 100.0, "children": [
            {"name": "explore.generation", "dur_us": 60.0, "children": [
                {"name": "explore.model_eval", "dur_us": 20.0},
                {"name": "explore.measure", "dur_us": 15.0}]}]}]
        totals = stats.tree_totals(tree)
        self.assertEqual(totals["explore.generation"], [60.0, 25.0])
        self.assertEqual(totals["explore.tune"], [100.0, 40.0])


class BenchmarkFileTest(unittest.TestCase):
    def test_matches_the_metric_catalogue(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
            bench = json.load(f)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"], m["bound"])
             for m in bench["end_to_end"]], layers.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]],
            [row[:3] for row in layers.PER_LAYER])
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         ["compile_cold", "serve_hotset", "execute_engines"])


if __name__ == "__main__":
    unittest.main()
