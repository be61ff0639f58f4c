"""Self-tests of the benchmark's pure helpers (metrics.py).

    python3 -m unittest discover -s ratbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import metrics as M


def step(offered=1000.0, achieved=990.0, p99=5.0, samples=2000, errors=0,
         lost=0, timed_out=False, real=None):
    return {"offered_hz": offered, "offered_real_hz": real or offered,
            "achieved_hz": achieved, "p50_ms": 1.0, "p99_ms": p99,
            "samples": samples, "errors": errors, "lost": lost,
            "timed_out": timed_out}


class PercentileRule(unittest.TestCase):
    def test_ten_samples_beyond(self):
        self.assertTrue(M.percentile_supported(1000, 99.0))
        self.assertFalse(M.percentile_supported(999, 99.0))
        self.assertTrue(M.percentile_supported(200, 95.0))
        self.assertFalse(M.percentile_supported(199, 95.0))


class Knee(unittest.TestCase):
    def test_highest_passing_step_before_the_first_failure(self):
        ladder = [step(1000, real=1010), step(1100, real=1090),
                  step(1200, p99=80.0), step(1300, real=1300)]
        self.assertEqual(M.knee(ladder, 50.0, 0.9, base_hz=500), 1090)

    def test_each_failure_kind_stops_the_ladder(self):
        for bad in (step(1100, errors=1), step(1100, lost=1),
                    step(1100, timed_out=True), step(1100, achieved=800.0),
                    step(1100, samples=999)):
            self.assertEqual(M.knee([step(1000), bad], 50.0, 0.9, base_hz=500),
                             1000, bad)

    def test_first_step_failing_falls_back_to_the_fixed_rate(self):
        self.assertEqual(M.knee([step(1000, errors=3)], 50.0, 0.9, base_hz=500),
                         500)

    def test_combine_parts_takes_medians(self):
        parts = [dict(step(1000, p99=p), p50_ms=p / 10) for p in (1, 9, 3, 5, 4)]
        fixed = M.combine_parts(parts)
        self.assertEqual(fixed["p99_ms"], 4)
        self.assertEqual(fixed["p50_ms"], 0.4)
        self.assertEqual(fixed["samples"], 10000)
        self.assertAlmostEqual(fixed["achieved_ratio"], 0.99)
        self.assertEqual(fixed["offered_real_hz"], 1000)


class Derived(unittest.TestCase):
    def test_remainder_is_p50_minus_in_process_eval(self):
        # transport_ms on direct_hot, hop_ms on routed_cold
        self.assertAlmostEqual(M.remainder_ms(0.65, 120.0), 0.53)

    def test_overhead_pct(self):
        self.assertAlmostEqual(M.overhead_pct(1.1, 1.0), 10.0)
        self.assertAlmostEqual(M.overhead_pct(0.9, 1.0), -10.0)

    def test_stage_budget_closes_within_ten_percent(self):
        self_us = {"parse": 10.0, "render": 95.0, "other": 500.0}
        ok = M.stage_budget(self_us, ["parse", "render"], 110.0)
        self.assertAlmostEqual(ok["sum_us"], 105.0)
        self.assertTrue(ok["closes"])
        self.assertFalse(M.stage_budget(self_us, ["parse"], 110.0)["closes"])

    def test_spread_is_interquartile_range_over_median(self):
        self.assertAlmostEqual(M.spread([10.0] * 5), 0.0)
        self.assertAlmostEqual(M.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]),
                               (8.25 - 2.75) / 5.5)


class MetricNames(unittest.TestCase):
    def test_names_and_units(self):
        M.check_metric("svc.cache.get_us", "us")
        M.check_metric("capacity_per_s", "1/s")
        M.check_metric("obs.overhead_pct", "%")
        for name in ("", ".starts_with_dot", "has space", "x" * 65, "µs"):
            with self.assertRaises(ValueError, msg=name):
                M.check_metric(name, "ms")
        for unit in ("", "µs", "req per s", "x" * 17):
            with self.assertRaises(ValueError, msg=unit):
                M.check_metric("p50_ms", unit)

    def test_metric_set_matches_one_to_one(self):
        declared = {"p50_ms": "ms", "setup_s": "s"}
        good = {"p50_ms": {"value": 1.5, "unit": "ms"},
                "setup_s": {"value": 0.01, "unit": "s"}}
        M.check_metric_set(declared, good)
        with self.assertRaises(ValueError):
            M.check_metric_set(declared, {"p50_ms": good["p50_ms"]})
        with self.assertRaises(ValueError):
            M.check_metric_set(declared, dict(good, extra={"value": 1, "unit": "s"}))
        with self.assertRaises(ValueError):
            M.check_metric_set(declared, dict(good, setup_s={"value": 1, "unit": "ms"}))
        with self.assertRaises(ValueError):
            M.check_metric_set(declared, dict(good, setup_s={"value": True, "unit": "s"}))

    def test_benchmark_json_declares_what_run_py_reports(self):
        import run
        spec = json.loads((Path(__file__).resolve().parent.parent /
                           "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        for m in spec["end_to_end"] + spec["per_layer"]:
            M.check_metric(m["name"], m["unit"])
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         ["direct_hot", "routed_cold", "explore"])


if __name__ == "__main__":
    unittest.main()
