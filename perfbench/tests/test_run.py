"""Tests of run.py's evaluation of a driver record, and of the agreement
between run.py, BENCHMARK.json and predictions.json.

    python3 -m unittest discover -s perfbench/tests
"""

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
SOLVER = ("nr_iterations", "dc_solves", "transient_steps", "transient_solves",
          "assemblies", "lu_factorizations", "line_search_backtracks",
          "sparse_refactorizations", "sparse_symbolic_analyses",
          "sparse_static_pivot_hits", "sparse_pivot_fallbacks",
          "sparse_ordering_us", "batched_evals", "deadline_polls",
          "cancelled_solves", "hier_promotions", "hier_demotions",
          "hier_relinearizations", "hier_guard_retries", "sparse_pattern_nnz",
          "sparse_lu_nnz", "hier_active_unknowns")


def rnd(episode, wall, units, failed=0, traced=False, outputs=None,
        nr_iterations=100):
    solver = {k: 0 for k in SOLVER}
    solver.update(nr_iterations=nr_iterations, assemblies=nr_iterations,
                  transient_steps=50)
    return {"episode": episode, "traced": traced, "wall_s": wall,
            "attempted": len(units), "failed": failed, "unit_s": units,
            "layer": {"sram.wlcrit_s": 0.5, "sram.wlcrit_calls": 4,
                      "bench.round_s": wall, "bench.round_calls": 1},
            "solver": solver,
            "outputs": outputs if outputs is not None else {"x": 1.5}}


def record(rounds):
    return {"workload": "assist_sweep", "seed": 0, "threads": 4,
            "setup_s": [0.02, 0.01, 0.03], "model_set_build_s": [0.01],
            "peak_rss_mb": 12.5, "rounds": rounds}


class Evaluate(unittest.TestCase):
    units = [0.001 * (i + 1) for i in range(100)]

    def test_end_to_end_metrics(self):
        rec = record([rnd(0, 2.0, self.units), rnd(1, 4.0, self.units, 5)])
        res = run.evaluate(rec, {"0": {"x": 1.5}, "1": {"x": 1.5}}, None)
        m = res["metrics"]
        self.assertEqual(set(run.END_TO_END) - set(m), set())
        self.assertEqual(m["wall_s"], 3.0)
        self.assertEqual(m["units_per_s"], (50.0 + 95.0 / 4.0) / 2)
        self.assertAlmostEqual(m["op_p50_ms"], 50.5)
        self.assertAlmostEqual(m["op_p90_ms"], 90.1)
        self.assertEqual(m["setup_s"], 0.02)
        self.assertEqual((res["attempted"], res["failed"]), (200, 5))
        self.assertEqual(m["failed_frac"], 5 / 200)
        self.assertEqual(m["sim_rel_dev_max"], 0.0)
        self.assertTrue(res["correct"])

    def test_moved_output_is_incorrect(self):
        rec = record([rnd(0, 2.0, self.units, outputs={"x": 1.6})])
        res = run.evaluate(rec, {"0": {"x": 1.5}}, None)
        self.assertAlmostEqual(res["metrics"]["sim_rel_dev_max"], 0.1 / 1.6)
        self.assertEqual(res["worst_output"], "episode 0 x")
        self.assertFalse(res["correct"])

    def test_missing_reference_is_incorrect(self):
        rec = record([rnd(3, 2.0, self.units)])
        res = run.evaluate(rec, {"0": {"x": 1.5}}, None)
        self.assertEqual(res["metrics"]["sim_rel_dev_max"], math.inf)
        self.assertFalse(res["correct"])

    def test_traced_run_reports_layers_and_checks_repeats(self):
        spans = {"traceEvents": [
            {"name": "bench.round", "ph": "X", "ts": 0.0, "dur": 2.2e6,
             "tid": 0, "args": {"id": 0, "parent": -1}},
            {"name": "sram.wlcrit", "ph": "X", "ts": 0.2e6, "dur": 1.8e6,
             "tid": 1, "args": {"id": 1, "parent": 0}}]}
        rec = record([rnd(0, 2.0, self.units),
                      rnd(0, 2.2, self.units, traced=True, nr_iterations=101)])
        with tempfile.TemporaryDirectory() as tmp:
            trace = Path(tmp) / "trace.json"
            trace.write_text(json.dumps(spans))
            res = run.evaluate(rec, {"0": {"x": 1.5}}, trace)
        m = res["metrics"]
        self.assertEqual(set(run.PER_LAYER) - set(m), set())
        self.assertAlmostEqual(m["trace.overhead_s"], 0.2)
        self.assertAlmostEqual(m["trace.self_sram_s"], 1.8)
        self.assertAlmostEqual(m["trace.self_bench_s"], 0.4)
        self.assertAlmostEqual(m["trace.self_sum_frac"], 1.0)
        self.assertEqual(m["sram.wlcrit_calls"], 4)
        self.assertEqual(m["spice.nr_per_step"], 101 / 50)
        self.assertEqual(res["nondeterminism"], [
            "episode 0 counter solver.assemblies: 100 vs 101",
            "episode 0 counter solver.nr_iterations: 100 vs 101"])
        self.assertEqual(m["trace.counter_mismatches"], 2)
        # The outputs still match the reference: reported, not incorrect.
        self.assertTrue(res["correct"])


class Agreement(unittest.TestCase):
    def test_benchmark_json_matches_run_tables(self):
        self.assertEqual(SPEC["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(max(m["bound"] for m in SPEC["end_to_end"]),
                         next(m["bound"] for m in SPEC["end_to_end"]
                              if m["name"] == "setup_s"))

    def test_predictions_name_known_metrics_and_workloads(self):
        known = set(run.END_TO_END) | set(run.PER_LAYER)
        preds = json.loads(run.PREDICTIONS.read_text())["predictions"]
        for p in preds:
            self.assertLessEqual(set(p["metrics"]) | set(p["moves"]), known)
            self.assertLessEqual(set(p["on"]) | set(p["zero_on"]),
                                 set(run.WORKLOADS))
            self.assertTrue(all(m.startswith(p["layer"] + ".")
                                for m in p["metrics"]))

    def test_broken_zero_prediction_is_reported(self):
        metrics = {m: 0.0 for m in run.PER_LAYER}
        self.assertEqual(run.broken_zero_predictions("assist_sweep", metrics),
                         [])
        metrics["la.sparse_refactorizations"] = 3.0
        self.assertEqual(run.broken_zero_predictions("assist_sweep", metrics),
                         ["la.sparse_refactorizations = 3"])


if __name__ == "__main__":
    unittest.main()
