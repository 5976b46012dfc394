"""Tests of the compare command: it must name a planted 2x slowdown in one
layer metric and one moved simulated output.

    python3 -m unittest discover -s perfbench/tests
"""

import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import compare  # noqa: E402

SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
SEEDS = range(10)


def jitter(seed, scale=0.01):
    """Deterministic run-to-run noise of about +-scale."""
    return 1.0 + scale * (((seed * 7919) % 11) - 5) / 5.0


def records(slow_layer=None, moved_output=None):
    out = []
    for w in SPEC["workloads"]:
        for seed in SEEDS:
            e2e = {m["name"]: 10.0 * jitter(seed) for m in SPEC["end_to_end"]}
            out.append({"workload": w["name"], "seed": seed, "trace": 0,
                        "metrics": e2e,
                        "outputs": {"%d/fig.mean" % seed: 1.5e-10,
                                    "%d/fig.max" % seed: "inf"},
                        "counters": {"%d/solver.nr_iterations" % seed: 1000}})
            layer = {m["name"]: 4.0 * jitter(seed, 0.05)
                     for m in SPEC["per_layer"]}
            if slow_layer is not None and slow_layer[0] == w["name"]:
                layer[slow_layer[1]] *= 2.0
            outputs = {"%d/fig.mean" % seed: 1.5e-10}
            if moved_output == (w["name"], seed):
                outputs["%d/fig.mean" % seed] = 1.6e-10
            out.append({"workload": w["name"], "seed": seed, "trace": 1,
                        "metrics": layer, "outputs": outputs, "counters": {}})
    return out


class Verdicts(unittest.TestCase):
    def test_planted_two_times_slowdown_is_worse(self):
        base = {s: 1.0 * jitter(s) for s in SEEDS}
        change = {s: 2.0 * jitter(s) for s in SEEDS}
        self.assertEqual(compare.verdict(base, change, "lower", 0.1), "worse")

    def test_two_times_speedup_is_better(self):
        base = {s: 1.0 * jitter(s) for s in SEEDS}
        change = {s: 0.5 * jitter(s) for s in SEEDS}
        self.assertEqual(compare.verdict(base, change, "lower", 0.1), "better")

    def test_higher_is_better_flips_the_sign(self):
        base = {s: 1.0 * jitter(s) for s in SEEDS}
        change = {s: 0.5 * jitter(s) for s in SEEDS}
        self.assertEqual(compare.verdict(base, change, "higher", 0.1), "worse")

    def test_within_bound_is_unchanged(self):
        base = {s: 1.0 * jitter(s) for s in SEEDS}
        change = {s: 1.02 * jitter(s, 0.015) for s in SEEDS}
        self.assertEqual(compare.verdict(base, change, "lower", 0.1),
                         "unchanged")

    def test_spread_wider_than_bound_is_unresolved(self):
        base = {s: 1.0 * jitter(s, 0.5) for s in SEEDS}
        change = {s: 1.1 * jitter(s + 3, 0.5) for s in SEEDS}
        self.assertEqual(compare.verdict(base, change, "lower", 0.1),
                         "unresolved")


class Compare(unittest.TestCase):
    def run_compare(self, base, change):
        out = io.StringIO()
        ok = compare.compare(base, change, SPEC, out=out)
        return ok, out.getvalue()

    def test_same_records_compare_clean(self):
        ok, text = self.run_compare(records(), records())
        self.assertTrue(ok)
        self.assertNotIn("moved", text)
        self.assertNotIn("worse", text)

    def test_names_planted_layer_slowdown_and_moved_output(self):
        change = records(slow_layer=("assist_sweep", "sram.wlcrit_s"),
                         moved_output=("mc_variation", 4))
        ok, text = self.run_compare(records(), change)
        self.assertFalse(ok)
        layer_lines = [l for l in text.splitlines()
                       if l.startswith("layer moved")]
        self.assertEqual(len(layer_lines), 1)
        self.assertIn("assist_sweep sram.wlcrit_s", layer_lines[0])
        self.assertIn("x2.00", layer_lines[0])
        output_lines = [l for l in text.splitlines()
                        if l.startswith("output moved")]
        self.assertEqual(len(output_lines), 1)
        self.assertIn("mc_variation 4/fig.mean", output_lines[0])
        # The end-to-end metrics did not move.
        self.assertNotIn(" worse", text)

    def test_nondeterministic_counter_is_named(self):
        # Seed 1's run met episode 0 again and counted differently.
        change = records()
        change[2]["counters"]["0/solver.nr_iterations"] = 1001
        ok, text = self.run_compare(records(), change)
        self.assertFalse(ok)
        self.assertIn("nondeterministic counter (change): mc_variation "
                      "0/solver.nr_iterations [1000, 1001]", text)

    def test_command_line_reads_result_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, recs in (("base", records()),
                               ("change", records(("array_column",
                                                   "la.fill_ratio")))):
                path = Path(tmp) / (name + ".jsonl")
                path.write_text("".join(json.dumps(r) + "\n" for r in recs))
                paths.append(str(path))
            stdout = sys.stdout
            sys.stdout = io.StringIO()
            try:
                status = compare.main(paths)
                text = sys.stdout.getvalue()
            finally:
                sys.stdout = stdout
        self.assertEqual(status, 0)  # a layer move alone is not a failure
        self.assertIn("layer moved: array_column la.fill_ratio", text)


if __name__ == "__main__":
    unittest.main()
