#!/usr/bin/env python3
"""Repository benchmark: build the driver, run one workload, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--threads T] [--out results.jsonl]
    python3 perfbench/run.py --workload NAME --write-reference

Run from anywhere; paths are taken relative to this file. The driver is
built from the repository sources into .bench_build/ on first use. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. A readable table goes to standard error.

--out appends the full record of the run (every metric, every simulated
output, the per-episode counters) to a JSON-lines file that compare.py
reads. --write-reference runs every episode of the workload once and
stores its outputs as the reference the benchmark checks against.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import benchstats as bs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build"
OUT_DIR = ROOT / ".bench_out"
REFERENCE_DIR = HERE / "reference"
PREDICTIONS = HERE / "predictions.json"
WORKLOADS = ("mc_variation", "assist_sweep", "array_column")
MAX_THREADS = 4

# name -> unit; the order is the order of the printed table.
END_TO_END = {
    "wall_s": "s",
    "units_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

LAYERS = ("bench", "device", "mc", "sram", "runner", "array", "hier")

PER_LAYER = {
    "device.model_set_build_s": "s",
    "device.draws": "count",
    "mc.samples": "count",
    "mc.censored": "count",
    "mc.retried": "count",
    "mc.run_s": "s",
    "mc.prelude_s": "s",
    "mc.eval_s": "s",
    "mc.lane_busy_frac": "fraction",
    "mc.yield_samples": "count",
    "mc.yield_ess": "count",
    "mc.model_retargets": "count",
    "sram.wlcrit_s": "s",
    "sram.wlcrit_calls": "count",
    "sram.drnm_s": "s",
    "sram.drnm_calls": "count",
    "sram.snm_s": "s",
    "sram.hold_power_s": "s",
    "sram.build_cell_s": "s",
    "spice.nr_iterations": "count",
    "spice.assemblies": "count",
    "spice.lu_factorizations": "count",
    "spice.dc_solves": "count",
    "spice.transient_solves": "count",
    "spice.transient_steps": "count",
    "spice.line_search_backtracks": "count",
    "spice.batched_evals": "count",
    "spice.deadline_polls": "count",
    "spice.asm_per_nr_iter": "ratio",
    "spice.nr_per_step": "ratio",
    "la.sparse_ordering_s": "s",
    "la.sparse_symbolic_analyses": "count",
    "la.sparse_refactorizations": "count",
    "la.static_pivot_hit_rate": "fraction",
    "la.pivot_fallbacks": "count",
    "la.lu_nnz": "count",
    "la.fill_ratio": "ratio",
    "array.init_s": "s",
    "array.write_s": "s",
    "array.read_s": "s",
    "array.unknowns": "count",
    "array.functional_frac": "fraction",
    "hier.init_s": "s",
    "hier.write_s": "s",
    "hier.read_s": "s",
    "hier.promotions": "count",
    "hier.demotions": "count",
    "hier.relinearizations": "count",
    "hier.guard_retries": "count",
    "hier.active_unknowns": "count",
    "runner.tasks": "count",
    "runner.task_busy_s": "s",
    "runner.busy_frac": "fraction",
    "runner.max_task_s": "s",
    "runner.cache_hits": "count",
}
PER_LAYER.update({"trace.self_%s_s" % layer: "s" for layer in LAYERS})
PER_LAYER.update({
    "trace.self_sum_frac": "fraction",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.counter_mismatches": "count",
    "failed_frac": "fraction",
    "sim_rel_dev_max": "ratio",
})

# Layer counts that must repeat exactly when an episode runs again; the
# solver counters join them, except the ordering time.
EXACT_LAYER_COUNTS = (
    "device.draws", "mc.samples", "mc.censored", "mc.retried",
    "mc.yield_samples", "mc.model_retargets", "runner.tasks",
    "runner.cache_hits", "array.ops", "array.functional_ops",
    "array.unknowns", "hier.active_unknowns",
)


class BenchError(Exception):
    pass


def child_env():
    """The library reads TFETSRAM_* knobs; the benchmark fixes all inputs."""
    return {k: v for k, v in os.environ.items() if not k.startswith("TFETSRAM_")}


def build(jobs):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError("repository sources not found next to %s" % HERE.name)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=600,
                       env=child_env())
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "--target",
                    "perfbench_driver", "-j", str(jobs)],
                   stdout=sys.stderr, check=True, timeout=850, env=child_env())
    return BUILD_DIR / "perfbench_driver"


def run_driver(exe, args, extra, timeout):
    cmd = [str(exe), "--workload", args.workload, "--threads",
           str(args.threads)] + extra
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          env=child_env(), cwd=ROOT, text=True)
    if proc.returncode != 0:
        raise BenchError("driver exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("driver printed no record")
    return json.loads(lines[-1])


def load_reference(workload):
    path = REFERENCE_DIR / ("%s.json" % workload)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["episodes"]


def counters(rnd):
    """The counters of one round that must repeat exactly."""
    out = {"solver." + k: v for k, v in rnd["solver"].items()
           if k != "sparse_ordering_us"}
    for k, v in rnd["layer"].items():
        if k.endswith("_calls") or k in EXACT_LAYER_COUNTS:
            out[k] = v
    return out


def layer_values(rnd, record):
    """Per-layer metrics of one round (before tracing metrics)."""
    layer, solver = rnd["layer"], rnd["solver"]
    threads = record["threads"]

    def get(name):
        return float(layer.get(name, 0.0))

    def ratio(num, den):
        return num / den if den else 0.0

    mc_run = get("mc.run_monte_carlo_s") + get("mc.estimate_cell_yield_s")
    values = {
        "device.model_set_build_s": bs.median(record["model_set_build_s"]),
        "device.draws": get("device.draws"),
        "mc.samples": get("mc.samples"),
        "mc.censored": get("mc.censored"),
        "mc.retried": get("mc.retried"),
        "mc.run_s": mc_run,
        "mc.prelude_s": get("mc.prelude_s"),
        "mc.eval_s": get("mc.eval_s"),
        "mc.lane_busy_frac": ratio(get("mc.eval_s"), mc_run * threads),
        "mc.yield_samples": get("mc.yield_samples"),
        "mc.yield_ess": get("mc.yield_ess"),
        "mc.model_retargets": get("mc.model_retargets"),
        "la.sparse_ordering_s": solver["sparse_ordering_us"] / 1e6,
        "la.sparse_symbolic_analyses": solver["sparse_symbolic_analyses"],
        "la.sparse_refactorizations": solver["sparse_refactorizations"],
        "la.static_pivot_hit_rate": ratio(solver["sparse_static_pivot_hits"],
                                          solver["sparse_refactorizations"]),
        "la.pivot_fallbacks": solver["sparse_pivot_fallbacks"],
        "la.lu_nnz": solver["sparse_lu_nnz"],
        "la.fill_ratio": ratio(solver["sparse_lu_nnz"],
                               solver["sparse_pattern_nnz"]),
        "array.unknowns": get("array.unknowns"),
        "array.functional_frac": ratio(get("array.functional_ops"),
                                       get("array.ops")),
        "hier.promotions": solver["hier_promotions"],
        "hier.demotions": solver["hier_demotions"],
        "hier.relinearizations": solver["hier_relinearizations"],
        "hier.guard_retries": solver["hier_guard_retries"],
        "hier.active_unknowns": get("hier.active_unknowns"),
        "runner.tasks": get("runner.tasks"),
        "runner.task_busy_s": get("runner.task_s"),
        "runner.busy_frac": ratio(get("runner.task_s"),
                                  rnd["wall_s"] * threads),
        "runner.max_task_s": get("runner.max_task_s"),
        "runner.cache_hits": get("runner.cache_hits"),
        "spice.asm_per_nr_iter": ratio(solver["assemblies"],
                                       solver["nr_iterations"]),
        "spice.nr_per_step": ratio(solver["nr_iterations"],
                                   solver["transient_steps"]),
    }
    for name in ("sram.wlcrit_s", "sram.wlcrit_calls", "sram.drnm_s",
                 "sram.drnm_calls", "sram.snm_s", "sram.hold_power_s",
                 "sram.build_cell_s", "array.init_s", "array.write_s",
                 "array.read_s", "hier.init_s", "hier.write_s", "hier.read_s"):
        values[name] = get(name)
    for name in ("nr_iterations", "assemblies", "lu_factorizations",
                 "dc_solves", "transient_solves", "transient_steps",
                 "line_search_backtracks", "batched_evals", "deadline_polls"):
        values["spice." + name] = solver[name]
    return values


def trace_values(record, trace_file):
    """Self time per layer, per traced round, and the tracing overhead."""
    rounds = record["rounds"]
    traced = [r for r in rounds if r["traced"]]
    spans = bs.spans_from_chrome_trace(json.loads(trace_file.read_text()))
    per_layer = bs.layer_self_times(spans)
    n = len(traced)
    traced_wall = sum(r["wall_s"] for r in traced)
    values = {"trace.self_%s_s" % layer: per_layer.get(layer, 0.0) / 1e6 / n
              for layer in LAYERS}
    values["trace.self_sum_frac"] = (sum(per_layer.values()) / 1e6
                                     / traced_wall)
    # Each traced round directly follows the untraced run of its episode.
    overheads = [b["wall_s"] - a["wall_s"]
                 for a, b in zip(rounds, rounds[1:])
                 if b["traced"] and not a["traced"]
                 and a["episode"] == b["episode"]]
    untraced_wall = bs.median([a["wall_s"] for a in rounds if not a["traced"]])
    values["trace.overhead_s"] = bs.median(overheads)
    values["trace.overhead_frac"] = values["trace.overhead_s"] / untraced_wall
    return values


def check_repeats(rounds):
    """Names of counters that differ between two runs of one episode."""
    first = {}
    mismatches = []
    for rnd in rounds:
        ep = rnd["episode"]
        c = counters(rnd)
        if ep not in first:
            first[ep] = (c, rnd["outputs"])
            continue
        c0, o0 = first[ep]
        for k in sorted(set(c0) | set(c)):
            if c0.get(k) != c.get(k):
                mismatches.append("episode %d counter %s: %r vs %r"
                                  % (ep, k, c0.get(k), c.get(k)))
        o = rnd["outputs"]
        for k in sorted(set(o0) | set(o)):
            if k not in o0 or k not in o or bs.rel_dev(o0[k], o[k]):
                mismatches.append("episode %d output %s: %r vs %r"
                                  % (ep, k, o0.get(k), o.get(k)))
    return mismatches


def broken_zero_predictions(workload, metrics):
    """Metrics predicted to read 0 on this workload that do not."""
    broken = []
    for p in json.loads(PREDICTIONS.read_text())["predictions"]:
        if workload in p["zero_on"]:
            broken += ["%s = %g" % (m, metrics[m]) for m in p["metrics"]
                       if metrics[m] != 0]
    return broken


def evaluate(record, reference, trace_file):
    """All metrics of a run plus its correctness verdict."""
    rounds = record["rounds"]
    untraced = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    attempted = sum(r["attempted"] for r in untraced)
    failed = sum(r["failed"] for r in untraced)
    units = [s for r in untraced for s in r["unit_s"]]
    p90, beyond, n_units = bs.percentile(units, 0.9)

    metrics = {
        "wall_s": bs.median([r["wall_s"] for r in untraced]),
        "units_per_s": bs.median([(r["attempted"] - r["failed"]) / r["wall_s"]
                                  for r in untraced]),
        "op_p50_ms": bs.median(units) * 1e3,
        "op_p90_ms": p90 * 1e3,
        "setup_s": bs.median(record["setup_s"]),
        "peak_rss_mb": record["peak_rss_mb"],
    }
    notes = ["%d units timed, %d beyond p90" % (n_units, beyond)]
    if beyond < 10:
        notes.append("p90 rests on fewer than 10 units beyond it")

    if reference is None:
        dev, worst = math.inf, "(no reference stored)"
    else:
        dev, worst = 0.0, None
        for r in rounds:
            ref = reference.get(str(r["episode"]))
            d, name = (math.inf, "episode %d" % r["episode"]) if ref is None \
                else bs.max_rel_dev(r["outputs"], ref)
            if d > dev:
                dev, worst = d, "episode %d %s" % (r["episode"], name)
    repeats = check_repeats(rounds)

    if traced:
        per_round = [layer_values(r, record) for r in traced]
        for name in per_round[0]:
            metrics[name] = bs.median([v[name] for v in per_round])
        metrics.update(trace_values(record, trace_file))
        metrics["trace.counter_mismatches"] = len(repeats)
        notes += ["predicted 0 but measured: " + b for b in
                  broken_zero_predictions(record["workload"], metrics)]
    metrics["failed_frac"] = bs.failed_frac(failed, attempted)
    metrics["sim_rel_dev_max"] = dev
    # A counter that does not repeat is reported as nondeterminism; only
    # the simulated outputs decide correctness.
    correct = dev <= bs.REL_TOL
    return {
        "metrics": metrics, "attempted": attempted, "failed": failed,
        "correct": correct, "worst_output": worst, "nondeterminism": repeats,
        "notes": notes,
    }


def outputs_by_episode(record):
    out = {}
    for r in record["rounds"]:
        for k, v in r["outputs"].items():
            out["%d/%s" % (r["episode"], k)] = v
    return out


def counters_by_episode(record):
    out = {}
    for r in record["rounds"]:
        for k, v in counters(r).items():
            out["%d/%s" % (r["episode"], k)] = v
    return out


def report(args, result):
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in names.items()}
    for name, m in metrics.items():
        print("  %-30s %14.6g %s" % (name, m["value"], m["unit"]),
              file=sys.stderr)
    for note in result["notes"]:
        print("  note: " + note, file=sys.stderr)
    if result["worst_output"] is not None and result["metrics"]["sim_rel_dev_max"]:
        print("  largest output deviation: %s (%g)"
              % (result["worst_output"], result["metrics"]["sim_rel_dev_max"]),
              file=sys.stderr)
    for line in result["nondeterminism"]:
        print("  NONDETERMINISM: " + line, file=sys.stderr)
    # Per-layer values may be 0 or inf; JSON has no inf.
    for m in metrics.values():
        if not math.isfinite(m["value"]):
            m["value"] = str(m["value"])
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def write_reference(args, exe):
    record = run_driver(exe, args, ["--all-episodes"], timeout=None)
    episodes = {}
    for r in record["rounds"]:
        if r["failed"]:
            raise BenchError("episode %d has failed units; no reference"
                             % r["episode"])
        episodes[str(r["episode"])] = r["outputs"]
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / ("%s.json" % args.workload)
    path.write_text(json.dumps({"workload": args.workload,
                                "episodes": episodes}, indent=0,
                               sort_keys=True) + "\n")
    print("wrote %s (%d episodes)" % (path, len(episodes)), file=sys.stderr)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int,
                   default=min(MAX_THREADS, os.cpu_count() or 1))
    p.add_argument("--out", type=Path)
    p.add_argument("--write-reference", action="store_true")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.threads < 1:
        p.error("seed must be >= 0, seconds and threads > 0")
    return args


def main(argv):
    args = parse_args(argv)
    try:
        exe = build(args.threads)
        if args.write_reference:
            write_reference(args, exe)
            return 0
        extra = ["--seed", str(args.seed), "--seconds", repr(args.seconds),
                 "--trace", str(args.trace)]
        trace_file = OUT_DIR / ("trace_%s_seed%d.json"
                                % (args.workload, args.seed))
        if args.trace:
            extra += ["--trace-file", str(trace_file)]
        record = run_driver(exe, args, extra, timeout=args.seconds + 120)
        result = evaluate(record, load_reference(args.workload), trace_file)
    except (BenchError, subprocess.SubprocessError, OSError, ValueError,
            KeyError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    if args.out is not None:
        with open(args.out, "a") as f:
            f.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "correct": result["correct"],
                "attempted": result["attempted"], "failed": result["failed"],
                "metrics": {k: (v if math.isfinite(v) else str(v))
                            for k, v in result["metrics"].items()},
                "outputs": outputs_by_episode(record),
                "counters": counters_by_episode(record),
            }) + "\n")
    report(args, result)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
