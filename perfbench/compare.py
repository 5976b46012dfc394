#!/usr/bin/env python3
"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--benchmark FILE]

Each file holds the records `run.py --out FILE` appends, typically ten
seeds per workload, untraced (--trace 0) and traced (--trace 1). For each
workload and end-to-end metric it prints the median and quartiles of both
sides and a verdict against the metric's bound from BENCHMARK.json:

  better      the change wins at least 9 in 10 seed-matched pairs and its
              median beats the base by more than the base's own spread;
  worse       the change's median is worse by more than the bound;
  unresolved  the run-to-run spread exceeds the bound, unless every run of
              one side beats every run of the other;
  unchanged   otherwise.

It then names every per-layer metric whose median moved by a factor of
LAYER_FACTOR or more, every simulated output that differs between the
sides, and every counter that did not repeat exactly between two runs of
the same episode on one side. The exit status is 1 when a metric got
worse, an output moved or a counter was nondeterministic, else 0.
"""

import argparse
import json
import sys
from pathlib import Path

import benchstats as bs

HERE = Path(__file__).resolve().parent
LAYER_FACTOR = 1.5
MAX_LISTED = 20


def load(path):
    records = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            records.append(json.loads(line))
    return records


def metric_values(records, workload, trace, name):
    """{seed: value} of one metric over one workload's records."""
    out = {}
    for r in records:
        if r["workload"] == workload and r["trace"] == trace \
                and name in r["metrics"]:
            out[r["seed"]] = bs.decode_number(r["metrics"][name])
    return out


def verdict(base, change, better, bound):
    """Verdict on one metric; `base` and `change` map seed -> value."""
    a, b = list(base.values()), list(change.values())
    sign = 1.0 if better == "lower" else -1.0
    ma, mb = bs.median(a), bs.median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    spread = max(bs.relative_spread(a), bs.relative_spread(b))
    every_better = all(sign * (y - x) < 0 for x in a for y in b)
    every_worse = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound:
        if every_better:
            return "better"
        return "worse" if every_worse else "unresolved"
    if worse_by > bound:
        return "worse"
    seeds = sorted(set(base) & set(change))
    pairs = [(base[s], change[s]) for s in seeds] or \
        [(x, y) for x in a for y in b]
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if wins >= 0.9 * len(pairs) and -worse_by > bs.relative_spread(a):
        return "better"
    return "unchanged"


def end_to_end_rows(base, change, spec):
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for w in workloads:
        for m in spec["end_to_end"]:
            a = metric_values(base, w, 0, m["name"])
            b = metric_values(change, w, 0, m["name"])
            if not a or not b:
                continue
            rows.append((w, m["name"], m["unit"], bs.quartiles(list(a.values())),
                         bs.quartiles(list(b.values())),
                         verdict(a, b, m["better"], m["bound"])))
    return rows


def moved_layer_metrics(base, change, spec):
    """(workload, metric, base median, change median) moved >= LAYER_FACTOR."""
    moved = []
    for w in [w["name"] for w in spec["workloads"]]:
        for m in spec["per_layer"]:
            a = metric_values(base, w, 1, m["name"])
            b = metric_values(change, w, 1, m["name"])
            if not a or not b:
                continue
            ma, mb = bs.median(list(a.values())), bs.median(list(b.values()))
            if ma == mb:
                continue
            lo, hi = sorted((abs(ma), abs(mb)))
            if lo == 0.0 or hi / lo >= LAYER_FACTOR:
                moved.append((w, m["name"], ma, mb))
    return moved


def side_values(records, key):
    """{workload: {name: value}} merged over one side's records."""
    merged = {}
    for r in records:
        merged.setdefault(r["workload"], {}).update(r.get(key, {}))
    return merged


def moved_outputs(base, change):
    """(workload, output, base value, change value, rel dev), largest first."""
    a, b = side_values(base, "outputs"), side_values(change, "outputs")
    moved = []
    for w in sorted(set(a) & set(b)):
        for name in sorted(set(a[w]) & set(b[w])):
            dev = bs.rel_dev(a[w][name], b[w][name])
            if dev > bs.REL_TOL:
                moved.append((w, name, a[w][name], b[w][name], dev))
    moved.sort(key=lambda m: -m[4])
    return moved


def nondeterministic_counters(records):
    """(workload, counter, values) that differ between runs of one episode."""
    seen = {}
    for r in records:
        for name, v in r.get("counters", {}).items():
            seen.setdefault((r["workload"], name), set()).add(v)
    return sorted((w, name, sorted(vals))
                  for (w, name), vals in seen.items() if len(vals) > 1)


def fmt(q):
    return "%.4g [%.4g, %.4g]" % (q[1], q[0], q[2])


def compare(base, change, spec, out=None):
    """Print the comparison; return True when nothing got worse or moved."""
    out = out or sys.stdout
    ok = True
    print("%-13s %-12s %-5s %-34s %-34s %s" % ("workload", "metric", "unit",
          "base median [q1, q3]", "change median [q1, q3]", "verdict"),
          file=out)
    for w, name, unit, qa, qb, v in end_to_end_rows(base, change, spec):
        print("%-13s %-12s %-5s %-34s %-34s %s"
              % (w, name, unit, fmt(qa), fmt(qb), v), file=out)
        ok = ok and v != "worse"
    for w, name, ma, mb in moved_layer_metrics(base, change, spec):
        ratio = "x%.2f" % (mb / ma) if ma else "from 0"
        print("layer moved: %s %s %.6g -> %.6g (%s)" % (w, name, ma, mb, ratio),
              file=out)
    moved = moved_outputs(base, change)
    for w, name, va, vb, dev in moved[:MAX_LISTED]:
        print("output moved: %s %s %r -> %r (rel dev %.3g)"
              % (w, name, va, vb, dev), file=out)
    if len(moved) > MAX_LISTED:
        print("output moved: %d more" % (len(moved) - MAX_LISTED), file=out)
    ok = ok and not moved
    for side, records in (("base", base), ("change", change)):
        for w, name, vals in nondeterministic_counters(records):
            print("nondeterministic counter (%s): %s %s %s"
                  % (side, w, name, vals), file=out)
            ok = False
    return ok


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("base")
    p.add_argument("change")
    p.add_argument("--benchmark", default=str(HERE.parent / "BENCHMARK.json"))
    args = p.parse_args(argv)
    spec = json.loads(Path(args.benchmark).read_text())
    return 0 if compare(load(args.base), load(args.change), spec) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
