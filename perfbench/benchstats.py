"""Statistics helpers of the repository benchmark.

Everything here is pure and small so that tests/test_benchstats.py can pin
it: medians and quartiles as the benchmark reports them, a percentile that
states how many samples lie beyond it, the failure fraction, the relative
deviation of simulated outputs from the stored reference, and the self time
of each traced layer.
"""

import math
import statistics

# Outputs whose relative deviation from the reference stays within this are
# correct; bitwise-identical outputs deviate by exactly 0.
REL_TOL = 1e-6


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    A single value is its own quartiles.
    """
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def relative_spread(values):
    """Interquartile distance as a share of the median (0 for one value)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) with its sample count.

    Returns (value, beyond, n): `beyond` is how many samples lie strictly
    above the value. A tail percentile is worth reporting only when at least
    ten samples lie beyond it.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 1.0:
        raise ValueError("quantile outside [0, 1]")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    beyond = sum(1 for v in ordered if v > value)
    return value, beyond, len(ordered)


def failed_frac(failed, attempted):
    """Failed units over attempted units; attempted must be at least 1."""
    if attempted < 1:
        raise ValueError("failed_frac needs at least one attempted unit")
    if not 0 <= failed <= attempted:
        raise ValueError("failed units must lie in [0, attempted]")
    return failed / attempted


def decode_number(value):
    """Simulated outputs carry non-finite values as "inf", "-inf", "nan"."""
    return float(value) if isinstance(value, str) else value


def rel_dev(value, reference):
    """Relative deviation of one output from its reference value.

    0 when the two are identical (equal infinities and two NaNs included),
    inf when only one of them is finite.
    """
    a = decode_number(value)
    b = decode_number(reference)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def max_rel_dev(outputs, reference):
    """Largest rel_dev over `outputs` and the name it belongs to.

    An output missing from the reference, or a reference value the run did
    not produce, deviates by inf.
    """
    worst, worst_name = 0.0, None
    for name in sorted(set(outputs) | set(reference)):
        if name not in outputs or name not in reference:
            dev = math.inf
        else:
            dev = rel_dev(outputs[name], reference[name])
        if dev > worst:
            worst, worst_name = dev, name
    return worst, worst_name


def layer_of(name):
    """Spans are named "<layer>.<call>"."""
    return name.split(".", 1)[0]


def self_times(spans):
    """Self time of every span, in the spans' time unit.

    `spans` holds dicts with keys id, parent, start and end. A span's self
    time is its duration minus the part of it its children cover. Children
    may run on other threads and overlap one another; at any instant the
    spans that have no running child share that instant equally, so the
    self times of all spans add up to the time any span was open.
    """
    events = []
    for s in spans:
        if s["end"] < s["start"]:
            raise ValueError("span %r ends before it starts" % (s["id"],))
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    # Ends sort before starts at equal times; zero-length intervals carry no
    # time, so the order within one instant only has to be consistent.
    events.sort(key=lambda e: (e[0], e[1]))
    parent = {s["id"]: s["parent"] for s in spans}
    running_children = {s["id"]: 0 for s in spans}
    active = set()
    leaves = set()
    result = {s["id"]: 0.0 for s in spans}
    last_t = None
    for t, is_start, sid in events:
        if last_t is not None and leaves and t > last_t:
            share = (t - last_t) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        last_t = t
        p = parent[sid]
        has_parent = p in running_children
        if is_start:
            active.add(sid)
            if running_children[sid] == 0:
                leaves.add(sid)
            if has_parent:
                running_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if has_parent:
                running_children[p] -= 1
                if running_children[p] == 0 and p in active:
                    leaves.add(p)
    return result


def layer_self_times(spans):
    """Self time summed per layer (the name's part before the first dot)."""
    per_span = self_times(spans)
    totals = {}
    for s in spans:
        layer = layer_of(s["name"])
        totals[layer] = totals.get(layer, 0.0) + per_span[s["id"]]
    return totals


def spans_from_chrome_trace(doc):
    """Spans of a Chrome trace-event document written by the driver."""
    spans = []
    for e in doc.get("traceEvents", []):
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        spans.append({
            "id": int(args["id"]),
            "parent": int(args["parent"]),
            "name": e["name"],
            "thread": e.get("tid", 0),
            "start": float(e["ts"]),
            "end": float(e["ts"]) + float(e["dur"]),
        })
    return spans
