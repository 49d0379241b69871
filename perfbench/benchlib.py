"""Arithmetic of the benchmark: summary statistics, the percentile rule,
span self time and safe ratios. Kept free of I/O so it can be unit-tested
(test_benchlib.py)."""

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond
# it, so p99 needs >= 1000 samples.
MIN_SAMPLES_BEYOND = 10


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else math.inf


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n samples."""
    return n - max(1, math.ceil(p / 100.0 * n))


def percentile_supported(n, p):
    return n > 0 and samples_beyond(n, p) >= MIN_SAMPLES_BEYOND


def grouped_percentile(values, groups, p):
    """Median, over the groups (serve_64: one per epoch), of the nearest-rank
    p-th percentile of each group's values. One host stall then moves one
    group's tail, not the run's."""
    by_group = {}
    for v, g in zip(values, groups):
        by_group.setdefault(g, []).append(v)
    return median([percentile(vs, p) for vs in by_group.values()])


def group_sizes(groups):
    """Number of values in each group, in first-seen order."""
    sizes = {}
    for g in groups:
        sizes[g] = sizes.get(g, 0) + 1
    return list(sizes.values())


def ratio(numerator, denominator):
    """numerator / denominator, 0.0 when the denominator is 0 (a layer that
    did no work on this workload)."""
    return numerator / denominator if denominator else 0.0


def covered_ns(intervals, start, end):
    """Length of the union of `intervals` ([(s, e)]) clipped to [start, end)."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    direct children cover. `spans` are dicts with id, parent, start, dur;
    parent 0 (or None) marks a root."""
    children = {}
    for s in spans:
        if s.get("parent"):
            children.setdefault(s["parent"], []).append(
                (s["start"], s["start"] + s["dur"]))
    return {
        s["id"]: s["dur"] - covered_ns(children.get(s["id"], []), s["start"],
                                       s["start"] + s["dur"])
        for s in spans
    }


def chrome_spans(trace):
    """Complete ("X") events of a Chrome trace as span dicts. Times stay in
    the file's microseconds; spans without a benchmark span id get a
    negative synthetic id and no parent."""
    tracks = {}
    for e in trace.get("traceEvents", []):
        if e.get("ph") == "M":
            key = (e["pid"], e["tid"])
            field = "process" if e["name"] == "process_name" else "thread"
            tracks.setdefault(key, {})[field] = e["args"]["name"]
    spans = []
    for i, e in enumerate(trace.get("traceEvents", [])):
        if e.get("ph") != "X":
            continue
        args = e.get("args", {})
        track = tracks.get((e["pid"], e["tid"]), {})
        spans.append({
            "id": args.get("span", -(i + 1)),
            "parent": args.get("parent", 0),
            "name": e["name"],
            "process": track.get("process", ""),
            "thread": track.get("thread", ""),
            "start": e["ts"],
            "dur": e["dur"],
        })
    return spans
