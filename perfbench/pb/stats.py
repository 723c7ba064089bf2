"""Statistics helpers of the benchmark (tested in test_helpers.py)."""

import math


def percentile(values, q):
    """Linear-interpolated ``q`` quantile (0..1) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tail_percentile(values, q, beyond=10):
    """The ``q`` quantile, or None when fewer than ``beyond`` samples
    lie above it (so p99 needs at least 1000 samples)."""
    if len(values) * (1.0 - q) < beyond - 1e-9:
        return None
    return percentile(values, q)


def geomean(values):
    """Geometric mean of positive values."""
    values = list(values)
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values):
    return percentile(values, 0.5)


def middle_mean(values):
    """Mean of the middle half of ``values`` (a quarter cut from each
    end, rounded down).  Unlike the median it moves smoothly when the
    values fall into two clusters whose mix varies, as server set-up
    times do."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    kept = ordered[cut:len(ordered) - cut]
    if not kept:
        raise ValueError("middle mean of no values")
    return sum(kept) / len(kept)


def speed_scale(calib, reference):
    """Factor that scales a time measured beside the calibration loop
    times ``calib`` to a core on which the loop takes ``reference``:
    a host running at half speed doubles both the time and the loop,
    and the scaled time stays put."""
    return reference / median(calib)


def active_seconds(calib):
    """Time a load ran between its first and last calibration pause,
    without the pauses.  ``calib`` holds [begin, end, loop_s] per
    pause, in time order."""
    return sum(calib[k + 1][0] - calib[k][1] for k in range(len(calib) - 1))


def self_times(spans):
    """Self time of each span: its duration minus the part of its
    interval covered by its children.

    ``spans`` is a list of [name, start, end, parent, request] rows, as
    the harness prints them (parent is an index or -1).  Returns a list
    of self times in the spans' unit, parallel to ``spans``.
    """
    children = [[] for _ in spans]
    for idx, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(idx)
    out = []
    for idx, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        cursor = start
        intervals = sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children[idx])
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def tree_totals(nodes, totals=None):
    """Total and self duration per span name over a nested span tree
    ({name, dur_us, children}) as amos_served returns for a trace_id
    request.  Returns {name: [total_us, self_us]}."""
    if totals is None:
        totals = {}
    for node in nodes:
        kids = node.get("children", [])
        dur = float(node.get("dur_us", 0.0))
        own = dur - sum(float(k.get("dur_us", 0.0)) for k in kids)
        acc = totals.setdefault(node["name"], [0.0, 0.0])
        acc[0] += dur
        acc[1] += max(own, 0.0)
        tree_totals(kids, totals)
    return totals

