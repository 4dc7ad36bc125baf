"""Order statistics, span self time and request-class boundaries."""

import math
import statistics


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    """Nearest-rank p-th percentile (0 < p <= 100) of a non-empty list."""
    s = sorted(xs)
    return s[max(0, math.ceil(p / 100 * len(s)) - 1)]


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for a, b in sorted(intervals):
        if reach is None or a > reach:
            total += b - a
            reach = b
        elif b > reach:
            total += b - reach
            reach = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children cover.

    A span is (sid, parent, name, start, end, agg). Aggregate children
    (agg) stand for a phase total rather than one interval, so their
    whole duration is subtracted; the others count by the union of their
    intervals, clipped to the parent's. Returns {sid: seconds}."""
    kids = {}
    for s in spans:
        kids.setdefault(s[1], []).append(s)
    out = {}
    for sid, _, _, t0, t1, _ in spans:
        children = kids.get(sid, [])
        real = [(max(c[3], t0), min(c[4], t1)) for c in children if not c[5]]
        agg = sum(c[4] - c[3] for c in children if c[5])
        out[sid] = (t1 - t0) - covered([iv for iv in real if iv[1] > iv[0]]) - agg
    return out


def boundary_flags(classes, latencies, percentiles, margin=0.05):
    """Percentiles that fall within margin of a boundary between request
    classes.

    classes and latencies are parallel lists. The classes are ordered by
    their median latency; the boundaries are the cumulative shares in
    that order. Returns (shares, flags): shares maps each class to its
    share of the requests, flags lists (percentile, boundary) pairs."""
    by_class = {}
    for c, x in zip(classes, latencies):
        by_class.setdefault(c, []).append(x)
    n = len(classes)
    order = sorted(by_class, key=lambda c: median(by_class[c]))
    shares = {c: len(by_class[c]) / n for c in order}
    bounds, acc = [], 0.0
    for c in order[:-1]:
        acc += shares[c]
        bounds.append(acc)
    flags = [(p, b) for p in percentiles for b in bounds
             if abs(p / 100 - b) < margin]
    return shares, flags
