"""Arithmetic behind the benchmark's metrics, with its own self-test.

Every function here is pure: run.py feeds it samples and span records taken
from zkbench's result documents. `python3 perfbench/stats.py` runs the
self-test; run.py runs it before every benchmark run and refuses to report
metrics when it fails.
"""

import math

# Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# A tail percentile is reported only when at least this many samples lie
# strictly beyond it.
TAIL_MIN_BEYOND = 10


def quantile(values, q):
    """Linear-interpolated quantile (q in [0, 1]) of a non-empty sample."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of an empty sample")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def tail(values):
    """The highest percentile with >= TAIL_MIN_BEYOND samples beyond it.

    Returns (label, value, n). A sample too small for any listed percentile
    reports its maximum under the label "max".
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        v = quantile(values, p / 100.0)
        if sum(1 for x in values if x > v) >= TAIL_MIN_BEYOND:
            return ("p%g" % p, v, n)
    return ("max", max(values), n)


def kind_median_sum(by_kind):
    """Sum over request kinds of each kind's median latency ({kind: [s]}).

    Every kind weighs by its latency, not by its share of the requests, so a
    slowdown of a rare kind moves the sum as much as one of a common kind."""
    return sum(median(xs) for xs in by_kind.values())


def share(part, base):
    """part / base, 0 when the base is empty (every share names its base)."""
    return part / base if base else 0.0


def rate(count, seconds):
    """Events per second over a measured interval."""
    if seconds <= 0:
        raise ValueError("rate over a non-positive interval")
    return count / seconds


def open_loop_latency(due_s, done_s):
    """Latency of an open-loop request, timed from when it was due to be sent
    (not from when the generator got round to sending it)."""
    return done_s - due_s


def union_length(intervals):
    """Total length covered by a set of [start, end) intervals."""
    total = 0.0
    end = -math.inf
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def clip(interval, window):
    s, e = interval
    ws, we = window
    s, e = max(s, ws), min(e, we)
    return (s, e) if e > s else None


def self_time(parent, children):
    """A span's duration minus the part of it its children cover. Children
    are clipped to the parent's interval and merged first, so concurrent
    children (pool tasks) are not subtracted twice."""
    clipped = [c for c in (clip(ch, parent) for ch in children) if c]
    return (parent[1] - parent[0]) - union_length(clipped)


def concurrency(groups):
    """Summed span time over the wall time the spans cover: 1 when the spans
    never overlap, above 1 when the same work runs concurrently. Each group
    holds the intervals of one clock (one tracer); groups are pooled."""
    summed = sum(e - s for g in groups for s, e in g)
    return share(summed, sum(union_length(g) for g in groups))


def selftest():
    """Raises AssertionError when any of the arithmetic above is wrong."""
    def near(a, b):
        return abs(a - b) < 1e-9

    # Quantiles interpolate between order statistics.
    assert near(quantile([3, 1, 2], 0.5), 2)
    assert near(quantile([1, 2, 3, 4], 0.5), 2.5)
    assert near(quantile(range(101), 0.9), 90)

    # Tail selection keeps >= 10 samples beyond the reported percentile.
    assert tail(list(range(1, 20))) == ("max", 19, 19)  # 19 samples: none qualifies
    label, v, n = tail(list(range(1, 21)))               # 20 samples: p50, 10 beyond
    assert (label, n) == ("p50", 20) and near(v, 10.5)
    label, _, _ = tail(list(range(40)))                  # 40: p75 has exactly 10 beyond
    assert label == "p75"
    label, v, _ = tail(list(range(1000)))
    assert label == "p99" and sum(1 for x in range(1000) if x > v) >= 10
    label, _, _ = tail(list(range(100)))                 # p90 leaves 10 beyond
    assert label == "p90"
    assert tail([5.0] * 30)[0] == "max"                  # ties: nothing lies beyond

    # Per-kind medians are summed, whatever each kind's request count: a
    # kind with 2 requests counts as much as one with 20.
    assert near(kind_median_sum({"a": [1.0] * 20, "b": [3.0, 5.0]}), 5.0)
    assert near(kind_median_sum({"a": [1.0] * 20, "b": [6.0, 10.0]}), 9.0)

    # Self time clips children to the parent and merges overlapping ones.
    assert near(self_time((0, 10), [(2, 4), (3, 6)]), 6)     # union [2, 6)
    assert near(self_time((0, 10), [(-5, 2), (8, 20)]), 6)   # clipped to [0,2) + [8,10)
    assert near(self_time((0, 10), [(1, 9), (1, 9), (1, 9)]), 2)  # concurrent copies
    assert near(self_time((0, 10), [(20, 30)]), 10)          # outside the parent

    # Concurrency ratio: duplicated concurrent work shows above 1; spans on
    # different tracers' clocks never overlap each other.
    assert near(concurrency([[(0, 5), (0, 5)]]), 2)
    assert near(concurrency([[(0, 5), (5, 10)]]), 1)
    assert near(concurrency([[(0, 5)], [(0, 5)]]), 1)
    assert near(union_length([(0, 2), (1, 3), (5, 6)]), 4)

    # Open-loop latency starts at the schedule: a send that went out 0.3 s
    # late and came back 0.2 s later waited 0.5 s.
    assert near(open_loop_latency(due_s=1.0, done_s=1.5), 0.5)

    # Rates and shares carry their base.
    assert near(rate(10, 4.0), 2.5)
    assert near(share(3, 4), 0.75)
    assert share(0, 0) == 0.0
    try:
        rate(1, 0)
        raise AssertionError("rate over a zero interval must fail")
    except ValueError:
        pass


if __name__ == "__main__":
    selftest()
    print("stats selftest: ok")
