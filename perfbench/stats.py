"""Summary statistics and span arithmetic for the benchmark harness."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def tail_percentile(count: int) -> int | None:
    """Highest whole percentile q < 100 with at least TAIL_BEYOND of `count`
    samples ranked above it (nearest-rank), or None when no q qualifies."""
    for q in range(99, 0, -1):
        if count - math.ceil(q * count / 100) >= TAIL_BEYOND:
            return q
    return None


def tail(values) -> tuple[str, float]:
    """(label, value) of the tail latency: the nearest-rank value at
    tail_percentile, or the maximum, labelled p100, when there are too few
    samples for any percentile to have TAIL_BEYOND above it."""
    ordered = sorted(values)
    q = tail_percentile(len(ordered))
    if q is None:
        return "p100", ordered[-1]
    return f"p{q}", ordered[math.ceil(q * len(ordered) / 100) - 1]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of `intervals`."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def span_table(spans):
    """Per-span (name, duration, self time, outermost, work) from a list of
    [name, start, end, parent_index, work] records.

    Self time is the duration minus the part covered by direct children.
    A span is outermost when no ancestor has the same name; summing only
    those gives a layer's busy time without double counting recursion.
    """
    children = [[] for _ in spans]
    for k, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(k)
    rows = []
    for k, (name, start, end, parent, work) in enumerate(spans):
        inner = [(spans[c][1], spans[c][2]) for c in children[k]]
        outermost = True
        while parent >= 0:
            if spans[parent][0] == name:
                outermost = False
                break
            parent = spans[parent][3]
        rows.append((name, end - start, end - start - covered(inner, start, end), outermost, work))
    return rows
